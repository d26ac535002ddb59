"""The operator layer: module actions on Laurent polynomials in U, the
deformed shift (Dunkl) operator, and the quantum-trace identity.

The generalized coefficients come from expanding

    (U - U^-1) . S_{n-1}(Y' + Y'^-1)

over the skew basis U^p - U^-p, where S is the Chebyshev-type sequence
and Y' the deformed shift.  The same numbers satisfy a five-term
recurrence; the two computations cross-validate each other.
"""

from gjones import (LaurentPoly, UPoly, a_table, act_basic, base_vector,
                    cyclotomic_c, dunkl_pair_eval, dunkl_y, sigma_trace,
                    transition_row)

print("Basic right actions on the U-line")
print("---------------------------------")
e = base_vector()
print("  the distinguished vector is U - U^-1")
print("  it is fixed by s:", act_basic(e, "s") == e)
u3 = UPoly.monomial(3)
print("  U^3 . X = -q^6 U^3 (eigenvector):",
      act_basic(u3, "X") == UPoly.monomial(3, LaurentPoly.term(-1, q=6)))
print()

print("The deformed shift and its inverse")
print("----------------------------------")
f = UPoly.monomial(2)
g = dunkl_y(f)
back = dunkl_y(g, inverse=True)
print("  (U^2 . Y') . Y'^-1 == U^2:", back == f)
print("  closed evaluation at U = -q^4 matches the direct action:",
      dunkl_pair_eval(f, 2) == (dunkl_y(f) + dunkl_y(f, inverse=True)).eval_at(2))
print()

print("Transition rows, operator route vs recurrence route")
print("---------------------------------------------------")
for n in range(1, 5):
    row = transition_row(n)
    agree = row == dict(a_table(n))
    print(f"  n = {n}: rows agree ({len(row)} entries):", agree)
print()

print("Quantum traces through the Casimir scalar")
print("-----------------------------------------")
for n in range(1, 5):
    for k in range(n):
        assert sigma_trace(k, n) == cyclotomic_c(n, k + 1)
print("  trace(sigma_k on V_n) == c[n,k] for k < n <= 4")
print("  trace vanishes at k >= n:", sigma_trace(3, 3).is_zero)
