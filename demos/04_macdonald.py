"""Rank-1 orthogonal polynomials and the t2 = 1 closed form.

The recurrence-built family p_n, its renormalized integer form C_n with
the explicit q^4-binomial expansion, the generating identity, and the
way they package the t2 = 1 coefficients.
"""

from gjones import (LaurentPoly, coeff_sum, coeff_t2one, genfun_matches, mac_p,
                    rogers_c)

x, xi = LaurentPoly.var("x"), LaurentPoly.var("x", -1)

print("Three-term recurrence at beta = q^8, base = q^4")
print("-----------------------------------------------")
for n in range(4):
    print(f"  p_{n} = {mac_p(n, 8, 4)}")
print()

print("At beta = base = q^4 the family telescopes (Schur-type collapse):")
for n in range(1, 6):
    val = mac_p(n - 1, 4, 4).over(())
    assert (x - xi) * val == LaurentPoly.var("x", n) - LaurentPoly.var("x", -n)
print("  (x - x^-1) p_{n-1}(x; q^4 | q^4) == x^n - x^-n for n <= 5")
print()

print("Renormalized integer family")
print("---------------------------")
for n in range(4):
    print(f"  C_{n}(x; q^8 | q^4) = {rogers_c(n, 2)}")
print()
print("Generating identity against the inverted product, order 6:")
for i in (1, 2):
    print(f"  i = {i}:", genfun_matches(i, 6))
print()

print("The t2 = 1 closed form assembled from C and the ratio product")
print("-------------------------------------------------------------")
for n in range(2, 5):
    closed = coeff_t2one(n, 2)
    summed = coeff_sum(n, 2).substitute("t2", 1)
    print(f"  chat[{n},2] at t2=1, closed == summed:", closed == summed)
