"""Cyclotomic coefficients, classical and generalized.

The classical coefficients c[n][i-1] are products of q-braces divided by
{2}; the generalized ones deform them by two extra parameters t1, t2 and
can be computed by several independent routes that must agree.
"""

from gjones import (coeff_det_series, coeff_series, coeff_sum, coeff_t2one,
                    coefficient, cyclotomic_c, qint)

print("Classical coefficients")
print("----------------------")
for n in range(1, 5):
    for i in range(1, n + 1):
        print(f"  c[{n},{i}] = {cyclotomic_c(n, i)}")
print()
print("The first column is the quantum dimension [n] in q^2:")
for n in range(1, 5):
    assert cyclotomic_c(n, 1) == qint(n, 2)
print("  c[n,1] == [n]_{q^2} for n <= 4")
print()

print("Generalized coefficients (production route: fraction-free series sweep)")
print("------------------------------------------------------------------------")
for n in range(1, 4):
    for i in range(1, n + 1):
        print(f"  chat[{n},{i}] = {coefficient(n, i)}")
print()

print("Setting t1 = t2 = 1 recovers the classical values:")
ch = coefficient(3, 2)
print("  chat[3,2](q,1,1) == c[3,2]:",
      ch.substitute("t1", 1).substitute("t2", 1) == cyclotomic_c(3, 2))
print()

print("Route cross-checks")
print("------------------")
series = coeff_series(2, 5)
det = coeff_det_series(2, 5)
print("  lam-series route, coefficient at lam^3 equals the sum route:",
      series.coeff(3) == coeff_sum(3, 2))
print("  determinant route agrees with the series route:",
      det.coeff(3) == series.coeff(3))
print("  closed form at t2=1 agrees with the sum route:",
      coeff_t2one(3, 2) == coeff_sum(3, 2).substitute("t2", 1))
