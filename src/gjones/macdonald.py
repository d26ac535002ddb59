"""Rank-1 symmetric orthogonal polynomials (continuous q-ultraspherical family).

``mac_p`` builds p_n from the three-term recurrence

    (x + x^-1) p_n = p_{n+1} + b_n p_{n-1},
    b_n = (1 - Q^n)(1 - beta^2 Q^(n-1)) / ((1 - beta Q^(n-1))(1 - beta Q^n))

with p_0 = 1, p_1 = x + x^-1, where beta and Q are integer powers of q
(both exponents even, which covers every use here: beta = q^4i, Q = q^4).
Each factor 1 - q^(2m) equals -q^m {m}, so the b_n stay inside the brace
fraction ring and the unit monomials cancel pairwise.

``rogers_c`` is the renormalized family with the explicit q^4-binomial
expansion, integer coefficients in Z[q^(+-4)].
"""

from __future__ import annotations

from functools import lru_cache

from .exactalg import LaurentPoly, QFraction, TruncatedSeries, qbrace_poly
from .qcombo import gauss_qbinom, qpochhammer


class DegenerateRecurrence(ArithmeticError):
    """A recurrence coefficient denominator vanished identically."""


def _b_coeff(n: int, beta_exp: int, base_exp: int) -> QFraction:
    """Recurrence coefficient b_n as a brace fraction.

    Writing each factor 1 - q^(2m) as -q^m {m}, the four unit monomials
    cancel exactly and b_n = {m1}{m2} / ({m3}{m4}); an index may be
    negative, and {-m} = -{m}.
    """
    b, B = base_exp, beta_exp
    e1, e2 = b * n, 2 * B + b * (n - 1)
    e3, e4 = B + b * (n - 1), B + b * n
    if e3 == 0 or e4 == 0:
        raise DegenerateRecurrence(f"denominator of b_{n} vanishes identically")
    if e1 == 0 or e2 == 0:
        return QFraction.zero()
    return QFraction(qbrace_poly(e1 // 2) * qbrace_poly(e2 // 2), (e3 // 2, e4 // 2))


@lru_cache(maxsize=None)
def mac_p(n: int, beta_exp: int, base_exp: int) -> QFraction:
    """p_n(x; q^beta_exp | q^base_exp) from the three-term recurrence, as a
    brace fraction whose numerator carries the variable x."""
    if n < 0:
        raise ValueError("mac_p requires n >= 0")
    if beta_exp % 2 or base_exp % 2:
        raise ValueError("beta and base exponents must be even integers")
    if n == 0:
        return QFraction.one()
    x_sum = LaurentPoly.var("x") + LaurentPoly.var("x", -1)
    if n == 1:
        return QFraction(x_sum)
    pm1 = mac_p(n - 1, beta_exp, base_exp)
    pm2 = mac_p(n - 2, beta_exp, base_exp)
    return (pm1 * x_sum - pm2 * _b_coeff(n - 1, beta_exp, base_exp)).reduced()


@lru_cache(maxsize=None)
def rogers_c(n: int, i: int) -> LaurentPoly:
    """C_n(x; q^4i | q^4) = sum_k [k+i-1, i-1] [n-k+i-1, i-1] x^(n-2k)
    with one-sided Gaussian binomials in q^4.

    Integer Laurent polynomial with nonnegative q-powers in Z[q^4],
    symmetric in x -> x^-1.  (The Gaussian convention is pinned by the
    renormalization identity against the recurrence route; the balanced
    convention differs by a monomial and fails it.)
    """
    if n < 0 or i < 1:
        raise ValueError("rogers_c requires n >= 0 and i >= 1")
    out = LaurentPoly.zero()
    for k in range(n + 1):
        w = gauss_qbinom(k + i - 1, i - 1, 4) * gauss_qbinom(n - k + i - 1, i - 1, 4)
        out = out + w * LaurentPoly.var("x", n - 2 * k)
    return out


def renorm_factor(n: int, i: int) -> QFraction:
    """(beta; Q)_n / (Q; Q)_n at beta = q^4i, Q = q^4, as a brace fraction.

    Each denominator factor 1 - q^(4+4k) contributes -q^(-(2+2k)) and a
    brace {2+2k}.
    """
    num = qpochhammer(4 * i, 4, n)
    shift = 0
    sign = 1
    den = []
    for k in range(n):
        shift -= 2 + 2 * k
        sign = -sign
        den.append(2 + 2 * k)
    return QFraction(num * LaurentPoly.term(sign, q=shift), tuple(den))


def rogers_from_recurrence(n: int, i: int) -> QFraction:
    """The renormalized polynomial assembled from the recurrence route."""
    return mac_p(n, 4 * i, 4) * renorm_factor(n, i)


def genfun_matches(i: int, order: int) -> bool:
    """Check the specialized generating identity through z^order:

        sum_n C_n(x; q^4i | q^4) z^n
            = prod_{k=0}^{i-1} (1 - q^4k z x)^-1 (1 - q^4k z x^-1)^-1

    The right side is built from explicit geometric series, independently
    of the explicit binomial formula on the left.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    rhs = TruncatedSeries.one(order)
    for k in range(i):
        for xe in (1, -1):
            geo = TruncatedSeries(
                [LaurentPoly.term(1, q=4 * k * m, x=xe * m) for m in range(order + 1)],
                order)
            rhs = rhs * geo
    for m in range(order + 1):
        if rhs.coeff(m) != rogers_c(m, i):
            return False
    return True
