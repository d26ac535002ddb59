"""q-combinatorial building blocks.

Balanced q-integers and q-binomials, finite q-Pochhammer products, the
classical cyclotomic coefficients, and the signed binomial weights with
their companion product polynomial.

Balanced convention throughout: [n] in base b is the Laurent polynomial
sum_{j=0}^{n-1} q^{b(n-1-2j)}, i.e. [n] in the variable q^b, symmetric
under q -> q^-1.
"""

from __future__ import annotations

from functools import lru_cache

from .exactalg import LaurentPoly


def _check_base(base: int) -> None:
    if base <= 0 or base % 2:
        raise ValueError("base must be a positive even exponent")


@lru_cache(maxsize=None)
def qint(n: int, base: int) -> LaurentPoly:
    """Balanced q-integer [n] in the variable q^base; equals {base*n}/{base}."""
    _check_base(base)
    if n < 0:
        raise ValueError("qint requires n >= 0")
    out = LaurentPoly.zero()
    for j in range(n):
        out = out + LaurentPoly.var("q", base * (n - 1 - 2 * j))
    return out


def qbinom(n: int, m: int, base: int) -> LaurentPoly:
    """Balanced q-binomial coefficient in base ``base``, 0 <= m <= n.

    The one-sided Gaussian binomial in q^(2*base), centred by the monomial
    q^(-base*m*(n-m)), so no division is ever needed.
    """
    _check_base(base)
    if m < 0 or m > n:
        raise IndexError(f"qbinom out of range: n={n}, m={m}")
    return gauss_qbinom(n, m, 2 * base) * LaurentPoly.var("q", -base * m * (n - m))


@lru_cache(maxsize=None)
def gauss_qbinom(n: int, m: int, base: int) -> LaurentPoly:
    """One-sided Gaussian binomial in the variable Q = q^base.

    Equals the (Q; Q)-Pochhammer quotient, with nonnegative powers only;
    for even base/2 it is the balanced form shifted up:
    q^(base*m*(n-m)/2) * qbinom(n, m, base/2).
    """
    if base <= 0:
        raise ValueError("base must be a positive exponent")
    if m < 0 or m > n:
        raise IndexError(f"gauss_qbinom out of range: n={n}, m={m}")
    if m == 0 or m == n:
        return LaurentPoly.one()
    return (gauss_qbinom(n - 1, m - 1, base)
            + gauss_qbinom(n - 1, m, base) * LaurentPoly.var("q", base * m))


def qpochhammer(a_qexp: int, base_exp: int, n: int) -> LaurentPoly:
    """Finite product (q^a; q^b)_n = prod_{k=0}^{n-1} (1 - q^(a + k*b))."""
    if n < 0:
        raise ValueError("qpochhammer requires n >= 0")
    out = LaurentPoly.one()
    for k in range(n):
        out = out * (LaurentPoly.one() - LaurentPoly.var("q", a_qexp + k * base_exp))
    return out


@lru_cache(maxsize=None)
def w_poly(m: int) -> LaurentPoly:
    """w_m = q^4m + q^-4m, so that {2(p-j)}{2(p+j)} = w_p - w_j."""
    return LaurentPoly.var("q", 4 * m) + LaurentPoly.var("q", -4 * m)


def row_braces(n: int) -> tuple[int, ...]:
    """The braces of D_n = {3}{5}...{2n-1}, the one denominator of row n of the table."""
    return tuple(range(3, 2 * n, 2))


@lru_cache(maxsize=None)
def cyclotomic_c(n: int, i: int) -> LaurentPoly:
    """Classical cyclotomic coefficient c_{n,i-1}, 1 <= i <= n.

    The product prod_{p=n-i+1}^{n+i-1} {2p} divided by {2}, built without
    division as [n] in base 2 (= {2n}/{2}) times prod_{j<i} (w_n - w_j).
    """
    if i < 1 or i > n:
        raise IndexError(f"cyclotomic_c out of range: n={n}, i={i}")
    out = qint(n, 2)
    for j in range(1, i):
        out = out * (w_poly(n) - w_poly(j))
    return out


@lru_cache(maxsize=None)
def alpha_weight(i: int, k: int) -> LaurentPoly:
    """Signed q^2-binomial weight (-1)^(i-k) [2i-1, i-k] in base 2, 1 <= k <= i."""
    if k < 1 or k > i:
        raise IndexError(f"alpha_weight out of range: i={i}, k={k}")
    sign = -1 if (i - k) % 2 else 1
    return qbinom(2 * i - 1, i - k, 2) * sign


@lru_cache(maxsize=None)
def eigen_product(i: int) -> LaurentPoly:
    """Product polynomial prod_{k=1}^{i-1} (q^-2k X - q^2k X^-1)(q^2k X - q^-2k X^-1).

    Symmetric in X -> X^-1; multiplying by X - X^-1 expands it over the
    alpha weights on the odd powers of X (see the tests).
    """
    if i < 1:
        raise ValueError("eigen_product requires i >= 1")
    out = LaurentPoly.one()
    for k in range(1, i):
        f1 = LaurentPoly.term(1, q=-2 * k, X=1) - LaurentPoly.term(1, q=2 * k, X=-1)
        f2 = LaurentPoly.term(1, q=2 * k, X=1) - LaurentPoly.term(1, q=-2 * k, X=-1)
        out = out * f1 * f2
    return out
