"""Operator actions behind the transition coefficients.

Two module structures are implemented:

* the right action of the quantum-torus generators X, Y, s and of the
  deformed shift (Dunkl) operator on Laurent polynomials in U, carrying
  the distinguished vector U - U^-1, whose image under S_{n-1}(Y' + Y'^-1)
  is row n of the transition table, held over the table's D_n;
* the T1/T3 generator actions on Laurent polynomials in X, T1 with
  parameters (t1, t2) and T3 with parameters (t3, t4).  Each is written
  as its formula: T1's division by q X - q^-1 X^-1 is one exact
  ``divide_binomial``, and T3's (1 - X^2) poles stay on the ``XFrac``
  carrier, which divides them out the same way.

Conventions: right actions compose left to right, f.(AB) = (f.A).B.
The basic generators act by

    f(U) . Y = f(U) * U^-1
    f(U) . X = -f(q^2 U)          (so U^k is an eigenvector: -q^(2k) U^k)
    f(U) . s = -f(U^-1)

The deformed shift acts monomial-wise through the scalar function
a(k) = (tbar2 - tbar1 q^(1-2k)) / {2k-1}:

    U^k . Y' = (t1 - a(k)) U^(k-1) - a(k) U^(-k)

Its two-sided inverse follows from a 2x2 solve on each monomial whose
determinant is identically 1 (because a(k+1) + a(-k) = tbar1):

    U^k . Y'^-1 = (t1 - a(-k)) U^(k+1) + a(k+1) U^(-k)
"""

from __future__ import annotations

from functools import lru_cache

from .exactalg import LaurentPoly, QFraction, divide_binomial, qbrace_poly
from .qcombo import row_braces


class NotSkewSymmetric(ArithmeticError):
    """An operator-expanded vector failed the U -> U^-1 sign check."""


class NonPolynomialResult(ArithmeticError):
    """A generator action left an uncancelled X-denominator."""


_T1 = LaurentPoly.var("t1")
_T1I = LaurentPoly.var("t1", -1)
_TBAR1 = _T1 - _T1I
_TBAR2 = LaurentPoly.var("t2") - LaurentPoly.var("t2", -1)


class UPoly:
    """Laurent polynomial in U with QFraction coefficients in (q, t1, t2)."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, QFraction] | None = None):
        self._c = {k: c for k, c in (coeffs or {}).items() if not c.is_zero}

    @classmethod
    def monomial(cls, k: int, c: QFraction | LaurentPoly | int = 1) -> UPoly:
        if not isinstance(c, QFraction):
            c = QFraction(c)
        return cls({k: c})

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, k: int) -> QFraction:
        return self._c.get(k, QFraction.zero())

    def support(self) -> list[int]:
        return sorted(self._c)

    def __add__(self, other: UPoly) -> UPoly:
        out = dict(self._c)
        for k, c in other._c.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return UPoly(out)

    def __sub__(self, other: UPoly) -> UPoly:
        return self + (-other)

    def __neg__(self) -> UPoly:
        return UPoly({k: -c for k, c in self._c.items()})

    def scale(self, c: QFraction | LaurentPoly | int) -> UPoly:
        if not isinstance(c, QFraction):
            c = QFraction(c)
        return UPoly({k: ck * c for k, ck in self._c.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return (self - other).is_zero

    def eval_at(self, j: int) -> QFraction:
        """Evaluate at U = -q^(2j): sum of c_k (-1)^k q^(2jk)."""
        out = QFraction.zero()
        for k, c in self._c.items():
            sign = -1 if k % 2 else 1
            out = out + c * LaurentPoly.term(sign, q=2 * j * k)
        return out

    def __str__(self) -> str:
        parts = [f"U^{k}: {c}" for k, c in sorted(self._c.items())]
        return "{" + ", ".join(parts) + "}" if parts else "0"

    __repr__ = __str__


def base_vector() -> UPoly:
    """The distinguished cyclic vector U - U^-1."""
    return UPoly({1: QFraction.one(), -1: -QFraction.one()})


def act_x(f: UPoly) -> UPoly:
    return UPoly({k: c * LaurentPoly.term(-1, q=2 * k) for k, c in f._c.items()})


def act_y(f: UPoly) -> UPoly:
    return UPoly({k - 1: c for k, c in f._c.items()})


def act_s(f: UPoly) -> UPoly:
    return UPoly({-k: -c for k, c in f._c.items()})


def act_basic(f: UPoly, gen: str) -> UPoly:
    """Right action of a basic generator: gen in {"X", "Y", "s"}."""
    try:
        return {"X": act_x, "Y": act_y, "s": act_s}[gen](f)
    except KeyError:
        raise ValueError(f"unknown generator {gen!r}") from None


@lru_cache(maxsize=None)
def a_scalar(k: int) -> QFraction:
    """The X-eigenvalue scalar of the Dunkl correction term at U^k.

    Evaluating (q tbar1 X^-1 + tbar2)/(q X^-1 - q^-1 X) at X = -q^(2k)
    gives (tbar2 - tbar1 q^(1-2k)) / {2k-1}.
    """
    return QFraction(_TBAR2 - _TBAR1 * LaurentPoly.var("q", 1 - 2 * k), (2 * k - 1,))


def dunkl_y(f: UPoly, inverse: bool = False) -> UPoly:
    """Right action of the deformed shift operator (or its inverse)."""
    out: dict[int, QFraction] = {}

    def add(k: int, c: QFraction) -> None:
        s = out.get(k)
        out[k] = c if s is None else s + c

    t1 = QFraction(_T1)
    for k, c in f._c.items():
        if inverse:
            add(k + 1, c * (t1 - a_scalar(-k)))
            add(-k, c * a_scalar(k + 1))
        else:
            add(k - 1, c * (t1 - a_scalar(k)))
            add(-k, -(c * a_scalar(k)))
    return UPoly(out)


def dunkl_pair(f: UPoly) -> UPoly:
    """f . (Y' + Y'^-1)."""
    return dunkl_y(f) + dunkl_y(f, inverse=True)


@lru_cache(maxsize=None)
def _s_vector(j: int) -> UPoly:
    """(U - U^-1) . S_j(Y' + Y'^-1) by the Chebyshev recurrence, each entry moved onto
    D_{j+1} = {3}{5}...{2j+1}; braces beyond it that do not cancel raise IntegralityViolation."""
    if j < 0:
        return UPoly()
    if j == 0:
        return base_vector()
    v = dunkl_pair(_s_vector(j - 1)) - _s_vector(j - 2)
    den = row_braces(j + 1)
    return UPoly({k: QFraction(c.over(den), den) for k, c in v._c.items()})


def skew_coefficients(v: UPoly, pmax: int | None = None) -> dict[int, QFraction]:
    """Expand a vector over the skew basis U^p - U^-p, p >= 1.

    Raises NotSkewSymmetric unless v changes sign under U -> U^-1 (and,
    when ``pmax`` is given, unless the support stays within it).
    """
    if not v.coeff(0).is_zero:
        raise NotSkewSymmetric("U^0 coefficient is nonzero")
    out: dict[int, QFraction] = {}
    for p in range(1, max((abs(k) for k in v.support()), default=0) + 1):
        cp, cm = v.coeff(p), v.coeff(-p)
        if not (cp + cm).is_zero:
            raise NotSkewSymmetric(f"skew symmetry fails at p={p}")
        if not cp.is_zero:
            out[p] = cp
    if pmax is not None and any(p > pmax for p in out):
        raise NotSkewSymmetric(f"support exceeds U^{pmax}")
    return out


def transition_row(n: int) -> dict[int, QFraction]:
    """Expand (U - U^-1) . S_{n-1}(Y' + Y'^-1) over the skew basis U^p - U^-p.

    Returns {p: coefficient} for p = 1..n, each over D_n as in ``a_table(n)``.
    The vector must be skew-symmetric under U -> U^-1; a failure means the
    operator actions are broken and raises NotSkewSymmetric.
    """
    if n < 1:
        raise ValueError("transition_row requires n >= 1")
    return skew_coefficients(_s_vector(n - 1), pmax=n)


def dunkl_pair_eval(f: UPoly, N: int) -> QFraction:
    """Closed form of [f . (Y' + Y'^-1)] at U = -q^(2N), N >= 1.

    Equals -(t1 q^-2N + t1^-1 q^2N) f(-q^2N)
           + tbar1 sum_{p=0}^{N-1} {2p} f(-q^(2(2p-N)))
           - tbar2 sum_{p=0}^{N-1} {2p+1} f(-q^(2(2p-N+1))).
    """
    if N < 1:
        raise ValueError("dunkl_pair_eval requires N >= 1")
    lead = LaurentPoly.term(-1, t1=1, q=-2 * N) + LaurentPoly.term(-1, t1=-1, q=2 * N)
    out = f.eval_at(N) * lead
    for p in range(N):
        if p:
            out = out + f.eval_at(2 * p - N) * (_TBAR1 * qbrace_poly(2 * p))
        out = out - f.eval_at(2 * p - N + 1) * (_TBAR2 * qbrace_poly(2 * p + 1))
    return out


# ---------------------------------------------------------------------------
# Polynomial-line generators T1 and T3
# ---------------------------------------------------------------------------

_ONE_MINUS_X2 = LaurentPoly.one() - LaurentPoly.var("X", 2)


class XFrac:
    """Laurent polynomial in X over powers of (1 - X^2).

    T1 keeps polynomials polynomial, but T3 with generic parameters does
    not; composed relations are therefore checked on this carrier, where
    the only denominator ever needed is (1 - X^2)^j.
    """

    __slots__ = ("num", "j")

    def __init__(self, num: LaurentPoly, j: int = 0):
        self.num = num
        self.j = j

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _match(self, other: XFrac) -> tuple[LaurentPoly, LaurentPoly, int]:
        j = max(self.j, other.j)
        na, nb = self.num, other.num
        for _ in range(j - self.j):
            na = na * _ONE_MINUS_X2
        for _ in range(j - other.j):
            nb = nb * _ONE_MINUS_X2
        return na, nb, j

    def __add__(self, other: XFrac) -> XFrac:
        na, nb, j = self._match(other)
        return XFrac(na + nb, j)

    def __sub__(self, other: XFrac) -> XFrac:
        na, nb, j = self._match(other)
        return XFrac(na - nb, j)

    def scale(self, c: LaurentPoly | int) -> XFrac:
        return XFrac(self.num * c, self.j)

    def reduced(self) -> XFrac:
        num, j = self.num, self.j
        while j > 0:
            qt = divide_binomial(num, _ONE_MINUS_X2)
            if qt is None:
                break
            num, j = qt, j - 1
        return XFrac(num, j)

    def as_poly(self) -> LaurentPoly:
        r = self.reduced()
        if r.j:
            raise NonPolynomialResult("a (1 - X^2) denominator survives")
        return r.num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XFrac):
            return NotImplemented
        na, nb, _ = self._match(other)
        return na == nb


_QX_MINUS_QX_INV = LaurentPoly.term(1, q=1, X=1) - LaurentPoly.term(1, q=-1, X=-1)
_A_NUM = LaurentPoly.term(1, q=1, X=1) * _TBAR1 + _TBAR2


def t1_act(f: XFrac | LaurentPoly) -> XFrac:
    """T1 . f = t1 V(f) + a(X) (f - V(f)) for the involution V: f -> f(q^-2 X^-1)
    and a(X) = (q tbar1 X + tbar2) / (q X - q^-1 X^-1).

    The division is exact for every Laurent polynomial f, since f - V(f)
    vanishes where X^2 = q^-2, so the result is always polynomial; a
    remainder raises NonPolynomialResult.  The quadratic Hecke relation
    holds because a + V(a) = tbar1.
    """
    if isinstance(f, XFrac):
        f = f.as_poly()
    v = f.substitute("X", LaurentPoly.term(1, q=-2, X=-1))
    quot = divide_binomial(f - v, _QX_MINUS_QX_INV)
    if quot is None:
        raise NonPolynomialResult("a (q X - q^-1 X^-1) denominator survives")
    return XFrac(_T1 * v + _A_NUM * quot)


def t3_act(f: XFrac | LaurentPoly, generic: bool = True) -> XFrac:
    """T3 . f = -t3 f(X^-1) + (tbar3 + tbar4 X)(f + f(X^-1)) / (1 - X^2).

    With t3 = t4 = 1 (generic=False) this collapses to -f(X^-1) and keeps
    polynomials polynomial; with generic parameters the denominator is
    genuine and the result lives on the XFrac carrier.
    """
    if isinstance(f, LaurentPoly):
        f = XFrac(f)
    g, j = f.num, f.j
    ghat = g.substitute("X", LaurentPoly.var("X", -1))
    # (1 - X^-2)^j = (-1)^j X^-2j (1 - X^2)^j
    sign = -1 if j % 2 else 1
    xshift = LaurentPoly.term(sign, X=2 * j)
    fhat_num = xshift * ghat          # f(X^-1) = fhat_num / (1 - X^2)^j
    if not generic:
        return XFrac(-fhat_num, j).reduced()
    t3 = LaurentPoly.var("t3")
    tbar34 = (t3 - LaurentPoly.var("t3", -1)
              + LaurentPoly.term(1, t4=1, X=1) - LaurentPoly.term(1, t4=-1, X=1))
    num = -(t3 * fhat_num) * _ONE_MINUS_X2 + tbar34 * (g + fhat_num)
    return XFrac(num, j + 1).reduced()


def polyrep_act(f: LaurentPoly | XFrac, gen: str, generic_t34: bool = False) -> LaurentPoly:
    """Apply a polynomial-line generator and insist on a polynomial result.

    T1 always lands back in Laurent polynomials.  T3 does so for
    t3 = t4 = 1; with generic parameters a single application generally
    leaves a (1 - X^2) pole and NonPolynomialResult is raised.
    """
    if gen == "T1":
        return t1_act(f).as_poly()
    if gen == "T3":
        return t3_act(f, generic=generic_t34).as_poly()
    raise ValueError(f"unknown generator {gen!r}")


def hecke_defect(gen: str, n: int) -> XFrac:
    """(T - t)(T + t^-1) applied to X^n; identically zero when the
    quadratic Hecke relation holds.  T1 runs with formal (t1, t2), T3 with
    formal (t3, t4) on the rational carrier."""
    try:
        act, t = {"T1": (t1_act, "t1"), "T3": (t3_act, "t3")}[gen]
    except KeyError:
        raise ValueError(f"unknown generator {gen!r}") from None
    xn = XFrac(LaurentPoly.var("X", n))
    step = act(xn) + xn.scale(LaurentPoly.var(t, -1))
    return (act(step) - step.scale(LaurentPoly.var(t))).reduced()
