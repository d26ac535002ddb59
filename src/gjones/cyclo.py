"""Transition coefficients and generalized cyclotomic coefficients.

The triangular table a[n][p] is generated by the recurrence

    a[n+1][p] = A(p) a[n][p-1] + (A(p) - A(p+1)) a[n][p] + A(-p) a[n][p+1]
                - a[n-1][p]

from a[1][1] = 1, with a[n][0] = 0 and a[n][p] = 0 for p > n.  The same
rows come out of the Dunkl-operator expansion in ``daha``; the two routes
cross-check each other.

Row n is held over one denominator, D_n = {3}{5}...{2n-1}, as the integer
polynomials N[n][p] = D_n a[n][p].  With A(k) = u_k / {|2k-1|}, the row step

    N[n+1][p] = {2n+1} S_p / ({2p-1}{2p+1}) - {2n+1}{2n-1} N[n-1][p],
    S_p = {2p+1} u_p N[n][p-1] + ({2p+1} u_p - {2p-1} u_{p+1}) N[n][p]
          + {2p-1} u_{-p} N[n][p+1]

divides exactly (a remainder refutes D_n).  As {2(p-j)}{2(p+j)} = w_p - w_j,
w_m = q^4m + q^-4m, c[p][i] = ({2p}/{2}) prod_{j<i} (w_p - w_j); the sum route
starts from b_p = (-1)^(n+p) {2p} N[n][p], takes chat[n][i] = sum_p b_p /
(D_n {2}) and moves to i + 1 by the Newton step b_p -> b_p (w_p - w_i), p > i.

The numerators are held as q-packed values (``exactalg.PackedPoly``): the row
step, the sum route and ``knots.universal_eval`` multiply and add packed ints
and make each brace division one certified ``divide_braces``, as does the
{2} division of the lam-series sweep.  Rows stay packed in the row cache of
``_row``, and setting t1 or t2 to 1 merges packed slices (``PackedPoly.specialize``)
there, in det entries and in knot sums alike, before the one unpack; ``coefficient``
and ``coefficient_row`` unpack rows, and ``packed_row`` hands them to ``knots`` packed.

Generalized cyclotomic coefficients are then available by four routes:

* ``coeff_series``     lam-series of a lower-triangular solve, swept layer by
                       layer without fractions (production route);
* ``coeff_sum``        weighted sum over a table row;
* ``coeff_det_series`` same series from a small bordered determinant;
* ``coeff_t2one``      closed form at t2 = 1 via Rogers polynomials.

``coefficient`` and ``coefficient_row`` (chat[n][1..width]) pick a route, check that
it applies and specialize t1 / t2; callers ask for rows, and only this module orders them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .exactalg import (_EXP_LIMIT, IntegralityViolation, LaurentPoly, PackedBinomial, PackedPoly,
                       QFraction, TruncatedSeries, divide_braces, qbrace_poly)
from .macdonald import rogers_c
from .qcombo import alpha_weight, cyclotomic_c, qint, row_braces


class RouteUnavailable(ValueError):
    """The requested evaluation route does not apply to these parameters."""


ROUTES = ("sum", "series", "det", "macdonald")


def exact_quotient(num: PackedPoly, braces: tuple[int, ...], what: str) -> PackedPoly:
    """``num`` divided exactly by the product of the braces {m}, m in ``braces``; a
    remainder signals a bug and raises IntegralityViolation naming ``what``."""
    quot = divide_braces(num, braces)
    if quot is None:
        raise IntegralityViolation(f"{what}: {''.join(f'{{{m}}}' for m in braces)} "
                                   f"leaves a remainder")
    return quot


def _sets_one(value, name: str) -> bool:
    """Whether a specialization argument sets its variable to 1.

    Only the int 1 does and only None keeps the formal variable; anything
    else, bools included, raises ValueError.
    """
    if value is None:
        return False
    if type(value) is int and value == 1:
        return True
    raise ValueError(f"{name} accepts only 1 or the formal variable (None), got {value!r}")


def specialize(p: LaurentPoly, t1=None, t2=None) -> LaurentPoly:
    """Set t1 and/or t2 to 1 where the argument is the int 1; None keeps the variable.
    The dict reference the tests check against: the library merges packed slices."""
    if _sets_one(t1, "t1"):
        p = p.substitute("t1", 1)
    if _sets_one(t2, "t2"):
        p = p.substitute("t2", 1)
    return p


@lru_cache(maxsize=None)
def a_ratio(p: int) -> QFraction:
    """A(p) = (q^(2p-1) t1^-1 - q^(1-2p) t1 + t2 - t2^-1) / {2p-1}.

    Defined for every integer p; the brace index 2p-1 is never zero.  At
    t1 = t2 = 1 the value is 1 for all p.
    """
    num = (LaurentPoly.term(1, q=2 * p - 1, t1=-1)
           - LaurentPoly.term(1, q=1 - 2 * p, t1=1)
           + LaurentPoly.var("t2") - LaurentPoly.var("t2", -1))
    return QFraction(num, (2 * p - 1,))


class TableRow(Mapping):
    """Row n of the table as a read-only mapping {p: a[n][p]} of its nonzero
    entries: the numerators N[n][p] are held packed in ``nums``, and each entry
    is unpacked as QFraction(N[n][p], D_n) when it is read."""

    def __init__(self, n: int, nums: dict[int, PackedPoly]):
        self.n, self.nums = n, MappingProxyType(nums)

    def __getitem__(self, p: int) -> QFraction:
        return QFraction(self.nums[p].unpack(), row_braces(self.n))

    def __contains__(self, p: object) -> bool:
        return p in self.nums

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)


@lru_cache(maxsize=None)
def _brace(m: int) -> PackedBinomial:
    """{m} as a packed multiplier."""
    return PackedBinomial(qbrace_poly(m))


@lru_cache(maxsize=None)
def _step_multipliers(p: int, width: int) -> tuple[PackedPoly, PackedPoly, PackedPoly]:
    """The multipliers of N[n][p-1], N[n][p] and N[n][p+1] in S_p, packed at ``width``."""
    lo, hi = qbrace_poly(2 * p - 1), qbrace_poly(2 * p + 1)
    u = {k: a_ratio(k).num for k in (p, p + 1, -p)}
    return tuple(PackedPoly.pack(m, width) for m in (hi * u[p], hi * u[p] - lo * u[p + 1],
                                                     lo * u[-p]))


def _table_bound(n: int, width: int = 0) -> int:
    """The bound on |e_q| of table row n and, for width >= 1, of the values that
    ``_sum_row`` makes chat[n][1..width] from; ValueError, as ``_layout`` gives for
    the sweep, for sizes whose q exponents could reach ``_EXP_LIMIT``.

    * Row n: |e_q| <= n^2 - 1, by induction with the row step of the module
      docstring.  Its {2n+1}{2n-1} N[n-1][p] term reaches (n-1)^2 - 1 + 4n, and
      each term of S_p reaches n^2 - 1 + 4p, which {2n+1} / ({2p-1}{2p+1}) moves
      by 2n + 1 - 4p: both stay within (n+1)^2 - 1.  (The bound is met for
      n = 1..12.)
    * Sum route: b_p = {2p} N[n][p] adds 2p and each Newton step adds 4p, so the
      values that make chat[n][width] stay within n^2 - 1 + 2n + 4n(width - 1).
    """
    bound = n * n - 1 + (2 * n + 4 * n * (width - 1) if width else 0)
    if bound >= _EXP_LIMIT:
        raise ValueError("table bounds out of range")
    return bound


@lru_cache(maxsize=None)
def a_table(n: int) -> TableRow:
    """Row n of the table, a read-only mapping {p: QFraction(N[n][p], D_n)} of
    its nonzero entries, 1 <= p <= n (see ``TableRow``).

    Rows are cached for the life of the process and row n is built from rows
    n-1 and n-2 by the row step of the module docstring on packed values, so
    the table grows on demand and no row is built twice.  Missing rows are
    built bottom-up, once ``_table_bound`` accepts n; a remainder raises
    IntegralityViolation.
    """
    if n < 1:
        raise ValueError("a_table requires n >= 1")
    _table_bound(n)
    if n == 1:
        return TableRow(1, {1: PackedPoly.pack(LaurentPoly.one())})
    for k in range(2, n):     # each row below n finds its own two below cached
        a_table(k)
    prev, below = a_table(n - 1).nums, a_table(n - 2).nums if n > 2 else {}
    top = _brace(2 * n - 1)     # D_n = D_{n-1} {2n-1}
    width = max(v.width for v in prev.values())
    cur: dict[int, PackedPoly] = {}
    for p in range(1, n + 1):
        s = sum(m * prev[k] for k, m in zip((p - 1, p, p + 1), _step_multipliers(p, width))
                if k in prev)      # S_p, over the entries row n-1 has
        braces = tuple(sorted({2 * p - 1, 2 * p + 1} - {2 * n - 1}))     # {2n-1} may cancel one
        num = exact_quotient(top * s if len(braces) == 2 else s, braces,
                             f"table entry (n={n}, p={p})")
        if p in below:
            num = num - top * (_brace(2 * n - 3) * below[p])
        if not num.is_zero:
            cur[p] = num
    return TableRow(n, cur)


def _sum_row(n: int, width: int) -> tuple[PackedPoly, ...]:
    """chat[n][1..width] by the Newton step of the module docstring over row n,
    packed, once ``_table_bound`` accepts the size."""
    _table_bound(n, width)
    b = {p: _brace(2 * p) * (-v if (n + p) % 2 else v) for p, v in a_table(n).nums.items()}
    braces = (2,) + row_braces(n)
    out = []
    for i in range(1, width + 1):
        out.append(exact_quotient(sum(b.values()), braces, f"coefficient (n={n}, i={i})"))
        if i < width:     # w_p - w_i = {2(p-i)}{2(p+i)}
            b = {p: _brace(2 * (p - i)) * (_brace(2 * (p + i)) * v) for p, v in b.items() if p > i}
    return tuple(out)


def coeff_sum(n: int, i: int, t1=None, t2=None) -> LaurentPoly:
    """Generalized cyclotomic coefficient via sum_{p=i}^{n} (-1)^(n+p) a[n][p] c[p][i-1].

    The classical coefficients vanish for p < i, so the sum starts at i.  The
    Newton step of the module docstring makes chat[n][1..i], one sum over D_n {2}
    per coefficient divided exactly, held packed in the row cache of ``_row``,
    specialized there as ``t1`` / ``t2`` ask and unpacked as it is returned.
    """
    if i < 1 or n < i:
        raise IndexError(f"coeff_sum out of range: n={n}, i={i}")
    return _row("sum", n, i, t1, t2)[i - 1].unpack()


# ---------------------------------------------------------------------------
# lam-series route
# ---------------------------------------------------------------------------

_TBAR1 = LaurentPoly.var("t1") - LaurentPoly.var("t1", -1)
_TBAR2 = LaurentPoly.var("t2") - LaurentPoly.var("t2", -1)


def b_entry(p: int, N: int) -> LaurentPoly:
    """Sub-diagonal entry coupling row p to column N of the triangular system.

    The parity of p - N selects which deformation parameter appears:
    (-1)^sel * ({p+N} - {p-N}) * (t_sel - t_sel^-1) with sel = 1 for p - N
    even and sel = 2 for p - N odd.  (sel is a parity selector, not the
    matrix size index.)
    """
    if not 1 <= N < p:
        raise IndexError(f"b_entry needs p > N >= 1, got p={p}, N={N}")
    braces = qbrace_poly(p + N) - qbrace_poly(p - N)
    if (p - N) % 2 == 0:
        return -(braces * _TBAR1)
    return braces * _TBAR2


def _x(N: int, t1_one: bool = False) -> LaurentPoly:
    """x_N = q^2N t1^-1 + q^-2N t1, or q^2N + q^-2N at t1 = 1."""
    s = 0 if t1_one else 1
    return LaurentPoly.term(1, q=2 * N, t1=-s) + LaurentPoly.term(1, q=-2 * N, t1=s)


def gamma_lam(N: int, order: int) -> TruncatedSeries:
    """lam * gamma_N = -1 + x_N lam - lam^2.

    Multiplying each row of the system by lam clears lam^-1 and leaves a
    unit constant term, so plain power-series inversion applies.
    """
    return TruncatedSeries([LaurentPoly.const(-1), _x(N), LaurentPoly.const(-1)], order)


def _layout(rows: int, n: int) -> tuple[int, int]:
    """The exponent bounds (q_bound, t_bound) of the eigen rows N = 1..rows = 2w-1
    to layer n and of the w-1 steps of the dual map that ``_sweep`` runs on them;
    ValueError for sizes whose q exponents could leave the monomial fields.

    With R = rows:

    * q: |e_q| <= 2Rn on the layers.  Row N at layer k stays within 2Nk, by
      induction on k: x_N y_{k-1} moves by 2N, the coupling term
      (q^N + q^-N){M} y^(M)_{k-1} with M < N reaches N + M + 2M(k-1) < 2Nk,
      and {2N} at k = 1 lies within 2N.  Dual step i multiplies by
      q^4i + q^-4i, so after the w-1 steps |e_q| <= 2Rn + 2w(w-1).
    * t: |e_t1|, |e_t2| <= n.  Every layer step multiplies by at most one
      power of t1 or t2, and the dual map by none.

    The same bounds hold at t1 = 1 or t2 = 1, where fewer multipliers enter
    the same recurrences.  Coefficients need no bound here: every packed
    value tracks its own and widens only when its digits, re-read, could
    still overflow (``exactalg.PackedPoly``).
    """
    w = (rows + 1) // 2
    q_bound = 2 * rows * n + 2 * w * (w - 1)
    if q_bound >= _EXP_LIMIT:
        raise ValueError("packed layout bounds out of range")
    return q_bound, n


@lru_cache(maxsize=None)
def _qsum(m: int) -> PackedBinomial:
    """q^m + q^-m as a packed multiplier."""
    return PackedBinomial(LaurentPoly.var("q", m) + LaurentPoly.var("q", -m))


@lru_cache(maxsize=None)
def _row_multipliers(N: int, t1_one: bool) -> tuple[PackedBinomial, ...]:
    """x_N, {N}, q^N + q^-N and {2N} of eigen row N as packed multipliers."""
    return PackedBinomial(_x(N, t1_one)), _brace(N), _qsum(N), _brace(2 * N)


_PACKED_TBAR1, _PACKED_TBAR2 = PackedBinomial(_TBAR1), PackedBinomial(_TBAR2)


def _eigen_layers(rows: int, n: int, t1_one: bool = False, t2_one: bool = False):
    """Yield the lam^k layers {N: y^(N)_k}, k = 0..n, of the eigen rows N = 1..rows,
    as PackedPoly values that start at 64-bit digits, once ``_layout`` accepts the size.

    Row N solves lam*gamma_N(lam) y^(N) = -{2N} lam - lam sum_{M<N} b_entry(N, M) y^(M),
    so with {N+M} - {N-M} = (q^N + q^-N){M}

        y_k = x_N y_{k-1} - y_{k-2} + [k=1]{2N}
              + (q^N + q^-N)(tbar2 E^opp_{k-1} - tbar1 E^same_{k-1}),

    where E^par_{k-1} sums {M} y^(M)_{k-1} over the M < N whose parity is
    the same as or opposite to N's.  Every step multiplies by binomials
    only and divides by nothing.  Layer 0 is zero, layer n holds only the
    odd rows (the only ones read from it), and only the last two layers are
    held.  ``t1_one`` / ``t2_one`` set t1 / t2 to 1 on the way: at t2 = 1
    odd rows couple only to odd rows, so the even rows are skipped.
    """
    _layout(rows, n)
    zero, one = PackedPoly.pack(LaurentPoly.zero()), PackedPoly.pack(LaurentPoly.one())
    index = range(1, rows + 1, 2 if t2_one else 1)
    mult = {N: _row_multipliers(N, t1_one) for N in index}
    coupled = not (t1_one and t2_one)
    prev2 = prev = dict.fromkeys(index, zero)
    yield prev
    for k in range(1, n + 1):
        cur = {}
        e_sum = [zero, zero]    # indexed by the parity of M
        for N in index:
            x, brace, qsum, brace2 = mult[N]
            if k < n or N % 2:
                y = x * prev[N] - prev2[N]
                if k == 1:
                    y = y + brace2 * one
                if coupled and N > 1:      # row 1 couples to no earlier row
                    couple = zero
                    if not t1_one:
                        couple = couple - _PACKED_TBAR1 * e_sum[N % 2]
                    if not t2_one:
                        couple = couple + _PACKED_TBAR2 * e_sum[1 - N % 2]
                    if not couple.is_zero:
                        y = y + qsum * couple
                cur[N] = y
            if coupled and N < index[-1]:   # the last row couples to no later one
                e_sum[N % 2] = e_sum[N % 2] + brace * prev[N]
        prev2, prev = prev, cur
        yield cur


def _sweep(n: int, width: int, t1_one: bool = False, t2_one: bool = False
           ) -> tuple[PackedPoly, ...]:
    """chat[n][1..width] from layer n of the eigen rows N = 1..2*width-1.

    With r_m = y^(m)_n on the odd m, {2} chat[n][1] = r_1, and each step
    r'_m = r_{m+2} + r_{m-2} - (q^4i + q^-4i) r_m, with r_{-1} = -r_1,
    turns {2} chat[n][i] into {2} chat[n][i+1] (the dual of multiplying
    eigen_product(i) by X^2 + X^-2 - q^4i - q^-4i).  The map runs on packed
    values and the row stays packed.  The one division is the exact {2} per
    coefficient; a remainder raises IntegralityViolation.
    """
    layer = deque(_eigen_layers(2 * width - 1, n, t1_one, t2_one), maxlen=1).pop()
    r = [layer[m] for m in range(1, 2 * width, 2)]
    out = []
    for i in range(1, width + 1):
        out.append(exact_quotient(r[0], (2,), f"series coefficient (n={n}, i={i})"))
        if i < width:
            w = _qsum(4 * i)
            r = [r[j + 1] + (r[j - 1] if j else -r[0]) - w * r[j] for j in range(len(r) - 1)]
    return tuple(out)


def coeff_series(i: int, order: int) -> TruncatedSeries:
    """Generating series sum_n chat[n][i] lam^n to ``order``, read off the sweep.

    Its lam^n coefficient is zero for n < i.
    """
    if i < 1:
        raise ValueError("coeff_series requires i >= 1")
    if order < i:
        raise ValueError("order must be at least i")
    return TruncatedSeries([0] * i + [_row("series", n, i)[i - 1].unpack()
                                      for n in range(i, order + 1)], order)


# ---------------------------------------------------------------------------
# determinant route
# ---------------------------------------------------------------------------

def _det(rows: list[list[TruncatedSeries]]) -> TruncatedSeries:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out: TruncatedSeries | None = None
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        minor = _det([r[:j] + r[j + 1:] for r in rows[1:]])
        term = entry * minor
        if j % 2:
            term = -term
        out = term if out is None else out + term
    return out if out is not None else TruncatedSeries.zero(rows[0][0].order)


def coeff_det_series(i: int, order: int) -> TruncatedSeries:
    """The same generating series from the bordered (2i x 2i) matrix:
    det(B) / prod_{N=1}^{2i-1} gamma_N, rows pre-multiplied by lam.

    Symbolic determinants blow up quickly, so i is capped at 3; this route
    exists as a verification oracle and CLI alternate.
    """
    if not 1 <= i <= 3:
        raise ValueError("determinant route is limited to 1 <= i <= 3")
    if order < i:
        raise ValueError("order must be at least i")
    size = 2 * i
    zero = TruncatedSeries.zero(order)
    rows: list[list[TruncatedSeries]] = []
    top = [zero] * size
    for k in range(1, i + 1):
        top[2 * k - 1] = TruncatedSeries([alpha_weight(i, k)], order)
    rows.append(top)
    for N in range(1, size):
        row = [zero] * size
        row[0] = TruncatedSeries([LaurentPoly.zero(), qint(N, 2)], order)
        for M in range(1, N):
            row[M] = TruncatedSeries([LaurentPoly.zero(), b_entry(N, M)], order)
        row[N] = gamma_lam(N, order)
        rows.append(row)
    det = _det(rows)
    for N in range(1, size):
        det = det * gamma_lam(N, order).invert()
    return det


# ---------------------------------------------------------------------------
# t2 = 1 closed form
# ---------------------------------------------------------------------------

def coeff_t2one(n: int, i: int) -> LaurentPoly:
    """Closed form at t2 = 1 (deformation variable t1), via the explicit
    Rogers-polynomial expansion:

        c[i][i-1] * q^(-2(n-i)(i-1)) * C_{n-i}(q^2i t1^-1) * prod_{k=2}^{i} A(k)|_{t2=1}
    """
    if i < 1 or n < i:
        raise IndexError(f"coeff_t2one out of range: n={n}, i={i}")
    rog = rogers_c(n - i, i).substitute("x", LaurentPoly.term(1, q=2 * i, t1=-1))
    acc = QFraction(cyclotomic_c(i, i) * rog * LaurentPoly.var("q", -2 * (n - i) * (i - 1)))
    for k in range(2, i + 1):
        acc = acc * a_ratio(k).substitute("t2", 1)
    return exact_quotient(PackedPoly.pack(acc.num), acc.den,
                          f"t2=1 coefficient (n={n}, i={i})").unpack()


# ---------------------------------------------------------------------------
# one entry point
# ---------------------------------------------------------------------------

def check_route(route: str, t1=None, t2=None, i: int = 1) -> None:
    """Raise unless ``route`` can give the i-th coefficients at this specialization.

    ValueError for a specialization other than None or the int 1;
    RouteUnavailable for an unknown route, the det route past i = 3 and the
    macdonald route without t2 = 1.
    """
    _sets_one(t1, "t1")
    t2_one = _sets_one(t2, "t2")
    if route not in ROUTES:
        raise RouteUnavailable(f"unknown route {route!r}")
    if route == "det" and i > 3:
        raise RouteUnavailable("the det route is limited to i <= 3")
    if route == "macdonald" and not t2_one:
        raise RouteUnavailable("the macdonald route needs t2 = 1")


# chat[n][1..w], packed, per (route, n, t1 = 1?, t2 = 1?), widened only when a larger
# i is asked for
_ROWS: dict[tuple[str, int, bool, bool], tuple[PackedPoly, ...]] = {}


def _row(route: str, n: int, width: int, t1=None, t2=None) -> tuple[PackedPoly, ...]:
    """chat[n][1..w] by ``route`` (series, sum or macdonald) for some w >= width,
    specialized as asked, held packed.

    The first request for a row makes ``width`` entries and a later, wider
    one the whole row, so requests in ascending i make a row at most twice.
    A specialized row is the route's own row (formal for series and sum,
    t2 = 1 for macdonald), specialized by ``PackedPoly.specialize``: sum and
    macdonald make or widen their own row through ``_row`` first, and series
    uses its own row when that is cached wide enough and otherwise sweeps the
    row already specialized, which costs less than a formal sweep.
    ``coefficient`` and ``coefficient_row`` unpack.
    """
    t1_one, t2_one = _sets_one(t1, "t1"), _sets_one(t2, "t2")
    row = _ROWS.get((route, n, t1_one, t2_one))
    if row is None or len(row) < width:
        if row is not None:
            width = n
        mac = route == "macdonald"
        own = (route, n, False, mac)     # the own row: formal, or t2 = 1 for macdonald
        if own[2:] != (t1_one, t2_one) and (route != "series" or len(_ROWS.get(own, ())) >= width):
            row = tuple(p.specialize(t1_one, t2_one and not mac)
                        for p in _row(route, n, width, t2=1 if mac else None))
        elif route == "series":
            row = _sweep(n, width, t1_one, t2_one)
        elif mac:
            row = tuple(PackedPoly.pack(coeff_t2one(n, j)) for j in range(1, width + 1))
        else:
            row = _sum_row(n, width)
        _ROWS[route, n, t1_one, t2_one] = row
    return row


def _checked(n: int, i: int, route: str, t1, t2, least: int) -> bool:
    """``check_route`` and least <= i <= n; whether to read ``_row`` (sum asks ``coeff_sum``)."""
    check_route(route, t1, t2, i)
    if i < least or n < i:
        raise IndexError(f"coefficient out of range: n={n}, i={i}")
    return route in ("series", "macdonald")


def coefficient(n: int, i: int, route: str = "series", t1=None, t2=None) -> LaurentPoly:
    """The generalized cyclotomic coefficient chat[n][i-1](q, t1, t2), 1 <= i <= n.

    ``route`` is one of ROUTES; every route gives the same polynomial where
    it applies (see ``check_route``).  ``t1``/``t2`` are None (keep the
    formal variable) or the int 1.  The default series route divides only
    by {2}, once per coefficient.  The series and macdonald routes unpack the
    row entry cached by ``_row``; the sum route asks ``coeff_sum`` for it, once per
    entry.  The det route truncates its series at order n and packs the entry.
    """
    if _checked(n, i, route, t1, t2, 1):
        return _row(route, n, i, t1, t2)[i - 1].unpack()
    if route == "sum":
        return coeff_sum(n, i, t1, t2)
    det = PackedPoly.pack(coeff_det_series(i, n).coeff(n))
    return det.specialize(t1 is not None, t2 is not None).unpack()     # check_route: None or 1


def packed_row(n: int, width: int, route: str = "series", t1=None, t2=None
               ) -> tuple[PackedPoly, ...]:
    """chat[n][1..width], 0 <= width <= n, packed: the row ``_row`` holds, or for sum
    and det the entries of ``coefficient_row``, each packed."""
    if _checked(n, width, route, t1, t2, 0):
        return _row(route, n, width, t1, t2)[:width] if width else ()
    return tuple(PackedPoly.pack(p) for p in coefficient_row(n, width, route, t1, t2))


def coefficient_row(n: int, width: int, route: str = "series", t1=None, t2=None
                    ) -> tuple[LaurentPoly, ...]:
    """chat[n][1..width], 0 <= width <= n, as ``coefficient`` gives them: one ``_row``
    lookup unpacked, or for sum and det one entry at a time, the widest first."""
    if _checked(n, width, route, t1, t2, 0):
        return tuple(p.unpack() for p in _row(route, n, width, t1, t2)[:width]) if width else ()
    return tuple(reversed([coefficient(n, i, route, t1, t2) for i in range(width, 0, -1)]))
