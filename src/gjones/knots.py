"""Knot records and polynomial assembly.

A knot enters the library only through its cyclotomic expansion data: the
sequence of integer Laurent polynomials H_k(q) multiplying the classical
cyclotomic coefficients.  Two knots are built in (the unknot and the
figure-eight); everything else is ingested from JSON files of the form

    {"name": str,
     "habiro": [[[q_exponent, int_coeff], ...], ...],
     "all_ones": bool}

where habiro[k] lists the terms of H_k, each q exponent at most once.
all_ones = true means H_k = 1 for every k, so habiro must then be empty.
Exponents and coefficients must be integers and all_ones a boolean; JSON
booleans do not pass as integers.  Any other key is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .cyclo import RouteUnavailable, a_table, check_route, exact_quotient, packed_row
from .exactalg import LaurentPoly, PackedPoly
from .qcombo import cyclotomic_c, qint, row_braces


class MissingHabiro(LookupError):
    """The knot's expansion data does not reach the requested color."""


@dataclass(frozen=True)
class KnotRecord:
    """A knot name plus its expansion polynomial sequence.

    ``all_ones`` means H_k = 1 for every k; ``zero_tail`` means entries
    beyond the explicit list are genuinely zero (used by the built-in
    unknot, not expressible in the file format where padding is explicit).
    """

    name: str
    habiro: tuple[LaurentPoly, ...] = ()
    all_ones: bool = False
    zero_tail: bool = False

    def habiro_at(self, k: int) -> LaurentPoly:
        if k < 0:
            raise IndexError("habiro index must be >= 0")
        if self.all_ones:
            return LaurentPoly.one()
        if k < len(self.habiro):
            return self.habiro[k]
        if self.zero_tail:
            return LaurentPoly.zero()
        raise MissingHabiro(
            f"knot {self.name!r} defines H_k only for k < {len(self.habiro)}, needed k={k}")


_ONE, _ZERO = LaurentPoly.one(), PackedPoly.pack(LaurentPoly.zero())


@lru_cache(maxsize=None)
def unknot() -> KnotRecord:
    return KnotRecord("unknot", (LaurentPoly.one(),), zero_tail=True)


@lru_cache(maxsize=None)
def figure_eight() -> KnotRecord:
    return KnotRecord("figure-eight", (), all_ones=True)


_BUILTINS = {"unknot": unknot, "figure-eight": figure_eight, "figure_eight": figure_eight}


def builtin_knot(name: str) -> KnotRecord:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise KeyError(f"unknown knot {name!r}; built-ins: unknot, figure-eight") from None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def knot_from_dict(data: dict) -> KnotRecord:
    if not isinstance(data, dict):
        raise ValueError("knot record must be a JSON object")
    for key in data:
        if key not in ("name", "habiro", "all_ones"):
            raise ValueError(f"unknown key {key!r}; a knot record has 'name', 'habiro' "
                             f"and 'all_ones'")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("knot record needs a nonempty string 'name'")
    all_ones = data.get("all_ones", False)
    if not isinstance(all_ones, bool):
        raise ValueError("'all_ones' must be a JSON boolean")
    habiro = data.get("habiro", [])
    if not isinstance(habiro, list):
        raise ValueError("'habiro' must be a list of term lists")
    if all_ones and habiro:
        raise ValueError("'habiro' must be empty when 'all_ones' is true")
    seq = []
    for k, terms in enumerate(habiro):
        if not isinstance(terms, list):
            raise ValueError(f"H_{k}: must be a list of [q_exponent, coeff] terms")
        p, seen = LaurentPoly.zero(), set()
        for entry in terms:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"H_{k}: each term must be [q_exponent, coeff]")
            e, c = entry
            if not _is_int(e) or not _is_int(c):
                raise ValueError(f"H_{k}: exponents and coefficients must be integers")
            if e in seen:
                raise ValueError(f"H_{k}: q exponent {e} appears more than once")
            seen.add(e)
            p = p + LaurentPoly.term(c, q=e)
        seq.append(p)
    return KnotRecord(name, tuple(seq), all_ones=all_ones)


def load_knot_file(path: str) -> KnotRecord:
    with open(path, "r", encoding="utf-8") as fh:
        return knot_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def classical_jones(knot: KnotRecord, n: int) -> LaurentPoly:
    """J_n(q) = sum_{i=1}^n c[n][i-1] H_{i-1}(q); J_0 = 0 and J_1 = H_0."""
    if n < 0:
        raise ValueError("color n must be >= 0")
    out = LaurentPoly.zero()
    for i in range(1, n + 1):
        h = knot.habiro_at(i - 1)
        if not h.is_zero:
            out = out + cyclotomic_c(n, i) * h
    return out


def generalized_jones(knot: KnotRecord, n: int, t1=None, t2=None,
                      route: str = "series") -> LaurentPoly:
    """The two-parameter deformation sum_i chat[n][i-1](q, t1, t2) H_{i-1}(q).

    ``t1``/``t2`` are either None (keep the formal variable) or the int 1.
    Routes: "series" (default), "sum", and "macdonald" (t2 = 1 only); the
    det route stops at i = 3 and is refused here.  The result always
    reduces to an integer Laurent polynomial; at t1 = t2 = 1 it equals the
    classical polynomial.

    The sum runs on the packed row of ``cyclo.packed_row``: each entry times H_k
    packed, one int product per slice (none where H_k = 1), added as packed ints
    and unpacked once.
    """
    if n < 0:
        raise ValueError("color n must be >= 0")
    if route == "det":
        raise RouteUnavailable("the det route does not reach knot polynomials")
    habiro = [knot.habiro_at(k) for k in range(n)]
    while habiro and habiro[-1].is_zero:    # the row reaches the last nonzero H_k
        habiro.pop()
    row = packed_row(n, len(habiro), route, t1, t2)
    total = sum((chat if h == _ONE else chat * PackedPoly.pack(h)
                 for chat, h in zip(row, habiro) if not h.is_zero), _ZERO)
    return total.unpack()


def sigma_trace(k: int, n: int) -> LaurentPoly:
    """Quantum trace of the k-th central element on the n-dimensional class.

    Computed through the Casimir scalar chi = v^n + v^-n with v = q^2:

        [n]_{q^2} * prod_{i=1}^k (chi^2 - (v^i + v^-i)^2)

    which reproduces the classical cyclotomic coefficient c[n][k] for
    k < n and vanishes for k >= n (the i = n factor is zero).
    """
    if k < 0 or n < 1:
        raise ValueError("sigma_trace requires k >= 0 and n >= 1")
    chi = LaurentPoly.var("q", 2 * n) + LaurentPoly.var("q", -2 * n)
    chi2 = chi * chi
    out = qint(n, 2)
    for i in range(1, k + 1):
        vi = LaurentPoly.var("q", 2 * i) + LaurentPoly.var("q", -2 * i)
        out = out * (chi2 - vi * vi)
        if out.is_zero:
            break
    return out


def universal_eval(knot: KnotRecord, n: int, t1=None, t2=None) -> LaurentPoly:
    """Evaluate through the deformed class: sum_p (-1)^(n+p) a[n][p] J_p(q).

    Agrees exactly with ``generalized_jones``; the classical polynomials
    J_p are assembled before the transition weights are applied, so the
    two computations share only the table itself.  One polynomial sum over the
    numerators N[n][p] = D_n a[n][p] is divided exactly by D_n, or raises IntegralityViolation,
    and specialized packed before its one unpack.
    """
    if n < 0:
        raise ValueError("color n must be >= 0")
    check_route("sum", t1, t2)
    if n == 0:
        return LaurentPoly.zero()
    total = sum((-num if (n + p) % 2 else num) * PackedPoly.pack(classical_jones(knot, p),
                                                                 num.width)
                for p, num in a_table(n).nums.items())
    total = exact_quotient(total, row_braces(n), f"universal evaluation at n={n}")
    return total.specialize(t1 is not None, t2 is not None).unpack()   # check_route: None or 1
