"""Independent reference evaluation of J_n(q, t1, t2); imports nothing from gjones.

Values are computed at one point of the prime field GF(P), P = 2^61 - 1,
straight from the defining formulas:

    A(p)     = (q^(2p-1) t1^-1 - q^(1-2p) t1 + t2 - t2^-1) / {2p-1},  {m} = q^m - q^-m
    a[1][1]  = 1,  a[n+1][p] = A(p) a[n][p-1] + (A(p) - A(p+1)) a[n][p]
                               + A(-p) a[n][p+1] - a[n-1][p]
    c[p][i]  = prod_{m=p-i+1}^{p+i-1} {2m} / {2}
    chat[n][i] = sum_{p=i}^{n} (-1)^(n+p) a[n][p] c[p][i]
    J_n      = sum_{i=1}^{n} chat[n][i] H_{i-1}(q)

A polynomial printed by the program is parsed back from its JSON, text or
LaTeX rendering and evaluated at the same point.  Two exact closed forms
(unknot at t2 = 1, figure-eight at t1 = t2 = 1) are compared term by term
with the program's output.
"""

from __future__ import annotations

import json
import re

P = (1 << 61) - 1

# a polynomial here is a dict {(e_q, e_t1, e_t2): coeff}
Poly = dict


def inv(x: int) -> int:
    return pow(x, P - 2, P)


class Point:
    """An evaluation point (q, t1, t2) in GF(P); t1 or t2 may be pinned to 1."""

    def __init__(self, q: int, t1: int, t2: int):
        self.q, self.t1, self.t2 = q % P, t1 % P, t2 % P
        self._pow: dict[tuple[int, int], int] = {}

    def special(self, t1=None, t2=None) -> "Point":
        """The same point with t1 and/or t2 set to 1 where asked."""
        return Point(self.q, 1 if t1 == 1 else self.t1, 1 if t2 == 1 else self.t2)

    def power(self, which: int, e: int) -> int:
        key = (which, e)
        v = self._pow.get(key)
        if v is None:
            base = (self.q, self.t1, self.t2)[which]
            v = pow(base, e, P) if e >= 0 else pow(inv(base), -e, P)
            self._pow[key] = v
        return v

    def brace(self, m: int) -> int:
        return (self.power(0, m) - self.power(0, -m)) % P

    def braces_nonzero(self, mmax: int) -> bool:
        return all(self.brace(m) for m in range(1, mmax + 1))

    def eval(self, poly: Poly) -> int:
        acc = 0
        for (eq, e1, e2), c in poly.items():
            acc += c * self.power(0, eq) * self.power(1, e1) % P * self.power(2, e2)
        return acc % P


class Reference:
    """Transition table, coefficients and knot values at one point."""

    def __init__(self, pt: Point, nmax: int):
        self.pt, self.nmax = pt, nmax
        self.a = self._a_table(nmax)

    def _A(self, p: int) -> int:
        pt = self.pt
        num = (pt.power(0, 2 * p - 1) * pt.power(1, -1) - pt.power(0, 1 - 2 * p) * pt.t1
               + pt.t2 - pt.power(2, -1))
        return num * inv(pt.brace(2 * p - 1)) % P

    def _a_table(self, nmax: int) -> list[dict[int, int]]:
        rows: list[dict[int, int]] = [{}, {1: 1}]
        for n in range(1, nmax):
            prev, below = rows[n], rows[n - 1]
            cur = {}
            for p in range(1, n + 2):
                v = (self._A(p) * prev.get(p - 1, 0)
                     + (self._A(p) - self._A(p + 1)) * prev.get(p, 0)
                     + self._A(-p) * prev.get(p + 1, 0) - below.get(p, 0))
                cur[p] = v % P
            rows.append(cur)
        return rows

    def c(self, p: int, i: int) -> int:
        acc = inv(self.pt.brace(2))
        for m in range(p - i + 1, p + i):
            acc = acc * self.pt.brace(2 * m) % P
        return acc

    def chat(self, n: int, i: int) -> int:
        acc = 0
        for p in range(i, n + 1):
            term = self.a[n][p] * self.c(p, i)
            acc += term if (n + p) % 2 == 0 else -term
        return acc % P

    def jones(self, habiro: list[Poly] | None, n: int) -> int:
        """J_n for Habiro data ``habiro`` (H_k as q-only polys); None means H_k = 1."""
        acc = 0
        for i in range(1, n + 1):
            if habiro is None:
                h = 1
            elif i - 1 < len(habiro):
                h = self.pt.eval(habiro[i - 1])
            else:
                raise IndexError(f"Habiro data has no H_{i - 1}")
            acc += self.chat(n, i) * h
        return acc % P


UNKNOT = [{(0, 0, 0): 1}] + [{}] * 63   # H_0 = 1, H_k = 0 beyond


def habiro_polys(data: dict) -> list[Poly]:
    """The H_k of a knot record in the JSON file format, as q-only polys."""
    out = []
    for terms in data["habiro"]:
        h: Poly = {}
        for e, c in terms:
            h[(e, 0, 0)] = h.get((e, 0, 0), 0) + c
        out.append({k: v for k, v in h.items() if v})
    return out


# ---------------------------------------------------------------------------
# exact closed forms
# ---------------------------------------------------------------------------

def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (x0, x1, x2), ca in a.items():
        for (y0, y1, y2), cb in b.items():
            k = (x0 + y0, x1 + y1, x2 + y2)
            out[k] = out.get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _brace_poly(m: int) -> Poly:
    return {(m, 0, 0): 1, (-m, 0, 0): -1}


def unknot_t2_one(n: int) -> Poly:
    """J_n(unknot)(q, t1, 1) = sum_{j=0}^{n-1} q^(2e) t1^(-e), e = n-1-2j."""
    out: Poly = {}
    for j in range(n):
        e = n - 1 - 2 * j
        out[(2 * e, -e, 0)] = out.get((2 * e, -e, 0), 0) + 1
    return out


def figure_eight_classical_times_brace2(n: int) -> Poly:
    """{2} * J_n(figure-eight)(q, 1, 1) = sum_i prod_{m=n-i+1}^{n+i-1} {2m}."""
    out: Poly = {}
    for i in range(1, n + 1):
        prod: Poly = {(0, 0, 0): 1}
        for m in range(n - i + 1, n + i):
            prod = _mul(prod, _brace_poly(2 * m))
        for k, v in prod.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def specialize(poly: Poly, t1: bool = False, t2: bool = False) -> Poly:
    """Set t1 = 1 and/or t2 = 1 in a polynomial, exactly."""
    out: Poly = {}
    for (eq, e1, e2), c in poly.items():
        k = (eq, 0 if t1 else e1, 0 if t2 else e2)
        out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def times_brace2(poly: Poly) -> Poly:
    return _mul(poly, _brace_poly(2))


# ---------------------------------------------------------------------------
# parsing the program's renderings
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    pass


def _add_term(out: Poly, key: tuple[int, int, int], c: int) -> None:
    if key in out:
        raise ParseError(f"monomial {key} printed twice")
    if c == 0:
        raise ParseError("zero coefficient printed")
    out[key] = c


def from_json_terms(rows: list) -> Poly:
    """Rows ``[e_q, e_t1, e_t2, e_U, e_X, e_x, e_lam, coeff]``; only q, t1, t2 may be used."""
    out: Poly = {}
    for row in rows:
        if len(row) != 8 or not all(isinstance(v, int) for v in row):
            raise ParseError(f"malformed term {row!r}")
        if any(row[3:7]):
            raise ParseError(f"unexpected variable in {row!r}")
        _add_term(out, (row[0], row[1], row[2]), row[7])
    return out


def from_json_output(text: str) -> Poly:
    return from_json_terms(json.loads(text)["terms"])


_TEXT_VARS = {"q": 0, "t1": 1, "t2": 2}
_LATEX_VARS = {"q": 0, "t_1": 1, "t_2": 2}
_TEXT_FACTOR = re.compile(r"(q|t1|t2)(?:\^(-?\d+))?")
_LATEX_FACTOR = re.compile(r"(q|t_1|t_2)(?:\^\{(-?\d+)\})?")
_SEP = re.compile(r" ([+-]) ")


def from_rendering(text: str, fmt: str) -> Poly:
    """Parse a ``text`` or ``latex`` rendering of a polynomial in q, t1, t2."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = _SEP.split(text)
    signed = [pieces[0]] + [("-" if s == "-" else "") + t for s, t in zip(pieces[1::2], pieces[2::2])]
    factor = _TEXT_FACTOR if fmt == "text" else _LATEX_FACTOR
    names = _TEXT_VARS if fmt == "text" else _LATEX_VARS
    out: Poly = {}
    for term in signed:
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        m = re.match(r"\d+", term)
        coeff = int(m.group()) if m else 1
        body = term[m.end():] if m else term
        if fmt == "text" and m and body:
            if not body.startswith("*"):
                raise ParseError(f"bad term {term!r}")
            body = body[1:]
        exps = [0, 0, 0]
        pos = 0
        while pos < len(body):
            if fmt == "text" and pos and body[pos] == "*":
                pos += 1
            f = factor.match(body, pos)
            if not f:
                raise ParseError(f"bad factor in {term!r}")
            exps[names[f.group(1)]] += int(f.group(2)) if f.group(2) else 1
            pos = f.end()
        _add_term(out, tuple(exps), sign * coeff)
    return out
