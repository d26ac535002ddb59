"""Checks of the program's outputs against ``reference``.

Every result is evaluated at the seeded point of GF(P) and compared with the
independent evaluation; unknot and figure-eight results are also compared
term by term with their closed forms, and alternative routes must equal the
sum route exactly.  A check returns False on any mismatch or unparsable
output, so one wrong coefficient or one dropped term is a failed operation.
"""

from __future__ import annotations

import json
import re

import reference as ref
from inputs import eval_point

SPEC_KW = {"formal": {}, "t1=1": {"t1": 1}, "t2=1": {"t2": 1}, "macdonald": {"t2": 1},
           "universal": {}}


class Expected:
    """Reference values at one seed's point, built once per specialization."""

    def __init__(self, seed: int, record: dict, nmax: int):
        self.pt = eval_point(seed)
        self.nmax = nmax
        self.habiro = {"unknot": ref.UNKNOT, "figure-eight": None,
                       "file": ref.habiro_polys(record)}
        self._refs: dict = {}

    def at(self, t1=None, t2=None) -> ref.Reference:
        key = (t1 == 1, t2 == 1)
        if key not in self._refs:
            self._refs[key] = ref.Reference(self.pt.special(t1=t1, t2=t2), self.nmax)
        return self._refs[key]


def closed_form_ok(knot: str, n: int, kw: dict, poly: dict) -> bool:
    """No specialized variable survives, and the closed forms hold."""
    t1, t2 = kw.get("t1") == 1, kw.get("t2") == 1
    if (t1 and any(e1 for (_, e1, _) in poly)) or (t2 and any(e2 for (_, _, e2) in poly)):
        return False
    if knot == "unknot":
        return ref.specialize(poly, t1=t1, t2=True) == \
            ref.specialize(ref.unknot_t2_one(n), t1=t1)
    if knot == "figure-eight":
        return ref.times_brace2(ref.specialize(poly, True, True)) == \
            ref.figure_eight_classical_times_brace2(n)
    return True


def jones_ok(exp: Expected, knot: str, n: int, kw: dict, poly: dict) -> bool:
    r = exp.at(**{k: v for k, v in kw.items() if k in ("t1", "t2")})
    return (r.pt.eval(poly) == r.jones(exp.habiro[knot], n)
            and closed_form_ok(knot, n, kw, poly))


def check_session(ops: list[dict], exp: Expected) -> None:
    """Sets ``ok`` on each session-sweep operation (its ``result`` is a LaurentPoly)."""
    by_key = {}
    for op in ops:
        poly = ref.from_json_terms(op.pop("result").json_terms())
        by_key[(op["knot"], op["spec"], op["n"])] = poly
        op["ok"] = jones_ok(exp, op["knot"], op["n"], SPEC_KW[op["spec"]], poly)
    # route agreement: macdonald equals the sum route at t2 = 1, and the
    # class evaluation equals the coefficient route
    twin = {"macdonald": "t2=1", "universal": "formal"}
    for op in ops:
        if op["spec"] in twin:
            other = by_key[(op["knot"], twin[op["spec"]], op["n"])]
            op["ok"] = op["ok"] and by_key[(op["knot"], op["spec"], op["n"])] == other


def _parse(text: str, fmt: str) -> dict:
    if fmt == "json":
        return ref.from_json_output(text)
    return ref.from_rendering(text, fmt)


_LINE = re.compile(r"^chat\[(\d+),(\d+)\] = (.*)$")


def cli_ok(query: dict, stdout: str, exp: Expected) -> bool:
    """Check one cli-cold output; any parse error counts as a wrong output."""
    kw = {k: query[k] for k in ("t1", "t2") if k in query}
    try:
        if query["check"] == "jones":
            poly = _parse(stdout, query["fmt"])
            return jones_ok(exp, query["knot"], query["n"], kw, poly)
        if query["check"] == "coeff":
            poly = _parse(stdout, query["fmt"])
            r = exp.at(**kw)
            return r.pt.eval(poly) == r.chat(query["n"], query["i"])
        if query["check"] == "table-a":
            return _table_a_ok(json.loads(stdout), query["n"], exp.at())
        if query["check"] == "table-coeff":
            return _table_coeff_ok(stdout, query["n"], exp.at(**kw), kw)
    except (ref.ParseError, ValueError, KeyError, TypeError):
        return False
    raise ValueError(f"unknown check {query['check']!r}")


def _table_a_ok(data: dict, nmax: int, r: ref.Reference) -> bool:
    rows = data["rows"]
    want = [(n, p) for n in range(1, nmax + 1) for p in range(1, n + 1)]
    if [(row["n"], row["p"]) for row in rows] != want:
        return False
    for row in rows:
        num = r.pt.eval(ref.from_json_terms(row["num"]))
        den = 1
        for m in row["den"]:
            den = den * r.pt.brace(m) % ref.P
        if num != den * r.a[row["n"]][row["p"]] % ref.P:
            return False
    return True


def _table_coeff_ok(text: str, nmax: int, r: ref.Reference, kw: dict) -> bool:
    lines = text.strip().split("\n")
    want = [(n, i) for n in range(1, nmax + 1) for i in range(1, n + 1)]
    if len(lines) != len(want):
        return False
    for line, (n, i) in zip(lines, want):
        m = _LINE.match(line)
        if not m or (int(m.group(1)), int(m.group(2))) != (n, i):
            return False
        poly = ref.from_rendering(m.group(3), "text")
        if kw.get("t1") == 1 and any(e1 for (_, e1, _) in poly):
            return False
        if r.pt.eval(poly) != r.chat(n, i):
            return False
    return True
