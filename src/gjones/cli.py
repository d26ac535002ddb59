"""Command-line surface.

Subcommands:

  coeff    one cyclotomic coefficient, classical or generalized, any route
  jones    the (generalized) polynomial of a knot
  table    triangular tables of coefficients or transition entries
  verify   named cross-validation suites

Exit codes, all set in ``main``: 0 success, 1 a bad request (flags, sizes or
knot data: any ValueError or LookupError), 2 a broken internal invariant.
All output is deterministic; polynomials render in the canonical term
order as text (default), JSON term lists, or LaTeX.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cyclo import ROUTES, a_table, check_route, coefficient, coefficient_row
from .daha import NonPolynomialResult, NotSkewSymmetric
from .exactalg import IntegralityViolation, LaurentPoly, QFraction
from .knots import KnotRecord, builtin_knot, generalized_jones, load_knot_file
from .qcombo import cyclotomic_c, row_braces
from .verify import SUITES, CheckFailed, run_suite


class CLIError(Exception):
    """Validation problem in flags or inputs; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit(2)
        raise CLIError(message)


def _render_poly(p: LaurentPoly, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"terms": p.json_terms()}, separators=(",", ":"))
    return p.render(fmt)


def _parse_tspec(value: str, var: str):
    if value == "1":
        return 1
    if value in (var, "formal"):
        return None
    raise CLIError(f"--{var} accepts only '1' or the formal variable '{var}'")


def _add_common(p: argparse.ArgumentParser, *, order: bool = True) -> None:
    p.add_argument("--t1", default="t1", help="t1 specialization: 1 or formal (default)")
    p.add_argument("--t2", default="t2", help="t2 specialization: 1 or formal (default)")
    p.add_argument("--format", default="text", choices=("text", "json", "latex"))
    if order:
        p.add_argument("--order", type=int, default=None,
                       help="series truncation order, at least n (series/det routes)")


_ROUTE_HELP = ("coefficient route; the default, series, is fraction-free and divides "
               "only by {2}, and sum runs the transition table")


def build_parser() -> _Parser:
    ap = _Parser(prog="gjones", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coeff", help="cyclotomic coefficient")
    pc.add_argument("-n", type=int, required=True)
    pc.add_argument("-i", type=int, required=True)
    pc.add_argument("--classic", action="store_true", help="classical coefficient")
    pc.add_argument("--route", default="series", choices=ROUTES,
                    help=_ROUTE_HELP)
    _add_common(pc)

    pj = sub.add_parser("jones", help="knot polynomial")
    src = pj.add_mutually_exclusive_group(required=True)
    src.add_argument("--knot", help="built-in knot name")
    src.add_argument("--knot-file", help="path to a knot record JSON file")
    pj.add_argument("-n", type=int, required=True)
    pj.add_argument("--route", default="series", choices=tuple(r for r in ROUTES if r != "det"),
                    help=_ROUTE_HELP)
    _add_common(pj, order=False)

    pt = sub.add_parser("table", help="triangular tables")
    pt.add_argument("-n", type=int, required=True, help="maximal color")
    pt.add_argument("--what", default="coeff", choices=("coeff", "classic", "a"))
    _add_common(pt, order=False)

    pv = sub.add_parser("verify", help="cross-validation suites")
    pv.add_argument("--suite", default="all", choices=tuple(SUITES))
    pv.add_argument("--nmax", type=int, default=None)
    return ap


def _knot_from_args(args) -> KnotRecord:
    if args.knot is not None:
        return builtin_knot(args.knot)
    try:
        return load_knot_file(args.knot_file)
    except (OSError, ValueError) as exc:     # JSONDecodeError is a ValueError
        raise CLIError(f"cannot load knot file: {exc}") from None


def _cmd_coeff(args) -> str:
    n, i = args.n, args.i
    if n < 1 or i < 1 or i > n:
        raise CLIError(f"need 1 <= i <= n, got n={n}, i={i}")
    t1 = _parse_tspec(args.t1, "t1")
    t2 = _parse_tspec(args.t2, "t2")
    # flags are checked alike with or without --classic; the order of a
    # series sets only its cost, since lam^n comes out the same at any order >= n
    check_route(args.route, t1, t2, i)
    if args.order is not None and args.order < n:
        raise CLIError(f"order {args.order} is below the requested coefficient n={n}")
    if args.classic:
        return _render_poly(cyclotomic_c(n, i), args.format)
    return _render_poly(coefficient(n, i, args.route, t1, t2), args.format)


def _cmd_jones(args) -> str:
    if args.n < 0:
        raise CLIError("need n >= 0")
    knot = _knot_from_args(args)
    t1 = _parse_tspec(args.t1, "t1")
    t2 = _parse_tspec(args.t2, "t2")
    return _render_poly(generalized_jones(knot, args.n, t1=t1, t2=t2, route=args.route),
                        args.format)


def _cmd_table(args) -> str:
    nmax = args.n
    if nmax < 1:
        raise CLIError("need n >= 1")
    t1 = _parse_tspec(args.t1, "t1")
    t2 = _parse_tspec(args.t2, "t2")
    lines: list[str] = []
    rows = []
    if args.what == "a":
        for n in range(1, nmax + 1):
            nums = a_table(n).nums
            for p in range(1, n + 1):
                num = (nums[p].specialize(t1 is not None, t2 is not None).unpack() if p in nums
                       else LaurentPoly.zero())
                f = QFraction(num, row_braces(n)).reduced()
                if args.format == "json":
                    rows.append({"n": n, "p": p, "num": f.num.json_terms(),
                                 "den": list(f.den)})
                else:
                    lines.append(f"a[{n},{p}] = {f.render(args.format)}")
    else:
        label = "c" if args.what == "classic" else "chat"
        for n in range(1, nmax + 1):
            row = (coefficient_row(n, n, t1=t1, t2=t2) if args.what == "coeff"
                   else [cyclotomic_c(n, i) for i in range(1, n + 1)])
            for i, poly in enumerate(row, 1):
                if args.format == "json":
                    rows.append({"n": n, "i": i, "terms": poly.json_terms()})
                else:
                    lines.append(f"{label}[{n},{i}] = {poly.render(args.format)}")
    if args.format == "json":
        return json.dumps({"rows": rows}, separators=(",", ":"))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            run_suite(args.suite, args.nmax, report=print)
            return 0
        cmd = {"coeff": _cmd_coeff, "jones": _cmd_jones, "table": _cmd_table}[args.command]
        print(cmd(args))
        return 0
    except (CLIError, ValueError, LookupError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        msg = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1
    except (CheckFailed, IntegralityViolation, NotSkewSymmetric, NonPolynomialResult) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
