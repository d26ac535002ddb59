"""One fresh process of the benchmark: a set-up probe, one round of an
in-process workload, or one traced CLI invocation.

    worker.py probe  --workload W --seed S
    worker.py round  --workload W --seed S --trace 0|1 --knot-file F [--spans F]
    worker.py cli    --trace-file F -- <gjones arguments>

``probe`` and ``round`` print one JSON object as their last stdout line.
Times crossing the process boundary use CLOCK_MONOTONIC (``time.monotonic``),
which every process on the machine shares.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# the program under test is the checkout's own source tree
SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

from inputs import VERIFY_CHECKS  # noqa: E402


def _import_gjones():
    import gjones
    if not os.path.abspath(gjones.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gjones imported from {gjones.__file__}, not from {SRC}")
    return gjones


def prepare(workload: str, knot_file: str | None):
    """Import the program and build the workload's inputs: the set-up a user pays."""
    _import_gjones()
    if workload == "cli-cold":
        import gjones.cli
        gjones.cli.build_parser()
        return {"file": gjones.cli.load_knot_file(knot_file)}
    if workload == "session-sweep":
        from gjones.knots import figure_eight, load_knot_file, unknot
        return {"unknot": unknot(), "figure-eight": figure_eight(),
                "file": load_knot_file(knot_file)}
    if workload == "verify-gate":
        import gjones.verify  # noqa: F401
        return {}
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def _session_round(knots: dict, tr):
    from gjones.knots import generalized_jones, universal_eval
    from inputs import SESSION_KNOTS, SESSION_NMAX, SESSION_SPECS

    ops = []
    clock = time.perf_counter
    for n in range(1, SESSION_NMAX + 1):
        calls = [(f"{k}/{spec}/n={n}", generalized_jones, (knots[k], n), kw, k, spec)
                 for k in SESSION_KNOTS for spec, kw in SESSION_SPECS]
        calls.append((f"figure-eight/universal/n={n}", universal_eval,
                      (knots["figure-eight"], n), {}, "figure-eight", "universal"))
        for name, fn, args, kw, knot, spec in calls:
            span = tr.begin_op() if tr else None
            t0 = clock()
            result = fn(*args, **kw)
            t1 = clock()
            if tr:
                tr.end_op(span)
            ops.append({"name": name, "s": t1 - t0, "knot": knot, "spec": spec, "n": n,
                        "result": result})
    return ops


def _verify_round(tr):
    from gjones.verify import run_suite
    from inputs import VERIFY_NMAX

    ops = []
    clock = time.perf_counter
    state = {"t": clock(), "span": tr.begin_op() if tr else None}

    def report(line: str) -> None:
        now = clock()
        if tr:
            tr.end_op(state["span"])
        ops.append({"name": line, "s": now - state["t"]})
        state["t"] = clock()
        state["span"] = tr.begin_op() if tr else None

    error = None
    try:
        run_suite("all", VERIFY_NMAX, report=report)
    except Exception as exc:  # a failing check is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    if tr:
        tr.end_op(state["span"])
    return ops, error


def cmd_probe(args) -> None:
    prepare(args.workload, args.knot_file)
    print(json.dumps({"ready": time.monotonic()}))


def cmd_round(args) -> None:
    knots = prepare(args.workload, args.knot_file)
    ready = time.monotonic()
    tr = caches = before = None
    if args.trace:
        import tracer
        tr = tracer.Tracer()
        caches = tracer.install(tr)
        before = tracer.cache_counts(caches)
        tr.active = True
    t0 = time.perf_counter()
    error = None
    if args.workload == "session-sweep":
        ops = _session_round(knots, tr)
    else:
        ops, error = _verify_round(tr)
    wall = time.perf_counter() - t0
    out = {"ready": ready, "wall_s": wall, "error": error}
    if tr:
        tr.active = False
        out["trace"] = tracer.aggregate(tr, caches, before)
        if args.spans:
            tr.write_spans(args.spans)
    # checks run after the timed work and outside the trace
    if args.workload == "session-sweep":
        import checks
        from inputs import NMAX
        with open(args.knot_file, encoding="utf-8") as fh:
            record = json.load(fh)
        checks.check_session(ops, checks.Expected(args.seed, record, NMAX))
    else:
        for name, op in zip(VERIFY_CHECKS, ops):
            op["ok"] = op["name"] == f"ok {name}"
        for op in ops[len(VERIFY_CHECKS):]:
            op["ok"] = False
        ops.extend({"name": f"missing {name}", "s": None, "ok": False}
                   for name in VERIFY_CHECKS[len(ops):])
    out["ops"] = [{"name": op["name"], "s": op["s"], "ok": op["ok"]} for op in ops]
    print(json.dumps(out))


def cmd_cli(args) -> int:
    import tracer
    _import_gjones()
    import gjones.cli
    tr = tracer.Tracer()
    caches = tracer.install(tr)
    before = tracer.cache_counts(caches)
    tr.active = True
    span = tr.begin_op()
    try:
        rc = gjones.cli.main(args.argv)
    finally:
        tr.end_op(span)
        tr.active = False
        sys.stdout.flush()
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregate(tr, caches, before), fh)
        if args.spans:
            tr.write_spans(args.spans)
    return rc


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("probe", "round"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--knot-file")
        p.add_argument("--trace", type=int, default=0)
        p.add_argument("--spans")
    p = sub.add_parser("cli")
    p.add_argument("--trace-file", required=True)
    p.add_argument("--spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if args.cmd == "probe":
        cmd_probe(args)
    elif args.cmd == "round":
        cmd_round(args)
    else:
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cmd_cli(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
