#!/usr/bin/env python3
"""gjones benchmark: cold CLI queries, a colour-sweep session and the verify gate.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload session-sweep --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-check

The load is one process at a time: this parent runs each fresh child to
its end before starting the next.  A run repeats whole rounds of its
workload's fixed list of operations until ``--seconds`` would be exceeded
(at least MIN_ROUNDS rounds), each round in fresh processes with cold
caches.  Each operation's time is its slowest over the rounds: on a shared
machine whose speed flips between a fast and a slow state, the slow state
is the usual one and the steady one (README.md has the measurements).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from inputs import VERIFY_CHECKS  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("cli-cold", "session-sweep", "verify-gate")
MIN_ROUNDS = 3          # timed runs: each operation's time is taken over at least three rounds
SETUP_PROBES = 11       # fresh-interpreter set-ups per run; setup_s is their median


class Child:
    """One finished child process: exit code, stdout, time and peak RSS."""

    def __init__(self, argv: list[str], root: str, err_path: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        with open(err_path, "wb") as err:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                                    stderr=err, stdin=subprocess.DEVNULL)
            try:
                self.stdout = proc.stdout.read()
                # wait4 gives this child's own peak RSS (KiB on Linux)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                proc.stdout.close()
        self.ended = time.monotonic()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.seconds = self.ended - self.spawned
        self.rss_mb = usage.ru_maxrss / 1024.0

    def last_json(self):
        lines = self.stdout.decode("utf-8", "replace").strip().splitlines()
        return json.loads(lines[-1]) if self.rc == 0 and lines else None


class Bench:
    def __init__(self, root: str, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.out = os.path.join(HERE, "_out")
        os.makedirs(self.out, exist_ok=True)
        self.knot_file = os.path.relpath(os.path.join(self.out, f"knot-{seed}.json"), root)
        record = inputs.write_knot_file(seed, os.path.join(root, self.knot_file))
        self.expected = checks.Expected(seed, record, inputs.NMAX)
        self.err = os.path.join(self.out, "child-stderr.txt")
        self.worker = os.path.join(HERE, "worker.py")

    def child(self, argv: list[str]) -> Child:
        return Child([sys.executable] + argv, self.root, self.err)

    def n_ops(self) -> int:
        if self.workload == "cli-cold":
            return len(inputs.cli_queries(self.knot_file))
        if self.workload == "session-sweep":
            return inputs.SESSION_NMAX * (len(inputs.SESSION_KNOTS) * len(inputs.SESSION_SPECS) + 1)
        return len(VERIFY_CHECKS)

    def setup_probe(self) -> float:
        c = self.child([self.worker, "probe", "--workload", self.workload,
                        "--seed", str(self.seed), "--knot-file", self.knot_file])
        data = c.last_json()
        if data is None:
            raise RuntimeError(f"set-up probe failed with exit code {c.rc}")
        return data["ready"] - c.spawned

    def round(self, trace: bool) -> dict:
        if self.workload == "cli-cold":
            return self._cli_round(trace)
        argv = [self.worker, "round", "--workload", self.workload, "--seed", str(self.seed),
                "--knot-file", self.knot_file, "--trace", str(int(trace))]
        if trace:
            argv += ["--spans", os.path.join(self.out, f"spans-{self.workload}.tsv")]
        c = self.child(argv)
        data = c.last_json()
        if data is None:    # the process died: every operation of the round failed
            return {"ops": [{"name": f"op{k}", "s": None, "status": "error"}
                            for k in range(self.n_ops())], "rss_mb": c.rss_mb, "wall_s": c.seconds}
        ops = data["ops"]
        for op in ops:
            op["status"] = "ok" if op["ok"] else ("wrong" if data["error"] is None else "error")
        return {"ops": ops, "rss_mb": c.rss_mb, "wall_s": data["wall_s"], "trace": data.get("trace")}

    def _cli_round(self, trace: bool) -> dict:
        ops, parts, rss, out_bytes = [], [], 0.0, 0
        for k, q in enumerate(inputs.cli_queries(self.knot_file)):
            if trace:
                tf = os.path.join(self.out, f"trace-cli-{k}.json")
                argv = [self.worker, "cli", "--trace-file", tf,
                        "--spans", os.path.join(self.out, f"spans-cli-cold-{k}.tsv"), "--"]
            else:
                argv = ["-m", "gjones.cli"]
            c = self.child(argv + q["argv"])
            rss = max(rss, c.rss_mb)
            out_bytes += len(c.stdout)
            if c.rc != 0:
                status = "error"
            else:
                ok = checks.cli_ok(q, c.stdout.decode("utf-8"), self.expected)
                status = "ok" if ok else "wrong"
            ops.append({"name": " ".join(q["argv"]), "s": c.seconds, "status": status})
            if trace and c.rc == 0:
                with open(tf, encoding="utf-8") as fh:
                    parts.append(json.load(fh))
        rnd = {"ops": ops, "rss_mb": rss, "wall_s": sum(op["s"] for op in ops)}
        if trace:
            rnd["trace"] = tracer.merge(parts)
            rnd["trace"]["counts"]["output_bytes"] = out_bytes
        return rnd

    def rounds(self, seconds: float, trace: bool) -> list[dict]:
        """Whole rounds until the next one would overrun ``seconds``.  A traced
        run alternates untraced and traced rounds, starting untraced."""
        least = 2 if trace else MIN_ROUNDS
        start = time.monotonic()
        done = []
        while True:
            traced = trace and len(done) % 2 == 1
            t0 = time.monotonic()
            rnd = self.round(traced)
            rnd["traced"] = traced
            done.append(rnd)
            last = time.monotonic() - t0
            if len(done) >= least and time.monotonic() - start + last > seconds:
                return done


def _metric(value, unit):
    return {"value": value, "unit": unit}


def slowest(rounds: list[dict]) -> list[float]:
    """Each operation's slowest time over the rounds it ran in (see README.md:
    the machine's usual, contended speed is the steady one)."""
    n_ops = len(rounds[0]["ops"])
    return [max((r["ops"][k]["s"] for r in rounds if r["ops"][k]["s"] is not None), default=0.0)
            for k in range(n_ops)]


def timed_metrics(rounds: list[dict], setups: list[float]) -> dict:
    per_op = slowest(rounds)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(sum(per_op), "s"),
        "op_p50_s": _metric(statistics.median(per_op), "s"),
        "peak_rss_mb": _metric(statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }


RATIO_METRICS = {"exactalg.divide_brace_exact_ratio", "qcombo.cyclotomic_c_hit_ratio"}


def traced_metrics(rounds: list[dict], workload: str) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = [tracer.layer_metrics(r["trace"]) for r in traced]
    counts = per_round[0][0]
    for other, _ in per_round[1:]:
        if other != counts:
            print("warning: count metrics differ between traced rounds", file=sys.stderr)
    out = {}
    for name, value in counts.items():
        out[name] = _metric(value, "ratio" if name in RATIO_METRICS else "count")
    for name in per_round[0][1]:
        out[name] = _metric(statistics.median(t[name] for _, t in per_round), "s")
    for k, check in enumerate(VERIFY_CHECKS):
        value = 0.0
        if workload == "verify-gate":
            value = statistics.median(r["ops"][k]["s"] or 0.0 for r in traced)
        out[f"verify.{check}_s"] = _metric(value, "s")
    out["cli.output_bytes"] = _metric(traced[0]["trace"]["counts"].get("output_bytes", 0), "bytes")
    t_wall = statistics.median(r["wall_s"] for r in traced)
    p_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_pct"] = _metric(100.0 * (t_wall - p_wall) / p_wall, "%")
    return out


def self_check(root: str) -> int:
    """Tiny sizes, about a second: real outputs pass the checks, and the same
    outputs with one coefficient changed or one term dropped fail them."""
    bench = Bench(root, "cli-cold", 1)
    cases = []
    for fmt in ("json", "text", "latex"):
        q = {"argv": ["jones", "--knot-file", bench.knot_file, "-n", "3", "--format", fmt],
             "check": "jones", "knot": "file", "n": 3, "fmt": fmt}
        out = bench.child(["-m", "gjones.cli"] + q["argv"]).stdout.decode()
        cases.append((f"{fmt} output", q, out, True))
        if fmt == "json":
            changed, dropped = json.loads(out), json.loads(out)
            changed["terms"][len(changed["terms"]) // 2][-1] += 1
            del dropped["terms"][0]
            cases.append(("json, one coefficient changed", q, json.dumps(changed), False))
            cases.append(("json, one term dropped", q, json.dumps(dropped), False))
        else:
            cases.append((f"{fmt}, leading terms dropped", q, out.partition(" + ")[2], False))
    failed, as_expected = 0, True
    for label, q, out, should_pass in cases:
        passed = checks.cli_ok(q, out, bench.expected)
        failed += not passed
        as_expected &= passed == should_pass
        print(f"{label}: {'passes' if passed else 'fails'}"
              f"{'' if passed == should_pass else '  <-- unexpected'}", file=sys.stderr)
    print(json.dumps({"correct": as_expected, "attempted": len(cases), "failed": failed,
                      "metrics": {}}))
    return 0 if as_expected else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gjones", "__init__.py")):
        print("error: run from the root of a gjones checkout (no src/gjones here)", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(root)
    if args.workload is None:
        ap.error("--workload is required")

    bench = Bench(root, args.workload, args.seed)
    setups = [] if args.trace else [bench.setup_probe() for _ in range(SETUP_PROBES)]
    rounds = bench.rounds(args.seconds, bool(args.trace))
    statuses = [op["status"] for r in rounds for op in r["ops"]]
    print("round wall times:", " ".join(f"{r['wall_s']:.3f}{' (traced)' if r['traced'] else ''}"
                                        for r in rounds), file=sys.stderr)
    if args.trace:
        metrics = traced_metrics(rounds, args.workload)
    else:
        metrics = timed_metrics(rounds, setups)
    print(json.dumps({
        "correct": "wrong" not in statuses,
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
