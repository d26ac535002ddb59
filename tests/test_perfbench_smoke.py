"""The benchmark under perfbench/ runs against this checkout.

Its tracer wraps library functions by name and reads ``a_table``'s
``cache_info``; renaming those breaks the per-layer metrics silently, so
a traced CLI call on the sum route checks that the counts it reads are
still there, and one on the default route that it builds no table.  A traced
verify-gate round runs the det route and the Macdonald generating series
under the tracer's series wrappers, which no other test reaches.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(*argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)


def test_self_check_passes():
    proc = _run("perfbench/run.py", "--self-check")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def _traced_counts(tmp_path, *argv):
    trace = tmp_path / "trace.json"
    proc = _run("perfbench/worker.py", "cli", "--trace-file", str(trace), "--", *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())["counts"]


def test_traced_cli_counts(tmp_path):
    counts = _traced_counts(tmp_path, "jones", "--knot", "figure-eight", "-n", "3",
                            "--route", "sum")
    assert counts["a_table_misses"] == 3      # rows 1..3, each built once
    assert counts["coeff_sum_calls"] == 3


def test_default_route_builds_no_table(tmp_path):
    counts = _traced_counts(tmp_path, "jones", "--knot", "figure-eight", "-n", "3")
    assert counts["a_table_misses"] == 0
    assert counts.get("coeff_sum_calls", 0) == 0     # a count never taken is absent


def test_traced_verify_gate_round():
    proc = _run("perfbench/worker.py", "round", "--workload", "verify-gate", "--seed", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["error"] is None
    assert len(out["ops"]) == 18 and all(op["ok"] for op in out["ops"]), out["ops"]
