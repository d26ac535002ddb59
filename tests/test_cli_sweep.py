"""CLI equivalence sweep: exit code, stdout and stderr of a fixed set of
invocations, pinned by sha256.

The digests in ``golden/cli_sweep.json`` were captured from a known-good
build before a refactor of the arithmetic core.  Every invocation runs in
this one process, so caches warmed by one call serve the next, as they
would in a library session.  Regenerate only for a deliberate output
change:

    PYTHONPATH=src python tests/test_cli_sweep.py
"""

import functools
import hashlib
import json
import pathlib

import pytest

from gjones.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SWEEP_FILE = GOLDEN / "cli_sweep.json"
KNOT_FILE = GOLDEN / "sweep_knot.json"

SPECS = ([], ["--t1", "1"], ["--t2", "1"], ["--t1", "1", "--t2", "1"])
FORMATS = ("text", "json", "latex")


def sweep() -> list[list[str]]:
    """The invocations, with ``{knot_file}`` standing for KNOT_FILE."""
    out: list[list[str]] = []
    for route in ("sum", "series", "det", "macdonald"):
        for n, i in ((1, 1), (3, 2), (4, 3)):
            for spec in SPECS:
                for fmt in FORMATS:
                    out.append(["coeff", "-n", str(n), "-i", str(i), "--route", route,
                                *spec, "--format", fmt])
        for order in (3, 4, 6):
            out.append(["coeff", "-n", "4", "-i", "2", "--route", route, "--order", str(order)])
            out.append(["coeff", "-n", "4", "-i", "2", "--route", route, "--t2", "1",
                        "--order", str(order)])
    out += [
        ["coeff", "-n", "5", "-i", "4", "--route", "det"],
        ["coeff", "-n", "2", "-i", "3"],
        ["coeff", "-n", "0", "-i", "0"],
        ["coeff", "-n", "2", "-i", "1", "--t1", "5"],
        ["coeff", "-n", "2", "-i", "1", "--t2", "formal"],
        ["coeff", "-n", "2"],
        ["coeff", "-n", "2", "-i", "1", "--route", "nope"],
        ["coeff", "--classic", "-n", "4", "-i", "2", "--route", "series", "--order", "5"],
        ["coeff", "--classic", "-n", "4", "-i", "2", "--t1", "5"],
    ]
    for n, i in ((1, 1), (3, 2), (4, 3)):
        for fmt in FORMATS:
            out.append(["coeff", "--classic", "-n", str(n), "-i", str(i), "--format", fmt])
    for knot in (["--knot", "unknot"], ["--knot", "figure-eight"],
                 ["--knot-file", "{knot_file}"]):
        for route in ("sum", "series", "macdonald"):
            for n in (0, 1, 3):
                for spec in SPECS:
                    out.append(["jones", *knot, "-n", str(n), "--route", route, *spec])
                for fmt in ("json", "latex"):
                    for spec in (SPECS[0], SPECS[2]):
                        out.append(["jones", *knot, "-n", str(n), "--route", route, *spec,
                                    "--format", fmt])
        out.append(["jones", *knot, "-n", "4"])
    out += [
        ["jones", "--knot-file", "{knot_file}", "-n", "5"],
        ["jones", "--knot", "nosuch", "-n", "2"],
        ["jones", "--knot", "unknot", "-n", "-1"],
        ["jones", "--knot", "unknot", "-n", "2", "--route", "det"],
        ["jones", "-n", "2"],
    ]
    for n in (1, 3):
        for fmt in FORMATS:
            out.append(["table", "-n", str(n), "--what", "a", "--format", fmt])
            out.append(["table", "-n", str(n), "--what", "classic", "--format", fmt])
            for spec in SPECS:
                out.append(["table", "-n", str(n), "--what", "coeff", *spec, "--format", fmt])
    out.append(["table", "-n", "0"])
    for suite in ("all", "routes", "integrality", "daha", "macdonald", "knots"):
        out.append(["verify", "--suite", suite, "--nmax", "3"])
    return out


def _digest(s: str) -> str:
    return hashlib.sha256(s.encode("utf-8")).hexdigest()


def _argv(argv: list[str]) -> list[str]:
    return [str(KNOT_FILE) if a == "{knot_file}" else a for a in argv]


def _run(capsys, argv: list[str]) -> list:
    code = main(_argv(argv))
    captured = capsys.readouterr()
    return [code, _digest(captured.out), _digest(captured.err)]


def _key(argv: list[str]) -> str:
    return " ".join(argv)


@functools.cache
def _golden() -> dict:
    return json.loads(SWEEP_FILE.read_text())


def test_sweep_matches_golden_list():
    assert sorted(_golden()) == sorted(map(_key, sweep()))


@pytest.mark.parametrize("argv", sweep(), ids=_key)
def test_cli_sweep(capsys, argv):
    assert _run(capsys, argv) == _golden()[_key(argv)]


if __name__ == "__main__":
    import contextlib
    import io

    golden = {}
    for argv in sweep():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_argv(argv))
        golden[_key(argv)] = [code, _digest(out.getvalue()), _digest(err.getvalue())]
    SWEEP_FILE.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} invocations written to {SWEEP_FILE}")
