"""Workload inputs, all derived from the workload seed.

The program sees only what is built here: a knot file with random Habiro
data, and the query lists below.  The evaluation point used by the checks
comes from the same seed but is never shown to the program.
"""

from __future__ import annotations

import json
import random

from reference import P, Point

# Random Habiro data: H_0 .. H_{HABIRO_LEN-1}, each with exactly HABIRO_TERMS
# terms at distinct q-exponents in [-HABIRO_EXP, HABIRO_EXP] and nonzero
# coefficients in [-HABIRO_COEFF, HABIRO_COEFF].  The shape is fixed so that
# the work per query does not depend on the seed; only the values do.
HABIRO_LEN = 8
HABIRO_TERMS = 2
HABIRO_EXP = 4
HABIRO_COEFF = 3

# session-sweep: colours 1..SESSION_NMAX, every knot under every specialization
SESSION_NMAX = 7
SESSION_SPECS = (
    ("formal", {}),
    ("t1=1", {"t1": 1}),
    ("t2=1", {"t2": 1}),
    ("macdonald", {"t2": 1, "route": "macdonald"}),
)
SESSION_KNOTS = ("unknot", "figure-eight", "file")

# verify-gate: the whole suite at this bound; a round passes when every one
# of these checks reports "ok <name>", in this order
VERIFY_NMAX = 6
VERIFY_CHECKS = (
    "integrality", "classical-specialization", "routes-series", "routes-det",
    "routes-macdonald", "operator-oracle", "unknot-closed-form", "figure-eight-classical",
    "dunkl-eval", "dunkl-inverse", "hecke-t1", "hecke-t3", "macdonald-recurrence",
    "macdonald-genfun", "macdonald-schur", "quantum-trace", "alpha-identity",
    "universal-invariant",
)

# The largest colour any workload asks for, and the largest brace index the
# checks then evaluate: a[n][p] needs {2p-1} up to p = n + 1, c[p][i] needs
# {2m} up to m = 2n - 1.
NMAX = 7
BRACE_MAX = 4 * NMAX


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"gjones-perfbench/{stream}/{seed}")


def habiro_record(seed: int) -> dict:
    rng = _rng(seed, "habiro")
    habiro = []
    for _ in range(HABIRO_LEN):
        exps = rng.sample(range(-HABIRO_EXP, HABIRO_EXP + 1), HABIRO_TERMS)
        habiro.append([[e, rng.choice([c for c in range(-HABIRO_COEFF, HABIRO_COEFF + 1) if c])]
                       for e in sorted(exps)])
    return {"name": f"random-{seed}", "habiro": habiro, "all_ones": False}


def write_knot_file(seed: int, path) -> dict:
    record = habiro_record(seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record


def eval_point(seed: int) -> Point:
    """A random point of GF(P) at which no brace {m}, m <= BRACE_MAX, vanishes."""
    rng = _rng(seed, "point")
    while True:
        pt = Point(rng.randrange(2, P - 1), rng.randrange(2, P - 1), rng.randrange(2, P - 1))
        if pt.braces_nonzero(BRACE_MAX):
            return pt


def cli_queries(knot_file: str) -> list[dict]:
    """The cli-cold list: each entry is one fresh ``python -m gjones.cli`` run.

    ``check`` names how the output is verified; ``knot`` / ``n`` / ``t1`` /
    ``t2`` describe the expected value.
    """
    f8, unk = "figure-eight", "unknot"
    return [
        {"argv": ["jones", "--knot", f8, "-n", "7", "--format", "json"],
         "check": "jones", "knot": f8, "n": 7, "fmt": "json"},
        {"argv": ["jones", "--knot", f8, "-n", "6", "--format", "latex"],
         "check": "jones", "knot": f8, "n": 6, "fmt": "latex"},
        {"argv": ["jones", "--knot", unk, "-n", "7", "--t2", "1"],
         "check": "jones", "knot": unk, "n": 7, "t2": 1, "fmt": "text"},
        {"argv": ["jones", "--knot-file", knot_file, "-n", "7", "--format", "json"],
         "check": "jones", "knot": "file", "n": 7, "fmt": "json"},
        {"argv": ["jones", "--knot-file", knot_file, "-n", "6", "--t1", "1", "--format", "latex"],
         "check": "jones", "knot": "file", "n": 6, "t1": 1, "fmt": "latex"},
        {"argv": ["jones", "--knot", f8, "-n", "6", "--route", "series", "--format", "json"],
         "check": "jones", "knot": f8, "n": 6, "fmt": "json"},
        {"argv": ["jones", "--knot", f8, "-n", "7", "--route", "macdonald", "--t2", "1"],
         "check": "jones", "knot": f8, "n": 7, "t2": 1, "fmt": "text"},
        {"argv": ["coeff", "-n", "7", "-i", "4"],
         "check": "coeff", "n": 7, "i": 4, "fmt": "text"},
        {"argv": ["table", "-n", "6", "--what", "a", "--format", "json"],
         "check": "table-a", "n": 6},
        {"argv": ["table", "-n", "6", "--what", "coeff", "--t1", "1"],
         "check": "table-coeff", "n": 6, "t1": 1},
    ]
