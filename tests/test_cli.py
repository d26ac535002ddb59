import json
import pathlib
from collections import Counter

import pytest

from gjones import daha, verify
from gjones.cli import main
from gjones.cyclo import a_table, specialize
from gjones.exactalg import JSON_VARS, LaurentPoly, QFraction
from gjones.qcombo import row_braces

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_classic_golden(capsys):
    code, out, err = run(capsys, ["coeff", "--classic", "-n", "2", "-i", "2"])
    assert code == 0 and err == ""
    assert out.strip() == "q^-10 - q^-2 - q^2 + q^10"


# Exact stdout pinned from a known-good build: route-against-route agreement
# alone would pass a dispatcher bug that changed every route alike.
@pytest.mark.parametrize("argv, golden", [
    (["coeff", "-n", "4", "-i", "2", "--route", "sum"], "coeff_n4_i2"),
    (["coeff", "-n", "4", "-i", "2", "--route", "series"], "coeff_n4_i2"),
    (["coeff", "-n", "4", "-i", "2", "--route", "det"], "coeff_n4_i2"),
    (["coeff", "-n", "4", "-i", "2", "--route", "series", "--order", "7"], "coeff_n4_i2"),
    (["coeff", "-n", "4", "-i", "2", "--route", "macdonald", "--t2", "1"],
     "coeff_n4_i2_t2one"),
    (["coeff", "-n", "4", "-i", "2", "--t1", "1", "--format", "latex"],
     "coeff_n4_i2_t1one_latex"),
    (["jones", "--knot", "figure-eight", "-n", "4", "--route", "series", "--format", "json"],
     "jones_figure_eight_n4_json"),
    (["table", "-n", "3", "--what", "a"], "table_n3_a"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_golden(capsys, argv, golden):
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{golden}.txt").read_text()


def test_jones_unknot_closed_form(capsys):
    code, out, _ = run(capsys, ["jones", "--knot", "unknot", "-n", "3", "--t2", "1"])
    assert code == 0
    assert out.strip() == "q^-4*t1^2 + 1 + q^4*t1^-2"


def test_jones_formats(capsys):
    code, out, _ = run(capsys, ["jones", "--knot", "unknot", "-n", "3", "--t2", "1",
                                "--format", "latex"])
    assert code == 0
    assert out.strip() == "q^{-4}t_1^{2} + 1 + q^{4}t_1^{-2}"
    code, out, _ = run(capsys, ["jones", "--knot", "unknot", "-n", "3", "--t2", "1",
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data == {"terms": [[-4, 2, 0, 0, 0, 0, 0, 1],
                              [0, 0, 0, 0, 0, 0, 0, 1],
                              [4, -2, 0, 0, 0, 0, 0, 1]]}


def test_output_is_deterministic(capsys):
    a = run(capsys, ["coeff", "-n", "4", "-i", "2"])
    b = run(capsys, ["coeff", "-n", "4", "-i", "2"])
    assert a == b


def test_routes_agree_via_cli(capsys):
    outs = []
    for route in ("sum", "series", "det"):
        code, out, _ = run(capsys, ["coeff", "-n", "3", "-i", "2", "--route", route])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    code, out_mac, _ = run(capsys, ["coeff", "-n", "3", "-i", "2",
                                    "--route", "macdonald", "--t2", "1"])
    code2, out_sum, _ = run(capsys, ["coeff", "-n", "3", "-i", "2", "--t2", "1"])
    assert out_mac == out_sum


def test_validation_errors_exit_one(capsys):
    code, _, err = run(capsys, ["jones", "--knot", "nosuch", "-n", "2"])
    assert code == 1 and "unknown knot" in err
    code, _, err = run(capsys, ["jones", "--knot", "figure-eight", "-n", "2",
                                "--route", "macdonald"])
    assert code == 1 and "t2" in err
    code, _, err = run(capsys, ["coeff", "-n", "2", "-i", "3"])
    assert code == 1
    code, _, err = run(capsys, ["coeff", "-n", "2", "-i", "1", "--t1", "5"])
    assert code == 1
    code, _, err = run(capsys, ["coeff", "-n", "2", "-i", "1", "--route", "nope"])
    assert code == 1
    code, _, err = run(capsys, ["coeff", "-n", "5", "-i", "4", "--route", "det"])
    assert code == 1 and "i <= 3" in err


def test_unknown_knot_message_is_unquoted(capsys):
    # the KeyError's message, not its repr
    assert run(capsys, ["jones", "--knot", "nosuch", "-n", "2"]) == (
        1, "", "error: unknown knot 'nosuch'; built-ins: unknot, figure-eight\n")


@pytest.mark.parametrize("route", ["series", "sum"])
def test_order_below_n_exits_one(capsys, route):
    code, out, err = run(capsys, ["coeff", "-n", "4", "-i", "2", "--route", route,
                                  "--order", "3"])
    assert code == 1 and out == ""
    assert err == "error: order 3 is below the requested coefficient n=4\n"


# --classic prints the classical coefficient, but its flags are checked as
# they are without it
@pytest.mark.parametrize("flags", [
    ["-n", "5", "-i", "4", "--route", "det", "--order", "1"],
    ["-n", "2", "-i", "2", "--route", "macdonald"],
    ["-n", "4", "-i", "2", "--order", "3"],
], ids=["det-past-3", "macdonald-without-t2", "order-below-n"])
def test_classic_validates_flags_alike(capsys, flags):
    plain = run(capsys, ["coeff", *flags])
    assert plain[0] == 1
    assert run(capsys, ["coeff", "--classic", *flags]) == plain


def test_knot_file_ingestion(tmp_path, capsys):
    rec = {"name": "pad", "habiro": [[[0, 1]], [], []], "all_ones": False}
    path = tmp_path / "pad.json"
    path.write_text(json.dumps(rec))
    code, out, _ = run(capsys, ["jones", "--knot-file", str(path), "-n", "3",
                                "--t1", "1", "--t2", "1"])
    assert code == 0
    code2, out2, _ = run(capsys, ["jones", "--knot", "unknot", "-n", "3",
                                  "--t1", "1", "--t2", "1"])
    assert out == out2
    code, _, err = run(capsys, ["jones", "--knot-file", str(tmp_path / "nope.json"),
                                "-n", "1"])
    assert code == 1


def test_table_commands(capsys):
    code, out, _ = run(capsys, ["table", "-n", "2", "--what", "classic"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c[1,1] = 1"
    assert len(lines) == 3
    code, out, _ = run(capsys, ["table", "-n", "2", "--what", "a", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0] == {"n": 1, "p": 1, "num": [[0, 0, 0, 0, 0, 0, 0, 1]],
                               "den": []}


def test_table_a_honours_specialization(capsys):
    code, out, _ = run(capsys, ["table", "-n", "4", "--what", "a", "--t1", "1", "--t2", "1"])
    assert code == 0
    for line in out.strip().splitlines():     # only a[n][n] = 1 survives at t1 = t2 = 1
        label, value = line.split(" = ")
        n, p = map(int, label[2:-1].split(","))
        assert value == ("1" if p == n else "0"), line
    code, out, _ = run(capsys, ["table", "-n", "3", "--what", "a", "--t1", "1"])
    assert code == 0
    a31 = a_table(3)[1]
    want = QFraction(a31.num.substitute("t1", 1), a31.den).reduced().render()
    assert f"a[3,1] = {want}" in out.splitlines()
    assert "t1" not in out


@pytest.mark.parametrize("spec", [[], ["--t1", "1"], ["--t2", "1"]],
                         ids=["formal", "t1=1", "t2=1"])
def test_table_a_prints_each_value_over_part_of_d_n(capsys, spec):
    # each entry prints as its value over D_n, reduced: the same value as the
    # table's, over a sub-multiset of D_n, and the text line renders the
    # fraction that the JSON row holds
    kw = {spec[0][2:]: 1} if spec else {}
    _, out, _ = run(capsys, ["table", "-n", "6", "--what", "a", *spec, "--format", "json"])
    _, text, _ = run(capsys, ["table", "-n", "6", "--what", "a", *spec])
    rows, lines = json.loads(out)["rows"], text.splitlines()
    assert len(rows) == len(lines) == 21
    for row, line in zip(rows, lines):
        n, p = row["n"], row["p"]
        num = LaurentPoly.zero()
        for *exps, c in row["num"]:
            num = num + LaurentPoly.term(c, **dict(zip(JSON_VARS, exps)))
        printed = QFraction(num, row["den"])
        a = a_table(n).get(p, QFraction.zero())
        assert printed == QFraction(specialize(a.num, **kw), a.den), (n, p)
        assert not Counter(row["den"]) - Counter(row_braces(n)), (n, p)
        assert line == f"a[{n},{p}] = {printed.render()}"


def test_verify_suite_routes(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "routes", "--nmax", "4"])
    assert code == 0, err
    assert "ok routes-series" in out
    assert "ok routes-det" in out
    assert "ok routes-macdonald" in out


@pytest.mark.parametrize("suite", ["all", "daha", "routes"])
@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_verify_rejects_bounds_below_one(capsys, suite, nmax):
    code, out, err = run(capsys, ["verify", "--suite", suite, "--nmax", nmax])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "nmax" in err


@pytest.fixture
def s_vector_cache():
    daha._s_vector.cache_clear()
    yield
    daha._s_vector.cache_clear()


def test_broken_operator_vector_exits_two(capsys, monkeypatch, s_vector_cache):
    # one term added to the U^2 entry of the Dunkl step that builds row 4
    pair = daha.dunkl_pair

    def broken(f):
        v = pair(f)
        if max(v.support()) != 4:
            return v
        c = v.coeff(2)
        return daha.UPoly({**v._c, 2: QFraction(c.num + LaurentPoly.var("q"), c.den)})

    monkeypatch.setattr(daha, "dunkl_pair", broken)
    code, out, err = run(capsys, ["verify", "--suite", "daha", "--nmax", "4"])
    assert code == 2
    assert out == ""
    assert err.startswith("invariant violation: ") and "does not cancel" in err


def test_broken_schur_value_exits_two(capsys, monkeypatch):
    # a brace remainder is an invariant violation, not a validation error
    monkeypatch.setattr(verify, "mac_p", lambda n, beta, base: QFraction(1, (3,)))
    code, out, err = run(capsys, ["verify", "--suite", "macdonald", "--nmax", "4"])
    assert code == 2
    assert out == "ok macdonald-recurrence\nok macdonald-genfun\n"
    assert err.startswith("invariant violation: ") and "does not cancel" in err


def test_skew_failure_exits_two(capsys, monkeypatch, s_vector_cache):
    # one term added to the U^2 entry of the first Dunkl step breaks U -> U^-1
    # skew symmetry without leaving a brace remainder
    pair = daha.dunkl_pair

    def broken(f):
        v = pair(f)
        if max(v.support()) != 2:
            return v
        c = v.coeff(2)
        return daha.UPoly({**v._c, 2: QFraction(c.num + LaurentPoly.var("q"), c.den)})

    monkeypatch.setattr(daha, "dunkl_pair", broken)
    code, out, err = run(capsys, ["verify", "--suite", "daha", "--nmax", "4"])
    assert (code, out) == (2, "")
    assert err.startswith("invariant violation: ") and "skew" in err
    assert err.count("\n") == 1


def test_surviving_pole_exits_two(capsys, monkeypatch):
    # a T1 that claims a (1 - X^2) pole: its second application meets it
    real = daha.t1_act
    monkeypatch.setattr(daha, "t1_act", lambda f: daha.XFrac(real(f).num, 1))
    code, out, err = run(capsys, ["verify", "--suite", "daha", "--nmax", "2"])
    assert code == 2
    assert out == "ok operator-oracle\nok dunkl-eval\nok dunkl-inverse\n"
    assert err == "invariant violation: a (1 - X^2) denominator survives\n"


@pytest.mark.parametrize("argv", [
    ["coeff", "-n", "70000", "-i", "1"],
    ["jones", "--knot", "unknot", "-n", "70000"],
], ids=["coeff", "jones"])
def test_size_past_the_packed_layout_exits_one(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: packed layout bounds out of range\n"


@pytest.mark.parametrize("argv", [
    ["coeff", "-n", "600", "-i", "1", "--route", "sum"],
    ["coeff", "-n", "1200", "-i", "1", "--route", "sum"],
    ["jones", "--knot", "unknot", "-n", "600", "--route", "sum"],
], ids=["coeff-600", "coeff-1200", "jones"])
def test_size_past_the_table_exits_one(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: table bounds out of range\n"
