import json

import pytest
from hypothesis import given, settings, strategies as st

from gjones import specialize
from gjones.cyclo import coefficient_row
from gjones.cli import main
from gjones.exactalg import LaurentPoly as L
from gjones.knots import (KnotRecord, MissingHabiro, RouteUnavailable, builtin_knot,
                          classical_jones, figure_eight, generalized_jones,
                          knot_from_dict, load_knot_file, sigma_trace,
                          universal_eval, unknot)
from gjones.qcombo import cyclotomic_c, qint


def test_builtin_records():
    u = unknot()
    assert u.habiro_at(0) == L.one()
    assert u.habiro_at(7).is_zero
    e = figure_eight()
    assert e.habiro_at(0) == L.one()
    assert e.habiro_at(11) == L.one()
    assert builtin_knot("figure_eight") is e
    with pytest.raises(KeyError):
        builtin_knot("trefoil")


def test_classical_normalization():
    for K in (unknot(), figure_eight()):
        assert classical_jones(K, 0).is_zero
        assert classical_jones(K, 1) == L.one()


def test_classical_unknot_is_quantum_dimension():
    for n in range(1, 11):
        assert classical_jones(unknot(), n) == qint(n, 2), n


def test_classical_figure_eight_sum():
    for n in range(1, 9):
        want = L.zero()
        for i in range(1, n + 1):
            want = want + cyclotomic_c(n, i)
        assert classical_jones(figure_eight(), n) == want, n


def test_generalized_specializes_to_classical():
    for K in (unknot(), figure_eight()):
        for n in range(0, 7):
            assert generalized_jones(K, n, t1=1, t2=1) \
                == classical_jones(K, n), (K.name, n)


def test_unknot_closed_form_t2_one():
    for n in range(1, 9):
        got = generalized_jones(unknot(), n, t2=1)
        want = L.zero()
        for j in range(n):
            e = n - 1 - 2 * j
            want = want + L.term(1, q=2 * e, t1=-e)
        assert got == want, n


def test_routes_agree_on_knots():
    e = figure_eight()
    for n in range(1, 6):
        base = generalized_jones(e, n)
        assert generalized_jones(e, n, route="series") == base, n
        assert generalized_jones(e, n, t2=1, route="macdonald") \
            == base.substitute("t2", 1), n


def test_route_guards():
    with pytest.raises(RouteUnavailable):
        generalized_jones(unknot(), 2, route="macdonald")
    with pytest.raises(RouteUnavailable):
        generalized_jones(unknot(), 2, route="bogus")
    with pytest.raises(ValueError):
        generalized_jones(unknot(), 2, t1=2)


@pytest.mark.parametrize("call", [
    lambda: universal_eval(unknot(), 2, t1=2),
    lambda: generalized_jones(unknot(), 2, t1=True),
    lambda: specialize(L.var("t1"), "1", None),
], ids=["universal_eval-t1=2", "generalized_jones-t1=True", "specialize-t1='1'"])
def test_specialization_rejects_anything_but_one(call):
    with pytest.raises(ValueError):
        call()


def test_universal_eval_matches():
    for K in (unknot(), figure_eight()):
        for n in range(1, 7):
            assert universal_eval(K, n) \
                == generalized_jones(K, n), (K.name, n)
        assert universal_eval(K, 4, t1=1, t2=1) == classical_jones(K, 4)


SPECS = (("series", None, None), ("series", 1, None), ("series", None, 1), ("series", 1, 1),
         ("sum", None, None), ("sum", 1, None), ("macdonald", None, 1), ("macdonald", 1, 1))


def dict_sum(knot, n, route, t1, t2):
    row = coefficient_row(n, n, route, t1, t2)
    return sum((chat * knot.habiro_at(k) for k, chat in enumerate(row)), L.zero())


# H_k: zero, one, or up to three q terms with negative exponents, one coefficient
# perhaps 2^62 (a 64-bit pack whose products widen) or 2^63 (a 128-bit pack)
habiro_polys = st.one_of(
    st.just(L.zero()), st.just(L.one()),
    st.lists(st.tuples(st.integers(-5, 3), st.sampled_from((-3, -1, 2, 1 << 62, -(1 << 63)))),
             min_size=1, max_size=3).map(
        lambda terms: sum((L.term(c, q=e) for e, c in dict(terms).items()), L.zero())))


@settings(max_examples=40, deadline=None)
@given(st.lists(habiro_polys, min_size=1, max_size=5), st.integers(0, 5), st.sampled_from(SPECS))
def test_packed_knot_sum_matches_the_dict_sum(habiro, n, spec):
    knot = KnotRecord("drawn", tuple(habiro), zero_tail=True)
    assert generalized_jones(knot, n, spec[1], spec[2], spec[0]) == dict_sum(knot, n, *spec)


def test_packed_knot_sum_keeps_large_habiro_coefficients():
    # zero H_k in the middle and at the end, H_1 packed 128 bits wide, H_3's products widen
    habiro = (L.var("q", -2) - L.one(), L.term((1 << 63) + 1, q=-3), L.zero(),
              L.term(1 << 62, q=2) - L.var("q", -1), L.one(), L.zero(), L.zero())
    knot = KnotRecord("large", habiro)
    for n in range(len(habiro) + 1):
        for route, t1, t2 in SPECS:
            got = generalized_jones(knot, n, t1, t2, route)
            assert got == dict_sum(knot, n, route, t1, t2), (n, route, t1, t2)
    assert generalized_jones(knot, 5, 1, 1) == classical_jones(knot, 5)


def test_sigma_trace_values():
    for n in range(1, 11):
        assert sigma_trace(0, n) == qint(n, 2), n
        for k in range(n):
            assert sigma_trace(k, n) == cyclotomic_c(n, k + 1), (k, n)
        assert sigma_trace(n, n).is_zero
        assert sigma_trace(n + 2, n).is_zero


def test_record_requires_available_data():
    K = KnotRecord("short", (L.one(),))
    assert classical_jones(K, 1) == L.one()
    with pytest.raises(MissingHabiro):
        classical_jones(K, 2)


def test_knot_from_dict_and_file(tmp_path):
    data = {"name": "trial",
            "habiro": [[[0, 1]], [[2, 1], [-2, -1]]],
            "all_ones": False}
    K = knot_from_dict(data)
    assert K.habiro_at(1) == L.term(1, q=2) - L.term(1, q=-2)
    path = tmp_path / "trial.json"
    path.write_text(json.dumps(data))
    K2 = load_knot_file(str(path))
    assert K2.habiro == K.habiro
    assert classical_jones(K2, 2) == cyclotomic_c(2, 1) \
        + cyclotomic_c(2, 2) * (L.term(1, q=2) - L.term(1, q=-2))


def test_loader_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        knot_from_dict({"name": "bad", "habiro": [[[0, 1.5]]]})
    with pytest.raises(ValueError):
        knot_from_dict({"name": "bad", "habiro": [[[0]]]})
    with pytest.raises(ValueError):
        knot_from_dict({"habiro": []})


def test_all_ones_flag_round_trip():
    K = knot_from_dict({"name": "ones", "habiro": [], "all_ones": True})
    assert K.habiro_at(9) == L.one()
    for n in range(1, 5):
        assert classical_jones(K, n) == classical_jones(figure_eight(), n), n


@pytest.mark.parametrize("record", [
    {"name": "b", "habiro": [[[True, 1]]], "all_ones": "false"},
    {"name": "b", "habiro": [[[True, 1]]]},
    {"name": "b", "habiro": [[[0, False]]]},
    {"name": "b", "habiro": [[5]]},
    {"name": "b", "habiro": 5},
    [1, 2],
    {"name": "d", "habiro": [[[1, 2], [1, -2]], [[0, 1]]]},
    {"name": "x", "habiro": [[[1, 2]], [[0, 5]]], "all_ones": True},
    {"name": "x", "habrio": [[[1, 2]]]},
])
def test_loader_is_strict(record, tmp_path, capsys):
    with pytest.raises(ValueError):
        knot_from_dict(record)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert main(["jones", "--knot-file", str(path), "-n", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot load knot file: ")


@pytest.mark.parametrize("record, message", [
    ({"name": "x", "habiro": [[[1, 2]], [[0, 5]]], "all_ones": True},
     "'habiro' must be empty when 'all_ones' is true"),
    ({"name": "x", "habrio": [[[1, 2]]]},
     "unknown key 'habrio'; a knot record has 'name', 'habiro' and 'all_ones'"),
], ids=["all-ones-with-data", "misspelled-key"])
def test_silent_inputs_are_named(record, message, tmp_path, capsys):
    # each once loaded without a word: H_k = 1 over the file's data, or an empty knot
    path = tmp_path / "x.json"
    path.write_text(json.dumps(record))
    assert main(["jones", "--knot-file", str(path), "-n", "2"]) == 1
    assert capsys.readouterr() == ("", f"error: cannot load knot file: {message}\n")


def test_duplicate_exponent_is_named(tmp_path, capsys):
    # two terms at q^1 would add up to H_0 = 0 without a word
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"name": "d", "habiro": [[[1, 2], [1, -2]], [[0, 1]]]}))
    assert main(["jones", "--knot-file", str(path), "-n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot load knot file: H_0: q exponent 1 appears more "
                            "than once\n")
