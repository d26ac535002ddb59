import importlib.util
import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gjones import cyclo, daha, knots
from gjones.cli import main
from gjones.cyclo import (ROUTES, IntegralityViolation, RouteUnavailable, _eigen_layers, a_ratio,
                          a_table, b_entry, coeff_det_series, coeff_series, coeff_sum,
                          coeff_t2one, coefficient, coefficient_row, gamma_lam,
                          specialize)
from gjones.exactalg import (LaurentPoly as L, PackedPoly, QFraction as F, divide_brace,
                             qbrace_poly)
from gjones.knots import figure_eight, generalized_jones, load_knot_file, universal_eval, unknot
from gjones.qcombo import cyclotomic_c, row_braces

NMAX = 6


def spec11(f):
    return f.substitute("t1", 1).substitute("t2", 1)


# -- the ratio ---------------------------------------------------------------

def test_a_ratio_explicit_p1():
    want = F(L.term(1, q=1, t1=-1) - L.term(1, q=-1, t1=1)
             + L.var("t2") - L.var("t2", -1), (1,))
    assert a_ratio(1) == want


def test_a_ratio_is_one_at_t_one():
    for p in range(-4, 5):
        assert spec11(a_ratio(p)).reduced() == F.one(), p


def test_a_ratio_negative_index():
    # A(-p) = num' / (q^(-2p-1) - q^(2p+1)) = -num' / {2p+1}
    for p in range(1, 5):
        num = (L.term(1, q=-2 * p - 1, t1=-1) - L.term(1, q=2 * p + 1, t1=1)
               + L.var("t2") - L.var("t2", -1))
        assert a_ratio(-p) * qbrace_poly(2 * p + 1) == F(-num), p
        assert a_ratio(-p) == F(-num, (2 * p + 1,)), p


# -- the table ----------------------------------------------------------------

def test_boundary_rows():
    assert dict(a_table(1)) == {1: F.one()}
    assert 0 not in a_table(3) and 4 not in a_table(3)
    with pytest.raises(TypeError):
        a_table(3)[1] = F.one()
    with pytest.raises(ValueError):
        a_table(0)


def test_rows_collapse_at_t_one():
    # at t1 = t2 = 1 only a[n][n] = 1 survives
    for n in range(1, NMAX + 1):
        for p, a in a_table(n).items():
            assert spec11(a).reduced() == (F.one() if p == n else F.zero()), (n, p)


def test_table_grows_once(monkeypatch):
    a_table.cache_clear()
    built = []
    sum_row = cyclo._sum_row
    monkeypatch.setattr(cyclo, "_sum_row", lambda n, w: built.append((n, w)) or sum_row(n, w))
    monkeypatch.setattr(cyclo, "_ROWS", {})
    for i in range(1, 9):
        coeff_sum(8, i)
    assert a_table.cache_info().misses == 8     # rows 1..8, each built once
    # ascending i: the first request makes its width, the next one the whole row
    assert built == [(8, 1), (8, 8)]
    for n in range(1, 9):
        assert universal_eval(figure_eight(), n) == generalized_jones(figure_eight(), n), n
    assert a_table.cache_info().misses == 8


def test_top_entries_product_form():
    prod = F.one()
    for n in range(2, NMAX + 1):
        prod = prod * a_ratio(n)
        assert a_table(n)[n] == prod, n


def test_next_to_top_entries():
    for n in range(2, NMAX + 1):
        prod = F.one()
        for k in range(2, n):
            prod = prod * a_ratio(k)
        want = prod * (a_ratio(1) - a_ratio(n))
        assert a_table(n)[n - 1] == want, n


def test_table_matches_operator_rows():
    for n in range(1, NMAX + 1):
        row = daha.transition_row(n)
        for p in range(1, n + 1):
            assert row.get(p, F.zero()) == a_table(n).get(p, F.zero()), (n, p)


def reference_at_a_point(nmax):
    """perfbench/reference.py, loaded read-only by path, with its own table to
    ``nmax`` at a seeded point of GF(2^61 - 1) where no brace used vanishes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", pathlib.Path(__file__).parent.parent / "perfbench" / "reference.py")
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    rng = random.Random(20190811)
    pt = ref.Point(rng.randrange(2, ref.P - 1), rng.randrange(2, ref.P - 1),
                   rng.randrange(2, ref.P - 1))
    assert pt.braces_nonzero(4 * nmax)
    return ref, pt, ref.Reference(pt, nmax)


def test_table_rows_match_the_reference():
    # every entry is held over D_n, and equals the independent table's value
    ref, pt, table = reference_at_a_point(10)
    for n in range(1, 11):
        row = a_table(n)
        for p in range(1, n + 1):
            f = row.get(p, F.zero())
            assert f.is_zero or f.den == row_braces(n), (n, p)
            den = 1
            for m in f.den:
                den = den * pt.brace(m) % ref.P
            got = pt.eval({mono[:3]: c for mono, c in f.num.terms_sorted()})
            assert got == den * table.a[n][p] % ref.P, (n, p)


@pytest.fixture
def broken_row(monkeypatch):
    """Serve row 4 of the table with one term added to the packed N[4][2], in
    place of the cached row; return the real ``a_table``, which has no row 5 yet.

    The perturbation reaches N[5][3] as {9} u_3 / {5}, which is no
    polynomial (a perturbation of N[4][1] would reach row 5 only over {3},
    which divides {9}, and pass the row step)."""
    real = cyclo.a_table
    real.cache_clear()
    monkeypatch.setattr(cyclo, "_ROWS", {})
    nums = dict(real(4).nums)
    nums[2] = nums[2] + PackedPoly.pack(L.one())

    def served(n):
        return cyclo.TableRow(4, nums) if n == 4 else real(n)

    monkeypatch.setattr(cyclo, "a_table", served)
    monkeypatch.setattr(knots, "a_table", served)
    yield real
    real.cache_clear()


def test_broken_row_fails_the_next_row_step(broken_row):
    with pytest.raises(IntegralityViolation):
        broken_row(5)


def test_broken_row_fails_the_sum_route(broken_row):
    with pytest.raises(IntegralityViolation):
        coeff_sum(4, 1)


def test_broken_row_fails_universal_eval(broken_row):
    with pytest.raises(IntegralityViolation):
        universal_eval(figure_eight(), 4)


# -- the weighted sum -----------------------------------------------------------

def test_coeff_sum_classical_at_t_one():
    for n in range(1, NMAX + 1):
        for i in range(1, n + 1):
            assert spec11(F(coeff_sum(n, i))) == F(cyclotomic_c(n, i)), (n, i)


def test_coeff_sum_top_coefficient():
    for n in range(2, NMAX + 1):
        prod = F.one()
        for k in range(2, n + 1):
            prod = prod * a_ratio(k)
        assert F(coeff_sum(n, n)) == F(cyclotomic_c(n, n)) * prod, n


def test_coeff_sum_range_errors():
    with pytest.raises(IndexError):
        coeff_sum(3, 4)
    with pytest.raises(IndexError):
        coeff_sum(3, 0)


# -- series route ---------------------------------------------------------------

def test_gamma_has_unit_constant():
    g = gamma_lam(3, 5)
    assert g.coeff(0) == F(-1)
    assert g.coeff(2) == F(-1)
    inv = g.invert()
    assert (g * inv).coeff(0) == F.one()


def test_b_entry_parity_selector():
    # p - N odd picks the t2 bar, p - N even the (negated) t1 bar
    tb1 = L.var("t1") - L.var("t1", -1)
    tb2 = L.var("t2") - L.var("t2", -1)
    assert b_entry(2, 1) == (qbrace_poly(3) - qbrace_poly(1)) * tb2
    assert b_entry(3, 1) == -((qbrace_poly(4) - qbrace_poly(2)) * tb1)
    with pytest.raises(IndexError):
        b_entry(1, 1)


def unpacked_layers(*args, **kwargs):
    return [{N: y.unpack() for N, y in layer.items()} for layer in _eigen_layers(*args, **kwargs)]


def test_eigen_layers_structure():
    layers = unpacked_layers(3, 6)      # layer 6, the last, holds the odd rows only
    assert sorted(layers[6]) == [1, 3]
    # layer 0 is the constant term of every row
    assert all(y.is_zero for y in layers[0].values())
    # first row: lam coefficient is {2}
    assert layers[1][1] == qbrace_poly(2)
    # at t1 = t2 = 1 the N-th row has coefficients {2Nk}, specialized late or
    # early (which skips the even rows)
    early = unpacked_layers(3, 5, t1_one=True, t2_one=True)
    for k in range(1, 6):
        for N in (1, 2, 3):
            assert spec11(layers[k][N]) == qbrace_poly(2 * N * k), (k, N)
        assert early[k] == {1: qbrace_poly(2 * k), 3: qbrace_poly(6 * k)}, k


def test_layout_bounds_dominate_the_sweep():
    # every value that could be unpacked: each layer of rows 1..2w-1 and each
    # r of the dual map, which for width w is a prefix of the full-width one;
    # the dual map runs on dicts and on packed values side by side
    for n in range(1, 8):
        packed = list(_eigen_layers(2 * n - 1, n))
        layers = [{N: y.unpack() for N, y in layer.items()} for layer in packed]
        r = [layers[n][m] for m in range(1, 2 * n, 2)]
        pr = [packed[n][m] for m in range(1, 2 * n, 2)]
        duals, pduals = [r], [pr]
        for i in range(1, n):
            w = L.var("q", 4 * i) + L.var("q", -4 * i)
            r = [r[j + 1] + (r[j - 1] if j else -r[0]) - w * r[j] for j in range(len(r) - 1)]
            pr = [pr[j + 1] + (pr[j - 1] if j else -pr[0]) - cyclo._qsum(4 * i) * pr[j]
                  for j in range(len(pr) - 1)]
            duals.append(r)
            pduals.append(pr)
        # each packed value's tracked bound dominates its largest |coefficient|
        for y in [y for layer in packed for y in layer.values()] + [y for r in pduals for y in r]:
            assert y.bound >= max((abs(c) for _, c in y.unpack().terms_sorted()), default=0), n
        assert [[y.unpack() for y in r] for r in pduals] == duals, n
        for width in range(1, n + 1):
            q_bound, t_bound = cyclo._layout(2 * width - 1, n)
            values = [y for layer in layers for N, y in layer.items() if N < 2 * width]
            values += [y for i, r in enumerate(duals[:width]) for y in r[:width - i]]
            for y in values:
                for mono, c in y.terms_sorted():
                    assert abs(mono[0]) <= q_bound, (n, width)
                    assert max(abs(mono[1]), abs(mono[2])) <= t_bound, (n, width)
            assert (tuple(y.unpack() for y in cyclo._sweep(n, width))
                    == tuple(divide_brace(d[0], 2) for d in duals[:width]))


def test_sweep_refuses_sizes_past_the_exponent_fields(monkeypatch):
    # the refusal comes before any packed work: nothing is multiplied
    def swept(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cyclo, "_row_multipliers", swept)
    for rows, n in ((1, 70000), (3, 21845)):
        with pytest.raises(ValueError, match="^packed layout bounds out of range$"):
            cyclo._sweep(n, (rows + 1) // 2)
    assert cyclo._layout(3, 21844) == (131068, 21844)     # 2Rn + 2w(w-1) < 2^17


def test_table_refuses_sizes_past_the_exponent_fields(monkeypatch):
    # the refusal comes before any packed work: no row is built, nothing is packed
    def built(*args):
        raise AssertionError("the table started")

    monkeypatch.setattr(cyclo, "_step_multipliers", built)
    monkeypatch.setattr(cyclo, "_brace", built)
    monkeypatch.setattr(cyclo.PackedPoly, "pack", built)
    monkeypatch.setattr(cyclo, "_ROWS", {})
    for call in (lambda: a_table(363), lambda: coeff_sum(362, 1), lambda: coeff_sum(600, 1),
                 lambda: coefficient(170, 170, "sum"), lambda: universal_eval(unknot(), 1200)):
        with pytest.raises(ValueError, match="^table bounds out of range$"):
            call()
    # n^2 - 1, and n^2 - 1 + 2n + 4n(width - 1) on the sum route, stay below 2^17
    assert cyclo._table_bound(362) == 131043 and cyclo._table_bound(361, 1) == 131042
    assert cyclo._table_bound(170, 1) == 29239 and cyclo._table_bound(100, 59) == 33399


def test_table_bound_is_met():
    for n in range(1, 9):
        e_max = max(abs(mono[0]) for a in a_table(n).values() for mono, _ in a.num.terms_sorted())
        assert e_max == cyclo._table_bound(n), n


def test_table_builds_missing_rows_bottom_up(monkeypatch):
    # every row is built at the same stack depth: none waits on a recursion below it
    depths = []
    step = cyclo._step_multipliers

    def counted(*args):
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        depths.append(depth)
        return step(*args)

    monkeypatch.setattr(cyclo, "_step_multipliers", counted)
    a_table.cache_clear()
    a_table(9)
    assert len(depths) == sum(range(2, 10)) and max(depths) - min(depths) <= 1


def test_wide_layout_rows_match_the_reference(monkeypatch):
    # rows 9, 10 and 12 sweep at 64-bit digits; check every entry at one point
    # of GF(2^61 - 1) against the independent evaluation.  Some tracked bounds
    # of row 12 reach 2^63: those values re-read them, and none widens.
    ref, pt, table = reference_at_a_point(12)
    calls = {"_reread": 0, "_widened": 0}
    for name in calls:
        real = getattr(PackedPoly, name)
        monkeypatch.setattr(PackedPoly, name, lambda self, *args, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(self, *args))
    for n in (9, 10, 12):
        for i, chat in enumerate(cyclo._sweep(n, n), 1):
            got = pt.eval({mono[:3]: c for mono, c in chat.unpack().terms_sorted()})
            assert got == table.chat(n, i), (n, i)
        assert calls["_widened"] == 0, n
    assert calls["_reread"] >= 1


def test_series_route_matches_sum_route():
    for i in (1, 2, 3):
        g = coeff_series(i, NMAX)
        for n in range(1, NMAX + 1):
            if n < i:
                assert g.coeff(n).is_zero, (n, i)
            else:
                assert g.coeff(n) == coeff_sum(n, i), (n, i)


def test_series_vanishing_below_diagonal():
    g = coeff_series(3, 5)
    assert g.coeff(1).is_zero
    assert g.coeff(2).is_zero


def test_each_colour_swept_once(monkeypatch, capsys):
    swept = []      # (n, width) of each sweep
    sweep = cyclo._sweep
    monkeypatch.setattr(cyclo, "_sweep",
                        lambda n, width, *args: swept.append((n, width)) or sweep(n, width, *args))
    monkeypatch.setattr(cyclo, "_ROWS", {})
    for n in range(1, 7):
        generalized_jones(figure_eight(), n)
    assert swept == [(n, n) for n in range(1, 7)]
    for spec in ([], ["--t1", "1"]):
        swept.clear()
        monkeypatch.setattr(cyclo, "_ROWS", {})
        assert main(["table", "-n", "6", "--what", "coeff", *spec]) == 0
        assert swept == [(n, n) for n in range(1, 7)], spec
    capsys.readouterr()
    # trailing zero H_k: each colour is swept once, as wide as its last nonzero H_k
    tail = knots.KnotRecord("tail", (L.one(), L.var("q", 2) - L.one(), L.zero(),
                                     L.term(-2, q=-1), L.zero(), L.zero()))
    for knot, widths in ((unknot(), [1] * 6), (tail, [1, 2, 2, 4, 4, 4])):
        swept.clear()
        monkeypatch.setattr(cyclo, "_ROWS", {})
        got = [generalized_jones(knot, n) for n in range(1, 7)]
        assert swept == list(zip(range(1, 7), widths)), knot.name
        assert got == [universal_eval(knot, n) for n in range(1, 7)], knot.name
    # ascending i: the first request sweeps its width, the next one the whole row
    swept.clear()
    monkeypatch.setattr(cyclo, "_ROWS", {})
    for i in range(1, 8):
        coefficient(7, i)
    assert swept == [(7, 1), (7, 7)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6), st.sampled_from((("series", None), ("series", 1),
                                                       ("macdonald", 1), ("sum", None),
                                                       ("sum", 1))),
       st.sampled_from((None, 1)))
def test_rows_specialize_like_sum(data, n, route_t2, t1):
    route, t2 = route_t2
    i = data.draw(st.integers(1, n))
    own = data.draw(st.integers(0, n))      # the width of the own row cached first, if any
    cyclo._ROWS.clear()
    if own:
        coefficient(n, own, route, t2=1 if route == "macdonald" else None)
    assert coefficient(n, i, route, t1, t2) == specialize(coeff_sum(n, i), t1, t2)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6), st.sampled_from((("series", None), ("series", 1),
                                                       ("macdonald", 1), ("sum", None),
                                                       ("sum", 1))),
       st.sampled_from((None, 1)))
def test_rows_are_their_entries(data, n, route_t2, t1):
    route, t2 = route_t2
    width = data.draw(st.integers(0, n))
    own = data.draw(st.integers(0, n))      # the width of the own row cached first, if any
    cyclo._ROWS.clear()
    if own:
        coefficient(n, own, route, t2=1 if route == "macdonald" else None)
    row = coefficient_row(n, width, route, t1, t2)
    assert row == tuple(coefficient(n, i, route, t1, t2) for i in range(1, width + 1))
    assert row == tuple(specialize(coeff_sum(n, i), t1, t2) for i in range(1, width + 1))


def test_det_rows_are_their_entries():
    for n, width in ((3, 3), (4, 2), (5, 3)):
        for t1 in (None, 1):
            for t2 in (None, 1):
                want = tuple(coefficient(n, i, t1=t1, t2=t2) for i in range(1, width + 1))
                row = coefficient_row(n, width, "det", t1, t2)
                assert row == want, (n, width, t1, t2)
                # the det entries, specialized packed, against the dict reference
                assert row == tuple(specialize(coeff_det_series(i, n).coeff(n), t1, t2)
                                    for i in range(1, width + 1)), (n, width, t1, t2)


def test_sum_rows_made_once(monkeypatch):
    built, asked = [], []
    sum_row, entry = cyclo._sum_row, cyclo.coeff_sum
    monkeypatch.setattr(cyclo, "_sum_row", lambda n, w: built.append((n, w)) or sum_row(n, w))
    monkeypatch.setattr(cyclo, "coeff_sum",
                        lambda n, i, *spec: asked.append((n, i, *spec)) or entry(n, i, *spec))
    monkeypatch.setattr(cyclo, "_ROWS", {})
    specs = ((1, 1), (None, 1), (1, None), (None, None))    # specialized first: no formal row yet
    for t1, t2 in specs:
        for n in range(1, 7):
            coefficient_row(n, n, "sum", t1, t2)
    # each formal row is made once, by the first specialized request, and every
    # entry asked for is one coeff_sum call, specialized requests included
    assert built == [(n, n) for n in range(1, 7)]
    assert asked == [(n, i, t1, t2) for t1, t2 in specs
                     for n in range(1, 7) for i in range(n, 0, -1)]     # the widest first


def test_macdonald_own_row_kept(monkeypatch):
    made = []
    t2one = cyclo.coeff_t2one
    monkeypatch.setattr(cyclo, "coeff_t2one", lambda n, i: made.append((n, i)) or t2one(n, i))
    monkeypatch.setattr(cyclo, "_ROWS", {})
    at_one = coefficient(6, 6, "macdonald", t1=1, t2=1)
    formal = coefficient(6, 6, "macdonald", t2=1)
    # the t1 = 1 request makes and keeps the t2 = 1 row it specializes
    assert len(made) == 6
    assert at_one == formal.substitute("t1", 1) == spec11(coeff_sum(6, 6))


def test_macdonald_rows_made_once(monkeypatch, tmp_path):
    made = []
    t2one = cyclo.coeff_t2one
    monkeypatch.setattr(cyclo, "coeff_t2one", lambda n, i: made.append((n, i)) or t2one(n, i))
    monkeypatch.setattr(cyclo, "_ROWS", {})
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"name": "sparse", "habiro": [
        [[0, 1]], [[2, 1], [-2, -1]], [], [[4, 3], [0, -1], [-6, 2]], [], [[1, 1]]]}))
    session = (figure_eight(), unknot(), load_knot_file(str(path)))
    for n in range(1, 7):
        for knot in session:
            generalized_jones(knot, n, t2=1, route="macdonald")
    # figure-eight makes each row whole; the other knots read it
    assert made == [(n, i) for n in range(1, 7) for i in range(1, n + 1)]
    made.clear()
    for n in range(1, 7):
        for knot in session:
            want = generalized_jones(knot, n, t2=1, route="macdonald").substitute("t1", 1)
            assert generalized_jones(knot, n, t1=1, t2=1, route="macdonald") == want, (n, knot)
    # the t1 = 1 rows are the cached t2 = 1 rows, specialized
    assert made == []


# -- determinant route ------------------------------------------------------------

def test_det_route_matches_series():
    for i in (1, 2, 3):
        d = coeff_det_series(i, NMAX)
        s = coeff_series(i, NMAX)
        for n in range(NMAX + 1):
            assert d.coeff(n) == s.coeff(n), (i, n)


def test_det_route_cap():
    with pytest.raises(ValueError):
        coeff_det_series(4, 6)


@pytest.mark.parametrize("n, i, kwargs, exc", [
    (5, 4, {"route": "det"}, RouteUnavailable),
    (3, 2, {"route": "macdonald"}, RouteUnavailable),
    (3, 2, {"route": "macdonald", "t2": True}, ValueError),
    (3, 2, {"route": "nope"}, RouteUnavailable),
    (4, 2, {"route": "series", "order": 7}, TypeError),   # --order is the CLI's alone
    (3, 2, {"route": "series", "t1": 2}, ValueError),
    (3, 4, {"route": "series"}, IndexError),
    (3, 0, {"route": "det"}, IndexError),
    # i = None: the call is coefficient_row(n, **kwargs)
    (5, None, {"width": 4, "route": "det"}, RouteUnavailable),
    (3, None, {"width": 4}, IndexError),
    (3, None, {"width": 4, "route": "sum"}, IndexError),
    (3, None, {"width": -1}, IndexError),
    (3, None, {"width": 2, "route": "nope"}, RouteUnavailable),
    (3, None, {"width": 2, "route": "macdonald"}, RouteUnavailable),
    (3, None, {"width": 2, "t1": 2}, ValueError),
])
def test_coefficient_preconditions(n, i, kwargs, exc):
    with pytest.raises(exc):
        if i is None:
            coefficient_row(n, **kwargs)
        else:
            coefficient(n, i, **kwargs)


def test_empty_row_is_checked():
    for n in (0, 3):
        for route in ROUTES:
            assert coefficient_row(n, 0, route, t2=1) == ()
    for kwargs, exc in (({"route": "nope"}, RouteUnavailable), ({"t1": 2}, ValueError),
                        ({"route": "macdonald"}, RouteUnavailable)):
        with pytest.raises(exc):
            coefficient_row(3, 0, **kwargs)
    with pytest.raises(IndexError):
        coefficient_row(-1, 0)


def test_coefficient_routes_agree_at_t2_one():
    for n, i in ((3, 1), (4, 2), (4, 3)):
        want = spec11(coeff_sum(n, i))
        for route in ROUTES:
            assert coefficient(n, i, route, t1=1, t2=1) == want, (n, i, route)


def test_det_t2one_factorized_form():
    # at t2 = 1 the series collapses to
    #   c[i][i-1] prod A_k * lam^i / prod_k (1 - (z_k + z_k^-1) lam + lam^2)
    order = 6
    for i in (1, 2):
        lhs = coeff_det_series(i, order)
        pref = F(cyclotomic_c(i, i))
        for k in range(2, i + 1):
            pref = pref * a_ratio(k).substitute("t2", 1)
        from gjones.exactalg import TruncatedSeries
        prod = TruncatedSeries.one(order)
        for k in range(1, i + 1):
            zk = L.term(1, q=2 * (2 * k - 1), t1=-1) + L.term(1, q=-2 * (2 * k - 1), t1=1)
            prod = prod * TruncatedSeries([L.one(), -zk, L.one()], order).invert()
        rhs = prod.scale(pref.over(())).shift(i)
        for n in range(order + 1):
            got = lhs.coeff(n).substitute("t2", 1)
            assert got == rhs.coeff(n), (i, n)


# -- t2 = 1 closed form ------------------------------------------------------------

def test_t2one_route_matches_sum():
    for n in range(1, NMAX + 1):
        for i in range(1, n + 1):
            assert coeff_t2one(n, i) == coeff_sum(n, i).substitute("t2", 1), (n, i)


def test_t2one_trivial_cases():
    # at t = 1 everything collapses to the classical coefficients
    for n in range(1, NMAX + 1):
        for i in range(1, n + 1):
            assert coeff_t2one(n, i).substitute("t1", 1) == cyclotomic_c(n, i), (n, i)
    # n = i leaves only the ratio product
    got = coeff_t2one(2, 2)
    want = (F(cyclotomic_c(2, 2)) * a_ratio(2).substitute("t2", 1)).over(())
    assert got == want

