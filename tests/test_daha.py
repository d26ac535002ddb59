import pytest

from gjones import daha
from gjones.cyclo import a_ratio, a_table
from gjones.daha import (NonPolynomialResult, NotSkewSymmetric, UPoly, XFrac,
                         act_basic, base_vector, dunkl_pair, dunkl_pair_eval,
                         dunkl_y, hecke_defect, polyrep_act, transition_row)
from gjones.exactalg import IntegralityViolation, LaurentPoly as L, QFraction as F
from gjones.qcombo import row_braces


def fr(*parts):
    out = L.zero()
    for p in parts:
        out = out + p
    return F(out)


def test_basic_actions():
    for k in range(-3, 4):
        f = UPoly.monomial(k)
        assert act_basic(f, "X") == UPoly.monomial(k, L.term(-1, q=2 * k))
    assert act_basic(UPoly.monomial(1), "Y") == UPoly.monomial(0)
    e = base_vector()
    assert act_basic(e, "s") == e
    with pytest.raises(ValueError):
        act_basic(e, "Z")


def test_x_action_is_substitution_with_sign():
    # f . X = -f(q^2 U) term by term
    f = UPoly({2: F(L.var("t1")), -1: F.one()})
    g = act_basic(f, "X")
    assert g.coeff(2) == F(L.term(-1, q=4, t1=1))
    assert g.coeff(-1) == F(L.term(-1, q=-2))


def test_dunkl_collapses_at_t_one():
    for k in range(-4, 5):
        out = dunkl_y(UPoly.monomial(k))
        spec = UPoly({kk: c.substitute("t1", 1).substitute("t2", 1)
                      for kk, c in {p: out.coeff(p) for p in out.support()}.items()})
        assert spec == UPoly.monomial(k - 1), k


def test_dunkl_monomial_shape():
    # U^k . Y' = (t1 - a_k) U^(k-1) - a_k U^(-k)
    k = 3
    out = dunkl_y(UPoly.monomial(k))
    a_k = daha.a_scalar(k)
    assert out.coeff(k - 1) == F(L.var("t1")) - a_k
    assert out.coeff(-k) == -a_k


def test_dunkl_two_sided_inverse():
    coeffs = {3: F(L.var("t1")), 0: F.one(), -2: F(L.term(2, q=1))}
    f = UPoly(coeffs)
    assert dunkl_y(dunkl_y(f), inverse=True) == f
    assert dunkl_y(dunkl_y(f, inverse=True)) == f
    for k in range(-8, 9):
        m = UPoly.monomial(k)
        assert dunkl_y(dunkl_y(m), inverse=True) == m


def test_inverse_against_summation_form():
    # [f . Y'^-1] at U = -q^2N equals
    # -t1^-1 q^2N f(-q^2N) + tbar1 sum q^2p f(...) - tbar2 sum q^(2p+1) f(...)
    tb1 = L.var("t1") - L.var("t1", -1)
    tb2 = L.var("t2") - L.var("t2", -1)
    for k in range(-4, 5):
        f = UPoly.monomial(k)
        g = dunkl_y(f, inverse=True)
        for N in range(1, 4):
            direct = g.eval_at(N)
            closed = f.eval_at(N) * L.term(-1, t1=-1, q=2 * N)
            for p in range(N):
                closed = closed + f.eval_at(2 * p - N) * (tb1 * L.var("q", 2 * p))
                closed = closed - f.eval_at(2 * p - N + 1) * (tb2 * L.var("q", 2 * p + 1))
            assert direct == closed, (k, N)


def test_transition_row_small():
    assert transition_row(1) == {1: F.one()}
    row2 = transition_row(2)
    assert row2[2] == a_ratio(2)
    assert row2[1] == a_ratio(1) - a_ratio(2)


def test_transition_rows_sit_over_d_n():
    # the operator rows hold the table's denominator, so the two compare
    # numerator to numerator
    for n in range(1, 9):
        row, want = transition_row(n), a_table(n)
        assert row.keys() == want.keys(), n
        for p, f in row.items():
            assert f.den == want[p].den == row_braces(n), (n, p)
            assert f.num == want[p].num, (n, p)


@pytest.fixture
def s_vectors():
    real = daha._s_vector
    real.cache_clear()
    yield real
    real.cache_clear()


def test_broken_vector_fails_the_next_step(s_vectors, monkeypatch):
    # one term added to the U^2 entry of the j = 3 vector leaves a brace of
    # the next Dunkl step uncancelled over D_5 (the U^1 entry would not show:
    # its braces cancel)
    v = s_vectors(3)
    c = v.coeff(2)
    broken = UPoly({**v._c, 2: F(c.num + L.var("q"), c.den)})
    monkeypatch.setattr(daha, "_s_vector", lambda j: broken if j == 3 else s_vectors(j))
    with pytest.raises(IntegralityViolation):
        s_vectors(4)


def test_skew_extraction_and_guard():
    good = UPoly({2: F.one(), -2: -F.one(), 1: F(L.var("t1")), -1: -F(L.var("t1"))})
    assert daha.skew_coefficients(good) == {2: F.one(), 1: F(L.var("t1"))}
    with pytest.raises(NotSkewSymmetric):
        daha.skew_coefficients(UPoly({2: F.one(), -2: F.one()}))
    with pytest.raises(NotSkewSymmetric):
        daha.skew_coefficients(UPoly({0: F.one()}))
    with pytest.raises(NotSkewSymmetric):
        daha.skew_coefficients(good, pmax=1)


def test_transition_matches_chebyshev_expansion():
    # S_2(u) = u^2 - 1, so the chain must equal e.(Y'+Y'^-1)^2 - e
    e = base_vector()
    pair1 = dunkl_pair(e)
    pair2 = dunkl_pair(pair1)
    direct = pair2 - e               # e.(Y'+Y'^-1)^2 - e
    assert direct == (dunkl_pair(dunkl_pair(e)) - e)
    chain = daha._s_vector(2)
    assert chain == direct


def test_eval_formula_matches_operator_action():
    for k in range(-5, 6):
        f = UPoly.monomial(k)
        pair = dunkl_pair(f)
        for N in range(1, 5):
            assert pair.eval_at(N) == dunkl_pair_eval(f, N), (k, N)


def test_eval_formula_t_one_collapse():
    # at t1 = t2 = 1 only the leading term survives
    f = UPoly({2: F.one(), -1: F(L.const(3))})
    for N in range(1, 4):
        closed = dunkl_pair_eval(f, N)
        spec = closed.substitute("t1", 1).substitute("t2", 1)
        lead = f.eval_at(N) * (L.term(-1, q=2 * N) + L.term(-1, q=-2 * N))
        lead = lead.substitute("t1", 1).substitute("t2", 1)
        assert spec == lead, N


def test_t1_action_examples():
    assert polyrep_act(L.one(), "T1") == L.var("t1")
    # single application keeps polynomials polynomial for every n
    for n in range(-8, 9):
        polyrep_act(L.var("X", n), "T1")


def _geometric(n):
    """(1 - (qX)^2n) / (1 - (qX)^2) read as a sum: forward for n >= 0, the
    complementary negated range for n < 0."""
    out = L.zero()
    for k in (range(n) if n >= 0 else range(n, 0)):
        out = out + L.term(1 if n >= 0 else -1, q=2 * k, X=2 * k)
    return out


def test_t1_matches_the_monomial_formula():
    # T1 . X^n = t1 q^-2n X^-n + q^-2n X^-n (q^2 tbar1 X^2 + q tbar2 X) g_n,
    # with g_n the geometric sum above, applied to X^n (q^3 + 2 t2 X^2)
    tbar1 = L.var("t1") - L.var("t1", -1)
    tbar2 = L.var("t2") - L.var("t2", -1)
    bracket = L.term(1, q=2, X=2) * tbar1 + L.term(1, q=1, X=1) * tbar2

    def monomial(n):
        return L.term(1, q=-2 * n, X=-n) * (L.var("t1") + bracket * _geometric(n))

    for n in range(-10, 11):
        f = L.term(1, q=3, X=n) + L.term(2, t2=1, X=n + 2)
        want = L.var("q", 3) * monomial(n) + L.term(2, t2=1) * monomial(n + 2)
        assert daha.t1_act(f).num == want, n


def test_t3_specialized_action():
    for n in range(-8, 9):
        assert polyrep_act(L.var("X", n), "T3") == L.term(-1, X=-n), n


def test_t3_generic_single_application_not_polynomial():
    with pytest.raises(NonPolynomialResult):
        polyrep_act(L.var("X", 1), "T3", generic_t34=True)


def test_hecke_relations():
    for n in range(-8, 9):
        assert hecke_defect("T1", n).is_zero, ("T1", n)
        assert hecke_defect("T3", n).is_zero, ("T3", n)
    for act in (hecke_defect, lambda gen, n: polyrep_act(L.var("X", n), gen)):
        with pytest.raises(ValueError):
            act("T2", 1)


def test_xfrac_reduction():
    onemx2 = L.one() - L.var("X", 2)
    f = XFrac(onemx2 * L.var("X", -1), 1).reduced()
    assert f.j == 0 and f.num == L.var("X", -1)
    g = XFrac(L.one(), 1)
    with pytest.raises(NonPolynomialResult):
        g.as_poly()
