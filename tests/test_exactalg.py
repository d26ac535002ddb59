import operator

import pytest
from hypothesis import given, settings, strategies as st

from gjones import exactalg
from gjones.exactalg import (IntegralityViolation, LaurentPoly, NonUnitConstantTerm,
                             PackedBinomial, PackedPoly, QFraction,
                             TruncatedSeries, brace_product, divide_binomial, divide_brace,
                             divide_braces, qbrace_poly, qfrac_sum)

L = LaurentPoly


# -- strategies -------------------------------------------------------------

def polys(vars=("q", "t1", "U"), max_terms=4, exp=3, coeff=6):
    def build(spec):
        p = L.zero()
        for exps, c in spec:
            p = p + L.term(c, **dict(zip(vars, exps)))
        return p
    term = st.tuples(
        st.tuples(*[st.integers(-exp, exp) for _ in vars]),
        st.integers(-coeff, coeff),
    )
    return st.lists(term, max_size=max_terms).map(build)


def signed_monomials(vars=("q", "t1", "U"), exp=3):
    """Substitution images: one term with coefficient +1 or -1."""
    return st.builds(lambda exps, c: L.term(c, **dict(zip(vars, exps))),
                     st.tuples(*[st.integers(-exp, exp) for _ in vars]),
                     st.sampled_from((1, -1)))


def fractions(max_den=3):
    return st.builds(QFraction, polys(vars=("q", "t1")),
                     st.lists(st.integers(1, 6), max_size=max_den))


# -- LaurentPoly ------------------------------------------------------------

def test_product_difference_of_squares():
    q, qi = L.var("q"), L.var("q", -1)
    assert (q + qi) * (q - qi) == L.var("q", 2) - L.var("q", -2)


def test_additive_inverse_is_empty():
    p = L.term(3, q=2, t1=-1) + L.term(-5, U=4)
    assert (p + p * (-1)).is_zero
    assert (p - p).is_zero


def test_brace_square():
    b = qbrace_poly(2)
    assert b * b == L.term(1, q=4) + L.const(-2) + L.term(1, q=-4)


# An exponent that could leave its packed field raises instead of
# carrying into the neighbouring variable.
@pytest.mark.parametrize("make, exc", [
    (lambda: L.var("q", 100000) ** 8, OverflowError),
    (lambda: L.var("t1", 100000) ** 8, OverflowError),
    (lambda: L.var("q", 100000) ** -8, OverflowError),
    (lambda: L({(600000, 0, 0, 0, 0, 0, 0, 0, 0): 1}), ValueError),
    (lambda: L.var("q", 5).substitute("q", L.var("q", 131071)), OverflowError),
    # the quotient by X^5 - X^3 may reach 5 past the dividend's bound
    (lambda: divide_binomial(L.var("q", 131071) ** 4, L.var("X", 5) - L.var("X", 3)),
     OverflowError),
    # a remainder term walks 2 in X for each step of 2 in q
    (lambda: divide_binomial(L.var("q", 100000) ** 2 + L.var("q", 100000) ** -2,
                             L.term(1, q=1, X=1) - L.term(1, q=-1, X=-1)), OverflowError),
], ids=["q-power", "t1-power", "negative-power", "tuple-constructor", "substitute",
        "binomial-quotient", "binomial-remainder"])
def test_exponent_overflow_raises(make, exc):
    with pytest.raises(exc):
        make()


# The public constructors refuse what they would otherwise store wrongly.
def test_short_monomial_is_refused():
    with pytest.raises(ValueError):
        L({(1,): 1})    # the missing variables would pack as exponent -2^19


def test_long_monomial_is_refused():
    with pytest.raises(ValueError):
        L({(1, 0, 0, 0, 0, 0, 0, 0, 0, 5): 1})     # the last exponent would be dropped


@pytest.mark.parametrize("make", [
    lambda: L.term("3", q=1),
    lambda: L.term(1.5, q=1),
    lambda: L.term(True, q=1),
    lambda: L.const("3"),
    lambda: L.const(2.0),
    lambda: L.const(True),
    lambda: L({(1, 0, 0, 0, 0, 0, 0, 0, 0): 1.0}),
    lambda: L({(1, 0, 0, 0, 0, 0, 0, 0, 0): False}),
], ids=["term-str", "term-float", "term-bool", "const-str", "const-float", "const-bool",
        "dict-float", "dict-bool"])
def test_non_int_coefficient_is_refused(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make", [
    lambda: L.term(1, q=True),
    lambda: L.term(1, q=2.0),
    lambda: L.var("t1", "1"),
    lambda: L({(True, 0, 0, 0, 0, 0, 0, 0, 0): 1}),
    lambda: L({(0.5, 0, 0, 0, 0, 0, 0, 0, 0): 1}),
], ids=["term-bool", "term-float", "var-str", "dict-bool", "dict-float"])
def test_non_int_exponent_is_refused(make):
    with pytest.raises(TypeError):
        make()


def test_constructors_still_take_ints():
    assert L({(1, 0, 0, 0, 0, 0, 0, 0, 0): 3, (0,) * 9: 0}) == L.term(3, q=1)
    assert L.const(0).is_zero and L.term(0, q=4).is_zero
    assert L.const(-2) == L.term(-2) == -2


def test_large_exponents_below_the_field_stay_exact():
    p = L.var("q", 100000) ** 4
    assert p.as_single_term() == ((400000,) + (0,) * 8, 1)
    assert (L.var("q", 100000) ** -4).as_single_term() == ((-400000,) + (0,) * 8, 1)
    assert (p * L.var("q", -100000)).as_single_term()[0][0] == 300000
    assert L.var("q", 3).substitute("q", L.var("q", 131071)).as_single_term()[0][0] == 393213


def test_pow_matches_repeated_product():
    p = L.var("q") + L.term(2, t1=1)
    assert p ** 3 == p * p * p
    assert p ** 0 == L.one()
    assert L.term(1, q=2) ** -2 == L.term(1, q=-4)


@pytest.mark.parametrize("n, products", [(-3, 0), (-1, 0), (0, 0), (1, 0), (2, 1), (5, 3)])
def test_pow_makes_no_product_by_one(monkeypatch, n, products):
    # a negative power is one monomial; a positive one starts from the base
    base = L.term(-1, q=2, t1=-1) if n < 0 else L.var("q") + L.term(2, t1=1)
    want = L.one()
    for _ in range(abs(n)):
        want = want * base
    if n < 0:
        want = L.term((-1) ** -n, q=2 * n, t1=-n)
        assert want * base ** -n == L.one()
    calls = []
    mul = L.__mul__
    monkeypatch.setattr(L, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    got = base ** n
    monkeypatch.undo()
    assert len(calls) == products
    assert got == want


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_substitute_fixed_points():
    U = L.var("U")
    assert U.substitute("U", L.term(1, q=2, U=1)) == L.term(1, q=2, U=1)
    sym = U + L.var("U", -1)
    assert sym.substitute("U", L.var("U", -1)) == sym


def test_substitute_sign_squares_away():
    assert L.var("U", 2).substitute("U", L.term(-1, q=2)) == L.term(1, q=4)


def test_substitute_rejects_nonmonomial_image():
    with pytest.raises(ValueError):
        L.var("U").substitute("U", L.var("q") + L.one())
    with pytest.raises(ValueError):
        L.var("U").substitute("U", L.term(2, q=1))
    with pytest.raises(ValueError, match="unknown variable 'z'; allowed: q, t1"):
        L.var("q").substitute("z", 1)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), signed_monomials(), st.sampled_from(("q", "t1", "U")))
def test_substitute_is_ring_homomorphism(a, b, image, name):
    assert (a + b).substitute(name, image) == a.substitute(name, image) + b.substitute(name, image)
    assert (a * b).substitute(name, image) == a.substitute(name, image) * b.substitute(name, image)
    assert L.one().substitute(name, image) == L.one()


@settings(max_examples=60, deadline=None)
@given(polys(vars=("q", "U")))
def test_substitute_round_trip(p):
    fwd = p.substitute("U", L.term(1, q=2, U=1))
    back = fwd.substitute("U", L.term(1, q=-2, U=1))
    assert back == p


def test_canonical_text_rendering():
    assert str(L.zero()) == "0"
    assert str(qbrace_poly(2)) == "-q^-2 + q^2"
    assert str(L.term(1, q=-2) + L.term(1, q=2)) == "q^-2 + q^2"
    assert str(L.term(-3, q=1, t1=-2) + L.const(7)) == "7 - 3*q*t1^-2"
    assert L.term(1, q=2, t2=-1).render("latex") == "q^{2}t_2^{-1}"


def test_fraction_latex_escapes_braces():
    # {3}{5} is a product of q-braces; unescaped, TeX reads two groups, the integer 35
    f = QFraction(L.var("q"), (3, 5))
    assert f.render("latex") == r"(q) / \{3\}\{5\}"
    assert f.render() == "(q) / {3}{5}"


def test_json_terms_order_and_shape():
    p = L.term(2, q=1, U=-1) + L.term(-1, q=-1)
    assert p.json_terms() == [[-1, 0, 0, 0, 0, 0, 0, -1], [1, 0, 0, -1, 0, 0, 0, 2]]


# -- exact division ----------------------------------------------------------

def test_divide_brace_examples():
    from gjones.qcombo import qint
    assert divide_brace(qbrace_poly(4), 2) == qint(2, 2)
    assert divide_brace(qbrace_poly(2), 4) is None
    assert divide_brace(qbrace_poly(2) * qbrace_poly(6), 2) == qbrace_poly(6)


def test_divide_binomial_examples():
    one, X2 = L.one(), L.var("X", 2)
    p = L.var("X", -3) + L.term(2, q=1)
    assert divide_binomial((one - X2) * p, one - X2) == p
    assert divide_binomial(one + X2, one - X2) is None
    # a brace {m} is a binomial too, and divide_brace is that division
    for m in (1, 2, 5):
        r = p * L.var("t1") + L.term(3, q=2 * m)
        for n in (r, r * qbrace_poly(m)):
            assert divide_binomial(n, qbrace_poly(m)) == divide_brace(n, m)
    assert divide_brace(p * qbrace_poly(3), 3) == p
    # T1's divisor: the lead variable is q, and the quotient moves in X too
    d = L.term(1, q=1, X=1) - L.term(1, q=-1, X=-1)
    assert divide_binomial(L.var("X", 1) - L.term(1, q=-2, X=-1), d) == L.var("q", -1)
    assert divide_binomial(L.var("X", 1), d) is None
    assert divide_binomial(L.zero(), d).is_zero


@pytest.mark.parametrize("b", [
    L.zero(), L.one(), L.var("q"), L.var("q") + L.one() + L.var("X"),
    L.term(2, q=1) - L.one(), L.var("q") + L.term(3, X=1),
], ids=["zero", "one", "monomial", "three-terms", "coeff-2-high", "coeff-3-low"])
def test_divide_binomial_refuses_other_divisors(b):
    with pytest.raises(ValueError):
        divide_binomial(L.var("q"), b)


def binomials(vars=("q", "t1", "X"), exp=5):
    """Two distinct +1 / -1 monomials, exponents of either sign or both of one sign."""
    mono = st.tuples(*[st.integers(-exp, exp) for _ in vars])
    return st.builds(
        lambda a, ca, b, cb: L.term(ca, **dict(zip(vars, a))) + L.term(cb, **dict(zip(vars, b))),
        mono, st.sampled_from((1, -1)), mono, st.sampled_from((1, -1)),
    ).filter(lambda b: len(b) == 2)


def _largest_exponent(p):
    return max((abs(e) for mono, _ in p.terms_sorted() for e in mono), default=0)


def _tight(p):
    """``p`` rebuilt from its terms, so that its exponent bound is the exact one."""
    return L(dict(p.terms_sorted()))


@settings(max_examples=150, deadline=None)
@given(polys(vars=("q", "t1", "X")), binomials(), signed_monomials(vars=("q", "t1", "X")))
def test_divide_binomial_inverts_multiplication(p, b, extra):
    n = _tight(p * b)
    quot = divide_binomial(n, b)
    assert quot == p
    assert _largest_exponent(quot) <= quot._e
    # a monomial is never a multiple of b, so one more leaves a remainder
    assert divide_binomial(n + extra, b) is None


def test_divide_binomial_asymmetric_exponents():
    # X^5 - X^3 has both exponents positive: the quotient reaches past p's range
    b = L.var("X", 5) - L.var("X", 3)
    p = L.var("X", -7) + L.term(2, t1=1)
    n = _tight(p * b)
    assert n._e == 5
    quot = divide_binomial(n, b)
    assert quot == p and _largest_exponent(quot) == 7 <= quot._e
    assert divide_binomial(n + L.one(), b) is None


@settings(max_examples=60, deadline=None)
@given(polys(vars=("q", "t1", "t2")), st.integers(1, 5))
def test_divide_brace_inverts_multiplication(p, m):
    assert divide_brace(p * qbrace_poly(m), m) == p


# -- QFraction ---------------------------------------------------------------

def test_reduce_examples():
    from gjones.qcombo import qint
    r = QFraction(qbrace_poly(4), (2,)).reduced()
    assert r.den == () and r.num == qint(2, 2)
    r = QFraction(qbrace_poly(2), (4,)).reduced()
    assert r.den == (4,)
    r = QFraction(qbrace_poly(2) * qbrace_poly(6), (2,)).reduced()
    assert r.den == () and r.num == qbrace_poly(6)


@settings(max_examples=40, deadline=None)
@given(polys(vars=("q", "t1")), st.lists(st.integers(1, 4), max_size=3))
def test_reduce_preserves_value(num, den):
    f = QFraction(num, den)
    r = f.reduced()
    assert f.num * brace_product(r.den) == r.num * brace_product(f.den)
    assert f == r and hash(f) == hash(r)


def test_hash_agrees_with_eq():
    # reduce() leaves ({9}/{3})/{9} as it is, yet it equals 1/{3}
    a = QFraction(qbrace_poly(9), (3, 9))
    b = QFraction(1, (3,))
    assert a == b and a.reduced().den != b.den
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert QFraction(5) == 5 and hash(QFraction(5)) == hash(5)
    assert L.const(5) == 5 and hash(L.const(5)) == hash(5) and len({L.const(5), 5}) == 1
    assert L.zero() == 0 and hash(L.zero()) == hash(0) and len({L.zero(), 0}) == 1
    # a polynomial equals, and hashes as, a fraction of the same value
    assert L.const(-1) == QFraction(-1) and QFraction(-1) == L.const(-1)
    p = L.term(2, q=1, t1=-1) - L.var("t2")
    f = QFraction(brace_product((3, 9), p), (3, 9))
    assert p == f and f == p
    assert hash(p) == hash(f) and len({p, f}) == 1 and len({f, p}) == 1


def test_eq_across_denominators_forms_no_sum(monkeypatch):
    def no_sum(terms):
        raise AssertionError("== formed a sum")

    monkeypatch.setattr(exactalg, "qfrac_sum", no_sum)
    p = L.term(2, q=1, t1=-1) - L.var("t2")
    a = QFraction(brace_product((3, 9), p), (3, 9))
    assert a == QFraction(brace_product((5,), p), (5,)) and a == p and p == a
    assert a != QFraction(brace_product((5,), p), (3,)) and a != p * 2 and p * 2 != a
    # ({9}/{3})/{9} equals 1/{3} over the common multiset {3}{9}
    assert QFraction(qbrace_poly(9), (3, 9)) == QFraction(1, (3,))
    assert QFraction(qbrace_poly(9), (3, 9)) != QFraction(-1, (3,))
    assert QFraction(qbrace_poly(4), (2,)) == L.var("q", 2) + L.var("q", -2)
    assert QFraction(qbrace_poly(4) * 3, (4,)) == 3 and QFraction(qbrace_poly(4), (2, 4)) != 3
    assert QFraction(1, (2,)) != 0 and QFraction(0, (2,)) == 0


@settings(max_examples=60, deadline=None)
@given(fractions(), fractions())
def test_eq_matches_cross_multiplication(a, b):
    want = a.num * brace_product(b.den) == b.num * brace_product(a.den)
    assert (a == b) == want == (b == a)


def test_fraction_arithmetic_common_denominator():
    a = QFraction(L.one(), (2,))
    b = QFraction(L.one(), (3,))
    s = a + b
    assert s.den == (2, 3)
    assert s.num == qbrace_poly(3) + qbrace_poly(2)
    assert (a - a).is_zero
    assert a * b == QFraction(L.one(), (2, 3))


@settings(max_examples=40, deadline=None)
@given(st.lists(fractions(), max_size=4))
def test_qfrac_sum_matches_pairwise(parts):
    # reference: cross-multiply every part by the others' full brace products,
    # so no common denominator is formed and qfrac_sum is not consulted
    ref = L.zero()
    for k, f in enumerate(parts):
        ref = ref + brace_product([m for g in parts[:k] + parts[k + 1:] for m in g.den], f.num)
    s = qfrac_sum(parts)
    assert brace_product([m for f in parts for m in f.den], s.num) == brace_product(s.den, ref)
    assert qfrac_sum([]).is_zero


def test_negative_braces_fold_into_the_sign():
    p = L.term(2, q=1, t1=-1) - L.var("t2")
    a, b = QFraction(p, (-3, 5)), QFraction(-p, (3, 5))
    assert a.num == b.num and a.den == b.den == (3, 5)
    c = QFraction(p, (-3, -5))
    assert c.num == p and c.den == (3, 5)


@pytest.mark.parametrize("num", [1, 0])
def test_zero_brace_denominator_raises(num):
    with pytest.raises(ValueError):
        QFraction(num, (0,))


@settings(max_examples=100, deadline=None)
@given(polys(vars=("q", "t1"), max_terms=3),
       st.lists(st.integers(1, 6), max_size=3), st.lists(st.integers(1, 6), max_size=3))
def test_reduced_leaves_no_dividing_brace(core, factors, extra):
    f = QFraction(brace_product(factors, core), factors + extra)
    r = f.reduced()
    assert r == f
    for m in set(r.den):
        assert divide_brace(r.num, m) is None, (m, r)


def test_over_raises_when_stuck():
    with pytest.raises(IntegralityViolation):
        QFraction(qbrace_poly(2), (4,)).over(())
    with pytest.raises(IntegralityViolation):       # {3} divides t1 {9} {5}, {5} does not
        QFraction(L.var("t1") * qbrace_poly(9), (3, 5)).over((9,))
    with pytest.raises(ValueError):
        QFraction(1, (3,)).over((0,))


def test_integrality_violation_has_one_home():
    import gjones
    from gjones import cyclo
    assert gjones.IntegralityViolation is cyclo.IntegralityViolation is IntegralityViolation
    assert not issubclass(IntegralityViolation, ValueError)


def test_over_examples():
    t1 = L.var("t1")
    # raising: braces den has beyond self.den are multiplied in
    assert QFraction(t1, (3,)).over((3, 5)) == t1 * qbrace_poly(5)
    assert QFraction(t1).over((3, 3)) == t1 * qbrace_poly(3) * qbrace_poly(3)
    # lowering: braces self.den has beyond den are divided out
    assert QFraction(qbrace_poly(3) * t1, (3, 5)).over((5,)) == t1
    assert QFraction(qbrace_poly(4), (2,)).over(()) == L.var("q", 2) + L.var("q", -2)
    # moving between two multisets: 1/{2} = (q^2 + q^-2)/{4}, which needs the
    # raise before the division
    assert QFraction(1, (2,)).over((4,)) == L.var("q", 2) + L.var("q", -2)
    assert QFraction(t1 * qbrace_poly(9), (3, 5)).over((5, 9)) == divide_brace(
        brace_product((9, 9), t1), 3)
    # negative indices, on either side, fold into the sign as in the constructor
    assert QFraction(t1, (3,)).over((-3,)) == -t1
    assert QFraction(t1, (-3,)).over((3,)) == -t1
    assert QFraction(t1, (-3, 5)).over((-5, 3)) == t1
    # a zero value has the zero numerator over every multiset
    assert QFraction.zero().over((3, 5)).is_zero
    assert QFraction(L.zero(), (7,)).over(()).is_zero
    # over its own braces a fraction returns its numerator unchanged
    f = QFraction(t1 + L.one(), (3, 5))
    assert f.over(f.den) == f.num


@settings(max_examples=60, deadline=None)
@given(polys(vars=("q", "t1"), max_terms=3), st.lists(st.integers(1, 6), max_size=3),
       st.lists(st.integers(-6, 6).filter(bool), max_size=3),
       st.lists(st.integers(-6, 6).filter(bool), max_size=3))
def test_over_keeps_the_value(core, factors, den, more):
    # the value core / den, written over factors + den
    f = QFraction(brace_product(factors, core), factors + den)
    assert f.over(den) == core
    target = den + more
    assert QFraction(f.over(target), target) == f


def test_substitute_blocks_q_with_denominator():
    with pytest.raises(ValueError):
        QFraction(L.one(), (2,)).substitute("q", 1)
    f = QFraction(L.var("t1"), (2,)).substitute("t1", 1)
    assert f == QFraction(L.one(), (2,))


# -- TruncatedSeries ----------------------------------------------------------

def test_invert_one_and_geometric():
    one = TruncatedSeries.one(6)
    assert one.invert() == one
    s = TruncatedSeries([1, -1], 6)
    inv = s.invert()
    assert all(inv.coeff(k) == QFraction(1) for k in range(7))


def test_invert_quadratic_long_division():
    # (-1 + c lam - lam^2)^-1 = -1 - c lam + (1 - c^2) lam^2 + ...
    c = qbrace_poly(2)
    s = TruncatedSeries([L.const(-1), c, L.const(-1)], 5)
    inv = s.invert()
    assert inv.coeff(0) == QFraction(-1)
    assert inv.coeff(1) == QFraction(-c)
    assert inv.coeff(2) == QFraction(L.one() - c * c)
    assert (s * inv) == TruncatedSeries.one(5)


def test_invert_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries([0, 1], 4).invert()
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries([2, 1], 4).invert()
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries([L.one() + L.var("q"), 1], 4).invert()


def test_invert_monomial_unit_constant():
    # -q^3 t1 is a unit other than +-1
    s = TruncatedSeries([L.term(-1, q=3, t1=1), qbrace_poly(2), L.var("t2")], 5)
    inv = s.invert()
    assert inv.coeff(0) == L.term(-1, q=-3, t1=-1)
    assert (s * inv) == TruncatedSeries.one(5)


def test_series_refuses_fractions():
    with pytest.raises(TypeError):
        TruncatedSeries([QFraction(1, (3,))], 2)
    with pytest.raises(TypeError):
        TruncatedSeries([1, 2], 2).scale(QFraction(1, (3,)))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(TruncatedSeries.one(2), 1)


def test_min_order_semantics():
    a = TruncatedSeries([1, 2, 3], 4)
    b = TruncatedSeries([1, 1], 2)
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert a.shift(1).coeff(1) == QFraction(1)
    assert a.shift(1).coeff(0).is_zero


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_invert_round_trip(tail):
    s = TruncatedSeries([1] + tail, 5)
    assert (s * s.invert()) == TruncatedSeries.one(5)


# -- q-packed polynomials -------------------------------------------------------

QB, TB = 6, 3       # the q and t exponent ranges drawn for packing
WIDTHS = (64, 128)


def packable(width):
    """Polynomials in q, t1, t2 whose digits fit ``width`` bits, up to the largest."""
    top = (1 << (width - 1)) - 1
    coeffs = st.one_of(st.integers(-5, 5), st.sampled_from((top, -top)))
    term = st.tuples(st.integers(-QB, QB), st.integers(-TB, TB), st.integers(-TB, TB), coeffs)

    def build(spec):
        return L({(e_q, e_1, e_2, 0, 0, 0, 0, 0, 0): c for e_q, e_1, e_2, c in spec})
    return st.lists(term, max_size=8).map(build)


def true_bound(p):
    return max((abs(e) for mono, _ in p.terms_sorted() for e in mono), default=0)


def test_pack_width_follows_the_largest_coefficient():
    # 64 bits while every |coefficient| < 2^63, else the next multiple of 64 that holds it
    for c, width in ((0, 64), ((1 << 63) - 1, 64), (1 << 63, 128), (-(1 << 63), 128),
                     ((1 << 127) - 1, 128), (1 << 127, 192)):
        assert PackedPoly.pack(L.term(c, q=2) + L.var("t1")).width == width, c
        assert PackedPoly.pack(L.term(c, q=2), 128).width == max(width, 128), c


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(WIDTHS))
def test_pack_round_trip(data, width):
    p = data.draw(packable(width))
    packed = PackedPoly.pack(p, width)
    assert packed.width == width
    coeffs = [abs(c) for _, c in p.terms_sorted()]
    assert (packed.bound, packed.norm) == (max(coeffs, default=0), sum(coeffs))
    back = packed.unpack()
    assert back == p
    assert back._e == true_bound(p)


# each multiplier moves exponents by at most 1
MULTIPLIERS = [L.var("q") + L.var("q", -1), L.var("q") - L.var("q", -1),
               -L.var("q") - L.var("q", -1),
               L.var("t1") - L.var("t1", -1), L.term(1, q=1, t1=-1) + L.term(1, q=-1, t1=1),
               -L.var("t2") - L.term(1, q=-1), L.term(-1, q=1, t2=1) + L.term(1, q=1)]


@settings(max_examples=60, deadline=None)
@given(polys(vars=("q", "t1", "t2"), max_terms=6, exp=2, coeff=50),
       polys(vars=("q", "t1", "t2"), max_terms=6, exp=2, coeff=50),
       st.sampled_from(MULTIPLIERS), st.sampled_from(WIDTHS))
def test_packed_ops_match_laurent_ops(a, b, m, width):
    pa, pb = PackedPoly.pack(a, width), PackedPoly.pack(b, width)
    assert (pa + pb).unpack() == a + b
    assert (pa - pb).unpack() == a - b
    assert (-pa).unpack() == -a
    assert (pa * pb).unpack() == a * b
    assert (PackedBinomial(m) * pa).unpack() == m * a
    assert (pa - pa).is_zero and (pa + PackedPoly.pack(L.zero(), width)).unpack() == a
    assert (PackedBinomial(m) * PackedPoly.pack(L.one(), width)).unpack() == m
    for value, want in ((pa + pb, a + b), (pa * pb, a * b), (PackedBinomial(m) * pa, m * a)):
        coeffs = [abs(c) for _, c in want.terms_sorted()]
        assert value.bound >= max(coeffs, default=0) and value.norm >= sum(coeffs)


@pytest.mark.parametrize("width", WIDTHS)
def test_unpack_outside_the_layout_raises(width):
    far = L.var("q", 131071)
    up = PackedBinomial(far + L.var("q", 131070))
    value = PackedPoly.pack(far, width)
    for _ in range(3):      # q^524284, still inside the 20-bit exponent field
        value = up * value
    value.unpack()
    with pytest.raises(OverflowError):         # q^655355 leaves it
        (up * value).unpack()
    down = PackedBinomial(L.var("q", -131071) + L.var("q", -131070))
    value = PackedPoly.pack(L.one(), width)
    for _ in range(4):      # q^-524284
        value = down * value
    value.unpack()
    with pytest.raises(OverflowError):
        (down * value).unpack()
    with pytest.raises(ValueError):            # only q, t1, t2
        PackedPoly.pack(L.var("U"), width)
    with pytest.raises(ValueError):            # a multiplier has two +1 / -1 terms
        PackedBinomial(L.var("q") + L.term(2, q=-1))


@pytest.mark.parametrize("width", WIDTHS)
def test_carries_widen_the_digits(width):
    # a result that could carry out of a digit is formed at a wider width
    a = L.term((1 << (width - 1)) - 1, q=QB) + L.var("t1", -2)
    edge, m = PackedPoly.pack(a, width), L.var("q") + L.var("q", -1)
    for value, want in ((edge + edge, a + a), (edge - (-edge), a + a),
                        (PackedBinomial(m) * edge, m * a), (edge * edge, a * a)):
        assert value.width > width and value.unpack() == want, want
    # operands of two widths meet at the wider one
    mixed = PackedPoly.pack(L.one(), 64) + PackedPoly.pack(L.var("q", 3), 192)
    assert mixed.width == 192 and mixed.unpack() == L.one() + L.var("q", 3)


@pytest.mark.parametrize("width", WIDTHS)
def test_loose_bounds_are_re_read_before_widening(width):
    # (P + Q) - Q tracks a bound near 2^(W-1) but holds only P's coefficients
    q = PackedPoly.pack(L.term((1 << (width - 2)) - (1 << (width - 32)), q=2, t2=1), width)
    p = L.term(3, q=-1) - L.var("t1") + L.const(2)
    loose = (PackedPoly.pack(p, width) + q) - q
    assert loose.width == width and loose.bound >= 1 << (width - 2)
    m = L.var("q") + L.var("q", -1)
    # tracking alone would widen each result; read from the digits, none needs it
    for value, want in ((loose + loose, p + p), (loose - (-loose), p + p),
                        (PackedBinomial(m) * loose, m * p), (loose * loose, p * p)):
        assert value.width == width and value.unpack() == want, want
    # a genuine overflow still widens: 2^(W-2) + 2^(W-2) needs a digit of 2^(W-1)
    edge = L.term(1 << (width - 2), q=1) + p
    loose = (PackedPoly.pack(edge, width) + q) - q
    assert loose.width == width
    for value, want in ((loose + loose, edge + edge),
                        (loose * PackedPoly.pack(L.const(2), width), edge * 2)):
        assert value.width > width and value.unpack() == want, want
    # and one digit short of it does not
    below = L.term((1 << (width - 2)) - 1, q=1) + p
    loose = (PackedPoly.pack(below, width) + q) - q
    assert (loose + loose).width == width and (loose + loose).unpack() == below + below


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from((64, 128, 192)))
def test_reread_is_exact_at_every_width(data, width):
    # (P + Q) - Q holds P's coefficients but tracks at least 2 max|Q|; Q sits on a
    # slice of its own, so the sum stays at W digits unless P's largest ones widen it
    p = data.draw(packable(width))
    q = PackedPoly.pack(L.term((1 << (width - 2)) - 1, q=1, t1=TB + 1), width)
    loose = (PackedPoly.pack(p, width) + q) - q
    assert loose.width >= width and loose.bound >= (1 << (width - 1)) - 2
    coeffs = [abs(c) for _, c in p.terms_sorted()]
    reread = loose._reread()
    assert reread.bound == max(coeffs, default=0) and reread.norm >= sum(coeffs)
    assert reread.unpack() == p


SPECIALIZATIONS = ((True, False), (False, True), (True, True))


def substituted(p, t1_one, t2_one):
    if t1_one:
        p = p.substitute("t1", 1)
    return p.substitute("t2", 1) if t2_one else p


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(WIDTHS), st.sampled_from(SPECIALIZATIONS))
def test_packed_specialize_matches_substitute(data, width, spec):
    # slices merge with the largest digits too, where the sum needs a re-read or more bits
    p = data.draw(packable(width))
    value = PackedPoly.pack(p, width).specialize(*spec)
    want = substituted(p, *spec)
    assert value.unpack() == want
    coeffs = [abs(c) for _, c in want.terms_sorted()]
    assert value.bound >= max(coeffs, default=0) and value.norm >= sum(coeffs)
    assert PackedPoly.pack(p, width).specialize(False, False).unpack() == p


def test_packed_specialize_merges_large_slices_exactly(monkeypatch):
    big = 1 << 62
    # two digits of 2^62 add to 2^63, past a 64-bit digit: the merge widens
    p = L.term(big, q=1, t1=1) + L.term(big, q=1, t1=-1) + L.term(-3, q=-2, t2=1)
    for spec in SPECIALIZATIONS:
        value = PackedPoly.pack(p).specialize(*spec)
        assert value.unpack() == substituted(p, *spec), spec
        assert value.width == (128 if spec[0] else 64), spec
    # the merged digits cancel: a tracked bound of 2^63 is still read as the digits' 2^62
    q = L.term(big, q=1, t1=1) - L.term(big, q=1, t1=-1) + L.var("q", 3)
    assert PackedPoly.pack(q).specialize(True, False).unpack() == L.var("q", 3)
    # (P + Q) - Q tracks a bound near 2^62 with small digits: the merge re-reads them
    loose = PackedPoly.pack(L.term((1 << 62) - 5, q=2, t2=1))
    small = L.term(3, q=1, t1=1) + L.term(-2, q=1, t1=-1) + L.term(7, q=0, t1=2)
    value = ((PackedPoly.pack(small) + loose) - loose).specialize(True, True)
    assert value.width == 64 and value.bound < 1 << 5
    assert value.unpack() == substituted(small, True, True)
    # the norm caps the merged bound: one large digit among small ones needs no re-read
    calls = []
    reread = PackedPoly._reread
    monkeypatch.setattr(PackedPoly, "_reread", lambda self: calls.append(self) or reread(self))
    value = PackedPoly.pack(L.term(big, q=0, t1=1) + L.term(1, q=1, t1=-1)).specialize(True, False)
    assert (value.width, value.bound, calls) == (64, big + 1, [])
    assert value.unpack() == L.const(big) + L.var("q")


def brace_multisets(min_size=0):
    return st.lists(st.integers(1, 4), min_size=min_size, max_size=3)


@settings(max_examples=80, deadline=None)
@given(polys(vars=("q", "t1", "t2"), max_terms=6, exp=3, coeff=1000), brace_multisets(),
       st.sampled_from(WIDTHS))
def test_divide_braces_inverts_multiplication(p, ms, width):
    quot = divide_braces(PackedPoly.pack(brace_product(ms, p), width), ms)
    back = quot.unpack()
    assert back == p
    assert back._e == true_bound(p)
    assert quot.bound >= max((abs(c) for _, c in p.terms_sorted()), default=0)


@settings(max_examples=80, deadline=None)
@given(polys(vars=("q", "t1", "t2"), max_terms=6, exp=3, coeff=1000), brace_multisets(1),
       st.tuples(st.integers(-8, 8), st.integers(-3, 3), st.integers(-3, 3)),
       st.integers(-5, 5).filter(bool))
def test_divide_braces_refuses_a_perturbed_product(p, ms, mono, c):
    # a monomial is divisible by no brace, so one changed coefficient leaves a remainder
    e_q, e_1, e_2 = mono
    n = brace_product(ms, p) + L.term(c, q=e_q, t1=e_1, t2=e_2)
    assert divide_braces(PackedPoly.pack(n), ms) is None


@settings(max_examples=40, deadline=None)
@given(polys(vars=("q", "t1", "t2"), max_terms=4, exp=3, coeff=5), st.integers(1, 4),
       st.sampled_from((1, -1)))
def test_divide_braces_widens_an_uncertified_quotient(p, m, sign):
    # coefficients near 2^62 pack 64 bits wide, but bound + 2 max|Q| reaches 2^63
    big = p + L.term(sign * ((1 << 62) - 3), q=9)
    n = PackedPoly.pack(brace_product([m], big))
    assert n.width == 64
    quot = divide_braces(n, [m])
    assert quot.width > 64
    assert quot.unpack() == big
    assert quot.unpack()._e == true_bound(big)


def test_divide_braces_quotient_outgrows_the_dividend():
    # {1} Q has coefficients of 2^60 while Q climbs to 2^64: read at 64 bits its
    # digits wrap, the certificate refuses them, and the wider reading is exact
    quot = sum((L.term(min(j, 32 - j) << 60, q=2 * j) for j in range(33)), L.zero())
    n = PackedPoly.pack(brace_product([1], quot))
    assert n.width == 64 and n.bound == 1 << 60
    got = divide_braces(n, [1])
    assert got.width > 64 and got.unpack() == quot
