import pytest

from gjones.exactalg import LaurentPoly as L, QFraction as F
from gjones.macdonald import (DegenerateRecurrence, genfun_matches, mac_p,
                              renorm_factor, rogers_c, rogers_from_recurrence)
from gjones.macdonald import _b_coeff


def test_seed_polynomials():
    assert mac_p(0, 8, 4) == F.one()
    assert mac_p(1, 8, 4) == F(L.var("x") + L.var("x", -1))


def test_b1_factorized_identity():
    # b_1 = (1 - Q)(1 + beta) / (1 - beta Q) after cancelling (1 - beta)
    for i in (1, 2, 3):
        B, b = 4 * i, 4
        one = L.one()
        q = lambda e: L.var("q", e)
        lhs = _b_coeff(1, B, b)
        rhs_num = (one - q(b)) * (one + q(B))
        rhs_den = one - q(B + b)
        # cross-multiplied comparison keeps everything polynomial
        lhs_num, lhs_den = lhs.num, lhs.den
        from gjones.exactalg import brace_product
        assert lhs_num * rhs_den == rhs_num * brace_product(lhs_den), i


def test_degenerate_denominator_raises():
    with pytest.raises(DegenerateRecurrence):
        _b_coeff(1, -4, 4)


def test_mac_p_requires_even_exponents():
    with pytest.raises(ValueError):
        mac_p(2, 3, 4)


def test_symmetry_under_inversion():
    for n in range(7):
        p = mac_p(n, 8, 4)
        assert p.substitute("x", L.var("x", -1)) == p, n
        c = rogers_c(n, 2)
        assert c.substitute("x", L.var("x", -1)) == c, n


def test_schur_collapse():
    x, xi = L.var("x"), L.var("x", -1)
    for n in range(1, 11):
        val = mac_p(n - 1, 4, 4).over(())
        assert (x - xi) * val == L.var("x", n) - L.var("x", -n), n


def test_rogers_values():
    assert rogers_c(0, 3) == L.one()
    for n in range(5):
        want = L.zero()
        for k in range(n + 1):
            want = want + L.var("x", n - 2 * k)
        assert rogers_c(n, 1) == want, n


def test_rogers_coefficients_in_q4():
    for n in range(5):
        for i in (1, 2, 3):
            for mono, _ in rogers_c(n, i).terms_sorted():
                assert mono[0] % 4 == 0 and mono[0] >= 0, (n, i, mono)


def test_renormalization_identity():
    for i in range(1, 5):
        for n in range(7):
            assert rogers_from_recurrence(n, i) == F(rogers_c(n, i)), (n, i)


def test_renorm_factor_small():
    # (q^8; q^4)_1 / (q^4; q^4)_1 = (1 - q^8)/(1 - q^4) = 1 + q^4
    f = renorm_factor(1, 2).reduced()
    assert f.den == ()
    assert f.num == L.one() + L.var("q", 4)


def test_generating_series():
    assert genfun_matches(1, 6)
    assert genfun_matches(2, 6)
    # order-0 coefficient on both sides is 1 by construction; deeper orders
    # covered above
