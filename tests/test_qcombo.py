import pytest

from gjones.exactalg import LaurentPoly as L, QFraction, qbrace_poly
from gjones.qcombo import (alpha_weight, cyclotomic_c, eigen_product, gauss_qbinom,
                           qbinom, qint, qpochhammer)


def test_qbrace():
    assert qbrace_poly(2) == L.term(1, q=2) + L.term(-1, q=-2)
    assert qbrace_poly(0).is_zero
    assert qbrace_poly(-3) == -qbrace_poly(3)


def test_qint_values():
    assert qint(1, 2) == L.one()
    assert qint(1, 4) == L.one()
    assert qint(2, 2) == L.term(1, q=2) + L.term(1, q=-2)
    # geometric expansion of {6}/{2}
    assert qint(3, 2) == L.term(1, q=4) + L.one() + L.term(1, q=-4)


def test_qint_is_brace_ratio():
    for n in range(7):
        for b in (2, 4):
            assert qint(n, b) * qbrace_poly(b) == qbrace_poly(b * n), (n, b)


def test_qbinom_edges_and_values():
    assert qbinom(3, 0, 2) == L.one()
    assert qbinom(3, 3, 2) == L.one()
    assert qbinom(2, 1, 2) == qint(2, 2)


def test_qbinom_against_factorial_products():
    # multiply through the quotient definition instead of dividing
    for n in range(1, 8):
        for m in range(n + 1):
            for b in (2, 4):
                lhs = qbinom(n, m, b)
                for k in range(1, m + 1):
                    lhs = lhs * qint(m - k + 1, b)
                rhs = L.one()
                for k in range(1, m + 1):
                    rhs = rhs * qint(n - k + 1, b)
                assert lhs == rhs, (n, m, b)


def test_qbinom_pascal_both_shapes():
    # the recurrence builds one shape; its mirror must also hold
    for n in range(1, 21):
        for m in range(1, n):
            for b in (2,):
                mirror = (qbinom(n - 1, m, b) * L.var("q", -b * m)
                          + qbinom(n - 1, m - 1, b) * L.var("q", b * (n - m)))
                assert qbinom(n, m, b) == mirror, (n, m)


def test_qbinom_symmetry():
    for n in range(9):
        for m in range(n + 1):
            assert qbinom(n, m, 2) == qbinom(n, n - m, 2)


def test_gauss_qbinom_nonnegative_powers():
    g = gauss_qbinom(4, 2, 4)
    assert all(mono[0] >= 0 and mono[0] % 4 == 0 for mono, _ in g.terms_sorted())
    # Gaussian in q^(2b) is the balanced base-b form shifted by q^(b m (n-m))
    for n in range(1, 6):
        for m in range(n + 1):
            assert gauss_qbinom(n, m, 4) == qbinom(n, m, 2) * L.var("q", 2 * m * (n - m)), (n, m)


def test_qpochhammer():
    assert qpochhammer(4, 4, 0) == L.one()
    assert qpochhammer(4, 4, 1) == L.one() - L.var("q", 4)
    assert qpochhammer(4, 4, 2) == (L.one() - L.var("q", 4)) * (L.one() - L.var("q", 8))


def test_cyclotomic_values():
    assert cyclotomic_c(1, 1) == L.one()
    for n in range(1, 9):
        assert cyclotomic_c(n, 1) == qint(n, 2)
    assert cyclotomic_c(2, 2) == qbrace_poly(4) * qbrace_poly(6)
    with pytest.raises(IndexError):
        cyclotomic_c(2, 3)
    with pytest.raises(IndexError):
        cyclotomic_c(2, 0)


def test_cyclotomic_integrality_wide():
    # the {2} divisor cancels for every admissible pair
    for n in range(1, 17):
        for i in range(1, n + 1):
            num = L.one()
            for p in range(n - i + 1, n + i):
                num = num * qbrace_poly(2 * p)
            r = QFraction(num, (2,)).reduced()
            assert r.den == (), (n, i)
            assert r.num == cyclotomic_c(n, i)


def test_alpha_weights():
    for i in range(1, 7):
        assert alpha_weight(i, i) == L.one()
    assert alpha_weight(2, 1) == -(L.term(1, q=4) + L.one() + L.term(1, q=-4))
    with pytest.raises(IndexError):
        alpha_weight(2, 3)


def test_eigen_product_small():
    assert eigen_product(1) == L.one()
    p2 = (L.term(1, q=-2, X=1) - L.term(1, q=2, X=-1)) * \
         (L.term(1, q=2, X=1) - L.term(1, q=-2, X=-1))
    assert eigen_product(2) == p2
    assert p2 == (L.var("X", 2) + L.var("X", -2)
                  - L.var("q", 4) - L.var("q", -4))


def test_alpha_expansion_of_eigen_product():
    X, Xi = L.var("X"), L.var("X", -1)
    for i in range(1, 7):
        lhs = (X - Xi) * eigen_product(i)
        rhs = L.zero()
        for k in range(1, i + 1):
            rhs = rhs + alpha_weight(i, k) * (L.var("X", 2 * k - 1) - L.var("X", 1 - 2 * k))
        assert lhs == rhs, i
