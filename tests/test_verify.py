import pytest

from gjones import knots, qcombo
from gjones.exactalg import LaurentPoly
from gjones.verify import CHECKS, SUITES, CheckFailed, run_suite


def test_all_suite_covers_every_check():
    assert set(SUITES["all"]) == set(CHECKS)
    for names in SUITES.values():
        for name in names:
            assert name in CHECKS, name


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nonsense")


def test_run_suite_reports_named_lines():
    lines = []
    run_suite("macdonald", nmax=3, report=lines.append)
    assert lines == ["ok macdonald-recurrence", "ok macdonald-genfun",
                     "ok macdonald-schur"]


def test_checks_accept_small_bounds():
    for name in ("integrality", "routes-det", "quantum-trace", "alpha-identity"):
        CHECKS[name](2)


def test_checkfailed_is_assertion():
    assert issubclass(CheckFailed, AssertionError)


@pytest.fixture
def cyclotomic_cache():
    qcombo.cyclotomic_c.cache_clear()
    yield
    qcombo.cyclotomic_c.cache_clear()


def test_quantum_trace_catches_a_wrong_q_integer(monkeypatch, cyclotomic_cache):
    # the trace and the cyclotomic coefficients both start from [n]; the check
    # compares the trace with the brace-product definition, which does not
    real = qcombo.qint

    def wrong(n, base):
        return real(n, base) + LaurentPoly.one()

    monkeypatch.setattr(qcombo, "qint", wrong)
    monkeypatch.setattr(knots, "qint", wrong)
    with pytest.raises(CheckFailed, match="quantum-trace"):
        CHECKS["quantum-trace"](3)
