"""Named cross-validation checks.

Every check compares two independently computed sides of an identity and
raises CheckFailed on the first mismatch.  The CLI ``verify`` command and
the acceptance test-suite both run these; bounds default to the strongest
configuration and can be dialed down with ``nmax`` for quick runs.
"""

from __future__ import annotations

from typing import Callable

from . import daha
from .cyclo import a_table, coeff_det_series, coeff_series, coeff_sum, coeff_t2one, coefficient_row
from .exactalg import LaurentPoly, brace_product, divide_brace
from .knots import (classical_jones, figure_eight, generalized_jones, sigma_trace,
                    universal_eval, unknot)
from .macdonald import genfun_matches, mac_p, rogers_c, rogers_from_recurrence
from .qcombo import alpha_weight, cyclotomic_c, eigen_product


class CheckFailed(AssertionError):
    """A named verification check found a mismatch."""


def _ensure(cond: bool, name: str, detail: str) -> None:
    if not cond:
        raise CheckFailed(f"{name}: {detail}")


def _cap(default: int, nmax: int | None) -> int:
    return default if nmax is None else min(default, nmax)


def check_integrality(nmax: int | None = None) -> None:
    """Every generalized coefficient reduces to an integer Laurent polynomial."""
    top = _cap(10, nmax)
    for n in range(1, top + 1):
        coefficient_row(n, n, "sum")    # raises IntegralityViolation on failure


def check_classical_specialization(nmax: int | None = None) -> None:
    """chat(q, 1, 1) equals the classical coefficient, exactly."""
    top = _cap(10, nmax)
    for n in range(1, top + 1):
        for i, got in enumerate(coefficient_row(n, n, "sum", t1=1, t2=1), 1):
            _ensure(got == cyclotomic_c(n, i), "classical-specialization",
                    f"mismatch at n={n}, i={i}")


def check_routes_series(nmax: int | None = None) -> None:
    """Recurrence-sum route equals the lam-series route, for every i <= n."""
    top = _cap(8, nmax)
    for n in range(1, top + 1):
        for i, (s, want) in enumerate(zip(coefficient_row(n, n), coefficient_row(n, n, "sum")), 1):
            _ensure(s == want, "routes-series", f"mismatch at n={n}, i={i}")


def check_routes_det(nmax: int | None = None) -> None:
    """lam-series route equals the bordered-determinant route (i <= 3)."""
    top = _cap(8, nmax)
    for i in range(1, min(3, top) + 1):
        det = coeff_det_series(i, top)
        ser = coeff_series(i, top)
        for n in range(top + 1):
            _ensure(det.coeff(n) == ser.coeff(n), "routes-det",
                    f"mismatch at i={i}, lam^{n}")


def check_routes_macdonald(nmax: int | None = None) -> None:
    """Recurrence-sum route at t2 = 1 equals the Rogers closed form."""
    top = _cap(8, nmax)
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            _ensure(coeff_t2one(n, i) == coeff_sum(n, i).substitute("t2", 1),
                    "routes-macdonald", f"mismatch at n={n}, i={i}")


def check_operator_oracle(nmax: int | None = None) -> None:
    """Recurrence table rows equal the Dunkl-operator expansion rows."""
    top = _cap(10, nmax)
    for n in range(1, top + 1):
        row, want = daha.transition_row(n), a_table(n)
        for p in range(1, n + 1):
            _ensure(row.get(p, 0) == want.get(p, 0),
                    "operator-oracle", f"mismatch at n={n}, p={p}")


def check_unknot_closed_form(nmax: int | None = None) -> None:
    """Unknot at t2 = 1 equals the geometric closed form."""
    top = _cap(10, nmax)
    for n in range(1, top + 1):
        want = LaurentPoly.zero()
        for j in range(n):
            e = n - 1 - 2 * j
            want = want + LaurentPoly.term(1, q=2 * e, t1=-e)
        _ensure(generalized_jones(unknot(), n, t2=1) == want,
                "unknot-closed-form", f"mismatch at n={n}")


def check_figure_eight_classical(nmax: int | None = None) -> None:
    """Figure-eight at t1 = t2 = 1 collapses to the plain coefficient sum."""
    top = _cap(8, nmax)
    for n in range(1, top + 1):
        want = LaurentPoly.zero()
        for i in range(1, n + 1):
            want = want + cyclotomic_c(n, i)
        _ensure(generalized_jones(figure_eight(), n, t1=1, t2=1) == want,
                "figure-eight-classical", f"mismatch at n={n}")


def check_dunkl_eval(nmax: int | None = None) -> None:
    """Closed evaluation formula equals the direct operator action."""
    kmax = _cap(6, nmax)
    for k in range(-kmax, kmax + 1):
        f = daha.UPoly.monomial(k)
        pair = daha.dunkl_pair(f)
        for N in range(1, _cap(5, nmax) + 1):
            _ensure(pair.eval_at(N) == daha.dunkl_pair_eval(f, N),
                    "dunkl-eval", f"mismatch at k={k}, N={N}")


def check_hecke_t1(nmax: int | None = None) -> None:
    """(T1 - t1)(T1 + t1^-1) annihilates X^n."""
    top = _cap(8, nmax)
    for n in range(-top, top + 1):
        _ensure(daha.hecke_defect("T1", n).is_zero, "hecke-t1", f"nonzero at n={n}")


def check_hecke_t3(nmax: int | None = None) -> None:
    """(T3 - t3)(T3 + t3^-1) annihilates X^n, with generic t3, t4."""
    top = _cap(8, nmax)
    for n in range(-top, top + 1):
        _ensure(daha.hecke_defect("T3", n).is_zero, "hecke-t3", f"nonzero at n={n}")


def check_dunkl_inverse(nmax: int | None = None) -> None:
    """The deformed shift and its inverse compose to the identity both ways."""
    top = _cap(8, nmax)
    for k in range(-top, top + 1):
        f = daha.UPoly.monomial(k)
        _ensure(daha.dunkl_y(daha.dunkl_y(f), inverse=True) == f,
                "dunkl-inverse", f"right inverse fails at k={k}")
        _ensure(daha.dunkl_y(daha.dunkl_y(f, inverse=True)) == f,
                "dunkl-inverse", f"left inverse fails at k={k}")


def check_macdonald_recurrence(nmax: int | None = None) -> None:
    """Three-term recurrence route equals the explicit binomial expansion."""
    top = _cap(8, nmax)
    for i in range(1, min(4, top) + 1):
        for n in range(top + 1):
            _ensure(rogers_from_recurrence(n, i) == rogers_c(n, i),
                    "macdonald-recurrence", f"mismatch at n={n}, i={i}")


def check_macdonald_genfun(nmax: int | None = None) -> None:
    """Explicit expansion matches the inverted-product generating series."""
    order = _cap(8, nmax)
    for i in (1, 2, 3):
        _ensure(genfun_matches(i, order), "macdonald-genfun", f"mismatch at i={i}")


def check_macdonald_schur(nmax: int | None = None) -> None:
    """(x - x^-1) p_{n-1}(x; q^4 | q^4) telescopes to x^n - x^-n."""
    top = _cap(10, nmax)
    x, xi = LaurentPoly.var("x"), LaurentPoly.var("x", -1)
    for n in range(1, top + 1):
        val = mac_p(n - 1, 4, 4).over(())
        _ensure((x - xi) * val == LaurentPoly.var("x", n) - LaurentPoly.var("x", -n),
                "macdonald-schur", f"mismatch at n={n}")


def check_quantum_trace(nmax: int | None = None) -> None:
    """Casimir-scalar trace equals the definition of the classical coefficient,
    prod_{p=n-k}^{n+k} {2p} / {2}, and vanishes beyond."""
    top = _cap(10, nmax)
    for n in range(1, top + 1):
        for k in range(n):
            want = divide_brace(brace_product(range(2 * (n - k), 2 * (n + k) + 1, 2)), 2)
            _ensure(sigma_trace(k, n) == want, "quantum-trace", f"mismatch at k={k}, n={n}")
        for k in range(n, n + 2):
            _ensure(sigma_trace(k, n).is_zero, "quantum-trace",
                    f"nonzero at k={k} >= n={n}")


def check_alpha_identity(nmax: int | None = None) -> None:
    """(X - X^-1) eigen_product(i) expands over the alpha weights."""
    top = _cap(6, nmax)
    X, Xi = LaurentPoly.var("X"), LaurentPoly.var("X", -1)
    for i in range(1, top + 1):
        lhs = (X - Xi) * eigen_product(i)
        rhs = LaurentPoly.zero()
        for k in range(1, i + 1):
            rhs = rhs + alpha_weight(i, k) * (
                LaurentPoly.var("X", 2 * k - 1) - LaurentPoly.var("X", 1 - 2 * k))
        _ensure(lhs == rhs, "alpha-identity", f"mismatch at i={i}")


def check_universal_invariant(nmax: int | None = None) -> None:
    """Class-evaluation route equals the coefficient route on built-in knots."""
    top = _cap(8, nmax)
    for knot in (unknot(), figure_eight()):
        for n in range(1, top + 1):
            _ensure(universal_eval(knot, n) == generalized_jones(knot, n),
                    "universal-invariant", f"mismatch for {knot.name} at n={n}")
        _ensure(universal_eval(knot, min(top, 5), t1=1, t2=1)
                == classical_jones(knot, min(top, 5)),
                "universal-invariant", f"classical collapse fails for {knot.name}")


CHECKS: dict[str, Callable[[int | None], None]] = {
    "integrality": check_integrality,
    "classical-specialization": check_classical_specialization,
    "routes-series": check_routes_series,
    "routes-det": check_routes_det,
    "routes-macdonald": check_routes_macdonald,
    "operator-oracle": check_operator_oracle,
    "unknot-closed-form": check_unknot_closed_form,
    "figure-eight-classical": check_figure_eight_classical,
    "dunkl-eval": check_dunkl_eval,
    "dunkl-inverse": check_dunkl_inverse,
    "hecke-t1": check_hecke_t1,
    "hecke-t3": check_hecke_t3,
    "macdonald-recurrence": check_macdonald_recurrence,
    "macdonald-genfun": check_macdonald_genfun,
    "macdonald-schur": check_macdonald_schur,
    "quantum-trace": check_quantum_trace,
    "alpha-identity": check_alpha_identity,
    "universal-invariant": check_universal_invariant,
}

SUITES: dict[str, tuple[str, ...]] = {
    "all": tuple(CHECKS),
    "routes": ("routes-series", "routes-det", "routes-macdonald",
               "classical-specialization"),
    "integrality": ("integrality", "classical-specialization"),
    "daha": ("operator-oracle", "dunkl-eval", "dunkl-inverse",
             "hecke-t1", "hecke-t3"),
    "macdonald": ("macdonald-recurrence", "macdonald-genfun", "macdonald-schur"),
    "knots": ("unknot-closed-form", "figure-eight-classical", "quantum-trace",
              "universal-invariant"),
}


def run_suite(suite: str, nmax: int | None = None,
              report: Callable[[str], None] | None = None) -> None:
    """Run every check in a suite, fail-fast; raises CheckFailed, KeyError for
    an unknown suite, or ValueError for a bound below 1 (nothing is checked)."""
    try:
        names = SUITES[suite]
    except KeyError:
        raise KeyError(f"unknown suite {suite!r}; available: {', '.join(SUITES)}") from None
    if nmax is not None and nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    for name in names:
        CHECKS[name](nmax)
        if report is not None:
            report(f"ok {name}")
