"""Acceptance suite.

Each test pins one end-to-end criterion at its full strength; every
comparison is exact (integer Laurent polynomial or brace-fraction
equality, no tolerances).  One pass/fail line is printed per criterion.
"""

from gjones import verify


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_c01_integrality():
    verify.check_integrality(nmax=10)
    _report("criterion-01 integrality",
            "generalized coefficients reduce to integer Laurent polynomials, n <= 10")


def test_c02_classical_specialization():
    verify.check_classical_specialization(nmax=10)
    _report("criterion-02 classical-specialization",
            "chat(q,1,1) equals the classical coefficients, n <= 10")


def test_c03_route_equivalence():
    verify.check_routes_series(nmax=8)
    verify.check_routes_det(nmax=8)
    verify.check_routes_macdonald(nmax=8)
    _report("criterion-03 route-equivalence",
            "sum = series (n<=8, i<=n), = det (i<=3, order 8), = closed form at t2=1 (n<=8)")


def test_c04_operator_oracle():
    verify.check_operator_oracle(nmax=10)
    _report("criterion-04 operator-oracle",
            "recurrence table equals the Dunkl-operator expansion, n <= 10")


def test_c05_unknot_closed_form():
    verify.check_unknot_closed_form(nmax=10)
    _report("criterion-05 unknot-closed-form",
            "unknot at t2=1 equals the geometric closed form, n <= 10")


def test_c06_figure_eight_collapse():
    verify.check_figure_eight_classical(nmax=8)
    _report("criterion-06 figure-eight-collapse",
            "figure-eight at t=1 equals the plain coefficient sum, n <= 8")


def test_c07_dunkl_evaluation():
    verify.check_dunkl_eval(nmax=6)
    _report("criterion-07 dunkl-evaluation",
            "closed evaluation formula equals the operator action, |k| <= 6, N <= 5")


def test_c08_hecke_relations():
    verify.check_hecke_t1(nmax=8)
    verify.check_hecke_t3(nmax=8)
    _report("criterion-08 hecke-relations",
            "(T1-t1)(T1+t1^-1) and (T3-t3)(T3+t3^-1) annihilate X^n, |n| <= 8")


def test_c09_macdonald_consistency():
    verify.check_macdonald_recurrence(nmax=8)
    verify.check_macdonald_genfun(nmax=8)
    verify.check_macdonald_schur(nmax=10)
    _report("criterion-09 macdonald-consistency",
            "recurrence = explicit (n<=8, i<=4); generating series to order 8; "
            "Schur collapse n <= 10")


def test_c10_quantum_trace():
    verify.check_quantum_trace(nmax=10)
    _report("criterion-10 quantum-trace",
            "Casimir-scalar trace equals classical coefficients (k < n <= 10), zero beyond")


def test_c11_alpha_identity():
    verify.check_alpha_identity(nmax=6)
    _report("criterion-11 alpha-identity",
            "(X - X^-1) * product polynomial expands over the alpha weights, i <= 6")


def test_c12_universal_consistency():
    verify.check_universal_invariant(nmax=8)
    _report("criterion-12 universal-consistency",
            "class-evaluation route equals the coefficient route on built-in knots, n <= 8")
