"""Exact computation of two-parameter Hecke deformations of colored Jones
polynomials through their cyclotomic expansions.

The library is organized bottom-up:

``exactalg``   sparse Laurent polynomials, brace fractions, truncated series
``qcombo``     q-integers, q-binomials, classical cyclotomic coefficients
``daha``       Dunkl-operator module actions and the operator route to the
               transition coefficients
``cyclo``      the transition-coefficient recurrence and the generalized
               coefficients by sum / series / determinant / closed-form routes
``macdonald``  rank-1 orthogonal polynomials backing the t2 = 1 closed form
``knots``      knot records and polynomial assembly
``verify``     named cross-validation checks
``cli``        the ``gjones`` command-line tool
"""

from .exactalg import (JSON_VARS, VARS, LaurentPoly, NonUnitConstantTerm, QFraction,
                       TruncatedSeries, qbrace_poly, qfrac_sum)
from .qcombo import (alpha_weight, cyclotomic_c, eigen_product, gauss_qbinom, qbinom,
                     qint, qpochhammer)
from .daha import (NonPolynomialResult, NotSkewSymmetric, UPoly, XFrac, act_basic,
                   base_vector, dunkl_pair, dunkl_pair_eval, dunkl_y, hecke_defect,
                   polyrep_act, t1_act, t3_act, transition_row)
from .cyclo import (IntegralityViolation, RouteUnavailable, a_ratio, a_table,
                    coeff_det_series, coeff_series, coeff_sum, coeff_t2one, coefficient,
                    coefficient_row, specialize)
from .macdonald import (DegenerateRecurrence, genfun_matches, mac_p, renorm_factor,
                        rogers_c, rogers_from_recurrence)
from .knots import (KnotRecord, MissingHabiro, builtin_knot, classical_jones,
                    figure_eight, generalized_jones, knot_from_dict, load_knot_file,
                    sigma_trace, universal_eval, unknot)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
