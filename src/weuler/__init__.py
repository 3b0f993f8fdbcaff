"""Exact umbral calculus over Q(w) with weighted Euler numbers and p-adic checks.

Everything is exact rational arithmetic: no floats anywhere. The core stack is

* :mod:`weuler.ratfunc` -- dense polynomials and rational functions of the weight w over Q,
* :mod:`weuler.series`  -- truncated formal power series over a coefficient field,
* :mod:`weuler.umbral`  -- linear functionals, Sheffer/Appell bases, expansions,
* :mod:`weuler.euler`   -- weighted Euler numbers/polynomials and the identity suite,
* :mod:`weuler.padic`   -- fermionic p-adic integral values and convergence reports,
* :mod:`weuler.dsl`     -- a small identity language plus its checker,
* :mod:`weuler.cli`     -- the ``weuler`` command line front end.
"""

from .ratfunc import QQ, QW, W, Polynomial, WPolynomial, WRational, binomial, multinomial
from .series import Series, exp_series
from .umbral import (
    ShefferPair,
    XPolynomial,
    appell_basis,
    apply_functional,
    biorthogonality_check,
    expand_in_basis,
    multinomial_pairing,
    pairing,
    sheffer_basis,
)
from .euler import (
    EulerTable,
    Report,
    classical_euler_polys,
    order_k_multinomial,
    verify_paper_suite,
    weighted_euler_gf,
    weighted_euler_numbers,
    weighted_euler_polys,
)
from .padic import (
    ConvergenceReport,
    PadicNumber,
    ShiftReport,
    convergence_report,
    exact_integral,
    fermionic_partial_sum,
    is_admissible_weight,
    padic_from_rational,
    shift_identity_check,
    vp_fraction,
    vp_int,
)
from .dsl import (
    DslEvalError,
    DslParseError,
    TableContext,
    Verdict,
    check_corpus,
    check_identity,
    parse_identity,
)

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "QW",
    "W",
    "Polynomial",
    "WPolynomial",
    "WRational",
    "binomial",
    "multinomial",
    "Series",
    "exp_series",
    "XPolynomial",
    "ShefferPair",
    "pairing",
    "apply_functional",
    "appell_basis",
    "sheffer_basis",
    "biorthogonality_check",
    "expand_in_basis",
    "multinomial_pairing",
    "EulerTable",
    "Report",
    "weighted_euler_gf",
    "weighted_euler_numbers",
    "weighted_euler_polys",
    "classical_euler_polys",
    "order_k_multinomial",
    "verify_paper_suite",
    "PadicNumber",
    "ConvergenceReport",
    "ShiftReport",
    "vp_int",
    "vp_fraction",
    "is_admissible_weight",
    "padic_from_rational",
    "exact_integral",
    "fermionic_partial_sum",
    "convergence_report",
    "shift_identity_check",
    "DslParseError",
    "DslEvalError",
    "TableContext",
    "Verdict",
    "parse_identity",
    "check_identity",
    "check_corpus",
    "__version__",
]
