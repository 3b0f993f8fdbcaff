"""Exact umbral calculus over Q(w) with weighted Euler numbers and p-adic checks.

Everything is exact rational arithmetic: no floats anywhere. The core stack is

* :mod:`weuler.ratfunc` -- dense polynomials and rational functions of the weight w over Q,
* :mod:`weuler.series`  -- truncated formal power series over a coefficient field,
* :mod:`weuler.umbral`  -- linear functionals, Sheffer/Appell bases, expansions,
* :mod:`weuler.euler`   -- weighted Euler numbers/polynomials and the identity suite,
* :mod:`weuler.padic`   -- fermionic p-adic integral values and convergence reports,
* :mod:`weuler.dsl`     -- a small identity language plus its checker,
* :mod:`weuler.cli`     -- the ``weuler`` command line front end.

Importing ``weuler`` loads none of them: each name of ``__all__`` resolves
on first use, which imports its module then (PEP 562).  So
``import weuler.cli`` loads no compute layer, and each command imports only
the layers it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "ratfunc": ("QQ", "QW", "W", "Polynomial", "WRational", "binomial"),
    "series": ("Series", "exp_series"),
    "umbral": ("ShefferPair", "pairing", "apply_functional", "appell_basis", "sheffer_basis",
               "biorthogonality_check", "expand_in_basis"),
    "euler": ("EulerTable", "Report", "weighted_euler_gf", "weighted_euler_numbers",
              "classical_euler_polys", "order_k_multinomial", "verify_paper_suite"),
    "padic": ("ConvergenceReport", "ShiftReport", "vp_int", "vp_fraction", "is_admissible_weight",
              "exact_integral", "convergence_report", "shift_identity_check"),
    "dsl": ("DslParseError", "DslEvalError", "Verdict", "parse_identity", "check_identity",
            "check_corpus"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
