"""F-distribution concentration probabilities.

Computes P(X <= kappa * E[X]) for an F random variable with integer degrees
of freedom, searches its infimum over the (d1, d2) grid, evaluates the
b -> infinity limit curve, and ships an independent quadrature oracle plus a
machine-checkable verification suite for the identities the computation
rests on. A probe at one kappa returns one ProbeResult: the grid and
limit-curve minima, and the closed-form infimum for kappa <= 1. For
kappa > 1, where the infimum is only conjectured above 1/2, its combined
estimate less 1/2 is the observed margin.
"""

from .special import (
    ConvergenceError,
    beta,
    ln_beta,
    ln_gamma,
    reg_inc_beta,
    reg_lower_gamma,
)
from .fdist import FParams, ShapePair, cdf, mean, prob_leq_kappa_mean, threshold
from .probe import (
    DEFAULT_GRID,
    GridSpec,
    ProbeResult,
    default_a_grid,
    grid_infimum,
    infimum,
    limit_b,
    limit_curve_min,
)
from .verify import (
    CheckResult,
    QuadratureError,
    VerificationReport,
    check_kappa_monotone,
    check_limit,
    check_monotone_b,
    check_recurrence,
    quad_inc_beta,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "ln_gamma",
    "ln_beta",
    "beta",
    "reg_inc_beta",
    "reg_lower_gamma",
    "FParams",
    "ShapePair",
    "mean",
    "cdf",
    "threshold",
    "prob_leq_kappa_mean",
    "GridSpec",
    "DEFAULT_GRID",
    "ProbeResult",
    "grid_infimum",
    "limit_b",
    "limit_curve_min",
    "infimum",
    "default_a_grid",
    "QuadratureError",
    "quad_inc_beta",
    "CheckResult",
    "VerificationReport",
    "check_recurrence",
    "check_monotone_b",
    "check_limit",
    "check_kappa_monotone",
    "run_suite",
    "__version__",
]
