"""Quasi-convex, law-invariant risk measures defined directly on distributions.

The package represents distribution functions and loss profiles as exact
piecewise-linear curves with jumps, evaluates the loss-profile Value at Risk
and its classical special cases by breakpoint scans, and verifies the whole
construction numerically through acceptance-family bisection oracles and
quasi-convex dual lower bounds.

Every value is immutable after construction and every operation is a pure
function, so values can be shared freely across threads and batch sweeps
parallelize without coordination.
"""

from .curves import (
    Cdf,
    MonotoneRC,
    NONDECREASING,
    NONINCREASING,
    converges_weakly,
    dirac,
    dominates,
    first_above,
    from_samples,
    mixture,
    piecewise_cdf,
    pointwise_leq,
    truncate_left,
    uniform,
)
from .dual import (
    Constant,
    DualBoundReport,
    ExpNeg,
    Identity,
    TestFunction,
    conjugate_divergence_witness,
    gamma_bruteforce,
    gamma_decreasing,
    gamma_family,
    gamma_increasing,
    min_risk_at_integral,
    negated_cdf,
    profile_gamma,
    ramp_ladder,
    representation_bound,
    risk_lower_bound,
    risk_lower_bound_from_gamma,
    stieltjes,
    truncation_candidates,
)
from .exceptions import BracketError, DualRangeError, InfeasibleProfileError
from .measures import (
    RiskReport,
    certainty_equivalent,
    entropic,
    lambda_var,
    lambda_var_flat,
    risk_from_family,
    translation_pair,
    value_at_risk,
    worst_case,
)
from .profiles import (
    AcceptanceFamily,
    LossProfile,
    constant_profile,
    family_member,
    family_member_flat,
    piecewise_profile,
    step_profile,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceFamily",
    "BracketError",
    "Cdf",
    "Constant",
    "DualBoundReport",
    "DualRangeError",
    "ExpNeg",
    "Identity",
    "InfeasibleProfileError",
    "LossProfile",
    "MonotoneRC",
    "NONDECREASING",
    "NONINCREASING",
    "RiskReport",
    "TestFunction",
    "certainty_equivalent",
    "conjugate_divergence_witness",
    "constant_profile",
    "converges_weakly",
    "dirac",
    "dominates",
    "entropic",
    "family_member",
    "family_member_flat",
    "first_above",
    "from_samples",
    "gamma_bruteforce",
    "gamma_decreasing",
    "gamma_family",
    "gamma_increasing",
    "lambda_var",
    "lambda_var_flat",
    "min_risk_at_integral",
    "mixture",
    "negated_cdf",
    "piecewise_cdf",
    "piecewise_profile",
    "pointwise_leq",
    "profile_gamma",
    "ramp_ladder",
    "representation_bound",
    "risk_from_family",
    "risk_lower_bound",
    "risk_lower_bound_from_gamma",
    "stieltjes",
    "step_profile",
    "translation_pair",
    "truncate_left",
    "truncation_candidates",
    "uniform",
    "value_at_risk",
    "worst_case",
]
