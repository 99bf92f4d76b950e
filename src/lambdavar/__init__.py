"""Quasi-convex, law-invariant risk measures defined directly on distributions.

The package represents distribution functions and loss profiles as exact
piecewise-linear curves with jumps, evaluates the loss-profile Value at Risk
and its classical special cases by breakpoint scans, and verifies the whole
construction numerically through acceptance-family bisection oracles and
quasi-convex dual lower bounds.

Every value is immutable after construction and every operation is a pure
function, so values can be shared freely across threads and batch sweeps
parallelize without coordination.

Each public name is imported from its module on first use (PEP 562), so
``import lambdavar`` loads no module until a name is asked for, and the
reference routes in ``oracles`` load only where something uses them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "curves": (
        "Cdf", "MonotoneRC", "NONDECREASING", "NONINCREASING", "dirac", "dominates",
        "first_above", "from_samples", "mixture", "piecewise_cdf", "pointwise_leq",
        "truncate_left", "uniform",
    ),
    "dual": (
        "DualBoundReport", "ExpNeg", "TestFunction", "gamma_decreasing",
        "gamma_increasing", "negated_cdf", "profile_gamma", "ramp_ladder",
        "representation_bound", "risk_lower_bound_from_gamma", "stieltjes",
    ),
    "exceptions": ("BracketError", "DualRangeError", "InfeasibleProfileError"),
    "measures": (
        "RiskReport", "certainty_equivalent", "entropic", "lambda_var", "value_at_risk",
        "worst_case",
    ),
    "oracles": (
        "AcceptanceFamily", "Identity", "conjugate_divergence_witness", "family_member_flat",
        "gamma_bruteforce", "gamma_family", "lambda_var_flat", "risk_from_family",
        "risk_lower_bound", "translation_pair", "truncation_candidates",
    ),
    "profiles": (
        "LossProfile", "constant_profile", "family_member", "piecewise_profile",
        "step_profile",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
