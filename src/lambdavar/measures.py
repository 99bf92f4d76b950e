"""Risk functionals on distributions.

The central measure is the loss-profile Value at Risk: minus the infimum of
the loss levels at which the CDF strictly exceeds the profile, computed
exactly by scanning merged breakpoints and solving affine crossings.  The
classical measures are special cases (constant profile: Value at Risk; zero
profile: worst case) and independent implementations of them double as exact
cross-checks.  The bisection over acceptance levels that serves as the
oracle for the whole construction lives in ``oracles``.  Only the two
integral measures import ``dual``, when they run.

Values are floats; +inf means infinitely risky, and -inf is never returned
(an infeasible profile raises instead).
"""

from __future__ import annotations

import math

from .curves import Cdf, _Record, first_above
from .exceptions import InfeasibleProfileError
from .profiles import LossProfile


class RiskReport(_Record):
    """Risk value plus the witness that produced it.

    ``violation_point`` is the infimum of the levels where the CDF exceeds
    the profile (None when the value is +inf); when both curves are
    continuous there, it is the smallest intersection of the two curves.
    ``finiteness_case`` is "finite" or "plus_infinity_tail_dominated".
    """

    _fields = ("value", "violation_point", "finiteness_case")

    def __init__(self, value: float, violation_point: float | None, finiteness_case: str):
        vars(self).update(value=value, violation_point=violation_point,
                          finiteness_case=finiteness_case)


def lambda_var(p: Cdf, profile: LossProfile) -> RiskReport:
    """Loss-profile Value at Risk of the distribution P.

    Minus the infimum of {x : F_P(x) > profile(x)}; equality does not count
    as a violation.  Requires a feasible profile (supremum below 1).
    """
    profile.require_feasible()
    x_star = first_above(p.payload, profile.curve)
    if x_star is None:
        # Unreachable for a CDF against a feasible profile: F reaches 1.
        raise InfeasibleProfileError("profile accepts the distribution at every level")
    if x_star == -math.inf:
        return RiskReport(math.inf, None, "plus_infinity_tail_dominated")
    return RiskReport(-x_star, x_star, "finite")


def value_at_risk(p: Cdf, level: float) -> float:
    """Classical Value at Risk: minus the right-continuous quantile."""
    return -p.quantile_right(level)


def worst_case(p: Cdf) -> float:
    """Minus the left endpoint of the support."""
    return -p.support_lower


def certainty_equivalent(p: Cdf, f) -> float:
    """-f^{-1}(integral of f dP) for a strictly decreasing continuous f.

    f must expose ``__call__`` and an exact ``integral(u, v)``; the inverse
    is found by bisection, down to adjacent floats or 200 halvings, on a
    bracket grown geometrically from the support hull.  An exponential
    utility (``ExpNeg``) is re-based at the support's lower end: scaling f
    by a positive factor leaves the certainty equivalent unchanged, and the
    re-based values neither overflow nor underflow to 0 on the support.
    """
    from .dual import ExpNeg, stieltjes

    lo = p.support_lower
    hi = p.support_upper
    if lo == hi:
        return -lo
    if isinstance(f, ExpNeg):
        f = ExpNeg(lo)
    integral = stieltjes(f, p.payload)
    span = max(1.0, hi - lo)
    grow = 0
    while f(lo) < integral:
        lo -= span
        span *= 2.0
        grow += 1
        if grow > 200:
            raise ValueError("not invertible at integral value")
    span = max(1.0, hi - lo)
    while f(hi) > integral:
        hi += span
        span *= 2.0
        grow += 1
        if grow > 200:
            raise ValueError("not invertible at integral value")
    for _ in range(200):
        mid = _midpoint(lo, hi)
        if not lo < mid < hi:
            break
        if f(mid) >= integral:
            lo = mid
        else:
            hi = mid
    value = -_midpoint(lo, hi)
    if not math.isfinite(value):
        raise ValueError("certainty equivalent overflows the float range")
    return value


def _midpoint(lo: float, hi: float) -> float:
    """(lo + hi) / 2, halved first where lo + hi leaves the float range."""
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else lo / 2 + hi / 2


def entropic(p: Cdf) -> float:
    """log of the exact integral of exp(-x) dP; cash additive.

    Computed as -s + log of the integral of exp(-(x - s)) dP with s the
    lower end of the support (the log-sum-exp form), so that no exponential
    overflows and the integral stays in (0, 1].
    """
    from .dual import ExpNeg, stieltjes

    s = p.support_lower
    return math.log(stieltjes(ExpNeg(s), p.payload)) - s
