"""Risk functionals on distributions.

The central measure is the loss-profile Value at Risk: minus the infimum of
the loss levels at which the CDF strictly exceeds the profile, computed
exactly by scanning merged breakpoints and solving affine crossings.  The
classical measures are special cases (constant profile: Value at Risk; zero
profile: worst case) and independent implementations of them double as exact
cross-checks.  A generic bisection over acceptance levels serves as the
oracle for the whole construction.

Values are floats; +inf means infinitely risky, and -inf is never returned
(an infeasible profile raises instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import Cdf, _crossing_point, _walk, first_above
from .dual import ExpNeg, stieltjes
from .exceptions import BracketError, InfeasibleProfileError
from .profiles import AcceptanceFamily, LossProfile


@dataclass(frozen=True)
class RiskReport:
    """Risk value plus the witness that produced it.

    ``violation_point`` is the infimum of the levels where the CDF exceeds
    the profile (None when the value is +inf); when both curves are
    continuous there, it is the smallest intersection of the two curves.
    """

    value: float
    violation_point: float | None
    finiteness_case: str  # "finite" | "plus_infinity_tail_dominated"


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


def lambda_var_flat(p: Cdf, profile: LossProfile) -> RiskReport:
    """Same risk through the flat-level family of a decreasing profile.

    At each level m the benchmark is the constant profile(m) below m; for a
    continuous nonincreasing profile this reproduces lambda_var exactly.  The
    scan compares the left limit of F_P against the profile value level by
    level.
    """
    profile.require_feasible()
    if not profile.is_nonincreasing:
        raise ValueError("flat family requires a nonincreasing profile")
    if not profile.is_continuous:
        raise ValueError("flat family requires a continuous profile")
    f = p.payload
    lam = profile.curve
    if f.tail_left > lam.tail_left:
        return RiskReport(math.inf, None, "plus_infinity_tail_dominated")
    prev = None
    for x, fl, fv, _, lam_x in _walk(f, lam):
        if prev is not None and fl > lam_x:
            m_star = _crossing_point(f, lam, prev, x)
            break
        if fv > lam_x:
            m_star = x
            break
        prev = x
    else:
        raise AssertionError("feasible profile never violated")
    return RiskReport(-m_star, m_star, "finite")


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
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) >= integral:
            lo = mid
        else:
            hi = mid
    return -0.5 * (lo + hi)


def entropic(p: Cdf) -> float:
    """log of the exact integral of exp(-x) dP; cash additive.

    Computed as -s + log of the integral of exp(-(x - s)) dP with s the
    lower end of the support (the log-sum-exp form), so that no exponential
    overflows and the integral stays in (0, 1].
    """
    s = p.support_lower
    return math.log(stieltjes(ExpNeg(s), p.payload)) - s


def risk_from_family(
    p: Cdf,
    family: AcceptanceFamily,
    m_lo: float | None = None,
    m_hi: float | None = None,
    tol: float = 1e-9,
) -> float:
    """Minus the supremum of accepting levels, by bisection.

    The generic oracle for every profile-based measure: needs only the
    family's membership test, which is exact.  The default bracket is ten
    times the support hull, padded by one.
    """
    if m_lo is None or m_hi is None:
        scale = max(abs(p.support_lower), abs(p.support_upper))
        width = (1.0 + scale) * 10.0
        if m_lo is None:
            m_lo = -width
        if m_hi is None:
            m_hi = width
    if not family.contains(m_lo, p):
        if family.rejects_all_below(m_lo):
            return math.inf
        raise BracketError("widen search bracket")
    if family.contains(m_hi, p):
        raise BracketError("widen search bracket")
    lo, hi = m_lo, m_hi
    for _ in range(200):
        if hi - lo <= 0.5 * tol:
            break
        mid = 0.5 * (lo + hi)
        if family.contains(mid, p):
            lo = mid
        else:
            hi = mid
    return -0.5 * (lo + hi)


def translation_pair(p: Cdf, profile: LossProfile, alpha: float):
    """Both sides of the cash-translation identity, computed independently.

    Left: risk of the distribution shifted right by alpha.  Right: risk of
    the original distribution under the profile shifted by alpha, minus
    alpha.  The two agree exactly on the piecewise class.
    """
    lhs = lambda_var(p.translate(alpha), profile).value
    rhs = lambda_var(p, profile.shift(alpha)).value - alpha
    return lhs, rhs
