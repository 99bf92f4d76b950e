"""Loss profiles and the benchmark curves they generate.

A loss profile maps a loss level x to the largest probability of losing more
than that level an agent tolerates.  Increasing profiles describe risk-prudent
agents, decreasing ones risk-seeking agents, constants both.  Each profile
generates a one-parameter family of benchmark curves: the profile truncated to
1 from the index m onward.  A distribution is accepted at level m when its CDF
stays below the benchmark, and the risk measure is minus the supremum of
accepting levels; the family as an object, ``AcceptanceFamily``, is a
reference route in ``oracles``.
"""

from __future__ import annotations

import bisect

from .curves import NONDECREASING, NONINCREASING, MonotoneRC, _Record
from .exceptions import InfeasibleProfileError


class LossProfile(_Record):
    """A probability/loss trade-off curve with cached range data.

    ``sup_value`` gates feasibility: a profile touching 1 accepts every
    distribution at every level, which drives the risk to -inf, so such
    profiles are representable but flagged infeasible.
    """

    _fields = ("curve", "sup_value", "inf_value")

    def __init__(self, curve: MonotoneRC):
        if curve.orientation is None:
            raise ValueError("a profile needs a declared orientation")
        vars(self).update(curve=curve, sup_value=curve.sup_value, inf_value=curve.inf_value)

    def _key(self):
        # the range data follows from the curve
        return (self.curve,)

    def __call__(self, x: float) -> float:
        return self.curve(x)

    def left_limit(self, x: float) -> float:
        return self.curve.left_limit(x)

    @property
    def is_constant(self) -> bool:
        return not self.curve.xs

    @property
    def is_nondecreasing(self) -> bool:
        return self.is_constant or self.curve.orientation == NONDECREASING

    @property
    def is_nonincreasing(self) -> bool:
        return self.is_constant or self.curve.orientation == NONINCREASING

    @property
    def is_continuous(self) -> bool:
        return self.curve.is_continuous

    @property
    def is_feasible(self) -> bool:
        return self.sup_value < 1.0

    def shift(self, alpha: float) -> "LossProfile":
        """The profile evaluated at x + alpha; breakpoints move left by alpha."""
        return LossProfile(self.curve.shift_x(-float(alpha)))

    def require_feasible(self):
        if not self.is_feasible:
            raise InfeasibleProfileError(
                f"profile supremum {self.sup_value} >= 1: risk would be -infinity"
            )


def constant_profile(lam: float) -> LossProfile:
    """Constant tolerated probability; lam = 0 is the worst-case profile."""
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"profile level {lam} must be nonnegative")
    if lam >= 1.0:
        raise InfeasibleProfileError(
            f"infeasible profile: constant level {lam} >= 1, risk would be -infinity"
        )
    return LossProfile(MonotoneRC((), lam, lam, NONDECREASING))


def step_profile(lambda_min: float, lambda_max: float, xbar: float) -> LossProfile:
    """Single right-continuous step from lambda_min to lambda_max at xbar."""
    lo, hi = float(lambda_min), float(lambda_max)
    if not 0.0 <= lo <= hi:
        raise ValueError("step profile requires 0 <= lambda_min <= lambda_max")
    if hi >= 1.0:
        raise InfeasibleProfileError(
            f"infeasible profile: upper level {hi} >= 1, risk would be -infinity"
        )
    return LossProfile(MonotoneRC(((float(xbar), lo, hi),), lo, hi, NONDECREASING))


def piecewise_profile(points, tails, orientation) -> LossProfile:
    """Profile from explicit breakpoints; sup = 1 is allowed but infeasible."""
    tl, tr = tails
    return LossProfile(MonotoneRC(tuple(points), tl, tr, orientation))


def family_member(profile: LossProfile, m: float) -> MonotoneRC:
    """Benchmark curve at level m: the profile below m, then 1 from m on."""
    m = float(m)
    c = profile.curve
    k = bisect.bisect_left(c.xs, m)
    pts = list(zip(c.xs[:k], c.lefts[:k], c.values[:k]))
    pts.append((m, c.left_limit(m), 1.0))
    orientation = NONDECREASING if profile.is_nondecreasing else None
    return MonotoneRC(tuple(pts), c.tail_left, 1.0, orientation)
