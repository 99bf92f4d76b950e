"""Loss profiles and the acceptance families they generate.

A loss profile maps a loss level x to the largest probability of losing more
than that level an agent tolerates.  Increasing profiles describe risk-prudent
agents, decreasing ones risk-seeking agents, constants both.  Each profile
generates a one-parameter family of benchmark curves: the profile truncated to
1 from the index m onward.  A distribution is accepted at level m when its CDF
stays below the benchmark, and the risk measure is minus the supremum of
accepting levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .curves import (
    NONDECREASING,
    NONINCREASING,
    Cdf,
    MonotoneRC,
    pointwise_leq,
)
from .exceptions import InfeasibleProfileError


@dataclass(frozen=True)
class LossProfile:
    """A probability/loss trade-off curve with cached range data.

    ``sup_value`` gates feasibility: a profile touching 1 accepts every
    distribution at every level, which drives the risk to -inf, so such
    profiles are representable but flagged infeasible.
    """

    curve: MonotoneRC
    sup_value: float = field(init=False, compare=False, default=0.0)
    inf_value: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self):
        if self.curve.orientation is None:
            raise ValueError("a profile needs a declared orientation")
        object.__setattr__(self, "sup_value", self.curve.sup_value)
        object.__setattr__(self, "inf_value", self.curve.inf_value)

    def __call__(self, x: float) -> float:
        return self.curve(x)

    def left_limit(self, x: float) -> float:
        return self.curve.left_limit(x)

    @property
    def is_constant(self) -> bool:
        return not self.curve.points

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
    pts = [p for p in c.points if p[0] < m]
    pts.append((m, c.left_limit(m), 1.0))
    orientation = NONDECREASING if profile.is_nondecreasing else None
    return MonotoneRC(tuple(pts), c.tail_left, 1.0, orientation)


def family_member_flat(profile: LossProfile, m: float) -> MonotoneRC:
    """Flat-level benchmark: constant profile(m) below m, then 1 from m on.

    Only meaningful for nonincreasing profiles, where the profile lies above
    this flat level left of m and both families give the same risk.
    """
    if not profile.is_nonincreasing:
        raise ValueError("flat family requires a nonincreasing profile")
    m = float(m)
    level = profile(m)
    return MonotoneRC(((m, level, 1.0),), level, 1.0, NONDECREASING)


@dataclass(frozen=True)
class AcceptanceFamily:
    """A decreasing family of benchmark curves indexed by a real level.

    Profile-backed families are defined for every level.  Table-backed
    families carry finitely many (level, curve) pairs; with the "step-left"
    rule the member at m is the curve of the smallest tabulated level >= m
    (constant below the table, undefined above it), which keeps the family
    decreasing and left-continuous in the level.  Rule "none" answers only at
    tabulated levels.
    """

    kind: str
    profile: LossProfile | None = None
    table: tuple = ()
    rule: str = "step-left"

    @classmethod
    def from_profile(cls, profile: LossProfile) -> "AcceptanceFamily":
        return cls(kind="profile", profile=profile)

    @classmethod
    def flat_from_profile(cls, profile: LossProfile) -> "AcceptanceFamily":
        if not profile.is_nonincreasing:
            raise ValueError("flat family requires a nonincreasing profile")
        return cls(kind="flat", profile=profile)

    @classmethod
    def from_table(cls, entries, rule: str = "step-left") -> "AcceptanceFamily":
        entries = tuple((float(m), g) for m, g in entries)
        if not entries:
            raise ValueError("empty family table")
        ms = [m for m, _ in entries]
        if any(not a < b for a, b in zip(ms, ms[1:])):
            raise ValueError("table levels must be strictly increasing")
        for (_, ga), (_, gb) in zip(entries, entries[1:]):
            if not pointwise_leq(gb, ga):
                raise ValueError("table members must decrease with the level")
        if rule not in ("step-left", "none"):
            raise ValueError(f"unknown interpolation rule {rule!r}")
        return cls(kind="table", table=entries, rule=rule)

    def member(self, m: float) -> MonotoneRC:
        if self.kind == "profile":
            return family_member(self.profile, m)
        if self.kind == "flat":
            return family_member_flat(self.profile, m)
        m = float(m)
        if self.rule == "none":
            for mi, g in self.table:
                if mi == m:
                    return g
            raise ValueError(f"level {m} not in family table")
        if m > self.table[-1][0]:
            raise ValueError(f"level {m} above family table")
        for mi, g in self.table:
            if m <= mi:
                return g
        raise AssertionError

    def contains(self, m: float, q: Cdf) -> bool:
        """Membership of Q in the acceptance set at level m."""
        return pointwise_leq(q.payload, self.member(m))

    def rejects_all_below(self, m: float) -> bool:
        """Certificate that rejection at m implies rejection at every level.

        True only where the member curve is provably constant below m; used
        by the level search to report an infinite risk instead of guessing.
        """
        if self.kind == "table" and self.rule == "step-left":
            return m <= self.table[0][0]
        return False
