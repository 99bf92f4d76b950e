"""Reference routes that cross-check the runtime path; no command runs them.

The commands compute the risk in closed form, -inf{x : F(x) > profile(x)}.
These routes keep its definition, -sup{m : P accepted at level m}, and the
sweeps, bisections and probes that test the closed forms against it.  Only
tests, the ``check`` suites and the demos import this module.

``gamma_bruteforce`` over ``truncation_candidates`` is the full sweep; the
``duality-sandwich`` suite runs ``_gamma_truncations``, which stops it early
with the same result.
"""

from __future__ import annotations

import math

from .curves import (
    NONDECREASING, Cdf, MonotoneRC, _crossing_point, _Record, _walk, dirac, pointwise_leq,
    truncate_left,
)
from .dual import TestFunction, _profile_pieces, stieltjes
from .exceptions import BracketError, DualRangeError
from .measures import RiskReport, lambda_var
from .profiles import LossProfile, family_member


# ---------- acceptance families and their levels ----------


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


class AcceptanceFamily(_Record):
    """A decreasing family of benchmark curves indexed by a real level.

    Profile-backed families are defined for every level.  Table-backed
    families carry finitely many (level, curve) pairs; with the "step-left"
    rule the member at m is the curve of the smallest tabulated level >= m
    (constant below the table, undefined above it), which keeps the family
    decreasing and left-continuous in the level.  Rule "none" answers only at
    tabulated levels.
    """

    _fields = ("kind", "profile", "table", "rule")

    def __init__(self, kind: str, profile: LossProfile | None = None, table: tuple = (),
                 rule: str = "step-left"):
        vars(self).update(kind=kind, profile=profile, table=table, rule=rule)

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


def translation_pair(p: Cdf, profile: LossProfile, alpha: float):
    """Both sides of the cash-translation identity, computed independently.

    Left: risk of the distribution shifted right by alpha.  Right: risk of
    the original distribution under the profile shifted by alpha, minus
    alpha.  The two agree exactly on the piecewise class.
    """
    lhs = lambda_var(p.translate(alpha), profile).value
    rhs = lambda_var(p, profile.shift(alpha)).value - alpha
    return lhs, rhs


# ---------- gamma and the dual bounds, by other routes ----------


class Identity:
    def __call__(self, x: float) -> float:
        return x

    def integral(self, u: float, v: float) -> float:
        return (v - u) * (u + v) / 2.0


def gamma_family(m: float, f: TestFunction, family: AcceptanceFamily) -> float:
    """Largest integral of f over the acceptance set at level m, closed form.

    Valid when the member curves are nondecreasing with limit 1 at +inf; the
    mass the member leaves at -inf weighs the left limit of f.
    """
    g = family.member(-m)
    if g.orientation != NONDECREASING:
        raise ValueError("family member is not nondecreasing")
    if g.tail_right != 1.0:
        raise ValueError("family member does not reach 1")
    return stieltjes(f, g) + g.tail_left * f.limit_left


def gamma_bruteforce(m: float, f: TestFunction, risk, candidates) -> float:
    """Largest integral of f over the candidates the risk accepts at level m.

    A lower bound for gamma, since the sup runs over a finite subset only.
    """
    best = None
    for q in candidates:
        if risk(q) <= m:
            val = stieltjes(f, q.payload)
            if best is None or val > best:
                best = val
    if best is None:
        raise ValueError("no feasible candidate")
    return best


def _gamma_truncations(m: float, f: TestFunction, risk, member: MonotoneRC) -> float:
    """gamma_bruteforce over truncation_candidates(member, range(1, 51)), built
    one at a time and stopped as soon as the rest cannot change the answer.

    Left of the first breakpoint of member and of f, a truncation differs from
    the next only in where its atom sits, and f is constant there, so all of
    these truncations integrate to the same float.  After the first of them
    that the risk accepts, no later one can raise the best value, so the sweep
    returns there: the same float, or the same error, as the full sweep.
    """
    edge = min(f.xs[0], *member.xs[:1])
    best = None
    for n in range(1, 51):
        q = truncate_left(member, -float(n))
        if risk(q) <= m:
            val = stieltjes(f, q.payload)
            if best is None or val > best:
                best = val
            if -n < edge:
                return best
    if best is None:
        raise ValueError("no feasible candidate")
    return best


def truncation_candidates(g: MonotoneRC, ns):
    """The maximizing sequence for gamma: g truncated to [-n, inf)."""
    return [truncate_left(g, -float(n)) for n in ns]


def risk_lower_bound(t: float, f: TestFunction, profile: LossProfile) -> float:
    """Closed-form dual bound for a nondecreasing profile.

    Builds H(m) = integral of (1 - profile) df over (-inf, m] (nonincreasing
    since df <= 0), applies the nonincreasing left inverse at t - f(-inf) and
    negates.  Returns +inf when the level set is the whole line.
    """
    profile.require_feasible()
    if not profile.is_nondecreasing:
        raise ValueError("requires a nondecreasing profile")
    y = t - f.limit_left
    pieces = _profile_pieces(f, profile.curve)
    h_total = sum(
        s * (q - p) * (1.0 - (c0 + c1) / 2.0) for p, q, s, c0, c1 in pieces
    )
    if y > 0.0 or y < h_total:
        raise DualRangeError("dual variable out of range")
    if y == 0.0:
        return math.inf
    h_p = 0.0
    for p, q, s, c0, c1 in pieces:
        dh = s * (q - p) * (1.0 - (c0 + c1) / 2.0)
        h_q = h_p + dh
        if h_q <= y:
            lo_w, hi_w = 0.0, q - p

            def h_at(w):
                cw = c0 + w * (c1 - c0) / (q - p)
                return h_p + s * w * (1.0 - (c0 + cw) / 2.0)

            for _ in range(100):
                mid = 0.5 * (lo_w + hi_w)
                if h_at(mid) <= y:
                    hi_w = mid
                else:
                    lo_w = mid
            return -(p + hi_w)
        h_p = h_q
    raise AssertionError("dual variable inside range but never bracketed")


def min_risk_at_integral(t: float, f: TestFunction, risk, candidates) -> float:
    """Smallest risk among candidates whose integral of f reaches t.

    An upper bound for the true infimum over all distributions; +inf when no
    candidate qualifies (the empty-infimum convention).
    """
    best = math.inf
    for q in candidates:
        if stieltjes(f, q.payload) >= t:
            val = risk(q)
            if val < best:
                best = val
    return best


def conjugate_divergence_witness(risk, f: TestFunction, n_max: int) -> float:
    """max over n = 1..n_max of f(n) - risk(point mass at n).

    Grows without bound in n_max for cash-additive risks, witnessing that the
    convex conjugate is identically +inf.
    """
    if n_max < 1:
        raise ValueError("need at least one point mass")
    return max(f(float(n)) - risk(dirac(float(n))) for n in range(1, n_max + 1))


def converges_weakly(seq, limit: Cdf, probes, tol: float = 0.05) -> bool:
    """Probe weak convergence of a CDF sequence at continuity points.

    For each probe x the errors |F_n(x) - F(x)| must shrink monotonically
    along the tail of the sequence and end below tol.  Probes sitting on a
    jump of the limit are rejected.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    for x in probes:
        if limit.payload.jump(x) != 0.0:
            raise ValueError(f"probe not a continuity point: {x}")
    tail = seq[len(seq) // 2:] if len(seq) >= 4 else seq
    for x in probes:
        errs = [abs(f(x) - limit(x)) for f in tail]
        if any(b > a for a, b in zip(errs, errs[1:])):
            return False
        if errs[-1] > tol:
            return False
    return True
