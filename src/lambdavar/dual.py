"""Numerical quasi-convex duality: test functions, the level function gamma,
and certified lower bounds for risk values.

The dual objects are bounded continuous nonincreasing test functions.  For a
risk functional built from an acceptance family, ``gamma(m, f)`` is the
largest integral of f attainable by a distribution accepted at level m; its
left inverse in m is a lower bound for the risk at matched integral levels
(weak duality).  Closed forms, a generic bisection route and brute-force
candidate sweeps cross-check each other throughout.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .curves import (
    Cdf,
    MonotoneRC,
    NONDECREASING,
    _interp,
    _value,
    truncate_left,
    uniform,
)
from .exceptions import BracketError, DualRangeError
from .profiles import AcceptanceFamily, LossProfile


# ---------- integrands ----------


class Constant:
    def __init__(self, c: float):
        self.c = float(c)

    def __call__(self, x: float) -> float:
        return self.c

    def integral(self, u: float, v: float) -> float:
        return self.c * (v - u)


class Identity:
    def __call__(self, x: float) -> float:
        return x

    def integral(self, u: float, v: float) -> float:
        return (v - u) * (u + v) / 2.0


class ExpNeg:
    """x -> exp(shift - x), with the exact segment antiderivative.

    The shift scales the function by exp(shift); with the shift at the lower
    end of a distribution's support every value on the support lies in
    (0, 1], so nothing overflows and the largest term cannot underflow.
    """

    def __init__(self, shift: float = 0.0):
        self.shift = float(shift)

    def __call__(self, x: float) -> float:
        return math.exp(self.shift - x)

    def integral(self, u: float, v: float) -> float:
        return math.exp(self.shift - u) - math.exp(self.shift - v)


@dataclass(frozen=True)
class TestFunction:
    """Bounded continuous nonincreasing piecewise-linear function.

    Constant left of the first node and right of the last, so the limits at
    -inf and +inf are the first and last ordinates.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if not pts:
            raise ValueError("a test function needs at least one node")
        for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
            if not xa < xb:
                raise ValueError("node abscissae must be strictly increasing")
            if yb > ya:
                raise ValueError("test functions must be nonincreasing")
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("nodes must be finite")
        out = []
        for p in pts:
            out.append(p)
            while len(out) >= 3:
                (xa, ya), (xb, yb), (xc, yc) = out[-3:]
                if (yb - ya) * (xc - xb) == (yc - yb) * (xb - xa):
                    del out[-2]
                else:
                    break
        object.__setattr__(self, "points", tuple(out))

    @property
    def limit_left(self) -> float:
        return self.points[0][1]

    @property
    def limit_right(self) -> float:
        return self.points[-1][1]

    @property
    def xs(self):
        return [x for x, _ in self.points]

    def __call__(self, x: float) -> float:
        pts = self.points
        if x <= pts[0][0]:
            return pts[0][1]
        if x >= pts[-1][0]:
            return pts[-1][1]
        for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
            if x < xb:
                return _interp(xa, ya, xb, yb, x)
        raise AssertionError

    def integral(self, u: float, v: float) -> float:
        """Exact integral of f over [u, v] (trapezoid on each affine piece)."""
        if v < u:
            raise ValueError("reversed integration interval")
        cuts = [u] + [x for x, _ in self.points if u < x < v] + [v]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            total += (b - a) * (self(a) + self(b)) / 2.0
        return total

    def left_inverse(self, y: float):
        """inf{x : f(x) <= y} for y in the closed range of f.

        At y == limit_left the level set is the whole line and -inf is
        returned; strictly outside [limit_right, limit_left] is an error.
        """
        if y > self.limit_left or y < self.limit_right:
            raise DualRangeError("outside range of f")
        if y >= self.limit_left:
            return -math.inf
        pts = self.points
        for i, (x, val) in enumerate(pts):
            if val <= y:
                if val == y:
                    return x
                xa, ya = pts[i - 1]
                return xa + (y - ya) * (x - xa) / (val - ya)
        raise AssertionError("value inside range but never attained")


def negated_cdf(q: Cdf) -> TestFunction:
    """The test function -F_Q for a continuous (atom-free) distribution Q."""
    if not q.payload.is_continuous:
        raise ValueError("requires continuous distribution")
    c = q.payload
    return TestFunction(tuple(zip(c.xs, [-v for v in c.values])))


def ramp_ladder(p: Cdf, count: int, width: float):
    """Downward-ramp test functions swept across the support of P.

    Each member is -F_U for U uniform on a window of the given width; the
    window starts run over an even grid from just right of (support lower
    bound - width) up to the support upper bound.  The left end of that span
    is excluded: a window entirely left of the support integrates to the
    constant -1 against P and carries no information.
    """
    if count < 1:
        raise ValueError("ladder needs at least one function")
    if width <= 0:
        raise ValueError("window width must be positive")
    start = p.support_lower - width
    span = p.support_upper - start
    step = span / count
    cs = [start + (i + 1) * step for i in range(count)]
    return [negated_cdf(uniform(c, c + width)) for c in cs]


# ---------- Stieltjes integration ----------


def _as_integrand(g):
    if isinstance(g, (int, float)):
        return Constant(g)
    return g


def stieltjes(g, f: MonotoneRC, a: float = -math.inf, b: float = math.inf) -> float:
    """Exact integral of g with respect to df over the interval (a, b].

    Jumps of f at a are excluded, at b included; affine pieces contribute
    through g's closed-form segment integral.  g may be a number (constant)
    or any object with ``__call__`` and ``integral(u, v)``.

    A ``TestFunction`` is constant outside its nodes x_1..x_k, so only the
    breakpoints of f in the window (max(a, x_1), min(b, x_k)] are summed;
    left of the window g weighs the mass F(x_1) - F(a) by its limit at
    -inf, right of it F(b) - F(x_k) by its limit at +inf.  Two bisections
    find the window, so the cost is O(log n + window), not O(n).
    """
    g = _as_integrand(g)
    tails = isinstance(g, TestFunction)
    if tails:
        lo = min(max(a, g.points[0][0]), b)
        hi = max(min(b, g.points[-1][0]), lo)
    else:
        lo, hi = a, b
    xs, ls, vs = f.xs, f.lefts, f.values
    i = bisect.bisect_right(xs, lo)
    j = bisect.bisect_right(xs, hi)
    total = 0.0
    for k in range(i, j):
        l, v = ls[k], vs[k]
        if v != l:
            total += g(xs[k]) * (v - l)
    for k in range(max(i, 1), min(j + 1, len(xs))):
        va, lb = vs[k - 1], ls[k]
        if lb == va:
            continue
        xa, xb = xs[k - 1], xs[k]
        u = max(xa, lo)
        v_ = min(xb, hi)
        if u < v_:
            slope = (lb - va) / (xb - xa)
            total += slope * g.integral(u, v_)
    if tails:
        if a < lo:
            f_a = f.tail_left if a == -math.inf else f(a)
            total += g.limit_left * (_value(f, i, lo) - f_a)
        if hi < b:
            f_b = f.tail_right if b == math.inf else f(b)
            total += g.limit_right * (f_b - _value(f, j, hi))
    return total


# ---------- the level function gamma ----------


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


def _profile_pieces(f: TestFunction, lam: MonotoneRC):
    """Affine pieces (p, q, f_slope, lam_at_p, lam_before_q) on f's span."""
    fpts = f.points
    if len(fpts) < 2:
        return []
    lo = bisect.bisect_right(lam.xs, fpts[0][0])
    hi = bisect.bisect_left(lam.xs, fpts[-1][0])
    inner = sorted(set(x for x, _ in fpts) | set(lam.xs[lo:hi]))
    pieces = []
    for p, q in zip(inner, inner[1:]):
        slope = (f(q) - f(p)) / (q - p)
        pieces.append((p, q, slope, lam(p), lam.left_limit(q)))
    return pieces


def gamma_increasing(m: float, f: TestFunction, profile: LossProfile) -> float:
    """gamma for a feasible nondecreasing profile:
    f(-inf) plus the integral of (1 - profile) df up to -m."""
    profile.require_feasible()
    if not profile.is_nondecreasing:
        raise ValueError("requires a nondecreasing profile")
    return _gamma_from_pieces(m, f, _profile_pieces(f, profile.curve))


def _gamma_from_pieces(m: float, f: TestFunction, pieces) -> float:
    upper = -m
    total = f.limit_left
    for p, q, slope, c0, c1 in pieces:
        if slope == 0.0 or p >= upper:
            continue
        if q <= upper:
            total += slope * (q - p) * (1.0 - (c0 + c1) / 2.0)
        else:
            cu = _interp(p, c0, q, c1, upper)
            total += slope * (upper - p) * (1.0 - (c0 + cu) / 2.0)
    return total


def gamma_decreasing(m: float, f: TestFunction, profile: LossProfile) -> float:
    """gamma for a continuous nonincreasing profile, via the flat-level family:
    weights f(-m) and f(-inf) by the profile level at -m."""
    _require_flat_gamma(profile)
    return _gamma_flat(m, f, profile)


def _require_flat_gamma(profile: LossProfile):
    profile.require_feasible()
    if not profile.is_nonincreasing:
        raise ValueError("requires a nonincreasing profile")
    if not profile.is_continuous:
        raise ValueError("requires a continuous profile")


def _gamma_flat(m: float, f: TestFunction, profile: LossProfile) -> float:
    level = profile(-m)
    return (1.0 - level) * f(-m) + level * f.limit_left


def profile_gamma(profile: LossProfile):
    """The (m, f) -> gamma callable matching the profile's orientation.

    For a nondecreasing profile the pieces of f against the profile are
    built once per test function: the callable keeps those of the last f it
    saw, since the bisection in ``risk_lower_bound_from_gamma`` asks for
    many levels m with one f.  For a nonincreasing profile the checks of
    ``gamma_decreasing`` hold for the profile, not for one call, so the
    callable runs them at its first call only.
    """
    if not profile.is_nondecreasing:
        checked = False

        def gamma_flat(m, f):
            nonlocal checked
            if not checked:
                _require_flat_gamma(profile)
                checked = True
            return _gamma_flat(m, f, profile)

        return gamma_flat
    cache = [None, None]  # the last f, and its pieces

    def gamma(m, f):
        if cache[0] is not f:
            profile.require_feasible()
            cache[:] = f, _profile_pieces(f, profile.curve)
        return _gamma_from_pieces(m, f, cache[1])

    return gamma


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


def truncation_candidates(g: MonotoneRC, ns):
    """The maximizing sequence for gamma: g truncated to [-n, inf)."""
    return [truncate_left(g, -float(n)) for n in ns]


# ---------- dual lower bounds ----------


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


def risk_lower_bound_from_gamma(
    t: float,
    f: TestFunction,
    gamma_fn,
    m_lo: float | None = None,
    m_hi: float | None = None,
    tol: float = 1e-9,
) -> float:
    """inf{m : gamma(m) >= t} by bisection of a nondecreasing gamma.

    Returns the level from below (never overshoots the infimum), so the
    result is always a valid lower bound for the matched risk.  An empty
    level set -- t above anything gamma can reach -- yields +inf.
    """
    if m_lo is None:
        m_lo = -f.points[-1][0] - 1.0
    if m_hi is None:
        m_hi = -f.points[0][0] + 1.0
    if gamma_fn(m_hi) < t:
        if t > f.limit_left:
            return math.inf
        raise BracketError("widen search bracket")
    if gamma_fn(m_lo) >= t:
        raise BracketError("widen search bracket")
    lo, hi = m_lo, m_hi
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if gamma_fn(mid) >= t:
            hi = mid
        else:
            lo = mid
    return lo


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


@dataclass(frozen=True)
class DualBoundReport:
    """The best bound and how many test functions gave one.

    ``skipped`` counts the functions that carried no information, by reason:
    ``"bracket"`` (``BracketError``), ``"range"`` (``DualRangeError``) and
    ``"inf"`` (an empty level set, bound +inf).  With ``informative`` they
    sum to the size of the family.
    """

    phi_value: float
    best_lower_bound: float
    gap: float
    argmax_function_index: int
    informative: int
    skipped: dict


def representation_bound(
    p: Cdf,
    risk,
    fs,
    gamma,
    tol: float = 1e-9,
) -> DualBoundReport:
    """Best certified lower bound for risk(P) over a family of test functions.

    For each f the bound is the gamma left inverse at the integral of f under
    P; functions whose bracket fails, whose integral is out of gamma's range
    or whose bound is +inf carry no information, and the report counts them
    by reason.  The gap to the primal value is nonnegative on every input
    (weak duality).
    """
    fs = list(fs)
    if not fs:
        raise ValueError("empty test function family")
    phi = risk(p)
    best = None
    best_i = -1
    informative = 0
    skipped = {"bracket": 0, "range": 0, "inf": 0}
    for i, f in enumerate(fs):
        t = stieltjes(f, p.payload)
        try:
            bound = risk_lower_bound_from_gamma(
                t, f, lambda m: gamma(m, f), tol=tol
            )
        except BracketError:
            skipped["bracket"] += 1
            continue
        except DualRangeError:
            skipped["range"] += 1
            continue
        if math.isinf(bound):
            skipped["inf"] += 1
            continue
        informative += 1
        if best is None or bound > best:
            best = bound
            best_i = i
    if best is None:
        raise BracketError("no informative test function in the family")
    return DualBoundReport(phi, best, phi - best, best_i, informative, skipped)


def conjugate_divergence_witness(risk, f: TestFunction, n_max: int) -> float:
    """max over n = 1..n_max of f(n) - risk(point mass at n).

    Grows without bound in n_max for cash-additive risks, witnessing that the
    convex conjugate is identically +inf.
    """
    if n_max < 1:
        raise ValueError("need at least one point mass")
    from .curves import dirac

    return max(f(float(n)) - risk(dirac(float(n))) for n in range(1, n_max + 1))
