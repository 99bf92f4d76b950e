"""Numerical quasi-convex duality: test functions, the level function gamma,
and certified lower bounds for risk values.

The dual objects are bounded continuous nonincreasing test functions.  For a
risk functional built from an acceptance family, ``gamma(m, f)`` is the
largest integral of f attainable by a distribution accepted at level m; its
left inverse in m is a lower bound for the risk at matched integral levels
(weak duality).  The brute-force sweeps and the bisected closed-form bound
that cross-check these live in ``oracles``.
"""

from __future__ import annotations

import bisect
import math
import operator

from .curves import (
    Cdf, MonotoneRC, _bisect, _drop_collinear, _interp, _Record, _slope, _solve_level, _value,
    uniform,
)
from .exceptions import BracketError, DualRangeError
from .profiles import LossProfile


# ---------- integrands ----------


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


class TestFunction(_Record):
    """Bounded continuous nonincreasing piecewise-linear function.

    Constant left of the first node and right of the last, so the limits at
    -inf and +inf are the first and last ordinates.  Stored as the columns of
    a curve without jumps, ``xs`` and ``values`` (also its left limits).
    """

    _fields = ("xs", "values")

    def __init__(self, points):
        pts = tuple((float(x), float(y)) for x, y in points)
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
        xs, _, values = _drop_collinear((x, y, y) for x, y in pts)
        vars(self).update(xs=xs, values=values)

    @property
    def points(self) -> tuple:
        """The nodes as ``(x, y)`` pairs, built anew."""
        return tuple(zip(self.xs, self.values))

    @property
    def limit_left(self) -> float:
        return self.values[0]

    @property
    def limit_right(self) -> float:
        return self.values[-1]

    # the names under which the curves routines read a curve's columns
    lefts = property(lambda self: self.values)
    tail_left = limit_left
    tail_right = limit_right

    __call__ = MonotoneRC.__call__

    def integral(self, u: float, v: float) -> float:
        """Exact integral of f over [u, v] (trapezoid on each affine piece).

        A trapezoid whose width, or whose width times the sum of its ends,
        leaves the float range takes half its width, which stays finite, in
        place of the width and the halving; a finite trapezoid keeps its float."""
        if v < u:
            raise ValueError("reversed integration interval")
        xs = self.xs
        cuts = [u, *xs[bisect.bisect_right(xs, u):bisect.bisect_left(xs, v)], v]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            s = self(a) + self(b)
            t = (b - a) * s / 2.0
            if t - t != 0.0:
                t = (b / 2 - a / 2) * s
            total += t
        return total

    def left_inverse(self, y: float):
        """inf{x : f(x) <= y} for y in the closed range of f.

        At y == limit_left the level set is the whole line and -inf is
        returned; outside [limit_right, limit_left] (or NaN) is an error.
        """
        if not self.limit_right <= y <= self.limit_left:
            raise DualRangeError("outside range of f")
        if y == self.limit_left:
            return -math.inf
        xs, vs = self.xs, self.values
        # the first node at or below y; values are nonincreasing
        k = bisect.bisect_left(vs, -y, key=operator.neg)
        if vs[k] == y:
            return xs[k]
        return _solve_level((xs[k - 1], vs[k - 1], xs[k], vs[k]), y)


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
    if not 0 < width < math.inf:
        raise ValueError("window width must be positive and finite")
    start = p.support_lower - width
    span = p.support_upper - start
    if not span < math.inf:
        raise ValueError(f"support from {p.support_lower!r} to {p.support_upper!r}, widened by "
                         f"the window width {width!r}, is wider than the float range")
    step = span / count
    cs = [start + (i + 1) * step for i in range(count)]
    for c in cs:
        if not c < c + width:
            raise ValueError(f"window width {width!r} vanishes at window start {c!r}")
    return [negated_cdf(uniform(c, c + width)) for c in cs]


# ---------- Stieltjes integration ----------


def stieltjes(g, f: MonotoneRC, a: float = -math.inf, b: float = math.inf) -> float:
    """Exact integral of g with respect to df over the interval (a, b].

    Jumps of f at a are excluded, at b included; affine pieces contribute
    through g's closed-form segment integral.  g is any object with
    ``__call__`` and ``integral(u, v)``.

    A ``TestFunction`` is constant outside its nodes x_1..x_k, so only the
    breakpoints of f in the window (max(a, x_1), min(b, x_k)] are summed;
    left of the window g weighs the mass F(x_1) - F(a) by its limit at
    -inf, right of it F(b) - F(x_k) by its limit at +inf.  Two bisections
    find the window, so the cost is O(log n + window), not O(n).
    """
    tails = isinstance(g, TestFunction)
    if tails:
        lo = min(max(a, g.xs[0]), b)
        hi = max(min(b, g.xs[-1]), lo)
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
            total += _slope(xa, va, xb, lb) * g.integral(u, v_)
    if tails:
        if a < lo:
            f_a = f.tail_left if a == -math.inf else f(a)
            total += g.limit_left * (_value(f, i, lo) - f_a)
        if hi < b:
            f_b = f.tail_right if b == math.inf else f(b)
            total += g.limit_right * (f_b - _value(f, j, hi))
    return total


# ---------- the level function gamma ----------


def _profile_pieces(f: TestFunction, lam: MonotoneRC):
    """Affine pieces (p, q, f_slope, lam_at_p, lam_before_q) on f's span."""
    fx = f.xs
    lo = bisect.bisect_right(lam.xs, fx[0])
    hi = bisect.bisect_left(lam.xs, fx[-1])
    inner = sorted(set(fx) | set(lam.xs[lo:hi]))
    pieces = []
    for p, q in zip(inner, inner[1:]):
        pieces.append((p, q, _slope(p, f(p), q, f(q)), lam(p), lam.left_limit(q)))
    return pieces


def gamma_increasing(m: float, f: TestFunction, profile: LossProfile) -> float:
    """gamma for a feasible nondecreasing profile:
    f(-inf) plus the integral of (1 - profile) df up to -m."""
    _require_gamma(profile, True)
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
    _require_gamma(profile, False)
    return _gamma_flat(m, f, profile)


def _require_gamma(profile: LossProfile, increasing: bool):
    """What gamma asks of a profile: feasible, and nondecreasing if
    ``increasing``, else nonincreasing and continuous."""
    profile.require_feasible()
    if increasing:
        if not profile.is_nondecreasing:
            raise ValueError("requires a nondecreasing profile")
    elif not profile.is_nonincreasing:
        raise ValueError("requires a nonincreasing profile")
    elif not profile.is_continuous:
        raise ValueError("requires a continuous profile")


def _gamma_flat(m: float, f: TestFunction, profile: LossProfile) -> float:
    level = profile(-m)
    return (1.0 - level) * f(-m) + level * f.limit_left


def profile_gamma(profile: LossProfile):
    """The (m, f) -> gamma callable matching the profile's orientation.

    The checks of ``gamma_increasing`` and ``gamma_decreasing`` hold for
    the profile, not for one call, so they run here, once.  The pieces of f
    against a nondecreasing profile are kept for the last f seen, since the
    bisection in ``risk_lower_bound_from_gamma`` asks for many levels m with
    one f.
    """
    _require_gamma(profile, profile.is_nondecreasing)
    if not profile.is_nondecreasing:
        return lambda m, f: _gamma_flat(m, f, profile)
    cache = [None, None]  # the last f, and its pieces

    def gamma(m, f):
        if cache[0] is not f:
            cache[:] = f, _profile_pieces(f, profile.curve)
        return _gamma_from_pieces(m, f, cache[1])

    return gamma


# ---------- dual lower bounds ----------


def risk_lower_bound_from_gamma(t: float, f: TestFunction, gamma_fn, tol: float = 1e-9) -> float:
    """inf{m : gamma(m) >= t} by bisection of a nondecreasing gamma.

    The bracket is [-x_k - 1, -x_1 + 1] for f's nodes x_1 < ... < x_k, and
    it is halved down to tol or to adjacent floats.  Returns the level from
    below (never overshoots the infimum), so the result is always a valid
    lower bound for the matched risk.  An empty
    level set -- t above anything gamma can reach -- yields +inf.  Gamma
    never falls below f(+inf), so for t at or below it the level set is the
    whole line and no bracket holds its infimum.
    """
    if t <= f.limit_right:
        raise BracketError("widen search bracket")
    lo, hi = -f.xs[-1] - 1.0, -f.xs[0] + 1.0
    if gamma_fn(hi) < t:
        if t > f.limit_left:
            return math.inf
        raise BracketError("widen search bracket")
    if gamma_fn(lo) >= t:
        raise BracketError("widen search bracket")
    return _bisect(lo, hi, lambda m: gamma_fn(m) < t, tol)[0]


def _bound_or_reason(t: float, f: TestFunction, gamma, tol: float):
    """(bound, None) for a test function that bounds the risk at integral t,
    else (None, reason): "bracket", "range" or "inf" (bound +inf)."""
    try:
        bound = risk_lower_bound_from_gamma(t, f, lambda m: gamma(m, f), tol=tol)
    except BracketError:
        return None, "bracket"
    except DualRangeError:
        return None, "range"
    return (None, "inf") if bound == math.inf else (bound, None)


class DualBoundReport(_Record):
    """The best bound and how many test functions gave one.

    ``skipped`` counts the functions that carried no information, by reason:
    ``"bracket"`` (``BracketError``), ``"range"`` (``DualRangeError``) and
    ``"inf"`` (an empty level set, bound +inf).  With ``informative`` they
    sum to the size of the family.
    """

    _fields = ("phi_value", "best_lower_bound", "gap", "argmax_function_index",
               "informative", "skipped")

    def __init__(self, phi_value: float, best_lower_bound: float, gap: float,
                 argmax_function_index: int, informative: int, skipped: dict):
        vars(self).update(phi_value=phi_value, best_lower_bound=best_lower_bound, gap=gap,
                          argmax_function_index=argmax_function_index,
                          informative=informative, skipped=skipped)


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
    skipped = {"bracket": 0, "range": 0, "inf": 0}
    for i, f in enumerate(fs):
        bound, reason = _bound_or_reason(stieltjes(f, p.payload), f, gamma, tol)
        if reason is not None:
            skipped[reason] += 1
        elif best is None or bound > best:
            best = bound
            best_i = i
    if best is None:
        raise BracketError("no informative test function in the family")
    informative = len(fs) - sum(skipped.values())
    return DualBoundReport(phi, best, phi - best, best_i, informative, skipped)
