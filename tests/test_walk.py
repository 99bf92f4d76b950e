"""The lazy merge walk against the set-union scans it replaced.

The oracles below are the scans as they were written before the walk: build
the sorted union of both curves' breakpoints, then evaluate each curve there
by bisection, as ``__call__`` and ``left_limit`` used to.  The walk must
reproduce them float for float, signed zeros included, so results are
compared through ``repr``.
"""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdavar import (
    NONDECREASING,
    NONINCREASING,
    Cdf,
    LossProfile,
    MonotoneRC,
    constant_profile,
    first_above,
    from_samples,
    lambda_var_flat,
    mixture,
    pointwise_leq,
)
from lambdavar.curves import _crossing_point, _interp

# ---------- oracles ----------


def value_at(curve, x):
    i = bisect.bisect_right(curve.xs, x) - 1
    if i < 0:
        return curve.tail_left
    xi, _, vi = curve.points[i]
    if x == xi or i == len(curve.points) - 1:
        return vi if x == xi else curve.tail_right
    xj, lj, _ = curve.points[i + 1]
    return _interp(xi, vi, xj, lj, x)


def left_limit_at(curve, x):
    i = bisect.bisect_left(curve.xs, x) - 1
    if i < 0:
        return curve.tail_left
    if i + 1 < len(curve.points) and curve.points[i + 1][0] == x:
        return curve.points[i + 1][1]
    xi, _, vi = curve.points[i]
    if i == len(curve.points) - 1:
        return vi
    xj, lj, _ = curve.points[i + 1]
    return _interp(xi, vi, xj, lj, x)


def merged_xs(f, g):
    return sorted(set(f.xs) | set(g.xs))


def first_above_oracle(f, g):
    if f.tail_left > g.tail_left:
        return -math.inf
    prev = None
    for x in merged_xs(f, g):
        if prev is not None and left_limit_at(f, x) > left_limit_at(g, x):
            return _crossing_point(f, g, prev, x)
        if value_at(f, x) > value_at(g, x):
            return x
        prev = x
    return None


def pointwise_leq_oracle(f, g):
    if f.tail_left > g.tail_left or f.tail_right > g.tail_right:
        return False
    for x in merged_xs(f, g):
        if left_limit_at(f, x) > left_limit_at(g, x) or value_at(f, x) > value_at(g, x):
            return False
    return True


def mixture_oracle(p, q, lam):
    if lam == 1.0:
        return p
    if lam == 0.0:
        return q
    co = 1.0 - lam
    pts = []
    for x in merged_xs(p.payload, q.payload):
        left = lam * left_limit_at(p.payload, x) + co * left_limit_at(q.payload, x)
        val = lam * value_at(p.payload, x) + co * value_at(q.payload, x)
        pts.append((x, left, val))
    return Cdf(MonotoneRC(tuple(pts), 0.0, 1.0))


def lambda_var_flat_oracle(p, profile):
    f = p.payload
    lam = profile.curve
    if f.tail_left > lam.tail_left:
        return math.inf, None
    xs = merged_xs(f, lam)
    m_star = None
    for prev, x in zip(xs, xs[1:]):
        if value_at(f, prev) > value_at(lam, prev):
            m_star = prev
            break
        if left_limit_at(f, x) > value_at(lam, x):
            m_star = _crossing_point(f, lam, prev, x)
            break
    if m_star is None:
        m_star = xs[-1]
        assert value_at(f, m_star) > value_at(lam, m_star)
    return -m_star, m_star


# ---------- curve pairs ----------

# A coarse grid makes shared breakpoints, flat stretches and parallel pieces
# common; both signs of zero appear as abscissae and as levels.
GRID = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
LEVELS = [-0.0] + [k / 8 for k in range(9)]


@st.composite
def abscissae(draw, min_size=0):
    xs = draw(st.lists(st.sampled_from(GRID), min_size=min_size, max_size=7, unique=True))
    xs.sort()
    if 0.0 in xs and draw(st.booleans()):
        xs[xs.index(0.0)] = -0.0
    return xs


@st.composite
def curves(draw, orientation=None, tails=None, continuous=False, max_level=1.0):
    """A curve with the given orientation; ``None`` draws any of the three."""
    if orientation is None:
        orientation = draw(st.sampled_from([NONDECREASING, NONINCREASING, None]))
    xs = draw(abscissae(min_size=1 if tails else 0))
    size = max(1, (1 if continuous else 2) * len(xs))
    levels = st.sampled_from([lv for lv in LEVELS if lv <= max_level])
    ys = draw(st.lists(levels, min_size=size, max_size=size))
    if orientation == NONDECREASING:
        ys.sort()
    elif orientation == NONINCREASING:
        ys.sort(reverse=True)
    if tails:
        ys[0], ys[-1] = tails
    if not xs:
        return MonotoneRC((), ys[0], ys[0], orientation)
    if continuous:
        pts = [(x, y, y) for x, y in zip(xs, ys)]
    else:
        pts = [(x, ys[2 * k], ys[2 * k + 1]) for k, x in enumerate(xs)]
    # a zero tail may carry the other sign than the level it must equal
    tl, tr = (draw(st.sampled_from([0.0, -0.0])) if y == 0.0 else y for y in (ys[0], ys[-1]))
    return MonotoneRC(tuple(pts), tl, tr, orientation)


@st.composite
def cdfs(draw):
    if draw(st.booleans()):
        return from_samples(draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=8)))
    return Cdf(draw(curves(NONDECREASING, tails=(0.0, 1.0))))


@st.composite
def parallel_pairs(draw):
    """Two ramps along one line, the second slid along it by c.

    On their overlap the pieces are parallel in exact arithmetic, so which
    curve is above there is decided by rounding alone, and the computed
    slopes often agree exactly.
    """
    y0 = draw(st.floats(0.0, 0.2))
    s = draw(st.floats(0.1, 0.3))
    c = draw(st.floats(0.05, 0.95))
    f = MonotoneRC(((0.0, y0, y0), (1.0, y0 + s, y0 + s)), y0, y0 + s)
    lo, hi = y0 + s * c, y0 + s + s * c
    g = MonotoneRC(((c, lo, lo), (1.0 + c, hi, hi)), lo, hi)
    return (f, g) if draw(st.booleans()) else (g, f)


WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.1, 0.3, 1 / 3, 0.7]),
    st.floats(0.0, 1.0),
)

SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


class TestAgainstSetUnionScan:
    @SETTINGS
    @given(curves(), curves())
    def test_first_above(self, f, g):
        assert repr(first_above(f, g)) == repr(first_above_oracle(f, g))

    @SETTINGS
    @given(parallel_pairs())
    def test_first_above_parallel_pieces(self, pair):
        assert repr(first_above(*pair)) == repr(first_above_oracle(*pair))

    @SETTINGS
    @given(curves(), curves())
    def test_pointwise_leq(self, f, g):
        assert pointwise_leq(f, g) is pointwise_leq_oracle(f, g)

    @SETTINGS
    @given(cdfs(), cdfs(), WEIGHTS)
    def test_mixture(self, p, q, lam):
        assert repr(mixture(p, q, lam)) == repr(mixture_oracle(p, q, lam))

    @SETTINGS
    @given(cdfs(), curves(NONINCREASING, continuous=True, max_level=0.875))
    def test_lambda_var_flat(self, p, curve):
        profile = LossProfile(curve)
        report = lambda_var_flat(p, profile)
        assert repr((report.value, report.violation_point)) == repr(
            lambda_var_flat_oracle(p, profile)
        )

    @SETTINGS
    @given(curves(), st.one_of(st.sampled_from(GRID + [-0.0, -2.5, 2.5]), st.floats(-3.0, 3.0)))
    def test_evaluation(self, f, x):
        assert repr((f(x), f.left_limit(x))) == repr((value_at(f, x), left_limit_at(f, x)))

    def test_shared_breakpoint_takes_first_curves_zero(self):
        f = MonotoneRC(((-0.0, 0.0, 0.5),), 0.0, 0.5)
        g = MonotoneRC(((0.0, 0.25, 0.25), (1.0, 0.75, 0.75)), 0.25, 0.75)
        assert repr(first_above(f, g)) == repr(first_above_oracle(f, g)) == "-0.0"


# ---------- early exit ----------


class _Recording(tuple):
    """A level column that records every index read from it into ``seen``."""

    def __new__(cls, items, seen):
        self = super().__new__(cls, items)
        self.seen = seen
        return self

    @property
    def highest(self):
        return max(self.seen, default=-1)

    def __getitem__(self, k):
        if not isinstance(k, int):
            raise TypeError("scans read breakpoints one index at a time")
        self.seen.append(k % len(self))
        return super().__getitem__(k)

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def _recorded(curve):
    # Both level columns share one record.  The abscissae are left alone:
    # evaluation bisects them, so their reads say nothing about the scan.
    seen = []
    for name in ("lefts", "values"):
        object.__setattr__(curve, name, _Recording(getattr(curve, name), seen))
    return curve.values


class TestEarlyExit:
    """The scans read no breakpoint past the one that decides the answer."""

    def test_atom_decides(self):
        # F jumps by 1/1000 at each of 0..999: F(99) = 0.1, F(100) = 0.101
        f = from_samples(range(1000)).payload
        deciding = f.xs.index(100.0)
        seen = _recorded(f)
        assert first_above(f, constant_profile(0.1).curve) == 100.0
        assert seen.highest == deciding < len(seen) - 1

    def test_crossing_decides(self):
        # continuous convex CDF through (k, (k / 999) ** 2) crosses 0.25 in (499, 500)
        pts = [(float(k), (k / 999) ** 2, (k / 999) ** 2) for k in range(1000)]
        f = MonotoneRC(tuple(pts), 0.0, 1.0)
        deciding = next(k for k, p in enumerate(f.points) if p[1] > 0.25)
        seen = _recorded(f)
        x = first_above(f, constant_profile(0.25).curve)
        assert 499.0 < x < 500.0
        assert seen.highest == deciding < len(seen) - 1

    def test_dominance_violation_decides(self):
        f = from_samples(range(1000)).payload
        g = MonotoneRC(((2000.0, 0.1, 1.0),), 0.1, 1.0)
        deciding = f.xs.index(100.0)
        seen = _recorded(f)
        assert not pointwise_leq(f, g)
        assert seen.highest == deciding < len(seen) - 1


def test_revalidation_fixture_is_active():
    # The raw trusted constructor accepts anything; the fixture re-validates.
    with pytest.raises(ValueError):
        MonotoneRC._trusted((0.0,), (0.5,), (0.2,), 0.5, 0.2)
    # columns must be tuples of one length
    with pytest.raises(AssertionError):
        MonotoneRC._trusted([0.0], [0.0], [1.0], 0.0, 1.0)
    with pytest.raises(AssertionError):
        MonotoneRC._trusted((0.0, 1.0), (0.0, 0.5), (0.5,), 0.0, 1.0)
