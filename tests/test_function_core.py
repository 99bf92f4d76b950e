"""Test functions on the curve columns against the node-scanning class they replaced.

The oracle below is ``TestFunction`` as it was written when it kept a tuple
of ``(x, y)`` nodes with its own collinear canonicaliser, evaluated by a
linear scan and inverted by another.  The column form must reproduce it
float for float, signed zeros included, so results are compared through
``repr``.  The one exception is a node stored as a signed zero, where the
scan interpolates from the node and may round to the other zero; the column
form returns the stored zero.  ``test_negative_zero_node_before_flat_piece``
and ``test_negative_zero_node_probed_at_negative_zero`` pin it.
"""

import math
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambdavar import dual
from lambdavar.curves import _interp
from lambdavar.exceptions import DualRangeError
from test_walk import _Recording

Fn = dual.TestFunction

# ---------- oracle ----------


@dataclass(frozen=True)
class ScanFunction:
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
    def limit_left(self):
        return self.points[0][1]

    @property
    def limit_right(self):
        return self.points[-1][1]

    def __call__(self, x):
        pts = self.points
        if x <= pts[0][0]:
            return pts[0][1]
        if x >= pts[-1][0]:
            return pts[-1][1]
        for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
            if x < xb:
                return _interp(xa, ya, xb, yb, x)
        raise AssertionError

    def integral(self, u, v):
        if v < u:
            raise ValueError("reversed integration interval")
        cuts = [u] + [x for x, _ in self.points if u < x < v] + [v]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            total += (b - a) * (self(a) + self(b)) / 2.0
        return total

    def left_inverse(self, y):
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


def outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


# ---------- inputs ----------

# Integer abscissae and dyadic ordinates make flat runs and exactly collinear
# triples common; the ordinates stay far from overflow.
XS = st.one_of(
    st.integers(-6, 6).map(float),
    st.sampled_from([-0.0, 0.5, -2.5, 1e-300]),
    st.floats(-1e3, 1e3),
)
YS = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]),
    st.floats(-1e6, 1e6),
)


@st.composite
def nodes(draw):
    xs = sorted(set(draw(st.lists(XS, min_size=1, max_size=8))))
    ys = draw(st.lists(YS, min_size=len(xs), max_size=len(xs)))
    ys.sort(reverse=True)  # stable, so the order of -0.0 and 0.0 is drawn too
    return tuple(zip(xs, ys))


def probes(pts):
    xs = [x for x, _ in pts]
    mids = [a + (b - a) / 2 for a, b in zip(xs, xs[1:])]
    return xs + mids + [xs[0] - 1.0, xs[-1] + 1.0, -0.0, 0.0, -math.inf, math.inf]


def levels(pts):
    ys = [y for _, y in pts]
    mids = [a + (b - a) / 2 for a, b in zip(ys, ys[1:])]
    edges = [ys[0] + 1.0, ys[-1] - 1.0, -0.0, 0.0, 5e-324, -math.inf, math.inf]
    return ys + mids + edges


def old_value(oracle, x):
    """The oracle's value, except at a node stored as a signed zero where the
    scan's interpolation, ``y + (x - x_node) * slope``, rounds to the other
    zero: the column form returns the stored zero, as ``MonotoneRC`` does."""
    y = oracle(x)
    for xi, yi in oracle.points:
        if x == xi and y == yi == 0.0:
            return yi
    return y


# ---------- against the oracle ----------


class TestAgainstNodeScan:
    @given(nodes())
    def test_nodes_and_limits(self, pts):
        f, old = Fn(pts), ScanFunction(pts)
        assert repr(f.points) == repr(old.points)
        assert f.xs == tuple(x for x, _ in old.points)
        limits = (f.limit_left, f.limit_right)
        assert repr(limits) == repr((old.limit_left, old.limit_right))

    @given(nodes(), XS)
    def test_call(self, pts, extra):
        f, old = Fn(pts), ScanFunction(pts)
        for x in probes(pts) + [extra]:
            assert repr(f(x)) == repr(old_value(old, x)), x

    @given(nodes(), XS, XS)
    def test_integral(self, pts, a, b):
        f, old = Fn(pts), ScanFunction(pts)
        ends = probes(pts) + [a, b]
        for u in ends:
            for v in ends:
                assert outcome(f.integral, u, v) == outcome(old.integral, u, v), (u, v)

    @given(nodes(), YS)
    def test_left_inverse(self, pts, extra):
        f, old = Fn(pts), ScanFunction(pts)
        for y in levels(pts) + [extra]:
            assert outcome(f.left_inverse, y) == outcome(old.left_inverse, y), y

    @given(st.lists(st.tuples(XS | st.just(math.nan), YS | st.just(math.inf)), max_size=5))
    def test_construction_errors(self, pts):
        new = outcome(lambda: Fn(pts).points)
        assert new == outcome(lambda: ScanFunction(pts).points)

    def test_one_node(self):
        f = Fn(((2.0, -0.5),))
        assert [f(x) for x in (-math.inf, 2.0, math.inf)] == [-0.5] * 3
        assert f.integral(0.0, 4.0) == -2.0
        assert f.left_inverse(-0.5) == -math.inf
        assert f.points == ((2.0, -0.5),)

    def test_negative_zero_node_before_flat_piece(self):
        pts = ((0.0, 1.0), (1.0, -0.0), (2.0, 0.0))
        f, old = Fn(pts), ScanFunction(pts)
        assert repr(f.points) == repr(old.points) == repr(pts)
        assert repr(old(1.0)) == "0.0"
        assert repr(f(1.0)) == "-0.0"
        assert repr(f(1.5)) == repr(old(1.5))

    @pytest.mark.parametrize("pts", [
        ((-1.0, 0.25), (0.0, -0.0), (1.0, 0.0)),
        ((-1.0, 0.0), (0.0, -0.0), (1.0, -0.25)),
    ])
    def test_negative_zero_node_probed_at_negative_zero(self, pts):
        """Both nodes store -0.0, which the column form returns at +-0.0.  At
        x = -0.0 the scan interpolates from the node to -0.0 before the flat
        piece and to +0.0 before the falling one."""
        f, old = Fn(pts), ScanFunction(pts)
        assert repr(f(-0.0)) == repr(f(0.0)) == "-0.0"
        assert repr(old(-0.0)) == ("-0.0" if pts[2][1] == 0.0 else "0.0")
        assert repr(old_value(old, -0.0)) == "-0.0"

    def test_nan_level_is_out_of_range(self):
        f = Fn(((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(AssertionError):
            ScanFunction(f.points).left_inverse(math.nan)
        with pytest.raises(DualRangeError):
            f.left_inverse(math.nan)


# ---------- cost ----------


def test_evaluation_and_inverse_read_logarithmically_many_nodes():
    n = 10_000
    # integer ordinates with second difference 2: no three nodes collinear
    f = Fn([(float(k), float((n - k) ** 2)) for k in range(n)])
    assert len(f.xs) == n
    seen = []
    for name in ("xs", "values"):
        object.__setattr__(f, name, _Recording(getattr(f, name), seen))
    budget = 2 * (n.bit_length() + 2)
    for x in (-1.0, 0.0, 0.5, 4321.0, 4321.25, n - 1.0, float(n)):
        seen.clear()
        f(x)
        assert len(seen) <= budget, x
    for y in (float(n * n) - 1.0, 2.5e7 + 0.5, 2.5e7, 2.0, 1.5, 1.0):
        seen.clear()
        f.left_inverse(y)
        assert len(seen) <= budget, y
    seen.clear()
    assert f.left_inverse(2.5e7) == 5000.0
    assert f(4321.0) == float((n - 4321) ** 2)
