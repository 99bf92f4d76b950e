"""Window-local Stieltjes integration against the full pass it replaced.

``stieltjes_full_pass`` and ``profile_pieces_full_scan`` are the routines as
they were written before the window form: one pass over every breakpoint of
the curve, and a scan of every profile node.  For integrands other than a
``TestFunction`` the summation is unchanged, so those results must agree
float for float (compared through ``repr``); a ``TestFunction`` now sums
its constant tails as two masses, so it is held to the full pass and to an
exact ``Fraction`` reference within a few ulps.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambdavar import (
    NONDECREASING,
    ExpNeg,
    Identity,
    MonotoneRC,
    constant_profile,
    from_samples,
    piecewise_profile,
    profile_gamma,
    risk_lower_bound_from_gamma,
    stieltjes,
)
from lambdavar.checks import run_suite
from lambdavar.dual import TestFunction as Ramp
from lambdavar.dual import _interp, _profile_pieces, gamma_increasing
from test_exact_reference import FracCurve, FracRamp, frac_stieltjes

# ---------- oracles ----------


def stieltjes_full_pass(g, f, a=-math.inf, b=math.inf):
    total = 0.0
    pts = f.points
    for x, l, v in pts:
        if v != l and a < x <= b:
            total += g(x) * (v - l)
    for (xa, _, va), (xb, lb, _) in zip(pts, pts[1:]):
        if lb == va:
            continue
        u = max(xa, a)
        v_ = min(xb, b)
        if u < v_:
            slope = (lb - va) / (xb - xa)
            total += slope * g.integral(u, v_)
    return total


def profile_pieces_full_scan(f, lam):
    fpts = f.points
    if len(fpts) < 2:
        return []
    inner = sorted(
        set(x for x, _ in fpts) | set(x for x in lam.xs if fpts[0][0] < x < fpts[-1][0])
    )
    pieces = []
    for p, q in zip(inner, inner[1:]):
        slope = (f(q) - f(p)) / (q - p)
        pieces.append((p, q, slope, lam(p), lam.left_limit(q)))
    return pieces


def gamma_full_scan(m, f, profile):
    upper = -m
    total = f.limit_left
    for p, q, slope, c0, c1 in profile_pieces_full_scan(f, profile.curve):
        if slope == 0.0 or p >= upper:
            continue
        if q <= upper:
            total += slope * (q - p) * (1.0 - (c0 + c1) / 2.0)
        else:
            cu = _interp(p, c0, q, c1, upper)
            total += slope * (upper - p) * (1.0 - (c0 + cu) / 2.0)
    return total


def stieltjes_fraction(g, f, a=-math.inf, b=math.inf):
    """The integral over (a, b] in exact rational arithmetic."""
    a = None if a == -math.inf else Fraction(a)
    b = None if b == math.inf else Fraction(b)
    return frac_stieltjes(FracRamp(g), FracCurve(f), a, b)


# ---------- inputs ----------

# Breakpoints and test-function nodes share one coarse grid, so nodes often
# sit exactly on breakpoints; the levels are dyadic.
GRID = [k / 4 for k in range(-12, 13)]
LEVELS = [k / 8 for k in range(9)]


@st.composite
def curves(draw):
    """A nondecreasing curve with jumps and affine pieces; tails in [0, 1]."""
    xs = sorted(draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=8, unique=True)))
    size = 2 * len(xs)
    ys = sorted(draw(st.lists(st.sampled_from(LEVELS), min_size=size, max_size=size)))
    pts = [(x, ys[2 * k], ys[2 * k + 1]) for k, x in enumerate(xs)]
    return MonotoneRC(tuple(pts), ys[0], ys[-1], NONDECREASING)


@st.composite
def ramps(draw):
    """One to five nodes: a constant, a ramp, or a nonincreasing polyline."""
    xs = sorted(
        draw(
            st.lists(
                st.one_of(st.sampled_from(GRID), st.floats(-3.5, 3.5)),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
    )
    ys = sorted(
        draw(st.lists(st.integers(-64, 64), min_size=len(xs), max_size=len(xs))),
        reverse=True,
    )
    return Ramp(tuple((x, y / 64) for x, y in zip(xs, ys)))


ENDS = st.one_of(st.sampled_from(GRID), st.floats(-3.5, 3.5))


def _ulps_close(got, want: Fraction):
    # every term is a product of values in [-1, 1]; a few rounding steps
    return abs(Fraction(got) - want) <= Fraction(1, 2 ** 48)


# ---------- the window path ----------


class TestTestFunctionIntegrand:
    @given(ramps(), curves())
    def test_whole_line(self, g, f):
        got = stieltjes(g, f)
        assert got == pytest.approx(stieltjes_full_pass(g, f), abs=1e-13)
        assert _ulps_close(got, stieltjes_fraction(g, f))

    @given(ramps(), curves(), ENDS, ENDS, st.sampled_from(["both", "left", "right"]))
    def test_finite_ends(self, g, f, a, b, which):
        a, b = min(a, b), max(a, b)
        if which == "left":
            b = math.inf
        elif which == "right":
            a = -math.inf
        got = stieltjes(g, f, a, b)
        assert got == pytest.approx(stieltjes_full_pass(g, f, a, b), abs=1e-13)
        assert _ulps_close(got, stieltjes_fraction(g, f, a, b))

    @given(st.integers(-64, 64), st.sampled_from(GRID), curves(), ENDS, ENDS)
    def test_one_node_is_a_constant(self, c, x, f, a, b):
        a, b = min(a, b), max(a, b)
        g = Ramp(((x, c / 64),))
        for lo, hi in ((-math.inf, math.inf), (a, math.inf), (-math.inf, b), (a, b)):
            mass = (f.tail_right if hi == math.inf else f(hi)) - (
                f.tail_left if lo == -math.inf else f(lo)
            )
            assert stieltjes(g, f, lo, hi) == pytest.approx(c / 64 * mass, abs=1e-15)

    def test_reversed_interval_is_empty(self):
        f = from_samples([0.0, 1.0, 2.0]).payload
        g = Ramp(((0.5, 1.0), (1.5, -1.0)))
        assert stieltjes(g, f, 2.0, 0.0) == stieltjes_full_pass(g, f, 2.0, 0.0) == 0.0

    def test_family_member_keeps_mass_at_minus_infinity_out(self):
        # a benchmark member leaves mass tail_left at -inf; the integral over
        # the real line covers only the tail_right - tail_left that it moves
        f = MonotoneRC(((0.0, 0.25, 0.5), (1.0, 0.75, 1.0)), 0.25, 1.0)
        g = Ramp(((0.25, 1.0), (0.75, 0.0)))
        # jump 0.25 at 0 weighs 1, ramp 0.5..0.75 on (0, 1), jump 0.25 at 1 weighs 0
        assert stieltjes(g, f) == 0.25 + 0.25 * 0.5
        assert stieltjes(g, f) == stieltjes_full_pass(g, f)


class TestOtherIntegrandsUnchanged:
    INTEGRANDS = st.one_of(
        st.just(Identity()),
        st.builds(ExpNeg, st.sampled_from([0.0, -1.0, 2.5])),
    )

    @given(
        INTEGRANDS,
        curves(),
        st.one_of(st.just(-math.inf), ENDS),
        st.one_of(st.just(math.inf), ENDS),
    )
    def test_bit_identical(self, g, f, a, b):
        assert repr(stieltjes(g, f, a, b)) == repr(stieltjes_full_pass(g, f, a, b))


class TestProfilePieces:
    @given(ramps(), curves())
    def test_pieces_bit_identical(self, g, lam):
        assert repr(_profile_pieces(g, lam)) == repr(profile_pieces_full_scan(g, lam))

    @given(ramps(), curves(), st.floats(-4.0, 4.0))
    def test_gamma_bit_identical(self, g, lam, m):
        if lam.sup_value >= 1.0:
            lam = MonotoneRC(
                tuple((x, l / 2, v / 2) for x, l, v in lam.points),
                lam.tail_left / 2,
                lam.tail_right / 2,
            )
        profile = piecewise_profile(lam.points, (lam.tail_left, lam.tail_right), NONDECREASING)
        want = repr(gamma_full_scan(m, g, profile))
        assert repr(gamma_increasing(m, g, profile)) == want
        assert repr(profile_gamma(profile)(m, g)) == want

    def test_gamma_cache_follows_the_function(self):
        profile = piecewise_profile(
            [(-1.0, 0.1, 0.1), (0.0, 0.2, 0.2), (1.0, 0.4, 0.4)], (0.1, 0.4), NONDECREASING
        )
        f1 = Ramp(((-1.5, 1.0), (0.5, 0.0)))
        f2 = Ramp(((-0.5, 0.5), (1.5, -0.5)))
        f1_again = Ramp(f1.points)  # equal, but a different object
        gamma = profile_gamma(profile)
        for f in (f1, f2, f1, f1_again, f2):
            for m in (-2.0, -0.25, 0.0, 0.75):
                assert repr(gamma(m, f)) == repr(gamma_full_scan(m, f, profile))


# ---------- regressions ----------


class TestDualitySandwichSeed7:
    """Trial 121 of ``check --suite duality-sandwich --seed 7``.

    The full pass summed t = 0.10937500000000003, just above sup f =
    0.109375, which forced an empty level set (+inf) and one informative
    function fewer.  The window form weighs the mass right of the ramp once
    and lands on 0.109375 exactly.
    """

    P = from_samples(
        [-7.984375, -6.8125, -6.640625, -6.5, -4.453125]
        + [-4.421875, -0.1875, 1.15625, 2.1875, 3.15625]
    )
    F = Ramp(((4.59375, 0.109375), (5.34375, -0.125)))

    def test_integral_is_exact(self):
        assert stieltjes_full_pass(self.F, self.P.payload) == 0.10937500000000003
        assert stieltjes(self.F, self.P.payload) == 0.109375 == self.F.limit_left

    def test_bound_is_finite(self):
        gamma = profile_gamma(constant_profile(0.34375))
        t = stieltjes(self.F, self.P.payload)
        bound = risk_lower_bound_from_gamma(t, self.F, lambda m: gamma(m, self.F))
        assert math.isfinite(bound)

    def test_suite_counts_it(self):
        assert run_suite("duality-sandwich", 200, 7).details == {"informative": 117}


# ---------- reads ----------


class _Recording(tuple):
    """A level column that records every index read from it into ``read``."""

    def __new__(cls, items, read):
        self = super().__new__(cls, items)
        self.read = read
        return self

    def __getitem__(self, k):
        if not isinstance(k, int):
            raise TypeError("the integration reads breakpoints one index at a time")
        self.read.add(k % len(self))
        return super().__getitem__(k)

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def _recorded(curve):
    # Both level columns share one record.  The abscissae are left alone:
    # the window is found by bisecting them.
    read = set()
    for name in ("lefts", "values"):
        object.__setattr__(curve, name, _Recording(getattr(curve, name), read))
    return curve.values


class TestReadsOnlyTheWindow:
    """Only the breakpoints in the window and the two that bracket it."""

    def test_atoms(self):
        f = from_samples(range(1000)).payload
        want = stieltjes_full_pass(Ramp(((500.5, 0.0), (510.5, -1.0))), f)
        seen = _recorded(f)
        got = stieltjes(Ramp(((500.5, 0.0), (510.5, -1.0))), f)
        assert got == pytest.approx(want, abs=1e-15)
        # breakpoints 501..510 sit in (500.5, 510.5]; 500 and 511 bracket it
        assert seen.read <= set(range(500, 512))

    def test_affine_pieces(self):
        rng = random.Random(5)
        xs = sorted(rng.sample(range(10_000), 1000))
        pts = [(float(x), k / 999, k / 999) for k, x in enumerate(xs)]
        f = MonotoneRC(tuple(pts), 0.0, 1.0)
        g = Ramp(((4000.0, 1.0), (4100.0, 0.0)))
        want = stieltjes_full_pass(g, f)
        i = sum(x <= 4000.0 for x in f.xs)
        j = sum(x <= 4100.0 for x in f.xs)
        seen = _recorded(f)
        assert stieltjes(g, f) == pytest.approx(want, abs=1e-15)
        assert seen.read and seen.read <= set(range(i - 1, j + 1))
        assert len(seen.read) < 50
