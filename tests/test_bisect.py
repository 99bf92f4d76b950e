"""One bisection rule: ``curves._bisect`` halving at ``curves._midpoint``.

The dual bound, the certainty equivalent and the family oracle each halved a
bracket in a loop of their own; the three loops are copied here as oracles.
Wherever the old midpoint ``0.5 * (lo + hi)`` stayed finite, ``_bisect``
returns their floats, by ``repr``, with no more predicate calls: it stops
where a midpoint is no longer strictly inside.  From there the old loops of
the dual bound and the oracle only spun without moving, since each checks
first that the predicate holds at lo and fails at hi.  Where the old
midpoint overflowed, the pinned probes below show what ``duality`` and
``risk_from_family`` answer now.

The reference dual bound ``oracles.risk_lower_bound`` halved in a fixed
100-step loop of its own, and the three check-profile generators and
``MonotoneRC.jump`` each wrote out a rule that now has one home; the old
bodies are copied at the end as oracles too.
"""

import bisect
import math
import random
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lambdavar import (
    NONDECREASING, NONINCREASING, AcceptanceFamily, MonotoneRC, constant_profile, from_samples,
    lambda_var, piecewise_profile, profile_gamma, ramp_ladder, representation_bound,
    risk_from_family, risk_lower_bound, risk_lower_bound_from_gamma, step_profile, stieltjes,
    uniform,
)
from lambdavar import TestFunction as Ramp
from lambdavar.checks import (
    GRAIN, random_empirical, random_mixed_profile, random_profile, random_ramp_profile,
    random_step_stack, random_test_function,
)
from lambdavar.curves import _bisect, _midpoint, _reject_nan
from lambdavar.dual import _profile_pieces, _require_gamma
from lambdavar.exceptions import BracketError, DualRangeError
from test_cli import run_report, write
from test_function_core import outcome

MAX = sys.float_info.max


# ---------- the loops _bisect replaced ----------


def old_dual_loop(lo, hi, upper, tol):
    """risk_lower_bound_from_gamma's loop; ``upper(m)`` was gamma(m) >= t."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if upper(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def old_midpoint(lo, hi):
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else lo / 2 + hi / 2


def old_certainty_loop(lo, hi, below):
    """certainty_equivalent's loop; ``below(x)`` was f(x) >= integral."""
    for _ in range(200):
        mid = old_midpoint(lo, hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def old_family_loop(lo, hi, below, tol):
    """risk_from_family's loop and its answer; ``below(m)`` was membership."""
    for _ in range(200):
        if hi - lo <= 0.5 * tol:
            break
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return -0.5 * (lo + hi)


def old_risk_lower_bound_from_gamma(t, f, gamma_fn, tol=1e-9):
    lo, hi = -f.xs[-1] - 1.0, -f.xs[0] + 1.0
    if t <= f.limit_right:
        raise BracketError("widen search bracket")
    if gamma_fn(hi) < t:
        if t > f.limit_left:
            return math.inf
        raise BracketError("widen search bracket")
    if gamma_fn(lo) >= t:
        raise BracketError("widen search bracket")
    return old_dual_loop(lo, hi, lambda m: gamma_fn(m) >= t, tol)[0]


class Counted:
    """A threshold predicate that counts its calls."""

    def __init__(self, cut, strict):
        self.cut, self.strict, self.calls = cut, strict, 0

    def __call__(self, x):
        self.calls += 1
        return x < self.cut if self.strict else x <= self.cut


# ---------- derandomised brackets ----------

MAGNITUDE = st.sampled_from([1e-300, 1e-9, 1.0, 1e8, 1e100, 1e300])


@st.composite
def brackets(draw, held=True):
    """(lo, hi, cut, strict): lo < hi finite, up to 1e300 in magnitude; some
    brackets are two adjacent floats.  If ``held``, the predicate holds at lo
    and not at hi, as each caller checks before it bisects; else its cut may
    also lie outside the bracket."""
    scale = draw(MAGNITUDE)
    lo = draw(st.floats(-1.0, 1.0)) * scale
    if draw(st.booleans()):
        hi = math.nextafter(lo, math.inf)
    else:
        hi = lo + draw(st.floats(1e-3, 2.0)) * scale
    assume(lo < hi and math.isfinite(hi))
    if not held:
        cut = draw(st.sampled_from([lo, hi, lo - scale, hi + scale]) | st.floats(lo, hi))
        return lo, hi, cut, draw(st.booleans())
    cut = draw(st.sampled_from([lo, hi]) | st.floats(lo, hi))
    strict = cut == hi or (cut != lo and draw(st.booleans()))
    return lo, hi, cut, strict


TOLS = st.sampled_from([0.0, 1e-9, 1e-3])


@given(brackets(), TOLS)
def test_matches_the_dual_loop(bracket, tol):
    lo, hi, cut, strict = bracket
    old, new = Counted(cut, strict), Counted(cut, strict)
    # gamma(m) >= t held on the upper side of the cut
    want = old_dual_loop(lo, hi, lambda m: not old(m), tol)
    got = _bisect(lo, hi, new, tol)
    assert repr(got) == repr(want)
    assert new.calls <= old.calls


@given(brackets(held=False))
def test_matches_the_certainty_loop(bracket):
    """That loop already stopped at adjacent floats, so it agrees anywhere."""
    lo, hi, cut, strict = bracket
    old, new = Counted(cut, strict), Counted(cut, strict)
    want = old_certainty_loop(lo, hi, old)
    got = _bisect(lo, hi, new)
    assert repr(got) == repr(want)
    assert repr(_midpoint(*got)) == repr(old_midpoint(*want))
    assert new.calls <= old.calls


@given(brackets(), TOLS)
def test_matches_the_family_loop(bracket, tol):
    lo, hi, cut, strict = bracket
    old, new = Counted(cut, strict), Counted(cut, strict)
    want = old_family_loop(lo, hi, old, tol)
    got = -_midpoint(*_bisect(lo, hi, new, 0.5 * tol))
    assert repr(got) == repr(want)
    assert new.calls <= old.calls


def test_stops_at_adjacent_floats_where_the_old_loop_spun():
    lo, hi = 1e8, 1e8 + 1.0
    old, new = Counted(1e8 + 0.3, True), Counted(1e8 + 0.3, True)
    assert _bisect(lo, hi, new, 1e-9) == old_dual_loop(lo, hi, lambda m: not old(m), 1e-9)
    assert old.calls == 200
    assert new.calls < 60


def test_a_bracket_wider_than_the_float_range_keeps_its_midpoints_finite():
    seen = []

    def below(m):
        seen.append(m)
        return m < 1.3e308

    lo, hi = _bisect(-MAX, MAX, below)
    assert all(math.isfinite(m) for m in seen)
    assert lo < 1.3e308 <= hi and math.nextafter(lo, math.inf) == hi
    assert _midpoint(MAX, MAX) == MAX and _midpoint(-MAX, -MAX) == -MAX


# ---------- the probes where the old midpoint overflowed ----------


@pytest.mark.parametrize("samples, want", [
    ("1e308\n1.5e308\n", -1.0210555555555558e308),
    ("-1e308\n-1.5e308\n", 1.4789444444444443e308),
])
def test_duality_near_the_float_range(tmp_path, capsys, samples, want):
    """With the overflowing midpoint, the first exited 4 with no informative
    function, and the second answered 1.4745e+308, its first bracket end."""
    data = write(tmp_path, "d.csv", samples)
    prof = write(tmp_path, "c.json", '{"type": "constant", "lambda": 0.1}')
    r = run_report(capsys, "duality", "--data", data, "--profile", prof,
                   "--functions", "20", "--delta", "1e306")
    assert r["diagnostics"]["informative_functions"] == 20
    assert r["best_lower_bound"] == want
    assert r["best_lower_bound"] <= r["phi_value"]


@pytest.mark.parametrize("samples", [[1e308, 1.5e308], [-1e308, -1.5e308]])
def test_each_ladder_bound_is_the_last_float_below_the_level(samples):
    p = from_samples(samples)
    gamma = profile_gamma(constant_profile(0.1))
    for f in ramp_ladder(p, 20, 1e306):
        t = stieltjes(f, p.payload)
        b = risk_lower_bound_from_gamma(t, f, lambda m: gamma(m, f))
        up = math.nextafter(b, math.inf)
        assert up - b > 1e-9
        assert gamma(b, f) < t <= gamma(up, f)


def test_a_ladder_at_1e8_makes_no_more_gamma_calls_and_the_same_bounds():
    prof = step_profile(0.05, 0.3, 0.0)
    gamma = profile_gamma(prof)
    calls = {}
    for shift in (0.0, 1e8):  # p and fs stay at the 1e8 shift
        rng = random.Random(18)
        p = from_samples([rng.gauss(0.0, 1.0) + shift for _ in range(2000)])
        fs = ramp_ladder(p, 200, 0.01)
        count = [0]

        def counted(m, f):
            count[0] += 1
            return gamma(m, f)

        report = representation_bound(p, lambda q: lambda_var(q, prof).value, fs, counted)
        calls[shift] = count[0]
    assert report.informative > 0
    assert calls[1e8] <= calls[0.0]
    for f in fs:
        t = stieltjes(f, p.payload)
        fn = lambda m: gamma(m, f)
        try:
            want = old_risk_lower_bound_from_gamma(t, f, fn)
        except BracketError:
            with pytest.raises(BracketError):
                risk_lower_bound_from_gamma(t, f, fn)
            continue
        assert repr(risk_lower_bound_from_gamma(t, f, fn)) == repr(want)


@pytest.mark.parametrize("a, b, want", [
    (-1e308, 1e308, 6e307),
    (1e308, 1.5e308, -1.3e308),
    (-1.7e308, -1e308, 1.56e308),
])
def test_family_oracle_near_the_float_range(a, b, want):
    """The default bracket stays inside the float range, and so do the
    midpoints of a bracket of +-MAX."""
    p, prof = uniform(a, b), step_profile(0.2, 0.6, 0.0)
    family = AcceptanceFamily.from_profile(prof)
    assert lambda_var(p, prof).value == want
    assert risk_from_family(p, family) == want
    assert risk_from_family(p, family, -MAX, MAX) == want


# ---------- the reference dual bound, the check profiles and the jump ----------


def old_risk_lower_bound(t, f, profile, steps=100):
    """oracles.risk_lower_bound with its fixed loop of 100 halvings."""
    _require_gamma(profile, True)
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

            for _ in range(steps):
                mid = 0.5 * (lo_w + hi_w)
                if h_at(mid) <= y:
                    hi_w = mid
                else:
                    lo_w = mid
            return -(p + hi_w)
        h_p = h_q
    raise AssertionError("dual variable inside range but never bracketed")


SEEDS = st.integers(0, 2**32 - 1)
NONDECREASING_DRAWS = [random_step_stack, random_ramp_profile, random_mixed_profile]


@given(SEEDS, st.sampled_from(NONDECREASING_DRAWS + [random_profile]), st.floats(0.0, 1.0))
def test_risk_lower_bound_matches_its_100_step_loop(seed, draw, frac):
    """Every level of the test function's range and some outside it; a
    nonincreasing profile from ``random_profile`` raises in both.

    The old loop left its root on a grid of (q - p) * 2**-100.  Where that
    grid is coarser than the floats near the root (a root below about
    (q - p) * 2**-48 in a piece that starts at 0.0), ``_bisect`` goes on
    toward the exact crossing: the bound is then higher, and it is what the
    old loop gives with ``_bisect``'s cap of 200 halvings."""
    rng = random.Random(seed)
    prof, f, p = draw(rng), random_test_function(rng), random_empirical(rng)
    lo, hi = f.limit_right, f.limit_left
    for t in (stieltjes(f, p.payload), lo + frac * (hi - lo), lo, hi, (lo + hi) / 2,
              math.nextafter(hi, -math.inf), hi + 1.0, lo - 1.0):
        new, old = outcome(risk_lower_bound, t, f, prof), outcome(old_risk_lower_bound, t, f, prof)
        if new != old:
            assert float(new[1]) > float(old[1]), t
            assert new == outcome(old_risk_lower_bound, t, f, prof, 200), t


def test_risk_lower_bound_goes_past_the_old_grid_to_the_crossing():
    """h(w) = -0.75 w on [0, 1] crosses y = -2**-53 at w = 2**-51 / 3.  The
    old loop stopped on the grid 2**-100, 11 ulps past it: its bound was lower."""
    f, prof = Ramp(((0.0, 1.0), (1.0, 0.0))), constant_profile(0.25)
    t = math.nextafter(1.0, -math.inf)
    crossing, grid = float.fromhex("0x1.5555555555555p-53"), float.fromhex("0x1.5555555555560p-53")
    assert risk_lower_bound(t, f, prof) == -crossing
    assert old_risk_lower_bound(t, f, prof) == -grid
    assert old_risk_lower_bound(t, f, prof, 200) == -crossing
    assert -0.75 * crossing <= t - f.limit_left < -0.75 * math.nextafter(crossing, 0.0)


def old_step_stack(rng, orientation=NONDECREASING, jumps=4, cap=60):
    k = rng.randint(0, jumps)
    if k == 0:
        return constant_profile(rng.randint(0, cap) / GRAIN)
    xs = sorted(rng.sample(range(-8 * GRAIN, 8 * GRAIN), k))
    levels = sorted(rng.randint(0, cap) / GRAIN for _ in range(k + 1))
    if orientation == NONINCREASING:
        levels = levels[::-1]
    pts = [(x / GRAIN, levels[i], levels[i + 1]) for i, x in enumerate(xs)]
    return piecewise_profile(pts, (levels[0], levels[-1]), orientation)


def old_ramp_profile(rng, orientation=NONDECREASING, cap=60):
    k = rng.randint(2, 5)
    xs = sorted(rng.sample(range(-8 * GRAIN, 8 * GRAIN), k))
    levels = sorted(rng.randint(0, cap) / GRAIN for _ in range(k))
    if orientation == NONINCREASING:
        levels = levels[::-1]
    pts = [(x / GRAIN, levels[i], levels[i]) for i, x in enumerate(xs)]
    return piecewise_profile(pts, (levels[0], levels[-1]), orientation)


def old_mixed_profile(rng, orientation=NONDECREASING, cap=60):
    k = rng.randint(1, 5)
    xs = sorted(rng.sample(range(-8 * GRAIN, 8 * GRAIN), k))
    chain = sorted(rng.randint(0, cap) / GRAIN for _ in range(2 * k))
    if orientation == NONINCREASING:
        chain = chain[::-1]
    pts = [(x / GRAIN, chain[2 * i], chain[2 * i + 1]) for i, x in enumerate(xs)]
    return piecewise_profile(pts, (chain[0], chain[-1]), orientation)


@given(SEEDS, st.sampled_from([NONDECREASING, NONINCREASING]), st.sampled_from([40, 60]),
       st.integers(0, 6))
def test_profile_draws_match_the_three_generators(seed, orientation, cap, jumps):
    """The same profile from the same rng calls: the rng ends in one state."""
    pairs = [
        (lambda r: random_step_stack(r, orientation, jumps, cap),
         lambda r: old_step_stack(r, orientation, jumps, cap)),
        (lambda r: random_ramp_profile(r, orientation, cap),
         lambda r: old_ramp_profile(r, orientation, cap)),
        (lambda r: random_mixed_profile(r, orientation, cap),
         lambda r: old_mixed_profile(r, orientation, cap)),
    ]
    for new, old in pairs:
        r_new, r_old = random.Random(seed), random.Random(seed)
        assert outcome(new, r_new) == outcome(old, r_old)
        assert r_new.getstate() == r_old.getstate()


def old_jump(c, x):
    i = bisect.bisect_left(c.xs, x)
    if i < len(c.xs) and c.xs[i] == x:
        return c.values[i] - c.lefts[i]
    _reject_nan(x)
    return 0.0


def assert_jumps_agree(c, probes):
    """By ``repr``: a zero level is stored as +0.0, so no tail meets its end
    breakpoint's level as the other signed zero."""
    for x in probes:
        assert outcome(c.jump, x) == outcome(old_jump, c, x), x


SIGNED_LEVELS = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0])
WIDE_XS = st.sampled_from([-MAX, -1e308, -1.0, -0.0, 0.0, 0.5, 1e308, MAX]) | st.integers(-4, 4)
WIDE_PROBES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, MAX, -MAX]


@given(st.lists(WIDE_XS, min_size=1, max_size=4), st.lists(SIGNED_LEVELS, min_size=10,
       max_size=10), st.sampled_from([NONDECREASING, NONINCREASING]), st.booleans(), st.booleans())
def test_jump_matches_its_old_body(xs, levels, orientation, flip_left, flip_right):
    """Breakpoints, midpoints, signed zeros, infinities and NaN, on curves up
    to the float range wide, with the tails' zeros of either sign."""
    xs = sorted({float(x) for x in xs})
    chain = sorted(levels[:2 * len(xs)], reverse=orientation == NONINCREASING)
    tl, tr = chain[0], chain[-1]
    tl, tr = (-tl if flip_left and tl == 0.0 else tl), (-tr if flip_right and tr == 0.0 else tr)
    try:
        c = MonotoneRC([(x, chain[2 * i], chain[2 * i + 1]) for i, x in enumerate(xs)], tl, tr,
                       orientation)
    except ValueError:
        return
    mids = [_midpoint(a, b) for a, b in zip(c.xs, c.xs[1:])]
    assert_jumps_agree(c, [*c.xs, *mids, *WIDE_PROBES])


@pytest.mark.parametrize("seed", range(6))
def test_jump_on_a_lazy_curve_matches_its_old_body(seed):
    rng = random.Random(seed)
    xs = [rng.gauss(0.0, 1.0) for _ in range(1500)] + [0.0, -0.0] * 3
    picks = sorted(xs)[:3] + sorted(xs)[-3:]
    for x in [*picks, 0.0, -0.0, 2.5, *WIDE_PROBES]:
        new, old = from_samples(xs).payload, from_samples(xs).payload
        assert outcome(new.jump, x) == outcome(old_jump, old, x)
