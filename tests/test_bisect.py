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
"""

import math
import random
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lambdavar import (
    AcceptanceFamily, constant_profile, from_samples, lambda_var, profile_gamma, ramp_ladder,
    representation_bound, risk_from_family, risk_lower_bound_from_gamma, step_profile,
    stieltjes, uniform,
)
from lambdavar.curves import _bisect, _midpoint
from lambdavar.exceptions import BracketError
from test_cli import run_report, write

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
