"""Columnar curve storage against the triple-based routines it replaced.

The oracles below are the routines as they were written when a curve kept a
tuple of ``(x, left_limit, value)`` triples: the sample loop of
``from_samples``, the linear scans of ``quantile_right`` and
``support_lower``, and the per-point
filters of ``truncate_left`` and ``family_member`` followed by a full
canonicalisation.  The column forms must reproduce them float for float,
signed zeros included, so results are compared through ``repr``.
"""

import json
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambdavar import (
    NONDECREASING,
    NONINCREASING,
    Cdf,
    LossProfile,
    MonotoneRC,
    family_member,
    from_samples,
    gamma_decreasing,
    piecewise_profile,
    profile_gamma,
    ramp_ladder,
    representation_bound,
    truncate_left,
    uniform,
)
from lambdavar import dual
from lambdavar.checks import suite_names
from lambdavar.cli import main
from lambdavar.curves import _clip01
from lambdavar.exceptions import InfeasibleProfileError
from test_walk import LEVELS, abscissae, cdfs, curves

# ---------- oracles ----------


def from_samples_loop(xs):
    xs = sorted(map(float, xs))
    n = len(xs)
    pts = []
    start = 0
    prev = xs[0]
    for k, x in enumerate(xs):
        if x != prev:
            # samples start .. k - 1 all equal prev
            pts.append((prev, start / n, k / n))
            start = k
            prev = x
    pts.append((prev, start / n, 1.0))
    return tuple(pts)


def quantile_right_scan(p, u):
    pts = p.payload.points
    for i, (x, l, v) in enumerate(pts):
        if v > u:
            if l <= u:
                return x
            xa, _, va = pts[i - 1]
            return xa + (u - va) * (x - xa) / (l - va)
    raise AssertionError("CDF never exceeds the requested level")


def support_lower_scan(p):
    pts = p.payload.points
    for i, (x, _, v) in enumerate(pts):
        if v > 0.0:
            return x
        if i + 1 < len(pts) and pts[i + 1][1] > 0.0:
            return x
    raise AssertionError("CDF never leaves 0")


def truncate_left_filter(g, c):
    c = float(c)
    pts = [(c, 0.0, _clip01(g(c)))]
    pts.extend(p for p in g.points if p[0] > c)
    return Cdf(MonotoneRC(tuple(pts), 0.0, 1.0))


def family_member_filter(profile, m):
    m = float(m)
    c = profile.curve
    pts = [p for p in c.points if p[0] < m]
    pts.append((m, c.left_limit(m), 1.0))
    orientation = NONDECREASING if profile.is_nondecreasing else None
    return MonotoneRC(tuple(pts), c.tail_left, 1.0, orientation)


def outcome(fn, *args):
    """repr of the result, or the type and message of the error raised."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------- from_samples ----------

SAMPLE_CASES = {
    "ties": [3.0, 1.0, 2.0, 1.0, 3.0, 3.0, -1.0],
    "zero first": [0.0, -0.0, 1.0, -0.0],
    "negative zero first": [-0.0, 0.0, -1.0, 0.0],
    "subnormals": [5e-324, -5e-324, 0.0, 1e-310, 5e-324, -0.0, 2.2250738585072014e-308],
    "single": [7.25],
    "all equal": [2.5] * 9,
    "all zeros": [0.0, -0.0, -0.0, 0.0],
    "ints": [3, 1, 2, 2],
    "extremes": [1.7976931348623157e308, -1.7976931348623157e308, 1.0],
}


class TestFromSamples:
    @pytest.mark.parametrize("xs", SAMPLE_CASES.values(), ids=SAMPLE_CASES.keys())
    def test_matches_the_loop(self, xs):
        assert repr(from_samples(xs).payload.points) == repr(from_samples_loop(xs))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-1.0, -0.0, 0.0, 0.5, 5e-324, -5e-324]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_the_loop_on_generated_lists(self, xs):
        p = from_samples(xs).payload
        assert repr(p.points) == repr(from_samples_loop(xs))
        # one float is both the value at a breakpoint and the next left limit
        assert all(v is l for v, l in zip(p.values, p.lefts[1:]))

    def test_keeps_at_most_64_bytes_per_sample(self, monkeypatch):
        monkeypatch.undo()  # measure the runtime path, not the re-validation
        n = 100_000
        rng = random.Random(11)
        xs = [rng.random() for _ in range(n)]
        tracemalloc.start()
        try:
            p = from_samples(xs)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(p.payload.xs) == n
        assert kept <= 64 * n


# ---------- quantile_right and support_lower ----------


class TestBisectedLevels:
    @given(cdfs(), st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=5))
    def test_bisection_matches_the_scan(self, p, us):
        c = p.payload
        # levels sitting exactly on a jump's ends or a piece's ends
        on_curve = [u for u in c.lefts + c.values if 0.0 < u < 1.0]
        for u in on_curve + us:
            assert repr(p.quantile_right(u)) == repr(quantile_right_scan(p, u))

    @given(cdfs())
    def test_support_lower_matches_the_scan(self, p):
        assert repr(p.support_lower) == repr(support_lower_scan(p))

    def test_levels_on_a_jump(self):
        p = from_samples([0, 1, 1, 2])
        for u, want in [(0.25, 1.0), (0.5, 1.0), (0.75, 2.0), (0.6, 1.0)]:
            assert p.quantile_right(u) == quantile_right_scan(p, u) == want


# ---------- truncate_left and family_member ----------


@st.composite
def near_lines(draw):
    """A curve whose continuous breakpoints lie on one line up to rounding.

    Interpolation on it rounds, so a new first breakpoint can come out
    exactly collinear with the two after it, and canonicalisation drops them.
    """
    xs = draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=8, unique=True))
    xs.sort()
    y0 = draw(st.floats(0.0, 0.5))
    s = draw(st.floats(0.001, 0.05))
    pts = [(x, y0 + s * (x - xs[0]), y0 + s * (x - xs[0])) for x in xs]
    pts.append((xs[-1] + 1.0, pts[-1][2], 1.0))
    g = MonotoneRC(tuple(pts), y0, 1.0)
    c = draw(st.one_of(st.sampled_from(xs), st.floats(xs[0] - 1.0, xs[-1] + 2.0)))
    return g, c


@st.composite
def reaching_one(draw):
    """A curve with tail_right 1: a CDF, or a boundary of no orientation."""
    if draw(st.booleans()):
        return draw(curves(NONDECREASING, tails=(0.0, 1.0)))
    xs = draw(abscissae(min_size=1))
    ys = draw(st.lists(st.sampled_from(LEVELS), min_size=2 * len(xs), max_size=2 * len(xs)))
    ys[-1] = 1.0
    pts = [(x, ys[2 * k], ys[2 * k + 1]) for k, x in enumerate(xs)]
    return MonotoneRC(tuple(pts), ys[0], 1.0, None)


class TestTruncateLeft:
    @given(near_lines())
    def test_matches_the_filter_near_lines(self, case):
        g, c = case
        assert outcome(truncate_left, g, c) == outcome(truncate_left_filter, g, c)

    @given(
        reaching_one(),
        st.sampled_from([-3.0, -2.0, -1.25, -0.0, 0.0, 0.75, 1.0, 2.0, 3.0]),
    )
    def test_matches_the_filter_on_any_orientation(self, g, c):
        assert outcome(truncate_left, g, c) == outcome(truncate_left_filter, g, c)

    def test_drops_chain_from_the_new_first_breakpoint(self):
        # g's breakpoints lie on one line up to rounding and none is collinear
        # with its own neighbours; the rounded level at c makes the new first
        # breakpoint collinear with the next two, and then again after the
        # drop, so two breakpoints go.
        pts = (
            (-1.0833380675343722, 0.037812627043626534, 0.037812627043626534),
            (-0.7044042369968881, 0.056563735514367545, 0.056563735514367545),
            (2.263468007822379, 0.20342550900915377, 0.20342550900915377),
            (3.3722797956280512, 0.2582937958477546, 0.2582937958477546),
            (4.372279795628051, 0.2582937958477546, 1.0),
        )
        g = MonotoneRC(pts, pts[0][1], 1.0)
        c = -1.0736199735447753
        assert len(g.xs) == 5
        q = truncate_left(g, c)
        assert repr(q) == repr(truncate_left_filter(g, c))
        assert q.payload.xs == (c, pts[3][0], pts[4][0])

    def test_uniform_below_its_support_is_unchanged(self):
        # the new first breakpoint sits on the flat 0 tail and merges into it
        assert truncate_left(uniform(0, 1).payload, -1.0) == uniform(0, 1)


class TestFamilyMember:
    @given(
        st.sampled_from([NONDECREASING, NONINCREASING]).flatmap(
            lambda orientation: curves(orientation, max_level=0.875)
        ),
        st.sampled_from([-3.0, -2.0, -1.25, -0.0, 0.0, 0.75, 1.0, 2.0, 3.0]),
    )
    def test_matches_the_filter(self, curve, m):
        profile = LossProfile(curve)
        assert outcome(family_member, profile, m) == outcome(family_member_filter, profile, m)


# ---------- the flat gamma checks its profile once ----------


def _decreasing_ramp(nodes, top=0.2):
    xs = [-4.0 + 8.0 * k / (nodes - 1) for k in range(nodes)]
    levels = [top * (1.0 - k / nodes) ** 2 for k in range(nodes)]
    return piecewise_profile(
        [(x, y, y) for x, y in zip(xs, levels)], (levels[0], levels[-1]), NONINCREASING
    )


class TestFlatGammaChecks:
    def test_checks_once_and_floats_unchanged(self, monkeypatch):
        profile = _decreasing_ramp(256)
        rng = random.Random(2)
        p = from_samples([rng.gauss(0.0, 1.0) for _ in range(2000)])
        fs = ramp_ladder(p, 40, 0.05)
        def risk(q):
            # a fixed primal value keeps lambda_var's own check out of the count
            return 1.5

        want = representation_bound(p, risk, fs, lambda m, f: gamma_decreasing(m, f, profile))

        counts = {"require_feasible": 0, "is_nonincreasing": 0, "is_continuous": 0}
        calls = [0]

        def counted(name):
            original = getattr(LossProfile, name)
            if isinstance(original, property):
                def get(self):
                    counts[name] += 1
                    return original.fget(self)
                return property(get)

            def method(self):
                counts[name] += 1
                return original(self)
            return method

        for name in counts:
            monkeypatch.setattr(LossProfile, name, counted(name))
        gamma = profile_gamma(profile)

        def gamma_counted(m, f):
            calls[0] += 1
            return gamma(m, f)

        got = representation_bound(p, risk, fs, gamma_counted)
        assert repr(got) == repr(want)
        assert calls[0] > 500
        assert counts == {"require_feasible": 1, "is_nonincreasing": 1, "is_continuous": 1}

    def test_errors_unchanged(self):
        f = ramp_ladder(from_samples([0.0, 1.0]), 1, 0.5)[0]
        steps = piecewise_profile([(0.0, 0.3, 0.1)], (0.3, 0.1), NONINCREASING)
        infeasible = piecewise_profile([(0.0, 1.0, 0.5), (1.0, 0.5, 0.5)], (1.0, 0.5), NONINCREASING)
        for profile, error in [(steps, ValueError), (infeasible, InfeasibleProfileError)]:
            with pytest.raises(error) as want:
                gamma_decreasing(0.0, f, profile)
            for _ in range(2):  # a failed check is not remembered as passed
                with pytest.raises(error) as got:
                    profile_gamma(profile)  # checked when it is built
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)


# ---------- the runtime path never builds the triples ----------


def test_columns_replace_the_triples():
    names = list(MonotoneRC._fields)
    assert names == ["xs", "lefts", "values", "tail_left", "tail_right", "orientation"]
    c = MonotoneRC(((0.0, 0.0, 0.5), (1.0, 0.5, 1.0)), 0.0, 1.0)
    assert repr(c) == (
        "MonotoneRC(xs=(0.0, 1.0), lefts=(0.0, 0.5), values=(0.5, 1.0), "
        "tail_left=0.0, tail_right=1.0, orientation='nondecreasing')"
    )
    assert c.points == ((0.0, 0.0, 0.5), (1.0, 0.5, 1.0))
    assert (c.xs, c.lefts, c.values) == ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0))


def test_no_command_reads_the_triples(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the triples were built at run time")

    monkeypatch.setattr(MonotoneRC, "points", property(refuse))
    monkeypatch.setattr(dual.TestFunction, "points", property(refuse))
    rng = random.Random(4)
    data = tmp_path / "x.csv"
    data.write_text("value\n" + "\n".join(repr(rng.gauss(0.0, 1.0)) for _ in range(500)))
    profiles = {
        "step": {"type": "step", "lambda_min": 0.01, "lambda_max": 0.05, "threshold": -1.0},
        "ramp": {
            "type": "piecewise",
            "points": [[-2.0, 0.01, 0.01], [0.0, 0.02, 0.02], [2.0, 0.05, 0.05]],
            "tails": [0.01, 0.05],
            "orientation": "nondecreasing",
        },
        "decreasing": {
            "type": "piecewise",
            "points": [[-2.0, 0.2, 0.2], [2.0, 0.02, 0.02]],
            "tails": [0.2, 0.02],
            "orientation": "nonincreasing",
        },
    }
    commands = []
    for name, obj in profiles.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        commands.append(["compute", "--data", str(data), "--measure", "lambda-var",
                         "--profile", str(path)])
        commands.append(["duality", "--data", str(data), "--profile", str(path),
                         "--functions", "20", "--delta", "0.2"])
        commands.append(["plot", "--data", str(data), "--profile", str(path),
                         "--out", str(tmp_path / f"{name}.svg")])
    commands.append(["compute", "--data", str(data), "--measure", "var", "--lambda", "0.05"])
    for measure in ("worst-case", "entropic", "certainty-eq"):
        commands.append(["compute", "--data", str(data), "--measure", measure])
    for suite in suite_names():
        commands.append(["check", "--suite", suite, "--trials", "20", "--seed", "3"])
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
