"""One copy of each rule in the curve core.

``_interp`` is the one segment formula: ``_solve_level`` is the same
expression with the axes swapped, and a span wider than the float range is
halved before it is used.  On finite spans both keep the floats of the two
expressions they replaced, copied here as oracles; on spans that overflow
they agree with the exact ``Fraction`` reference, and so do ``stieltjes`` and
``TestFunction.integral``.
``_check_monotone`` judges the chain of levels in one pass and names the
error the loop it replaced named.  A lazy curve may be completed by several
threads at once.
The wide-span commands and the two check seeds that changed are pinned
through ``main``.
"""

import bisect
import json
import math
import random
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lambdavar import mixture, piecewise_cdf, stieltjes, uniform
from lambdavar import TestFunction as Ramp
from lambdavar.curves import MonotoneRC, _interp, _solve_level
from test_cli import run_cli, run_report, write
from test_exact_reference import FracCurve, FracRamp, frac_stieltjes
from test_package import python

MAX = sys.float_info.max


# ---------- the two expressions the fold replaced ----------


def interp_before(xa, ya, xb, yb, x):
    return ya + (x - xa) * (yb - ya) / (xb - xa)


def solve_level_before(piece, level):
    xa, ya, xb, yb = piece
    span = xb - xa
    if math.isfinite(span):
        return xa + (level - ya) * span / (yb - ya)
    half = (level - ya) * (xb / 2 - xa / 2) / (yb - ya)
    return xa + half + half


finite = st.floats(allow_nan=False, allow_infinity=False)
levels = st.floats(min_value=0.0, max_value=1.0)


@given(finite, finite, finite, finite, finite)
def test_interp_keeps_its_floats_on_finite_spans(xa, ya, xb, yb, x):
    assume(xa < xb and math.isfinite(xb - xa) and math.isfinite(yb - ya))
    assert repr(_interp(xa, ya, xb, yb, x)) == repr(interp_before(xa, ya, xb, yb, x))


@given(finite, levels, finite, levels, levels)
def test_solve_level_keeps_its_floats_on_finite_spans(xa, ya, xb, yb, level):
    assume(xa < xb and math.isfinite(xb - xa) and ya != yb)
    piece = (xa, ya, xb, yb)
    assert repr(_solve_level(piece, level)) == repr(solve_level_before(piece, level))


@given(st.floats(min_value=-MAX, max_value=-MAX / 2), st.floats(min_value=MAX / 2, max_value=MAX),
       levels, levels, levels)
def test_solve_level_keeps_the_halved_floats_of_an_overflowed_span(xa, xb, ya, yb, level):
    assume(ya != yb)
    piece = (xa, ya, xb, yb)
    assert repr(_solve_level(piece, level)) == repr(solve_level_before(piece, level))


# ---------- spans that overflow, against the exact reference ----------


low = st.floats(min_value=-MAX, max_value=-MAX / 2)
high = st.floats(min_value=MAX / 2, max_value=MAX)


@st.composite
def wide_cdfs(draw):
    """A CDF that rises on a piece wider than the float range: the piece
    from its last breakpoint below -MAX / 2 to its first above MAX / 2."""
    lows = draw(st.lists(low, min_size=1, max_size=3, unique=True))
    highs = draw(st.lists(high, min_size=1, max_size=3, unique=True))
    xs = sorted(lows) + sorted(highs)
    chain = [0.0, *sorted(draw(st.lists(levels, min_size=2 * len(xs) - 2,
                                        max_size=2 * len(xs) - 2))), 1.0]
    k = len(lows)  # the piece ends at xs[k], where the chain's left limit sits at 2k
    assume(chain[2 * k - 1] < chain[2 * k])
    return piecewise_cdf([(x, chain[2 * i], chain[2 * i + 1]) for i, x in enumerate(xs)])


def within_8_ulps(got, want, ends):
    return abs(Fraction(got) - want) <= 8 * Fraction(math.ulp(max(map(abs, ends))))


def segment_ends(c, x):
    k = bisect.bisect_right(c.xs, x)
    return (c.values[k - 1], c.lefts[k]) if 0 < k < len(c.xs) else (1.0,)


@given(wide_cdfs(), st.floats(min_value=-MAX, max_value=MAX))
def test_value_on_an_overflowed_span_matches_the_reference(f, x):
    c = f.payload
    assert within_8_ulps(c(x), FracCurve(c).value(Fraction(x)), segment_ends(c, x))


@given(wide_cdfs(), wide_cdfs(), st.sampled_from([0.25, 0.5, 0.75]),
       st.floats(min_value=-MAX, max_value=MAX))
def test_mixture_of_overflowed_spans_matches_the_reference(f, g, lam, x):
    c = mixture(f, g, lam).payload
    want = (Fraction(lam) * FracCurve(f.payload).value(Fraction(x))
            + (1 - Fraction(lam)) * FracCurve(g.payload).value(Fraction(x)))
    assert within_8_ulps(c(x), want, segment_ends(c, x))


def exact_quantile(c, u):
    """sup{x : F(x) <= u}, from the breakpoints in rational arithmetic."""
    u = Fraction(u)
    points = FracCurve(c).points
    i = next(i for i, (_, _, v) in enumerate(points) if v > u)
    x, l, _ = points[i]
    if l <= u:
        return x
    xa, _, va = points[i - 1]
    return xa + (u - va) * (x - xa) / (l - va)


@given(wide_cdfs(), st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_quantile_on_an_overflowed_span_matches_the_reference(f, u):
    c = f.payload
    i = bisect.bisect_right(c.values, u)
    ends = c.xs[max(i - 1, 0):i + 1]
    assert within_8_ulps(f.quantile_right(u), exact_quantile(c, u), ends)


@st.composite
def ramps(draw):
    """A test function with nodes in [-MAX/4, MAX/4] and values in [-1, 1], so
    that its own trapezoids stay in the float range."""
    xs = sorted(draw(st.lists(st.floats(min_value=-MAX / 4, max_value=MAX / 4),
                              min_size=1, max_size=4, unique=True)))
    ys = sorted(draw(st.lists(st.integers(-8, 8), min_size=len(xs), max_size=len(xs))),
                reverse=True)
    return Ramp([(x, y / 8) for x, y in zip(xs, ys)])


@st.composite
def wide_ramps(draw):
    """A test function with nodes anywhere in the float range and values in
    [-1/4, 1/4], so that every exact integral of it stays in the float range
    while a trapezoid's width can leave it."""
    xs = sorted(draw(st.lists(st.floats(min_value=-MAX, max_value=MAX),
                              min_size=1, max_size=4, unique=True)))
    ys = sorted(draw(st.lists(st.integers(-8, 8), min_size=len(xs), max_size=len(xs))),
                reverse=True)
    return Ramp([(x, y / 32) for x, y in zip(xs, ys)])


def integral_before(g, u, v):
    xs = g.xs
    cuts = [u, *xs[bisect.bisect_right(xs, u):bisect.bisect_left(xs, v)], v]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        total += (b - a) * (g(a) + g(b)) / 2.0
    return total


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=4), finite, finite)
def test_integral_keeps_its_floats_where_they_are_finite(nodes, u, v):
    xs = sorted({x for x, _ in nodes})
    ys = sorted((y for _, y in nodes), reverse=True)[:len(xs)]
    u, v = sorted((u, v))
    g = Ramp(zip(xs, ys))
    before = integral_before(g, u, v)
    assume(math.isfinite(before))
    assert repr(g.integral(u, v)) == repr(before)


@given(wide_ramps(), low | st.floats(min_value=-MAX, max_value=MAX),
       high | st.floats(min_value=-MAX, max_value=MAX))
def test_integral_over_the_float_range_matches_the_reference(g, u, v):
    u, v = sorted((u, v))
    want = FracRamp(g).integral(Fraction(u), Fraction(v))
    scale = (Fraction(v) - Fraction(u)) * Fraction(max(abs(y) for y in g.values))
    assert abs(Fraction(g.integral(u, v)) - want) <= scale / 2 ** 46 + Fraction(1, 2 ** 1060)


@pytest.mark.parametrize("reach, ends, integral", [
    (1e308, (1.0, 0.5), 1.5e308),
    (1e308, (1.0, -1.0), 0.0),
    (0.75e308, (1.0, 0.5), 1.125e308),
    (0.75e308, (-0.5, -1.0), -1.125e308),
], ids=["positive", "symmetric", "product", "negative-product"])
def test_a_ramp_wider_than_the_float_range(reach, ends, integral):
    # the products: the width is finite, the width times the sum of the ends is not
    g = Ramp([(-reach, ends[0]), (reach, ends[1])])
    assert g.integral(-reach, reach) == integral
    assert integral == float(FracRamp(g).integral(Fraction(-reach), Fraction(reach)))
    c = uniform(-reach, reach).payload
    mass = frac_stieltjes(FracRamp(g), FracCurve(c))
    assert mass == Fraction(sum(ends)) / 2
    assert abs(Fraction(stieltjes(g, c)) - mass) <= Fraction(math.ulp(1.0))


@given(ramps(), wide_cdfs(), st.none() | st.tuples(st.floats(min_value=-MAX, max_value=MAX),
                                                   st.floats(min_value=-MAX, max_value=MAX)))
def test_stieltjes_on_an_overflowed_span_matches_the_reference(g, f, window):
    # the test function's nodes lie inside the piece wider than the float range
    c = f.payload
    if window:
        a, b = sorted(window)
        got = stieltjes(g, c, a, b)
        want = frac_stieltjes(FracRamp(g), FracCurve(c), Fraction(a), Fraction(b))
    else:
        got, want = stieltjes(g, c), frac_stieltjes(FracRamp(g), FracCurve(c))
    assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 13)


# ---------- orientation in one pass ----------


def check_monotone_before(lefts, values, up):
    def ok(a, b):
        return a <= b if up else a >= b
    prev_v = None
    for l, v in zip(lefts, values):
        if not ok(l, v):
            raise ValueError("breakpoint jump violates orientation")
        if prev_v is not None and not ok(prev_v, l):
            raise ValueError("segment slope violates orientation")
        prev_v = v


def outcome(check, lefts, values, up):
    try:
        check(lefts, values, up)
    except ValueError as exc:
        return str(exc)
    return None


CHAIN_LEVELS = [-0.0, 0.0, 0.25, 0.5, 1.0, math.nan]


@given(st.lists(st.tuples(st.sampled_from(CHAIN_LEVELS), st.sampled_from(CHAIN_LEVELS)),
                max_size=8),
       st.booleans())
def test_check_monotone_names_what_the_loop_named(pairs, up):
    lefts, values = tuple(l for l, _ in pairs), tuple(v for _, v in pairs)
    want = outcome(check_monotone_before, lefts, values, up)
    assert outcome(MonotoneRC._check_monotone, lefts, values, up) == want


def test_check_monotone_on_seeded_chains():
    rng = random.Random(20)
    seen = set()
    for _ in range(20000):
        n = rng.randint(0, 6)
        lefts = tuple(rng.choice(CHAIN_LEVELS) for _ in range(n))
        values = tuple(rng.choice(CHAIN_LEVELS) for _ in range(n))
        up = rng.random() < 0.5
        want = outcome(check_monotone_before, lefts, values, up)
        assert outcome(MonotoneRC._check_monotone, lefts, values, up) == want
        seen.add(want)
    assert len(seen) == 3  # passes, a jump and a slope


# ---------- a lazy curve shared by threads ----------


THREADS = textwrap.dedent("""
    import random, sys, threading
    from lambdavar.curves import MonotoneRC, _sample_columns, from_samples

    sys.setswitchinterval(1e-6)
    rng = random.Random(3)
    failures = []
    for _ in range(100):
        xs = [rng.gauss(0.0, 1.0) for _ in range(5000)]
        want = repr(MonotoneRC(zip(*_sample_columns(sorted(xs), len(xs))), 0.0, 1.0))
        curve = from_samples(xs).payload
        assert type(curve).__name__ == "_LazyRC"

        def read():
            try:
                if repr(curve) != want:
                    failures.append("repr differs")
            except Exception as exc:
                failures.append(repr(exc))

        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    print(len(failures), failures[:3])
""")


def test_threads_complete_one_lazy_curve(tmp_path):
    # a fresh interpreter: the suite's completion check is single-threaded
    run = python(tmp_path, "-c", THREADS)
    assert (run.returncode, run.stdout, run.stderr) == (0, "0 []\n", "")


# ---------- what changed, through main ----------


U = {"type": "uniform", "a": -1e308, "b": 1e308}
M = {"type": "mixture", "p": U, "q": {"type": "uniform", "a": -9e307, "b": 9e307}, "lambda": 0.5}
STEP = {"type": "step", "lambda_min": 0.01, "lambda_max": 0.05, "threshold": -1}
FALLING_JUMP = {"type": "piecewise", "points": [[0.0, 0.3, 0.1]], "tails": [0.3, 0.1],
                "orientation": "nonincreasing"}


@pytest.mark.parametrize("data, profile, value", [
    (U, STEP, "9.800000000000001e+307"),
    (U, FALLING_JUMP, "4.0000000000000004e+307"),
    (M, STEP, "9.6e+307"),
])
def test_lambda_var_on_an_overflowed_span(capsys, tmp_path, data, profile, value):
    d = write(tmp_path, "p.json", json.dumps(data))
    prof = write(tmp_path, "prof.json", json.dumps(profile))
    report = run_report(capsys, "compute", "--data", d, "--measure", "lambda-var",
                        "--profile", prof)
    assert repr(report["value"]) == value
    assert repr(report["diagnostics"]["violation_point"]) == "-" + value


@pytest.mark.parametrize("argv, value", [
    (("var", "--lambda", "0.3"), "3.7894736842105266e+307"),
    (("worst-case",), "1e+308"),
    (("entropic",), "1e+308"),
])
def test_mixture_of_overflowed_spans(capsys, tmp_path, argv, value):
    d = write(tmp_path, "m.json", json.dumps(M))
    report = run_report(capsys, "compute", "--data", d, "--measure", *argv)
    assert repr(report["value"]) == value


def test_plot_of_a_mixture_of_overflowed_spans(capsys, tmp_path):
    d = write(tmp_path, "m.json", json.dumps(M))
    prof = write(tmp_path, "prof.json", json.dumps(STEP))
    svg = tmp_path / "m.svg"
    code, out, err = run_cli(capsys, "plot", "--data", d, "--profile", prof, "--out", str(svg))
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 9.6e307
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("seed, informative", [(1883312004, 113), (1154501112, 114)])
def test_no_dual_bound_above_the_risk(capsys, seed, informative):
    report = run_report(capsys, "check", "--suite", "duality-sandwich", "--trials", "200",
                        "--seed", str(seed))
    assert (report["violations"], report["max_residual"]) == (0, 0.0)
    assert report["details"] == {"informative": informative}


def test_a_subnormal_rise_on_an_overflowed_span(capsys, tmp_path):
    # only the axis whose span overflows is halved: halving this rise of one
    # subnormal too would divide by zero while solving for the crossing
    d = write(tmp_path, "p.json", '{"type": "piecewise", "points": [[-1e308, 0, 0], [1e308, 5e-324, 1]]}')
    prof = write(tmp_path, "c.json", '{"type": "constant", "lambda": 0}')
    report = run_report(capsys, "compute", "--data", d, "--measure", "lambda-var", "--profile", prof)
    assert (report["value"], report["diagnostics"]["violation_point"]) == (1e308, -1e308)
