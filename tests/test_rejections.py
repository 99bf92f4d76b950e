"""Inputs that no answer fits are rejected, not mapped to a plausible float.

Evaluation at NaN: bisection sends NaN to one tail or the other, so a curve
would report a tail value, and its value and left limit would disagree.
Ladder widths below the float spacing: a window whose end rounds onto its
start is no window, and the ladder says so instead of a later constructor.
"""

import math

import pytest

from lambdavar import (
    MonotoneRC,
    NONINCREASING,
    constant_profile,
    from_samples,
    negated_cdf,
    ramp_ladder,
    step_profile,
    uniform,
)
from lambdavar import dual
from lambdavar.cli import main

NAN = math.nan

CDFS = {
    "atoms": from_samples([0.0, 1.0]),
    "continuous": uniform(-1.0, 2.0),
    "point-mass": from_samples([3.0]),
}


@pytest.mark.parametrize("name", sorted(CDFS))
class TestNanEvaluation:
    def test_cdf_and_its_curve_reject_nan(self, name):
        p = CDFS[name]
        for evaluate in (p, p.left_limit, p.payload, p.payload.left_limit):
            with pytest.raises(ValueError, match="NaN"):
                evaluate(NAN)

    def test_jump_rejects_nan(self, name):
        c = CDFS[name].payload
        with pytest.raises(ValueError, match="cannot evaluate a curve at NaN"):
            c.jump(NAN)
        assert c.jump(c.xs[0]) == c.values[0] - c.lefts[0]
        assert c.jump(-math.inf) == c.jump(math.inf) == 0.0

    def test_tails_and_breakpoints_still_evaluate(self, name):
        p = CDFS[name]
        assert (p(-math.inf), p.left_limit(-math.inf)) == (0.0, 0.0)
        assert (p(math.inf), p.left_limit(math.inf)) == (1.0, 1.0)
        x = p.support_lower
        assert p.left_limit(x) == 0.0 and p(x) == p.payload.values[0]


@pytest.mark.parametrize(
    "curve",
    [
        MonotoneRC((), 0.25, 0.25),
        MonotoneRC(((0.0, 0.75, 0.5), (1.0, 0.25, 0.25)), 0.75, 0.25, NONINCREASING),
        constant_profile(0.1),
        step_profile(0.1, 0.3, 0.0),
    ],
    ids=["constant", "nonincreasing", "constant-profile", "step-profile"],
)
def test_curves_and_profiles_reject_nan(curve):
    for evaluate in (curve, curve.left_limit):
        with pytest.raises(ValueError, match="NaN"):
            evaluate(NAN)


@pytest.mark.parametrize(
    "f",
    [
        dual.TestFunction([(0.0, 1.0)]),
        dual.TestFunction([(0.0, 1.0), (1.0, 0.0)]),
        negated_cdf(uniform(-1.0, 1.0)),
    ],
    ids=["one-node", "two-nodes", "ramp"],
)
def test_test_function_rejects_nan(f):
    with pytest.raises(ValueError, match="NaN"):
        f(NAN)
    assert f(-math.inf) == f.limit_left and f(math.inf) == f.limit_right


class TestSubUlpLadderWidth:
    def test_width_lost_at_a_later_window_start(self):
        # the float spacing is 64 at the first window start, 5e17, and
        # 16384 at the last, 1e20, where a width of 5000 rounds away
        with pytest.raises(ValueError, match=r"window width 5000\.0 vanishes"):
            ramp_ladder(from_samples([0.0, 1e20]), 200, 5000.0)

    @pytest.mark.parametrize("samples, width", [([-1e308, 1e308], 1e308),
                                                ([-1e308, 1e308], 0.01),
                                                ([-1.7e308, 0.0], 1e308)])
    def test_a_span_beyond_float_range_is_named(self, samples, width):
        # the span overflows, so no grid of window starts exists
        with pytest.raises(ValueError, match=r"is wider than the float range"):
            ramp_ladder(from_samples(samples), 2, width)

    def test_representable_width_builds_every_window(self):
        fs = ramp_ladder(from_samples([0.0, 1e20]), 4, 1e5)
        assert all(f.xs[0] < f.xs[-1] for f in fs)

    def test_cli_exits_2_naming_the_width(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("value\n3\n")
        profile = tmp_path / "step.json"
        profile.write_text(
            '{"type": "step", "lambda_min": 0.1, "lambda_max": 0.3, "threshold": 0.0}'
        )
        code = main([
            "duality", "--data", str(data), "--profile", str(profile), "--delta", "5e-324",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "window width 5e-324" in captured.err
        assert "uniform requires" not in captured.err
