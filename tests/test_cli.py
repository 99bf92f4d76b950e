import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambdavar import (
    ExpNeg,
    certainty_equivalent,
    constant_profile,
    entropic,
    from_samples,
    lambda_var,
    step_profile,
    value_at_risk,
    worst_case,
)
from lambdavar import cli
from lambdavar.checks import dy
from lambdavar.cli import REPORT_SCHEMA, main, parse_distribution, parse_profile, read_csv_samples

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def losses_csv(tmp_path):
    return write(tmp_path, "losses.csv", "value\n-10\n-5\n0\n5\n")


@pytest.fixture
def step_json(tmp_path):
    return write(
        tmp_path,
        "step.json",
        json.dumps(
            {"type": "step", "lambda_min": 0.1, "lambda_max": 0.3, "threshold": 0.0}
        ),
    )


class TestCompute:
    def test_var_example(self, capsys, losses_csv):
        report = run_report(
            capsys, "compute", "--data", losses_csv, "--measure", "var",
            "--lambda", "0.25",
        )
        assert report["value"] == 5.0
        assert report["measure"] == "var"
        assert report["inputs"]["data_digest"].startswith("sha256:")

    def test_worst_case(self, capsys, losses_csv):
        report = run_report(
            capsys, "compute", "--data", losses_csv, "--measure", "worst-case"
        )
        assert report["value"] == 10.0

    def test_infeasible_profile_exits_3(self, capsys, losses_csv, tmp_path):
        bad = write(tmp_path, "bad.json", '{"type": "constant", "lambda": 1.0}')
        code, out, err = run_cli(
            capsys, "compute", "--data", losses_csv, "--measure", "lambda-var",
            "--profile", bad,
        )
        assert code == 3
        assert out == ""
        assert "1" in err

    def test_lambda_var_diagnostics(self, capsys, losses_csv, step_json):
        report = run_report(
            capsys, "compute", "--data", losses_csv, "--measure", "lambda-var",
            "--profile", step_json,
        )
        p = from_samples([-10, -5, 0, 5])
        ref = lambda_var(p, step_profile(0.1, 0.3, 0.0))
        assert report["value"] == ref.value
        assert report["diagnostics"]["violation_point"] == ref.violation_point
        assert report["diagnostics"]["finiteness_case"] == "finite"

    def test_bad_csv_exits_2(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.csv", "value\n1.5\nnope\n")
        code, _, err = run_cli(
            capsys, "compute", "--data", bad, "--measure", "worst-case"
        )
        assert code == 2
        assert "nope" in err

    def test_missing_lambda_exits_2(self, capsys, losses_csv):
        code, _, _ = run_cli(
            capsys, "compute", "--data", losses_csv, "--measure", "var"
        )
        assert code == 2

    def test_out_file(self, capsys, losses_csv, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "compute", "--data", losses_csv, "--measure", "entropic",
            "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        report = json.loads(out.read_text())
        assert report["value"] == entropic(from_samples([-10, -5, 0, 5]))

    def test_matches_library_bit_for_bit(self, capsys, tmp_path):
        rng = random.Random(31)
        for i in range(100):
            xs = [dy(rng, -8, 8) for _ in range(rng.randint(1, 12))]
            data = write(
                tmp_path, f"d{i}.csv", "\n".join(repr(x) for x in xs) + "\n"
            )
            p = from_samples(xs)
            lam = rng.randint(1, 63) / 64
            kind = i % 5
            if kind == 0:
                report = run_report(
                    capsys, "compute", "--data", data, "--measure", "var",
                    "--lambda", repr(lam),
                )
                expected = value_at_risk(p, lam)
            elif kind == 1:
                report = run_report(
                    capsys, "compute", "--data", data, "--measure", "worst-case"
                )
                expected = worst_case(p)
            elif kind == 2:
                report = run_report(
                    capsys, "compute", "--data", data, "--measure", "entropic"
                )
                expected = entropic(p)
            elif kind == 3:
                report = run_report(
                    capsys, "compute", "--data", data, "--measure", "certainty-eq"
                )
                expected = certainty_equivalent(p, ExpNeg())
            else:
                lo = rng.randint(0, 30) / 64
                hi = rng.randint(round(lo * 64), 60) / 64
                prof_path = write(
                    tmp_path,
                    f"p{i}.json",
                    json.dumps(
                        {
                            "type": "step",
                            "lambda_min": lo,
                            "lambda_max": hi,
                            "threshold": dy(rng, -4, 4),
                        }
                    ),
                )
                report = run_report(
                    capsys, "compute", "--data", data, "--measure", "lambda-var",
                    "--profile", prof_path,
                )
                prof_obj = json.loads(open(prof_path).read())
                expected = lambda_var(
                    p,
                    step_profile(
                        prof_obj["lambda_min"],
                        prof_obj["lambda_max"],
                        prof_obj["threshold"],
                    ),
                ).value
            assert report["value"] == expected


class TestOverflowedSpans:
    """Distributions whose support is wider than the largest float."""

    DATA = {
        "uniform": '{"type": "uniform", "a": -1e308, "b": 1e308}',
        "piecewise": '{"type": "piecewise", "points": [[-1e308, 0, 0.5], [1e308, 1, 1]]}',
    }

    @pytest.mark.parametrize("kind, lam, value", [
        ("uniform", "0.5", "-0.0"),
        ("uniform", "0.05", "8.999999999999999e+307"),
        ("piecewise", "0.5", "1e+308"),
    ])
    def test_var(self, capsys, tmp_path, kind, lam, value):
        data = write(tmp_path, "p.json", self.DATA[kind])
        report = run_report(capsys, "compute", "--data", data, "--measure", "var", "--lambda", lam)
        assert repr(report["value"]) == value

    def test_lambda_var(self, capsys, tmp_path):
        data = write(tmp_path, "p.json", self.DATA["piecewise"])
        prof = write(tmp_path, "c.json", '{"type": "constant", "lambda": 0.5}')
        report = run_report(capsys, "compute", "--data", data, "--measure", "lambda-var",
                            "--profile", prof)
        assert report["value"] == 1e308
        assert report["diagnostics"]["violation_point"] == -1e308

    # The exact values are 1e308 - ln(2e308) on the uniform and 1e308 - ln 2 on
    # the piecewise law, -1e308 + ln(7e307) on the high uniform and 1.7e308 -
    # ln(7e307) on the low one; each rounds to the support end it names.  On the
    # high and low uniforms the ends of the bisection's bracket sum past the
    # float range.
    WIDER = {**DATA, "high": '{"type": "uniform", "a": 1e308, "b": 1.7e308}',
             "low": '{"type": "uniform", "a": -1.7e308, "b": -1e308}'}

    @pytest.mark.parametrize("measure", ["entropic", "certainty-eq"])
    @pytest.mark.parametrize("kind, value", [
        ("uniform", "1e+308"), ("piecewise", "1e+308"), ("high", "-1e+308"),
        ("low", "1.7e+308"),
    ])
    def test_exponential_measures(self, capsys, tmp_path, kind, value, measure):
        data = write(tmp_path, "p.json", self.WIDER[kind])
        report = run_report(capsys, "compute", "--data", data, "--measure", measure)
        assert repr(report["value"]) == value

    @pytest.mark.parametrize("kind", sorted(DATA))
    def test_duality_names_the_overflowed_span(self, capsys, tmp_path, kind, step_json):
        data = write(tmp_path, "p.json", self.DATA[kind])
        code, out, err = run_cli(capsys, "duality", "--data", data, "--profile", step_json)
        assert (code, out) == (2, "")
        assert err == ("error: support from -1e+308 to 1e+308, widened by the window width "
                       "0.01, is wider than the float range\n")


class TestParsers:
    def test_distribution_kinds(self):
        d = parse_distribution({"type": "dirac", "x": 2.0})
        assert d(2.0) == 1.0
        u = parse_distribution({"type": "uniform", "a": 0.0, "b": 1.0})
        assert u(0.5) == 0.5
        m = parse_distribution(
            {
                "type": "mixture",
                "p": {"type": "dirac", "x": 0.0},
                "q": {"type": "dirac", "x": 1.0},
                "lambda": 0.5,
            }
        )
        assert m(0.0) == 0.5
        pw = parse_distribution(
            {"type": "piecewise", "points": [[0.0, 0.0, 0.5], [1.0, 0.5, 1.0]]}
        )
        assert pw(0.0) == 0.5
        with pytest.raises(ValueError):
            parse_distribution({"type": "gaussian"})

    def test_profile_kinds(self):
        c = parse_profile({"type": "constant", "lambda": 0.1})
        assert c == constant_profile(0.1)
        s = parse_profile(
            {"type": "step", "lambda_min": 0.1, "lambda_max": 0.3, "threshold": 0.0}
        )
        assert s == step_profile(0.1, 0.3, 0.0)
        pw = parse_profile(
            {
                "type": "piecewise",
                "points": [[0.0, 0.1, 0.3]],
                "tails": [0.1, 0.3],
                "orientation": "nondecreasing",
            }
        )
        assert pw == step_profile(0.1, 0.3, 0.0)
        with pytest.raises(ValueError):
            parse_profile({"type": "spline"})


class TestDuality:
    def test_gap_fields(self, capsys, losses_csv, tmp_path):
        prof = write(tmp_path, "c.json", '{"type": "constant", "lambda": 0.25}')
        report = run_report(
            capsys, "duality", "--data", losses_csv, "--profile", prof,
            "--functions", "100", "--delta", "0.05",
        )
        assert report["gap"] >= 0.0
        assert report["best_lower_bound"] <= report["phi_value"]
        assert report["inputs"]["functions"] == 100
        assert "index" in report["argmax_function"]

    def test_flat_function_still_weak_duality(self, capsys, losses_csv, tmp_path):
        # a single wide ramp far from the action gives a weak but valid bound
        prof = write(tmp_path, "c.json", '{"type": "constant", "lambda": 0.25}')
        report = run_report(
            capsys, "duality", "--data", losses_csv, "--profile", prof,
            "--functions", "1", "--delta", "40.0",
        )
        assert report["gap"] >= 0.0

    @pytest.mark.parametrize("functions", ["1", "7", "60"])
    def test_diagnostics_count_every_function(self, capsys, losses_csv, step_json, functions):
        report = run_report(
            capsys, "duality", "--data", losses_csv, "--profile", step_json,
            "--functions", functions, "--delta", "0.5",
        )
        diag = report["diagnostics"]
        assert set(diag["skipped_functions"]) == {"bracket", "range", "inf"}
        assert diag["informative_functions"] >= 1
        total = diag["informative_functions"] + sum(diag["skipped_functions"].values())
        assert total == int(functions)


class TestCheck:
    def test_reductions_clean(self, capsys):
        report = run_report(
            capsys, "check", "--suite", "reductions", "--trials", "200", "--seed", "1"
        )
        assert report["violations"] == 0
        assert report["max_residual"] == 0.0

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(
            capsys, "check", "--suite", "mon", "--trials", "100", "--seed", "7"
        )
        _, out2, _ = run_cli(
            capsys, "check", "--suite", "mon", "--trials", "100", "--seed", "7"
        )
        assert out1 == out2

    def test_cfb_reports_discontinuity(self, capsys):
        report = run_report(
            capsys, "check", "--suite", "cfb-counterexample", "--trials", "1"
        )
        assert report["details"]["discontinuity"] == pytest.approx(0.2, abs=1e-12)
        assert report["violations"] == 0

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--suite", "nope")
        assert code == 2
        assert "unknown suite" in err

    def test_negative_trials_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "check", "--suite", "mon", "--trials", "-5")
        assert code == 2
        assert out == ""
        assert "nonnegative" in err


class TestPlot:
    def test_marker_at_violation(self, capsys, tmp_path, step_json):
        data = write(
            tmp_path, "u.json", '{"type": "uniform", "a": -0.1, "b": 0.9}'
        )
        out = tmp_path / "plot.svg"
        report = run_report(
            capsys, "plot", "--data", data, "--profile", step_json,
            "--out", str(out),
        )
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "violation x = 0.2" in svg
        assert report["diagnostics"]["violation_point"] == pytest.approx(0.2)

    def test_point_mass_marker(self, capsys, tmp_path, step_json):
        data = write(tmp_path, "d.json", '{"type": "dirac", "x": -1.5}')
        out = tmp_path / "plot.svg"
        report = run_report(
            capsys, "plot", "--data", data, "--profile", step_json,
            "--out", str(out),
        )
        assert report["diagnostics"]["violation_point"] == -1.5

    def test_infeasible_no_file(self, capsys, tmp_path, losses_csv):
        bad = write(tmp_path, "bad.json", '{"type": "constant", "lambda": 1.0}')
        out = tmp_path / "plot.svg"
        code, _, _ = run_cli(
            capsys, "plot", "--data", losses_csv, "--profile", bad,
            "--out", str(out),
        )
        assert code == 3
        assert not out.exists()

    def test_unwritable_path_exits_5(self, capsys, tmp_path, losses_csv, step_json):
        out = tmp_path / "missing_dir" / "plot.svg"
        code, _, err = run_cli(
            capsys, "plot", "--data", losses_csv, "--profile", step_json,
            "--out", str(out),
        )
        assert code == 5
        assert "cannot write" in err


class TestSchema:
    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    def test_reports_validate(self, capsys, losses_csv, step_json, tmp_path):
        reports = [
            run_report(
                capsys, "compute", "--data", losses_csv, "--measure", "var",
                "--lambda", "0.5",
            ),
            run_report(
                capsys, "compute", "--data", losses_csv, "--measure", "lambda-var",
                "--profile", step_json,
            ),
            run_report(
                capsys, "duality", "--data", losses_csv, "--profile", step_json,
                "--functions", "20", "--delta", "0.1",
            ),
            run_report(
                capsys, "check", "--suite", "qco", "--trials", "50", "--seed", "3"
            ),
        ]
        data = write(tmp_path, "u.json", '{"type": "uniform", "a": -0.1, "b": 0.9}')
        out = tmp_path / "plot.svg"
        reports.append(
            run_report(
                capsys, "plot", "--data", data, "--profile", step_json,
                "--out", str(out),
            )
        )
        for report in reports:
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_round_trip_lossless(self, capsys, losses_csv, step_json):
        report = run_report(
            capsys, "compute", "--data", losses_csv, "--measure", "lambda-var",
            "--profile", step_json,
        )
        again = json.loads(json.dumps(report))
        assert again == report


class TestExitCodes:
    def test_bracket_failure_maps_to_4(self, capsys, monkeypatch, losses_csv, tmp_path):
        from lambdavar import dual
        from lambdavar.exceptions import DualRangeError

        prof = write(tmp_path, "c.json", '{"type": "constant", "lambda": 0.25}')

        def fail(p, risk, fs, gamma, tol=1e-9):
            raise DualRangeError("dual variable out of range")

        monkeypatch.setattr(dual, "representation_bound", fail)
        code, out, err = run_cli(
            capsys, "duality", "--data", losses_csv, "--profile", prof,
            "--functions", "5", "--delta", "0.1",
        )
        assert code == 4
        assert "out of range" in err
        assert out == ""


    @pytest.mark.parametrize("kind", ["distribution", "profile"])
    def test_deep_nesting_exits_2(self, capsys, losses_csv, tmp_path, kind):
        # json.load and parse_distribution recurse once per level
        if kind == "distribution":
            dirac = '{"type": "dirac", "x": 1.0}'
            text = dirac
            for _ in range(5000):
                text = f'{{"type": "mixture", "p": {text}, "q": {dirac}, "lambda": 0.5}}'
            argv = ["--data", write(tmp_path, "deep.json", text), "--measure", "worst-case"]
        else:
            points = "[" * 5000 + "]" * 5000
            prof = write(
                tmp_path, "deep.json",
                f'{{"type": "piecewise", "points": {points}, "tails": [0.1, 0.1], '
                '"orientation": "nondecreasing"}',
            )
            argv = ["--data", losses_csv, "--profile", prof, "--measure", "lambda-var"]
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "nested too deeply" in err

    HUGE = "1" + "0" * 400  # a JSON integer that no float can hold

    @pytest.mark.parametrize("command", ["compute", "duality"])
    @pytest.mark.parametrize(
        "data, profile",
        [
            ({"type": "dirac", "x": HUGE}, None),
            ({"type": "empirical", "samples": [0, HUGE]}, None),
            (None, {"type": "constant", "lambda": HUGE}),
            (
                None,
                {
                    "type": "piecewise",
                    "points": [[0.0, 0.01, 0.02]],
                    "tails": [0.01, HUGE],
                    "orientation": "nondecreasing",
                },
            ),
        ],
        ids=["dirac", "empirical", "constant-profile", "profile-tail"],
    )
    def test_integer_beyond_float_range_exits_2(
        self, capsys, losses_csv, step_json, tmp_path, command, data, profile
    ):
        def dump(obj):
            return json.dumps(obj).replace(f'"{self.HUGE}"', self.HUGE)

        data_path = write(tmp_path, "d.json", dump(data)) if data else losses_csv
        prof_path = write(tmp_path, "p.json", dump(profile)) if profile else step_json
        argv = [command, "--data", data_path, "--profile", prof_path]
        if command == "compute":
            argv += ["--measure", "lambda-var"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "number out of float range" in err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_ramp_width_exits_2(self, capsys, losses_csv, step_json, delta):
        code, out, err = run_cli(
            capsys, "duality", "--data", losses_csv, "--profile", step_json,
            "--delta", delta,
        )
        assert code == 2
        assert out == ""
        assert "window width must be positive and finite" in err

    @pytest.mark.parametrize(
        "samples, measure, expected",
        [
            ("-1000\n0\n", "entropic", 1000.0 + math.log(0.5)),
            ("-1000\n0\n", "certainty-eq", 1000.0 + math.log(0.5)),
            ("1000000\n1000001\n", "entropic", -1e6 + math.log((1 + math.exp(-1)) / 2)),
            ("1000000\n1000001\n", "certainty-eq", -1e6 + math.log((1 + math.exp(-1)) / 2)),
        ],
    )
    def test_exponential_measures_far_from_zero(
        self, capsys, tmp_path, samples, measure, expected
    ):
        # exp(1000) overflows and exp(-10**6) underflows unless re-based
        data = write(tmp_path, "far.csv", samples)
        report = run_report(capsys, "compute", "--data", data, "--measure", measure)
        assert report["value"] == pytest.approx(expected, abs=1e-9)


class TestTolEnv:
    def test_env_sets_default(self, monkeypatch):
        from lambdavar.cli import build_parser

        monkeypatch.setenv("LVAR_TOL", "1e-6")
        args = build_parser().parse_args(
            ["check", "--suite", "mon", "--trials", "1"]
        )
        assert args.tol == 1e-6

    def test_malformed_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("LVAR_TOL", "abc")
        code, out, err = run_cli(capsys, "check", "--suite", "mon", "--trials", "1")
        assert code == 2
        assert out == ""
        assert "LVAR_TOL" in err

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_env_exits_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("LVAR_TOL", raw)
        code, out, err = run_cli(capsys, "check", "--suite", "reductions", "--trials", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: LVAR_TOL is not a finite number: {raw!r}\n"

    def test_plus_inf_encoding(self):
        from lambdavar.cli import encode_value

        assert encode_value(math.inf) == "+inf"
        assert encode_value(1.5) == 1.5


class TestNonFiniteFlags:
    """A report is strict JSON, so argparse refuses a NaN or infinite flag."""

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "+Infinity", "1e999"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--suite", "cfb-counterexample", "--trials", "1", "--tol"],
            ["compute", "--measure", "worst-case", "--lambda"],
            ["compute", "--measure", "var", "--lambda"],
            ["compute", "--measure", "worst-case", "--tol"],
            ["duality", "--tol"],
        ],
    )
    def test_exits_2_naming_the_flag(self, capsys, losses_csv, argv, raw):
        flag = argv[-1]
        if argv[0] != "check":
            argv = [argv[0], "--data", losses_csv, *argv[1:]]
        with pytest.raises(SystemExit) as exc:
            main([*argv[:-1], f"{flag}={raw}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument {flag}: not a finite number: {raw!r}" in captured.err

    def test_a_non_number_keeps_the_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "mon", "--tol", "abc"])
        assert exc.value.code == 2
        assert "argument --tol: invalid float value: 'abc'" in capsys.readouterr().err

    def test_finite_extremes_pass(self, capsys, losses_csv):
        report = run_report(
            capsys, "compute", "--data", losses_csv, "--measure", "worst-case",
            "--lambda", "1e308", "--tol=5e-324",
        )
        assert report["inputs"]["lambda"] == 1e308


class TestNegativeTol:
    """A tolerance is at least 0: a negative --tol or LVAR_TOL exits 2 naming it."""

    @pytest.mark.parametrize("raw", ["-1", "-5e-324", "-1e-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--suite", "duality-sandwich", "--trials", "1"],
            ["compute", "--measure", "worst-case"],
            ["duality"],
        ],
    )
    def test_flag_exits_2_naming_the_value(self, capsys, losses_csv, argv, raw):
        if argv[0] != "check":
            argv = [argv[0], "--data", losses_csv, *argv[1:]]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--tol={raw}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument --tol: not a nonnegative number: {raw!r}" in captured.err

    def test_env_exits_2_naming_the_value(self, capsys, monkeypatch):
        monkeypatch.setenv("LVAR_TOL", "-1")
        code, out, err = run_cli(capsys, "check", "--suite", "duality-sandwich", "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: LVAR_TOL is not a nonnegative number: '-1'\n"

    @pytest.mark.parametrize("raw", ["0", "-0.0"])
    def test_zero_passes(self, capsys, raw):
        report = run_report(capsys, "check", "--suite", "duality-sandwich", "--trials", "2",
                            f"--tol={raw}")
        assert report["tol"] == 0.0

    def test_an_exponent_after_a_space_keeps_the_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "mon", "--tol", "-1e-3"])
        assert exc.value.code == 2
        assert "argument --tol: expected one argument" in capsys.readouterr().err


class TestFlagsBeforeData:
    """A missing flag is reported before the data is read, and wins over bad data."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute", "--measure", "lambda-var"], "--measure lambda-var requires --profile"),
            (["compute", "--measure", "var"], "--measure var requires --lambda"),
            (["duality"], "duality requires --profile"),
            (["plot", "--out", "p.svg"], "plot requires --profile"),
            (["plot"], "plot requires --profile"),
            (["plot", "--profile", "step.json"], "plot requires --out"),
        ],
    )
    def test_missing_flag_exits_2_without_reading(self, capsys, monkeypatch, argv, message):
        def refuse(path):
            raise AssertionError(f"read {path} before checking the flags")

        monkeypatch.setattr(cli, "_load_data", refuse)
        code, out, err = run_cli(capsys, *argv, "--data", "missing.csv")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_plot_without_out_writes_nothing(self, capsys, tmp_path, losses_csv, step_json):
        code, out, err = run_cli(capsys, "plot", "--data", losses_csv, "--profile", step_json)
        assert (code, out, err) == (2, "", "error: plot requires --out\n")
        assert list(tmp_path.glob("*.svg")) == []


def read_csv_loop(path):
    """The line-by-line reader that read_csv_samples replaced."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1 and line.lower() == "value":
                continue
            try:
                samples.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}")
    if not samples:
        raise ValueError(f"{path}: no data")
    return samples


class TestReadCsv:
    @pytest.mark.parametrize(
        "data",
        [
            b"value\r\n-1.5\r\n2\r\n",
            b"\n1\n\n  \n\t\n2\n   \n",
            b"Value\n1\n2",
            b" VALUE \n3\n",
            b"1\nvalue\n2\n",
            b"1_000\n-2.5e-3\n",
            b"value\n 4 \n5",
            b"value\r1\r2\r",
            b"1\x1c\n2\n",
            b"value\n",
            b"",
            b"1\nnope\n3\n",
        ],
    )
    def test_parity_with_line_loop(self, tmp_path, data):
        from lambdavar.cli import read_csv_samples

        path = tmp_path / "data.csv"
        path.write_bytes(data)

        def outcome(reader):
            try:
                return repr(reader(str(path)))
            except ValueError as exc:
                return f"ValueError: {exc}"

        assert outcome(read_csv_samples) == outcome(read_csv_loop)


def read_csv_split(path):
    """The reader that the streaming parse replaced: split the whole text."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    body = lines[1:] if lines[0].strip().lower() == "value" else lines
    try:
        samples = [float(s) for s in body if s and not s.isspace()]
    except ValueError:
        samples = []
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or (lineno == 1 and line.lower() == "value"):
                continue
            try:
                samples.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}")
    if not samples:
        raise ValueError(f"{path}: no data")
    return samples


def csv_outcome(reader, path):
    try:
        return repr(reader(str(path)))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


CSV_LINES = st.sampled_from(
    ["1.5", "-0.0", "0", "7", "1e-320", "value", "Value ", "", " ", "\t", "\r",
     "\x1c", "2\x1d", "\x1e3", "4\x1f", "nan", "-inf", "1_0", "abc", "\ufeff1", "\x85"]
)


class TestStreamingCsv:
    """The streaming parse against the split-text reader, on bytes on disk."""

    @pytest.mark.parametrize(
        "data",
        [
            b"value\n1\n\n2\n3\n",  # blank line in the middle
            b"value\n1\n \t \n2\n",  # whitespace-only line
            b"value\r\n1.5\r\n-2\r\n",  # \r\n endings
            b"value\n",  # a header with no data
            b"value",
            b"",  # an empty file
            b"\n",
            b"\xef\xbb\xbfvalue\n1\n",  # a UTF-8 BOM
            b"\xef\xbb\xbf1\n2\n",
            b"1\x1c\n\x1d2\n3\x1e4\n\x1f\n",  # separators float() keeps
            b"value\nnan\ninf\n-inf\n",
            b"value\n1\n2\nnope",  # a bad last line
            b"value\n1\n2\nnope\n",
            b"1\n2\n3",  # no header, no final newline
            b"value\n1\n\xff\n",  # not UTF-8
            b"\rvalue\n1\n",  # a lone \r puts the header on line 2
            b" \r VALUE \r\n1\n",
            b"value\r\r\n1\n",
            b"value\r1\n2\n",
            b"value\x1c\n1\n",  # a header only str.strip() recognises
        ],
    )
    def test_matches_the_split_reader(self, tmp_path, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert csv_outcome(read_csv_samples, path) == csv_outcome(read_csv_split, path)

    @given(st.lists(CSV_LINES, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]),
           st.booleans())
    def test_matches_the_split_reader_on_generated_files(self, tmp_path_factory, lines, end, last):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes((end.join(lines) + (end if last else "")).encode("utf-8"))
        assert csv_outcome(read_csv_samples, path) == csv_outcome(read_csv_split, path)

    CLEAN = [b"value\n1\n-2.5\n", b" VALUE \r\n1\r\n-2.5", b"1\n-2.5\n"]

    @pytest.mark.parametrize("data", CLEAN)
    def test_clean_files_never_reach_the_line_loop(self, tmp_path, monkeypatch, data):
        def refuse(path, lines):
            raise AssertionError("the line-by-line parse ran")

        monkeypatch.setattr(cli, "_parse_lines", refuse)
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert read_csv_samples(str(path)) == [1.0, -2.5]

    @pytest.mark.parametrize("data", CLEAN)
    def test_clean_split_files_never_reach_the_line_loop(self, tmp_path, monkeypatch, data):
        forks = split_into_ranges(monkeypatch)
        self.test_clean_files_never_reach_the_line_loop(tmp_path, monkeypatch, data)
        assert len(forks) == 1
        assert_no_child_left()

    BLANK = [b"value\n1\n-2.5\n\n", b"value\n1\n\n-2.5\n", b"value\n\n1\n-2.5\n",
             b"\n1\n\n\n-2.5\n\n", b"value\r\n1\r\n-2.5\n\n"]

    @pytest.mark.parametrize("block", [1 << 20, 8])
    @pytest.mark.parametrize("data", BLANK)
    def test_empty_lines_never_reach_the_line_loop(self, tmp_path, monkeypatch, data, block):
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
        self.test_clean_files_never_reach_the_line_loop(tmp_path, monkeypatch, data)

    @pytest.mark.parametrize("data", BLANK)
    def test_empty_lines_in_split_files_never_reach_the_line_loop(self, tmp_path, monkeypatch,
                                                                   data):
        forks = split_into_ranges(monkeypatch)
        self.test_clean_files_never_reach_the_line_loop(tmp_path, monkeypatch, data)
        assert forks
        assert_no_child_left()

    @pytest.mark.parametrize(
        "data",
        [
            b"value\n1\n \n-2.5\n",  # a line of spaces
            b"value\r\n1\r\n\r\n-2.5\r\n",  # an empty line ended by \r\n
            b"value\n1\n\nnope\n-2.5\n",  # a bad line after an empty one
            b"\nvalue\n1\n",  # the header after an empty line
            b"\n\n\n",  # only empty lines
        ],
    )
    def test_other_refused_blocks_still_reach_the_line_loop(self, tmp_path, monkeypatch, data):
        parse_lines = cli._parse_lines
        ran = []

        def counted(path, text):
            ran.append(path)
            return parse_lines(path, text)

        monkeypatch.setattr(cli, "_parse_lines", counted)
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert csv_outcome(read_csv_samples, path) == csv_outcome(read_csv_split, path)
        assert ran == [str(path)]

    def test_a_pipe_falls_back_without_rewinding(self, tmp_path):
        path = tmp_path / "pipe"
        os.mkfifo(path)
        data = b"value\n1\n\n2\n"
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        got = read_csv_samples(str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        plain = tmp_path / "plain.csv"
        plain.write_bytes(data)
        assert repr(got) == repr(read_csv_split(str(plain))) == "[1.0, 2.0]"


def split_into_ranges(monkeypatch, cpus=4):
    """Make every file of two or more bytes split into up to `cpus` ranges.

    Returns the list of worker pids that os.fork then starts.
    """
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(cli, "_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_fork():
    raise AssertionError("the reader forked")


def cut_of(data: bytes) -> int:
    """Where two ranges meet in a file with a `value` header: the first line
    start at or after the middle of the bytes after the header."""
    middle = 6 + (len(data) - 6) // 2
    return data.index(b"\n", middle - 1) + 1


class TestRangeReader:
    """The byte-range reader, split into 2-4 ranges, against the split-text reader."""

    @given(st.lists(CSV_LINES, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]),
           st.booleans(), st.integers(2, 4))
    def test_matches_the_split_reader_on_generated_files(
        self, tmp_path_factory, lines, end, last, cpus
    ):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes((end.join(lines) + (end if last else "")).encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            split_into_ranges(mp, cpus)
            got = csv_outcome(read_csv_samples, path)
        assert got == csv_outcome(read_csv_split, path)
        assert_no_child_left()

    @pytest.mark.parametrize("bad", [b"nope", b"nan", b"\xff", b"\r", b"", b"1\r2", b"\x1c"])
    def test_a_bad_line_anywhere(self, tmp_path, monkeypatch, bad):
        """The bad line in the caller's range, a worker's, and either side of the cut."""
        forks = split_into_ranges(monkeypatch, cpus=2)
        lines = [b"%d.25" % i for i in range(12)]
        places = set()
        for at in range(len(lines)):
            data = b"value\n" + b"\n".join(lines[:at] + [bad] + lines[at + 1:]) + b"\n"
            place = data.count(b"\n", 0, cut_of(data)) - 1 - at  # lines before the cut
            places.add("caller" if place > 1 else "worker" if place < 0 else "cut")
            path = tmp_path / f"bad{at}.csv"
            path.write_bytes(data)
            assert csv_outcome(read_csv_samples, path) == csv_outcome(read_csv_split, path)
            assert_no_child_left()
        assert places == {"caller", "worker", "cut"}
        assert forks

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_signed_zeros_in_every_range(self, tmp_path, monkeypatch, final_newline):
        forks = split_into_ranges(monkeypatch)
        values = [-0.0, 0.0, 5e-324, -1.5, 0.0, -0.0, 1e308, -0.0]
        data = "\n".join(map(repr, values)) + ("\n" if final_newline else "")
        path = tmp_path / "zeros.csv"
        path.write_text(data)
        assert repr(read_csv_samples(str(path))) == repr(values)
        assert len(forks) == 3
        assert_no_child_left()

    def test_a_failed_worker_sends_the_file_to_the_line_loop(self, tmp_path, monkeypatch):
        forks = split_into_ranges(monkeypatch)
        caller = os.getpid()
        parse_range = cli._parse_range
        parse_lines = cli._parse_lines
        ran = []

        def failing(fd, start, end):
            if os.getpid() != caller:
                os._exit(1)
            return parse_range(fd, start, end)

        def counted(path, text):
            ran.append(path)
            return parse_lines(path, text)

        monkeypatch.setattr(cli, "_parse_range", failing)
        monkeypatch.setattr(cli, "_parse_lines", counted)
        for data in (b"value\n1\n-0.0\n3\n4e5\n", b"1\n2\n\n3\n4\n", b"1\n2\n3\nnope\n"):
            path = tmp_path / "data.csv"
            path.write_bytes(data)
            ran.clear()
            assert csv_outcome(read_csv_samples, path) == csv_outcome(read_csv_split, path)
            assert ran == [str(path)]
            assert_no_child_left()
        assert forks

    def test_a_bad_line_here_kills_a_slow_worker(self, tmp_path, monkeypatch):
        forks = split_into_ranges(monkeypatch, cpus=2)
        caller = os.getpid()
        parse_range = cli._parse_range

        def slow(fd, start, end):
            if os.getpid() != caller:
                time.sleep(60)
            return parse_range(fd, start, end)

        monkeypatch.setattr(cli, "_parse_range", slow)
        path = tmp_path / "data.csv"
        path.write_bytes(b"nope\n1\n2\n3\n4\n5\n")
        started = time.monotonic()
        with pytest.raises(ValueError, match=r"data.csv:1: not a number: 'nope'"):
            read_csv_samples(str(path))
        assert time.monotonic() - started < 30
        assert forks
        assert_no_child_left()


class TestNoFork:
    """Where a fork is unsafe or impossible the reader parses one range here."""

    DATA = b"value\n" + b"".join(b"%r\n" % (i / 7) for i in range(-20, 20))

    def expected(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_bytes(self.DATA)
        return repr(read_csv_split(str(path)))

    def test_not_with_a_second_thread_alive(self, tmp_path, monkeypatch):
        expected = self.expected(tmp_path)
        split_into_ranges(monkeypatch)
        monkeypatch.setattr(os, "fork", refuse_fork)
        parked = threading.Event()
        waiter = threading.Thread(target=parked.wait, daemon=True)
        waiter.start()
        try:
            assert repr(read_csv_samples(str(tmp_path / "plain.csv"))) == expected
        finally:
            parked.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()

    def test_not_without_os_fork(self, tmp_path, monkeypatch):
        expected = self.expected(tmp_path)
        split_into_ranges(monkeypatch)
        monkeypatch.delattr(os, "fork")
        assert repr(read_csv_samples(str(tmp_path / "plain.csv"))) == expected

    def test_not_on_a_fifo(self, tmp_path, monkeypatch):
        expected = self.expected(tmp_path)
        split_into_ranges(monkeypatch)
        monkeypatch.setattr(os, "fork", refuse_fork)
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        # The writer is another process, so this one keeps a single thread.
        writer = subprocess.Popen(
            [sys.executable, "-c", "import sys; open(sys.argv[1], 'wb').write(sys.stdin.buffer.read())",
             str(fifo)],
            stdin=subprocess.PIPE,
        )
        try:
            writer.stdin.write(self.DATA)
            writer.stdin.close()
            assert repr(read_csv_samples(str(fifo))) == expected
        finally:
            assert writer.wait(timeout=30) == 0
        assert_no_child_left()


SRC = str(Path(cli.__file__).resolve().parent.parent)


def cli_process(argv, cwd, **kwargs) -> subprocess.CompletedProcess:
    """`python -m lambdavar.cli` in a fresh interpreter that finds this package first."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lambdavar.cli", *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=60, **kwargs,
    )


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_and_all_cpus_print_the_same(tmp_path):
    rng = random.Random(10)
    (tmp_path / "data.csv").write_text(
        "value\n" + "".join(f"{rng.gauss(0.0, 1.0)!r}\n" for _ in range(300_000))
    )
    assert (tmp_path / "data.csv").stat().st_size >= 2 * cli._RANGE_BYTES
    (tmp_path / "step.json").write_text(
        json.dumps({"type": "step", "lambda_min": 0.01, "lambda_max": 0.05, "threshold": -1.0})
    )
    for measure in (["lambda-var", "--profile", "step.json"], ["var", "--lambda", "0.05"],
                    ["entropic"]):
        argv = ["compute", "--data", "data.csv", "--measure", *measure]
        all_cpus = cli_process(argv, tmp_path)
        one_cpu = cli_process(argv, tmp_path, preexec_fn=lambda: os.sched_setaffinity(0, {0}))
        assert all_cpus.returncode == 0, all_cpus.stderr
        assert one_cpu.stdout == all_cpus.stdout
        assert one_cpu.stderr == all_cpus.stderr == b""


def write_and_close(fd, data):
    with open(fd, "wb") as fh:
        fh.write(data)


class TestDataNotARegularFile:
    """--data on a pipe or a FIFO is read once: the digest is of the bytes parsed."""

    CSV = b"value\n-10\n-5\r\n0\n5\n"
    JSON = json.dumps({"type": "empirical", "samples": [-10, -5, 0, 5]}).encode()

    def run_on(self, tmp_path, name, data, transport, argv):
        """Run the CLI on `data` written into a pipe or a FIFO called `name`."""
        if transport == "fifo":
            os.mkfifo(tmp_path / name)
            writer = threading.Thread(target=(tmp_path / name).write_bytes, args=(data,),
                                      daemon=True)
            pass_fds = ()
        else:
            r, w = os.pipe()
            os.symlink(f"/dev/fd/{r}", tmp_path / name)
            writer = threading.Thread(target=write_and_close, args=(w, data), daemon=True)
            pass_fds = (r,)
        writer.start()
        try:
            return cli_process([*argv[:2], name, *argv[2:]], tmp_path, pass_fds=pass_fds)
        finally:
            if transport == "pipe":
                os.close(r)
            elif writer.is_alive():  # the CLI never opened the FIFO: let the writer go
                os.close(os.open(tmp_path / name, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
            assert not writer.is_alive()

    @pytest.mark.parametrize("transport", ["pipe", "fifo"])
    @pytest.mark.parametrize("kind", ["csv", "json"])
    @pytest.mark.parametrize("command", ["compute", "duality"])
    def test_digest_is_of_the_bytes_written(self, tmp_path, transport, kind, command):
        data = self.CSV if kind == "csv" else self.JSON
        (tmp_path / "step.json").write_text(
            json.dumps({"type": "step", "lambda_min": 0.1, "lambda_max": 0.3, "threshold": 0.0})
        )
        rest = (["--measure", "lambda-var", "--profile", "step.json"] if command == "compute"
                else ["--profile", "step.json", "--functions", "20", "--delta", "0.5"])
        proc = self.run_on(tmp_path, f"data.{kind}", data, transport, [command, "--data", *rest])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["inputs"]["data_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()
        (tmp_path / f"plain.{kind}").write_bytes(data)
        plain = cli_process([command, "--data", f"plain.{kind}", *rest], tmp_path)
        report["inputs"]["data"] = f"plain.{kind}"
        assert report == json.loads(plain.stdout)

    @pytest.mark.parametrize("kind", ["csv", "json"])
    def test_a_bad_pipe_names_its_line(self, tmp_path, kind):
        data = b"value\n1\nnope\n" if kind == "csv" else b'{"type": "dirac"\r\n, }'
        proc = self.run_on(tmp_path, f"data.{kind}", data, "fifo",
                           ["compute", "--data", "--measure", "worst-case"])
        (tmp_path / f"plain.{kind}").write_bytes(data)
        plain = cli_process(["compute", "--data", f"plain.{kind}", "--measure", "worst-case"],
                            tmp_path)
        assert proc.returncode == plain.returncode == 2
        assert proc.stderr == plain.stderr.replace(b"plain", b"data")


@pytest.fixture(scope="module")
def csv_of_two_ranges(tmp_path_factory):
    """A CSV of at least 4 MiB: two ranges of at least _RANGE_BYTES each."""
    rng = random.Random(12)
    path = tmp_path_factory.mktemp("big") / "data.csv"
    path.write_text("value\n" + "".join(f"{rng.gauss(0.0, 1.0)!r}\n" for _ in range(225_000)))
    assert path.stat().st_size >= max(4 << 20, 2 * cli._RANGE_BYTES)
    return path


class TestDigestOnEveryRoute:
    """compute and duality report the SHA-256 of the --data bytes on every
    route that reads them, each byte read once."""

    run_on = TestDataNotARegularFile.run_on
    DATA = {
        "single-range": b"value\n-10\n-5\r\n0\n\n5\n",
        "line-loop": b"value\n-10\n \n-5\n0\n5\n",
        "json": TestDataNotARegularFile.JSON,
        "pipe": TestDataNotARegularFile.CSV,
        "fifo": TestDataNotARegularFile.CSV,
    }

    @pytest.mark.parametrize(
        "route", ["multi-range", "single-range", "line-loop", "json", "pipe", "fifo"]
    )
    @pytest.mark.parametrize("command", ["compute", "duality"])
    def test_digest_is_of_the_file(self, tmp_path, monkeypatch, capsys, csv_of_two_ranges,
                                   command, route):
        (tmp_path / "step.json").write_text(
            json.dumps({"type": "step", "lambda_min": 0.1, "lambda_max": 0.3, "threshold": 0.0})
        )
        rest = (["--measure", "lambda-var", "--profile", "step.json"] if command == "compute"
                else ["--profile", "step.json", "--functions", "5", "--delta", "0.5"])
        if route in ("pipe", "fifo"):
            data = self.DATA[route]
            proc = self.run_on(tmp_path, "data.csv", data, route, [command, "--data", *rest])
            assert proc.returncode == 0, proc.stderr
            digest = json.loads(proc.stdout)["inputs"]["data_digest"]
        else:
            path = csv_of_two_ranges if route == "multi-range" else tmp_path / (
                "data.json" if route == "json" else "data.csv")
            if route != "multi-range":
                path.write_bytes(self.DATA[route])
            data = path.read_bytes()
            forks = split_into_ranges(monkeypatch, cpus=2)
            monkeypatch.setattr(cli, "_RANGE_BYTES", 2 << 20)  # two CPUs, real range sizes
            ran = []
            parse_lines = cli._parse_lines
            monkeypatch.setattr(cli, "_parse_lines", lambda *a: ran.append(a) or parse_lines(*a))
            monkeypatch.chdir(tmp_path)
            code, out, err = run_cli(capsys, command, "--data", str(path), *rest)
            assert (code, err) == (0, "")
            digest = json.loads(out)["inputs"]["data_digest"]
            assert len(forks) == (route == "multi-range")
            assert len(ran) == (route == "line-loop")
            assert_no_child_left()
        assert digest == "sha256:" + hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("cpus", [1, 2])
def test_digest_stops_at_the_size_the_ranges_were_cut_from(tmp_path, monkeypatch, cpus):
    """Bytes appended while the ranges are parsed are neither parsed nor hashed."""
    forks = split_into_ranges(monkeypatch, cpus)
    values = [i / 7 for i in range(-20, 20)]
    data = b"value\n" + b"".join(b"%r\n" % v for v in values)
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    caller = os.getpid()
    parse_range = cli._parse_range
    appended = []

    def appending(fd, start, end):
        if os.getpid() == caller and not appended:
            with open(path, "ab") as fh:
                appended.append(fh.write(b"99\n"))
        return parse_range(fd, start, end)

    monkeypatch.setattr(cli, "_parse_range", appending)
    p, digest = cli._load_data(str(path))
    assert appended and path.read_bytes() == data + b"99\n"
    assert digest == "sha256:" + hashlib.sha256(data).hexdigest()
    assert repr(p) == repr(from_samples(values))
    assert len(forks) == cpus - 1
    assert_no_child_left()


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, 5_000_001])
def test_file_digest_hashes_in_chunks(tmp_path, size):
    data = random.Random(size).randbytes(size)
    path = tmp_path / "data.bin"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = cli.file_digest(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == "sha256:" + hashlib.sha256(data).hexdigest()
    assert peak < 3 << 20  # a few chunks, never the whole file
