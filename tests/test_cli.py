import hashlib
import json
import math
import os
import random
import threading
import tracemalloc

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
            "--lambda", "1e308", "--tol=-5e-324",
        )
        assert report["inputs"]["lambda"] == 1e308


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

        monkeypatch.setattr(cli, "load_distribution", refuse)
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

    @pytest.mark.parametrize("data", [b"value\n1\n-2.5\n", b" VALUE \r\n1\r\n-2.5", b"1\n-2.5\n"])
    def test_clean_files_never_reach_the_line_loop(self, tmp_path, monkeypatch, data):
        def refuse(path, lines):
            raise AssertionError("the line-by-line parse ran")

        monkeypatch.setattr(cli, "_parse_lines", refuse)
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert read_csv_samples(str(path)) == [1.0, -2.5]

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
