"""A profile JSON holds finite numbers only, so every report is strict JSON.

``json.loads`` reads the literals NaN, Infinity and -Infinity and rounds
1e400 to infinity, and ``compute`` and ``duality`` echo the whole profile
object into ``inputs.profile``.  So a non-finite number anywhere in a
profile, in a key that no parser reads too, is a parse error that names the
file: exit 2, nothing on stdout.  The data JSON is not echoed and keeps the
plain ``json.loads``.
"""

import contextlib
import io
import json

import pytest

from lambdavar.cli import main

LITERALS = ["NaN", "Infinity", "-Infinity", "1e400"]
COMMANDS = [
    ["compute", "--measure", "lambda-var"],
    ["duality", "--functions", "5"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def data(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("value\n-1.5\n0.25\n2.0\n")
    return path


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("literal", LITERALS)
def test_a_non_finite_number_in_an_unused_key_is_a_parse_error(tmp_path, data, command,
                                                                literal):
    profile = tmp_path / "profile.json"
    profile.write_text('{"type": "constant", "lambda": 0.25, "note": %s}' % literal)
    code, out, err = run([*command, "--data", str(data), "--profile", str(profile)])
    assert (code, out) == (2, "")
    assert err == f"error: {profile}: not a finite number: {literal}\n"


@pytest.mark.parametrize("literal", ["NaN", "1e400"])
def test_a_non_finite_level_is_a_parse_error(tmp_path, data, literal):
    # the level used to reach the profile: 1e400 as inf exited 3 (infeasible)
    profile = tmp_path / "profile.json"
    profile.write_text('{"type": "constant", "lambda": %s}' % literal)
    code, out, err = run(["compute", "--measure", "lambda-var", "--data", str(data),
                          "--profile", str(profile)])
    assert (code, out) == (2, "")
    assert err == f"error: {profile}: not a finite number: {literal}\n"


def test_finite_numbers_are_echoed_unchanged(tmp_path, data):
    profile = tmp_path / "profile.json"
    profile.write_text('{"type": "constant", "lambda": 0.25, "note": [-0.0, 1e308, 7]}')
    code, out, _ = run(["compute", "--measure", "lambda-var", "--data", str(data),
                        "--profile", str(profile)])
    assert code == 0
    echo = json.loads(out)["inputs"]["profile"]
    assert repr(echo) == repr({"type": "constant", "lambda": 0.25, "note": [-0.0, 1e308, 7]})


def test_the_data_json_keeps_the_plain_parser(tmp_path):
    # its numbers are never echoed, and the curve checks refuse non-finite ones
    data = tmp_path / "data.json"
    data.write_text('{"type": "dirac", "x": 1.5, "note": NaN}')
    code, out, _ = run(["compute", "--measure", "worst-case", "--data", str(data)])
    assert code == 0
    assert json.loads(out)["value"] == -1.5
