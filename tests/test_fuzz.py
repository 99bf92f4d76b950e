"""Fuzz of the input boundary: every JSON input ends in a documented exit code.

Distribution and profile objects are drawn from a grammar that mixes
well-formed members with wrong types, missing keys, integers beyond float
range, non-finite floats, nested mixtures and point lists that are too short
or too long.  ``--tol``, ``--lambda`` and ``LVAR_TOL`` are drawn too,
NaN and infinities among them.  The parsers may only raise the errors the
CLI maps to exit codes, and ``main`` must return 0, 2, 3, 4 or 5 (or leave
through argparse's exit 2 on a flag it refuses), never raise otherwise, and
print a strict JSON report that validates against ``REPORT_SCHEMA`` whenever
it returns 0.
"""

import contextlib
import io
import json
import math
import os

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambdavar import Cdf, LossProfile
from lambdavar._reader import parse_distribution
from lambdavar.cli import REPORT_SCHEMA, main, parse_profile

HUGE = st.sampled_from([10**400, -(10**400), 2**1024])
WEIGHTS = st.sampled_from([0.0, 0.3, 1.0])
FINITE = st.one_of(
    st.sampled_from([0, 1, -1, 0.0, -0.0, 0.25, 0.5, -1.5, 2.0]),
    st.floats(-10.0, 10.0),
    st.integers(-5, 5),
)
NUMBER = st.one_of(FINITE, st.floats(), HUGE)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(NUMBER, max_size=2),
    st.dictionaries(st.text(max_size=2), NUMBER, max_size=2),
)
VALUE = NUMBER | JUNK
POINTS = st.lists(st.lists(VALUE, max_size=4) | VALUE, max_size=6) | JUNK


@st.composite
def curve_points(draw, levels, first=None, last=None):
    """Breakpoints at sorted integer abscissae with sorted levels."""
    xs = sorted(set(draw(st.lists(st.integers(-8, 8), min_size=1, max_size=5))))
    ys = sorted(draw(st.lists(st.sampled_from(levels),
                              min_size=2 * len(xs), max_size=2 * len(xs))))
    if first is not None:
        ys[0], ys[-1] = first, last
    return [[x, ys[2 * i], ys[2 * i + 1]] for i, x in enumerate(xs)]


@st.composite
def piecewise_profiles(draw):
    points = draw(curve_points([0.0, 0.02, 0.1, 0.5]))
    orientation = "nondecreasing"
    if draw(st.booleans()):
        # mirror the abscissae: the same levels, nonincreasing
        points = [[-x, v, l] for x, l, v in reversed(points)]
        orientation = "nonincreasing"
    tails = [points[0][1], points[-1][2]]
    return {"type": "piecewise", "points": points, "tails": tails,
            "orientation": orientation}


@st.composite
def spoiled(draw, objects):
    """A well-formed object: kept as it is, or with one field replaced (by
    NaN or an infinity part of the time) or dropped, or an extra key that
    holds NaN or an infinity, or one point made too short or too long, or
    replaced whole by a value of another type."""
    obj = dict(draw(objects))
    key = draw(st.sampled_from(sorted(obj)))
    how = draw(st.sampled_from(["keep"] * 4 + ["replace", "drop", "extra", "reshape", "junk"]))
    if how == "junk":
        return draw(JUNK)
    if how == "replace":
        obj[key] = draw(NON_FINITE if draw(st.booleans()) else VALUE | POINTS)
    elif how == "drop":
        del obj[key]
    elif how == "extra":
        obj["note"] = draw(NON_FINITE)
    elif how == "reshape" and obj.get("points"):
        points = [list(p) for p in obj["points"]]
        i = draw(st.integers(0, len(points) - 1))
        short = draw(st.booleans())
        points[i] = points[i][:-1] if short else points[i] + [draw(NUMBER)]
        obj["points"] = points
    return obj


def typed(kind, **fields):
    return st.fixed_dictionaries({"type": st.just(kind), **fields})


@st.composite
def uniforms(draw):
    a, b = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)))
    return {"type": "uniform", "a": a, "b": b}


LEAF_DISTRIBUTIONS = spoiled(
    st.one_of(
        typed("dirac", x=FINITE),
        uniforms(),
        typed("empirical", samples=st.lists(FINITE, min_size=1, max_size=12)),
        typed("piecewise", points=curve_points([0.0, 0.25, 0.5, 1.0], 0.0, 1.0)),
    )
)
DISTRIBUTIONS = st.recursive(
    LEAF_DISTRIBUTIONS,
    lambda inner: spoiled(
        typed("mixture", p=inner, q=inner, **{"lambda": WEIGHTS})
    ),
    max_leaves=6,
)
PROFILES = spoiled(
    st.one_of(
        typed("constant", **{"lambda": st.sampled_from([0.0, 0.05, 0.5, 1.0])}),
        typed(
            "step",
            lambda_min=st.sampled_from([0.0, 0.01, 0.1]),
            lambda_max=st.sampled_from([0.1, 0.3, 1.0]),
            threshold=FINITE,
        ),
        piecewise_profiles(),
    )
)

# What the CLI maps to exit 2 (3 for an infeasible profile, a ValueError);
# _parse_json turns OverflowError and RecursionError into ValueError.
PARSE_ERRORS = (ValueError, KeyError, TypeError, OverflowError)


@given(DISTRIBUTIONS)
def test_parse_distribution(obj):
    try:
        assert isinstance(parse_distribution(obj), Cdf)
    except PARSE_ERRORS:
        pass


@given(PROFILES)
def test_parse_profile(obj):
    try:
        assert isinstance(parse_profile(obj), LossProfile)
    except PARSE_ERRORS:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


COMMANDS = [
    ["compute", "--measure", "lambda-var"],
    ["compute", "--measure", "var", "--lambda", "0.05"],
    ["compute", "--measure", "worst-case"],
    ["compute", "--measure", "entropic"],
    ["compute", "--measure", "certainty-eq"],
    ["duality", "--functions", "5"],
]


FLAG_VALUE = st.sampled_from(
    ["1e-9", "0.05", "0", "-1", "1e308", "nan", "NaN", "inf", "-inf", "Infinity", "1e999"]
)
OPTIONAL_FLAG = st.none() | FLAG_VALUE


def run_main(argv, env_tol):
    """main's exit code, with LVAR_TOL set to env_tol unless it is None."""
    saved = os.environ.pop("LVAR_TOL", None)
    if env_tol is not None:
        os.environ["LVAR_TOL"] = env_tol
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refused a flag
        return exc.code
    finally:
        os.environ.pop("LVAR_TOL", None)
        if saved is not None:
            os.environ["LVAR_TOL"] = saved


def not_json(name):
    raise AssertionError(f"the report holds {name}, which JSON does not allow")


@given(DISTRIBUTIONS, PROFILES, OPTIONAL_FLAG, OPTIONAL_FLAG, OPTIONAL_FLAG)
def test_main_exits_with_a_documented_code(workdir, dist, profile, tol, lam, env_tol):
    data, prof = workdir / "data.json", workdir / "profile.json"
    data.write_text(json.dumps(dist))
    prof.write_text(json.dumps(profile))
    for command in COMMANDS:
        argv = [*command, "--data", str(data), "--profile", str(prof)]
        if tol is not None:
            argv.append(f"--tol={tol}")
        if lam is not None and command[0] == "compute":
            argv.append(f"--lambda={lam}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_main(argv, env_tol)
        assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
        if code == 0:
            report = json.loads(out.getvalue(), parse_constant=not_json)
            jsonschema.validate(report, REPORT_SCHEMA)
        else:
            assert out.getvalue() == ""

