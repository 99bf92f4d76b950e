"""How a CLI run ends.

Run as a program, ``lambdavar`` writes and flushes its report inside
``main`` and then leaves through ``_fork.leave``: the atexit callbacks run,
the streams are flushed, and the process ends without interpreter teardown.
A stdout that cannot take the report (a closed pipe, a full device, a closed
descriptor) exits 5 with one line on stderr, buffered or not.  A closed
stderr drops the error line: every error exit keeps its code, and nothing
goes to stdout.  Through ``python -m`` every command prints what ``main``
prints in-process.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

from lambdavar import cli
from lambdavar.cli import main
from test_package import SRC

STEP = {"type": "step", "lambda_min": 0.1, "lambda_max": 0.3, "threshold": 0.0}
INFEASIBLE = {"type": "constant", "lambda": 1.0}


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "data.csv").write_text("value\n-10\n-5\n0\n5\n")
    (tmp_path / "step.json").write_text(json.dumps(STEP))
    (tmp_path / "one.json").write_text(json.dumps(INFEASIBLE))
    return tmp_path


def env(unbuffered: bool = True) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("LVAR_TOL", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def program(cwd, argv, unbuffered=True, **kw) -> subprocess.CompletedProcess:
    """``python -m lambdavar.cli argv`` in cwd."""
    if "stdout" not in kw:
        kw["capture_output"] = True
    return subprocess.run(
        [sys.executable, "-m", "lambdavar.cli", *argv], cwd=cwd, env=env(unbuffered),
        timeout=120, **kw,
    )


# ---------- the exit path ----------


WRAPPER = textwrap.dedent("""
    import atexit, runpy, sys

    class Late:
        def __del__(self):
            sys.stderr.write("teardown\\n")

    late = Late()  # freed only by interpreter teardown
    atexit.register(lambda: print("atexit: stdout"))
    atexit.register(lambda: print("atexit: stderr", file=sys.stderr))
    sys.argv = ["lambdavar", *sys.argv[1:]]
    runpy.run_module("lambdavar.cli", run_name="__main__")
""")


@pytest.mark.parametrize("argv, code", [
    (["compute", "--data", "data.csv", "--measure", "worst-case"], 0),
    (["compute", "--data", "data.csv", "--measure", "lambda-var", "--profile", "one.json"], 3),
    (["compute", "--data", "missing.csv", "--measure", "worst-case"], 2),
], ids=["ok", "infeasible", "missing-data"])
def test_atexit_callbacks_run_and_teardown_does_not(inputs, argv, code):
    (inputs / "wrapper.py").write_text(WRAPPER)
    proc = subprocess.run(
        [sys.executable, "wrapper.py", *argv], cwd=inputs, env=env(unbuffered=False),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code
    assert proc.stdout.endswith("atexit: stdout\n")
    assert proc.stderr.endswith("atexit: stderr\n")
    assert "teardown" not in proc.stderr


def test_run_leaves_with_mains_code(monkeypatch, inputs, capsys):
    left = []
    monkeypatch.chdir(inputs)
    monkeypatch.setattr(cli, "leave", left.append)
    monkeypatch.setattr(sys, "argv", ["lambdavar", "compute", "--data", "data.csv",
                                      "--measure", "lambda-var", "--profile", "one.json"])
    cli.run()
    assert left == [3]
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["compute"]], ids=["help", "usage"])
def test_argparse_exits_keep_their_path(monkeypatch, argv, capsys):
    monkeypatch.setattr(cli, "leave", lambda code: pytest.fail("argparse exit reached leave"))
    monkeypatch.setattr(sys, "argv", ["lambdavar", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == (0 if argv == ["--help"] else 2)


# ---------- a stdout that cannot take the report ----------


SMALL = {
    "compute": ["compute", "--data", "data.csv", "--measure", "lambda-var",
                "--profile", "step.json"],
    "duality": ["duality", "--data", "data.csv", "--profile", "step.json",
                "--functions", "10", "--delta", "0.5"],
    "check": ["check", "--suite", "cfb-counterexample", "--trials", "2"],
    "plot": ["plot", "--data", "data.csv", "--profile", "step.json", "--out", "p.svg"],
}


def closed_pipe(cwd, argv, unbuffered):
    r, w = os.pipe()
    os.close(r)
    try:
        return program(cwd, argv, unbuffered, stdout=w, stderr=subprocess.PIPE)
    finally:
        os.close(w)


def full_device(cwd, argv, unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        return program(cwd, argv, unbuffered, stdout=full, stderr=subprocess.PIPE)


def closed_descriptor(cwd, argv, unbuffered):
    sh = shutil.which("sh")
    if sh is None:
        pytest.skip("no sh")
    return subprocess.run(
        [sh, "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "lambdavar.cli", *argv],
        cwd=cwd, env=env(unbuffered), stderr=subprocess.PIPE, timeout=120,
    )


ROUTES = {
    "closed-pipe": (closed_pipe, "[Errno 32] Broken pipe"),
    "dev-full": (full_device, "[Errno 28] No space left on device"),
    "closed-stdout": (closed_descriptor, "stdout is closed"),
}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("command", sorted(SMALL))
def test_an_unwritable_stdout_exits_5(inputs, command, route, unbuffered):
    send, reason = ROUTES[route]
    proc = send(inputs, SMALL[command], unbuffered)
    assert proc.returncode == 5
    assert proc.stderr.decode() == f"error: cannot write output: {reason}\n"


# ---------- a closed stderr ----------


# exit 4 needs a dual bound that cannot be bracketed; this wrapper makes
# duality's bound fail that way, then runs the program as python -m does
FAILING_BOUND = textwrap.dedent("""
    import runpy, sys
    from lambdavar import dual
    from lambdavar.exceptions import BracketError

    def fail(*args, **kwargs):
        raise BracketError("widen search bracket")

    dual.representation_bound = fail
    sys.argv = ["lambdavar", *sys.argv[1:]]
    runpy.run_module("lambdavar.cli", run_name="__main__")
""")

ERRORS = {
    "parse-2": (["-m", "lambdavar.cli", "compute", "--data", "missing.csv",
                 "--measure", "worst-case"], 2),
    "infeasible-3": (["-m", "lambdavar.cli", "compute", "--data", "data.csv",
                      "--measure", "lambda-var", "--profile", "one.json"], 3),
    "bracket-4": (["failing_bound.py", "duality", "--data", "data.csv",
                   "--profile", "step.json", "--functions", "5"], 4),
    "unwritable-5": (["-m", "lambdavar.cli", "compute", "--data", "data.csv",
                      "--measure", "worst-case", "--out", "."], 5),
}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("error", sorted(ERRORS))
def test_a_closed_stderr_keeps_the_exit_code_and_stdout_empty(inputs, error, unbuffered):
    sh = shutil.which("sh")
    if sh is None:
        pytest.skip("no sh")
    (inputs / "failing_bound.py").write_text(FAILING_BOUND)
    argv, code = ERRORS[error]
    proc = subprocess.run(
        [sh, "-c", 'exec "$0" "$@" 2>&-', sys.executable, *argv],
        cwd=inputs, env=env(unbuffered), stdout=subprocess.PIPE, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, b"")


@pytest.mark.parametrize("stderr", [None, "closed"])
def test_an_error_line_never_falls_back_to_stdout(monkeypatch, capsys, stderr):
    class Closed(io.StringIO):
        def write(self, text):
            raise OSError(9, "Bad file descriptor")

    monkeypatch.setattr(sys, "stderr", None if stderr is None else Closed())
    assert main(["compute", "--data", "missing.csv", "--measure", "worst-case"]) == 2
    assert capsys.readouterr().out == ""


# ---------- python -m prints what main prints ----------


RUNS = {
    **{f"{name}-stdout": argv for name, argv in SMALL.items()},
    **{f"{name}-out": [*argv, "--out", "r.json"] for name, argv in SMALL.items()
       if name != "plot"},
    "compute-var": ["compute", "--data", "data.csv", "--measure", "var", "--lambda", "0.25"],
    "compute-infeasible": ["compute", "--data", "data.csv", "--measure", "lambda-var",
                           "--profile", "one.json"],
    "compute-missing": ["compute", "--data", "missing.csv", "--measure", "entropic"],
    "check-unknown": ["check", "--suite", "no-such-suite"],
}


def outputs(cwd) -> dict:
    return {name: (cwd / name).read_bytes() for name in ("r.json", "p.svg")
            if (cwd / name).exists()}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_program_prints_what_main_prints(inputs, tmp_path_factory, monkeypatch, capsys,
                                             run):
    argv = RUNS[run]
    here = tmp_path_factory.mktemp("in-process")
    for name in ("data.csv", "step.json", "one.json"):
        shutil.copy(inputs / name, here / name)
    monkeypatch.delenv("LVAR_TOL", raising=False)
    monkeypatch.chdir(here)
    code = main(list(argv))
    captured = capsys.readouterr()
    proc = program(inputs, argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        code, captured.out, captured.err)
    assert outputs(inputs) == outputs(here)
    if run.endswith("-out") or run.startswith("plot"):
        assert outputs(here)
