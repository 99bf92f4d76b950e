"""The one fork primitive, ``lambdavar._fork.map_chunks``, under the check suites.

Each trial suite draws its trials here and judges them in one contiguous
chunk per usable CPU, the later chunks in forked workers.  A report must not
depend on that: the same bytes on one CPU and on all of them, the same
result where nothing may fork, and a failed worker answered by exactly one
serial run.  The CSV reader's side of the primitive is tested in
``test_cli.py`` (``TestRangeReader``, ``TestNoFork``).
"""

import errno
import io
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lambdavar import _fork, checks
from lambdavar.cli import main
from lambdavar.exceptions import BracketError
from test_cli import SRC, assert_no_child_left

SUITES = checks.suite_names()


def use_cpus(monkeypatch, cpus):
    """Make chunk_count() see `cpus` usable CPUs; returns the pids os.fork starts."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def refuse_fork():
    raise AssertionError("a suite forked")


def python(argv, cwd, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that finds this package first."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, timeout=120, **kwargs,
    )


def run_main(argv):
    """(exit code, stdout, stderr) of main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_and_all_cpus_print_the_same_reports(tmp_path):
    cases = [
        ["check", "--suite", suite, "--trials", str(trials), "--seed", str(seed)]
        for suite in SUITES for seed in (0, 3, 7) for trials in (0, 1, 2, 5, 201)
    ]
    code = (
        "from lambdavar.cli import main\n"
        f"for argv in {cases!r}:\n"
        "    print('exit', main(argv), flush=True)\n"
    )
    all_cpus = python(["-c", code], tmp_path)
    one_cpu = python(["-c", code], tmp_path, preexec_fn=lambda: os.sched_setaffinity(0, {0}))
    assert all_cpus.returncode == 0, all_cpus.stderr
    assert one_cpu.stdout == all_cpus.stdout
    assert one_cpu.stderr == all_cpus.stderr == b""
    assert all_cpus.stdout.count(b'"report": "check"') == len(cases)
    assert all_cpus.stdout.count(b"\nexit 0\n") == len(cases)


# run_suite(suite, 40, 3) before the suites judged their trials in chunks.
SEED_3_RESULTS = {
    "cfa": (0, 0.00039999999999995595, {}),
    "cfb-counterexample": (0, 5.551115123125783e-17, {
        "discontinuity": 0.19999999999999998, "expected_jump": 0.19999999999999998,
        "sequence_limit": 0.0, "limit_value": -0.19999999999999998}),
    "duality-sandwich": (0, 0.0, {"informative": 29}),
    "mon": (0, 0.0, {}),
    "qco": (0, 0.0, {}),
    "reductions": (0, 0.0, {}),
    "translation": (0, 0.0, {}),
}


@pytest.mark.parametrize("suite", SUITES)
def test_the_draws_keep_their_order(monkeypatch, suite):
    use_cpus(monkeypatch, 2)
    r = checks.run_suite(suite, 40, 3)
    assert repr((r.violations, r.max_residual, r.details)) == repr(SEED_3_RESULTS[suite])


class TestRunSuite:
    """run_suite forked on 4 CPUs, and where nothing may fork, against a serial run."""

    CASES = [(suite, trials) for suite in SUITES for trials in (0, 1, 2, 5, 41)]

    def serial(self, monkeypatch, suite, trials):
        with monkeypatch.context() as mp:
            mp.delattr(os, "fork")
            return repr(vars(checks.run_suite(suite, trials, 3)))

    @pytest.mark.parametrize("suite, trials", CASES)
    def test_forked_on_four_cpus(self, monkeypatch, suite, trials):
        expected = self.serial(monkeypatch, suite, trials)
        forks = use_cpus(monkeypatch, 4)
        assert repr(vars(checks.run_suite(suite, trials, 3))) == expected
        assert len(forks) == (0 if suite == "cfb-counterexample" else max(min(trials, 4) - 1, 0))
        assert_no_child_left()

    @pytest.mark.parametrize("suite, trials", CASES)
    def test_not_with_a_second_thread_alive(self, monkeypatch, suite, trials):
        expected = self.serial(monkeypatch, suite, trials)
        use_cpus(monkeypatch, 4)
        monkeypatch.setattr(os, "fork", refuse_fork)
        parked = threading.Event()
        waiter = threading.Thread(target=parked.wait, daemon=True)
        waiter.start()
        try:
            assert repr(vars(checks.run_suite(suite, trials, 3))) == expected
        finally:
            parked.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert_no_child_left()

    @pytest.mark.parametrize("suite", SUITES)
    def test_not_without_os_fork(self, monkeypatch, suite):
        with monkeypatch.context() as mp:
            use_cpus(mp, 1)
            expected = repr(vars(checks.run_suite(suite, 41, 3)))
        use_cpus(monkeypatch, 4)
        monkeypatch.delattr(os, "fork")
        assert repr(vars(checks.run_suite(suite, 41, 3))) == expected
        assert_no_child_left()


def poison(monkeypatch, trials, exc=BracketError):
    """Make lambda_var raise exc('trial k') on the profile `mon` draws for each
    trial k in `trials`.  Returns the reset to call before each run.

    The draws happen in the caller, in trial order, so every run poisons the
    same trials, and a worker sees the ids its caller recorded.
    """
    draw = checks.random_profile
    lambda_var = checks.lambda_var
    poisoned = {}

    def counted_draw(rng):
        prof = draw(rng)
        poisoned[id(prof)] = len(poisoned)  # the cases hold every profile to the end
        return prof

    def poisoned_lambda_var(p, prof):
        k = poisoned.get(id(prof))
        if k in trials:
            raise exc(f"trial {k}")
        return lambda_var(p, prof)

    monkeypatch.setattr(checks, "random_profile", counted_draw)
    monkeypatch.setattr(checks, "lambda_var", poisoned_lambda_var)
    return poisoned.clear


class TestFailedWorkers:
    """The primitive's failure paths, as the CSV reader's tests take them."""

    ARGV = ["check", "--suite", "mon", "--trials", "40", "--seed", "3"]

    def serial_main(self, monkeypatch, reset=lambda: None):
        reset()
        with monkeypatch.context() as mp:
            mp.delattr(os, "fork")
            return run_main(self.ARGV)

    def test_a_worker_that_exits_gives_the_serial_result_through_one_serial_run(
        self, monkeypatch
    ):
        caller = os.getpid()
        lambda_var = checks.lambda_var
        calls = []

        def exiting(p, prof):
            if os.getpid() != caller:
                os._exit(1)
            calls.append(1)
            return lambda_var(p, prof)

        monkeypatch.setattr(checks, "lambda_var", exiting)
        expected = self.serial_main(monkeypatch)
        serial_calls = len(calls)
        assert serial_calls == 2 * 40  # two risks a trial
        calls.clear()
        forks = use_cpus(monkeypatch, 2)
        assert run_main(self.ARGV) == expected
        assert expected[0] == 0
        # the caller's chunk of 20 trials, then every trial once more
        assert len(calls) == 2 * 20 + serial_calls
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("exc, code", [(BracketError, 4), (ValueError, 2)])
    def test_a_raise_in_a_workers_half_is_the_serial_runs(self, monkeypatch, exc, code):
        reset = poison(monkeypatch, {27, 33}, exc)
        expected = self.serial_main(monkeypatch, reset)
        assert expected == (code, "", "error: trial 27\n")
        reset()
        forks = use_cpus(monkeypatch, 2)
        assert run_main(self.ARGV) == expected
        reset()
        with pytest.raises(exc, match="^trial 27$") as raised:
            checks.run_suite("mon", 40, 3)
        assert type(raised.value) is exc
        assert len(forks) == 2
        assert_no_child_left()

    def test_a_raise_here_kills_a_slow_worker(self, monkeypatch):
        reset = poison(monkeypatch, {3})
        expected = self.serial_main(monkeypatch, reset)
        assert expected == (4, "", "error: trial 3\n")
        caller = os.getpid()
        lambda_var = checks.lambda_var

        def slow(p, prof):
            if os.getpid() != caller:
                time.sleep(60)
                os._exit(1)
            return lambda_var(p, prof)

        monkeypatch.setattr(checks, "lambda_var", slow)
        reset()
        forks = use_cpus(monkeypatch, 2)
        started = time.monotonic()
        assert run_main(self.ARGV) == expected
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        assert_no_child_left()


class TestMapChunks:
    def test_results_in_chunk_order(self, monkeypatch):
        forks = use_cpus(monkeypatch, 4)
        chunks = [[1.5, -0.0], [5e-324], [None, True, "x"], [(1, 2.0)]]
        assert repr(_fork.map_chunks(list, chunks)) == repr(chunks)
        assert len(forks) == 3
        assert_no_child_left()

    def test_a_result_marshal_cannot_send_fails_the_call(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        assert _fork.map_chunks(lambda chunk: object() if chunk else 0, [0, 1]) is None
        assert_no_child_left()

    def test_no_process_to_be_had_fails_the_call(self, monkeypatch):
        forks = use_cpus(monkeypatch, 3)
        fork = os.fork

        def second_fork_fails():
            if forks:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        assert _fork.map_chunks(len, ["a", "bb", "ccc"]) is None
        assert len(forks) == 1  # the first worker was started, then killed and reaped
        assert_no_child_left()
