"""The one fork primitive, ``lambdavar._fork.map_chunks``, under the check suites.

Each trial suite draws its trials here and judges them in four contiguous
chunks per usable CPU, which this process and forked workers take in turn.
A report must not depend on that: the same bytes on one CPU and on all of
them, the same result where nothing may fork, and a failed worker answered
by exactly one serial run.  Which process takes which chunk is a race, so a
test that needs one outcome decides it with ``wait_to_claim``.  The CSV
reader's side of the primitive is tested in ``test_cli.py``
(``TestRangeReader``, ``TestNoFork``, ``TestRangeBuild``).
"""

import errno
import hashlib
import io
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lambdavar import _fork, checks, dual, oracles
from lambdavar.cli import main
from lambdavar.exceptions import BracketError
from test_cli import SRC, assert_no_child_left, wait_to_claim

SUITES = checks.suite_names()


def use_cpus(monkeypatch, cpus):
    """Make process_count() see `cpus` usable CPUs; returns the pids os.fork starts."""
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
    # the 105 reports as printed before one fold served every trial suite
    assert hashlib.sha256(all_cpus.stdout).hexdigest() == (
        "cdf88363f39c05c335b86e59034943ab0c45c975baf7c66459f81b53fe7b8664"
    )


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


def skew_the_suites(monkeypatch):
    """Shift every risk that lambda_var reports, in the suites and in the
    oracles they call, by 2 * ((64 * lower support end) mod 3 - 1), and lower
    the closed-form gamma by (64 * m mod 3) / 4.

    Each shift depends on its call's arguments alone, so however the trials
    are chunked, each suite finds the same violations.
    """

    def shifted(lambda_var):
        def shifted_lambda_var(p, prof):
            r = lambda_var(p, prof)
            shift = (p.support_lower * checks.GRAIN % 3 - 1) * 2
            return type(r)(r.value + shift, r.violation_point, r.finiteness_case)

        return shifted_lambda_var

    gamma_increasing = dual.gamma_increasing
    monkeypatch.setattr(checks, "lambda_var", shifted(checks.lambda_var))
    monkeypatch.setattr(oracles, "lambda_var", shifted(oracles.lambda_var))
    monkeypatch.setattr(dual, "gamma_increasing",
                        lambda m, f, prof: gamma_increasing(m, f, prof) - m * checks.GRAIN % 3 / 4)


# run_suite(suite, 41, 3) under skew_the_suites before one fold served every suite.
SKEWED_SEED_3_RESULTS = {
    "cfa": (41, 0.05119999999999436, {}),
    "duality-sandwich": (31, 0.7170802275977621, {"informative": 29}),
    "mon": (11, 3.109375, {}),
    "qco": (4, 2.0, {}),
    "reductions": (28, 2.0, {}),
    "translation": (28, 4.0, {}),
}


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("suite", sorted(set(SUITES) - {"cfb-counterexample"}))
def test_violations_and_residuals_of_every_trial_suite(monkeypatch, suite, cpus):
    skew_the_suites(monkeypatch)
    forks = use_cpus(monkeypatch, cpus)
    r = checks.run_suite(suite, 41, 3)
    assert repr((r.violations, r.max_residual, r.details)) == repr(SKEWED_SEED_3_RESULTS[suite])
    assert len(forks) == cpus - 1
    assert_no_child_left()


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
        gone, going = os.pipe()

        def exiting(p, prof):
            if os.getpid() != caller:
                os.write(going, b"x")
                os._exit(1)
            calls.append(1)
            return lambda_var(p, prof)

        monkeypatch.setattr(checks, "lambda_var", exiting)
        expected = self.serial_main(monkeypatch)
        serial_calls = len(calls)
        assert serial_calls == 2 * 40  # two risks a trial
        calls.clear()
        forks = use_cpus(monkeypatch, 2)
        wait_to_claim(monkeypatch, "caller", gone)  # the worker takes chunk 1 and exits first
        assert run_main(self.ARGV) == expected
        assert expected[0] == 0
        # eight chunks of 5 trials: every one here but the worker's, then
        # every trial once more
        assert len(calls) == 2 * (40 - 5) + serial_calls
        assert len(forks) == 1
        assert_no_child_left()
        os.close(gone)
        os.close(going)

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
        taken, taking = os.pipe()
        wait_to_claim(monkeypatch, "caller", taken)  # the worker takes chunk 1

        def fn(chunk):
            if chunk:
                os.write(taking, b"x")
                return object()
            return 0

        assert _fork.map_chunks(fn, [0, 1]) is None
        assert_no_child_left()
        os.close(taken)
        os.close(taking)

    def test_a_slowed_worker_takes_fewer_chunks(self, monkeypatch):
        forks = use_cpus(monkeypatch, 3)
        caller = os.getpid()
        ran, running = os.pipe()

        def fn(k):
            os.write(running, bytes([k]))
            if os.getpid() != caller:
                time.sleep(0.05)
            return k, os.getpid()

        results = _fork.map_chunks(fn, list(range(24)))
        os.close(running)
        with open(ran, "rb") as runs:
            assert sorted(runs.read()) == list(range(24))  # each chunk ran once
        assert [k for k, _ in results] == list(range(24))
        here = sum(pid == caller for _, pid in results)
        assert {pid for _, pid in results} <= {caller, *forks}
        assert here > 24 - here
        assert len(forks) == 2
        assert_no_child_left()

    def test_more_processes_than_cores_take_every_chunk_once(self, monkeypatch):
        forks = use_cpus(monkeypatch, 8)
        ran, running = os.pipe()

        def fn(k):
            os.write(running, bytes([k]))
            sum(range(1000 * (k % 7)))  # chunks of uneven cost
            return [k] * (k % 5), os.getpid()

        started = time.monotonic()
        results = _fork.map_chunks(fn, list(range(250)))
        assert time.monotonic() - started < 30
        os.close(running)
        with open(ran, "rb") as runs:
            assert sorted(runs.read()) == list(range(250))
        assert [part for part, _ in results] == [[k] * (k % 5) for k in range(250)]
        assert {pid for _, pid in results} <= {os.getpid(), *forks}
        assert len(forks) == 7
        assert_no_child_left()

    @pytest.mark.parametrize("suite", ["mon", "cfa"])
    def test_no_result_file_gives_the_serial_result(self, monkeypatch, suite):
        with monkeypatch.context() as mp:
            mp.delattr(os, "fork")
            expected = repr(vars(checks.run_suite(suite, 41, 3)))
        forks = use_cpus(monkeypatch, 2)

        def no_file(name):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "memfd_create", no_file, raising=False)
        assert _fork.map_chunks(len, ["a", "bb"]) is None
        assert repr(vars(checks.run_suite(suite, 41, 3))) == expected
        assert forks == []
        assert_no_child_left()

    def test_a_temporary_file_where_os_has_no_memfd_create(self, monkeypatch):
        forks = use_cpus(monkeypatch, 4)
        monkeypatch.delattr(os, "memfd_create", raising=False)
        chunks = [[1.5, -0.0], [5e-324], [None, True, "x"], [(1, 2.0)], [b"\n"] * 3]
        assert repr(_fork.map_chunks(list, chunks)) == repr(chunks)
        assert len(forks) == 3
        assert_no_child_left()

    def test_more_chunks_than_the_pipe_holds_fails_the_call(self, monkeypatch):
        forks = use_cpus(monkeypatch, 2)
        assert _fork.map_chunks(len, ["a"] * 100_000) is None
        assert forks == []
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
