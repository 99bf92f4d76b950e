"""The untraced workloads: the lambdavar CLI as a user runs it, one child at a time.

Each CLI workload writes its seeded inputs under ``.bench_work/<workload>``,
runs ``python -m lambdavar.cli`` on them with ``src/`` on the path, and checks
every report: exit code, ``REPORT_SCHEMA``, byte-identical stdout across
identical invocations, and the workload's own answer check.  Wall time runs
from spawn to reap, so it includes interpreter start; peak RSS is the child's
own, read from ``wait4``.

Import this module after ``common.use_checkout_source()``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import jsonschema

import lambdavar as lv
from lambdavar import cli

from common import (
    CHECK_SUITES,
    ROOT,
    SRC,
    WORK,
    OpResult,
    Workload,
    check_seed,
    csv_bytes,
    gaussian_samples,
    ramp_profile_obj,
    sha256,
    step_case_answer,
    step_profile_obj,
)

CHILD_TIMEOUT_S = 150.0

# Fixed pure-Python work, timed like a CLI command from spawn to reap.  On a
# shared host the speed of the machine swings by up to 2x within a run and
# between runs, and CPU time swings with wall time.  Dividing the operations'
# wall time by this program's, run between them, halves to thirds the spread
# of a run's figure across runs.  It imports nothing from lambdavar, so no
# change to the package can move it.
CALIBRATION = """
import random
rng = random.Random(0)
xs = sorted(rng.random() for _ in range(400_000))
acc = {}
for i, x in enumerate(xs):
    k = i % 1009
    acc[k] = acc.get(k, 0.0) + x * x
print(repr(sum(acc.values())))
"""
_VALIDATOR = jsonschema.Draft7Validator(cli.REPORT_SCHEMA)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("LVAR_TOL", None)  # every report uses the documented default tol
    return env


def run_cli(args, tag: str):
    """Run one CLI command; returns (exit code, stdout, stderr, wall s, peak RSS MB)."""
    return run_child(["-m", "lambdavar.cli", *args], tag)


def run_child(args, tag: str):
    """Run ``python <args>`` as the CLI runs; returns what ``run_cli`` does."""
    out_path = WORK / f"{tag}.stdout"
    err_path = WORK / f"{tag}.stderr"
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=cli_env(),
            stdout=out,
            stderr=err,
        )
        # The child stays a zombie until reaped below, so its pid is safe to kill.
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return (
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
        wall,
        usage.ru_maxrss / 1024.0,
    )


class CliWorkload(Workload):
    """Input files, invocations and answer checks of one CLI workload."""

    name = ""

    def __init__(self, seed: int, sizes):
        self.seed = seed
        self.sizes = sizes
        self.dir = WORK / self.name
        self.files = {}  # relative path -> sha256
        self.reference = {}  # invocation -> stdout of its first run
        self.last_calibration = None

    def write_input(self, filename: str, data: bytes) -> str:
        """Write one input file; returns its path relative to the checkout."""
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / filename
        path.write_bytes(data)
        rel = str(path.relative_to(ROOT))
        self.files[rel] = sha256(data)
        return rel

    def digests(self):
        return dict(self.files)

    def invocations(self) -> list:
        raise NotImplementedError

    def check_report(self, report: dict) -> list:
        raise NotImplementedError

    def values(self, reports: list):
        raise NotImplementedError

    def calibrate(self, failures: list) -> float:
        """Wall time of the calibration program; checks its output."""
        rc, out, err, wall, _ = run_child(["-c", CALIBRATION], f"{self.name}-calibration")
        if rc != 0:
            failures.append(f"calibration: exit {rc}: {err.decode()[-2000:]}")
        else:
            first = self.reference.setdefault("calibration", out)
            if out != first:
                failures.append("calibration: stdout differs from its first run")
        return wall

    def setup(self):
        self.last_calibration = None
        return super().setup()

    def op(self) -> OpResult:
        """Run the commands, with the calibration program before and after.

        One calibration run ends an operation and starts the next; the
        operation's ``cal_s`` is the mean of the two around it.
        """
        parts = []
        rss = 0.0
        failures = []
        reports = []
        before = self.last_calibration
        if before is None:
            before = self.calibrate(failures)
        for i, args in enumerate(self.invocations()):
            rc, out, err, w, r = run_cli(args, f"{self.name}-{i}")
            parts.append(w)
            rss = max(rss, r)
            if rc != 0:
                failures.append(f"{' '.join(args)}: exit {rc}: {err.decode()[-2000:]}")
                continue
            key = tuple(args)
            first = self.reference.setdefault(key, out)
            if out != first:
                failures.append(f"{' '.join(args)}: stdout differs from its first run")
            report = json.loads(out)
            for error in _VALIDATOR.iter_errors(report):
                failures.append(f"{' '.join(args)}: schema: {error.message}")
            failures.extend(self.check_report(report))
            reports.append(report)
        after = self.last_calibration = self.calibrate(failures)
        values = self.values(reports) if not failures else None
        return OpResult(sum(parts), rss, values, failures, parts, (before + after) / 2)


class Compute(CliWorkload):
    """``compute --measure lambda-var`` on 10^6 Gaussian outcomes, step profile."""

    name = "compute-1m"

    def generate(self):
        self.samples = gaussian_samples(self.name, self.seed, self.sizes.compute_n)
        self.data_arg = self.write_input("samples.csv", csv_bytes(self.samples))
        self.profile_arg = self.write_input(
            "profile.json", json.dumps(step_profile_obj()).encode()
        )

    def expect(self):
        return step_case_answer(sorted(self.samples))

    def invocations(self):
        return [
            [
                "compute",
                "--data", self.data_arg,
                "--measure", "lambda-var",
                "--profile", self.profile_arg,
            ]
        ]

    def check_report(self, report):
        if report["value"] != self.expected:
            return [f"value {report['value']!r} != case formula {self.expected!r}"]
        return []

    def values(self, reports):
        (r,) = reports
        return {"value": r["value"], **r["diagnostics"]}


class DualityChecks(CliWorkload):
    """``duality`` on 2*10^4 outcomes and a 1024-node ramp profile, then the
    seven ``check`` suites: the two other commands, one CLI child each."""

    name = "duality-checks"

    def generate(self):
        self.samples = gaussian_samples("duality-20k", self.seed, self.sizes.duality_n)
        self.profile_obj = ramp_profile_obj(self.seed, self.sizes.ramp_nodes)
        self.data_arg = self.write_input("samples.csv", csv_bytes(self.samples))
        self.profile_arg = self.write_input(
            "profile.json", json.dumps(self.profile_obj).encode()
        )

    def expect(self):
        profile = cli.parse_profile(self.profile_obj)
        nodes = len(profile.curve.points)
        if nodes != self.sizes.ramp_nodes:
            raise RuntimeError(f"ramp profile kept {nodes} of {self.sizes.ramp_nodes} nodes")
        return lv.lambda_var(lv.from_samples(self.samples), profile).value

    def invocations(self):
        seed = str(check_seed(self.seed))
        trials = str(self.sizes.check_trials)
        duality = [
            "duality",
            "--data", self.data_arg,
            "--profile", self.profile_arg,
            "--functions", str(self.sizes.duality_functions),
            "--delta", repr(self.sizes.duality_delta),
        ]
        checks = [
            ["check", "--suite", suite, "--trials", trials, "--seed", seed]
            for suite in CHECK_SUITES
        ]
        return [duality] + checks

    def check_report(self, report):
        if report["report"] == "check":
            if report["violations"] != 0:
                return [f"suite {report['suite']}: {report['violations']} violations"]
            return []
        failures = []
        if report["phi_value"] != self.expected:
            failures.append(
                f"phi_value {report['phi_value']!r} != lambda_var {self.expected!r}"
            )
        gap = report["gap"]
        if not (isinstance(gap, float) and gap >= 0.0):
            failures.append(f"gap {gap!r} is not a finite nonnegative number")
        return failures

    def values(self, reports):
        dual, *checks = reports
        keys = ("phi_value", "best_lower_bound", "gap", "argmax_function")
        return {
            "duality": {k: dual[k] for k in keys},
            "checks": [
                [r["suite"], r["violations"], r["max_residual"], r["details"]]
                for r in checks
            ],
        }


CLI_WORKLOADS = {w.name: w for w in (Compute, DualityChecks)}

