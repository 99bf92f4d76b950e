"""Paths, sizes, seeded inputs, reference answers, statistics and the closed loop.

Inputs and the harness's own reference answers are made from the seed alone,
without calling lambdavar, so the program under test sees only the generated
files or objects.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("compute-1m", "duality-checks")

# The step profile (lambda_min, lambda_max, threshold) of compute-1m: 1%
# tolerated below a loss of 1, 5% from there on.
STEP = (0.01, 0.05, -1.0)
CHECK_SUITES = (
    "mon",
    "qco",
    "translation",
    "reductions",
    "cfa",
    "cfb-counterexample",
    "duality-sandwich",
)


@dataclass(frozen=True)
class Sizes:
    compute_n: int
    duality_n: int
    duality_functions: int
    duality_delta: float
    ramp_nodes: int
    check_trials: int
    setups: int


FULL = Sizes(
    compute_n=1_000_000,
    duality_n=20_000,
    duality_functions=200,
    duality_delta=0.01,
    ramp_nodes=1024,
    check_trials=200,
    setups=3,
)
SMOKE = Sizes(
    compute_n=1_000,
    duality_n=1_000,
    duality_functions=20,
    duality_delta=0.01,
    ramp_nodes=64,
    check_trials=5,
    setups=1,
)


def rng_for(label: str, seed: int) -> random.Random:
    """Independent stream per input; str seeds hash the same on every run."""
    return random.Random(f"{label}:{seed}")


def gaussian_samples(label: str, seed: int, n: int) -> list:
    rng = rng_for(label, seed)
    return [rng.gauss(0.0, 1.0) for _ in range(n)]


def csv_bytes(xs) -> bytes:
    """One outcome per line under a ``value`` header; repr round-trips floats."""
    return ("value\n" + "\n".join(map(repr, xs)) + "\n").encode("ascii")


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def step_profile_obj() -> dict:
    lo, hi, xbar = STEP
    return {"type": "step", "lambda_min": lo, "lambda_max": hi, "threshold": xbar}


def ramp_profile_obj(seed: int, nodes: int) -> dict:
    """Continuous nondecreasing profile with ``nodes`` random knots on [-4, 4].

    Random knots are never collinear in practice, so the profile keeps every
    node after canonicalisation; levels stay inside [0.01, 0.05].
    """
    rng = rng_for("ramp-profile", seed)
    xs = sorted(rng.uniform(-4.0, 4.0) for _ in range(nodes))
    levels = sorted(rng.uniform(0.01, 0.05) for _ in range(nodes))
    return {
        "type": "piecewise",
        "points": [[x, y, y] for x, y in zip(xs, levels)],
        "tails": [levels[0], levels[-1]],
        "orientation": "nondecreasing",
    }


def check_seed(seed: int) -> int:
    return rng_for("checks", seed).randrange(2**31)


# ---------- reference answers from sorted samples ----------


def quantile_right(sorted_xs, u: float) -> float:
    """sup{x : F(x) <= u} of the empirical CDF, with F(x) = count / n.

    The smallest sample x_k with (k + 1) / n > u: every smaller distinct
    value has at most k samples at or below it.
    """
    n = len(sorted_xs)
    k = min(n - 1, int(u * n))
    while k > 0 and k / n > u:
        k -= 1
    while (k + 1) / n <= u:
        k += 1
    return sorted_xs[k]


def step_case_answer(sorted_xs) -> float:
    """Lambda-VaR of the step profile by the two-branch case formula.

    VaR at lambda_max when VaR at lambda_min is within the threshold loss,
    VaR at lambda_min otherwise.
    """
    lo, hi, xbar = STEP
    var_lo = -quantile_right(sorted_xs, lo)
    if var_lo <= -xbar:
        return -quantile_right(sorted_xs, hi)
    return var_lo


# ---------- statistics ----------


def timing_summary(values) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None, "tail": None}
    if n >= 11:
        out["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": xs[n - 11]}
    return out


# ---------- the closed loop ----------


@dataclass
class OpResult:
    """One operation: its wall time, peak RSS, output values and failures.

    ``parts`` holds the wall time of each CLI command of the operation, and
    ``cal_s`` the calibration program's wall time around it.
    """

    wall_s: float
    rss_mb: float = math.nan
    values: object = None
    failures: list = field(default_factory=list)
    parts: list = field(default_factory=list)
    cal_s: float = math.nan

    def to_json(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "parts": self.parts,
            "cal_s": None if math.isnan(self.cal_s) else self.cal_s,
            "rss_mb": None if math.isnan(self.rss_mb) else self.rss_mb,
            "values": self.values,
            "failures": self.failures,
        }


def guarded(op) -> OpResult:
    """Run one operation; an exception is a failed operation, never dropped."""
    t0 = time.perf_counter()
    try:
        return op()
    except Exception:
        return OpResult(time.perf_counter() - t0, failures=[traceback.format_exc()])


def closed_loop(op, seconds: float):
    """One client: each operation starts when the previous one has ended.

    Runs at least one operation, and another only while it is expected to end
    nearer to ``seconds`` than stopping now would; returns the results and the
    elapsed wall time.
    """
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(guarded(op))
        if time.perf_counter() - start + ops[-1].wall_s / 2 >= seconds:
            break
    return ops, time.perf_counter() - start


class Workload:
    """Seeded inputs, reference answers and one operation of a workload."""

    expected = None

    def generate(self):
        """Make the seeded inputs; this is the set-up work that is timed."""
        raise NotImplementedError

    def digests(self) -> dict:
        """SHA-256 of every generated input, by name."""
        raise NotImplementedError

    def expect(self):
        """The reference answers; computed once, outside set-up timing."""
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def setup(self):
        """Generate inputs and run one warm-up operation.

        Returns (set-up seconds, input digests, warm-up result).
        """
        t0 = time.perf_counter()
        self.generate()
        t1 = time.perf_counter()
        if self.expected is None:
            self.expected = self.expect()
        t2 = time.perf_counter()
        warm = guarded(self.op)
        return (t1 - t0) + (time.perf_counter() - t2), self.digests(), warm


def measure(wl: Workload, seconds: float, setups: int) -> dict:
    """Set up ``setups`` times, each followed by an equal share of the loop.

    A shared machine's speed drifts in phases of tens of seconds; spreading
    the timed operations across all set-ups samples more phases per run than
    one block of ``seconds`` would.  Inputs must repeat exactly across
    set-ups.
    """
    setup_s, inputs, failures, ops = [], [], [], []
    elapsed = 0.0
    for _ in range(setups):
        t, d, warm = wl.setup()
        setup_s.append(t)
        inputs.append(d)
        failures.extend(warm.failures)
        chunk, chunk_s = closed_loop(wl.op, seconds / setups)
        ops.extend(chunk)
        elapsed += chunk_s
    if any(d != inputs[0] for d in inputs):
        failures.append("input generation is not deterministic: digests differ")
    return {
        "setup_s": setup_s,
        "inputs": inputs[0],
        "setup_failures": failures,
        "ops": ops,
        "elapsed_s": elapsed,
    }


def use_checkout_source():
    """Import lambdavar from this checkout's src/, never from site-packages."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lambdavar

    origin = Path(lambdavar.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"lambdavar imported from {origin}, not from {SRC}")
