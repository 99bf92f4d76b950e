"""The traced run: per-layer numbers from spans around public calls.

Loaded only with ``--trace 1``.  For each workload it sets up once, runs one
untraced reference operation, then replays the operation in-process as the
sequence of public calls the command makes, each inside a span.  Every replay
must reproduce the reference operation's values bit-for-bit.  Probes that the
command does not make itself (``first_above`` with ``lambda_var``'s inputs,
``stieltjes`` over the duality ladder) run after each replay under a separate
``probe`` root span, so the tracing overhead compares the replay alone with
the untraced operation.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory and are written to ``.bench_work/traces`` at the end; a
span's self time is its duration minus its children's.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import lambdavar as lv
from lambdavar import checks, cli
from lambdavar.exceptions import BracketError, DualRangeError

from common import CHECK_SUITES, ROOT, WORK, OpResult, check_seed, closed_loop, guarded
from workloads import CLI_WORKLOADS, cli_env

STARTUP_SAMPLES = 5


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._next = 0

    def span(self, name: str):
        return _Open(self, name)

    def per_op(self) -> dict:
        """{op: {name: {"busy": s, "self": s, "calls": n}}}."""
        children = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        out = defaultdict(lambda: defaultdict(lambda: {"busy": 0.0, "self": 0.0, "calls": 0}))
        for s in self.spans:
            d = s.end - s.start
            agg = out[s.op][s.name]
            agg["busy"] += d
            agg["self"] += d - children[s.id]
            agg["calls"] += 1
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


class NullTracer:
    """Same interface, no spans: times the replay itself untraced."""

    span = staticmethod(contextlib.nullcontext)


class _Open:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = t._next
        t._next += 1
        self.parent = t._stack[-1] if t._stack else None
        t._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append(Span(self.id, self.name, self.start, end, self.parent, t.op))
        return False


def scan_counts(p, profile, x_star) -> dict:
    """Breakpoint counts from the inputs and the answer, not from the scan.

    ``needed`` is how many merged breakpoints a left-to-right scan must reach
    to find the answer: those up to the first one at or right of it.
    """
    merged = sorted(set(p.payload.xs) | set(profile.curve.xs))
    needed = min(len(merged), bisect.bisect_left(merged, x_star) + 1)
    return {
        "curves.breakpoints": len(p.payload.points),
        "curves.merged_breakpoints": len(merged),
        "curves.first_above.needed_breakpoints": needed,
        "curves.first_above.useful_ratio": needed / len(merged),
    }


def probe_first_above(tr: Tracer, p, profile, x_star):
    with tr.span("curves.first_above"):
        x = lv.first_above(p.payload, profile.curve)
    if x != x_star:
        return [f"first_above probe {x!r} != violation point {x_star!r}"]
    return []


def cli_startup_s() -> float:
    """Median wall time of ``python -c "import lambdavar.cli"``."""
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import lambdavar.cli"],
            cwd=ROOT,
            env=cli_env(),
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------- replays ----------


class Replay:
    """Set-up, reference operation and traced replay of one workload."""

    def __init__(self, name: str, seed: int, sizes, tracer: Tracer):
        self.tracer = tracer
        self.sizes = sizes
        self.wl = CLI_WORKLOADS[name](seed, sizes)
        self.counts = {}
        self.failures = []
        self.scan = None

    def setup(self):
        _, self.inputs, warm = self.wl.setup()
        self.failures.extend(warm.failures)
        self.reference = guarded(self.wl.op)
        self.failures.extend(self.reference.failures)
        t0 = time.perf_counter()
        self.replay(NullTracer)
        self.untraced_replay_s = time.perf_counter() - t0

    def op(self) -> OpResult:
        tr = self.tracer
        tr.op += 1
        t0 = time.perf_counter()
        with tr.span("op"):
            values = self.replay(tr)
        wall = time.perf_counter() - t0
        failures = []
        got, want = (json.dumps(v, sort_keys=True) for v in (values, self.reference.values))
        if got != want:
            failures.append(f"replay values {got} != untraced {want}")
        with tr.span("probe"):
            failures.extend(self.probe(tr))
        return OpResult(wall, values=values, failures=failures)

    def replay(self, tr):
        """The operation's public calls; sets ``self.scan`` to (P, profile, x*)."""
        raise NotImplementedError

    def probe(self, tr) -> list:
        """first_above with lambda_var's own inputs; the command's scan, timed alone."""
        return probe_first_above(tr, *self.scan) if self.scan else []

    def finish(self):
        """Counts that need one pass only, after the timed loop."""
        if self.scan:
            self.counts.update(scan_counts(*self.scan))

    def load(self, tr):
        """The calls behind cli.load_distribution and cli.load_profile.

        ``cli.parse_profile`` only dispatches on the JSON type, so its span
        times the profiles layer's constructor.
        """
        wl = self.wl
        with tr.span("cli.read_csv_samples"):
            samples = cli.read_csv_samples(str(ROOT / wl.data_arg))
        with tr.span("curves.from_samples"):
            p = lv.from_samples(samples)
        with tr.span("cli.file_digest"):
            cli.file_digest(str(ROOT / wl.data_arg))
        with open(ROOT / wl.profile_arg, encoding="utf-8") as fh:
            obj = json.load(fh)
        with tr.span("profiles.construct"):
            profile = cli.parse_profile(obj)
        return p, profile


class ComputeReplay(Replay):
    def replay(self, tr):
        p, profile = self.load(tr)
        with tr.span("measures.lambda_var"):
            report = lv.lambda_var(p, profile)
        self.scan = p, profile, report.violation_point
        return {
            "value": cli.encode_value(report.value),
            "violation_point": report.violation_point,
            "finiteness_case": report.finiteness_case,
        }


class DualityChecksReplay(Replay):
    def replay(self, tr):
        p, profile = self.load(tr)
        profile.require_feasible()
        with tr.span("dual.ramp_ladder"):
            fs = lv.ramp_ladder(p, self.sizes.duality_functions, self.sizes.duality_delta)
        gamma = lv.profile_gamma(profile)

        def risk(q):
            with tr.span("measures.lambda_var"):
                return lv.lambda_var(q, profile).value

        def traced_gamma(m, f):
            with tr.span("dual.gamma"):
                return gamma(m, f)

        with tr.span("dual.representation_bound"):
            bound = lv.representation_bound(p, risk, fs, traced_gamma, tol=cli.DEFAULT_TOL)
        self.scan = p, profile, -bound.phi_value
        self.dual = fs, gamma, bound
        f_best = fs[bound.argmax_function_index]
        duality = {
            "phi_value": cli.encode_value(bound.phi_value),
            "best_lower_bound": bound.best_lower_bound,
            "gap": cli.encode_value(bound.gap),
            "argmax_function": {
                "index": bound.argmax_function_index,
                "window_start": f_best.points[0][0],
                "width": f_best.points[-1][0] - f_best.points[0][0],
            },
        }
        seed = check_seed(self.wl.seed)
        suites = []
        for suite in CHECK_SUITES:
            with tr.span(f"checks.{suite}"):
                r = checks.run_suite(suite, self.sizes.check_trials, seed, cli.DEFAULT_TOL)
            suites.append([r.suite, r.violations, r.max_residual, r.details])
        return {"duality": duality, "checks": json.loads(json.dumps(suites))}

    def probe(self, tr):
        p = self.scan[0]
        for f in self.dual[0]:
            with tr.span("dual.stieltjes"):
                lv.stieltjes(f, p.payload)
        return super().probe(tr)

    def finish(self):
        """Also classify every ladder function the way representation_bound does."""
        super().finish()
        p = self.scan[0]
        fs, gamma, bound = self.dual
        kinds = {"informative": 0, "bracket": 0, "range": 0, "inf": 0}
        best = None
        for f in fs:
            t = lv.stieltjes(f, p.payload)
            try:
                b = lv.risk_lower_bound_from_gamma(
                    t, f, lambda m, f=f: gamma(m, f), tol=cli.DEFAULT_TOL
                )
            except BracketError:
                kinds["bracket"] += 1
                continue
            except DualRangeError:
                kinds["range"] += 1
                continue
            if math.isinf(b):
                kinds["inf"] += 1
                continue
            kinds["informative"] += 1
            best = b if best is None else max(best, b)
        if best != bound.best_lower_bound:
            self.failures.append(
                f"classification's best bound {best!r} != report {bound.best_lower_bound!r}"
            )
        self.counts["dual.informative_functions"] = kinds["informative"]
        for kind in ("bracket", "range", "inf"):
            self.counts[f"dual.skipped_functions.{kind}"] = kinds[kind]


REPLAYS = {"compute-1m": ComputeReplay, "duality-checks": DualityChecksReplay}


def per_layer(ops: dict, counts: dict, names) -> dict:
    """Median over operations of each span metric; counts as given, else 0."""
    fields = {"busy_s": "busy", "self_s": "self", "calls": "calls"}
    out = {}
    for name in names:
        if name in counts:
            out[name] = counts[name]
            continue
        span_name, _, field = name.rpartition(".")
        if field not in fields or not ops:
            out[name] = 0
            continue
        out[name] = statistics.median(
            ops[op][span_name][fields[field]] if span_name in ops[op] else 0
            for op in ops
        )
    return out


def run(name: str, seed: int, seconds: float, sizes, metric_names) -> dict:
    tracer = Tracer()
    replay = REPLAYS[name](name, seed, sizes, tracer)
    replay.setup()
    ops, elapsed = closed_loop(replay.op, seconds)
    replay.finish()
    replay.counts["cli.startup_s"] = cli_startup_s()
    trace_path = WORK / "traces" / f"{name}-seed{seed}.jsonl"
    tracer.write(trace_path)
    op_spans = [s.end - s.start for s in tracer.spans if s.name == "op"]
    overhead = statistics.median(op_spans) / replay.untraced_replay_s if op_spans else math.nan
    by_op = tracer.per_op()
    spans = {}
    for span in sorted({s.name for s in tracer.spans}):
        seen = [v[span] for v in by_op.values() if span in v]
        spans[span] = {
            "busy_s": statistics.median(a["busy"] for a in seen),
            "self_s": statistics.median(a["self"] for a in seen),
            "calls": statistics.median(a["calls"] for a in seen),
        }
    return {
        "inputs": replay.inputs,
        "setup_failures": replay.failures,
        "ops": ops,
        "elapsed_s": elapsed,
        "reference_wall_s": replay.reference.wall_s,
        "untraced_replay_s": replay.untraced_replay_s,
        "tracing_overhead": overhead,
        "per_layer": per_layer(by_op, replay.counts, metric_names),
        "spans": spans,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
