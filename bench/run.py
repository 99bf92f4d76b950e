"""lambdavar benchmark: seeded closed-loop workloads over the CLI, one client.

Run from the repository root:

    python3 bench/run.py --workload compute-1m --seed 1 --seconds 40 --trace 0

Workloads (their reasons are in BENCHMARK.json):

    compute-1m      lambdavar compute --measure lambda-var on 10^6 outcomes
    duality-checks  lambdavar duality on 2*10^4 outcomes and a 1024-node ramp
                    profile, then the seven lambdavar check suites (200 trials)

With ``--trace 0`` the run sets up three times (input generation plus one
untimed warm-up operation), each set-up followed by a third of the
``--seconds`` closed loop, and reports the end-to-end metrics.  Latency is
gated as ``wall_mean_cal``: the operations' summed wall time over the summed
wall time of a fixed calibration program run between them (workloads.py),
which cancels most of a shared host's drift in speed; the plain wall-time
median, its tail and the throughput are printed and stored beside it.  With
``--trace 1`` it replays the operation in-process with spans around each
layer's public calls and reports the per-layer metrics instead (see
tracing.py).  ``--smoke`` shrinks the inputs to about 10^3 so that the same
code and checks run in seconds.

Every output is checked; a failed check counts as a failed operation.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result (environment, input digests,
every sample and failure) is written under ``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from common import (
    FULL,
    ROOT,
    SMOKE,
    SRC,
    WORK,
    WORKLOADS,
    measure,
    timing_summary,
    use_checkout_source,
)

EXTRA_UNITS = {
    "wall_p50_s": "s",
    "throughput_ops_s": "1/s",
    "calibration_p50_s": "s",
    "ops_failed_ratio": "ratio",
    "dual_gap": "outcome",
}


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": None,
        "dirty": None,
    }
    # Only this checkout's own repository counts; never a parent directory's.
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            env["commit"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True,
            ).stdout
            env["dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def untraced(name: str, seed: int, seconds: float, sizes) -> dict:
    from workloads import CLI_WORKLOADS

    res = measure(CLI_WORKLOADS[name](seed, sizes), seconds, sizes.setups)
    if "tracing" in sys.modules:
        res["setup_failures"].append("the untraced run loaded the tracing module")
    ops = res["ops"]
    ok = [o for o in ops if not o.failures]
    timed = ok or ops
    walls = [o.wall_s for o in timed]
    rss = statistics.median(o.rss_mb for o in ops)
    res["wall"] = timing_summary(walls)
    res["metrics"] = {
        "wall_mean_cal": sum(o.wall_s for o in timed) / sum(o.cal_s for o in timed),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(res["setup_s"]),
    }
    res["extra"] = {
        "wall_p50_s": statistics.median(walls),
        "throughput_ops_s": len(ok) / sum(o.wall_s for o in ops),
        "calibration_p50_s": statistics.median(o.cal_s for o in timed),
        "ops_failed_ratio": (len(ops) - len(ok)) / len(ops),
    }
    if name == "duality-checks" and ok:
        res["extra"]["dual_gap"] = ok[-1].values["duality"]["gap"]
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="inputs of about 10^3")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "lambdavar" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no lambdavar source tree (src/lambdavar) "
              "or no BENCHMARK.json; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    use_checkout_source()
    WORK.mkdir(exist_ok=True)
    sizes = SMOKE if args.smoke else FULL

    if args.trace:
        import tracing

        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        res = tracing.run(args.workload, args.seed, args.seconds, sizes, names)
        metrics = res["per_layer"]
        extra = {"tracing_overhead": res["tracing_overhead"]}
        units["tracing_overhead"] = "ratio"
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.update(EXTRA_UNITS)
        res = untraced(args.workload, args.seed, args.seconds, sizes)
        metrics = res["metrics"]
        extra = res["extra"]

    ops = res["ops"]
    failed = sum(1 for o in ops if o.failures)
    failures = res["setup_failures"] + [f for o in ops for f in o.failures]
    correct = not failures
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    result = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed, 1 client",
        "environment": environment(),
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in {**metrics, **extra}.items()},
        **{k: v for k, v in res.items() if k not in ("ops", "metrics", "extra", "per_layer")},
        "ops": [o.to_json() for o in ops],
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(f"lambdavar benchmark: {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"closed loop with 1 client, trace {args.trace}")
    for k, v in {**metrics, **extra}.items():
        print(f"  {k:44s} {v!r} {units[k]}")
    if not args.trace:
        w = res["wall"]
        tail = "no percentile has ten samples beyond it" if w["tail"] is None else (
            f"p{w['tail']['percentile']:.1f} = {w['tail']['value']!r} s")
        print(f"  wall time: {w['n']} operations, median {w['median']!r} s, {tail}")
    print(f"  {len(ops) - failed} of {len(ops)} operations correct; result in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
