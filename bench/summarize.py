"""Collect result files of bench/run.py into one summary.

Per workload: for each end-to-end metric, the median, quartiles and spread
(interquartile distance over the median) across its untraced runs, one run
per seed; for each per-layer metric, the median across its traced runs; the
input digests of every seed; and every failure.

    python3 bench/summarize.py .bench_work/results/*.json > summary.json
"""

from __future__ import annotations

import json
import statistics
import sys


def spread(values) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def summarize(runs) -> dict:
    workloads = {}
    for r in sorted(runs, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = workloads.setdefault(r["workload"], {
            "why": r["why"], "seeds": [], "traced_seeds": [], "inputs": {},
            "failures": [], "end_to_end": {}, "per_layer": {},
        })
        w["failures"].extend(r["failures"])
        kind = "per_layer" if r["trace"] else "end_to_end"
        w["traced_seeds" if r["trace"] else "seeds"].append(r["seed"])
        w["inputs"][str(r["seed"])] = r["inputs"]
        for name, m in r["metrics"].items():
            w[kind].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for w in workloads.values():
        for kind in ("end_to_end", "per_layer"):
            for m in w[kind].values():
                if all(isinstance(v, (int, float)) for v in m["values"]):
                    m.update(spread(m["values"]))
    envs = [r["environment"] for r in runs]
    return {"environment": envs[0] if envs else None, "workloads": workloads}


def main(paths) -> int:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    runs = [r for r in runs if not r["smoke"]]
    json.dump(summarize(runs), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
