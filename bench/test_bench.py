"""Smoke tests of the benchmark itself, at inputs of about 10^3.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, seed=3, trace=0, cwd=ROOT, smoke=True):
    args = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(args + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected


def test_same_seed_same_inputs_other_seed_other_inputs():
    def digests(seed):
        assert run("duality-checks", seed=seed).returncode == 0
        result = WORK / "results" / f"duality-checks-seed{seed}-trace0.json"
        return json.loads(result.read_text(encoding="utf-8"))["inputs"]

    first = digests(8)
    assert digests(8) == first
    assert digests(9) != first


def test_fails_without_a_source_tree():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("compute-1m", cwd=bare, smoke=False)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
