"""Smoke test of the benchmark harness at a tiny size (about two minutes).

    python3 -m pytest bench/test_bench.py -q

Runs every workload untraced and traced, twice each at one seed, and checks
that every metric BENCHMARK.json names is printed with its unit, that every
output check passes, and that every count metric and chain digest repeats
exactly. It is not part of the default test run (pytest collects ``tests/``).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# below any workload's reference run length, so chains take their minimum size
SECONDS = "0.5"


def is_count(name: str) -> bool:
    return (name in ("calls_per_transition", "ess_per_call", "jtest.model_calls",
                     "kernel.accept_rate", "kernel.useful_call_ratio", "trace.spans",
                     "sampler.save_checkpoint.bytes")
            or ".calls" in name or name.startswith("kernel.stage_accept_frac."))


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(
        [*cmd, "--workload", workload, "--seed", "3", "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_named_and_counts_repeat(workload, trace):
    runs = []
    for _ in range(2):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        runs.append((json.loads(lines[-2])["report"], json.loads(lines[-1])))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for report, result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], m["name"]
            assert isinstance(got["value"], (int, float)), m["name"]
        assert report["missing_trace_names"] == []
    (rep_a, res_a), (rep_b, res_b) = runs
    assert rep_a["chain_sha256"] == rep_b["chain_sha256"]
    for name, got in res_a["metrics"].items():
        if is_count(name):
            assert got["value"] == res_b["metrics"][name]["value"], name


def test_refuses_to_run_without_sources(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
