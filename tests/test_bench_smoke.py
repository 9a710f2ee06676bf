"""Smoke test of the benchmark harness: each workload runs briefly on its small corpus.

``bench/run.py`` drives the package from outside through its public names, so a
deletion in ``src/leafsep`` that the harness still needs shows up here.  Only the
shape of the result line and the correctness gate are checked, not the timings.
Reports land in ``bench/out/``, which git ignores.  The small corpus's two-qubit
gate count, total gate count and depth are pinned per workload, so a gate-count
regression fails here too.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

# two_qubit_gates, total_gates and depth of each workload's small corpus at seed 4
SMALL_GATE_COUNTS = {"narrow-leaves": (536, 1052, 48), "wide-leaves-ancilla": (1032, 2004, 80),
                     "mixed-nonsep": (875, 1706, 94), "cost-compare": (6524, 11596, 2416)}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_workload_runs(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", "4", "--seconds", "0.5", "--small", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(result["metrics"])
    assert tuple(result["metrics"][name]["value"] for name in (
        "two_qubit_gates", "total_gates", "depth")) == SMALL_GATE_COUNTS[workload]
