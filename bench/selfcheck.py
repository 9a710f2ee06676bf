"""Self-check of the benchmark on n <= 8 versions of its workloads.

    python3 bench/selfcheck.py

Runs ``bench/run.py --small`` for every workload, untraced and traced, and
asserts that the result line names every metric of ``BENCHMARK.json`` with its
unit, that every check passed, and that the run fails without the package
sources. It also replays each small circuit on a reference interpreter written
here, independent of ``leafsep.simulator``. The file name keeps it out of test
collection: it takes about a minute.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TIMEOUT_S = 180


def run_small(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(result: dict, expected: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    assert set(got) == set(want), f"{label}: metrics differ: {set(got) ^ set(want)}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{label}: {name} has unit {got[name]['unit']}"
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}"


def reference_state(circ) -> np.ndarray:
    """Apply ``circ`` to |0...0> gate by gate on explicit index sets (wire 0 = MSB)."""
    n = circ.n_wires
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    index = np.arange(1 << n)

    def bit(wire):
        return (index >> (n - 1 - wire)) & 1

    for g in circ.gates:
        on = np.ones(1 << n, dtype=bool)
        for wire, pol in g.controls:
            on &= bit(wire) == (1 if pol == 1 else 0)
        t = g.targets[0]
        mask_t = 1 << (n - 1 - t)
        if g.kind in ("x", "cx", "mcx"):
            lo = np.flatnonzero(on & (bit(t) == 0))
            amps[lo], amps[lo | mask_t] = amps[lo | mask_t].copy(), amps[lo].copy()
        elif g.kind == "mcry":
            c, s = math.cos(g.params[0] / 2), math.sin(g.params[0] / 2)
            lo = np.flatnonzero(on & (bit(t) == 0))
            a, b = amps[lo].copy(), amps[lo | mask_t].copy()
            amps[lo], amps[lo | mask_t] = c * a - s * b, s * a + c * b
        elif g.kind == "mcrz":
            amps[on & (bit(t) == 0)] *= np.exp(-0.5j * g.params[0])
            amps[on & (bit(t) == 1)] *= np.exp(0.5j * g.params[0])
        elif g.kind == "mcphase":
            amps[on & (bit(t) == 1)] *= np.exp(1j * g.params[0])
        else:  # crbs on the ordered pair (t1, t2)
            theta, phi = g.params
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            t2 = g.targets[1]
            mask_2 = 1 << (n - 1 - t2)
            i10 = np.flatnonzero(on & (bit(t) == 1) & (bit(t2) == 0))
            i01 = i10 ^ mask_t ^ mask_2
            a, b = amps[i10].copy(), amps[i01].copy()
            ep, em = np.exp(0.5j * phi), np.exp(-0.5j * phi)
            amps[i10] = ep * c * a - ep * s * b
            amps[i01] = em * s * a + em * c * b
    return amps


def check_simulator() -> int:
    """Compare leafsep's simulator with the reference interpreter on every small circuit."""
    sys.path.insert(0, HERE)
    import run
    compared = 0
    for name, make in run.WORKLOADS.items():
        for target in make(5, run.SMALL_CORPUS, True):
            for job in target.jobs:
                circ = job.compile(target.psi)
                library = run.simulator.simulate(circ).state.amplitudes
                assert np.allclose(library, reference_state(circ), atol=1e-10), \
                    f"{name}/{job.label}: simulator disagrees with the reference"
                compared += 1
    return compared


def check_bare_directory() -> None:
    """Without the package sources the benchmark must fail and print no result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "narrow-leaves", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare run did not fail cleanly"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        check_result(run_small(w["name"], 0), spec["end_to_end"], f"{w['name']} trace=0")
        check_result(run_small(w["name"], 1), spec["per_layer"], f"{w['name']} trace=1")
        print(f"ok  {w['name']}: end-to-end and per-layer metrics present with units")
    print(f"ok  simulator matches the reference interpreter on {check_simulator()} circuits")
    check_bare_directory()
    print("ok  fails without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
