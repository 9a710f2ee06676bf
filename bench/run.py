"""leafsep benchmark: compile, text round-trip and verify seeded targets in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

One client, one target at a time. Targets come from the public generators in
``leafsep.experiments``, seeded by ``--seed``. Each target is compiled,
exported to text and parsed back, simulated against itself and checked. The
last line of standard output is the result object; the line before it is a
report with the environment, sample counts and the input and circuit digests.
Reports and span files go to ``bench/out/``. See ``bench/README.md``.
"""
import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # single-threaded; must be set before numpy loads

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "leafsep", "__init__.py")):
    sys.exit(f"bench: no leafsep sources under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import leafsep  # noqa: E402
from leafsep import (circuit, combinatorics, core, experiments, simulator,  # noqa: E402
                     synthesis)

if not os.path.abspath(leafsep.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: leafsep was imported from {leafsep.__file__}, not from {SRC}")

import spans  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

HELD_OUT_SEED = 90210      # keep out of tuning; re-check any claimed gain on it
PROBE_REF_S = 6.5e-3       # speed-probe time at reference speed (see README.md)
CORPUS = 8                 # distinct targets per run; the timed loop cycles over them
SMALL_CORPUS = 4
SETUP_REPEATS = 3
FIDELITY_TOL = 1e-10
PURITY_TOL = 1e-10
SUPPORT_TOL = 1e-12

warnings.filterwarnings("ignore", message="target is not leaf-separable")


@dataclass(frozen=True)
class Job:
    """One compile call on a target, as ``run_cost_sweep`` names its methods."""

    label: str
    compile: Callable
    exact: bool        # True: fidelity 1 expected; False: flagged non-separable


@dataclass(frozen=True)
class Target:
    psi: core.StateVector
    k: int             # leaf size of the partition tree the target is built on
    jobs: tuple


def _leafsep_job(n: int, k: int, mode: str, exact: bool = True) -> Job:
    config = synthesis.SynthesisConfig(n=n, k=k, mode=mode)
    return Job(f"leafsep_{mode}", lambda psi: synthesis.synthesize_full(psi, config), exact)


def _hwk_circuit(psi, n: int, k: int, ell: int):
    """Whole-register fixed-weight encoder, built the way ``run_cost_sweep`` does."""
    order = combinatorics.ehrlich_sequence(n, ell)
    eta = np.array([psi.amplitude(g) for g in order])
    eta = eta / np.linalg.norm(eta)
    circ = circuit.Circuit(n_system=n, metadata={"n": n, "k": k, "ell": ell, "mode": "hwk"})
    for q in range(n - ell, n):
        circ.add(circuit.x(q))
    circ.extend(synthesis.synthesize_hwk_encoder(n, ell, eta))
    return circ


def narrow_leaves(seed: int, count: int, small: bool) -> list:
    n, k, ell = (8, 2, 4) if small else (16, 2, 8)
    jobs = (_leafsep_job(n, k, synthesis.MODE_FREE),)
    return [Target(experiments.random_leaf_separable(n, k, ell, "complex", seed=[seed, i]),
                   k, jobs) for i in range(count)]


def wide_leaves_ancilla(seed: int, count: int, small: bool) -> list:
    n, k, ell = (8, 4, 4) if small else (18, 9, 9)
    jobs = (_leafsep_job(n, k, synthesis.MODE_ANCILLA),)
    return [Target(experiments.random_leaf_separable(n, k, ell, "complex", seed=[seed, i]),
                   k, jobs) for i in range(count)]


def mixed_nonsep(seed: int, count: int, small: bool) -> list:
    """Three mixed-weight separable targets per dense fixed-weight one."""
    n_mixed, n_fixed, w, k = (8, 8, 4, 3) if small else (15, 14, 7, 3)
    mixed_jobs = (_leafsep_job(n_mixed, k, synthesis.MODE_FREE),)
    fixed_jobs = (_leafsep_job(n_fixed, k, synthesis.MODE_FREE, exact=False),)
    out = []
    for i in range(count):
        if i % 4 == 3:
            psi = experiments.random_fixed_weight_state(n_fixed, w, "complex", seed=[seed, i])
            out.append(Target(psi, k, fixed_jobs))
        else:
            psi = experiments.random_mixed_leaf_separable(n_mixed, k, "complex", seed=[seed, i])
            out.append(Target(psi, k, mixed_jobs))
    return out


def cost_compare(seed: int, count: int, small: bool) -> list:
    n, k, ell = (8, 4, 4) if small else (11, 6, 6)
    jobs = (_leafsep_job(n, k, synthesis.MODE_FREE),
            _leafsep_job(n, k, synthesis.MODE_ANCILLA),
            Job("hwk_encoder", lambda psi: _hwk_circuit(psi, n, k, ell), True),
            Job("general_baseline", lambda psi: synthesis.synthesize_general_baseline(psi),
                True))
    return [Target(experiments.random_leaf_separable(n, k, ell, "nonneg", seed=[seed, i]),
                   k, jobs) for i in range(count)]


WORKLOADS = {
    "narrow-leaves": narrow_leaves,
    "wide-leaves-ancilla": wide_leaves_ancilla,
    "mixed-nonsep": mixed_nonsep,
    "cost-compare": cost_compare,
}

END_TO_END_UNITS = {
    "compile_s": "s", "verify_s": "s", "targets_per_s": "1/s",
    "two_qubit_gates": "count", "total_gates": "count", "depth": "layers",
    "passed_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}

PER_LAYER_UNITS = {
    "analysis.is_leaf_separable_s": "s",
    "analysis.distribution_table_s": "s",
    "analysis.leaf_amplitude_table_s": "s",
    "analysis.weight_split_amplitudes_s": "s",
    "analysis.distributions": "count",
    "analysis.support_states": "count",
    "synthesis.transfer_tree_s": "s",
    "synthesis.leaf_encoders_s": "s",
    "synthesis.hwk_encoder_s": "s",
    "synthesis.baseline_s": "s",
    "synthesis.transfer_tree_two_qubit": "count",
    "synthesis.leaf_encoders_two_qubit": "count",
    "synthesis.ancilla_leaves": "count",
    "circuit.cost_s": "s",
    "circuit.export_text_s": "s",
    "circuit.parse_text_s": "s",
    "circuit.text_bytes": "bytes",
    "simulator.apply_s": "s",
    "simulator.gates_per_s": "1/s",
    "simulator.diagnostics_s": "s",
    "simulator.touched_amps": "computed_amps",
    "experiments.generate_s": "s",
    "trace.compile_unexplained_s": "s",
    "trace.overhead_frac": "ratio",
}

# per-layer time metric -> (span names, phase); nested spans of one set count once
STAGES = {
    "analysis.is_leaf_separable_s": ({"analysis.is_leaf_separable"}, "compile"),
    "analysis.distribution_table_s": ({"analysis.distribution_table"}, "compile"),
    "analysis.leaf_amplitude_table_s": ({"analysis.leaf_amplitude_table"}, "compile"),
    "analysis.weight_split_amplitudes_s": ({"analysis.weight_split_amplitudes"}, "compile"),
    "synthesis.transfer_tree_s": ({"synthesis.synthesize_gwdb_tree", "synthesis.synthesize_gwdb",
                                   "analysis.node_weight_norms",
                                   "analysis.weight_split_amplitudes"}, "compile"),
    "synthesis.leaf_encoders_s": ({"synthesis.synthesize_leaf_encoders"}, "compile"),
    "synthesis.hwk_encoder_s": ({"synthesis.synthesize_hwk_encoder"}, "compile"),
    "synthesis.baseline_s": ({"synthesis.synthesize_general_baseline"}, "compile"),
    "circuit.cost_s": ({"circuit.cost"}, "compile"),
    "circuit.export_text_s": ({"circuit.export_text"}, "text"),
    "circuit.parse_text_s": ({"circuit.parse_text"}, "text"),
}
TRANSFER_GATE_SPANS = {"synthesis.synthesize_gwdb_tree", "synthesis.synthesize_gwdb"}
GENERATOR_SPANS = {"experiments.random_leaf_separable",
                   "experiments.random_mixed_leaf_separable",
                   "experiments.random_fixed_weight_state"}


# --- one target ---------------------------------------------------------------

def compile_target(target: Target) -> tuple[list, float]:
    start = time.perf_counter()
    circuits = [job.compile(target.psi) for job in target.jobs]
    return circuits, time.perf_counter() - start


def round_trip(circuits) -> tuple[list[str], bool]:
    texts, ok = [], True
    for circ in circuits:
        text = circuit.export_text(circ)
        ok &= circuit.export_text(circuit.parse_text(text)) == text
        texts.append(text)
    return texts, ok


def verify(target: Target, circuits) -> tuple[list, float]:
    start = time.perf_counter()
    results = [simulator.simulate(circ, target=target.psi) for circ in circuits]
    return results, time.perf_counter() - start


def passes(job: Job, circ, result) -> bool:
    if not job.exact:
        return circ.metadata.get("separable") is False
    return (abs(1.0 - result.fidelity) <= FIDELITY_TOL
            and result.purity >= 1.0 - PURITY_TOL)


def touched_amps(circ) -> int:
    """Amplitudes a dense simulator visits: 2^(wires - controls) per gate (computed)."""
    return sum(1 << (circ.n_wires - g.num_controls) for g in circ.gates)


def ancilla_leaves(circ) -> int:
    return len({w for g in circ.gates for w in g.wires if w >= circ.n_system})


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- environment ----------------------------------------------------------------

def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "leafsep", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_threads(), "commit": git_commit(),
            "source_sha256": source_digest(), "workload": args.workload,
            "seed": args.seed, "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
            "trace": args.trace, "small": args.small}


# --- timing -----------------------------------------------------------------------------

class SpeedProbe:
    """Host speed, timed next to every measured interval.

    The host's speed drifts by 15-40 % over seconds and between runs, since
    other guests' work shares its cores and caches. Each interval is timed
    between two probes and scaled by ``PROBE_REF_S`` over their mean, which
    reports it in seconds at the reference speed. The probe is the geometric
    mean of interpreter work and a numpy pass over a 16 MB buffer, the two
    kinds of work the library does.
    """

    def __init__(self):
        self.buf = np.ones(1 << 20, dtype=np.complex128)
        self()

    def __call__(self) -> float:
        start = time.perf_counter()
        acc, slots = 0, {}
        for i in range(40000):
            acc += i * i % 7
            slots[i & 255] = str(i)
        mid = time.perf_counter()
        for _ in range(3):
            np.multiply(self.buf, 1.0000001, out=self.buf)
        end = time.perf_counter()
        return math.sqrt((mid - start) * (end - mid))


def factor(before: float, after: float) -> float:
    """Scale from wall seconds to reference seconds for an interval between two probes."""
    return PROBE_REF_S / ((before + after) / 2.0)


def tail(samples: list[float]):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples above it (nearest rank)."""
    ordered = sorted(samples)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1]}
    return None


# --- set-up and the timed loop ------------------------------------------------------

def clear_caches() -> None:
    """Empty every functools cache in the package, so set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "leafsep" or name.startswith("leafsep."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def setup(args, count: int, probe: SpeedProbe, tracer, factors: dict):
    """Generate the corpus and warm up on its first target, ``SETUP_REPEATS`` times.

    Returns the corpus, set-up time (import plus the median repeat, in
    reference seconds) and the median repeat's wall time.
    """
    make = WORKLOADS[args.workload]
    scaled, wall = [], []
    for r in range(SETUP_REPEATS):
        clear_caches()
        if tracer is not None:
            tracer.target = -(r + 1)
        before = probe()
        start = time.perf_counter()
        corpus = make(args.seed, count, args.small)
        circuits, _ = compile_target(corpus[0])
        verify(corpus[0], circuits)
        elapsed = time.perf_counter() - start
        f = factor(before, probe())
        factors[-(r + 1)] = (f, f)
        scaled.append(elapsed * f)
        wall.append(elapsed)
    import_f = factor(probe(), probe())
    return corpus, IMPORT_S * import_f + statistics.median(scaled), statistics.median(wall)


def timed_loop(args, corpus: list, probe: SpeedProbe, tracer, factors: dict) -> dict:
    """Cycle over the corpus until ``--seconds`` pass and every target ran once."""
    loop = {"done": [], "compile_s": [], "untraced_compile_s": [], "verify_s": [],
            "iteration_s": [], "apply_s": [], "gates": [], "wall_compile_s": [],
            "wall_verify_s": [], "failed": 0, "two_qubit_gates": 0, "total_gates": 0,
            "depth": 0, "text_bytes": 0, "touched_amps": 0, "ancilla_leaves": 0,
            "circuit_sha256": {}}
    start = time.perf_counter()
    deadline = start + args.seconds
    it = 0
    while it < len(corpus) or time.perf_counter() < deadline:
        index = it % len(corpus)
        try:
            ok = run_one(corpus[index], index, it, loop, probe, tracer, factors)
        except Exception:  # a crash on one target is a failed check, not a lost run
            traceback.print_exc()
            ok = False
        if not ok:
            loop["failed"] += 1
        it += 1
    loop["elapsed"] = time.perf_counter() - start
    loop["iterations"] = it
    return loop


def run_one(target: Target, index: int, it: int, loop: dict, probe: SpeedProbe, tracer,
            factors: dict) -> bool:
    first_pass = it == index
    p0 = probe()
    if tracer is None:
        circuits, compile_s = compile_target(target)
    else:
        # traced and untraced compiles of the same target, in alternating order
        tracer.target, tracer.phase = it, "compile"
        for traced in ((False, True) if it % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                circuits, compile_s = compile_target(target)
            else:
                tracer.uninstall()
                plain, untraced_s = compile_target(target)
        tracer.install()
        tracer.phase = "text"
    p1 = probe()
    start = time.perf_counter()
    texts, ok = round_trip(circuits)
    text_s = time.perf_counter() - start
    if tracer is not None:
        tracer.phase = "verify"
    results, verify_s = verify(target, circuits)
    p2 = probe()
    fc, fv = factor(p0, p1), factor(p1, p2)
    factors[it] = (fc, fv)

    start = time.perf_counter()
    if tracer is not None:
        tracer.phase = "check"
        ok &= all(circuit.export_text(c) == t for c, t in zip(plain, texts))
        loop["untraced_compile_s"].append(untraced_s * fc)
    ok &= all(passes(job, c, r) for job, c, r in zip(target.jobs, circuits, results))
    digests = [sha256(t.encode()) for t in texts]
    reports = [circuit.cost(c) for c in circuits]
    if first_pass:
        loop["circuit_sha256"][index] = digests
        loop["two_qubit_gates"] += sum(r.two_qubit_count for r in reports)
        loop["total_gates"] += sum(r.total_gate_count for r in reports)
        loop["depth"] += sum(r.depth for r in reports)
        loop["text_bytes"] += sum(len(t.encode()) for t in texts)
        loop["touched_amps"] += sum(touched_amps(c) for c in circuits)
        loop["ancilla_leaves"] += sum(ancilla_leaves(c) for c in circuits if c.n_ancilla)
    else:
        ok &= loop["circuit_sha256"][index] == digests  # same target, same circuits
    check_s = time.perf_counter() - start

    loop["done"].append(it)
    loop["compile_s"].append(compile_s * fc)
    loop["verify_s"].append(verify_s * fv)
    loop["iteration_s"].append(compile_s * fc + (text_s + verify_s + check_s) * fv)
    loop["apply_s"].append(sum(r.elapsed for r in results) * fv)
    loop["gates"].append(sum(len(c.gates) for c in circuits))
    loop["wall_compile_s"].append(compile_s)
    loop["wall_verify_s"].append(verify_s)
    return bool(ok)


# --- per-layer metrics from spans ------------------------------------------------------

def scaled(s, factors: dict) -> float:
    """A span's duration in reference seconds."""
    fc, fv = factors.get(s.target, (1.0, 1.0))
    return s.duration * (fc if s.phase in ("setup", "compile") else fv)


def per_target_median(values_by_target: dict, done: list) -> float:
    return statistics.median(values_by_target.get(i, 0.0) for i in done)


def layer_metrics(tracer, loop: dict, corpus: list, factors: dict) -> dict:
    all_spans = tracer.spans
    done = loop["done"]
    out = {}
    for metric, (names, phase) in STAGES.items():
        sums: dict = {}
        for s in spans.top_level(all_spans, names):
            if s.phase == phase:
                sums[s.target] = sums.get(s.target, 0.0) + scaled(s, factors)
        out[metric] = per_target_median(sums, done)

    child_time: dict = {}
    for s in all_spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + scaled(s, factors)
    unexplained: dict = {}
    for index, s in enumerate(all_spans):
        if s.name == "synthesis.synthesize_full" and s.phase == "compile":
            unexplained[s.target] = (unexplained.get(s.target, 0.0) + scaled(s, factors)
                                     - child_time.get(index, 0.0))
    out["trace.compile_unexplained_s"] = per_target_median(unexplained, done)

    generated = [scaled(s, factors) for s in all_spans if s.name in GENERATOR_SPANS]
    out["experiments.generate_s"] = statistics.median(generated) if generated else 0.0

    simulate: dict = {}
    for s in all_spans:
        if s.name == "simulator.simulate" and s.phase == "verify":
            simulate[s.target] = simulate.get(s.target, 0.0) + scaled(s, factors)
    apply = loop["apply_s"]
    out["simulator.apply_s"] = statistics.median(apply)
    out["simulator.diagnostics_s"] = statistics.median(
        simulate.get(i, 0.0) - a for i, a in zip(done, apply))
    out["simulator.gates_per_s"] = statistics.median(
        g / a for g, a in zip(loop["gates"], apply) if a > 0)
    out["trace.overhead_frac"] = (statistics.median(loop["compile_s"])
                                  / statistics.median(loop["untraced_compile_s"]) - 1.0)

    first_pass = set(range(len(corpus)))
    out["synthesis.transfer_tree_two_qubit"] = sum(
        two_qubit(s.result) for s in spans.top_level(all_spans, TRANSFER_GATE_SPANS)
        if s.phase == "compile" and s.target in first_pass)
    out["synthesis.leaf_encoders_two_qubit"] = sum(
        two_qubit(s.result) for s in all_spans
        if s.name == "synthesis.synthesize_leaf_encoders" and s.phase == "compile"
        and s.target in first_pass)

    distributions = support = 0
    for target in corpus:
        tree = core.build_partition_tree(target.psi.n, target.k)
        for ell in target.psi.weights_present(SUPPORT_TOL):
            distributions += len(core.enumerate_weight_distributions(tree.leaf_sizes, ell))
        support += int(np.count_nonzero(np.abs(target.psi.amplitudes) > SUPPORT_TOL))
    out["analysis.distributions"] = distributions
    out["analysis.support_states"] = support
    out["synthesis.ancilla_leaves"] = loop["ancilla_leaves"]
    out["circuit.text_bytes"] = loop["text_bytes"]
    out["simulator.touched_amps"] = loop["touched_amps"]
    return out


def two_qubit(result) -> int:
    gates = result.gates if isinstance(result, circuit.Circuit) else list(result)
    if not gates:
        return 0
    probe = circuit.Circuit(n_system=1 + max(max(g.wires) for g in gates))
    probe.gates = gates
    return circuit.cost(probe).two_qubit_count


# --- entry point -----------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="n <= 8 versions of the workloads, for the self-check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    count = SMALL_CORPUS if args.small else CORPUS
    probe = SpeedProbe()
    factors: dict = {}   # target id -> (compile, verify) scale to reference seconds
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    corpus, setup_s, wall_setup_s = setup(args, count, probe, tracer, factors)
    loop = timed_loop(args, corpus, probe, tracer, factors)
    if tracer is not None:
        tracer.uninstall()

    attempted = loop["iterations"]
    failed = loop["failed"]
    if args.trace:
        values = layer_metrics(tracer, loop, corpus, factors)
        units = PER_LAYER_UNITS
    else:
        values = {
            "compile_s": statistics.median(loop["compile_s"]),
            "verify_s": statistics.median(loop["verify_s"]),
            "targets_per_s": len(loop["done"]) / sum(loop["iteration_s"]),
            "two_qubit_gates": loop["two_qubit_gates"],
            "total_gates": loop["total_gates"],
            "depth": loop["depth"],
            "passed_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS

    input_digests = [sha256(t.psi.amplitudes.tobytes()) for t in corpus]
    circuit_digests = [d for i in range(len(corpus)) for d in loop["circuit_sha256"].get(i, [])]
    report = {
        "environment": environment(args),
        "corpus": len(corpus), "iterations": attempted, "failed": failed,
        "compile_s": {"samples": len(loop["compile_s"]), "tail": tail(loop["compile_s"])},
        "verify_s": {"samples": len(loop["verify_s"]), "tail": tail(loop["verify_s"])},
        "wall": {"loop_s": loop["elapsed"], "setup_s": IMPORT_S + wall_setup_s,
                 "compile_s": statistics.median(loop["wall_compile_s"]),
                 "verify_s": statistics.median(loop["wall_verify_s"]),
                 "targets_per_s": len(loop["done"]) / loop["elapsed"]},
        "speed_factor": statistics.median(f for f, _ in factors.values()),
        "input_sha256": sha256("".join(input_digests).encode()),
        "circuit_sha256": sha256("".join(circuit_digests).encode()),
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                             f"{'-small' if args.small else ''}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(report, inputs=input_digests, circuits=circuit_digests,
                       samples={k: loop[k] for k in ("compile_s", "verify_s",
                                                     "wall_compile_s", "wall_verify_s")}),
                  fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.json")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
