"""Random target generation and benchmark sweeps (fidelity and gate-cost tables).

Random targets are assembled the same way the synthesizer decomposes them: one
unit vector per reachable (leaf, weight) class, and per-distribution weights
built as products of per-node conditional splits.  The product form matters:
it is exactly the class of states the transfer tree reproduces without loss,
so matched-tree cells in the fidelity sweep sit at fidelity 1 while mismatched
trees expose the approximation.

Assembly works on basis indices, never bitstrings.  A leaf's class vectors fill
one table indexed by its local pattern (lexicographic class order is ascending
pattern), the coefficient of every weight distribution is its profile weight
times its per-node splits, taken for all distributions at once, and
:func:`leafsep.analysis.factored_amplitudes` multiplies both out over the members of
every distribution: the product behind the compiled state and the separability check.

All randomness flows from integer seeds; per-target seeds derive from
(master seed, n, k, state index), so a cell's results do not depend on which
other cells the sweep runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import factored_amplitudes, node_weights
from .circuit import cost
from .core import PartitionTree, StateVector, TreeNode, build_partition_tree, \
    dense_size, enumerate_weight_distributions, popcounts
from .simulator import simulate
from .synthesis import (MODE_ANCILLA, MODE_FREE, SynthesisConfig,
                        synthesize_full, synthesize_general_baseline,
                        synthesize_hwk_encoder, synthesize_initial)
from .combinatorics import ehrlich_sequence

FIDELITY_CSV_HEADER = ("n,k,ell,mode,field,seed,mean_fidelity,min_fidelity,"
                       "max_fidelity,std_fidelity,count")
COST_CSV_HEADER = "n,k,method,two_qubit,total,depth"


def derive_seed(master: int, *parts: int) -> list[int]:
    return [int(master)] + [int(p) for p in parts]


def _check_size(n: int, k: int, name: str, weight: int, top: int) -> None:
    """Reject n outside [1, MAX_QUBITS], k outside [1, n] or a weight outside [0, top]."""
    dense_size(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}] for n={n}, got {k}")
    if not 0 <= weight <= top:
        raise ValueError(f"{name} must be in [0, {top}] for n={n}, got {weight}")


def _sample_unit(rng: np.random.Generator, dim: int, kind: str) -> np.ndarray:
    if kind == "complex":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    elif kind == "real":
        v = rng.standard_normal(dim).astype(np.complex128)
    elif kind == "nonneg":
        v = (np.abs(rng.standard_normal(dim)) + 0.1).astype(np.complex128)
    else:
        raise ValueError(f"unknown amplitude field {kind!r}")
    return v / np.linalg.norm(v)


def _node_split_samples(tree: PartitionTree, weights, rng, nonneg_floor: float = 0.0):
    """Per-node conditional split amplitudes: row w of a node's table holds the
    amplitudes of the splits (i, w - i) over its feasible window, indexed by i."""
    splits: dict[TreeNode, np.ndarray] = {}
    node_weights: dict[TreeNode, set[int]] = {tree.root: set(weights)}

    def walk(node: TreeNode) -> None:
        if node.is_leaf:
            return
        m, n_r = node.left.size, node.right.size
        table = splits[node] = np.zeros((node.size + 1, m + 1))
        for w in sorted(node_weights.get(node, ())):
            i_min, i_max = max(0, w - n_r), min(w, m)
            probs = rng.dirichlet(np.ones(i_max - i_min + 1))
            amp = np.sqrt(probs + nonneg_floor)
            table[w, i_min:i_max + 1] = amp / np.linalg.norm(amp)
            for i in range(i_min, i_max + 1):
                node_weights.setdefault(node.left, set()).add(i)
                node_weights.setdefault(node.right, set()).add(w - i)
        walk(node.left)
        walk(node.right)

    walk(tree.root)
    return splits


def _assemble(tree: PartitionTree, weights, profile, kind: str,
              rng: np.random.Generator) -> StateVector:
    splits = _node_split_samples(tree, weights, rng, 0.05 if kind == "nonneg" else 0.0)

    per_weight = [enumerate_weight_distributions(tree.leaf_sizes, ell) for ell in weights]
    leaf_weights = np.array([dist for group in per_weight for dist in group], dtype=np.int64)
    factors = []
    for u, size in enumerate(tree.leaf_sizes):
        factors.append(np.zeros(1 << size, dtype=np.complex128))
        slots = popcounts(np.arange(1 << size))  # lexicographic order: ascending pattern
        for w in np.unique(leaf_weights[:, u]):
            factors[u][slots == w] = _sample_unit(rng, math.comb(size, int(w)), kind)

    # c(I) = profile[ell] * product over internal nodes (preorder) of the sampled splits
    value = np.ones(len(leaf_weights))
    for node, w, left in node_weights(tree, leaf_weights):
        value *= splits[node][w, left]
    coeffs = np.repeat(np.asarray(profile, dtype=float), [len(g) for g in per_weight]) * value
    amps = factored_amplitudes(tree, leaf_weights, coeffs, factors)
    return StateVector(tree.n, amps, normalize=True)


def random_leaf_separable(n: int, k: int, ell: int, kind: str = "real",
                          seed=0) -> StateVector:
    """Random leaf-separable state exactly preparable on the (n, k) tree.

    One shared unit vector per reachable (leaf, weight) class; distribution
    weights are products of per-node Dirichlet-sampled conditional splits.
    ``kind`` is "real", "complex", or "nonneg" (all-positive amplitudes, used
    for worst-case gate counting).
    """
    _check_size(n, k, "ell", ell, n)
    tree = build_partition_tree(n, k)
    return _assemble(tree, [ell], [1.0], kind, np.random.default_rng(seed))


def random_mixed_leaf_separable(n: int, k: int, kind: str = "real", seed=0,
                                max_weight: int | None = None) -> StateVector:
    """Random superposition over weights 0..floor(n/2) with per-weight structure."""
    top = n // 2 if max_weight is None else max_weight
    _check_size(n, k, "max_weight", top, n // 2)
    rng = np.random.default_rng(seed)
    tree = build_partition_tree(n, k)
    profile = np.sqrt(rng.dirichlet(np.ones(top + 1)))
    return _assemble(tree, list(range(top + 1)), profile, kind, rng)


def random_fixed_weight_state(n: int, w: int, kind: str = "real", seed=0) -> StateVector:
    """Dense random unit vector in the fixed-weight subspace (not leaf-structured)."""
    _check_size(n, 1, "w", w, n)
    support = np.flatnonzero(popcounts(np.arange(1 << n)) == w)  # lexicographic order
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[support] = _sample_unit(np.random.default_rng(seed), len(support), kind)
    return StateVector(n, amps)


# --- sweeps -------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    n_values: tuple[int, ...]
    k_values: tuple[int, ...] | None = None   # None: all k in 1..ceil(n/2)
    ell: int | None = None                    # None: floor(n/2) per n
    states_per_cell: int = 50
    seed: int = 0
    kind: str = "real"
    modes: tuple[str, ...] = (MODE_FREE,)

    def __post_init__(self):
        if self.states_per_cell < 1:
            raise ValueError(f"states per cell must be at least 1, got {self.states_per_cell}")

    def cells(self):
        for n in self.n_values:
            ks = self.k_values if self.k_values is not None \
                else tuple(range(1, math.ceil(n / 2) + 1))
            ell = max(1, n // 2) if self.ell is None else self.ell
            for k in (k for k in ks if k <= n):
                for mode in self.modes:
                    yield n, k, ell, mode


def _fidelity_cell(n: int, k: int, ell: int, mode: str, kind: str, master: int,
                   count: int) -> dict:
    fids = []
    for idx in range(count):
        psi = random_leaf_separable(n, k, ell, kind, seed=derive_seed(master, n, k, idx))
        circ = synthesize_full(psi, SynthesisConfig(n=n, k=k, mode=mode))
        res = simulate(circ, target=psi)
        fids.append(res.fidelity)
    arr = np.array(fids)
    return {"n": n, "k": k, "ell": ell, "mode": mode, "field": kind, "seed": master,
            "mean_fidelity": float(arr.mean()), "min_fidelity": float(arr.min()),
            "max_fidelity": float(arr.max()), "std_fidelity": float(arr.std()),
            "count": count}


def run_fidelity_sweep(config: ExperimentConfig) -> list[dict]:
    """Synthesize and simulate ``states_per_cell`` targets per (n, k, mode) cell, if any."""
    rows = [_fidelity_cell(n, k, ell, mode, config.kind, config.seed,
                           config.states_per_cell) for n, k, ell, mode in config.cells()]
    if not rows:
        raise ValueError(f"no (n, k) cell to run: k {config.k_values} exceeds every n")
    return rows


COST_METHODS = ("leafsep_free", "leafsep_ancilla", "hwk_encoder", "general_baseline")


def run_cost_sweep(config: ExperimentConfig) -> list[dict]:
    """Worst-case gate counts at k = ceil(n/2) on a full-support target."""
    rows: list[dict] = []
    for n in config.n_values:
        k = math.ceil(n / 2)
        ell = k
        psi = random_leaf_separable(n, k, ell, "nonneg", seed=derive_seed(config.seed, n, 0, 0))
        circuits = {
            "leafsep_free": synthesize_full(psi, SynthesisConfig(n=n, k=k, mode=MODE_FREE)),
            "leafsep_ancilla": synthesize_full(psi, SynthesisConfig(n=n, k=k, mode=MODE_ANCILLA)),
            "general_baseline": synthesize_general_baseline(psi),
        }
        for method in COST_METHODS:
            if method == "hwk_encoder":
                order = ehrlich_sequence(n, ell)
                eta = np.array([psi.amplitude(g) for g in order])
                eta = eta / np.linalg.norm(eta)
                circ = synthesize_initial(n, ell)
                circ.extend(synthesize_hwk_encoder(n, ell, eta))
            else:
                circ = circuits[method]
            report = cost(circ)
            rows.append({"n": n, "k": k, "method": method,
                         "two_qubit": report.two_qubit_count,
                         "total": report.total_gate_count,
                         "depth": report.depth})
    return rows


def fidelity_rows_to_csv(rows: list[dict]) -> str:
    lines = [FIDELITY_CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r["n"]), str(r["k"]), str(r["ell"]), r["mode"], r["field"],
            str(r["seed"]), repr(r["mean_fidelity"]), repr(r["min_fidelity"]),
            repr(r["max_fidelity"]), repr(r["std_fidelity"]), str(r["count"])]))
    return "\n".join(lines) + "\n"


def cost_rows_to_csv(rows: list[dict]) -> str:
    lines = [COST_CSV_HEADER]
    for r in rows:
        lines.append(",".join([str(r["n"]), str(r["k"]), r["method"],
                               str(r["two_qubit"]), str(r["total"]), str(r["depth"])]))
    return "\n".join(lines) + "\n"
