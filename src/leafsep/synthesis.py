"""Circuit emission: weight-transfer blocks, leaf encoders, full pipelines, baselines.

The canonical register convention: a node of the partition tree carrying weight
m holds the pattern with all m ones packed at the right end of its qubit range.
A node's transfer block walks that packed pattern across the child boundary one
excitation at a time; each step is a two-level rotation (crbs) whose controls
pin down exactly one pair of canonical child patterns, so blocks for different
incoming weights coexist on the same node without cross-talk.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import analysis
from .analysis import (encoder_angles, leaf_amplitude_table, mixed_weight_profile,
                       rotation_ladder_angles, weight_split_amplitudes)
from .circuit import Circuit, Gate, crbs, mcphase, mcry, mcrz, two_qubit_cost, x
from .combinatorics import controls_and_targets, ehrlich_sequence
from .core import PartitionTree, StateVector, TreeNode, build_partition_tree

ANGLE_TOL = 1e-15

MODE_FREE = "free"
MODE_ANCILLA = "ancilla"


@dataclass(frozen=True)
class SynthesisConfig:
    n: int
    k: int
    ell: int | None = None
    mode: str = MODE_FREE

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must be in [1, {self.n}], got {self.k}")
        if self.ell is not None and not 0 <= self.ell <= self.n:
            raise ValueError(f"ell must be in [0, {self.n}], got {self.ell}")
        if self.mode not in (MODE_FREE, MODE_ANCILLA):
            raise ValueError(f"mode must be '{MODE_FREE}' or '{MODE_ANCILLA}'")


def synthesize_initial(n: int, ell: int) -> Circuit:
    """X gates flipping the last ``ell`` qubits: |0^n> -> |0^(n-ell) 1^ell>."""
    if ell < 0 or ell > n:
        raise ValueError(f"ell must be in [0, {n}]")
    circ = Circuit(n_system=n, metadata={"n": n, "k": n, "ell": ell, "mode": "none"})
    for q in range(n - ell, n):
        circ.add(x(q))
    return circ


# --- weight-transfer blocks -------------------------------------------------

def _transfer_step(node: TreeNode, total: int, i: int, theta: float) -> Gate:
    """Rotation moving the (i+1)-th excitation from the right child to the left.

    Controls select exactly the two canonical child patterns with splits
    (i, total-i) and (i+1, total-i-1), including against patterns of other
    incoming weights on the same node.
    """
    left, right = node.left, node.right
    m, n_r = left.size, right.size
    f = n_r - (total - i)                  # right-local donor position
    t = m - i - 1                          # left-local receiver position
    q_from = right.start + f
    q_to = left.start + t
    controls: list[tuple[int, int]] = []
    if i >= 1:
        controls.append((left.start + m - i, 1))       # left already holds >= i
    if i + 1 < m:
        controls.append((left.start + t - 1, -1))      # left holds <= i+1
    if f >= 1:
        controls.append((right.start + f - 1, -1))     # right holds <= total-i
    if total - i >= 2:
        controls.append((right.start + f + 1, 1))      # right holds >= total-i-1
    return crbs(theta, 0.0, q_from, q_to, controls)


def synthesize_gwdb(node: TreeNode, total_weight: int, thetas) -> list[Gate]:
    """One weight-transfer block: map the packed weight on ``node`` to its splits.

    ``thetas`` come from :func:`rotation_ladder_angles` over the split
    amplitudes indexed 0..total_weight; infeasible splits carry angle pi or 0
    and only the feasible window emits gates.
    """
    if node.is_leaf:
        raise ValueError("transfer blocks act on internal nodes")
    m, n_r = node.left.size, node.right.size
    i_min = max(0, total_weight - n_r)
    i_max = min(total_weight, m)
    gates: list[Gate] = []
    for i in range(i_min, i_max):
        theta = thetas[i]
        if abs(theta) <= ANGLE_TOL:
            continue
        gates.append(_transfer_step(node, total_weight, i, theta))
    return gates


def synthesize_gwdb_tree(psi: StateVector, tree: PartitionTree,
                         total_weights=None) -> Circuit:
    """Transfer blocks for every internal node and every supported node weight.

    Simulated on the packed initial state this produces the intermediate state
    whose coefficient on each leaf-weight configuration is the product over
    internal nodes of the marginal split ratios of the target.
    """
    if total_weights is None:
        total_weights = psi.weights_present()
    cap = max(total_weights) if total_weights else 0
    circ = Circuit(n_system=tree.n,
                   metadata={"n": tree.n, "k": tree.leaf_size, "ell": cap, "mode": "none"})
    probs = np.abs(psi.amplitudes) ** 2
    for node in tree.internal_nodes():
        norms = analysis.node_weight_norms(psi, node, probs=probs)
        for m in range(1, min(node.size, cap) + 1):
            if norms[m] <= analysis.DEAD_BRANCH_TOL:
                continue
            betas = weight_split_amplitudes(psi, node, m, probs=probs)
            circ.extend(synthesize_gwdb(node, m, rotation_ladder_angles(betas)))
    return circ


def _distribution_phase_gates(tree: PartitionTree, infos) -> list[Gate]:
    """One phase gate per supported distribution, conditioned on its packed pattern.

    ``infos`` is the target's :func:`analysis.distribution_table`.  All phases
    are taken relative to the first supported distribution, so a state with a
    common global phase emits nothing.
    """
    live = [info for info in infos
            if info.norm > analysis.DEAD_BRANCH_TOL and info.reference is not None]
    gates: list[Gate] = []
    for info in live:
        phase = math.remainder(info.phase - live[0].phase, 2.0 * math.pi)
        ones = [q for leaf, w in zip(tree.leaves, info.weights)
                for q in range(leaf.start + leaf.size - w, leaf.start + leaf.size)]
        if abs(phase) <= ANGLE_TOL or not ones:
            continue
        taken = set(ones)
        controls = [(q, 1) for q in ones[:-1]] + [(q, -1) for q in range(tree.n) if q not in taken]
        gates.append(mcphase(phase, ones[-1], controls))
    return gates


# --- Hamming-weight encoders -------------------------------------------------

def _rotation_chain(order, amplitudes, offset: int = 0, extra_controls=(),
                    zero_conditioned: bool = False) -> list[Gate]:
    """Two-level rotations walking ``order`` to deposit ``amplitudes``.

    ``zero_conditioned`` adds negative controls on the shared-zero positions of
    each consecutive pair, confining every rotation to one two-dimensional
    subspace of the whole register.
    """
    pairs, trailing = encoder_angles(amplitudes)
    gates: list[Gate] = []
    for t, (theta, phi) in enumerate(pairs, start=1):
        if abs(theta) <= ANGLE_TOL and abs(phi) <= ANGLE_TOL:
            continue
        slot = controls_and_targets(order[t - 1], order[t])
        controls = [(offset + c, 1) for c in slot.controls] + list(extra_controls)
        if zero_conditioned:
            controls += [(offset + z, -1) for z in slot.shared_zeros]
        gates.append(crbs(theta, phi, offset + slot.target_pair[0],
                          offset + slot.target_pair[1], controls))
    if abs(trailing) > ANGLE_TOL:
        last = order[-1]
        ones = [i for i, ch in enumerate(last) if ch == "1"]
        controls = [(offset + o, 1) for o in ones[:-1]] + list(extra_controls)
        if zero_conditioned:
            controls += [(offset + i, -1) for i, ch in enumerate(last) if ch == "0"]
        gates.append(mcphase(trailing, offset + ones[-1], controls))
    return gates


def synthesize_hwk_encoder(n_bits: int, w: int, amplitudes,
                           extra_controls=()) -> list[Gate]:
    """Standalone fixed-weight encoder: |0^(n-w) 1^w> -> sum_g amp(g) |g>.

    ``amplitudes`` must be unit norm and ordered like
    :func:`ehrlich_sequence(n_bits, w)`.  One crbs per consecutive pair, each
    controlled on the pair's shared ones (plus ``extra_controls``), and a
    trailing conditioned phase when the amplitudes need one.
    """
    order = ehrlich_sequence(n_bits, w)
    if len(order) != len(amplitudes):
        raise ValueError(f"expected {len(order)} amplitudes, got {len(amplitudes)}")
    return _rotation_chain(order, amplitudes, extra_controls=tuple(extra_controls))


def _two_qubit_total(gates: list[Gate]) -> int:
    return sum(two_qubit_cost(g) for g in gates)


def _leaf_detector(leaf: TreeNode, weight: int, ancilla_wire: int) -> Gate:
    """Flip the leaf's ancilla exactly on the packed weight pattern."""
    boundary = leaf.size - weight
    controls = [(leaf.start + p, -1) for p in range(boundary)]
    controls += [(leaf.start + p, 1) for p in range(boundary, leaf.size)]
    return x(ancilla_wire, controls=controls)


def synthesize_leaf_encoders(table: dict, tree: PartitionTree,
                             config: SynthesisConfig) -> list[Gate]:
    """Per-leaf encoders applied per weight class in increasing class order.

    ``table`` is a :func:`leaf_amplitude_table`.

    free mode: every rotation is conditioned on the whole leaf register
    (shared ones positive, shared zeros negative), making it exact on any
    superposition of weight classes.

    ancilla mode: a class detector marks the packed pattern of each reachable
    class onto the leaf's ancilla before its chain runs, and chain rotations
    carry the ancilla as one extra control.  Marked branches keep their
    ancilla set, so all ancillas end in a product state.  Per leaf, the
    cheaper of the two schemes (under the two-qubit cost model) is emitted,
    and within a marked leaf each class may still use full conditioning when
    that costs less.
    """
    gates: list[Gate] = []
    for u, leaf in enumerate(tree.leaves):
        classes = sorted(w for (lu, w) in table if lu == u)
        free_chains: dict[int, list[Gate]] = {}
        for w in classes:
            amps = table[(u, w)]
            if len(amps) == 1:
                free_chains[w] = []
                continue
            free_chains[w] = _rotation_chain(
                ehrlich_sequence(leaf.size, w), amps, offset=leaf.start,
                zero_conditioned=True)
        if config.mode == MODE_FREE or not any(free_chains.values()):
            for w in classes:
                gates.extend(free_chains[w])
            continue

        ancilla_wire = tree.n + u
        anc_plan: list[Gate] = []
        for w in classes:
            anc_plan.append(_leaf_detector(leaf, w, ancilla_wire))
            amps = table[(u, w)]
            if len(amps) == 1:
                continue
            chain = _rotation_chain(
                ehrlich_sequence(leaf.size, w), amps, offset=leaf.start,
                extra_controls=((ancilla_wire, 1),))
            if _two_qubit_total(chain) <= _two_qubit_total(free_chains[w]):
                anc_plan.extend(chain)
            else:
                anc_plan.extend(free_chains[w])
        free_plan = [g for w in classes for g in free_chains[w]]
        if _two_qubit_total(anc_plan) < _two_qubit_total(free_plan):
            gates.extend(anc_plan)
        else:
            gates.extend(free_plan)
    return gates


# --- full pipelines -----------------------------------------------------------

def synthesize_mixed_weight_input(profile, n: int) -> list[Gate]:
    """Staircase preparing sum_l profile[l] |0^(n-l) 1^l> from |0^n>.

    One rotation per step: the first on the last qubit, then singly-controlled
    rotations walking leftward, since consecutive packed patterns differ in one
    bit.  ``profile`` must be unit norm with support at weights <= n/2.
    """
    prof = np.asarray(profile, dtype=float)
    if len(prof) > n // 2 + 1:
        raise ValueError(f"profile supports weights above {n // 2}")
    if abs(float(np.sum(prof ** 2)) - 1.0) > 1e-9:
        raise ValueError("profile must have unit norm")
    thetas = rotation_ladder_angles(prof)
    gates: list[Gate] = []
    for step, theta in enumerate(thetas):
        if abs(theta) <= ANGLE_TOL:
            continue
        target = n - step - 1
        controls = [] if step == 0 else [(n - step, 1)]
        gates.append(mcry(theta, target, controls))
    return gates


def synthesize_full(psi: StateVector, config: SynthesisConfig) -> Circuit:
    """End-to-end pipeline: packed input, transfer tree, phases, leaf encoders.

    The circuit prepares the compiled state of :func:`analysis.reconstruct_amplitudes`
    up to a global phase.  A target farther from it than the separability check's
    tolerance synthesizes with a warning that names the worst residual
    (``max_delta``), and ``metadata["separable"]`` is False.
    """
    n, k = config.n, config.k
    if psi.n != n:
        raise ValueError(f"state has {psi.n} qubits, config expects {n}")
    tree = build_partition_tree(n, k)
    weights = psi.weights_present()
    if not weights:
        raise ValueError("target state has no support")
    mixed = len(weights) > 1
    ell = max(weights)
    if config.ell is not None and not mixed and config.ell != ell:
        raise ValueError(f"state weight {ell} does not match config ell {config.ell}")

    infos = analysis.distribution_table(psi, tree, weights)
    table = leaf_amplitude_table(psi, tree, infos=infos)
    report = analysis.is_leaf_separable(psi, tree, infos=infos, table=table)
    if not report.separable:
        warnings.warn("target is not leaf-separable for this tree; synthesis proceeds as an "
                      f"approximation (max_delta {report.max_delta:.3g})", stacklevel=2)

    n_ancilla = tree.num_leaves if config.mode == MODE_ANCILLA else 0
    circ = Circuit(n_system=n, n_ancilla=n_ancilla,
                   metadata={"n": n, "k": k, "ell": ell, "mode": config.mode,
                             "separable": report.separable})

    if mixed:
        circ.extend(synthesize_mixed_weight_input(mixed_weight_profile(psi), n))
    else:
        circ.extend(synthesize_initial(n, ell).gates)

    circ.extend(synthesize_gwdb_tree(psi, tree, weights).gates)
    circ.extend(_distribution_phase_gates(tree, infos))
    circ.extend(synthesize_leaf_encoders(table, tree, config))
    return circ


# --- general-state baseline ---------------------------------------------------

def _gray_multiplexed_rotation(kind: str, angles: np.ndarray, controls: list[int],
                               target: int) -> list[Gate]:
    """Uniformly controlled rotation as the Gray-code cx/rotation cascade.

    ``angles[p]`` applies when the control wires (controls[0] most significant)
    read the bits of p.  Rotation i takes entry g_i (the i-th Gray code) of the
    Walsh-Hadamard transform of ``angles`` / 2^m; the cx after it is controlled
    on the bit where g_i and g_(i+1) differ.
    """
    maker = mcry if kind == "ry" else mcrz
    m = len(controls)
    if np.max(np.abs(angles)) <= ANGLE_TOL:
        return []
    if m == 0:
        return [maker(float(angles[0]), target)]
    size = 1 << m
    tilde = np.array(angles, dtype=float)
    for j in range(m):
        pairs = tilde.reshape(-1, 2, 1 << j)
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
    tilde /= size
    gray = np.arange(size) ^ (np.arange(size) >> 1)
    gates: list[Gate] = []
    for i, g in enumerate(gray):
        if abs(tilde[g]) > ANGLE_TOL:
            gates.append(maker(float(tilde[g]), target))
        changed = int(g ^ gray[(i + 1) % size]).bit_length() - 1
        gates.append(x(target, controls=[(controls[m - 1 - changed], 1)]))
    return gates


def synthesize_general_baseline(psi: StateVector) -> Circuit:
    """Arbitrary-state preparation via uniformly controlled rotation cascades.

    Magnitudes come from an RY multiplexer per qubit (conditioned on all
    previous qubits); phases, when present, from RZ multiplexers over the same
    control structure.  Output matches the target up to global phase.
    """
    n = psi.n
    amps = psi.amplitudes
    circ = Circuit(n_system=n, metadata={"n": n, "k": 0, "ell": 0, "mode": "baseline"})
    mags = np.abs(amps)
    for j in range(n):
        blocks = mags.reshape(1 << j, 2, 1 << (n - 1 - j))
        norms = np.sqrt(np.sum(blocks ** 2, axis=2))
        thetas = 2.0 * np.arctan2(norms[:, 1], norms[:, 0])
        circ.extend(_gray_multiplexed_rotation("ry", thetas, list(range(j)), j))
    omega = np.where(mags > 1e-15, np.angle(amps), 0.0)
    if np.max(np.abs(omega)) > ANGLE_TOL:
        for j in range(n):
            blocks = omega.reshape(1 << j, 2, 1 << (n - 1 - j))
            phis = np.mean(blocks[:, 1, :] - blocks[:, 0, :], axis=1)
            circ.extend(_gray_multiplexed_rotation("rz", phis, list(range(j)), j))
    return circ
