"""Circuit emission: weight-transfer blocks, leaf encoders, full pipelines, baselines.

:func:`synthesize_full` emits from one :func:`leafsep.analysis.analyze` of the target:
the input stage from its weight profile, a transfer block per live row of each node's
split table, the phases from its distribution table and the encoders from its leaf table.

The canonical register convention: a node of the partition tree carrying weight
m holds the pattern with all m ones packed at the right end of its qubit range.
A node's transfer block walks that packed pattern across the child boundary one
excitation at a time; each step is a two-level rotation (crbs) whose controls
pin down exactly one pair of canonical child patterns, so blocks for different
incoming weights coexist on the same node without cross-talk.

The phase of each weight distribution I is fitted as sum_u theta_u(I_u) plus a
residual.  theta_u(w) rides on the leaf encoders: a class with several patterns
takes it into its leaf-table entry (the encoder chain prepares absolute phases,
so this adds no gate), the one-pattern full-leaf class gets one leaf-local
``mcphase``.  Only a distribution whose residual exceeds PHASE_FIT_TOL gets a
full-register ``mcphase``; generated separable targets need none.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import analysis
from .analysis import encoder_angles, rotation_ladder_angles
from .circuit import ANGLE_TOL, Circuit, Gate, _kind_cost, crbs, mcphase, mcry, x
from .combinatorics import ehrlich_patterns
from .core import PartitionTree, StateVector, TreeNode, build_partition_tree

PHASE_FIT_TOL = 1e-12   # distribution phases the leaf phases leave unexplained

MODE_FREE = "free"
MODE_ANCILLA = "ancilla"


@dataclass(frozen=True)
class SynthesisConfig:
    """The tree's leaf size ``k`` and the encoder ``mode``; ``n`` must be the target's."""

    n: int
    k: int
    mode: str = MODE_FREE


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


def synthesize_gwdb_tree(tree: PartitionTree, splits: dict) -> Circuit:
    """Transfer blocks for every internal node and every live row of its split table
    (:func:`weight_split_amplitudes`), taking the packed input to the splits' product."""
    circ = Circuit(n_system=tree.n, metadata={"n": tree.n, "k": tree.leaf_size, "mode": "none"})
    for node in tree.internal_nodes():
        for m, betas in enumerate(splits[node]):
            if m and betas.any():
                circ.extend(synthesize_gwdb(node, m, rotation_ladder_angles(betas)))
    return circ


def _fit_leaf_phases(sizes, dists: np.ndarray, phases: np.ndarray):
    """Additive fit phase(I) = sum_u theta_u(I_u) + r(I) + const over live distributions.

    ``dists`` (D x G leaf weights) and ``phases`` are the live distributions in table
    order.  Unit phasors p_u(w) = e^{i theta_u(w)} are fixed by exact propagation: the
    first distribution I0 sets p_u(I0_u) = 1, and each round every distribution with
    exactly one unfitted (u, w) fixes it by phasor division (the first such in table
    order wins).  When none has, the first unfitted pair in table order is set to 1, a
    gauge choice the residual keeps exact.  theta_u(0) = 0 is a global phase, and with
    one total weight so is theta_u(w) -> theta_u(w) + lambda w: lambda zeroes the
    full-leaf class of the leaf that leaves the fewest such classes with a phase, or
    stays 0.  Returns theta (G x (max size + 1), 0 where unfitted) and r(I), relative
    to I0, in [-pi, pi]; or theta = 0 and r(I) = phase(I) - phase(I0) when that takes
    fewer phase gates (a target whose phases are far from additive).
    """
    leaves, width = len(sizes), max(sizes) + 1
    pair = dists + width * np.arange(leaves)          # (u, w) as u * width + w
    p = np.ones(leaves * width, dtype=np.complex128)  # unfitted pairs stay 1
    fitted = np.zeros(leaves * width, dtype=bool)
    fitted[pair[0]] = True
    target = np.exp(1j * (phases - phases[0]))
    while True:
        unfitted = ~fitted[pair]
        count = unfitted.sum(axis=1)
        rows = np.flatnonzero(count == 1)
        if rows.size:
            ids, first = np.unique(pair[rows, np.argmax(unfitted[rows], axis=1)],
                                   return_index=True)
            rows = rows[first]
            p[ids] = target[rows] / np.prod(p[pair[rows]], axis=1)
        elif count.any():
            row = np.argmax(count > 0)
            ids = pair[row, np.argmax(unfitted[row])]
        else:
            break
        fitted[ids] = True
    fitted = fitted.reshape(leaves, width)
    theta = np.angle(p).reshape(leaves, width)
    theta = np.where(fitted, theta - theta[:, :1], 0.0)

    def leaf_gates(t: np.ndarray) -> int:  # one-pattern full-leaf classes with a phase
        return sum(abs(math.remainder(t[u, size], 2.0 * math.pi)) > ANGLE_TOL
                   for u, size in enumerate(sizes))

    totals = dists.sum(axis=1)
    if np.all(totals == totals[0]):
        shifts = [theta] + [theta - theta[u, size] / size * np.arange(width)
                            for u, size in enumerate(sizes) if fitted[u, size]]
        theta = np.where(fitted, min(shifts, key=leaf_gates), 0.0)
    fit = theta[np.arange(leaves), dists].sum(axis=1)
    residual = _wrap(phases - phases[0] - (fit - fit[0]))
    relative = _wrap(phases - phases[0])
    if leaf_gates(theta) + np.sum(np.abs(residual) > PHASE_FIT_TOL) > \
            np.sum(np.abs(relative) > PHASE_FIT_TOL):  # the fit costs more gates than it saves
        return np.zeros_like(theta), relative
    return theta, residual


def _wrap(angles: np.ndarray) -> np.ndarray:
    return angles - 2.0 * math.pi * np.round(angles / (2.0 * math.pi))


def _distribution_phases(tree: PartitionTree, distributions, table: dict):
    """Place the phases of ``distributions`` (the target's distribution table).

    Returns a copy of the leaf table ``table`` whose multi-pattern entries carry
    e^{i theta_u(w)} (their chains prepare absolute phases, so it adds no gate), the phase gates
    and the ``phase_gates`` metadata.  The gates are one leaf-local ``mcphase`` per
    one-pattern full-leaf class with a phase, then one full-register ``mcphase`` per
    distribution whose residual exceeds PHASE_FIT_TOL, conditioned on its packed pattern.
    """
    live = distributions.live
    dists = distributions.weights[live]
    theta, residual = _fit_leaf_phases(tree.leaf_sizes, dists, distributions.phases[live])
    table, gates = dict(table), []
    for (u, w), entry in sorted(table.items()):
        angle = math.remainder(float(theta[u, w]), 2.0 * math.pi)
        if abs(angle) <= ANGLE_TOL:
            continue
        if len(entry) > 1:
            table[(u, w)] = entry * cmath.exp(1j * angle)
        else:  # the full-leaf class: theta_u(0) is gauged to 0
            first, last = tree.leaves[u].start, tree.leaves[u].start + w - 1
            gates.append(mcphase(angle, last, [(q, 1) for q in range(first, last)]))
    leaf_gates = len(gates)
    for j in np.flatnonzero(np.abs(residual) > PHASE_FIT_TOL):
        ones = [q for leaf, w in zip(tree.leaves, dists[j].tolist())
                for q in range(leaf.start + leaf.size - w, leaf.start + leaf.size)]
        taken = set(ones)
        controls = [(q, 1) for q in ones[:-1]] + [(q, -1) for q in range(tree.n) if q not in taken]
        gates.append(mcphase(float(residual[j]), ones[-1], controls))
    return table, gates, {"leaf": leaf_gates, "residual": len(gates) - leaf_gates,
                          "max_residual": float(np.max(np.abs(residual), initial=0.0))}


# --- Hamming-weight encoders -------------------------------------------------

@lru_cache(maxsize=1024)
def _chain_slots(size: int, w: int, offset: int, extra):
    """Where the chain over ``ehrlich_patterns(size, w)`` acts on wires offset..offset+size-1.

    A pattern's bit i sits on wire offset + size - 1 - i.  One (target pair, controls)
    per consecutive pair a, b: the pair is read from a ^ b with the 1 of a first; the
    controls are the shared ones a & b (positive) plus the (wire, polarity) pairs
    ``extra`` or, when ``extra`` is None, the shared zeros ~(a | b) (negative), which
    confine the rotation to one two-dimensional subspace of the whole register.  Then
    the trailing phase's target (the last pattern's lowest one) and controls (its
    other ones, plus ``extra`` or its zeros), or None at weight 0.  Controls are
    sorted, as ``Gate`` stores them.
    """
    top, mask = offset + size - 1, (1 << size) - 1

    def controls(ones: int, zeros: int) -> tuple:
        out = [(top - i, 1) for i in range(size) if ones >> i & 1]
        out += extra if extra is not None else [(top - i, -1) for i in range(size)
                                                if zeros >> i & 1]
        return tuple(sorted(out))

    patterns = ehrlich_patterns(size, w).tolist()
    steps = tuple(((top + 1 - (a & ~b).bit_length(), top + 1 - (b & ~a).bit_length()),
                   controls(a & b, ~(a | b) & mask)) for a, b in zip(patterns, patterns[1:]))
    last = patterns[-1]
    low = last & -last
    return steps, (top + 1 - low.bit_length(), controls(last ^ low, ~last & mask)) if last else None


def _chain_angles(amplitudes):
    """The :func:`encoder_angles` that emit a gate: each non-zero rotation as (step,
    theta, phi), and the trailing phase, or None when it is zero."""
    pairs, trailing = encoder_angles(amplitudes)
    rotations = [(t, theta, phi) for t, (theta, phi) in enumerate(pairs)
                 if abs(theta) > ANGLE_TOL or abs(phi) > ANGLE_TOL]
    return rotations, (trailing if abs(trailing) > ANGLE_TOL else None)


def _rotation_chain(angles, slots) -> list[Gate]:
    """The two-level rotations and trailing phase of :func:`_chain_angles` at their
    :func:`_chain_slots`: the chain that deposits the amplitudes along the order."""
    (rotations, trailing), (steps, phase) = angles, slots
    gates = [Gate("crbs", *steps[t], (theta, phi)) for t, theta, phi in rotations]
    if trailing is not None:
        if phase is None:
            raise ValueError("a weight-0 chain has no wire to carry its phase")
        gates.append(Gate("mcphase", (phase[0],), phase[1], (trailing,)))
    return gates


def _chain_cost(size: int, w: int, angles, ancilla: bool) -> int:
    """:func:`leafsep.circuit.two_qubit_cost` summed over a leaf chain, in closed form.

    A crbs has w - 1 shared ones and the ancilla, or size - w - 1 shared zeros, as
    controls; the trailing phase w - 1 other ones and the ancilla, or size - w zeros.
    """
    rotations, trailing = angles
    phase = _kind_cost("mcphase", w if ancilla else size - 1)[0] if trailing is not None else 0
    return len(rotations) * _kind_cost("crbs", w if ancilla else size - 2)[0] + phase


def synthesize_hwk_encoder(n_bits: int, w: int, amplitudes) -> list[Gate]:
    """Standalone fixed-weight encoder: |0^(n-w) 1^w> -> sum_g amp(g) |g>.

    ``amplitudes`` must be unit norm and ordered like
    :func:`ehrlich_patterns(n_bits, w)`.  One crbs per consecutive pair, each
    controlled on the pair's shared ones, and a trailing conditioned phase when the
    amplitudes need one.
    """
    count = len(ehrlich_patterns(n_bits, w))
    if count != len(amplitudes):
        raise ValueError(f"expected {count} amplitudes, got {len(amplitudes)}")
    return _rotation_chain(_chain_angles(amplitudes), _chain_slots(n_bits, w, 0, ()))


def _leaf_detector(leaf: TreeNode, weight: int, ancilla_wire: int) -> Gate:
    """Flip the leaf's ancilla exactly on the packed weight pattern."""
    boundary = leaf.size - weight
    controls = [(leaf.start + p, -1) for p in range(boundary)]
    controls += [(leaf.start + p, 1) for p in range(boundary, leaf.size)]
    return x(ancilla_wire, controls=controls)


class _EncoderGates(list):
    """Leaf encoder gates, with ``leaves``: each leaf's mode and both candidate costs."""

    leaves: list


def synthesize_leaf_encoders(table: dict, tree: PartitionTree, mode: str) -> list[Gate]:
    """Per-leaf encoders applied per weight class in increasing class order.

    ``table`` is a :func:`leaf_amplitude_table`; ``mode`` is MODE_FREE or MODE_ANCILLA.

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

    The choice needs no gate: each class's angles are computed once, and a chain's
    cost is a closed form in its leaf size, weight and non-zero angles
    (:func:`_chain_cost`).  Only the chosen gates are then built, at slots cached
    per tree (:func:`_chain_slots`).  The returned list's ``leaves`` gives, per leaf,
    the mode emitted and the two-qubit cost of the free and of the ancilla scheme.
    """
    if mode not in (MODE_FREE, MODE_ANCILLA):
        raise ValueError(f"mode must be '{MODE_FREE}' or '{MODE_ANCILLA}', got {mode!r}")
    gates = _EncoderGates()
    gates.leaves = []
    for u, leaf in enumerate(tree.leaves):
        size, ancilla = leaf.size, tree.n + u
        classes = sorted(w for (lu, w) in table if lu == u)
        angles = {w: _chain_angles(table[(u, w)]) for w in classes if len(table[(u, w)]) > 1}
        free = {w: _chain_cost(size, w, a, False) for w, a in angles.items()}
        marked = {w: _chain_cost(size, w, a, True) for w, a in angles.items()}
        free_cost = sum(free.values())
        ancilla_cost = (len(classes) * _kind_cost("mcx", size)[0]   # the detectors
                        + sum(min(marked[w], free[w]) for w in angles))
        use_ancilla = mode == MODE_ANCILLA and ancilla_cost < free_cost
        for w in classes:
            if use_ancilla:
                gates.append(_leaf_detector(leaf, w, ancilla))
            if w in angles:
                extra = ((ancilla, 1),) if use_ancilla and marked[w] <= free[w] else None
                gates.extend(_rotation_chain(angles[w], _chain_slots(size, w, leaf.start, extra)))
        gates.leaves.append({"mode": MODE_ANCILLA if use_ancilla else MODE_FREE,
                             "free_two_qubit": free_cost, "ancilla_two_qubit": ancilla_cost})
    return gates


# --- full pipelines -----------------------------------------------------------

def synthesize_mixed_weight_input(profile, n: int) -> list[Gate]:
    """Staircase preparing sum_l profile[l] |0^(n-l) 1^l> from |0^n>.

    One rotation per step: the first on the last qubit, then singly-controlled
    rotations walking leftward, since consecutive packed patterns differ in one
    bit.  ``profile`` must be unit norm, on weights 0..n; the ladder angles past its
    last non-zero entry are 0 and emit no gate.
    """
    prof = np.asarray(profile, dtype=float)
    if len(prof) > n + 1:
        raise ValueError(f"profile has {len(prof)} weights, {n} qubits hold 0..{n}")
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

    The target fixes n (``config.n`` must equal ``psi.n``) and ell, its largest
    weight; ``config`` chooses only the leaf size k and the encoder mode.  The circuit
    prepares the compiled state of :func:`analysis.reconstruct_amplitudes` up to a
    global phase.  A target farther from it than the separability check's tolerance
    synthesizes with a warning that names the worst residual (``max_delta``), and
    ``metadata["separable"]`` is False.  The distribution phases go on the leaf
    encoders; ``metadata["phase_gates"]`` counts the leaf-local phase gates (``leaf``)
    and the full-register ones left for the part of the phases that is not additive
    over (leaf, weight) (``residual``), and gives the worst fit residual in radians
    (``max_residual``).  ``metadata["leaf_encoders"]`` has one entry per leaf: the
    encoder mode emitted (``mode``) and the two-qubit cost of the free and the ancilla
    scheme (``free_two_qubit``, ``ancilla_two_qubit``).
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

    factored = analysis.analyze(psi, tree, weights)
    report = analysis.is_leaf_separable(psi, tree, factored=factored)
    if not report.separable:
        warnings.warn("target is not leaf-separable for this tree; synthesis proceeds as an "
                      f"approximation (max_delta {report.max_delta:.3g})", stacklevel=2)

    table, phase_gates, phase_counts = _distribution_phases(tree, factored.distributions,
                                                            factored.leaves)
    n_ancilla = tree.num_leaves if config.mode == MODE_ANCILLA else 0
    circ = Circuit(n_system=n, n_ancilla=n_ancilla,
                   metadata={"n": n, "k": k, "ell": ell, "mode": config.mode,
                             "separable": report.separable, "phase_gates": phase_counts})

    if mixed:
        circ.extend(synthesize_mixed_weight_input(factored.profile, n))
    else:
        circ.extend(synthesize_initial(n, ell).gates)

    circ.extend(synthesize_gwdb_tree(tree, factored.splits).gates)
    circ.extend(phase_gates)
    encoders = synthesize_leaf_encoders(table, tree, config.mode)
    circ.extend(encoders)
    circ.metadata["leaf_encoders"] = encoders.leaves
    return circ


# --- general-state baseline ---------------------------------------------------

def synthesize_general_baseline(psi: StateVector) -> Circuit:
    """Arbitrary-state preparation by uniformly controlled rotations (multiplexors).

    Qubit j gets a ``ucry`` on the magnitudes, controlled on qubits 0..j-1 with qubit 0
    the top bit of its patterns; phases, when present, come from a ``ucrz`` per qubit
    over the same controls.  A multiplexor whose angles are all within ANGLE_TOL is
    left out, so a real target takes at most n gates and a complex one 2n.
    :func:`leafsep.circuit.lower` expands the multiplexor of qubit j into its Gray-code
    cascade of about 2^(j+1) cx gates and rotations.  Output matches the target up to
    global phase.
    """
    n = psi.n
    amps = psi.amplitudes
    circ = Circuit(n_system=n, metadata={"n": n, "k": 0, "ell": 0, "mode": "baseline"})

    def emit(kind: str, angles: np.ndarray, j: int) -> None:
        if np.max(np.abs(angles)) > ANGLE_TOL:
            circ.add(Gate(kind, (j,), tuple((q, 1) for q in range(j)), tuple(angles.tolist())))

    mags = np.abs(amps)
    for j in range(n):
        blocks = mags.reshape(1 << j, 2, 1 << (n - 1 - j))
        norms = np.sqrt(np.sum(blocks ** 2, axis=2))
        emit("ucry", 2.0 * np.arctan2(norms[:, 1], norms[:, 0]), j)
    omega = np.where(mags > 1e-15, np.angle(amps), 0.0)
    if np.max(np.abs(omega)) > ANGLE_TOL:
        for j in range(n):
            blocks = omega.reshape(1 << j, 2, 1 << (n - 1 - j))
            emit("ucrz", np.mean(blocks[:, 1, :] - blocks[:, 0, :], axis=1), j)
    return circ
