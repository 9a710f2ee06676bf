"""Shared fixtures and independent oracles.

The gate oracle builds full gate matrices column by column from scalar bit
logic, deliberately avoiding the simulator's vectorized slicing so the two paths
can check each other.  The separability oracle checks one weight class at a
time for the per-class product condition (each class rank one), which every
target the compiler prepares exactly satisfies, so a target it rejects the
compiled-state check in :mod:`leafsep.analysis` must reject too; its classes
come from per-leaf popcounts over all 2^n indices, not from the analysis layer's
leaf-by-leaf class expansion.  The
tensor-factorization oracle decides the same per-class condition by singular
values.  :func:`simulated_compiled_state` is the compiled state obtained the
independent way: by simulating the synthesized circuit.  :func:`child_weight_norms`
sums the target class by class over :func:`class_indices`, independent of the split
tables in :mod:`leafsep.analysis`.  :func:`leaf_encoders_oracle` is the string-based
encoder builder the synthesizer once used: it builds both candidate chains of every
class by scanning bitstrings, sums their costs and keeps the cheaper one.
"""
import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import settings

from leafsep.analysis import SeparabilityReport, distribution_table, encoder_angles
from leafsep.circuit import Circuit, Gate, crbs, mcphase, two_qubit_cost, x
from leafsep.combinatorics import ehrlich_sequence
from leafsep.core import (StateVector, enumerate_weight_distributions, index_to_string,
                          string_to_index)
from leafsep.simulator import simulate
from leafsep.synthesis import ANGLE_TOL, MODE_FREE, SynthesisConfig, synthesize_full

# Every property test runs the same examples each time, with no time limit and no
# example database; each test sets only its own max_examples.
settings.register_profile("leafsep", deadline=None, derandomize=True, database=None)
settings.load_profile("leafsep")


@pytest.fixture
def worked_example():
    """The 4-qubit, weight-2 target used throughout: known-separable for k=2."""
    a = 1 / (2 * math.sqrt(2))
    b = 1 / math.sqrt(2)
    return StateVector.from_terms(4, {
        "0101": a, "0110": a, "1001": a, "1010": a, "1100": b})


@pytest.fixture
def intermediate_example():
    """Packed-pattern superposition after the worked example's transfer block."""
    b = 1 / math.sqrt(2)
    return StateVector.from_terms(4, {"0101": b, "1100": b})


def gate_action_on_basis(gate, bits: str) -> list[tuple[str, complex]]:
    """Scalar semantics: image of one basis state under one gate.  A multiplexor acts
    as the uncontrolled rotation by the angle of the pattern its controls read."""
    if gate.kind in ("ucry", "ucrz"):
        pattern = int("".join(bits[w] for w, _ in gate.controls) or "0", 2)
        gate = Gate("mc" + gate.kind[2:], gate.targets, (), (gate.params[pattern],))
    for wire, pol in gate.controls:
        if bits[wire] != ("1" if pol == 1 else "0"):
            return [(bits, 1.0)]
    if gate.kind in ("x", "cx", "mcx"):
        t = gate.targets[0]
        flipped = bits[:t] + ("1" if bits[t] == "0" else "0") + bits[t + 1:]
        return [(flipped, 1.0)]
    if gate.kind == "mcry":
        theta = gate.params[0]
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        t = gate.targets[0]
        other = bits[:t] + ("1" if bits[t] == "0" else "0") + bits[t + 1:]
        if bits[t] == "0":
            return [(bits, c), (other, s)]
        return [(bits, c), (other, -s)]
    if gate.kind == "mcrz":
        phi = gate.params[0]
        sign = 1.0 if bits[gate.targets[0]] == "1" else -1.0
        return [(bits, cmath.exp(0.5j * sign * phi))]
    if gate.kind == "mcphase":
        if bits[gate.targets[0]] == "1":
            return [(bits, cmath.exp(1j * gate.params[0]))]
        return [(bits, 1.0)]
    if gate.kind == "crbs":
        theta, phi = gate.params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        t1, t2 = gate.targets
        pair = bits[t1] + bits[t2]
        swapped = list(bits)
        swapped[t1], swapped[t2] = bits[t2], bits[t1]
        swapped = "".join(swapped)
        if pair == "10":
            return [(bits, cmath.exp(0.5j * phi) * c),
                    (swapped, cmath.exp(-0.5j * phi) * s)]
        if pair == "01":
            return [(swapped, -cmath.exp(0.5j * phi) * s),
                    (bits, cmath.exp(-0.5j * phi) * c)]
        return [(bits, 1.0)]
    raise AssertionError(f"unhandled kind {gate.kind}")


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full 2^w x 2^w matrix of a circuit via the scalar oracle.  Each gate adds each
    row of the product so far, times the oracle's coefficient, to the row of each
    basis state it reaches: O(4^w) a gate, where a matrix product would be O(8^w)."""
    w = circuit.n_wires
    dim = 1 << w
    mat = np.eye(dim, dtype=np.complex128)
    for gate in circuit.gates:
        out = np.zeros((dim, dim), dtype=np.complex128)
        for row in range(dim):
            for out_bits, coeff in gate_action_on_basis(gate, index_to_string(row, w)):
                out[string_to_index(out_bits)] += coeff * mat[row]
        mat = out
    return mat


def dicke_state(n: int, weight: int) -> StateVector:
    """Uniform superposition of all weight-``weight`` basis states on ``n`` qubits."""
    hits = np.bitwise_count(np.arange(1 << n)) == weight
    return StateVector.from_dense(n, hits / math.sqrt(math.comb(n, weight)))


def class_indices(tree, distribution) -> np.ndarray:
    """Basis indices whose per-leaf Hamming weights equal ``distribution``, ascending."""
    idx = np.arange(1 << tree.n)
    hit = np.ones(len(idx), dtype=bool)
    for leaf, w in zip(tree.leaves, distribution, strict=True):
        hit &= np.bitwise_count(idx & leaf.mask(tree.n)) == w
    return np.flatnonzero(hit)


def child_weight_norms(psi, tree, node) -> np.ndarray:
    """Norm of ``psi`` at each (left, right) pair of Hamming weights on the children of
    ``node``, summed over the classes of every weight distribution."""
    sums = np.zeros((node.left.size + 1, node.right.size + 1))
    for total in range(tree.n + 1):
        for dist in enumerate_weight_distributions(tree.leaf_sizes, total):
            left = right = 0
            for leaf, w in zip(tree.leaves, dist):
                if node.left.start <= leaf.start < node.right.start:
                    left += w
                elif node.right.start <= leaf.start < node.start + node.size:
                    right += w
            sums[left, right] += np.sum(np.abs(psi.amplitudes[class_indices(tree, dist)]) ** 2)
    return np.sqrt(sums)


def tensor_factorization_check(psi, tree, tol: float = 1e-9) -> bool:
    """Separability by singular values: every projected class must be rank one
    across each leaf-versus-rest cut."""
    amps = psi.amplitudes
    table = distribution_table(psi, tree)
    for weights, norm in zip(table.weights.tolist(), table.norms.tolist()):
        if norm <= tol:
            continue
        leaf_strings = [[format(i, f"0{leaf.size}b") for i in range(1 << leaf.size)
                         if bin(i).count("1") == w] for leaf, w in zip(tree.leaves, weights)]
        dims = [len(s) for s in leaf_strings]
        tensor = np.zeros(dims, dtype=np.complex128)
        for combo in itertools.product(*(range(d) for d in dims)):
            bits = "".join(leaf_strings[u][g] for u, g in enumerate(combo))
            tensor[combo] = amps[string_to_index(bits)]
        tensor = tensor / norm
        for u in range(len(dims)):
            unfolded = np.moveaxis(tensor, u, 0).reshape(dims[u], -1)
            if min(unfolded.shape) == 1:
                continue
            s = np.linalg.svd(unfolded, compute_uv=False)
            if s[1] > tol * max(s[0], 1.0):
                return False
    return True


def separability_oracle(psi, tree, table, tol: float = 1e-9) -> SeparabilityReport:
    """The per-distribution product check run class by class over ``table``
    (the target's distribution table), with the report of ``is_leaf_separable``."""
    report = SeparabilityReport(separable=True, tol=tol, table=table)
    amps = psi.amplitudes
    masks = [leaf.mask(psi.n) for leaf in tree.leaves]
    found = False  # violations stop at the first residual violation
    for weights, norm, ref in zip(table.weights.tolist(), table.norms.tolist(),
                                  table.references.tolist()):
        if norm <= tol:
            continue
        if ref < 0:
            if not found:
                report.violations.append({"I": weights, "error": "no reference state"})
            report.separable = False
            continue
        idx = class_indices(tree, weights)
        ref_amp = amps[ref]
        predicted = np.ones(len(idx), dtype=np.complex128)
        for mask in masks:
            predicted *= amps[(ref & ~mask) | (idx & mask)] / ref_amp
        delta = np.abs(amps[idx] / ref_amp - predicted)
        report.max_delta = max(report.max_delta, float(np.max(delta)))
        bad = np.flatnonzero(delta > tol)
        if bad.size:
            if not found:
                report.violations.append({"I": weights,
                                          "bitstring": index_to_string(int(idx[bad[0]]), psi.n),
                                          "delta": float(delta[bad[0]])})
            report.separable, found = False, True
    return report


def support_gap(a, b) -> float:
    """Largest difference between two states' amplitudes over the union of their supports."""
    union = np.union1d(a.indices, b.indices)
    return float(np.max(np.abs(a.lookup(union) - b.lookup(union)), initial=0.0))


def aligned_state(state: np.ndarray, psi, tree) -> np.ndarray:
    """``state`` times the global phase that gives the first live reference of ``psi``
    its target phase (a compiled circuit is exact only up to a global phase)."""
    table = distribution_table(psi, tree)
    first = np.argmax(table.live)
    return state * cmath.exp(1j * (table.phases[first]
                                   - cmath.phase(state[table.references[first]])))


def simulated_compiled_state(psi, tree) -> np.ndarray:
    """The free-mode circuit ``synthesize_full`` compiles for ``tree``, simulated and
    phase-aligned at the first live reference (:func:`aligned_state`)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        circ = synthesize_full(psi, SynthesisConfig(n=psi.n, k=tree.leaf_size))
    return aligned_state(simulate(circ).state.amplitudes, psi, tree)


def rotation_chain_oracle(order, amplitudes, offset: int = 0, extra_controls=(),
                          zero_conditioned: bool = False) -> list:
    """Two-level rotations walking the bitstrings ``order`` to deposit ``amplitudes``,
    each controlled on its pair's shared ones (and shared zeros when
    ``zero_conditioned``), found by comparing the strings character by character."""
    pairs, trailing = encoder_angles(amplitudes)
    gates = []
    for t, (theta, phi) in enumerate(pairs, start=1):
        if abs(theta) <= ANGLE_TOL and abs(phi) <= ANGLE_TOL:
            continue
        a, b = order[t - 1], order[t]
        diff = [i for i, (p, q) in enumerate(zip(a, b)) if p != q]
        assert len(diff) == 2 and a.count("1") == b.count("1")
        q1, q2 = diff if a[diff[0]] == "1" else diff[::-1]
        controls = [(offset + i, 1) for i, (p, q) in enumerate(zip(a, b)) if p == q == "1"]
        controls += list(extra_controls)
        if zero_conditioned:
            controls += [(offset + i, -1) for i, (p, q) in enumerate(zip(a, b)) if p == q == "0"]
        gates.append(crbs(theta, phi, offset + q1, offset + q2, controls))
    if abs(trailing) > ANGLE_TOL:
        last = order[-1]
        ones = [i for i, ch in enumerate(last) if ch == "1"]
        controls = [(offset + o, 1) for o in ones[:-1]] + list(extra_controls)
        if zero_conditioned:
            controls += [(offset + i, -1) for i, ch in enumerate(last) if ch == "0"]
        gates.append(mcphase(trailing, offset + ones[-1], controls))
    return gates


def leaf_encoders_oracle(table: dict, tree, mode: str) -> list:
    """Build-both selection of the leaf encoders: per class, the fully conditioned chain
    and (in ancilla mode) the ancilla-controlled one are both built and the cheaper kept
    (ties to the ancilla); per leaf, the ancilla plan with its class detectors is kept
    when it costs strictly less than the free one.  Returns (gates, per-leaf
    (mode, free cost, ancilla cost or None in free mode))."""
    def total(gates):
        return sum(two_qubit_cost(g) for g in gates)

    gates, leaves = [], []
    for u, leaf in enumerate(tree.leaves):
        classes = sorted(w for (lu, w) in table if lu == u)
        chains = {w: rotation_chain_oracle(ehrlich_sequence(leaf.size, w), table[(u, w)],
                                           offset=leaf.start, zero_conditioned=True)
                  if len(table[(u, w)]) > 1 else [] for w in classes}
        free_plan = [g for w in classes for g in chains[w]]
        if mode == MODE_FREE:
            gates += free_plan
            leaves.append(("free", total(free_plan), None))
            continue
        ancilla = tree.n + u
        plan = []
        for w in classes:
            boundary = leaf.size - w
            plan.append(x(ancilla, [(leaf.start + p, -1 if p < boundary else 1)
                                    for p in range(leaf.size)]))
            if len(table[(u, w)]) > 1:
                chain = rotation_chain_oracle(ehrlich_sequence(leaf.size, w), table[(u, w)],
                                              offset=leaf.start, extra_controls=((ancilla, 1),))
                plan += chain if total(chain) <= total(chains[w]) else chains[w]
        cheaper = any(chains.values()) and total(plan) < total(free_plan)
        chosen = "ancilla" if cheaper else "free"
        gates += plan if chosen == "ancilla" else free_plan
        leaves.append((chosen, total(free_plan), total(plan)))
    return gates, leaves
