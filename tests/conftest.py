"""Shared fixtures and independent oracles.

The gate oracle builds full gate matrices column by column from scalar bit
logic, deliberately avoiding the simulator's vectorized slicing so the two paths
can check each other.  The separability oracle checks one weight class at a
time for the per-class product condition (each class rank one), which every
target the compiler prepares exactly satisfies, so a target it rejects the
compiled-state check in :mod:`leafsep.analysis` must reject too; its classes
come from per-leaf popcounts, not from the analysis layer's grouping.  The
tensor-factorization oracle decides the same per-class condition by singular
values.  :func:`simulated_compiled_state` is the compiled state obtained the
independent way: by simulating the synthesized circuit.
"""
import cmath
import itertools
import math
import warnings

import numpy as np
import pytest

from leafsep.analysis import DEAD_BRANCH_TOL, SeparabilityReport, distribution_table
from leafsep.circuit import Circuit
from leafsep.core import StateVector, index_to_string, popcounts, string_to_index
from leafsep.simulator import simulate
from leafsep.synthesis import SynthesisConfig, synthesize_full


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
    """Scalar semantics: image of one basis state under one gate."""
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
    """Full 2^w x 2^w matrix of a circuit via the scalar oracle."""
    w = circuit.n_wires
    dim = 1 << w
    mat = np.eye(dim, dtype=np.complex128)
    for gate in circuit.gates:
        gmat = np.zeros((dim, dim), dtype=np.complex128)
        for col in range(dim):
            for out_bits, coeff in gate_action_on_basis(gate, index_to_string(col, w)):
                gmat[string_to_index(out_bits), col] += coeff
        mat = gmat @ mat
    return mat


def dicke_state(n: int, weight: int) -> StateVector:
    """Uniform superposition of all weight-``weight`` basis states on ``n`` qubits."""
    hits = popcounts(np.arange(1 << n)) == weight
    return StateVector(n, hits / math.sqrt(math.comb(n, weight)))


def class_indices(tree, distribution) -> np.ndarray:
    """Basis indices whose per-leaf Hamming weights equal ``distribution``, ascending."""
    idx = np.arange(1 << tree.n)
    hit = np.ones(len(idx), dtype=bool)
    for leaf, w in zip(tree.leaves, distribution, strict=True):
        hit &= popcounts(idx & leaf.mask(tree.n)) == w
    return np.flatnonzero(hit)


def tensor_factorization_check(psi, tree, tol: float = 1e-9) -> bool:
    """Separability by singular values: every projected class must be rank one
    across each leaf-versus-rest cut."""
    amps = psi.amplitudes
    for info in distribution_table(psi, tree):
        if info.norm <= tol:
            continue
        leaf_strings = [[format(i, f"0{leaf.size}b") for i in range(1 << leaf.size)
                         if bin(i).count("1") == w] for leaf, w in zip(tree.leaves, info.weights)]
        dims = [len(s) for s in leaf_strings]
        tensor = np.zeros(dims, dtype=np.complex128)
        for combo in itertools.product(*(range(d) for d in dims)):
            bits = "".join(leaf_strings[u][g] for u, g in enumerate(combo))
            tensor[combo] = amps[string_to_index(bits)]
        tensor = tensor / info.norm
        for u in range(len(dims)):
            unfolded = np.moveaxis(tensor, u, 0).reshape(dims[u], -1)
            if min(unfolded.shape) == 1:
                continue
            s = np.linalg.svd(unfolded, compute_uv=False)
            if s[1] > tol * max(s[0], 1.0):
                return False
    return True


def separability_oracle(psi, tree, infos, tol: float = 1e-9) -> SeparabilityReport:
    """The per-distribution product check run class by class over ``infos``
    (the target's distribution table), with the report of ``is_leaf_separable``."""
    report = SeparabilityReport(separable=True, tol=tol)
    amps = psi.amplitudes
    masks = [leaf.mask(psi.n) for leaf in tree.leaves]
    found = False  # violations stop at the first residual violation
    for info in infos:
        report.distributions.append({"I": list(info.weights), "c": info.norm})
        if info.norm <= tol:
            continue
        if info.reference is None:
            if not found:
                report.violations.append({"I": list(info.weights), "error": "no reference state"})
            report.separable = False
            continue
        ref, idx = info.reference, class_indices(tree, info.weights)
        ref_amp = amps[ref]
        predicted = np.ones(len(idx), dtype=np.complex128)
        for mask in masks:
            predicted *= amps[(ref & ~mask) | (idx & mask)] / ref_amp
        delta = np.abs(amps[idx] / ref_amp - predicted)
        report.max_delta = max(report.max_delta, float(np.max(delta)))
        bad = np.flatnonzero(delta > tol)
        if bad.size:
            if not found:
                report.violations.append({"I": list(info.weights),
                                          "bitstring": index_to_string(int(idx[bad[0]]), psi.n),
                                          "delta": float(delta[bad[0]])})
            report.separable, found = False, True
    return report


def simulated_compiled_state(psi, tree) -> np.ndarray:
    """The free-mode circuit ``synthesize_full`` compiles for ``tree``, simulated, times
    e^{i phi_0}, phi_0 being the phase of the first live distribution (the circuit
    takes every distribution phase relative to it)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        circ = synthesize_full(psi, SynthesisConfig(n=psi.n, k=tree.leaf_size))
    first = next(info for info in distribution_table(psi, tree)
                 if info.norm > DEAD_BRANCH_TOL and info.reference is not None)
    return simulate(circ).state.amplitudes * cmath.exp(1j * first.phase)
