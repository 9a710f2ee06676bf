"""Shared fixtures and independent oracles.

The gate oracle builds full gate matrices column by column from scalar bit
logic, deliberately avoiding the simulator's vectorized slicing so the two paths
can check each other.  The separability oracle checks one weight class at a
time, the reference for the batched check in :mod:`leafsep.analysis`.
"""
import cmath
import math

import numpy as np
import pytest

from leafsep.analysis import SeparabilityReport, class_indices
from leafsep.circuit import Circuit
from leafsep.core import StateVector, index_to_string, string_to_index


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
