"""Dense statevector execution of the gate IR plus fidelity/purity diagnostics.

Multi-controlled gates are applied natively: the state tensor is sliced at the
control wires (selecting the matching polarity) and the 2x2 (or pair) update is
applied to the target axes of that slice only.  Ancilla wires sit after the
system wires and are the least significant index bits, so a state on system
wires embeds as a Kronecker product with |0...0> on the ancillas.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate
from .core import StateVector


def _controls_slicer(gate: Gate, n: int) -> list:
    idx: list = [slice(None)] * n
    for wire, pol in gate.controls:
        idx[wire] = 1 if pol == 1 else 0
    return idx


def _apply_gate(state: np.ndarray, gate: Gate, n: int) -> None:
    """In-place application of one gate to a [2]*n tensor view."""
    base = _controls_slicer(gate, n)
    if gate.kind in ("x", "cx", "mcx"):
        t = gate.targets[0]
        i0, i1 = list(base), list(base)
        i0[t], i1[t] = 0, 1
        a = state[tuple(i0)].copy()
        state[tuple(i0)] = state[tuple(i1)]
        state[tuple(i1)] = a
    elif gate.kind == "mcry":
        theta = gate.params[0]
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        t = gate.targets[0]
        i0, i1 = list(base), list(base)
        i0[t], i1[t] = 0, 1
        a = state[tuple(i0)].copy()
        b = state[tuple(i1)].copy()
        state[tuple(i0)] = c * a - s * b
        state[tuple(i1)] = s * a + c * b
    elif gate.kind == "mcrz":
        phi = gate.params[0]
        t = gate.targets[0]
        i0, i1 = list(base), list(base)
        i0[t], i1[t] = 0, 1
        state[tuple(i0)] *= np.exp(-0.5j * phi)
        state[tuple(i1)] *= np.exp(0.5j * phi)
    elif gate.kind == "mcphase":
        phi = gate.params[0]
        t = gate.targets[0]
        i1 = list(base)
        i1[t] = 1
        state[tuple(i1)] *= np.exp(1j * phi)
    elif gate.kind == "crbs":
        theta, phi = gate.params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        ep, em = np.exp(0.5j * phi), np.exp(-0.5j * phi)
        t1, t2 = gate.targets
        i10, i01 = list(base), list(base)
        i10[t1], i10[t2] = 1, 0
        i01[t1], i01[t2] = 0, 1
        a = state[tuple(i10)].copy()
        b = state[tuple(i01)].copy()
        state[tuple(i10)] = ep * c * a - ep * s * b
        state[tuple(i01)] = em * s * a + em * c * b
    else:  # pragma: no cover - rejected at Gate construction
        raise ValueError(f"unknown gate kind {gate.kind!r}")


@dataclass
class SimulationResult:
    state: StateVector          # over system + ancilla wires
    n_system: int
    n_ancilla: int
    norm: float
    elapsed: float
    fidelity: float | None = None
    purity: float | None = None


def simulate(circuit: Circuit, initial=None, target: StateVector | None = None) -> SimulationResult:
    """Run ``circuit`` on ``initial`` (default |0...0>), returning diagnostics.

    ``initial`` may be a StateVector over the system wires (ancillas are
    initialized to |0>), a StateVector over all wires, or a bitstring.
    When ``target`` (system wires) is given, phase-insensitive fidelity and the
    system-register purity are filled in.
    """
    n = circuit.n_wires
    if initial is None:
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[0] = 1.0
    elif isinstance(initial, str):
        amps = StateVector.basis(circuit.n_system, initial).amplitudes
        amps = _embed(amps, circuit.n_ancilla)
    elif isinstance(initial, StateVector):
        if initial.n == n:
            amps = initial.amplitudes.copy()
        elif initial.n == circuit.n_system:
            amps = _embed(initial.amplitudes, circuit.n_ancilla)
        else:
            raise ValueError(f"initial state has {initial.n} wires, circuit has "
                             f"{circuit.n_system}+{circuit.n_ancilla}")
    else:
        raise TypeError("initial must be None, a bitstring, or a StateVector")

    start = time.perf_counter()
    tensor = amps.reshape([2] * n)
    for gate in circuit.gates:
        _apply_gate(tensor, gate, n)
    elapsed = time.perf_counter() - start

    final = StateVector(n, tensor.reshape(-1), check=False)
    result = SimulationResult(state=final, n_system=circuit.n_system,
                              n_ancilla=circuit.n_ancilla, norm=final.norm(),
                              elapsed=elapsed)
    if target is not None:
        result.fidelity = fidelity(final, target, n_system=circuit.n_system)
        result.purity = system_purity(final, circuit.n_system)
    return result


def _embed(system_amps: np.ndarray, n_ancilla: int) -> np.ndarray:
    if n_ancilla == 0:
        return system_amps.copy()
    anc = np.zeros(1 << n_ancilla, dtype=np.complex128)
    anc[0] = 1.0
    return np.kron(system_amps, anc)


def fidelity(a: StateVector, b: StateVector, n_system: int | None = None) -> float:
    """|<a|b>|^2 for equal sizes; reduced-state fidelity when ``a`` has ancillas.

    With ancillas, returns <b| rho_sys |b> where rho_sys traces the ancilla
    block out of |a><a|.  Global phase never matters.
    """
    if a.n == b.n:
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if a.n < b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} qubits")
    ns = b.n if n_system is None else n_system
    if ns != b.n:
        raise ValueError("target must live on the system wires")
    m = a.amplitudes.reshape(1 << ns, 1 << (a.n - ns))
    overlaps = b.amplitudes.conj() @ m
    return float(np.sum(np.abs(overlaps) ** 2))


def system_purity(state: StateVector, n_system: int) -> float:
    """Tr(rho^2) of the reduced system state; 1 means no residual entanglement."""
    if n_system == state.n:
        return 1.0
    m = state.amplitudes.reshape(1 << n_system, 1 << (state.n - n_system))
    gram = m.conj().T @ m
    return float(np.sum(np.abs(gram) ** 2).real)
