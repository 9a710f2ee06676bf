"""Dense statevector execution of the gate IR plus fidelity/purity diagnostics.

Multi-controlled gates are applied natively: the state tensor is sliced at the
control wires (selecting the matching polarity) and the 2x2 (or pair) update is
applied to the target axes of that slice only.

:func:`simulate` plans a circuit before it runs it.  The plan orders the
tensor's axes by decreasing wire load (the amplitudes its gates touch, summed
over the gates on that wire), so the wires the gates slice most, such as the
ancillas every encoder gate is controlled on, become the most significant axes
and the slices the gates update are long contiguous runs.  Runs of ``mcphase``
gates controlled on every other wire touch one amplitude each; the plan applies
each run as one indexed multiply instead of paying the per-gate slicing cost
once per amplitude.  The residual distribution phases of a free-mode circuit
(the part not additive over leaves, which only non-separable targets such as
dense fixed-weight ones need) are such a run; in ancilla mode they leave the
ancillas out and are applied gate by gate.
The state starts in the plan's axis order and is permuted back once at the end,
so the returned state is in wire order: ancilla wires sit after the system
wires and are the least significant index bits, and a state on system wires
embeds as a Kronecker product with |0...0> on the ancillas.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate
from .core import StateVector, dense_size


def _controls_slicer(gate: Gate, axis: list[int]) -> list:
    idx: list = [slice(None)] * len(axis)
    for wire, pol in gate.controls:
        idx[axis[wire]] = 1 if pol == 1 else 0
    return idx


def _apply_gate(state: np.ndarray, gate: Gate, axis: list[int]) -> None:
    """In-place application of one gate to a [2]*n tensor whose axis ``axis[w]`` is wire w."""
    base = _controls_slicer(gate, axis)
    if gate.kind in ("x", "cx", "mcx"):
        t = axis[gate.targets[0]]
        i0, i1 = list(base), list(base)
        i0[t], i1[t] = 0, 1
        a = state[tuple(i0)].copy()
        state[tuple(i0)] = state[tuple(i1)]
        state[tuple(i1)] = a
    elif gate.kind == "mcry":
        theta = gate.params[0]
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        t = axis[gate.targets[0]]
        i0, i1 = list(base), list(base)
        i0[t], i1[t] = 0, 1
        a = state[tuple(i0)].copy()
        b = state[tuple(i1)].copy()
        state[tuple(i0)] = c * a - s * b
        state[tuple(i1)] = s * a + c * b
    elif gate.kind == "mcrz":
        phi = gate.params[0]
        t = axis[gate.targets[0]]
        i0, i1 = list(base), list(base)
        i0[t], i1[t] = 0, 1
        state[tuple(i0)] *= np.exp(-0.5j * phi)
        state[tuple(i1)] *= np.exp(0.5j * phi)
    elif gate.kind == "mcphase":
        phi = gate.params[0]
        t = axis[gate.targets[0]]
        i1 = list(base)
        i1[t] = 1
        state[tuple(i1)] *= np.exp(1j * phi)
    elif gate.kind == "crbs":
        theta, phi = gate.params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        ep, em = np.exp(0.5j * phi), np.exp(-0.5j * phi)
        t1, t2 = axis[gate.targets[0]], axis[gate.targets[1]]
        i10, i01 = list(base), list(base)
        i10[t1], i10[t2] = 1, 0
        i01[t1], i01[t2] = 0, 1
        a = state[tuple(i10)].copy()
        b = state[tuple(i01)].copy()
        state[tuple(i10)] = ep * c * a - ep * s * b
        state[tuple(i01)] = em * s * a + em * c * b
    else:  # pragma: no cover - rejected at Gate construction
        raise ValueError(f"unknown gate kind {gate.kind!r}")


def _plan(circuit: Circuit) -> tuple[list[int], list]:
    """Axis order (wires, most significant axis first) and steps, in one pass.

    A step is a gate, or a list of consecutive ``mcphase`` gates controlled on
    every other wire: the residual distribution phases of a free-mode circuit.
    Those touch one amplitude each, so they add no load.
    """
    n = circuit.n_wires
    load = [0] * n
    steps: list = []
    for gate in circuit.gates:
        if gate.kind == "mcphase" and len(gate.controls) == n - 1:
            if steps and isinstance(steps[-1], list):
                steps[-1].append(gate)
            else:
                steps.append([gate])
            continue
        touched = 1 << (n - len(gate.controls))
        for wire, _ in gate.controls:
            load[wire] += touched
        for wire in gate.targets:
            load[wire] += touched
        steps.append(gate)
    return sorted(range(n), key=lambda w: -load[w]), steps


def _apply_phases(flat: np.ndarray, run: list[Gate], bit: list[int]) -> None:
    """One run of single-amplitude phases; ``bit[w]`` is wire w's index bit."""
    index = [bit[g.targets[0]] + sum(bit[w] for w, pol in g.controls if pol == 1)
             for g in run]
    np.multiply.at(flat, index, [np.exp(1j * g.params[0]) for g in run])


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
    system-register purity are filled in.  ``elapsed`` covers planning, the
    gates and both permutations.
    """
    n = circuit.n_wires
    dense_size(n)  # too many wires fail here, before anything is allocated
    start = time.perf_counter()
    final = StateVector(n, _run(circuit, initial), check=False)
    elapsed = time.perf_counter() - start
    result = SimulationResult(state=final, n_system=circuit.n_system,
                              n_ancilla=circuit.n_ancilla, norm=final.norm(),
                              elapsed=elapsed)
    if target is not None:
        result.fidelity = fidelity(final, target, n_system=circuit.n_system)
        result.purity = system_purity(final, circuit.n_system)
    return result


def _run(circuit: Circuit, initial) -> np.ndarray:
    """Plan, permute ``initial`` into the plan's layout, apply every step and
    return the final amplitudes in wire order.

    Only this frame holds the planned-layout state, so it is freed on return
    and no wire-order buffer of the input outlives the first permutation.
    """
    n = circuit.n_wires
    order, steps = _plan(circuit)
    if initial is None:
        state = np.zeros([2] * n, dtype=np.complex128)
        state[(0,) * n] = 1.0
    else:
        state = _initial_amplitudes(circuit, initial).reshape([2] * n).transpose(order).copy()
    axis = [0] * n
    for a, wire in enumerate(order):
        axis[wire] = a
    bit = [1 << (n - 1 - a) for a in axis]
    for step in steps:
        if isinstance(step, list):
            _apply_phases(state.reshape(-1), step, bit)
        else:
            _apply_gate(state, step, axis)
    return state.transpose(axis).reshape(-1)


def _initial_amplitudes(circuit: Circuit, initial) -> np.ndarray:
    """Wire-order amplitudes over all wires for a given ``initial``; may share its buffer."""
    if isinstance(initial, str):
        return _embed(StateVector.basis(circuit.n_system, initial).amplitudes,
                      circuit.n_ancilla)
    if isinstance(initial, StateVector):
        if initial.n == circuit.n_wires:
            return initial.amplitudes
        if initial.n == circuit.n_system:
            return _embed(initial.amplitudes, circuit.n_ancilla)
        raise ValueError(f"initial state has {initial.n} wires, circuit has "
                         f"{circuit.n_system}+{circuit.n_ancilla}")
    raise TypeError("initial must be None, a bitstring, or a StateVector")


def _embed(system_amps: np.ndarray, n_ancilla: int) -> np.ndarray:
    if n_ancilla == 0:
        return system_amps
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
