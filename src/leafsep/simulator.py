"""Statevector execution of the gate IR plus fidelity/purity diagnostics.

:func:`simulate` has two engines and picks between them from what it observes:
the circuit's wire count, the amplitudes its remaining gates would update on
the dense state and the size of the state's support.

The support engine (:class:`_Support`) holds only the basis states the run has
reached: their indices in wire order and their amplitudes, in arrays grown with
amortised capacity.  Each gate selects the entries matching its controls with
one mask test over the support.  ``x``/``cx``/``mcx`` XOR the matched indices in
place, ``mcrz``/``mcphase`` multiply the matched amplitudes, and the mixing gates
(``mcry``, ``crbs``) pair each matched entry with its partner (the index with the
target bits flipped) by one sort of the matched entries; a partner the support
lacks is appended with amplitude 0.  A weight-ell target on n qubits lives on
C(n, ell) of 2^n amplitudes, and every gate after the input stage preserves the
Hamming weight or toggles an ancilla that is a function of the system bits, so
the support of a compiled circuit's run stays that small.

The dense engine holds all 2^n amplitudes as a [2]*n tensor.  Multi-controlled
gates are applied natively: the tensor is sliced at the control wires
(selecting the matching polarity) and the 2x2 (or pair) update is applied to the
target axes of that slice only.  Both engines take the gate arithmetic from
:func:`_mixed` and :func:`_diagonal`.

A run starts on the support and stays there while a cost model says the rest
of the run is cheaper there; from the first step it says otherwise, the run is
dense.  Costs are in dense amplitude updates (about 5 ns each on one core of a
Xeon host): a dense step updates the 2^(wires - controls) amplitudes its
controls select; a support step costs ``SUPPORT_STEP_COST`` more, plus
``SUPPORT_ENTRY_COST`` for each entry it matches, taken as the support's share
of what the step updates dense (a share that never falls during a run); and
the move to the dense state costs ``DENSIFY_COST`` per amplitude of 2^wires.
Fitted per step on compiled 16- to 20-wire circuits: a mixing step costs about
60 us plus 60 ns a matched entry on the support, against 10 to 30 us plus
4.7 ns an amplitude dense, and the move 10 to 30 ns an amplitude.  The share
alone does not decide: the narrowly controlled gates of a free-mode n = 18,
k = 9 circuit lose on the support at every share, while a 10 % to 20 % support
near the end of a 20-wire run is cheaper kept than moved.  The support holds
at most 2^wires entries of 24 bytes (16 an amplitude dense).  Circuits below
``SPARSE_MIN_WIRES`` wires run dense: there a dense gate costs 6 to 15 us, less
than the support engine's fixed cost per step.

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
The dense state starts in the plan's axis order and is permuted back once at
the end, so the returned state is in wire order: ancilla wires sit after the
system wires and are the least significant index bits, and a state on system
wires embeds as a Kronecker product with |0...0> on the ancillas.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .circuit import Circuit, Gate
from .core import StateVector, dense_size

# A run holds the state as its support only on circuits of at least this many wires.
SPARSE_MIN_WIRES = 16
# The support engine's costs, in dense amplitude updates: its extra fixed cost per
# step, its cost per matched entry, and the cost per amplitude of moving to dense.
SUPPORT_STEP_COST = 8000
SUPPORT_ENTRY_COST = 12
DENSIFY_COST = 4


def _mixed(gate: Gate) -> tuple:
    """Coefficients (a0, b0, a1, b1) of an ``mcry`` (``crbs``) on the amplitudes a of
    its target's |0> (|1_t1 0_t2>) and b of its |1> (|0_t1 1_t2>): after it they
    hold a0 a - b0 b and a1 a + b1 b.  Both engines write these out in that order,
    each output as soon as it is computed: building both before writing either
    made the dense path 5 % slower on 15-wire circuits."""
    if gate.kind == "mcry":
        theta = gate.params[0]
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return c, s, s, c
    theta, phi = gate.params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    ep, em = np.exp(0.5j * phi), np.exp(-0.5j * phi)
    return ep * c, ep * s, em * s, em * c


def _diagonal(gate: Gate) -> tuple[complex | None, complex]:
    """Factors of a diagonal gate on its target's |0> and |1> amplitudes; None leaves them."""
    phi = gate.params[0]
    if gate.kind == "mcrz":
        return np.exp(-0.5j * phi), np.exp(0.5j * phi)
    return None, np.exp(1j * phi)


def _controls_slicer(gate: Gate, axis: list[int]) -> list:
    idx: list = [slice(None)] * len(axis)
    for wire, pol in gate.controls:
        idx[axis[wire]] = 1 if pol == 1 else 0
    return idx


def _apply_gate(state: np.ndarray, gate: Gate, axis: list[int]) -> None:
    """In-place application of one gate to a [2]*n tensor whose axis ``axis[w]`` is wire w."""
    i0 = _controls_slicer(gate, axis)
    i1 = list(i0)
    t = axis[gate.targets[0]]
    i0[t], i1[t] = 0, 1
    if gate.kind == "crbs":
        u = axis[gate.targets[1]]
        i0[t], i0[u], i1[t], i1[u] = 1, 0, 0, 1
    s0, s1 = tuple(i0), tuple(i1)
    if gate.kind in ("x", "cx", "mcx"):
        a = state[s0].copy()
        state[s0] = state[s1]
        state[s1] = a
    elif gate.kind in ("mcry", "crbs"):
        a0, b0, a1, b1 = _mixed(gate)
        a, b = state[s0].copy(), state[s1].copy()
        state[s0] = a0 * a - b0 * b
        state[s1] = a1 * a + b1 * b
    else:
        f0, f1 = _diagonal(gate)
        if f0 is not None:
            state[s0] *= f0
        state[s1] *= f1


def _plan(circuit: Circuit) -> tuple[list[int], list, list[int]]:
    """Axis order (wires, most significant axis first), steps and the amplitudes
    each step updates on the dense state, in one pass.

    A step is a gate, or a list of consecutive ``mcphase`` gates controlled on
    every other wire: the residual distribution phases of a free-mode circuit.
    Those touch one amplitude each, so they add no load.
    """
    n = circuit.n_wires
    load = [0] * n
    steps: list = []
    work: list[int] = []
    for gate in circuit.gates:
        if gate.kind == "mcphase" and len(gate.controls) == n - 1:
            if steps and isinstance(steps[-1], list):
                steps[-1].append(gate)
                work[-1] += 1
            else:
                steps.append([gate])
                work.append(1)
            continue
        touched = 1 << (n - len(gate.controls))
        for wire, _ in gate.controls:
            load[wire] += touched
        for wire in gate.targets:
            load[wire] += touched
        steps.append(gate)
        work.append(touched)
    return sorted(range(n), key=lambda w: -load[w]), steps, work


def _phase_run(run: list[Gate], bit: list[int]) -> tuple[list[int], list[complex]]:
    """The amplitude each single-amplitude phase of ``run`` multiplies, and its factor;
    ``bit[w]`` is wire w's index bit."""
    index = [bit[g.targets[0]] + sum(bit[w] for w, pol in g.controls if pol == 1)
             for g in run]
    return index, [_diagonal(g)[1] for g in run]


def _lookup(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each of ``queries`` in the sorted, non-empty ``keys``, and if it is there."""
    pos = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return pos, keys[pos] == queries


def _support_pays(n: int, size: int, steps_left: int, work_left: int) -> bool:
    """Whether the rest of a run on ``n`` wires is cheaper on a support of ``size``
    entries than dense, by the cost model of the module docstring; the remaining
    steps update ``work_left`` amplitudes of the dense state."""
    if n < SPARSE_MIN_WIRES:
        return False
    dense = 1 << n
    return (steps_left * SUPPORT_STEP_COST * dense + SUPPORT_ENTRY_COST * size * work_left
            <= (work_left + DENSIFY_COST * dense) * dense)


class _Support:
    """A state on ``n`` wires held as its support: distinct wire-order basis indices
    and their amplitudes, in the first ``size`` entries of arrays with spare capacity."""

    def __init__(self, n: int, indices: np.ndarray, amplitudes: np.ndarray):
        self.bit = [1 << (n - 1 - w) for w in range(n)]
        self.idx = indices.astype(np.uint64)
        self.amp = amplitudes.astype(np.complex128)
        self.size = len(indices)

    def apply(self, step) -> None:
        """Run one plan step."""
        idx = self.idx[:self.size]
        if isinstance(step, list):
            index, factors = _phase_run(step, self.bit)
            order = np.argsort(idx)
            pos, hit = _lookup(idx[order], np.array(index, dtype=np.uint64))
            np.multiply.at(self.amp, order[pos[hit]], np.array(factors)[hit])
            return
        gate = step
        mask = sum(self.bit[w] for w, _ in gate.controls)
        value = sum(self.bit[w] for w, pol in gate.controls if pol == 1)
        sel = np.flatnonzero((idx & np.uint64(mask)) == np.uint64(value))
        target = np.uint64(self.bit[gate.targets[0]])
        if gate.kind in ("x", "cx", "mcx"):
            self.idx[sel] ^= target
        elif gate.kind in ("mcrz", "mcphase"):
            f0, f1 = _diagonal(gate)
            on = (idx[sel] & target) != 0
            if f0 is not None:
                self.amp[sel[~on]] *= f0
            self.amp[sel[on]] *= f1
        else:
            self._mix(gate, sel)

    def _mix(self, gate: Gate, sel: np.ndarray) -> None:
        """Apply a mixing gate to the entries ``sel`` that match its controls."""
        t = self.bit[gate.targets[0]]
        first, second = (0, t) if gate.kind == "mcry" else (t, self.bit[gate.targets[1]])
        first, second = np.uint64(first), np.uint64(second)
        flip = first ^ second
        if gate.kind == "crbs":  # |00> and |11> stay as they are
            pattern = self.idx[sel] & flip
            sel = sel[(pattern == first) | (pattern == second)]
        if len(sel) == 0:
            return
        keys = self.idx[sel]
        order = np.argsort(keys)
        keys, sel = keys[order], sel[order]
        pos, found = _lookup(keys, keys ^ flip)
        missing = np.flatnonzero(~found)
        mates = np.empty_like(sel)
        mates[found] = sel[pos[found]]
        mates[missing] = self._append(keys[missing] ^ flip)
        is_first = (keys & flip) == first
        pair = is_first | ~found  # each pair once: at its first half, or at its only entry
        i0 = np.where(is_first, sel, mates)[pair]
        i1 = np.where(is_first, mates, sel)[pair]
        a0, b0, a1, b1 = _mixed(gate)
        a, b = self.amp[i0], self.amp[i1]
        self.amp[i0] = a0 * a - b0 * b
        self.amp[i1] = a1 * a + b1 * b

    def _append(self, indices: np.ndarray) -> np.ndarray:
        """Append ``indices`` with amplitude 0, growing the arrays by doubling up to
        2^n entries, and return their positions."""
        end = self.size + len(indices)
        if end > len(self.idx):
            cap = min(max(end, 2 * len(self.idx)), 1 << len(self.bit))
            self.idx = np.concatenate((self.idx[:self.size], np.empty(cap - self.size, np.uint64)))
            self.amp = np.concatenate((self.amp[:self.size], np.empty(cap - self.size, complex)))
        self.idx[self.size:end] = indices
        self.amp[self.size:end] = 0.0
        self.size = end
        return np.arange(end - len(indices), end)


@dataclass
class SimulationResult:
    state: StateVector          # over system + ancilla wires
    n_system: int
    n_ancilla: int
    norm: float
    elapsed: float
    fidelity: float | None = None
    purity: float | None = None
    peak_support: int = 0       # most amplitudes held at once: 2^wires once the run is dense
    first_dense_gate: int = 0   # gates run on the support before the dense engine took over


def simulate(circuit: Circuit, initial=None, target: StateVector | None = None) -> SimulationResult:
    """Run ``circuit`` on ``initial`` (default |0...0>), returning diagnostics.

    ``initial`` may be a StateVector over the system wires (ancillas are
    initialized to |0>), a StateVector over all wires, or a bitstring.
    When ``target`` (system wires) is given, phase-insensitive fidelity and the
    system-register purity are filled in.  ``elapsed`` covers planning, the
    gates on either engine, the move from the support to the dense state and
    both permutations of the dense state, but not fidelity or purity.
    ``first_dense_gate`` is 0 when the whole run was dense and the gate count
    when none of it was.
    """
    n = circuit.n_wires
    dense_size(n)  # too many wires fail here, before anything is allocated
    start = time.perf_counter()
    amplitudes, peak, first_dense = _run(circuit, initial, partial(_support_pays, n))
    final = StateVector(n, amplitudes, check=False)
    elapsed = time.perf_counter() - start
    result = SimulationResult(state=final, n_system=circuit.n_system,
                              n_ancilla=circuit.n_ancilla, norm=final.norm(),
                              elapsed=elapsed, peak_support=peak,
                              first_dense_gate=first_dense)
    if target is not None:
        result.fidelity = fidelity(final, target, n_system=circuit.n_system)
        result.purity = system_purity(final, circuit.n_system)
    return result


def _run(circuit: Circuit, initial, stay) -> tuple[np.ndarray, int, int]:
    """Plan and run ``circuit`` on ``initial``: on the support while
    ``stay(size, steps_left, work_left)`` holds before each step, then dense in the
    plan's layout.

    Returns the final amplitudes in wire order, the peak support and the index
    of the first gate run dense (the gate count when none was).  Only this frame
    holds the planned-layout state, so it is freed on return and no wire-order
    buffer of the input outlives the first permutation.
    """
    n = circuit.n_wires
    order, steps, work = _plan(circuit)
    work_left = sum(work)
    wires = None if initial is None else _initial_amplitudes(circuit, initial)
    indices = np.zeros(1, dtype=np.int64) if wires is None else np.flatnonzero(wires)
    done = first_dense = 0
    if steps and stay(len(indices), len(steps), work_left):
        support = _Support(n, indices, np.ones(1) if wires is None else wires[indices])
        # Allocated before the run, as the dense path allocates its state: allocated
        # after it, above the run's freed temporaries on the heap, it raised the
        # benchmark's peak RSS by 1 MB on narrow-leaves and 4 MB on wide-leaves-ancilla.
        wires = np.zeros(1 << n, dtype=np.complex128)
        while done < len(steps) and stay(support.size, len(steps) - done, work_left):
            support.apply(steps[done])
            work_left -= work[done]
            done += 1
        first_dense = sum(len(s) if isinstance(s, list) else 1 for s in steps[:done])
        wires[support.idx[:support.size]] = support.amp[:support.size]
        if done == len(steps):
            return wires, support.size, first_dense
        del support
    del indices
    if wires is None:
        state = np.zeros([2] * n, dtype=np.complex128)
        state[(0,) * n] = 1.0
    else:
        state = wires.reshape([2] * n).transpose(order).copy()
        del wires
    axis = [0] * n
    for a, wire in enumerate(order):
        axis[wire] = a
    bit = [1 << (n - 1 - a) for a in axis]
    for step in steps[done:]:
        if isinstance(step, list):
            np.multiply.at(state.reshape(-1), *_phase_run(step, bit))
        else:
            _apply_gate(state, step, axis)
    return state.transpose(axis).reshape(-1), 1 << n, first_dense


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
    rows = max(1, (1 << 16) >> (state.n - n_system))  # blocks of 2^16: m is never copied whole
    gram = sum(m[i:i + rows].conj().T @ m[i:i + rows] for i in range(0, len(m), rows))
    return float(np.sum(np.abs(gram) ** 2).real)
