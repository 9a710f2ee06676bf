"""Statevector execution of the gate IR plus fidelity/purity diagnostics.

:func:`simulate` has two engines and picks between them from what it observes:
the circuit's wire count and the size of the state's support.

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

A multiplexor (``ucry``/``ucrz``, such as the general-state baseline's) is one
step on either engine, and its controls slice nothing: dense, the target axis
turns by each pattern's angle, an array broadcast over the control axes
(:func:`_rotate`); on the support, each entry by the angle of its own pattern.
A leaf encoder's chain (``hwk``/``hwkz``) of at least ``circuit.SCAN_MIN_PATTERNS``
patterns, each step of which lowers to a gate, is one step as well.  Dense and in
blocks, where the rows it reads are empty but the packed one, as in every compiled
chain, it runs as one Givens scan in closed form over its C(s, w) weight-w rows
(:func:`_scan`), which rounds differently from its lowered gates by about 1e-16 in
amplitude and leaves the same support.  On any other input, and for other chains
and chains on the support outside blocks, the crbs steps and trailing mcphase of
its lowering run, bit for bit as ``lower`` of it does.  Axis order, blocks and gate
counters are the lowered circuit's, a one-step chain's read from its shape's
``circuit._chain_summary``.  The engines read every other gate as a tuple.

A run starts on the support and stays there while the support holds at most a
quarter of the 2^wires amplitudes; from the first step at which it holds more,
the run is dense.  A weight-ell target's C(n, ell) basis states are at most
0.196 of 2^n from 16 qubits up, so a compiled run of one weight stays on the
support, whose arrays (24 bytes an entry) stay smaller than the dense state (16
bytes an amplitude); a mixed-weight run moves to dense once its support passes
the quarter.  Circuits below ``SPARSE_MIN_WIRES`` wires run dense (see there).

On the support, a run of consecutive gates on at most ``BLOCK_MAX_WIRES`` wires,
such as a leaf's Hamming-weight encoder on its k qubits and its ancilla, may
run as one block step (:meth:`_Support.block`), which is gate fusion
(qsim: Isakov et al., arXiv:2111.02396) on the support.  Each entry's index
splits into its bits on the block's m wires (its local input) and the rest.
The gates run once, on the dense kernel, on a [2]*m + [D] tensor whose D
columns are the distinct local inputs present, and each entry becomes one entry
per local output its column reaches, at the product of the two amplitudes;
entries that meet at one index are summed.  Each gate of a leaf encoder then
costs a slice of a 2^m x D tensor instead of a mask test and a sort on the
support.  Costs are in dense amplitude updates, about 5 ns each on one core of a
Xeon host.  A block step costs ``BLOCK_STEP_COST``, plus its dense work on D
columns (2^m to fill and read a column, plus 2^(m - controls) a gate), plus
``SUPPORT_ENTRY_COST`` per support entry.  Its gates one by one cost
``SUPPORT_STEP_COST`` each, plus ``SUPPORT_ENTRY_COST`` per entry they match,
taken as size x 2^-controls.  The block runs only where it is the cheaper of
the two; a chain counts there as its lowering's gates, though a block scans it.
``BLOCK_STEP_COST`` was chosen from per-block timings of 26 compiled
16- to 20-wire circuits (444 blocks, seeds 4 and 90210, best of 5, one core of
the same 2-core Xeon host): a block step took about 80 us plus 12 us a gate and
50 ns an entry, and the rule's choices took 4 % longer than the faster choice of
every block, against 66 % longer for no blocks.  The width fits a leaf of 9
qubits and its ancilla.  A 10-qubit leaf's encoder on 11 wires splits over
blocks with hundreds of columns and gains nothing; at a width of 12 it gains
3x, but blocks grown greedily over adjacent small leaves get so many columns
that whole runs of 16- to 20-wire free-mode circuits slowed by up to 1.5x.  A
circuit that runs dense never plans blocks.

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
the end.  Either engine returns the state's support in wire order: ancilla wires
sit after the system wires as the low index bits, so a state on the system wires
embeds with |0...0> on the ancillas by a shift of its indices.

Fidelity and purity come from one pass over the output (:func:`_diagnostics`),
read as a matrix with a row per system index present and a column per ancilla
pattern present.  A compiled ancilla-mode run from |0...0> ends with its
ancillas in one pattern: the fidelity is then one read of the target at the
system indices and the purity the squared norm, squared, with no sort and no
search over the support.  With several patterns the support is read in blocks
of about ``DIAGNOSTIC_BLOCK`` entries cut at whole rows, so a large dense-run
output is never copied whole.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .circuit import (_CHAINS, _MULTIPLEXORS, _X_FAMILY, ANGLE_TOL, ChainSummary, Circuit, Gate,
                      _chain_shape, _chain_steps, _chain_summary)
from .combinatorics import ehrlich_patterns
from .core import StateVector, dense_size, find_sorted

# A run holds the state as its support only on circuits of at least this many wires.
# Below it a compiled circuit's dense gates cost less than a support step's fixed cost:
# with no floor, the share limit keeps 15-wire circuits on the support, and mixed-weight
# k = 3 and free-mode k = 1 and 3 ones ran 14-38 % slower; only ancilla mode at n = 10,
# k = 2 and n = 11, k = 3 ran faster (2.2x and 8 %).
SPARSE_MIN_WIRES = 16
# The support engine's costs, in dense amplitude updates, which price a block against
# its gates one by one: its extra fixed cost per step and its cost per matched entry
# (fitted per step on compiled 16- to 20-wire circuits: a mixing step took about 60 us
# plus 60 ns a matched entry).
SUPPORT_STEP_COST = 8000
SUPPORT_ENTRY_COST = 12
# A block of consecutive gates on the support spans at most this many wires; its
# fixed cost as one support step, in the same units.
BLOCK_MAX_WIRES = 10
BLOCK_STEP_COST = 16000
# Fidelity and purity read the support in blocks of about this many entries.
DIAGNOSTIC_BLOCK = 1 << 16


def _mixed(kind: str, params: tuple) -> tuple:
    """Coefficients (a0, b0, a1, b1) of an ``mcry`` (``crbs``) on the amplitudes a of
    its target's |0> (|1_t1 0_t2>) and b of its |1> (|0_t1 1_t2>): after it they
    hold a0 a - b0 b and a1 a + b1 b.  Both engines write these out in that order,
    each output as soon as it is computed: building both before writing either
    made the dense path 5 % slower on 15-wire circuits."""
    if kind == "mcry":
        theta = params[0]
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return c, s, s, c
    theta, phi = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    ep, em = np.exp(0.5j * phi), np.exp(-0.5j * phi)
    return ep * c, ep * s, em * s, em * c


def _diagonal(kind: str, params: tuple) -> tuple[complex | None, complex]:
    """Factors of a diagonal gate on its target's |0> and |1> amplitudes; None leaves them."""
    phi = params[0]
    if kind == "mcrz":
        return np.exp(-0.5j * phi), np.exp(0.5j * phi)
    return None, np.exp(1j * phi)


def _apply_gate(state: np.ndarray, step, axis) -> None:
    """In-place application of one gate, given as (kind, targets, controls, params) or as
    a chain's :class:`Gate` (:func:`_scan`), to a tensor whose axis ``axis[w]``, of length
    2, is wire w; its other axes are left alone."""
    if isinstance(step, Gate):
        _scan(state, step, axis)
        return
    kind, targets, controls, params = step
    t = axis[targets[0]]
    if kind in _MULTIPLEXORS:  # the angles on the control axes of the target's half
        c, dest = len(controls), [axis[w] - (axis[w] > t) for w, _ in controls]
        angle = np.array(params).reshape([2] * c + [1] * (state.ndim - 1 - c))
        _rotate(kind, np.moveaxis(angle, range(c), dest),
                state[(slice(None),) * t + (0, ...)], state[(slice(None),) * t + (1, ...)])
        return
    i0: list = [slice(None)] * state.ndim
    for wire, pol in controls:
        i0[axis[wire]] = 1 if pol == 1 else 0
    i1 = list(i0)
    i0[t], i1[t] = 0, 1
    if kind == "crbs":
        u = axis[targets[1]]
        i0[t], i0[u], i1[t], i1[u] = 1, 0, 0, 1
    s0, s1 = tuple(i0), tuple(i1)
    if kind in _X_FAMILY:
        a = state[s0].copy()
        state[s0] = state[s1]
        state[s1] = a
    elif kind in ("mcry", "crbs"):
        a0, b0, a1, b1 = _mixed(kind, params)
        a, b = state[s0].copy(), state[s1].copy()
        state[s0] = a0 * a - b0 * b
        state[s1] = a1 * a + b1 * b
    else:
        f0, f1 = _diagonal(kind, params)
        if f0 is not None:
            state[s0] *= f0
        state[s1] *= f1


def _scan(state: np.ndarray, g: Gate, axis) -> None:
    """Run a chain on a tensor as one Givens scan.  Where the listed controls match, a
    row per register pattern: step t mixes rows t and t + 1 of the weight-w rows in
    chain order, and an ``hwk`` step also rows of a higher weight.  When every row the
    chain reads is empty but the packed (first) one, as in every compiled chain, the
    weight-w rows become that row times :func:`_from_packed`, scattered in parts whose
    index arrays hold no more entries than the slice; else the lowered gates run."""
    size = len(g.targets)
    lead = [axis[w] for w in g.targets] + [axis[w] for w, _ in g.controls]
    view = state.transpose(lead + sorted(set(range(state.ndim)).difference(lead)))[
        (slice(None),) * size + tuple(1 if pol == 1 else 0 for _, pol in g.controls)]
    patterns = ehrlich_patterns(size, g.weight)
    packed = view[np.unravel_index(patterns[0], (2,) * size)].copy()
    starts = range(0, len(patterns), max(view.size // size, 1))
    if g.kind == "hwk":  # it reads the rows of weight w and up: those held, by a reduction
        held = np.flatnonzero(np.any(view, axis=tuple(range(size, view.ndim))))
        mixed = np.any(np.bitwise_count(held[held != patterns[0]]) >= g.weight)
    else:  # it reads the weight-w rows, gathered
        mixed = np.count_nonzero(packed) < sum(np.count_nonzero(view[np.unravel_index(
            patterns[lo:lo + starts.step], (2,) * size)]) for lo in starts)
    if mixed:
        _apply_lowered(state, g, axis)
        return
    factor = _from_packed(g)
    for lo in starts:
        at = np.unravel_index(patterns[lo:lo + starts.step], (2,) * size)
        view[at] = np.multiply.outer(factor[lo:lo + starts.step], packed)


def _from_packed(g: Gate) -> np.ndarray:
    """Each weight-w row a chain leaves from its first row alone, as a multiple of it:
    the product of the a1 (:func:`_mixed`) of the steps before it times its own step's
    a0 or, at the last row, the trailing phase."""
    p = np.array(g.params)
    theta, turn = p[0:-1:2], np.exp(0.5j * p[1:-1:2])
    a0, a1 = turn * np.cos(theta / 2), turn.conj() * np.sin(theta / 2)
    factor = np.ones(len(a0) + 1, dtype=np.complex128)
    np.cumprod(a1, out=factor[1:])
    factor[:-1] *= a0
    if abs(p[-1]) > ANGLE_TOL:
        factor[-1] *= np.exp(1j * p[-1])
    return factor


def _apply_lowered(state: np.ndarray, g: Gate, axis) -> None:
    """Run a chain's lowered gates one by one."""
    for step in _chain_steps(g):
        _apply_gate(state, step, axis)


def _rotate(kind: str, angle: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Turn the target's |0> amplitudes ``a`` and |1> amplitudes ``b`` in place by RY
    (``ucry``) or RZ (``ucrz``) of ``angle``, which broadcasts against them and is
    overwritten; beyond them it holds two arrays like ``angle`` and two like ``a.real``."""
    angle /= 2
    c, s = np.cos(angle), np.sin(angle, out=angle)
    # part by part, each pair (x, y) turned to (c x - s y, s x + c y): a complex operand
    # would cast c and s whole, half a tensor each.  RY (_mixed's coefficients) turns
    # the real and the imaginary parts of (a, b); RZ (_diagonal's factors, e^{-+i angle/2})
    # turns (a.imag, a.real) and (b.real, b.imag)
    pairs = ((a.real, b.real), (a.imag, b.imag)) if kind == "ucry" else \
        ((a.imag, a.real), (b.real, b.imag))
    for x, y in pairs:
        kept = x.copy()
        x *= c
        x -= s * y
        y *= c
        kept *= s
        y += kept


def _plan(circuit: Circuit, width: int = 0) -> tuple[list[int], list, dict, int]:
    """Axis order (wires, most significant axis first), steps, blocks (with a ``width``)
    and the count of simulated gates, in one pass.

    A step is a gate as the engines read it, (kind, targets, controls, params), of the
    circuit or of a chain's lowering; a list of consecutive ``mcphase`` steps
    controlled on every other wire (the residual distribution phases of a free-mode
    circuit); or a chain's :class:`Gate`.  A simulated gate is a gate of the lowered circuit,
    whose load and blocks these are: phases in a run touch one amplitude each, so they
    add no load; a multiplexor touches all.  Blocks are runs of at least two
    consecutive simulated gates on at most ``width`` wires, grown greedily and keyed by
    their first step.  A chain that :func:`circuit._chain_shape` keys is one step, loaded
    and blocked from its shape's summary in O(wires), where no block starts or ends inside
    it and its trailing phase joins no phase run (:func:`_whole`); else its lowered gates are.
    Tuples cost a third of the time of any object with named fields to build.
    """
    n = circuit.n_wires
    load = [0] * n
    steps: list = []
    blocks: dict = {}
    start, span, controls_of = 0, 0, []  # the open run (see _add_block)
    extra = 0  # simulated gates beyond one a step
    for g in circuit.gates:
        if g.kind not in _CHAINS:
            lowered = ((g.kind, g.targets, g.controls, g.params),)
        elif not (scan := _whole(g, n, span, width)):
            lowered = _chain_steps(g)
        else:
            for c, wires, counts in scan.loads:
                for wire, k in zip(wires, counts):
                    load[wire] += k << (n - c)
            if width:
                mask = _wires(g.targets, g.controls)
                if (span | mask).bit_count() > width:
                    _add_block(blocks, start, len(steps), span, controls_of)
                    start, span, controls_of = len(steps), 0, []
                span |= mask
                controls_of += scan.controls
            steps.append(g)
            extra += len(scan.controls) - 1
            continue
        for step in lowered:
            kind, targets, controls, _ = step
            if kind == "mcphase" and len(controls) == n - 1:
                if steps and isinstance(steps[-1], list):
                    steps[-1].append(step)
                    extra += 1
                else:
                    if width:  # no block holds a phase run
                        _add_block(blocks, start, len(steps), span, controls_of)
                        start, span, controls_of = len(steps) + 1, 0, []
                    steps.append([step])
                continue
            sliced = 0 if kind in _MULTIPLEXORS else len(controls)
            touched = 1 << (n - sliced)
            for wire, _ in controls:
                load[wire] += touched
            for wire in targets:
                load[wire] += touched
            if width:
                mask = 0
                for wire, _ in controls:
                    mask |= 1 << wire
                for wire in targets:
                    mask |= 1 << wire
                if (span | mask).bit_count() > width:
                    _add_block(blocks, start, len(steps), span, controls_of)
                    start, span, controls_of = len(steps), 0, []
                span |= mask
                controls_of.append(sliced)
            steps.append(step)
    if width:
        _add_block(blocks, start, len(steps), span, controls_of)
    return sorted(range(n), key=lambda w: -load[w]), steps, blocks, len(steps) + extra


def _wires(targets: tuple, controls: tuple) -> int:
    """A gate's wires, which are distinct, as a bit mask."""
    return sum(1 << wire for wire in targets) + sum(1 << wire for wire, _ in controls)


def _whole(gate, n: int, span: int, width: int) -> ChainSummary | None:
    """A chain's :func:`circuit._chain_summary` if it may be one plan step after a run on
    the wires ``span`` (:func:`_plan`): :func:`circuit._chain_shape` keys it, its phase
    joins no phase run and its gates fit in the run's ``width`` wires or all in a new one."""
    summary = (shape := _chain_shape(gate)) and _chain_summary(*shape)
    if summary and summary.controls[-1] < n - 1:  # else its phase would join a phase run
        mask = _wires(gate.targets, gate.controls)
        if not width or (span | mask).bit_count() <= width or (
                (span | _wires(*summary.first)).bit_count() > width >= mask.bit_count()):
            return summary
    return None


def _add_block(blocks: dict, start: int, stop: int, span: int, controls: list) -> None:
    """Key by ``start`` the run of steps ``start`` to ``stop`` on the wires ``span`` if
    it has two simulated gates or more, with ``controls`` each.  It gives the step after
    it, its m wires in ascending order, its simulated gates, their dense work on one
    column of 2^m amplitudes (2^m to fill and read it plus 2^(m - controls) a gate) and
    the sum of 2^-controls over them: the support entries they match, as a multiple of
    the support's size, by the cost model of the module."""
    if len(controls) > 1:
        block = [w for w in range(span.bit_length()) if span >> w & 1]
        m = len(block)
        blocks[start] = (stop, block, len(controls),
                         (1 << m) + sum([1 << (m - c) for c in controls]),
                         sum([2.0 ** -c for c in controls]))


def _block_pays(gates: int, work: int, reach: float, columns: int, size: int) -> bool:
    """Whether a block from :func:`_plan` is cheaper as one step on ``columns``
    columns than gate by gate, on a support of ``size`` entries, by the cost
    model of the module docstring."""
    return (BLOCK_STEP_COST + work * columns + SUPPORT_ENTRY_COST * size
            <= gates * SUPPORT_STEP_COST + SUPPORT_ENTRY_COST * reach * size)


def _phase_run(run: list[tuple], bit: list[int]) -> tuple[list[int], list[complex]]:
    """The amplitude each single-amplitude phase of ``run`` multiplies, and its factor;
    ``bit[w]`` is wire w's index bit."""
    index = [bit[targets[0]] + sum(bit[w] for w, pol in controls if pol == 1)
             for _, targets, controls, _ in run]
    return index, [_diagonal(kind, params)[1] for kind, _, _, params in run]


def _support_pays(n: int, size: int) -> bool:
    """Whether a run on ``n`` wires stays on a support of ``size`` entries: from
    ``SPARSE_MIN_WIRES`` wires up, while it holds at most a quarter of 2^n."""
    return n >= SPARSE_MIN_WIRES and size <= 1 << (n - 2)


class _Support:
    """A state on ``n`` wires held as its support: distinct wire-order basis indices
    and their amplitudes, in the first ``size`` entries of arrays that may have spare
    capacity.  It updates ``indices`` in place."""

    def __init__(self, n: int, indices: np.ndarray, amplitudes: np.ndarray):
        self.bit = [1 << (n - 1 - w) for w in range(n)]
        self.idx = indices
        self.amp = amplitudes.astype(np.complex128)
        self.size = len(indices)

    def apply(self, step) -> None:
        """Run one plan step."""
        idx = self.idx[:self.size]
        if isinstance(step, list):
            index, factors = _phase_run(step, self.bit)
            order = np.argsort(idx)
            pos, hit = find_sorted(idx[order], np.array(index))
            np.multiply.at(self.amp, order[pos[hit]], np.array(factors)[hit])
            return
        kind, targets, controls, params = step
        target = self.bit[targets[0]]
        if kind == "ucrz":
            angle = self._angles(controls, params, idx)
            self.amp[:self.size] *= np.exp(0.5j * np.where(idx & target, angle, -angle))
            return
        if kind in _MULTIPLEXORS:
            controls = ()
        mask = sum(self.bit[w] for w, _ in controls)
        value = sum(self.bit[w] for w, pol in controls if pol == 1)
        sel = np.flatnonzero((idx & mask) == value)
        if kind in _X_FAMILY:
            self.idx[sel] ^= target
        elif kind in ("mcrz", "mcphase"):
            f0, f1 = _diagonal(kind, params)
            on = (idx[sel] & target) != 0
            if f0 is not None:
                self.amp[sel[~on]] *= f0
            self.amp[sel[on]] *= f1
        else:
            self._mix(step, sel)

    def block(self, steps: list, wires: list[int], gates: int, work: int, reach: float,
              fuse) -> bool:
        """Run ``steps``, ``gates`` simulated gates acting on ``wires`` only, as one step
        if ``fuse(gates, work, reach, columns, size)`` agrees; return whether it did.

        Each entry's index splits into its bits on the m wires (its local input)
        and the rest.  The gates run once on a [2]*m + [D] tensor whose D columns
        are the distinct local inputs, and each entry becomes, for every local
        output its column reaches, the rest with that output, at the entry's
        amplitude times the column's.  Pairs that meet at one index are summed."""
        n, m = len(self.bit), len(wires)
        segments = []  # (global shift, local shift, mask) of each run of adjacent wires
        for j, w in enumerate(wires):
            if j and w == wires[j - 1] + 1:
                g, _, length = segments[-1]
                segments[-1] = (g - 1, m - 1 - j, length + 1)
            else:
                segments.append((n - 1 - w, m - 1 - j, 1))
        idx = self.idx[:self.size]
        local = np.zeros(self.size, np.intp)
        spread = np.zeros(1 << m, np.int64)  # index bits of each local value
        values = np.arange(1 << m)
        for g, lo, length in segments:
            mask = (1 << length) - 1
            local |= ((idx >> g) & mask) << lo
            spread |= ((values >> lo) & mask) << g
        present = np.bincount(local, minlength=1 << m) > 0
        inputs = np.flatnonzero(present)
        if not fuse(gates, work, reach, len(inputs), self.size):
            return False
        columns = np.zeros((1 << m, len(inputs)), dtype=np.complex128)
        columns[inputs, np.arange(len(inputs))] = 1.0
        tensor = columns.reshape([2] * m + [len(inputs)])
        axis = dict(zip(wires, range(m)))
        for step in steps:
            _apply_gate(tensor, step, axis)
        out = columns.T
        reached = out != 0
        counts = reached.sum(axis=1)
        outputs = np.flatnonzero(reached) & ((1 << m) - 1)  # column by column
        beta = out[reached]
        column = (np.cumsum(present) - 1)[local]
        repeat = counts[column]
        # the i-th pair of an entry reads the i-th output of the entry's column
        shift = (np.cumsum(counts) - counts)[column] - (np.cumsum(repeat) - repeat)
        pair = np.arange(repeat.sum()) + np.repeat(shift, repeat)
        rest = idx & (((1 << n) - 1) ^ int(spread[-1]))
        new_idx = np.repeat(rest, repeat) | spread[outputs[pair]]
        new_amp = np.repeat(self.amp[:self.size], repeat) * beta[pair]
        if (reached.sum(axis=0) > 1).any():  # two columns reach one output: sum what meets
            new_idx, where = np.unique(new_idx, return_inverse=True)
            new_amp = (np.bincount(where, new_amp.real, len(new_idx))
                       + 1j * np.bincount(where, new_amp.imag, len(new_idx)))
        self.idx, self.amp, self.size = new_idx, new_amp, len(new_idx)
        return True

    def _angles(self, controls: tuple, params: tuple, indices: np.ndarray) -> np.ndarray:
        """A multiplexor's angle at each of ``indices``, by the pattern read there."""
        pattern = np.zeros(len(indices), np.intp)
        for w, _ in controls:
            pattern <<= 1
            pattern |= (indices & self.bit[w]) != 0
        return np.array(params)[pattern]

    def _mix(self, step: tuple, sel: np.ndarray) -> None:
        """Apply a mixing gate to the entries ``sel`` that match its controls."""
        kind, targets, controls, params = step
        t = self.bit[targets[0]]
        first, second = (t, self.bit[targets[1]]) if kind == "crbs" else (0, t)
        flip = first ^ second
        if kind == "crbs":  # |00> and |11> stay as they are
            pattern = self.idx[sel] & flip
            sel = sel[(pattern == first) | (pattern == second)]
        if len(sel) == 0:
            return
        keys = self.idx[sel]
        order = np.argsort(keys)
        keys, sel = keys[order], sel[order]
        pos, found = find_sorted(keys, keys ^ flip)
        missing = np.flatnonzero(~found)
        mates = np.empty_like(sel)
        mates[found] = sel[pos[found]]
        mates[missing] = self._append(keys[missing] ^ flip)
        is_first = (keys & flip) == first
        pair = is_first | ~found  # each pair once: at its first half, or at its only entry
        i0 = np.where(is_first, sel, mates)[pair]
        i1 = np.where(is_first, mates, sel)[pair]
        a, b = self.amp[i0], self.amp[i1]
        if kind == "ucry":
            _rotate(kind, self._angles(controls, params, self.idx[i0]), a, b)
            self.amp[i0], self.amp[i1] = a, b
            return
        a0, b0, a1, b1 = _mixed(kind, params)
        self.amp[i0] = a0 * a - b0 * b
        self.amp[i1] = a1 * a + b1 * b

    def _append(self, indices: np.ndarray) -> np.ndarray:
        """Append ``indices`` with amplitude 0, growing the arrays by doubling up to
        2^n entries, and return their positions.  The spare capacity is kept because a wide
        leaf's encoder appends gate by gate; exact-size arrays ran it 1.6x slower (CHANGES.md)."""
        end = self.size + len(indices)
        if end > len(self.idx):
            cap = min(max(end, 2 * len(self.idx)), 1 << len(self.bit))
            self.idx = np.concatenate((self.idx[:self.size], np.empty(cap - self.size, np.int64)))
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
    # counted in simulated gates: the circuit's, with each chain as the gates of its lowering
    gates: int = 0              # simulated gates run
    first_dense_gate: int = 0   # simulated gates run on the support before the dense engine
    block_gates: int = 0        # simulated gates run on the support inside blocks


def simulate(circuit: Circuit, initial=None, target: StateVector | None = None) -> SimulationResult:
    """Run ``circuit`` on ``initial`` (default |0...0>), returning diagnostics.

    ``initial`` may be a StateVector over the system wires (ancillas are
    initialized to |0>) or over all wires.
    When ``target`` (system wires) is given, phase-insensitive fidelity and the
    system-register purity are filled in, both from one pass over the output
    (:func:`_diagnostics`).  ``elapsed`` covers planning, the
    gates on either engine, the move from the support to the dense state and
    both permutations of the dense state, but not fidelity or purity.
    ``gates``, ``first_dense_gate`` and ``block_gates`` count simulated gates: the
    circuit's, with each chain (``hwk``/``hwkz``) as the gates of its lowering and a
    multiplexor as one.  ``first_dense_gate`` is 0 when the whole run was dense and
    ``gates`` when none of it was.
    """
    dense_size(circuit.n_wires)  # too many wires fail here, before anything is allocated
    start = time.perf_counter()
    final, peak, first_dense, block_gates, gates = _run(
        circuit, initial, partial(_support_pays, circuit.n_wires), _block_pays)
    elapsed = time.perf_counter() - start
    result = SimulationResult(state=final, n_system=circuit.n_system,
                              n_ancilla=circuit.n_ancilla, norm=final.norm(),
                              elapsed=elapsed, peak_support=peak, gates=gates,
                              first_dense_gate=first_dense, block_gates=block_gates)
    if target is not None:
        result.fidelity, result.purity = _diagnostics(final, circuit.n_system, target)
    return result


def _run(circuit: Circuit, initial, stay, fuse=None,
         width: int = BLOCK_MAX_WIRES) -> tuple[StateVector, int, int, int, int]:
    """Plan and run ``circuit`` on ``initial``: on the support while ``stay(size)``
    holds before each step, then dense in the plan's layout.  On the support, runs
    of gates on at most ``width`` wires are blocks, each run as one step when
    ``fuse`` (see :meth:`_Support.block`) agrees; with no ``fuse`` every gate is a
    step of its own.

    Returns the final state, the peak support (taken between steps) and, counted in
    simulated gates (see :func:`simulate`), the index of the first gate run dense (the
    gate count when none was), the gates run in blocks and the gate count.
    """
    n = circuit.n_wires
    if initial is None:  # |0...0>
        indices, values = np.zeros(1, np.int64), np.ones(1, np.complex128)
    elif not isinstance(initial, StateVector):
        raise TypeError("initial must be None or a StateVector")
    elif initial.n not in (n, circuit.n_system):
        raise ValueError(f"initial state has {initial.n} wires, circuit has "
                         f"{circuit.n_system}+{circuit.n_ancilla}")
    else:  # ancillas: low bits, |0>
        indices, values = initial.indices << (n - initial.n), initial.values
    done = first_dense = block_gates = 0
    on_support = stay(len(indices))
    order, steps, blocks, gates = _plan(circuit, width if on_support and fuse is not None else 0)
    rest: list = []  # a chain's lowered gates still to run, when the run left the support
    if on_support:
        support = _Support(n, indices, values)
        peak = support.size
        while done < len(steps) and stay(support.size):
            step, block = steps[done], blocks.get(done)
            if block and support.block(steps[done:block[0]], *block[1:], fuse):
                done = block[0]
                block_gates += block[2]
                first_dense += block[2]
            elif isinstance(step, Gate):  # a chain, gate by gate, each a step of its own
                done += 1
                lowered = _chain_steps(step)
                for j, gate in enumerate(lowered):
                    if j and not stay(support.size):
                        rest = lowered[j:]
                        break
                    support.apply(gate)
                    first_dense += 1
                    peak = max(peak, support.size)
                if rest:
                    break
            else:
                done += 1
                support.apply(step)
                first_dense += len(step) if isinstance(step, list) else 1
            peak = max(peak, support.size)
        indices, values = support.idx[:support.size], support.amp[:support.size]
        if done == len(steps) and not rest:
            return (StateVector(n, indices, values, check=False), peak, first_dense,
                    block_gates, gates)
    if done == 0 and initial is None:  # |0...0> is index 0 in any axis order
        state = np.zeros([2] * n, dtype=np.complex128)
        state[(0,) * n] = 1.0
    else:
        state = np.zeros(1 << n, dtype=np.complex128)  # in wire order until the copy
        state[indices] = values
        del indices, values
        state = state.reshape([2] * n).transpose(order).copy()
    axis = [0] * n
    for a, wire in enumerate(order):
        axis[wire] = a
    bit = [1 << (n - 1 - a) for a in axis]
    for step in rest + steps[done:]:
        if isinstance(step, list):
            np.multiply.at(state.reshape(-1), *_phase_run(step, bit))
        else:
            _apply_gate(state, step, axis)
    amps = state.transpose(axis).reshape(-1)
    del state  # the planned layout, unless it was wire order and ``amps`` is a view of it
    indices = np.flatnonzero(amps != 0)
    values = amps if len(indices) == len(amps) else amps[indices]
    return (StateVector(n, indices, values, check=False), 1 << n, first_dense, block_gates,
            gates)


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by a sort and a mask: numpy's hash-table unique took 5-15x
    as long on blocks of ancilla patterns."""
    ordered = np.sort(values)
    return ordered[np.append(True, ordered[1:] != ordered[:-1])]


def _diagnostics(state: StateVector, n_system: int, target: StateVector | None,
                 purity: bool = True) -> tuple[float | None, float | None]:
    """Reduced-state fidelity of ``state`` against ``target`` on its first ``n_system``
    wires (None with no target) and the system purity, in one pass (see the module
    docstring).  With M the matrix of system rows by ancilla columns, they are the
    squared norm of target^H M and the squared Frobenius norm of M^H M; with no
    ancillas the purity is 1.  With more ancilla patterns than 2^n_system, the purity
    is that of M M^H (Tr rho_sys^2 = Tr rho_anc^2), read from the state with its
    system and ancilla wires swapped.  With several ancilla patterns and ``purity``
    false, no Gram matrix is built and the purity is None."""
    if not 0 <= n_system <= state.n:
        raise ValueError(f"n_system must be in [0, {state.n}], got {n_system}")
    if target is not None and target.n != n_system:
        raise ValueError("target must live on the system wires")
    shift = state.n - n_system
    idx, values, low = state.indices, state.values, (1 << shift) - 1
    if not (shift and len(idx)  # no ancillas, or one pattern of them: M is the values
            and (int(np.bitwise_or.reduce(idx)) ^ int(np.bitwise_and.reduce(idx))) & low):
        return (None if target is None
                else float(abs(np.vdot(target.lookup(idx >> shift), values)) ** 2),
                float(np.vdot(values, values).real ** 2) if shift else 1.0)
    ends = [0]
    while ends[-1] < len(idx):  # a block ends with the last entry of its last row
        last = int(idx[min(ends[-1] + DIAGNOSTIC_BLOCK, len(idx)) - 1]) | low
        ends.append(int(np.searchsorted(idx, last, side="right")))
    spans = list(zip(ends, ends[1:]))
    patterns = _distinct(np.concatenate([_distinct(idx[a:b] & low) for a, b in spans]))
    if purity and len(patterns) > 1 << n_system:
        swapped = StateVector(state.n, (idx & low) << n_system | idx >> shift, values, check=False)
        return (None if target is None else _diagnostics(state, n_system, target, False)[0],
                _diagnostics(swapped, shift, None)[1])
    width = len(patterns)
    overlaps = np.zeros(width, dtype=np.complex128)
    gram = np.zeros((width, width), dtype=np.complex128) if purity else None
    for a, b in spans:
        rows = idx[a:b] >> shift
        row = np.cumsum(np.append(True, rows[1:] != rows[:-1])) - 1  # sorted: a row is a run
        matrix = np.zeros((int(row[-1]) + 1, width), dtype=np.complex128)
        matrix.reshape(-1)[row * width + np.searchsorted(patterns, idx[a:b] & low)] = values[a:b]
        if target is not None:
            lo, hi = np.searchsorted(target.indices, (rows[0], rows[-1] + 1))
            pos, hit = find_sorted(rows, target.indices[lo:hi])
            overlaps += target.values[lo:hi][hit].conj() @ matrix[row[pos[hit]]]
        if purity:
            gram += matrix.T.conj() @ matrix
    return (None if target is None else float(np.sum(np.abs(overlaps) ** 2)),
            float(np.sum(np.abs(gram) ** 2)) if purity else None)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for equal sizes; reduced-state fidelity when ``a`` has ancillas.

    With ancillas, ``a``'s first ``b.n`` wires are the system and the rest the
    ancillas; the result is <b| rho_sys |b>, where rho_sys traces the ancillas out
    of |a><a|.  Global phase never matters.
    """
    if a.n < b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n} qubits")
    return _diagnostics(a, b.n, b, purity=False)[0]


def system_purity(state: StateVector, n_system: int) -> float:
    """Tr(rho^2) of the reduced state on the first ``n_system`` wires (in [0, state.n]);
    1 means no residual entanglement."""
    return _diagnostics(state, n_system, None)[1]
