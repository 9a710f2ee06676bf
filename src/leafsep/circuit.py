"""Gate-level IR: multi-controlled gates with signed controls, costs, text format.

Gate semantics (applied only when every control matches its polarity):

* ``x`` / ``cx`` / ``mcx``  -- flip the target bit.
* ``mcry(theta)``           -- RY(theta) on the target:
                               |0> -> cos(t/2)|0> + sin(t/2)|1>,
                               |1> -> -sin(t/2)|0> + cos(t/2)|1>.
* ``mcrz(phi)``             -- diag(e^{-i phi/2}, e^{+i phi/2}) on the target.
* ``mcphase(phi)``          -- multiply by e^{i phi} when the target bit is 1.
* ``crbs(theta, phi)``      -- on the ordered target pair (t1, t2):
                               |1_{t1} 0_{t2}> ->  e^{+i phi/2} cos(t/2)|10> + e^{-i phi/2} sin(t/2)|01>
                               |0_{t1} 1_{t2}> -> -e^{+i phi/2} sin(t/2)|10> + e^{-i phi/2} cos(t/2)|01>
                               identity on |00> and |11>.

The crbs |01> column is the unique unitary completion of the |10> action up to
phase; with phi=0 it is a plain Givens rotation on the pair.

A multiplexor (uniformly controlled rotation; Shende, Bullock & Markov,
quant-ph/0406176) has c positive controls, which select nothing, and 2^c angles:
``ucry(t_0,...)`` (``ucrz``) is RY(t_p) (RZ(t_p)) on the target, where p is the
pattern its controls read in their given order, ``controls[0]`` the top bit.
:func:`lower` expands it into its Gray-code cascade, as which :func:`cost` prices it.

A Hamming-weight encoder chain (``hwk``, ``hwkz``) on a register r_0..r_(s-1) of s
wires has a weight w in [1, s - 1] and 2 C(s, w) - 1 parameters: one (theta, phi)
per consecutive pair a, b of ``ehrlich_patterns(s, w)`` (pattern bit i on wire
r_(s-1-i)), then a trailing phase.  Step t is a crbs(theta_t, phi_t) moving the 1
of a that b lacks onto the 1 of b that a lacks, controlled on the pair's shared ones
and, in ``hwk``, on its listed controls, or, in ``hwkz``, on the pair's shared zeros
as well; the trailing phase is an mcphase on the last pattern's lowest one,
controlled on its other ones and the listed controls (``hwk``) or its zeros
(``hwkz``).  :func:`lower` expands a chain into those gates, leaving out steps whose
|theta| and |phi| are within ANGLE_TOL and a trailing phase within it, and
:func:`cost` prices it as that lowering.

In the text format a gate is one line, ``kind`` or ``kind(p,...)`` followed by its
operands in the order ``_KINDS`` gives, e.g. ``crbs(0.5,0) [q0+,a0-] q1 q2``, or
``ucry(0.1,0.2,0.3,0.4) [q2+,q0+] q1``, whose 0.3 applies where q2 reads 1 and q0 0.
A chain line gives its weight, its listed controls (``hwk`` only) and then its
register's wires in order: ``hwk(0.5,0,1.2,0,0.3) 1 [a0+] q0 q1 q2`` is the weight-1
chain 001 -> 010 -> 100 on q0..q2, each step controlled on a0, and ``hwkz(...) 2 q3
q4 q5 q6`` a weight-2 chain conditioned on its whole register.
Parameters are written with ``%.17g``, which reads back bit for bit and keeps the sign
of zero. The header is one ``# format=1``, ``# n=...`` and an optional
``# ancilla=...``, all before the first gate line; a repeated ``n`` must have the same
value.
"""
from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, compress
from operator import itemgetter

import numpy as np

from .combinatorics import ehrlich_patterns
from .core import ParseError, walsh_hadamard

ANGLE_TOL = 1e-15  # a rotation angle at most this large emits no gate
# A chain of fewer patterns is priced, planned and simulated step by step: a scan's fixed
# cost, 30-40 us, is that of 4-5 lowered gates on 8 dense wires (one Xeon core, best of 5),
# and summaries of its shape priced 2- and 3-pattern chains 1.1-1.7x slower.
SCAN_MIN_PATTERNS = 5
ChainSummary = namedtuple("ChainSummary", "controls loads first")  # see _chain_summary

# Each kind's parameter count (None: one per pattern of a multiplexor's controls, 2^c,
# or 2 C(s, w) - 1 for a chain) and its text operands in order: a target wire, the one
# positive control of a cx, a bracketed list of signed controls, a chain's weight, or
# its register, the wires to the end of the line.
_KINDS = {
    "x": (0, ("target",)),
    "cx": (0, ("control", "target")),
    "mcx": (0, ("controls", "target")),
    "mcry": (1, ("controls", "target")),
    "mcrz": (1, ("controls", "target")),
    "mcphase": (1, ("controls", "target")),
    "crbs": (2, ("controls", "target", "target")),
    "ucry": (None, ("controls", "target")),
    "ucrz": (None, ("controls", "target")),
    "hwk": (None, ("weight", "controls", "register")),
    "hwkz": (None, ("weight", "register")),
}
GATE_KINDS = tuple(_KINDS)

_X_FAMILY = ("x", "cx", "mcx")
_MULTIPLEXORS = ("ucry", "ucrz")
_CHAINS = ("hwk", "hwkz")


def _x_kind(controls) -> str:
    """The x-family kind of an X with these controls."""
    if not controls:
        return "x"
    return "cx" if len(controls) == 1 and controls[0][1] == 1 else "mcx"


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()  # (wire, +1 or -1)
    params: tuple[float, ...] = ()
    weight: int = 0  # a chain's; 0 for every other kind

    def __post_init__(self):
        kind, targets, controls = self.kind, self.targets, self.controls
        shape = _KINDS.get(kind)
        if shape is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        n_params, operands = shape
        n_targets = operands.count("target")
        if kind in _CHAINS:  # its register, a weight with several patterns, finite angles
            size, w, n_targets = len(targets), self.weight, len(targets)
            if not 0 < w < size:
                raise ValueError(f"{kind} on {size} wires takes a weight in [1, {size - 1}], "
                                 f"got {w}")
            if kind == "hwkz" and controls:
                raise ValueError("hwkz takes no controls: its register conditions it")
            if not all(map(math.isfinite, self.params)):
                raise ValueError(f"{kind} takes finite parameters only")
            n_params = 2 * math.comb(size, w) - 1
        elif self.weight:
            raise ValueError(f"{kind} takes no weight")
        elif n_params is None:  # a multiplexor: one finite angle per pattern of + controls
            n_params = 1 << len(controls)
            if any(pol != 1 for _, pol in controls) or not all(map(math.isfinite, self.params)):
                raise ValueError(f"{kind} takes positive controls and finite parameters only")
        if len(targets) != n_targets or len(self.params) != n_params:
            raise ValueError(f"{kind} takes {n_targets} target(s) and {n_params} parameter(s)")
        wires = set(targets)
        for w, pol in controls:
            if pol not in (1, -1):
                raise ValueError("control polarity must be +1 or -1")
            wires.add(w)
        if len(wires) != len(targets) + len(controls):  # a wire used twice: say how
            if kind in _CHAINS:
                raise ValueError(f"{kind} takes distinct register wires, none of them a control")
            tset = set(targets)
            if len(tset) != len(targets) or tset.intersection(w for w, _ in controls):
                raise ValueError("controls and targets must be disjoint wires")
            raise ValueError("a wire is controlled more than once")
        if kind in _X_FAMILY and kind != _x_kind(controls):
            raise ValueError(f"an x with controls {list(controls)} is "
                             f"{_x_kind(controls)}, not {kind}")

    @property
    def wires(self) -> frozenset[int]:
        return frozenset(self.targets) | {w for w, _ in self.controls}

    @property
    def num_controls(self) -> int:
        return len(self.controls)


def _norm_controls(controls) -> tuple[tuple[int, int], ...]:
    out = []
    for c in controls or ():
        if isinstance(c, tuple):
            out.append((int(c[0]), int(c[1])))
        else:
            out.append((int(c), 1))
    return tuple(sorted(out))


def x(target: int, controls=()) -> Gate:
    """X on ``target``; with controls this becomes cx/mcx automatically."""
    ctrls = _norm_controls(controls)
    return Gate(kind=_x_kind(ctrls), targets=(target,), controls=ctrls)


def mcry(theta: float, target: int, controls=()) -> Gate:
    return Gate(kind="mcry", targets=(target,), controls=_norm_controls(controls),
                params=(float(theta),))


def mcrz(phi: float, target: int, controls=()) -> Gate:
    return Gate(kind="mcrz", targets=(target,), controls=_norm_controls(controls),
                params=(float(phi),))


def mcphase(phi: float, target: int, controls=()) -> Gate:
    return Gate(kind="mcphase", targets=(target,), controls=_norm_controls(controls),
                params=(float(phi),))


def crbs(theta: float, phi: float, t1: int, t2: int, controls=()) -> Gate:
    return Gate(kind="crbs", targets=(t1, t2), controls=_norm_controls(controls),
                params=(float(theta), float(phi)))


def hwk(params, weight: int, register, controls=()) -> Gate:
    """The weight-``weight`` encoder chain on ``register`` with ``params``: an ``hwk``
    with ``controls``, or with None an ``hwkz``, conditioned on its register."""
    params = tuple(map(float, params))
    if controls is None:
        return Gate("hwkz", tuple(register), (), params, weight)
    return Gate("hwk", tuple(register), _norm_controls(controls), params, weight)


@lru_cache(maxsize=1024)
def _chain_slots(register: tuple, w: int, extra):
    """Where the chain over ``ehrlich_patterns(len(register), w)`` acts on ``register``.

    A pattern's bit i sits on wire register[size - 1 - i].  One (target pair, controls)
    per consecutive pair a, b: the pair is read from a ^ b with the 1 of a first; the
    controls are the shared ones a & b (positive) plus the (wire, polarity) pairs
    ``extra`` or, when ``extra`` is None, the shared zeros ~(a | b) (negative), which
    confine the rotation to one two-dimensional subspace of the whole register.  Then
    the trailing phase's target (the last pattern's lowest one) and controls (its
    other ones, plus ``extra`` or its zeros), or None at weight 0.  Controls are
    sorted, as ``Gate`` stores them.
    """
    size = len(register)
    wire, mask = register[::-1], (1 << size) - 1
    order = sorted(range(size), key=wire.__getitem__)  # the bits by wire, so sorted
    signed = [((v, -1), (v, 1)) for v in wire]  # bit i's control at 0 and at 1

    def controls(ones: int, zeros: int) -> tuple:
        held = ones | zeros if extra is None else ones
        out = [signed[i][ones >> i & 1] for i in order if held >> i & 1]
        return tuple(sorted(out + list(extra)) if extra else out)

    patterns = ehrlich_patterns(size, w).tolist()
    steps = tuple(((wire[(a & ~b).bit_length() - 1], wire[(b & ~a).bit_length() - 1]),
                   controls(a & b, ~(a | b) & mask)) for a, b in zip(patterns, patterns[1:]))
    last = patterns[-1]
    low = last & -last
    return steps, (wire[low.bit_length() - 1], controls(last ^ low, ~last & mask)) if last else None


@lru_cache(maxsize=1024)
def _chain_summary(register: tuple, w: int, extra, trailing: bool) -> ChainSummary:
    """What the simulator's plan reads of the lowering of the chain :func:`_chain_shape`
    keys: each gate's control count, (c, wires, c-controlled gates on each) per c and the
    first gate's (targets, controls); wires are bytes (at most ``core.MAX_INDEX_QUBITS``)."""
    steps, phase = _chain_slots(register, w, extra)
    gates = steps + ((phase[:1], phase[1]),) if trailing else steps
    controls = bytes(map(len, map(itemgetter(1), gates)))
    loads = []
    for c in set(controls):  # the wires of its c-controlled gates, a byte each
        picked = list(compress(gates, map(c.__eq__, controls)))
        touched = bytes(chain(chain.from_iterable(map(itemgetter(0), picked)), map(
            itemgetter(0), chain.from_iterable(map(itemgetter(1), picked)))))
        wires = bytes(set(touched))
        loads.append((c, wires, tuple(map(touched.count, wires))))
    return ChainSummary(controls, tuple(loads), gates[0])


@lru_cache(maxsize=1024)
def _chain_layers(register: tuple, w: int, extra, trailing: bool) -> tuple:
    """What :func:`cost` reads of the chain :func:`_chain_shape` keys: its gates' tally by
    (kind, control count), and (wire, first gate, last + 1, wires first touched by then - 1)."""
    steps, phase = _chain_slots(register, w, extra)
    gates = steps + ((phase[:1], phase[1]),) if trailing else steps
    first, last = {}, {}
    for j, (pair, signed) in enumerate(gates):
        for v in chain(pair, map(itemgetter(0), signed)):
            first.setdefault(v, j)
            last[v] = j
    tally = Counter(zip(["crbs"] * len(steps) + ["mcphase"] * trailing,
                        map(len, map(itemgetter(1), gates))))
    return tuple(tally.items()), tuple((v, first[v], last[v] + 1, sum(
        j <= last[v] for j in first.values()) - 1) for v in first)


def _chain_live(params: tuple) -> tuple[list[int], bool]:
    """The steps of a chain with ``params`` that lower to a gate, those whose |theta| or
    |phi| exceeds ANGLE_TOL, and whether its trailing phase does."""
    p = params
    return ([t for t, (theta, phi) in enumerate(zip(p[0:-1:2], p[1:-1:2]))
             if abs(theta) > ANGLE_TOL or abs(phi) > ANGLE_TOL], bool(abs(p[-1]) > ANGLE_TOL))


def _chain_shape(gate: Gate) -> tuple | None:
    """The key of a chain's summaries, (register, weight, listed controls or None for an
    ``hwkz``, trailing phase live), if every one of its SCAN_MIN_PATTERNS+ steps is live."""
    p = gate.params
    if len(p) >= 2 * SCAN_MIN_PATTERNS - 1 and (
            min(map(abs, p[0:-1:2])) > ANGLE_TOL or len(_chain_live(p)[0]) == len(p) // 2):
        return (gate.targets, gate.weight, gate.controls if gate.kind == "hwk" else None,
                abs(p[-1]) > ANGLE_TOL)


def _chain_steps(gate: Gate) -> list[tuple]:
    """A chain's lowered gates as (kind, targets, controls, params): a crbs per step
    of :func:`_chain_live`, then the trailing mcphase if it is live (see the module
    docstring)."""
    p = gate.params
    steps, (target, controls) = _chain_slots(gate.targets, gate.weight,
                                             gate.controls if gate.kind == "hwk" else None)
    angles = iter(p)  # zip takes each step's theta and phi from it in turn
    out = [("crbs", pair, ctrls, (theta, phi)) for (pair, ctrls), theta, phi
           in zip(steps, angles, angles) if abs(theta) > ANGLE_TOL or abs(phi) > ANGLE_TOL]
    if abs(p[-1]) > ANGLE_TOL:
        out.append(("mcphase", (target,), controls, p[-1:]))
    return out


@dataclass
class Circuit:
    """Ordered gate list over system wires 0..n_system-1 plus trailing ancillas."""

    n_system: int
    n_ancilla: int = 0
    gates: list[Gate] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def n_wires(self) -> int:
        return self.n_system + self.n_ancilla

    def add(self, gate: Gate) -> None:
        n = self.n_system + self.n_ancilla
        for w in gate.targets:
            if not 0 <= w < n:
                raise ValueError(f"wire {w} out of range for {n} wires")
        for w, _ in gate.controls:
            if not 0 <= w < n:
                raise ValueError(f"wire {w} out of range for {n} wires")
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for g in gates:
            self.add(g)

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class CostReport:
    two_qubit_count: int
    total_gate_count: int
    depth: int


def _kind_cost(kind: str, c: int) -> tuple[int, int]:
    """Two-qubit and single-qubit equivalents of a ``kind`` gate with c controls."""
    if kind in _X_FAMILY:
        return (0, 1) if c == 0 else (1, 0) if c == 1 else (2 * c, 0)
    if kind != "crbs":
        return max(1, 2 * c), 2 * c + 1
    # crbs: CX framing plus a rotation picking up the pair-partner as one extra control
    return 2 + max(1, 2 * (c + 1)), 2 * (c + 1) + 1


def _cascade(gate: Gate) -> tuple[np.ndarray, list[int | None]]:
    """A multiplexor's Gray-code cascade (Mottonen et al., quant-ph/0407010) as the
    angle and the wire of each step: a rotation by the angle, left out within
    ANGLE_TOL, then a cx controlled on the wire (none with no controls).  Step i takes
    entry g_i (the i-th Gray code) of the Walsh-Hadamard transform of the angles / 2^c,
    and the control of the bit where g_i and g_(i+1) differ.  No steps when every angle
    is within ANGLE_TOL."""
    angles = np.array(gate.params)
    if np.max(np.abs(angles)) <= ANGLE_TOL:
        return angles[:0], []
    size, c = len(angles), len(gate.controls)
    gray = np.arange(size) ^ (np.arange(size) >> 1)
    bits = np.bitwise_count((gray ^ np.roll(gray, -1)) - 1).tolist()
    wires = [gate.controls[c - 1 - b][0] for b in bits] if c else [None]
    return walsh_hadamard(angles)[gray] / size, wires


def two_qubit_cost(g: Gate) -> int:
    """Two-qubit-equivalent cost of one gate, as summed by :func:`cost`."""
    return cost(Circuit(n_system=0, gates=[g])).two_qubit_count


def cost(circuit: Circuit) -> CostReport:
    """Two-qubit-equivalent, total-equivalent and greedy-layered depth of a circuit.

    A c-controlled rotation or phase counts max(1, 2c) two-qubit equivalents; a
    c-controlled crbs counts 2 + max(1, 2(c+1)); x is free, cx is 1, mcx with
    c >= 2 controls is 2c. Depth layers gates as early as their wires allow.  A
    multiplexor counts and layers as its lowering, which is not built, and a chain as its
    lowering's gates (:func:`_price_chain` or step by step), so ``cost(c) == cost(lower(c))``.
    """
    tally: Counter = Counter()
    wire_depth: dict[int, int] = {}  # only the wires gates use: n may come from a file
    depth_of = wire_depth.get
    for g in circuit.gates:
        if g.kind in _MULTIPLEXORS:
            _price_multiplexor(g, tally, wire_depth)
            continue
        if g.kind in _CHAINS and (shape := _chain_shape(g)):
            _price_chain(*_chain_layers(*shape), tally, wire_depth)
            continue
        for kind, targets, controls, _ in (_chain_steps(g) if g.kind in _CHAINS else
                                           ((g.kind, g.targets, g.controls, g.params),)):
            tally[kind, len(controls)] += 1
            layer = max([depth_of(w, 0) for w in targets])
            for w, _ in controls:
                if depth_of(w, 0) > layer:
                    layer = wire_depth[w]
            layer += 1
            for w in targets:
                wire_depth[w] = layer
            for w, _ in controls:
                wire_depth[w] = layer
    return CostReport(
        two_qubit_count=sum(_kind_cost(*key)[0] * count for key, count in tally.items()),
        total_gate_count=sum(sum(_kind_cost(*key)) * count for key, count in tally.items()),
        depth=max(wire_depth.values(), default=0))


def _price_chain(counts: tuple, spans: tuple, tally: Counter, wire_depth: dict) -> None:
    """Count and layer a chain's lowering from its :func:`_chain_layers`, in O(wires): as
    consecutive gates share a wire, gate j sits at layer j + 1 + max(d(v) - first(v)) over
    the wires v with first(v) <= j, d(v) their depth before the chain."""
    tally.update(dict(counts))
    lead = list(accumulate([wire_depth.get(v, 0) - first for v, first, _, _ in spans], max))
    for v, _, stop, reach in spans:
        wire_depth[v] = stop + lead[reach]


def _price_multiplexor(g: Gate, tally: Counter, wire_depth: dict) -> None:
    """Count and layer a multiplexor's cascade (:func:`_cascade`) without walking it.

    Its rotations are the Walsh entries beyond ANGLE_TOL, and each of its 2^c steps
    ends in a cx.  After step i the target sits at layer R(i) + i + K, R(i) the
    rotations of steps 0..i: each step adds its rotation and its cx, and the only cx
    that can wait for its control is that control's first, at step 2^b - 1 for the
    control of bit b, since the control then trails the target.  So K is one more than
    the latest of the target's own depth and those c syncs.  The control of bit b leaves
    at its last cx, step 2^c - 2^b - 1, or the last step for the top bit.
    """
    angles = _cascade(g)[0]
    if not len(angles):
        return
    size, c, t = len(angles), len(g.controls), g.targets[0]
    ups = np.cumsum(np.abs(angles) > ANGLE_TOL).tolist()
    tally["mcry", 0] += ups[-1]
    depth_of = wire_depth.get
    if not c:  # one rotation, no cx
        wire_depth[t] = depth_of(t, 0) + ups[-1]
        return
    tally["cx", 1] += size
    wires = [w for w, _ in reversed(g.controls)]  # wires[b] is the control of bit b
    lead = 1 + max([depth_of(t, 0)] + [depth_of(w, 0) - ups[(1 << b) - 1] - (1 << b) + 1
                                       for b, w in enumerate(wires)])
    for b, w in enumerate(wires):
        last = size - 1 - (1 << b) if b < c - 1 else size - 1
        wire_depth[w] = ups[last] + last + lead
    wire_depth[t] = ups[-1] + size - 1 + lead


def lower(circuit: Circuit) -> Circuit:
    """A copy of ``circuit`` with each multiplexor expanded into the steps of its
    Gray-code cascade: an ``mcry`` (of a ``ucry``) or ``mcrz`` (of a ``ucrz``) on the
    target, then a cx, one cx object per control wire; and each chain into its crbs
    steps and trailing mcphase (:func:`_chain_steps`).  Every other gate is kept."""
    out = Circuit(n_system=circuit.n_system, n_ancilla=circuit.n_ancilla,
                  metadata=dict(circuit.metadata))
    for g in circuit.gates:
        if g.kind in _CHAINS:
            out.gates.extend(Gate(*fields) for fields in _chain_steps(g))
            continue
        if g.kind not in _MULTIPLEXORS:
            out.gates.append(g)
            continue
        t, kind = g.targets[0], "mcry" if g.kind == "ucry" else "mcrz"
        cxs = {w: x(t, [w]) for w, _ in g.controls}
        angles, wires = _cascade(g)
        for angle, w in zip(angles.tolist(), wires):
            if abs(angle) > ANGLE_TOL:
                out.gates.append(Gate(kind, (t,), (), (angle,)))
            if w is not None:
                out.gates.append(cxs[w])
    return out


# --- textual interchange format -------------------------------------------

@lru_cache(maxsize=None)
def _line_format(kind: str, n_params: int) -> str:
    """A ``kind`` line with ``n_params`` parameters as a %-format: "%.17g" per parameter
    (17 significant digits read back exactly, the sign of zero kept), then "%s" per
    operand."""
    head = kind + (f"({','.join(['%.17g'] * n_params)})" if n_params else "")
    return " ".join([head] + ["%s"] * len(_KINDS[kind][1]))


class _Names(dict):
    """Wire tokens, ``q3`` or ``a0`` past the system wires, each made when first asked
    for; a wire outside the circuit's ``n_wires`` raises KeyError."""

    def __init__(self, n_system: int, n_wires: int):
        self.n_system, self.n_wires = n_system, n_wires

    def __missing__(self, w: int) -> str:
        if not 0 <= w < self.n_wires:
            raise KeyError(w)
        self[w] = name = f"q{w}" if w < self.n_system else f"a{w - self.n_system}"
        return name


def _control_list(names: _Names, controls) -> str:
    return "[%s]" % ",".join([names[w] + ("+" if pol == 1 else "-") for w, pol in controls])


def export_text(circuit: Circuit) -> str:
    """Serialize to the line-oriented text format (bit-exact, round-trips).  A gate on a
    wire outside the circuit raises ValueError naming the gate's index and the wire."""
    meta = circuit.metadata
    lines = ["# format=1", "# n={} k={} ell={} mode={}".format(
        circuit.n_system, meta.get("k", 0), meta.get("ell", 0),
        meta.get("mode", "none"))]
    if circuit.n_ancilla:
        lines.append(f"# ancilla={circuit.n_ancilla}")
    header = len(lines)
    names = _Names(circuit.n_system, circuit.n_wires)
    by_id: dict[int, str] = {}  # keyed on the object: equal gates may differ (-0.0 == 0.0)
    try:
        for g in circuit.gates:
            line = by_id.get(id(g))
            if line is None:
                words = [names[w] for w in g.targets]
                lead = _KINDS[g.kind][1][0]
                if lead == "controls":
                    words.insert(0, _control_list(names, g.controls))
                elif lead == "control":
                    words.insert(0, names[g.controls[0][0]])
                elif lead == "weight":  # a chain: the register is one operand, written last
                    words = [str(g.weight), " ".join(words)]
                    if g.kind == "hwk":
                        words.insert(1, _control_list(names, g.controls))
                line = by_id[id(g)] = _line_format(g.kind, len(g.params)) % (*g.params, *words)
            lines.append(line)
    except KeyError as exc:  # from names: the gate is the one whose line is next
        raise ValueError(f"gate {len(lines) - header}: wire {exc.args[0]} out of range for "
                         f"{circuit.n_wires} wires") from None
    return "\n".join(lines) + "\n"


def _is_number(text: str) -> bool:
    """Whether ``text`` is ASCII digits only: ``int`` and ``str.isdigit`` also take
    signs, underscores and the digits of other scripts."""
    return text.isascii() and text.isdigit()


def _parse_wire(token: str, wires: tuple[int, int], line_no: int, col: int) -> int:
    """Wire number of ``token`` given the (system, ancilla) wire counts."""
    n_system, n_ancilla = wires
    if token.startswith("q") and _is_number(token[1:]):
        w = int(token[1:])
        if w >= n_system:
            raise ParseError(f"system wire {token} out of range", line_no, col)
        return w
    if token.startswith("a") and _is_number(token[1:]):
        w = int(token[1:])
        if w >= n_ancilla:
            raise ParseError(f"ancilla wire {token} out of range", line_no, col)
        return n_system + w
    raise ParseError(f"bad wire token {token!r}", line_no, col)


def _parse_controls(token: str, part_of: dict, wires: tuple[int, int], line_no: int,
                    col: int) -> list:
    """Signed controls of a ``[q0+,a1-]`` token in written order; ``part_of`` memoises
    each part."""
    if not (token.startswith("[") and token.endswith("]")):
        raise ParseError(f"expected control list, got {token!r}", line_no, col)
    out = []
    for part in token[1:-1].split(",") if len(token) > 2 else ():
        control = part_of.get(part)
        if control is None:
            if len(part) < 2 or part[-1] not in "+-":
                raise ParseError(f"bad control token {part!r}", line_no, col)
            control = part_of[part] = (_parse_wire(part[:-1], wires, line_no, col),
                                       1 if part[-1] == "+" else -1)
        out.append(control)
    return out


def _parse_head(head: str, line_no: int, col: int):
    """The kind, parameters and operands of a gate line's first token, ``kind`` or
    ``kind(p,...)``."""
    name, paren, rest = head.partition("(")
    shape = _KINDS.get(name)
    if shape is None:
        raise ParseError(f"unknown gate {name!r}", line_no, col)
    n_params, operands = shape
    if not paren and n_params == 0:
        return name, (), operands
    if not (paren and rest.endswith(")")):
        raise ParseError(f"expected parameters on {head!r}", line_no, col)
    raw, at = rest[:-1].split(","), col + len(name)
    if n_params is not None and len(raw) != n_params:  # Gate checks the other counts
        raise ParseError(f"{name} expects {n_params} parameter(s)", line_no, at)
    try:
        params = tuple(map(float, raw))
    except ValueError:
        raise ParseError(f"bad numeric parameter in {head!r}", line_no, at) from None
    if not all(map(math.isfinite, params)):
        raise ParseError(f"non-finite parameter in {head!r}", line_no, at)
    return name, params, operands


def parse_text(text: str) -> Circuit:
    """Inverse of :func:`export_text`; raises :class:`ParseError` with positions."""
    metadata: dict = {}
    gates: list[Gate] = []
    by_line: dict[str, Gate] = {}  # keyed on the text: equal gates may differ (-0.0 == 0.0)
    wires = None  # (system, ancilla) wire counts, fixed at the first gate line
    wire_of: dict[str, int] = {}  # memos by token, so each distinct token is read once
    part_of: dict[str, tuple[int, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        gate = by_line.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for item in line[1:].split():
                key, eq, value = item.partition("=")
                if key == "mode" and eq:
                    metadata[key] = value
                if key not in ("format", "n", "k", "ell", "ancilla") or not eq:
                    continue
                col = raw.index(item) + 1
                if not _is_number(value[1:] if value.startswith("-") else value):
                    raise ParseError(f"bad header value {item!r}", line_no, col)
                number = int(value)
                if key in ("n", "ancilla") and number < 0:
                    raise ParseError(f"{key} must be non-negative, got {value}", line_no, col)
                if key == "format" and number != 1:
                    raise ParseError(f"unsupported format {value}, expected 1", line_no, col)
                if key in ("n", "ancilla") and wires is not None:
                    raise ParseError(f"'{key}=' header after the first gate line", line_no, col)
                if key == "n" and metadata.get("n", number) != number:
                    raise ParseError(f"n={value} after n={metadata['n']}", line_no, col)
                metadata[key] = number
            continue
        if wires is None:
            if "n" not in metadata:
                raise ParseError("gate line before '# n=...' header", line_no, 0)
            wires = (metadata["n"], metadata.get("ancilla", 0))
        tokens = line.split()
        col = raw.index(tokens[0]) + 1
        name, params, shape = _parse_head(tokens[0], line_no, col)
        operands, words, weight = shape, tokens[1:], 0
        if shape[-1] == "register" and len(words) >= len(shape):  # to the end of the line
            operands = shape[:-1] + ("target",) * (len(words) - len(shape) + 1)
        if len(words) != len(operands):
            raise ParseError(f"{name} expects {len(shape)} operand(s): "
                             f"{' '.join(shape)}", line_no, col)
        if operands[0] == "weight":
            if not _is_number(words[0]):
                raise ParseError(f"bad weight {words[0]!r}", line_no, col)
            operands, words, weight = operands[1:], words[1:], int(words[0])
        targets, controls = [], ()
        for operand, token in zip(operands, words):
            if operand == "controls":  # sorted as the factories store them, but a
                # multiplexor's order sets the bits of its patterns
                controls = _parse_controls(token, part_of, wires, line_no, col)
                controls = tuple(controls if name in _MULTIPLEXORS else sorted(controls))
                continue
            w = wire_of.get(token)
            if w is None:
                w = wire_of[token] = _parse_wire(token, wires, line_no, col)
            if operand == "target":
                targets.append(w)
            else:
                controls = ((w, 1),)
        try:  # an x-family line takes the kind x() derives, so `mcx [q0+] q1` is a cx
            gate = Gate(_x_kind(controls) if name in _X_FAMILY else name, tuple(targets),
                        controls, params, weight)
        except ValueError as exc:
            raise ParseError(str(exc), line_no, col) from None
        by_line[raw] = gate
        gates.append(gate)
    if "n" not in metadata:
        raise ParseError("missing '# n=...' header", 1, 0)
    meta = {"n": metadata["n"], "k": metadata.get("k", 0), "ell": metadata.get("ell", 0),
            "mode": metadata.get("mode", "none")}
    # every wire is in range: _parse_wire bounds it by the headers, fixed at the first gate
    return Circuit(n_system=meta["n"], n_ancilla=metadata.get("ancilla", 0), gates=gates,
                   metadata=meta)
