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

In the text format a gate is one line, ``kind`` or ``kind(p,...)`` followed by its
operands in the order ``_KINDS`` gives, e.g. ``crbs(0.5,0) [q0+,a0-] q1 q2``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import ParseError

# Each kind's parameter count and its text operands in order: a target wire, the one
# positive control of a cx, or a bracketed list of signed controls.
_KINDS = {
    "x": (0, ("target",)),
    "cx": (0, ("control", "target")),
    "mcx": (0, ("controls", "target")),
    "mcry": (1, ("controls", "target")),
    "mcrz": (1, ("controls", "target")),
    "mcphase": (1, ("controls", "target")),
    "crbs": (2, ("controls", "target", "target")),
}
GATE_KINDS = tuple(_KINDS)

_X_FAMILY = ("x", "cx", "mcx")


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

    def __post_init__(self):
        shape = _KINDS.get(self.kind)
        if shape is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_params, operands = shape
        n_targets = operands.count("target")
        if len(self.targets) != n_targets or len(self.params) != n_params:
            raise ValueError(f"{self.kind} takes {n_targets} target(s) and {n_params} "
                             f"parameter(s)")
        tset = set(self.targets)
        cset = {w for w, _ in self.controls}
        if len(tset) != len(self.targets) or tset & cset:
            raise ValueError("controls and targets must be disjoint wires")
        if len(cset) != len(self.controls):
            raise ValueError("a wire is controlled more than once")
        for _, pol in self.controls:
            if pol not in (1, -1):
                raise ValueError("control polarity must be +1 or -1")
        if self.kind in _X_FAMILY and self.kind != _x_kind(self.controls):
            raise ValueError(f"an x with controls {list(self.controls)} is "
                             f"{_x_kind(self.controls)}, not {self.kind}")

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


def two_qubit_cost(g: Gate) -> int:
    """Two-qubit-equivalent cost of one gate, as summed by :func:`cost`."""
    c = g.num_controls
    if g.kind in _X_FAMILY:
        if c == 0:
            return 0
        if c == 1:
            return 1
        return 2 * c
    if g.kind in ("mcry", "mcrz", "mcphase"):
        return max(1, 2 * c)
    # crbs: CX framing plus a rotation picking up the pair-partner as one extra control
    return 2 + max(1, 2 * (c + 1))


def _gate_single_qubit_cost(g: Gate) -> int:
    c = g.num_controls
    if g.kind in _X_FAMILY:
        return 1 if c == 0 else 0
    if g.kind in ("mcry", "mcrz", "mcphase"):
        return 2 * c + 1
    return 2 * (c + 1) + 1


def cost(circuit: Circuit) -> CostReport:
    """Two-qubit-equivalent, total-equivalent and greedy-layered depth of a circuit.

    A c-controlled rotation or phase counts max(1, 2c) two-qubit equivalents; a
    c-controlled crbs counts 2 + max(1, 2(c+1)); x is free, cx is 1, mcx with
    c >= 2 controls is 2c. Depth layers gates as early as their wires allow.
    """
    two_q = 0
    total = 0
    wire_depth: dict[int, int] = {}
    depth = 0
    for g in circuit.gates:
        two = two_qubit_cost(g)
        two_q += two
        total += two + _gate_single_qubit_cost(g)
        wires = g.wires
        layer = 1 + max((wire_depth.get(w, 0) for w in wires), default=0)
        for w in wires:
            wire_depth[w] = layer
        depth = max(depth, layer)
    return CostReport(two_qubit_count=two_q, total_gate_count=total, depth=depth)


# --- textual interchange format -------------------------------------------

def _wire_name(w: int, n_system: int) -> str:
    return f"q{w}" if w < n_system else f"a{w - n_system}"


def export_text(circuit: Circuit) -> str:
    """Serialize to the line-oriented text format (bit-exact, round-trips)."""
    meta = circuit.metadata
    lines = ["# format=1", "# n={} k={} ell={} mode={}".format(
        meta.get("n", circuit.n_system), meta.get("k", 0), meta.get("ell", 0),
        meta.get("mode", "none"))]
    if circuit.n_ancilla:
        lines.append(f"# ancilla={circuit.n_ancilla}")
    ns = circuit.n_system
    for g in circuit.gates:
        n_params, operands = _KINDS[g.kind]
        words = [f"{g.kind}({','.join(format(p, '.17g') for p in g.params)})" if n_params
                 else g.kind]
        targets = iter(g.targets)
        for operand in operands:
            if operand == "target":
                words.append(_wire_name(next(targets), ns))
            elif operand == "control":
                words.append(_wire_name(g.controls[0][0], ns))
            else:
                words.append("[" + ",".join(_wire_name(w, ns) + ("+" if pol == 1 else "-")
                                            for w, pol in g.controls) + "]")
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def _parse_wire(token: str, wires: tuple[int, int], line_no: int, col: int) -> int:
    """Wire number of ``token`` given the (system, ancilla) wire counts."""
    n_system, n_ancilla = wires
    if token.startswith("q") and token[1:].isdigit():
        w = int(token[1:])
        if w >= n_system:
            raise ParseError(f"system wire {token} out of range", line_no, col)
        return w
    if token.startswith("a") and token[1:].isdigit():
        w = int(token[1:])
        if w >= n_ancilla:
            raise ParseError(f"ancilla wire {token} out of range", line_no, col)
        return n_system + w
    raise ParseError(f"bad wire token {token!r}", line_no, col)


def _parse_controls(token: str, wires: tuple[int, int], line_no: int, col: int):
    if not (token.startswith("[") and token.endswith("]")):
        raise ParseError(f"expected control list, got {token!r}", line_no, col)
    inner = token[1:-1]
    if not inner:
        return ()
    out = []
    for part in inner.split(","):
        if len(part) < 2 or part[-1] not in "+-":
            raise ParseError(f"bad control token {part!r}", line_no, col)
        out.append((_parse_wire(part[:-1], wires, line_no, col),
                    1 if part[-1] == "+" else -1))
    return tuple(out)


def _parse_head(head: str, line_no: int, col: int):
    """The kind, parameters and operands of a gate line's first token, ``kind`` or
    ``kind(p,...)``."""
    name, paren, rest = head.partition("(")
    shape = _KINDS.get(name)
    if shape is None:
        raise ParseError(f"unknown gate {name!r}", line_no, col)
    n_params, operands = shape
    if not (paren or n_params):
        return name, (), operands
    if not (paren and rest.endswith(")")):
        raise ParseError(f"expected parameters on {head!r}", line_no, col)
    raw, at = rest[:-1].split(","), col + len(name)
    if len(raw) != n_params:
        raise ParseError(f"{name} expects {n_params} parameter(s)", line_no, at)
    try:
        params = tuple(float(r) for r in raw)
    except ValueError:
        raise ParseError(f"bad numeric parameter in {head!r}", line_no, at) from None
    if not all(math.isfinite(p) for p in params):
        raise ParseError(f"non-finite parameter in {head!r}", line_no, at)
    return name, params, operands


def parse_text(text: str) -> Circuit:
    """Inverse of :func:`export_text`; raises :class:`ParseError` with positions."""
    n_system = None
    n_ancilla = 0
    metadata: dict = {}
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            for item in body.split():
                if "=" not in item:
                    continue
                key, _, value = item.partition("=")
                if key in ("format", "n", "k", "ell", "ancilla"):
                    col = raw.index(item) + 1
                    try:
                        metadata[key] = int(value)
                    except ValueError:
                        raise ParseError(f"bad header value {item!r}", line_no, col) from None
                    if key in ("n", "ancilla") and metadata[key] < 0:
                        raise ParseError(f"{key} must be non-negative, got {value}", line_no, col)
                elif key == "mode":
                    metadata[key] = value
            if "n" in metadata and n_system is None:
                n_system = metadata["n"]
            n_ancilla = metadata.get("ancilla", n_ancilla)
            continue
        if n_system is None:
            raise ParseError("gate line before '# n=...' header", line_no, 0)
        wires = (n_system, n_ancilla)
        tokens = line.split()
        col = raw.index(tokens[0]) + 1
        name, params, operands = _parse_head(tokens[0], line_no, col)
        if len(tokens) != 1 + len(operands):
            raise ParseError(f"{name} expects {len(operands)} operand(s): "
                             f"{' '.join(operands)}", line_no, col)
        targets, controls = [], ()
        for operand, token in zip(operands, tokens[1:]):
            if operand == "target":
                targets.append(_parse_wire(token, wires, line_no, col))
            elif operand == "control":
                controls = ((_parse_wire(token, wires, line_no, col), 1),)
            else:
                controls = _parse_controls(token, wires, line_no, col)
        try:  # an x-family line takes the kind x() derives, so `mcx [q0+] q1` is a cx
            gates.append(x(targets[0], controls) if name in _X_FAMILY else
                         Gate(name, tuple(targets), _norm_controls(controls), params))
        except ValueError as exc:
            raise ParseError(str(exc), line_no, col) from None
    if n_system is None:
        raise ParseError("missing '# n=...' header", 1, 0)
    meta = {"n": n_system, "k": metadata.get("k", 0), "ell": metadata.get("ell", 0),
            "mode": metadata.get("mode", "none")}
    circ = Circuit(n_system=n_system, n_ancilla=n_ancilla, metadata=meta)
    circ.extend(gates)
    return circ
