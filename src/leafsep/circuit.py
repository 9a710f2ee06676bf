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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import ParseError

GATE_KINDS = ("x", "cx", "mcx", "mcry", "mcrz", "mcphase", "crbs")

_X_FAMILY = ("x", "cx", "mcx")


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()  # (wire, +1 or -1)
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        tset = set(self.targets)
        cset = {w for w, _ in self.controls}
        if len(tset) != len(self.targets) or tset & cset:
            raise ValueError("controls and targets must be disjoint wires")
        if len(cset) != len(self.controls):
            raise ValueError("a wire is controlled more than once")
        for _, pol in self.controls:
            if pol not in (1, -1):
                raise ValueError("control polarity must be +1 or -1")

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
    if not ctrls:
        kind = "x"
    elif len(ctrls) == 1 and ctrls[0][1] == 1:
        kind = "cx"
    else:
        kind = "mcx"
    return Gate(kind=kind, targets=(target,), controls=ctrls)


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
    by_kind: dict


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
    by_kind: dict[str, int] = {}
    wire_depth: dict[int, int] = {}
    depth = 0
    for g in circuit.gates:
        two = two_qubit_cost(g)
        two_q += two
        total += two + _gate_single_qubit_cost(g)
        by_kind[g.kind] = by_kind.get(g.kind, 0) + 1
        layer = 1 + max((wire_depth.get(w, 0) for w in g.wires), default=0)
        for w in g.wires:
            wire_depth[w] = layer
        depth = max(depth, layer)
    return CostReport(two_qubit_count=two_q, total_gate_count=total, depth=depth,
                      by_kind=by_kind)


# --- textual interchange format -------------------------------------------

def _fmt_angle(value: float) -> str:
    return format(value, ".17g")


def _wire_name(w: int, n_system: int) -> str:
    return f"q{w}" if w < n_system else f"a{w - n_system}"


def _fmt_controls(g: Gate, n_system: int) -> str:
    inner = ",".join(f"{_wire_name(w, n_system)}{'+' if pol == 1 else '-'}"
                     for w, pol in g.controls)
    return f"[{inner}]"


def export_text(circuit: Circuit) -> str:
    """Serialize to the line-oriented text format (bit-exact, round-trips)."""
    meta = circuit.metadata
    lines = ["# format=1"]
    lines.append("# n={} k={} ell={} mode={}".format(
        meta.get("n", circuit.n_system), meta.get("k", 0), meta.get("ell", 0),
        meta.get("mode", "none")))
    if circuit.n_ancilla:
        lines.append(f"# ancilla={circuit.n_ancilla}")
    ns = circuit.n_system
    for g in circuit.gates:
        if g.kind == "x":
            lines.append(f"x {_wire_name(g.targets[0], ns)}")
        elif g.kind == "cx":
            cw = g.controls[0][0]
            lines.append(f"cx {_wire_name(cw, ns)} {_wire_name(g.targets[0], ns)}")
        elif g.kind == "mcx":
            lines.append(f"mcx {_fmt_controls(g, ns)} {_wire_name(g.targets[0], ns)}")
        elif g.kind in ("mcry", "mcrz", "mcphase"):
            lines.append(f"{g.kind}({_fmt_angle(g.params[0])}) {_fmt_controls(g, ns)} "
                         f"{_wire_name(g.targets[0], ns)}")
        else:
            lines.append("crbs({},{}) {} {} {}".format(
                _fmt_angle(g.params[0]), _fmt_angle(g.params[1]), _fmt_controls(g, ns),
                _wire_name(g.targets[0], ns), _wire_name(g.targets[1], ns)))
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


def _parse_params(head: str, expected: int, line_no: int,
                  col: int) -> tuple[str, tuple[float, ...]]:
    open_idx = head.find("(")
    if open_idx < 0 or not head.endswith(")"):
        raise ParseError(f"expected parameters on {head!r}", line_no, col)
    name = head[:open_idx]
    raw = head[open_idx + 1:-1].split(",")
    if len(raw) != expected:
        raise ParseError(f"{name} expects {expected} parameter(s)", line_no, col + open_idx)
    try:
        params = tuple(float(r) for r in raw)
    except ValueError:
        raise ParseError(f"bad numeric parameter in {head!r}", line_no, col + open_idx) from None
    if not all(math.isfinite(p) for p in params):
        raise ParseError(f"non-finite parameter in {head!r}", line_no, col + open_idx)
    return name, params


def _construct(make, line_no: int, col: int, *args, **kwargs) -> Gate:
    """``make(*args, **kwargs)``, with the gate's own wire checks raised as a ParseError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, col) from None


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
        head = tokens[0]
        col = raw.index(head) + 1
        if head == "x":
            if len(tokens) != 2:
                raise ParseError("x expects one wire", line_no, col)
            gates.append(x(_parse_wire(tokens[1], wires, line_no, col)))
        elif head == "cx":
            if len(tokens) != 3:
                raise ParseError("cx expects control and target wires", line_no, col)
            c = _parse_wire(tokens[1], wires, line_no, col)
            t = _parse_wire(tokens[2], wires, line_no, col)
            gates.append(_construct(x, line_no, col, t, controls=[(c, 1)]))
        elif head == "mcx":
            if len(tokens) != 3:
                raise ParseError("mcx expects controls and target", line_no, col)
            ctrls = _parse_controls(tokens[1], wires, line_no, col)
            t = _parse_wire(tokens[2], wires, line_no, col)
            gates.append(_construct(x, line_no, col, t, controls=ctrls))
        elif head.startswith(("mcry", "mcrz", "mcphase")):
            name, params = _parse_params(head, 1, line_no, col)
            if len(tokens) != 3:
                raise ParseError(f"{name} expects controls and target", line_no, col)
            ctrls = _parse_controls(tokens[1], wires, line_no, col)
            t = _parse_wire(tokens[2], wires, line_no, col)
            maker = {"mcry": mcry, "mcrz": mcrz, "mcphase": mcphase}.get(name)
            if maker is None:
                raise ParseError(f"unknown gate {name!r}", line_no, col)
            gates.append(_construct(maker, line_no, col, params[0], t, controls=ctrls))
        elif head.startswith("crbs"):
            _, params = _parse_params(head, 2, line_no, col)
            if len(tokens) != 4:
                raise ParseError("crbs expects controls and two targets", line_no, col)
            ctrls = _parse_controls(tokens[1], wires, line_no, col)
            t1 = _parse_wire(tokens[2], wires, line_no, col)
            t2 = _parse_wire(tokens[3], wires, line_no, col)
            gates.append(_construct(crbs, line_no, col, params[0], params[1], t1, t2,
                                    controls=ctrls))
        else:
            raise ParseError(f"unknown gate {head!r}", line_no, col)
    if n_system is None:
        raise ParseError("missing '# n=...' header", 1, 0)
    meta = {"n": n_system, "k": metadata.get("k", 0), "ell": metadata.get("ell", 0),
            "mode": metadata.get("mode", "none")}
    circ = Circuit(n_system=n_system, n_ancilla=n_ancilla, metadata=meta)
    circ.extend(gates)
    return circ
