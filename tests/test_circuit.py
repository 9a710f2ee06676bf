import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafsep.circuit import (GATE_KINDS, Circuit, Gate, ParseError, cost, crbs, export_text,
                             hwk, lower, mcphase, mcrz, mcry, parse_text, two_qubit_cost, x)


def random_circuit(n, n_gates, seed, n_ancilla=0):
    rng = np.random.default_rng(seed)
    circ = Circuit(n_system=n, n_ancilla=n_ancilla,
                   metadata={"n": n, "k": 2, "ell": 1, "mode": "free"})
    wires = n + n_ancilla
    for _ in range(n_gates):
        kind = rng.choice(["x", "mcry", "mcrz", "mcphase", "crbs"])
        order = rng.permutation(wires)
        n_ctrl = int(rng.integers(0, min(3, wires - 2) + 1))
        ctrls = [(int(q), int(rng.choice([1, -1]))) for q in order[:n_ctrl]]
        t1, t2 = int(order[-1]), int(order[-2])
        theta = float(rng.uniform(0, 2 * math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        if kind == "x":
            circ.add(x(t1, controls=ctrls))
        elif kind == "mcry":
            circ.add(mcry(theta, t1, controls=ctrls))
        elif kind == "mcrz":
            circ.add(mcrz(phi, t1, controls=ctrls))
        elif kind == "mcphase":
            circ.add(mcphase(phi, t1, controls=ctrls))
        else:
            circ.add(crbs(theta, phi, t1, t2, controls=ctrls))
    return circ


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(kind="nope", targets=(0,))
    with pytest.raises(ValueError):
        crbs(0.1, 0.0, 1, 1)  # duplicate targets
    with pytest.raises(ValueError):
        mcry(0.1, 0, controls=[(0, 1)])  # control overlaps target
    with pytest.raises(ValueError):
        Gate(kind="mcry", targets=(0,), controls=((1, 2),), params=(0.1,))
    with pytest.raises(ValueError, match="controlled more than once"):
        Gate(kind="mcx", targets=(2,), controls=((0, 1), (0, -1)))
    with pytest.raises(ValueError, match="controlled more than once"):
        mcphase(0.1, 2, controls=[(1, 1), (1, 1)])


@pytest.mark.parametrize("kind,targets,controls,params,message", [
    ("crbs", (0,), (), (0.1, 0.0), r"crbs takes 2 target\(s\) and 2 parameter\(s\)"),
    ("mcry", (0, 1), (), (0.1,), r"mcry takes 1 target\(s\) and 1 parameter\(s\)"),
    ("crbs", (0, 1), (), (0.1,), r"crbs takes 2 target\(s\) and 2 parameter\(s\)"),
    ("mcphase", (0,), (), (), r"mcphase takes 1 target\(s\) and 1 parameter\(s\)"),
    ("x", (0,), (), (0.1,), r"x takes 1 target\(s\) and 0 parameter\(s\)"),
    ("x", (1,), ((0, 1),), (), "is cx, not x"),
    ("cx", (1,), ((0, -1),), (), "is mcx, not cx"),
    ("mcx", (1,), (), (), "is x, not mcx"),
    ("mcx", (2,), ((0, 1),), (), "is cx, not mcx"),
    ("ucry", (0,), ((1, 1),), (0.1,), r"ucry takes 1 target\(s\) and 2 parameter\(s\)"),
    ("ucrz", (0,), ((2, 1), (1, 1)), (0.1,) * 3, r"ucrz takes 1 target\(s\) and 4 parameter"),
    ("ucrz", (0, 1), (), (0.1,), r"ucrz takes 1 target\(s\) and 1 parameter"),
    ("ucry", (0,), ((1, -1),), (0.1, 0.2), "positive controls and finite parameters only"),
    ("ucry", (0,), (), (math.nan,), "positive controls and finite parameters only"),
    ("ucrz", (0,), ((1, 1),), (0.1, -math.inf), "positive controls and finite parameters"),
    ("hwk", (0, 1, 2), (), (0.1,) * 5, r"hwk on 3 wires takes a weight in \[1, 2\], got 0"),
])
def test_gate_rejects_a_shape_its_kind_does_not_have(kind, targets, controls, params, message):
    """A gate is checked against its kind's row of the table; an x-family kind must be
    the one ``x`` derives from its controls, so no gate exports a wrong line."""
    with pytest.raises(ValueError, match=message):
        Gate(kind, targets, controls, params)


@pytest.mark.parametrize("kind,targets,controls,params,weight,message", [
    ("mcry", (0,), (), (0.1,), 1, "mcry takes no weight"),
    ("hwkz", (0, 1), (), (0.1,) * 3, 2, r"hwkz on 2 wires takes a weight in \[1, 1\], got 2"),
    ("hwk", (0,), (), (0.1,), 1, r"hwk on 1 wires takes a weight in \[1, 0\], got 1"),
    ("hwk", (0, 1, 2), (), (0.1,) * 6, 1, r"hwk takes 3 target\(s\) and 5 parameter\(s\)"),
    ("hwkz", (0, 1), ((2, 1),), (0.1,) * 3, 1, "hwkz takes no controls"),
    ("hwk", (0, 1), (), (0.1, math.nan, 0.3), 1, "hwk takes finite parameters only"),
    ("hwk", (0, 1, 0), (), (0.1,) * 5, 1, "distinct register wires, none of them a control"),
    ("hwk", (0, 1), ((1, 1),), (0.1,) * 3, 1, "distinct register wires, none of them a control"),
])
def test_gate_rejects_a_chain_shape(kind, targets, controls, params, weight, message):
    """A chain's weight has several patterns on its register, whose wires are distinct
    and not its controls; it has 2 C(size, w) - 1 finite parameters and no other kind
    has a weight."""
    with pytest.raises(ValueError, match=message):
        Gate(kind, targets, controls, params, weight)


@pytest.mark.parametrize("wire", [4, -1])
def test_add_rejects_wires_out_of_range(wire):
    circ = Circuit(n_system=3, n_ancilla=1)
    circ.add(x(0))
    for gate in (x(wire), x(0, controls=[(wire, 1)])):
        with pytest.raises(ValueError, match=f"wire {wire} out of range for 4 wires"):
            circ.add(gate)
    assert circ.gates == [x(0)]


def test_x_kind_normalization():
    assert x(0).kind == "x"
    assert x(0, controls=[(1, 1)]).kind == "cx"
    assert x(0, controls=[(1, -1)]).kind == "mcx"
    assert x(0, controls=[(1, 1), (2, 1)]).kind == "mcx"


def test_cost_empty_and_single_cx():
    empty = Circuit(n_system=3)
    report = cost(empty)
    assert (report.two_qubit_count, report.total_gate_count, report.depth) == (0, 0, 0)

    one = Circuit(n_system=3)
    one.add(x(1, controls=[(0, 1)]))
    report = cost(one)
    assert report.two_qubit_count == 1
    assert report.depth == 1


def test_cost_model_values():
    circ = Circuit(n_system=5)
    circ.add(x(0))                                      # 0
    circ.add(mcry(0.5, 0, controls=[(1, 1)]))           # max(1, 2) = 2
    circ.add(mcry(0.5, 0))                              # max(1, 0) = 1
    circ.add(mcphase(0.5, 0, controls=[(1, 1), (2, -1), (3, 1)]))  # 6
    circ.add(crbs(0.5, 0.0, 0, 1))                      # 2 + max(1, 2) = 4
    circ.add(crbs(0.5, 0.0, 0, 1, controls=[(2, 1), (3, -1)]))     # 2 + 6 = 8
    circ.add(x(0, controls=[(1, 1), (2, 1)]))           # 2c = 4
    assert cost(circ).two_qubit_count == 0 + 2 + 1 + 6 + 4 + 8 + 4


@settings(max_examples=60)
@given(st.integers(2, 6), st.integers(0, 2), st.integers(0, 20), st.integers(0, 20),
       st.integers(0, 2 ** 32 - 1))
def test_cost_is_additive_over_concatenation(n, n_ancilla, len_a, len_b, seed):
    """Two-qubit and total counts add exactly; depth is at least the deeper part's
    and at most the sum of both."""
    a = random_circuit(n, len_a, seed=[seed, 0], n_ancilla=n_ancilla)
    b = random_circuit(n, len_b, seed=[seed, 1], n_ancilla=n_ancilla)
    both = Circuit(n_system=n, n_ancilla=n_ancilla)
    both.extend(a.gates + b.gates)
    ca, cb, cab = cost(a), cost(b), cost(both)
    assert cab.two_qubit_count == ca.two_qubit_count + cb.two_qubit_count
    assert cab.total_gate_count == ca.total_gate_count + cb.total_gate_count
    assert max(ca.depth, cb.depth) <= cab.depth <= ca.depth + cb.depth


def test_depth_layering():
    circ = Circuit(n_system=4)
    circ.add(x(0))
    circ.add(x(1))            # parallel with the first
    circ.add(x(1, controls=[(0, 1)]))  # must wait for both
    circ.add(x(3))            # parallel with everything
    assert cost(circ).depth == 2


def _reference_costs(g):
    """(two-qubit, single-qubit) equivalents of one gate, from the cost model as stated."""
    c = len(g.controls)
    if g.kind in ("x", "cx", "mcx"):
        return (0, 1) if c == 0 else (1, 0) if c == 1 else (2 * c, 0)
    if g.kind == "crbs":
        return 2 + max(1, 2 * (c + 1)), 2 * (c + 1) + 1
    return max(1, 2 * c), 2 * c + 1


@settings(max_examples=100)
@given(st.integers(2, 6), st.integers(0, 2), st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
def test_depth_layers_have_disjoint_wires(n, n_ancilla, n_gates, seed):
    """cost agrees with a set-based reference: each gate goes one layer after the
    deepest of its wires, the gates of a layer touch disjoint wires, and the counts
    are the per-gate model summed."""
    circ = random_circuit(n, n_gates, seed=[seed], n_ancilla=n_ancilla)
    layer_of, wire_depth = [], {}
    for g in circ.gates:
        layer = 1 + max((wire_depth.get(w, 0) for w in g.wires), default=0)
        for w in g.wires:
            wire_depth[w] = layer
        layer_of.append(layer)
    by_layer = {}
    for layer, g in zip(layer_of, circ.gates):
        by_layer.setdefault(layer, []).append(g)
    for gates in by_layer.values():
        seen = set()
        for g in gates:
            assert not (g.wires & seen)
            seen |= g.wires
    counts = [_reference_costs(g) for g in circ.gates]
    report = cost(circ)
    assert report.two_qubit_count == sum(two for two, _ in counts)
    assert report.total_gate_count == sum(two + one for two, one in counts)
    assert report.depth == max(layer_of, default=0)


def test_export_examples():
    circ = Circuit(n_system=4, metadata={"n": 4, "k": 2, "ell": 2, "mode": "free"})
    circ.add(x(3))
    text = export_text(circ)
    assert text.splitlines()[0] == "# format=1"
    assert text.splitlines()[1] == "# n=4 k=2 ell=2 mode=free"
    assert text.splitlines()[2] == "x q3"


def test_export_initial_slice_order():
    from leafsep.synthesis import synthesize_initial
    text = export_text(synthesize_initial(4, 2))
    gate_lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert gate_lines == ["x q2", "x q3"]


def test_angle_precision_round_trip():
    circ = Circuit(n_system=2, metadata={"n": 2, "k": 1, "ell": 1, "mode": "free"})
    circ.add(mcry(math.pi / 3 + 1e-16, 0))
    circ.add(crbs(0.1234567890123456789, -2.718281828459045, 0, 1))
    parsed = parse_text(export_text(circ))
    for g1, g2 in zip(circ.gates, parsed.gates):
        assert g1.params == g2.params


EXTREME_ANGLES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  math.pi, -math.pi]


@st.composite
def _circuits(draw, angles=st.one_of(st.sampled_from(EXTREME_ANGLES),
                                     st.floats(allow_nan=False, allow_infinity=False))):
    """Gate lists over system and ancilla wires: x with 0, 1 or more signed controls
    (x, cx, mcx), the rotations, phases and crbs, multiplexors on positive controls
    in any order, and chains on any register of 2 to 4 wires at any weight, fully
    conditioned or with none or some signed controls, with finite angles of any size."""
    n_system, n_ancilla = draw(st.integers(2, 5)), draw(st.integers(0, 2))
    circ = Circuit(n_system=n_system, n_ancilla=n_ancilla, metadata={
        "n": n_system, "k": draw(st.integers(0, 9)), "ell": draw(st.integers(0, 9)),
        "mode": draw(st.sampled_from(["free", "ancilla", "none"]))})
    for kind in draw(st.lists(st.sampled_from(["x", "mcry", "mcrz", "mcphase", "crbs", "ucry",
                                               "ucrz", "hwk", "hwkz"]), max_size=12)):
        order = draw(st.permutations(range(n_system + n_ancilla)))
        if kind in ("hwk", "hwkz"):
            size = draw(st.integers(2, min(len(order), 4)))
            weight = draw(st.integers(1, size - 1))
            params = [draw(angles) for _ in range(2 * math.comb(size, weight) - 1)]
            rest = order[size:]
            ctrls = None if kind == "hwkz" else [
                (w, draw(st.sampled_from([1, -1]))) for w in rest[:draw(st.integers(0, len(rest)))]]
            circ.add(hwk(params, weight, order[:size], ctrls))
            continue
        free = order[2 if kind == "crbs" else 1:]
        ctrls = [(w, draw(st.sampled_from([1, -1])))
                 for w in free[:draw(st.integers(0, len(free)))]]
        if kind in ("ucry", "ucrz"):
            ctrls = tuple((w, 1) for w, _ in ctrls)
            params = tuple(draw(angles) for _ in range(1 << len(ctrls)))
            circ.add(Gate(kind, (order[0],), ctrls, params))
        elif kind == "x":
            circ.add(x(order[0], controls=ctrls))
        elif kind == "crbs":
            circ.add(crbs(draw(angles), draw(angles), order[0], order[1], controls=ctrls))
        else:
            circ.add({"mcry": mcry, "mcrz": mcrz, "mcphase": mcphase}[kind](
                draw(angles), order[0], controls=ctrls))
    return circ


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_random_circuits(seed):
    circ = random_circuit(4, 25, seed=seed, n_ancilla=2)
    text = export_text(circ)
    parsed = parse_text(text)
    assert (parsed.n_system, parsed.n_ancilla) == (circ.n_system, circ.n_ancilla)
    assert parsed.gates == circ.gates
    assert export_text(parsed) == text  # byte-identical


def test_round_trip_writes_the_wire_count_not_the_metadata():
    """The header's n is the circuit's system wire count, even when its metadata says
    otherwise, so the text parses back to the same wires and gates."""
    circ = Circuit(n_system=3, metadata={"n": 2})
    circ.add(x(2))
    text = export_text(circ)
    assert text.splitlines()[1] == "# n=3 k=0 ell=0 mode=none"
    parsed = parse_text(text)
    assert (parsed.n_system, parsed.gates) == (3, circ.gates)
    assert export_text(parsed) == text


@settings(max_examples=300)
@given(_circuits())
def test_round_trip_generated_circuits(circ):
    """parse_text inverts export_text gate for gate, every angle bit for bit (the sign
    of -0.0 included), and re-export is byte-identical."""
    text = export_text(circ)
    parsed = parse_text(text)
    assert (parsed.n_system, parsed.n_ancilla) == (circ.n_system, circ.n_ancilla)
    assert parsed.metadata == circ.metadata
    assert parsed.gates == circ.gates
    assert [repr(p) for g in parsed.gates for p in g.params] == \
        [repr(p) for g in circ.gates for p in g.params]
    assert export_text(parsed) == text


def test_round_trip_strategy_covers_every_gate_kind():
    kinds, angles, roles = set(), set(), set()

    @settings(max_examples=100)
    @given(_circuits())
    def collect(circ):
        kinds.update(g.kind for g in circ.gates)
        angles.update(repr(p) for g in circ.gates for p in g.params)
        roles.update(("target", w >= circ.n_system) for g in circ.gates for w in g.targets)
        roles.update(("control", w >= circ.n_system) for g in circ.gates for w, _ in g.controls)

    collect()
    assert kinds == set(GATE_KINDS)
    assert {repr(a) for a in EXTREME_ANGLES} <= angles
    assert roles == {(role, ancilla) for role in ("target", "control") for ancilla in (0, 1)}


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as info:
        parse_text("# n=2 k=1 ell=1 mode=free\nzz q0\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse_text("x q0\n")  # missing header
    with pytest.raises(ParseError):
        parse_text("# n=2 k=1 ell=1 mode=free\ncx q0\n")
    with pytest.raises(ParseError):
        parse_text("# n=2 k=1 ell=1 mode=free\nmcry(xyz) [] q0\n")
    with pytest.raises(ParseError):
        parse_text("# n=2 k=1 ell=1 mode=free\nx q7\n")


@pytest.mark.parametrize("text,line,column,message", [
    ("# n=3 k=1 ell=1 mode=none\nmcry(nan) [] q0\n", 2, 5, "non-finite parameter"),
    ("# n=3 k=1 ell=1 mode=none\n  crbs(0,-inf) [] q0 q1\n", 2, 7, "non-finite parameter"),
    ("# n=3 k=1 ell=1 mode=none\nmcphase(1e309) [q1+] q0\n", 2, 8, "non-finite parameter"),
    ("# n=-1 k=1 ell=1 mode=none\n", 1, 3, "n must be non-negative, got -1"),
    ("# n=3 k=1 ell=1 mode=none\n# ancilla=-1\n", 2, 3, "ancilla must be non-negative"),
    ("# n=3 k=1 ell=1 mode=none\ncx q0 q0\n", 2, 1, "disjoint wires"),
    ("# n=3 k=1 ell=1 mode=none\ncrbs(1,0) [] q1 q1\n", 2, 1, "disjoint wires"),
    ("# n=3 k=1 ell=1 mode=none\nmcx [q0+,q0-] q1\n", 2, 1, "controlled more than once"),
    ("# n=3 k=1 ell=1 mode=none\ncrbsx(1,2) [] q0 q1\n", 2, 1, "unknown gate 'crbsx'"),
    ("# n=3 k=1 ell=1 mode=none\nmcryz(1) [] q0\n", 2, 1, "unknown gate 'mcryz'"),
    ("# n=3 k=1 ell=1 mode=none\n x(1) q0\n", 2, 3, r"x expects 0 parameter\(s\)"),
    ("# n=3 k=1 ell=1 mode=none\ncx q0 q1 q2\n", 2, 1, r"cx expects 2 operand\(s\)"),
    ("# n=3 k=1 ell=1 mode=none\nmcx q0 q1\n", 2, 1, "expected control list, got 'q0'"),
    ("# n=3 k=1 ell=1 mode=none\n mcx [q0] q1\n", 2, 2, "bad control token 'q0'"),
    ("# n=3 k=1 ell=1 mode=none\nmcry [] q1\n", 2, 1, "expected parameters on 'mcry'"),
    ("# n=3 k=1 ell=1 mode=none\nucry [q0+] q1\n", 2, 1, "expected parameters on 'ucry'"),
    ("# n=3 k=1 ell=1 mode=none\nucry(1) [q0+] q1\n", 2, 1,
     r"ucry takes 1 target\(s\) and 2 parameter\(s\)"),
    ("# n=3 k=1 ell=1 mode=none\nucrz(1,2,3) [q2+,q0+] q1\n", 2, 1,
     r"ucrz takes 1 target\(s\) and 4 parameter\(s\)"),
    ("# n=3 k=1 ell=1 mode=none\n  ucry(1,inf) [q0+] q1\n", 2, 7, "non-finite parameter"),
    ("# n=3 k=1 ell=1 mode=none\nucrz(1,2) [q0-] q1\n", 2, 1, "positive controls"),
    ("# n=3 k=1 ell=1 mode=none\nucry(1,2) q0 q1\n", 2, 1, "expected control list"),
    ("# k=1 ell=1 mode=none\n", 1, 0, r"missing '# n=\.\.\.' header"),
    ("# n=3 k=1 ell=1 mode=none\nhwk(1,2) 1 [] q0 q1\n", 2, 1,
     r"hwk takes 2 target\(s\) and 3 parameter\(s\)"),
    ("# n=3 k=1 ell=1 mode=none\nhwkz(1,2,3,4) 1 q0 q1\n", 2, 1,
     r"hwkz takes 2 target\(s\) and 3 parameter\(s\)"),
    ("# n=3 k=1 ell=1 mode=none\nhwkz(1) 0 q0 q1\n", 2, 1, r"weight in \[1, 1\], got 0"),
    ("# n=3 k=1 ell=1 mode=none\nhwk(1) 2 [] q0 q1\n", 2, 1, r"weight in \[1, 1\], got 2"),
    ("# n=3 k=1 ell=1 mode=none\nhwkz(1,2,3) 1 q0 q0\n", 2, 1, "distinct register wires"),
    ("# n=3 k=1 ell=1 mode=none\nhwk(1,2,3) 1 [q1+] q0 q1\n", 2, 1, "distinct register wires"),
    ("# n=3 k=1 ell=1 mode=none\n hwkz(1,2,3) 1 q0 q3\n", 2, 2, "system wire q3 out of range"),
    ("# n=3 k=1 ell=1 mode=none\n# ancilla=1\nhwk(1,2,3) 1 [a1+] q0 q1\n", 3, 1,
     "ancilla wire a1 out of range"),
    ("# n=3 k=1 ell=1 mode=none\nhwkz(1,2,3) -1 q0 q1\n", 2, 1, "bad weight '-1'"),
    ("# n=3 k=1 ell=1 mode=none\nhwkz(1,2,3) ١ q0 q1\n", 2, 1, "bad weight '١'"),
    ("# n=3 k=1 ell=1 mode=none\nhwk(1,2,3) 1 [q2+]\n", 2, 1,
     r"hwk expects 3 operand\(s\): weight controls register"),
    ("# n=3 k=1 ell=1 mode=none\nhwkz(1,2,3) 1\n", 2, 1,
     r"hwkz expects 2 operand\(s\): weight register"),
    ("# n=3 k=1 ell=1 mode=none\nhwkz(1,2,3) 1 [q2+] q0 q1\n", 2, 1,
     r"bad wire token '\[q2\+\]'"),
    ("# n=3 k=1 ell=1 mode=none\n  hwkz(1,nan,3) 1 q0 q1\n", 2, 7, "non-finite parameter"),
    ("# n=3 k=1 ell=1 mode=none\nhwk 1 [] q0 q1\n", 2, 1, "expected parameters on 'hwk'"),
])
def test_parse_rejects_malformed_gates_with_position(text, line, column, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_text(text)
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("text,line,column,message", [
    ("# format=7\n# n=2 k=1 ell=1 mode=free\n", 1, 3, "unsupported format 7, expected 1"),
    ("# n=2 k=1 ell=1 mode=free\n# ancilla=1\nx a0\n# ancilla=0\n", 4, 3,
     "'ancilla=' header after the first gate line"),
    ("# n=2 k=1 ell=1 mode=free\nx q0\n# n=5\n", 3, 3, "'n=' header after the first gate line"),
    ("# n=2 k=1 ell=1 mode=free\nx q0\n#  k=0 n=2\n", 3, 8, "'n=' header after the first"),
    ("# n=2 k=1 ell=1 mode=free\n# n=3\nx q0\n", 2, 3, "n=3 after n=2"),
])
def test_parse_rejects_misplaced_headers_with_position(text, line, column, message):
    """One format, 1, and the wire counts only before the first gate line, so every
    gate line is read against the same wires."""
    with pytest.raises(ParseError, match=message) as info:
        parse_text(text)
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("text,line,column,message", [
    ("# n=1_0 k=1 ell=1 mode=none\n", 1, 3, "bad header value 'n=1_0'"),
    ("# n=+3 k=1 ell=1 mode=none\n", 1, 3, r"bad header value 'n=\+3'"),
    ("# n=3 k=١ ell=1 mode=none\n", 1, 7, "bad header value 'k=١'"),
    ("# n=3 k=1 ell=- mode=none\n", 1, 11, "bad header value 'ell=-'"),
    ("# n=3 k=1 ell=1 mode=none\nx q١\n", 2, 1, "bad wire token 'q١'"),
    ("# n=3 k=1 ell=1 mode=none\n# ancilla=1\n mcx [a¹+] q0\n", 3, 2,
     "bad wire token 'a¹'"),
])
def test_parse_rejects_numbers_that_are_not_ascii_digits(text, line, column, message):
    """``int`` and ``str.isdigit`` take signs, underscores and the digits of other
    scripts, which export_text would write back as other text."""
    with pytest.raises(ParseError, match=message) as info:
        parse_text(text)
    assert (info.value.line, info.value.column) == (line, column)


def test_parse_accepts_repeated_equal_headers():
    text = "# format=1\n# n=2 k=1 ell=1 mode=free\n# n=2 ancilla=1\n# ancilla=2\nx a1\n# k=3\n"
    parsed = parse_text(text)
    assert (parsed.n_system, parsed.n_ancilla, parsed.metadata["k"]) == (2, 2, 3)
    assert parsed.gates == [x(3)]


def test_export_rejects_wires_outside_the_circuit():
    """A gate on a wire the circuit does not have would export a line parse_text
    rejects; export_text names the gate and the wire instead."""
    with pytest.raises(ValueError, match=r"^gate 0: wire 5 out of range for 2 wires$"):
        export_text(Circuit(n_system=2, gates=[x(5)]))
    chain = hwk((0.1, 0.2, 0.3), 1, (2, 3), None)
    with pytest.raises(ValueError, match=r"^gate 2: wire 3 out of range for 3 wires$"):
        export_text(Circuit(n_system=2, n_ancilla=1, gates=[x(2), x(2), chain]))
    with pytest.raises(ValueError, match=r"^gate 1: wire -1 out of range for 2 wires$"):
        export_text(Circuit(n_system=2, gates=[x(1), x(0, [(-1, 1)])]))


def test_chain_line_examples():
    """A chain's line: parameters, weight, listed controls (hwk only), register in order."""
    circ = Circuit(n_system=3, n_ancilla=1)
    circ.add(hwk((0.5, 0.0, 1.25, -0.0, 0.25), 1, (2, 0, 1), [(3, 1)]))
    circ.add(hwk((1.5, 0.5, 0.0), 1, (1, 2), None))
    text = export_text(circ)
    assert text.splitlines()[3:] == ["hwk(0.5,0,1.25,-0,0.25) 1 [a0+] q2 q0 q1",
                                     "hwkz(1.5,0.5,0) 1 q1 q2"]
    assert parse_text(text).gates == circ.gates
    assert [g.weight for g in parse_text(text).gates] == [1, 1]


def test_signed_zero_angles_export_and_parse_apart():
    """-0.0 == 0.0, so a cache keyed on gate equality would merge these two lines."""
    circ = Circuit(n_system=1, metadata={"n": 1, "k": 1, "ell": 1, "mode": "free"})
    circ.add(mcry(-0.0, 0))
    circ.add(mcry(0.0, 0))
    text = export_text(circ)
    assert text.splitlines()[2:] == ["mcry(-0) [] q0", "mcry(0) [] q0"]
    parsed = parse_text(text)
    assert [math.copysign(1.0, g.params[0]) for g in parsed.gates] == [-1.0, 1.0]
    assert export_text(parsed) == text


def test_one_gate_object_added_twice_exports_twice():
    circ = Circuit(n_system=3, n_ancilla=1)
    gate = crbs(0.25, -0.5, 0, 3, controls=[(2, -1), (1, 1)])
    circ.extend([gate, x(1), gate])
    lines = export_text(circ).splitlines()[3:]
    assert lines == ["crbs(0.25,-0.5) [q1+,q2-] q0 a0", "x q1", "crbs(0.25,-0.5) [q1+,q2-] q0 a0"]


def test_repeated_line_parses_to_equal_gates():
    line = "mcrz(0.5) [q2-,a0+] q1"
    parsed = parse_text("# n=3 k=1 ell=1 mode=none\n# ancilla=1\n" + (line + "\n") * 100)
    assert parsed.gates == [mcrz(0.5, 1, controls=[(2, -1), (3, 1)])] * 100


def test_parse_reads_non_canonical_wire_tokens():
    """A wire or control token that export_text would not write is still read."""
    parsed = parse_text("# n=3 k=1 ell=1 mode=none\nmcry(1) [q02-,q1+] q00\ncx q01 q2\n")
    assert parsed.gates == [mcry(1.0, 0, controls=[(1, 1), (2, -1)]), x(2, [1])]


@pytest.mark.parametrize("text", [
    "# format=1\n# n=1000000 k=1 ell=1 mode=none\nmcx [q0+,q999999-] q1\n",
    "# format=1\n# n=1 k=1 ell=1 mode=none\n# ancilla=1000000\nmcx [q0+,a999999-] a0\n",
])
def test_header_wire_counts_size_nothing(text):
    """Parse, cost and export of a one-gate file stay small whatever its header says.

    A table of 10**6 wire names would take about 100 MB, far over the bound; a header
    of 10**9 would not fail such a test but exhaust memory, so the test uses 10**6.
    """
    tracemalloc.start()
    try:
        circ = parse_text(text)
        report = cost(circ)
        out = export_text(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert out == text
    assert (report.two_qubit_count, report.depth) == (4, 1)


def test_x_family_lines_take_the_kind_x_derives():
    parsed = parse_text("# n=3 k=1 ell=1 mode=none\nmcx [q0+] q1\nmcx [] q2\ncx q2 q0\n")
    assert parsed.gates == [x(1, [0]), x(2), x(0, [2])]
    assert [g.kind for g in parsed.gates] == ["cx", "x", "cx"]


def test_ancilla_wire_names():
    circ = Circuit(n_system=2, n_ancilla=1, metadata={"n": 2, "k": 2, "ell": 1,
                                                      "mode": "ancilla"})
    circ.add(x(2, controls=[(0, -1)]))
    text = export_text(circ)
    assert "mcx [q0-] a0" in text
    assert "# ancilla=1" in text
    assert parse_text(text).gates == circ.gates


def test_parse_rejects_ancilla_wire_out_of_range():
    with pytest.raises(ParseError) as info:
        parse_text("# n=2 k=1 ell=1 mode=none\n# ancilla=1\nx a3\n")
    assert info.value.line == 3
    assert "a3" in str(info.value)
    with pytest.raises(ParseError):
        parse_text("# n=2 k=1 ell=1 mode=none\nmcx [a0+] q1\n")  # no ancilla header


def test_two_qubit_cost_sums_to_cost():
    circ = random_circuit(4, 40, seed=3, n_ancilla=1)
    assert sum(two_qubit_cost(g) for g in circ.gates) == cost(circ).two_qubit_count


@settings(max_examples=200)
@given(_circuits(st.one_of(st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 2e-15]),
                           st.floats(-10, 10))))
def test_multiplexors_cost_as_their_lowering(circ):
    """A multiplexor's counts and layers are those of its cascade, angles within
    ANGLE_TOL left out, among gates of every kind; per-gate costs still sum to cost."""
    lowered = lower(circ)
    assert cost(circ) == cost(lowered)
    assert sum(two_qubit_cost(g) for g in circ.gates) == cost(circ).two_qubit_count
    assert [g for g in lowered.gates if g.kind in ("ucry", "ucrz")] == []
    assert (lowered.n_system, lowered.n_ancilla, lowered.metadata) == (
        circ.n_system, circ.n_ancilla, circ.metadata)


def test_multiplexor_line_keeps_its_control_order():
    """A multiplexor's controls are written and read in the order that sets its pattern
    bits; other gates' controls are sorted."""
    text = ("# format=1\n# n=3 k=0 ell=0 mode=baseline\n"
            "ucry(0.10000000000000001,0.20000000000000001,0.29999999999999999,0.40000000000000002)"
            " [q2+,q0+] q1\nucrz(-0) [] q2\nmcry(1) [q2+,q0-] q1\n")
    circ = parse_text(text)
    assert [g.controls for g in circ.gates] == [((2, 1), (0, 1)), (), ((0, -1), (2, 1))]
    assert circ.gates[0].params == (0.1, 0.2, 0.3, 0.4)
    assert export_text(circ) == text.replace("[q2+,q0-]", "[q0-,q2+]")
