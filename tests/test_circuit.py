import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafsep.circuit import (Circuit, Gate, ParseError, cost, crbs, export_text,
                             mcphase, mcrz, mcry, parse_text, two_qubit_cost, x)


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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


def test_depth_layers_have_disjoint_wires():
    circ = random_circuit(5, 40, seed=3)
    layer_of = {}
    wire_depth = {}
    for i, g in enumerate(circ.gates):
        layer = 1 + max((wire_depth.get(w, 0) for w in g.wires), default=0)
        for w in g.wires:
            wire_depth[w] = layer
        layer_of[i] = layer
    by_layer = {}
    for i, g in enumerate(circ.gates):
        by_layer.setdefault(layer_of[i], []).append(g)
    for gates in by_layer.values():
        seen = set()
        for g in gates:
            assert not (g.wires & seen)
            seen |= g.wires
    assert cost(circ).depth == max(layer_of.values())


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


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_random_circuits(seed):
    circ = random_circuit(4, 25, seed=seed, n_ancilla=2)
    text = export_text(circ)
    parsed = parse_text(text)
    assert parsed.n_system == circ.n_system
    assert parsed.n_ancilla == circ.n_ancilla
    assert parsed.gates == circ.gates
    assert export_text(parsed) == text  # byte-identical


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
