"""Hamming-weight encoder chains (``hwk``/``hwkz``) against their lowering, and every
gate kind through every layer.

A chain is one gate whose lowering is a crbs per step and a trailing mcphase.  Its
simulation on either engine and inside blocks must equal that of its lowering bit for
bit, its cost must be the lowering's, and its text must round-trip.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circuit_matrix

from leafsep.circuit import (ANGLE_TOL, GATE_KINDS, Circuit, Gate, cost, crbs, export_text, hwk,
                             lower, mcphase, mcrz, mcry, parse_text, two_qubit_cost, x)
from leafsep.core import StateVector
from leafsep.simulator import _run, simulate

# Angles at and near ANGLE_TOL: a step of them may or may not lower to a gate
EDGE_ANGLES = np.array([0.0, -0.0, ANGLE_TOL, -ANGLE_TOL, 2 * ANGLE_TOL,
                        np.nextafter(ANGLE_TOL, 1)])


def _always(*_):
    return True


def _never(*_):
    return False


@st.composite
def _chain_circuits(draw):
    """One to three chains of size 2-9 at any weight, each fully conditioned, with no
    controls or with one or two signed controls, on any register of 2-11 wires, with
    zero, ANGLE_TOL-edge and random steps and trailing phases, on any superposition or
    a basis state."""
    wires = draw(st.integers(2, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    circ = Circuit(n_system=wires)
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(range(wires)))
        size = draw(st.integers(2, min(9, wires)))
        weight = draw(st.integers(1, size - 1))
        # each (theta, phi), the last one's phi the trailing phase: both 0, at or near
        # ANGLE_TOL, or random, in one of four mixes
        style = rng.choice(3, size=math.comb(size, weight), p=draw(st.sampled_from(
            [(0.0, 0.0, 1.0), (0.3, 0.3, 0.4), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0)])))
        params = np.where(style[:, None] == 2, rng.uniform(-7, 7, (len(style), 2)),
                          rng.choice(EDGE_ANGLES, (len(style), 2)))
        params[style == 0] = 0.0
        rest = order[size:]
        listed = [(w, int(rng.choice([1, -1])))
                  for w in rest[:draw(st.integers(1, min(2, len(rest))))]] if rest else []
        controls = draw(st.sampled_from([None, [], listed]))
        circ.add(hwk(params.reshape(-1)[:-1].tolist(), weight, order[:size], controls))
    if draw(st.booleans()):
        vec = rng.standard_normal(1 << wires) + 1j * rng.standard_normal(1 << wires)
        return circ, StateVector.from_dense(wires, vec, normalize=True)
    return circ, StateVector(wires, [int(rng.integers(1 << wires))], [1.0])


def _same(a, b) -> bool:
    return np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)


@settings(max_examples=80)
@given(_chain_circuits())
def test_chains_run_as_their_lowering(case):
    """Dense, on the support (forced at every step) and in blocks of 4 and 10 wires, a
    chain gives the state its lowering gives bit for bit; up to 6 wires, also the scalar
    oracle's."""
    circ, initial = case
    lowered = lower(circ)
    assert {g.kind for g in lowered.gates} <= {"crbs", "mcphase"}
    assert _same(simulate(circ, initial=initial).state, simulate(lowered, initial=initial).state)
    for args in ((_always,), (_always, _always, 4), (_always, _always, 10)):
        chain, _, first_dense, block_gates, gates = _run(circ, initial, *args)
        flat, _, _, flat_blocks, flat_gates = _run(lowered, initial, *args)
        assert _same(chain, flat) and block_gates == flat_blocks
        assert first_dense == gates == flat_gates == len(lowered.gates)
    if circ.n_wires <= 6:
        expected = circuit_matrix(circ) @ initial.amplitudes
        got = simulate(circ, initial=initial).state.amplitudes
        assert np.max(np.abs(got - expected)) < 1e-12


@settings(max_examples=80)
@given(_chain_circuits())
def test_chains_cost_and_round_trip_as_their_lowering(case):
    """A chain costs what its lowering costs, gate by gate and in depth, and its one
    text line reads back to the same gate, every angle bit included."""
    circ, _ = case
    assert cost(circ) == cost(lower(circ))
    assert sum(two_qubit_cost(g) for g in circ.gates) == cost(circ).two_qubit_count
    text = export_text(circ)
    assert len(text.splitlines()) == 2 + len(circ.gates)
    parsed = parse_text(text)
    assert parsed.gates == circ.gates
    assert [repr(p) for g in parsed.gates for p in g.params] == \
        [repr(p) for g in circ.gates for p in g.params]
    assert export_text(parsed) == text


@pytest.mark.parametrize("size", range(2, 10))
def test_every_size_weight_and_conditioning_runs_as_its_lowering(size):
    """Every weight of a chain on ``size`` of ``size`` + 1 wires, in all three
    conditionings, with random, zero and ANGLE_TOL-edge steps: states bit for bit,
    cost and text as in the property tests."""
    rng = np.random.default_rng(size)
    vec = rng.standard_normal(2 << size) + 1j * rng.standard_normal(2 << size)
    initial = StateVector.from_dense(size + 1, vec, normalize=True)
    for weight in range(1, size):
        count = 2 * math.comb(size, weight) - 1
        params = rng.uniform(-3, 3, count)
        params[rng.random(count) < 0.3] = 0.0
        edge = rng.random(count) < 0.2
        params[edge] = rng.choice(EDGE_ANGLES, int(edge.sum()))
        *register, spare = rng.permutation(size + 1).tolist()
        for controls in (None, [], [(spare, -1)]):
            circ = Circuit(n_system=size + 1, gates=[hwk(params.tolist(), weight, register,
                                                         controls)])
            lowered = lower(circ)
            for args in ((_never,), (_always,), (_always, _always, 4)):
                assert _same(_run(circ, initial, *args)[0], _run(lowered, initial, *args)[0])
            assert cost(circ) == cost(lowered)
            assert parse_text(export_text(circ)).gates == circ.gates


def test_chain_lowering_drops_steps_within_the_tolerance():
    """Steps whose |theta| and |phi| are both within ANGLE_TOL, and a trailing phase
    within it, emit no gate; one angle past it is enough for a step."""
    edge = np.nextafter(ANGLE_TOL, 1)
    params = (ANGLE_TOL, -ANGLE_TOL, 0.0, edge, 0.5, 0.0, -ANGLE_TOL)
    circ = Circuit(n_system=4, gates=[hwk(params, 1, (0, 1, 2, 3), [])])
    assert lower(circ).gates == [crbs(0.0, edge, 2, 1), crbs(0.5, 0.0, 1, 0)]
    circ.gates.append(hwk((0.0,) * 6 + (edge,), 1, (3, 2, 1, 0), None))
    assert lower(circ).gates[2:] == [mcphase(edge, 3, [(0, -1), (1, -1), (2, -1)])]
    assert cost(circ) == cost(lower(circ))


# One gate of every kind, on the wires of a 3 + 1-wire circuit
KIND_EXAMPLES = {
    "x": x(0),
    "cx": x(1, [0]),
    "mcx": x(3, [(0, 1), (2, -1)]),
    "mcry": mcry(0.7, 1, [(3, -1)]),
    "mcrz": mcrz(-1.1, 2, [(0, 1)]),
    "mcphase": mcphase(0.4, 0, [(1, 1), (2, 1)]),
    "crbs": crbs(1.3, 0.2, 0, 2, [(3, 1)]),
    "ucry": Gate("ucry", (1,), ((2, 1), (0, 1)), (0.1, 0.9, -0.4, 1.7)),
    "ucrz": Gate("ucrz", (3,), ((1, 1),), (0.6, -0.8)),
    "hwk": hwk((0.3, 0.1, 1.9, -0.5, 0.7), 1, (2, 0, 1), [(3, 1)]),
    "hwkz": hwk((0.8, 0.0, 1.2, 0.4, 2.1, 0.3, 0.9, 0.0, 0.6, -0.2, -0.7), 2, (0, 1, 2, 3), None),
}


def test_every_gate_kind_has_an_example():
    assert set(KIND_EXAMPLES) == set(GATE_KINDS)


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_every_gate_kind_passes_every_layer(kind):
    """Each kind exports and parses back, lowers to kinds that need no lowering, costs
    what its lowering costs and simulates on both engines to the scalar oracle's state."""
    circ = Circuit(n_system=3, n_ancilla=1, metadata={"n": 3, "k": 1, "ell": 1, "mode": "none"})
    circ.add(KIND_EXAMPLES[kind])
    assert circ.gates[0].kind == kind
    text = export_text(circ)
    assert parse_text(text).gates == circ.gates and export_text(parse_text(text)) == text
    lowered = lower(circ)
    assert lower(lowered).gates == lowered.gates
    assert cost(circ) == cost(lowered) and cost(circ).total_gate_count > 0
    rng = np.random.default_rng(len(kind))
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    initial = StateVector.from_dense(4, vec, normalize=True)
    expected = circuit_matrix(lowered) @ initial.amplitudes
    assert np.max(np.abs(circuit_matrix(circ) @ initial.amplitudes - expected)) < 1e-12
    for stay in (_never, _always):
        state = _run(circ, initial, stay)[0]
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


@pytest.mark.parametrize("controls", [0, 1, 4, 10])
def test_wide_multiplexors_cost_as_their_lowering(controls):
    """Counts and depth of multiplexors on up to 10 controls in any order, with zero
    angles and with other gates ahead of them on their wires, equal the cascade's."""
    rng = np.random.default_rng(controls)
    circ = Circuit(n_system=controls + 2)
    for zeros in (0.0, 0.5, 1.0):
        order = rng.permutation(controls + 2).tolist()
        angles = rng.uniform(-3, 3, 1 << controls)
        angles[rng.random(len(angles)) < zeros] = 0.0
        circ.add(x(order[-1], [order[0]]))
        circ.add(Gate(rng.choice(["ucry", "ucrz"]), (order[0],),
                      tuple((w, 1) for w in order[1:controls + 1]), tuple(angles.tolist())))
        circ.add(mcry(0.3, order[controls // 2 + 1]))
    assert cost(circ) == cost(lower(circ))


def test_gate_counters_count_lowered_chains():
    """A mixed-weight run that goes dense part way: the chain circuit runs bit for bit
    as its lowering and reports the same counters, each chain counted as the gates of
    its lowering."""
    from leafsep.experiments import random_mixed_leaf_separable
    from leafsep.synthesis import SynthesisConfig, synthesize_full
    psi = random_mixed_leaf_separable(16, 2, "complex", seed=[110])
    circ = synthesize_full(psi, SynthesisConfig(n=16, k=2))
    lowered = lower(circ)
    chained, flat = simulate(circ), simulate(lowered)
    assert _same(chained.state, flat.state)
    assert 0 < flat.first_dense_gate < flat.gates == len(lowered.gates)
    assert (chained.gates, chained.first_dense_gate, chained.block_gates) == (
        flat.gates, flat.first_dense_gate, flat.block_gates)
