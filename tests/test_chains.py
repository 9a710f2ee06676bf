"""Hamming-weight encoder chains (``hwk``/``hwkz``) against their lowering, and every
gate kind through every layer.

A chain is one gate whose lowering is a crbs per step and a trailing mcphase.  The
dense engine and blocks run a chain of at least ``SCAN_MIN_PATTERNS`` patterns whose
rows are empty but for the packed one in closed form, which must leave the support of
its lowering's state with amplitudes within 1e-14; other inputs, shorter chains and
chains on the support outside blocks run their lowered gates, bit for bit.  Either
way the plan's axis order, blocks and gate counters are the lowering's.  A chain's
cost must be the lowering's, and its text must round-trip.  Such a long chain, every
step of which lowers to a gate, is costed and planned from the summaries of its shape,
which must agree with a walk of its lowered gates.
"""
import itertools
import math
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circuit_matrix

from leafsep.circuit import (ANGLE_TOL, GATE_KINDS, SCAN_MIN_PATTERNS, Circuit, Gate,
                             _chain_layers, _chain_shape, _chain_steps, _chain_summary,
                             _price_chain, cost, crbs, export_text, hwk, lower, mcphase, mcrz,
                             mcry, parse_text, two_qubit_cost, x)
from leafsep import simulator
from leafsep.core import StateVector
from leafsep.experiments import random_leaf_separable, random_mixed_leaf_separable
from leafsep.simulator import _plan, _run, simulate
from leafsep.synthesis import (MODE_ANCILLA, MODE_FREE, SynthesisConfig, synthesize_full,
                               synthesize_hwk_encoder)

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
    a basis state.  Before each chain, up to three x, cx, mcx, mcry and mcphase gates
    on its register with random signed controls leave its wires at unequal depths."""
    wires = draw(st.integers(2, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    circ = Circuit(n_system=wires)
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(range(wires)))
        size = draw(st.integers(2, min(9, wires)))
        for _ in range(draw(st.integers(0, 3))):
            target = order[rng.integers(size)]
            others = [w for w in rng.permutation(wires).tolist() if w != target]
            make = draw(st.sampled_from([x, partial(mcry, rng.uniform(-7, 7)),
                                         partial(mcphase, rng.uniform(-7, 7))]))
            circ.add(make(target=target, controls=[(w, int(rng.choice([1, -1])))
                                                   for w in others[:rng.integers(3)]]))
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


def _close(a, b) -> bool:
    """The same support, amplitudes within 1e-14: a scan against the lowered gates."""
    return np.array_equal(a.indices, b.indices) and (
        not len(a.values) or np.max(np.abs(a.values - b.values)) <= 1e-14)


def _scans(gate) -> bool:
    """Whether a gate is a chain long enough to run as one scan."""
    return gate.kind in ("hwk", "hwkz") and len(gate.params) >= 2 * SCAN_MIN_PATTERNS - 1


def _lowered_plan(circ: Circuit, width: int) -> tuple:
    """:func:`_plan`'s axis order, blocks and gate count, the blocks keyed and ended by
    simulated gate (a chain counts as its lowering's gates, a phase run as its gates)."""
    order, steps, blocks, gates = _plan(circ, width)
    at = np.cumsum([0] + [len(lower(Circuit(circ.n_system, circ.n_ancilla, [s])).gates)
                          if isinstance(s, Gate) else len(s) if isinstance(s, list)
                          else 1 for s in steps]).tolist()
    return order, {at[i]: (at[stop], *rest) for i, (stop, *rest) in blocks.items()}, gates


@settings(max_examples=80)
@given(_chain_circuits())
def test_chains_run_as_their_lowering(case):
    """Dense, on the support (forced at every step) and in blocks of 4 and 10 wires, a
    chain gives the support its lowering gives, with the same counters and peak, and
    amplitudes within 1e-14 (bit for bit where no chain scans: from a superposition,
    which populates every row a chain reads, on the support outside blocks, or with
    short chains only); its plan has the lowering's axis order and blocks; up to 6
    wires, it also gives the scalar oracle's state."""
    circ, initial = case
    lowered = lower(circ)
    assert {h.kind for g in circ.gates if g.kind in ("hwk", "hwkz")
            for h in lower(Circuit(circ.n_system, gates=[g])).gates} <= {"crbs", "mcphase"}
    agree = _close if len(initial.indices) == 1 and any(map(_scans, circ.gates)) else _same
    assert agree(simulate(circ, initial=initial).state, simulate(lowered, initial=initial).state)
    for args in ((_always,), (_always, _always, 4), (_always, _always, 10)):
        chain, *counters = _run(circ, initial, *args)
        flat, *flat_counters = _run(lowered, initial, *args)
        assert (_same if len(args) == 1 else agree)(chain, flat)
        assert counters == flat_counters
        assert counters[1] == counters[3] == len(lowered.gates)  # first dense gate, gates
    for width in (0, 4, 10):
        assert _lowered_plan(circ, width) == _lowered_plan(lowered, width)
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
    conditionings, with random, zero and ANGLE_TOL-edge steps, on a random dense state,
    which populates every row a chain reads: each chain runs its lowered gates, bit for
    bit, dense, on the support and in blocks.  Cost and text as in the property
    tests."""
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


@pytest.mark.parametrize("size", range(2, 12))
def test_chain_summary_is_a_walk_of_its_lowering(size):
    """Every weight of a fully live chain on ``size`` wires, as an hwkz and as an hwk with
    zero, one or two listed controls, with its trailing phase live and dead: the summaries
    of its shape, which are keyed from SCAN_MIN_PATTERNS patterns on, agree with a walk of
    the lowered gates: the tally, the layering from random per-wire depths, the loads, the
    control counts and the first gate; and consecutive lowered gates share a wire (the
    premise of the layering)."""
    rng = np.random.default_rng([116, size])
    for weight, listed, phase in itertools.product(range(1, size), (None, 0, 1, 2), (0.0, 0.7)):
        order = rng.permutation(size + 2).tolist()
        controls = None if listed is None else [(w, int(rng.choice([1, -1])))
                                                 for w in order[size:size + listed]]
        params = rng.uniform(0.1, 3, 2 * math.comb(size, weight) - 1)
        params[-1] = phase
        gate = hwk(params.tolist(), weight, order[:size], controls)
        shape = (gate.targets, weight, None if controls is None else gate.controls, bool(phase))
        keyed = math.comb(size, weight) >= SCAN_MIN_PATTERNS
        assert _chain_shape(gate) == (shape if keyed else None)
        depth = dict(enumerate(rng.integers(0, 2 * size, size + 2).tolist()))
        walked, tally, load, counts, previous = dict(depth), Counter(), Counter(), [], None
        lowered = _chain_steps(gate)
        for kind, targets, ctrls, _ in lowered:
            wires = [*targets, *(w for w, _ in ctrls)]
            assert previous is None or previous & set(wires)
            previous = set(wires)
            tally[kind, len(ctrls)] += 1
            counts.append(len(ctrls))
            layer = 1 + max(walked[w] for w in wires)
            for w in wires:
                walked[w] = layer
                load[w, len(ctrls)] += 1
        priced, priced_tally = dict(depth), Counter()
        _price_chain(*_chain_layers(*shape), priced_tally, priced)
        assert priced_tally == tally and priced == walked
        summary = _chain_summary(*shape)
        assert summary.controls == bytes(counts)
        assert summary.first == lowered[0][1:3]
        assert Counter({(w, c): k for c, wires, counts in summary.loads
                        for w, k in zip(wires, counts)}) == load


def test_a_chain_with_a_dead_middle_step_costs_and_plans_as_its_lowering():
    """A chain whose middle step's theta and phi are drawn from EDGE_ANGLES, so that the
    step may lower to no gate, costs and plans as its lowering after other gates on its
    wires, with the summary cache cleared and with it warm from the same shape fully
    live."""
    rng = np.random.default_rng(117)
    for theta, phi in itertools.product(EDGE_ANGLES, repeat=2):
        for controls in (None, [], [(7, -1)]):
            params = rng.uniform(0.1, 3, 2 * math.comb(6, 3) - 1)
            live = hwk(params.tolist(), 3, (5, 0, 3, 1, 4, 2), controls)
            params[18:20] = theta, phi
            dead = hwk(params.tolist(), 3, live.targets, controls)
            circ = Circuit(n_system=8, gates=[x(0), mcry(0.4, 3, [(6, 1)]), dead])
            lowered = lower(circ)
            _chain_summary.cache_clear()
            _chain_layers.cache_clear()
            for shapes in ("cleared", "warm"):
                assert cost(circ) == cost(lowered), shapes
                for width in (0, 4, 10):
                    assert _lowered_plan(circ, width) == _lowered_plan(lowered, width), shapes
                cost(Circuit(n_system=8, gates=[live]))
                _plan(Circuit(n_system=8, gates=[live]), 10)


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


def test_chain_on_the_support_goes_dense_where_its_lowering_does():
    """A chain on the support outside blocks runs its lowered gates as steps, so a run
    that leaves the support inside the chain leaves it at the gate its lowering's run
    does and goes on with the rest of the chain dense, bit for bit."""
    circ = Circuit(n_system=6, gates=[x(4), x(5), hwk(np.linspace(0.3, 2.1, 19), 2,
                                                         range(1, 6), None)])
    lowered = lower(circ)
    chain, *counters = _run(circ, None, lambda size: size < 4)
    flat, *flat_counters = _run(lowered, None, lambda size: size < 4)
    assert _same(chain, flat) and counters == flat_counters
    assert 2 < counters[1] < counters[3] == len(lowered.gates)  # first dense gate, gates


def _refuse(*_):
    raise AssertionError("a compiled chain left the closed form")


def _compiled_chain_circuits():
    """Compiled circuits, n <= 12: fixed- and mixed-weight targets in both modes on
    leaves of 4 and 6 qubits, whose chains have 4 to 20 patterns, and the standalone
    encoder."""
    for n, k in ((8, 4), (12, 6), (12, 4)):
        for psi in (random_leaf_separable(n, k, n // 2, "complex", seed=[112, n, k]),
                    random_mixed_leaf_separable(n, k, "complex", seed=[113, n, k])):
            for mode in (MODE_FREE, MODE_ANCILLA):
                yield synthesize_full(psi, SynthesisConfig(n=n, k=k, mode=mode))
    for n, w in ((9, 4), (12, 5)):
        rng = np.random.default_rng([114, n])
        amps = rng.standard_normal(math.comb(n, w)) + 1j * rng.standard_normal(math.comb(n, w))
        circ = Circuit(n_system=n, gates=[x(q) for q in range(n - w, n)])
        circ.extend(synthesize_hwk_encoder(n, w, amps / np.linalg.norm(amps)))
        yield circ


def test_compiled_chains_take_the_closed_form(monkeypatch):
    """A compiled chain meets its weight-w rows empty but for the packed one, so every
    chain of at least SCAN_MIN_PATTERNS patterns runs in closed form: with the lowered
    fallback made to raise, each circuit still runs, dense and in blocks, to its
    lowering's support and counters, and the closed form runs once per such chain on
    the dense engine.  ``simulate`` reports the lowering's gates, first dense gate,
    block gates and peak support."""
    calls = []
    closed = simulator._from_packed

    monkeypatch.setattr(simulator, "_from_packed", lambda chain: calls.append(chain) or
                        closed(chain))
    monkeypatch.setattr(simulator, "_apply_lowered", _refuse)
    scanned = 0
    for circ in _compiled_chain_circuits():
        lowered = lower(circ)
        chains = sum(map(_scans, circ.gates))
        scanned += chains
        for args in ((_never,), (_always, _always)):
            calls.clear()
            got, *counters = _run(circ, None, *args)
            flat, *flat_counters = _run(lowered, None, *args)
            assert _close(got, flat) and counters == flat_counters
            assert len(calls) == chains or args[0] is _always
        report, flat = simulate(circ), simulate(lowered)
        assert (report.gates, report.first_dense_gate, report.block_gates,
                report.peak_support) == (flat.gates, flat.first_dense_gate, flat.block_gates,
                                         flat.peak_support)
    assert scanned > 50


@pytest.mark.parametrize("n, w", [(16, 2), (14, 7)])
def test_a_dense_whole_register_scan_holds_no_more_than_its_lowering(monkeypatch, n, w):
    """The standalone encoder run dense scans its whole register in closed form, where
    its gather and scatter index every weight-w row with n index arrays: the run's peak
    traced memory is no more than its lowering's, at a weight that reads few rows and
    at the weight that reads the most."""
    monkeypatch.setattr(simulator, "_apply_lowered", _refuse)
    rng = np.random.default_rng([115, n, w])
    amps = rng.standard_normal(math.comb(n, w)) + 1j * rng.standard_normal(math.comb(n, w))
    circ = Circuit(n_system=n, gates=[x(q) for q in range(n - w, n)])
    circ.extend(synthesize_hwk_encoder(n, w, amps / np.linalg.norm(amps)))
    states, peaks = [], []
    for c in (circ, lower(circ)):
        tracemalloc.start()
        try:
            states.append(_run(c, None, _never)[0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert _close(*states)
    assert peaks[0] <= peaks[1]
