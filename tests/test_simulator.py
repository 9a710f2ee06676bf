import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circuit_matrix, support_gap
from test_circuit import random_circuit

from leafsep.circuit import Circuit, Gate, crbs, lower, mcphase, mcry, mcrz, parse_text, x
from leafsep import simulator
from leafsep.core import StateVector
from leafsep.experiments import random_leaf_separable, random_mixed_leaf_separable
from leafsep.simulator import (_apply_gate, _block_pays, _plan, _run, _support_pays, fidelity,
                               simulate, system_purity)
from leafsep.synthesis import (MODE_ANCILLA, MODE_FREE, SynthesisConfig, synthesize_full,
                               synthesize_general_baseline)


def test_initial_is_a_state_not_a_bitstring():
    circ = Circuit(n_system=2)
    circ.add(x(0))
    assert simulate(circ, initial=StateVector.basis(2, "01")).state.amplitude("11") == 1.0
    with pytest.raises(TypeError, match="initial must be None or a StateVector"):
        simulate(circ, initial="01")
    circ = Circuit(n_system=4, n_ancilla=2)
    with pytest.raises(ValueError, match=r"initial state has 3 wires, circuit has 4\+2"):
        simulate(circ, initial=StateVector.basis(3, "000"))


def test_empty_circuit_preserves_input():
    psi = StateVector.from_terms(3, {"010": 0.6, "111": 0.8})
    res = simulate(Circuit(n_system=3), initial=psi)
    assert np.allclose(res.state.amplitudes, psi.amplitudes)


@pytest.mark.parametrize("ancillas", [0, 2])
def test_empty_wide_circuit_stays_on_its_support(ancillas):
    """A gate-less circuit on 20 wires holds |0...0> as one entry, not 2^20 amplitudes."""
    res = simulate(Circuit(n_system=20, n_ancilla=ancillas),
                   target=StateVector.basis(20, "0" * 20))
    assert (res.peak_support, res.first_dense_gate) == (1, 0)
    assert (res.state.n, res.state.indices.tolist(), res.state.values.tolist()) == (
        20 + ancillas, [0], [1.0])
    assert res.fidelity == res.purity == 1.0


def test_worked_example_circuit_prepares_target(worked_example):
    circ = synthesize_full(worked_example, SynthesisConfig(n=4, k=2))
    res = simulate(circ, target=worked_example)
    assert res.fidelity >= 1 - 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_norm_preserved_random_circuits(seed):
    circ = random_circuit(8, 200, seed=seed)
    rng = np.random.default_rng(seed + 100)
    vec = rng.standard_normal(1 << 8) + 1j * rng.standard_normal(1 << 8)
    psi = StateVector.from_dense(8, vec, normalize=True)
    res = simulate(circ, initial=psi)
    assert abs(res.norm - 1.0) < 1e-10


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_matches_dense_matrix_oracle(n, seed):
    circ = random_circuit(n, 12, seed=seed)
    mat = circuit_matrix(circ)
    # unitarity of the oracle matrix itself
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(1 << n))) < 1e-12
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    psi = StateVector.from_dense(n, vec, normalize=True)
    res = simulate(circ, initial=psi)
    assert np.max(np.abs(res.state.amplitudes - mat @ psi.amplitudes)) < 1e-12


@st.composite
def _skewed_circuits(draw):
    """Small circuits whose every gate touches one ``hot`` wire, plus runs of
    fully controlled phases that repeat an amplitude, with any initial state."""
    n_system = draw(st.integers(1, 5))
    n_ancilla = draw(st.integers(0, 2))
    wires = n_system + n_ancilla
    hot = draw(st.integers(0, wires - 1))
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    polarity = st.sampled_from([1, -1])
    circ = Circuit(n_system=n_system, n_ancilla=n_ancilla)
    circ.add(mcry(draw(angle), hot))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["x", "mcry", "mcrz", "mcphase", "crbs", "phases"]))
        if kind == "phases":
            t = draw(st.integers(0, wires - 1))
            others = [w for w in range(wires) if w != t]
            patterns = draw(st.lists(st.lists(polarity, min_size=len(others),
                                              max_size=len(others)), min_size=1, max_size=4))
            for pattern in patterns + patterns[:1]:
                circ.add(mcphase(draw(angle), t, list(zip(others, pattern))))
            continue
        n_targets = 2 if kind == "crbs" else 1
        if wires < n_targets:
            continue
        targets = draw(st.permutations(range(wires)))[:n_targets]
        controls = [(w, draw(polarity)) for w in range(wires)
                    if w not in targets and (w == hot or draw(st.booleans()))]
        if kind == "x":
            circ.add(x(targets[0], controls))
        elif kind == "crbs":
            circ.add(crbs(draw(angle), draw(angle), targets[0], targets[1], controls))
        else:
            maker = {"mcry": mcry, "mcrz": mcrz, "mcphase": mcphase}[kind]
            circ.add(maker(draw(angle), targets[0], controls))
    form = draw(st.sampled_from(["none", "bits", "system", "all"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if form == "none":
        initial = None
    elif form == "bits":
        bits = "".join(str(b) for b in rng.integers(0, 2, n_system))
        initial = StateVector.basis(n_system, bits)
    else:
        n = n_system if form == "system" else wires
        vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        initial = StateVector.from_dense(n, vec, normalize=True)
    return circ, hot, initial


def _start_vector(circ, initial) -> np.ndarray:
    """Wire-order amplitudes of ``initial`` over every wire of ``circ``."""
    if initial is None:
        return np.eye(1 << circ.n_wires)[0]
    vec = initial.amplitudes
    if initial.n == circ.n_system:
        vec = np.kron(vec, np.eye(1 << circ.n_ancilla)[0])
    return vec


@settings(max_examples=80)
@given(_skewed_circuits())
def test_planned_layout_matches_oracle(case):
    """The dense engine in the planned layout, and the support engine on its own,
    without a wire floor or a share limit."""
    circ, hot, initial = case
    order, *_ = _plan(circ)
    assert order[0] == hot
    expected = circuit_matrix(circ) @ _start_vector(circ, initial)
    res = simulate(circ, initial=initial)
    assert res.first_dense_gate == 0 and res.peak_support == 1 << circ.n_wires
    assert np.max(np.abs(res.state.amplitudes - expected)) < 1e-12
    final, peak, first_dense, *_ = _run(circ, initial, _always)
    assert first_dense == len(circ.gates) and peak <= 1 << circ.n_wires
    assert np.max(np.abs(final.amplitudes - expected)) < 1e-12


def _always(*_):
    return True


def _never(*_):
    return False


@st.composite
def _block_circuits(draw):
    """Circuits made of runs of gates on at most 4 wires each, x/cx/mcx among them,
    started on a few basis states that differ only on the first run's wires (so
    that one rest carries several local inputs and their outputs meet), on any
    superposition, or on a basis state."""
    n_system = draw(st.integers(2, 5))
    n_ancilla = draw(st.integers(0, 2))
    wires = n_system + n_ancilla
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    polarity = st.sampled_from([1, -1])
    circ = Circuit(n_system=n_system, n_ancilla=n_ancilla)
    spans = []
    for _ in range(draw(st.integers(1, 3))):
        span = draw(st.permutations(range(wires)))[:draw(st.integers(2, min(4, wires)))]
        spans.append(span)
        for _ in range(draw(st.integers(2, 10))):
            kind = draw(st.sampled_from(["x", "mcry", "mcrz", "mcphase", "crbs"]))
            order = draw(st.permutations(span))
            n_targets = 2 if kind == "crbs" else 1
            controls = [(w, draw(polarity)) for w in order[n_targets:] if draw(st.booleans())]
            if kind == "x":
                circ.add(x(order[0], controls))
            elif kind == "crbs":
                circ.add(crbs(draw(angle), draw(angle), order[0], order[1], controls))
            else:
                maker = {"mcry": mcry, "mcrz": mcrz, "mcphase": mcphase}[kind]
                circ.add(maker(draw(angle), order[0], controls))
    form = draw(st.sampled_from(["inputs", "inputs", "any", "bits"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if form == "bits":
        bits = "".join(str(b) for b in rng.integers(0, 2, n_system))
        return circ, StateVector.basis(n_system, bits)
    vec = rng.standard_normal(1 << wires) + 1j * rng.standard_normal(1 << wires)
    if form == "inputs":
        base = int(rng.integers(0, 1 << wires))
        flips = rng.integers(0, 2, (int(rng.integers(2, 6)), len(spans[0])))
        keep = {base ^ sum(1 << (wires - 1 - w) for w, f in zip(spans[0], row) if f)
                for row in flips}
        vec[[i for i in range(1 << wires) if i not in keep]] = 0
    return circ, StateVector.from_dense(wires, vec, normalize=True)


@settings(max_examples=80)
@given(_block_circuits())
def test_blocks_match_oracle_and_dense_engine(case):
    """Every run of gates on at most 4 wires as one block step on the support."""
    circ, initial = case
    expected = circuit_matrix(circ) @ _start_vector(circ, initial)
    final, peak, first_dense, block_gates, gates = _run(circ, initial, _always, _always, width=4)
    assert first_dense == gates == len(circ.gates) and block_gates > 1
    assert peak <= 1 << circ.n_wires
    assert np.max(np.abs(final.amplitudes - expected)) < 1e-12
    dense, *_ = _run(circ, initial, _never)
    assert support_gap(final, dense) <= 1e-15


@st.composite
def _multiplexor_circuits(draw):
    """One to four multiplexors of either kind on 1-10 wires, each on any target with
    positive controls on any of the other wires in any order, with random angles (none,
    some or all of them zero), on any superposition."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    circ = Circuit(n_system=n)
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(n)))
        controls = tuple((w, 1) for w in order[1:1 + draw(st.integers(0, n - 1))])
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, 1 << len(controls))
        angles[rng.random(len(angles)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
        circ.add(Gate(draw(st.sampled_from(["ucry", "ucrz"])), (order[0],), controls,
                      tuple(angles.tolist())))
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return circ, StateVector.from_dense(n, vec, normalize=True)


@settings(max_examples=80)
@given(_multiplexor_circuits())
def test_multiplexors_match_their_lowering(case):
    """Each multiplexor is one step on the dense engine, on the support engine (forced
    for every step) and inside blocks, and all three give the state of its Gray-code
    cascade run gate by gate; on up to 6 wires, also the scalar oracle's."""
    circ, initial = case
    expected = simulate(lower(circ), initial=initial).state.amplitudes
    if circ.n_wires <= 6:
        oracle = circuit_matrix(circ) @ initial.amplitudes
        assert np.max(np.abs(oracle - expected)) < 1e-12
    dense = simulate(circ, initial=initial)
    assert dense.first_dense_gate == 0
    assert np.max(np.abs(dense.state.amplitudes - expected)) < 1e-12
    support, _, first_dense, _, gates = _run(circ, initial, _always)
    assert first_dense == gates == len(circ.gates)  # a multiplexor is one simulated gate
    assert np.max(np.abs(support.amplitudes - expected)) < 1e-12
    blocked, *_ = _run(circ, initial, _always, _always, width=4)
    assert np.max(np.abs(blocked.amplitudes - expected)) < 1e-12


@pytest.mark.parametrize("kind", ["ucry", "ucrz"])
def test_one_wire_multiplexor_matches_oracle(kind):
    """On a one-wire circuit a multiplexor's halves and angle array have no axes left."""
    circ = Circuit(n_system=1)
    circ.extend([Gate(kind, (0,), (), (0.3,)), x(0), Gate(kind, (0,), (), (0.5,))])
    psi = StateVector(1, [0, 1], [0.6, 0.8])
    expected = circuit_matrix(circ) @ psi.amplitudes
    for stay in (_never, _always):
        final, *_ = _run(circ, psi, stay)
        assert np.max(np.abs(final.amplitudes - expected)) < 1e-12


@pytest.mark.parametrize("kind", ["ry", "rz"])
@pytest.mark.parametrize("m", range(1, 11))
def test_gray_cascade_simulates_to_its_angles(m, kind):
    """A uniformly controlled rotation and its Gray-code cascade, each simulated on
    every pattern of its controls at once, apply RY or RZ(angles[p]) on pattern p."""
    rng = np.random.default_rng([m, len(kind)])
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, 1 << m)
    controls = [int(w) for w in rng.permutation(m + 1) if w != m // 2]  # controls[0]: p's top bit
    circ = Circuit(n_system=m + 1)
    circ.add(Gate("uc" + kind, (m // 2,), tuple((w, 1) for w in controls), tuple(angles.tolist())))
    start = np.array([0.6, 0.8j])  # the target's state, alone
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    if kind == "ry":
        out = np.stack([c * start[0] - s * start[1], s * start[0] + c * start[1]], axis=1)
    else:
        out = np.stack([np.exp(-0.5j * angles) * start[0], np.exp(0.5j * angles) * start[1]],
                       axis=1)
    p = np.arange(1 << m)
    index = sum(((p >> (m - 1 - j)) & 1) << (m - w) for j, w in enumerate(controls))
    initial, expected = (np.zeros(2 << m, dtype=complex) for _ in range(2))
    for bit in (0, 1):
        initial[index + (bit << (m - m // 2))] = start[bit] / math.sqrt(1 << m)
        expected[index + (bit << (m - m // 2))] = out[:, bit] / math.sqrt(1 << m)
    for run in (circ, lower(circ)):
        res = simulate(run, initial=StateVector.from_dense(m + 1, initial))
        assert np.max(np.abs(res.state.amplitudes - expected)) < 1e-12


def _gate_by_gate(circ: Circuit) -> np.ndarray:
    """Wire-order amplitudes of ``circ`` run densely on |0...0>, one gate a step."""
    state = np.zeros([2] * circ.n_wires, dtype=np.complex128)
    state[(0,) * circ.n_wires] = 1.0
    for gate in circ.gates:
        _apply_gate(state, (gate.kind, gate.targets, gate.controls, gate.params),
                    list(range(circ.n_wires)))
    return state.reshape(-1)


def _general_state(n: int, kind: str) -> StateVector:
    """A state on all 2^n basis states: real, complex, or the moduli of a real one."""
    rng = np.random.default_rng([n, len(kind)])
    vec = rng.standard_normal(1 << n) + (1j * rng.standard_normal(1 << n)
                                         if kind == "complex" else 0.0)
    return StateVector.from_dense(n, np.abs(vec) if kind == "nonneg" else vec, normalize=True)


@pytest.mark.parametrize("kind", ["real", "complex", "nonneg"])
@pytest.mark.parametrize("n", range(2, 11))
def test_baseline_runs_match_gate_by_gate(n, kind):
    """A general-state baseline is one multiplexor step per qubit (two where signs or
    phases vary), and its state is that of its lowering run gate by gate."""
    psi = _general_state(n, kind)
    circ = synthesize_general_baseline(psi)
    res = simulate(circ, target=psi)
    phases = [g for g in circ.gates if g.kind == "ucrz"]
    assert [g.targets for g in circ.gates if g.kind == "ucry"] == [(j,) for j in range(n)]
    assert len(circ.gates) == n + len(phases) and (kind == "nonneg") == (not phases)
    assert np.max(np.abs(res.state.amplitudes - _gate_by_gate(lower(circ)))) < 1e-13
    assert abs(res.fidelity - 1.0) < 1e-10


def test_dense_baseline_run_peak_memory():
    """A 15-qubit baseline runs dense from its first gate.  Beyond its plan, its peak
    stays under the bound of the ancilla run below: a multiplexor's angle arrays are
    at most a quarter of the tensor each."""
    psi = random_leaf_separable(15, 5, 5, "nonneg", seed=4)
    circ = synthesize_general_baseline(psi)
    tracemalloc.start()
    try:
        plan = _plan(circ)
        held = tracemalloc.get_traced_memory()[0]
        del plan
        tracemalloc.reset_peak()
        res = simulate(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.first_dense_gate == 0
    assert peak - held < 3.25 * 16 * (1 << 15)


def test_support_engine_densifies_mid_run():
    """Each mcry doubles the support: the third finds 4 entries, so it and every
    later gate run dense."""
    circ = Circuit(n_system=4, n_ancilla=1)
    for w in range(4):
        circ.add(mcry(0.3 + w, w))
    circ.add(x(4, controls=[(0, 1), (3, -1)]))
    circ.add(crbs(0.9, 0.4, 1, 2, controls=[(4, 1)]))
    final, peak, first_dense, *_ = _run(circ, None, lambda size: size < 4)
    assert (first_dense, peak) == (2, 1 << 5)
    dense, *_ = _run(circ, None, _never)
    assert support_gap(final, dense) <= 1e-15
    assert np.max(np.abs(final.amplitudes - circuit_matrix(circ)[:, 0])) < 1e-12


def test_dense_initial_state_can_start_dense():
    circ = random_circuit(5, 40, seed=7)
    rng = np.random.default_rng(7)
    psi = StateVector.from_dense(5, rng.standard_normal(32) + 1j * rng.standard_normal(32), normalize=True)
    final, peak, first_dense, *_ = _run(circ, psi, lambda size: size < 32)
    assert (first_dense, peak) == (0, 32)
    assert final == _run(circ, psi, _never)[0]
    _, peak, first_dense, *_ = _run(circ, psi, _always)
    assert (first_dense, peak) == (len(circ.gates), 32)


def test_simulate_runs_sixteen_wires_on_the_support():
    """Four 4-qubit leaves in free mode: 16 wires, and the weight-8 target's
    C(16, 8) basis states are all the support ever holds."""
    psi = random_leaf_separable(16, 4, 8, "complex", seed=[110])
    circ = synthesize_full(psi, SynthesisConfig(n=16, k=4))
    assert circ.n_wires == 16
    res = simulate(circ, target=psi)
    assert (res.first_dense_gate, res.peak_support) == (res.gates, math.comb(16, 8))
    assert abs(res.fidelity - 1.0) < 1e-10 and abs(res.purity - 1.0) < 1e-10
    dense, *_ = _run(circ, None, _never)
    assert support_gap(res.state, dense) <= 1e-15


@pytest.mark.parametrize("n, k, mode", [(18, 9, MODE_FREE), (20, 10, MODE_FREE),
                                        (16, 2, MODE_FREE), (18, 9, MODE_ANCILLA)])
def test_compiled_fixed_weight_runs_stay_on_the_support(n, k, mode):
    """Free mode at n = 18, k = 9 and n = 20, k = 10, and the shapes of the
    narrow-leaves and wide-leaves-ancilla benchmarks: every gate runs on the
    support, which never holds more than a quarter of 2^wires."""
    psi = random_leaf_separable(n, k, n // 2, "complex", seed=[4, 0])
    circ = synthesize_full(psi, SynthesisConfig(n=n, k=k, mode=mode))
    res = simulate(circ, target=psi)
    assert res.first_dense_gate == res.gates == len(lower(circ).gates)
    assert res.peak_support <= 1 << (circ.n_wires - 2)
    assert abs(res.fidelity - 1.0) < 1e-10 and abs(res.purity - 1.0) < 1e-10


def test_simulate_moves_a_mixed_weight_run_to_dense():
    """Mixed weights on 16 wires in 2-qubit leaves: the support grows past a quarter
    of 2^16, and the run finishes dense."""
    psi = random_mixed_leaf_separable(16, 2, "complex", seed=[110])
    circ = synthesize_full(psi, SynthesisConfig(n=16, k=2))
    res = simulate(circ, target=psi)
    assert 0 < res.first_dense_gate < res.gates and res.peak_support == 1 << 16
    assert abs(res.fidelity - 1.0) < 1e-10 and abs(res.purity - 1.0) < 1e-10
    dense, *_ = _run(circ, None, _never)
    assert support_gap(res.state, dense) <= 1e-15


def test_fifteen_wires_run_no_blocks():
    psi = random_leaf_separable(15, 5, 7, "complex", seed=[110])
    circ = synthesize_full(psi, SynthesisConfig(n=15, k=5))
    res = simulate(circ, target=psi)
    assert circ.n_wires == 15 and (res.first_dense_gate, res.block_gates) == (0, 0)
    assert abs(res.fidelity - 1.0) < 1e-10


def test_leaf_encoders_run_in_blocks():
    """Two 9-qubit leaves in ancilla mode: each leaf encoder acts on its leaf and
    its ancilla only, 10 wires, and runs as blocks on the support."""
    psi = random_leaf_separable(18, 9, 9, "complex", seed=[110])
    circ = synthesize_full(psi, SynthesisConfig(n=18, k=9, mode=MODE_ANCILLA))
    leaf_wires = [set(range(9)) | {18}, set(range(9, 18)) | {19}]
    encoders = 0
    for gate in reversed(lower(circ).gates):
        if not any(gate.wires <= wires for wires in leaf_wires):
            break
        encoders += 1
    res = simulate(circ, target=psi)
    assert encoders > 1000 and res.gates >= res.block_gates >= encoders
    assert res.first_dense_gate == res.gates == len(lower(circ).gates)
    assert abs(res.fidelity - 1.0) < 1e-10 and abs(res.purity - 1.0) < 1e-10
    dense, *_ = _run(circ, None, _never)
    assert support_gap(res.state, dense) <= 1e-15


def test_thirty_wire_ancilla_run_needs_no_dense_state():
    """n = 24 in 4-qubit leaves with ancillas is 30 wires: a dense state would take
    16 GiB, the weight-3 target's support 2 024 entries."""
    tracemalloc.start()
    try:
        psi = random_leaf_separable(24, 4, 3, "complex", seed=[111])
        circ = synthesize_full(psi, SynthesisConfig(n=24, k=4, mode=MODE_ANCILLA))
        res = simulate(circ, target=psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert circ.n_wires == 30 and res.peak_support == math.comb(24, 3)
    assert res.fidelity >= 1 - 1e-10 and res.purity >= 1 - 1e-10
    assert peak < 64 << 20


def test_dense_ancilla_run_peak_memory():
    """An 18-wire ancilla-mode run from a dense input on every wire goes dense from
    its first gate and ends on nearly all 2^18 amplitudes.  Its peak stays at the
    gate kernel's (about 3 amplitude arrays of 2^wires): neither the output's
    support nor the diagnostics copy the state whole."""
    psi = random_mixed_leaf_separable(16, 8, seed=1)
    circ = synthesize_full(psi, SynthesisConfig(n=16, k=8, mode=MODE_ANCILLA))
    amps = np.random.default_rng(0).standard_normal(1 << 18).astype(complex)
    initial = StateVector.from_dense(18, amps, normalize=True)
    tracemalloc.start()
    try:
        res = simulate(circ, initial=initial, target=psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert circ.n_wires == 18 and res.first_dense_gate == 0
    assert len(res.state.indices) > 1 << 17
    assert peak < 3.25 * 16 * (1 << 18)


def test_block_rule_weighs_columns_and_support():
    """A long block on few columns pays; one on many columns, or a short one on a
    large support whose gates match few entries, does not."""
    assert _block_pays(520, 2 ** 10 * 40, 30.0, 10, 512)
    assert not _block_pays(5, 2 ** 10 * 4, 0.2, 231, 1107)
    assert not _block_pays(3, 2 ** 10 * 2, 0.1, 5, 150_000)
    assert _block_pays(30, 2 ** 5 * 8, 3.0, 6, 30_000)


def test_support_rule_is_a_quarter_share_from_sixteen_wires():
    """Never below the wire floor; from it, a support of at most a quarter of 2^wires."""
    assert not any(_support_pays(15, size) for size in (1, 1 << 13))
    assert _support_pays(16, 1) and _support_pays(16, 1 << 14)
    assert not _support_pays(16, (1 << 14) + 1)
    assert _support_pays(20, 1 << 18) and not _support_pays(20, (1 << 18) + 1)


@pytest.mark.parametrize("wires, share, first_dense",
                         [(15, 1, 0), (16, 1 << 14, 1), (16, (1 << 14) + 1, 0)])
def test_run_starts_on_a_support_of_at_most_a_quarter(wires, share, first_dense):
    """At 15 wires even one entry runs dense from gate 0.  At 16 wires a support of
    exactly a quarter of 2^16 starts on the support, and the mcry that doubles it
    sends the rest dense; one entry more runs dense from gate 0."""
    psi = StateVector(wires, np.arange(share), np.ones(share), normalize=True)
    circ = Circuit(n_system=wires)
    circ.add(mcry(0.7, 0))  # no entry has wire 0 set: every one gains a partner
    circ.add(x(1, controls=[(w, -1) for w in range(2, 12)]))  # too wide to share a block
    res = simulate(circ, initial=psi)
    assert (res.first_dense_gate, res.peak_support) == (first_dense, 1 << wires)
    dense, *_ = _run(circ, psi, _never)
    assert support_gap(res.state, dense) <= 1e-15


def test_crbs_theta_zero_is_identity():
    circ = Circuit(n_system=2)
    circ.add(crbs(0.0, 0.0, 0, 1))
    assert np.max(np.abs(circuit_matrix(circ) - np.eye(4))) < 1e-15


def test_crbs_theta_pi_swaps_pair_populations():
    circ = Circuit(n_system=2)
    circ.add(crbs(math.pi, 0.0, 0, 1))
    res10 = simulate(circ, initial=StateVector.basis(2, "10"))
    assert abs(abs(res10.state.amplitude("01")) - 1.0) < 1e-12
    res01 = simulate(circ, initial=StateVector.basis(2, "01"))
    assert abs(abs(res01.state.amplitude("10")) - 1.0) < 1e-12
    for basis in ("00", "11"):
        res = simulate(circ, initial=StateVector.basis(2, basis))
        assert abs(res.state.amplitude(basis) - 1.0) < 1e-12


def test_crbs_matches_stated_action():
    theta, phi = 1.1, -0.7
    circ = Circuit(n_system=2)
    circ.add(crbs(theta, phi, 0, 1))
    res = simulate(circ, initial=StateVector.basis(2, "10"))
    amp10 = res.state.amplitude("10")
    amp01 = res.state.amplitude("01")
    assert abs(amp10 - np.exp(0.5j * phi) * math.cos(theta / 2)) < 1e-12
    assert abs(amp01 - np.exp(-0.5j * phi) * math.sin(theta / 2)) < 1e-12


def test_fidelity_examples(worked_example, intermediate_example):
    assert abs(fidelity(worked_example, worked_example) - 1.0) < 1e-12
    a = StateVector.basis(2, "00")
    b = StateVector.basis(2, "11")
    assert fidelity(a, b) == 0.0
    # |<Psi|psi_target>|^2 = (1/4 + 1/2)^2 = 9/16
    overlap_sq = fidelity(intermediate_example, worked_example)
    assert abs(overlap_sq - 9 / 16) < 1e-12


def test_fidelity_global_phase_invariant(worked_example):
    rotated = StateVector.from_dense(4, worked_example.amplitudes * np.exp(0.321j))
    assert abs(fidelity(rotated, worked_example) - 1.0) < 1e-12


def test_reduced_fidelity_and_purity():
    # ancilla in |1>: product state, purity 1, fidelity vs system target 1
    circ = Circuit(n_system=1, n_ancilla=1)
    circ.add(mcry(math.pi / 2, 0))
    circ.add(x(1))
    target = StateVector.from_dense(1, [math.cos(math.pi / 4), math.sin(math.pi / 4)])
    res = simulate(circ, target=target)
    assert res.fidelity >= 1 - 1e-12
    assert res.purity >= 1 - 1e-12

    # entangle system with ancilla: purity and fidelity drop to 1/2
    bell = Circuit(n_system=1, n_ancilla=1)
    bell.add(mcry(math.pi / 2, 0))
    bell.add(x(1, controls=[(0, 1)]))
    res = simulate(bell, target=StateVector.from_dense(1, [1, 1], normalize=True))
    assert abs(res.purity - 0.5) < 1e-12
    assert abs(res.fidelity - 0.5) < 1e-12


def test_fidelity_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        fidelity(StateVector.basis(2, "00"), StateVector.basis(3, "000"))


def test_initial_ancilla_embedding():
    circ = Circuit(n_system=2, n_ancilla=1)
    res = simulate(circ, initial=StateVector.from_terms(2, {"10": 1.0}))
    assert abs(res.state.amplitudes[0b100] - 1.0) < 1e-15


def test_wire_capacity_smoke():
    # 20 wires: allocation plus a few gates stays fast and norm-preserving
    circ = Circuit(n_system=14, n_ancilla=6)
    circ.add(x(13))
    circ.add(mcry(0.7, 0, controls=[(13, 1)]))
    circ.add(crbs(0.3, 0.1, 1, 2, controls=[(0, -1)]))
    res = simulate(circ)
    assert abs(res.norm - 1.0) < 1e-10


def test_wire_limit_fails_before_allocation():
    circ = parse_text("# n=33 k=1 ell=1 mode=none\nx q32\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="33 wires exceed the maximum of 32"):
            simulate(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mcphase_only_hits_matching_pattern():
    circ = Circuit(n_system=3)
    circ.add(mcphase(0.5, 2, controls=[(0, 1), (1, -1)]))
    res = simulate(circ, initial=StateVector.basis(3, "101"))
    assert abs(res.state.amplitude("101") - np.exp(0.5j)) < 1e-12
    for other in ("111", "001", "100"):
        res = simulate(circ, initial=StateVector.basis(3, other))
        assert res.state.amplitude(other) == 1.0


def test_system_purity_pure_state():
    psi = StateVector.from_terms(3, {"101": 1.0})
    assert abs(system_purity(psi, 2) - 1.0) < 1e-12


def test_system_purity_over_several_row_blocks():
    """2^17 system rows are summed in four blocks; the result is the whole Gram matrix's."""
    rng = np.random.default_rng(3)
    psi = StateVector.from_dense(
        18, rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18), normalize=True)
    m = psi.amplitudes.reshape(1 << 17, 2)
    assert abs(system_purity(psi, 17) - np.sum(np.abs(m.conj().T @ m) ** 2)) < 1e-12
    even = psi.amplitudes[::2]
    product = StateVector.from_dense(18, np.kron(even / np.linalg.norm(even), [0.6, 0.8j]))
    assert abs(system_purity(product, 17) - 1.0) < 1e-12


@pytest.mark.parametrize("n_ancilla", [1, 2, 3])
def test_diagnostics_cut_the_support_at_whole_rows(monkeypatch, n_ancilla):
    """Blocks of a few entries, cut only between system indices, each missing some of
    the ancilla patterns present: fidelity and purity are the whole matrix's."""
    monkeypatch.setattr(simulator, "DIAGNOSTIC_BLOCK", 3)
    rng = np.random.default_rng(n_ancilla)
    n_system = 6
    n = n_system + n_ancilla
    for share in (0.1, 0.5, 1.0):
        amps = (rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)) \
            * (rng.random(1 << n) < share)
        amps[rng.integers(1 << n)] = 1.0
        amps /= np.linalg.norm(amps)
        target = rng.standard_normal(1 << n_system) + 1j * rng.standard_normal(1 << n_system)
        target /= np.linalg.norm(target)
        matrix = amps.reshape(1 << n_system, 1 << n_ancilla)
        psi = StateVector.from_dense(n, amps)
        assert abs(fidelity(psi, StateVector.from_dense(n_system, target))
                   - np.sum(np.abs(target.conj() @ matrix) ** 2)) < 1e-12
        assert abs(system_purity(psi, n_system)
                   - np.sum(np.abs(matrix.conj().T @ matrix) ** 2)) < 1e-12


@st.composite
def _diagnostic_cases(draw):
    """A state on 1-6 system wires and 0-3 ancillas whose ancillas hold one pattern,
    several, a few scattered entries or every entry, and a target on the system wires
    that covers part of the system indices."""
    n_system, n_ancilla = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    layout = draw(st.sampled_from(["one", "several", "scattered", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = n_system + n_ancilla
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    matrix = amps.reshape(1 << n_system, 1 << n_ancilla)  # a view: rows system, columns ancilla
    if layout == "one":
        matrix[:, np.arange(1 << n_ancilla) != rng.integers(1 << n_ancilla)] = 0
    elif layout == "several":
        matrix[:, rng.random(1 << n_ancilla) < 0.5] = 0
        matrix[rng.random(matrix.shape) < 0.3] = 0
    elif layout == "scattered":
        amps[rng.permutation(1 << n)[int(rng.integers(1, 5)):]] = 0
    amps[rng.integers(1 << n)] = 1.0
    target = (rng.standard_normal(1 << n_system) + 1j * rng.standard_normal(1 << n_system)) \
        * (rng.random(1 << n_system) < 0.6)
    target[rng.integers(1 << n_system)] = 1.0
    return (n_system, n_ancilla, amps / np.linalg.norm(amps), target / np.linalg.norm(target),
            int(rng.integers(2 ** 32)))


@settings(max_examples=150)
@given(_diagnostic_cases())
def test_diagnostics_match_the_dense_reshape(case):
    """One-pass fidelity and purity equal the dense reshape's (2^system x 2^ancilla), and
    ``simulate(..., target=)`` gives what the public functions give on its output."""
    n_system, n_ancilla, amps, target, seed = case
    n = n_system + n_ancilla
    matrix = amps.reshape(1 << n_system, 1 << n_ancilla)
    psi, system = StateVector.from_dense(n, amps), StateVector.from_dense(n_system, target)
    assert abs(fidelity(psi, system)
               - np.sum(np.abs(target.conj() @ matrix) ** 2)) < 1e-12
    assert abs(system_purity(psi, n_system)
               - np.sum(np.abs(matrix.conj().T @ matrix) ** 2)) < 1e-12
    circ = random_circuit(n_system, 6, seed, n_ancilla) if n > 1 else Circuit(n_system=1)
    res = simulate(circ, initial=psi, target=system)
    assert res.fidelity == fidelity(res.state, system)
    assert res.purity == system_purity(res.state, n_system)


def test_diagnostics_reject_an_out_of_range_n_system():
    psi = StateVector.from_terms(3, {"101": 0.6, "110": 0.8})
    for n_system in (5, -1):
        with pytest.raises(ValueError, match="n_system"):
            system_purity(psi, n_system)
    assert abs(system_purity(psi, 0) - 1.0) < 1e-12 and system_purity(psi, 3) == 1.0
    with pytest.raises(ValueError, match="system wires"):
        simulate(Circuit(n_system=3), target=StateVector.basis(2, "10"))


def test_fidelity_with_many_ancilla_patterns_builds_no_pattern_gram():
    """A dense 16-qubit state read on one system wire has 2^15 ancilla patterns: the
    fidelity needs only target^H M, not the 2^15 x 2^15 M^H M of the purity."""
    rng = np.random.default_rng(16)
    psi = StateVector.from_dense(
        16, rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16), normalize=True)
    target = StateVector.from_dense(1, np.array([0.6, 0.8j]))
    matrix = psi.amplitudes.reshape(2, 1 << 15)
    assert abs(fidelity(psi, target)
               - np.sum(np.abs(target.amplitudes.conj() @ matrix) ** 2)) < 1e-12


def test_purity_with_more_patterns_than_system_indices_stays_small():
    """A dense 12-qubit state read on one system wire has 2^11 ancilla patterns; its
    purity comes from the 2 x 2 system-side Gram matrix, not a 2^11 x 2^11 one."""
    rng = np.random.default_rng(12)
    psi = StateVector.from_dense(
        12, rng.standard_normal(1 << 12) + 1j * rng.standard_normal(1 << 12), normalize=True)
    matrix = psi.amplitudes.reshape(2, 1 << 11)
    tracemalloc.start()
    try:
        purity = system_purity(psi, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(purity - np.sum(np.abs(matrix @ matrix.conj().T) ** 2)) < 1e-12
    assert peak < 1 << 20
