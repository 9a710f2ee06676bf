import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import child_weight_norms, dicke_state, leaf_encoders_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from leafsep.analysis import (analyze, distribution_table, leaf_amplitude_table,
                              rotation_ladder_angles)
from leafsep.circuit import (Circuit, Gate, cost, export_text, lower, mcry, mcrz, parse_text,
                             two_qubit_cost, x)
from leafsep.combinatorics import ehrlich_sequence
from leafsep.core import StateVector, build_partition_tree, enumerate_weight_distributions
from leafsep.experiments import (random_fixed_weight_state, random_leaf_separable,
                                 random_mixed_leaf_separable)
from leafsep.simulator import fidelity, simulate, system_purity
from leafsep.synthesis import (ANGLE_TOL, MODE_ANCILLA, MODE_FREE, PHASE_FIT_TOL, SynthesisConfig,
                               synthesize_full, synthesize_general_baseline,
                               synthesize_gwdb, synthesize_gwdb_tree,
                               synthesize_hwk_encoder, synthesize_initial,
                               synthesize_leaf_encoders,
                               synthesize_mixed_weight_input)


def packed(n, ell):
    return "0" * (n - ell) + "1" * ell


def test_initial_state():
    res = simulate(synthesize_initial(4, 2))
    assert abs(res.state.amplitude("0011") - 1.0) < 1e-15
    assert len(synthesize_initial(5, 0).gates) == 0
    res = simulate(synthesize_initial(3, 3))
    assert abs(res.state.amplitude("111") - 1.0) < 1e-15


def test_gwdb_worked_example(worked_example, intermediate_example):
    tree = build_partition_tree(4, 2)
    thetas = rotation_ladder_angles(analyze(worked_example, tree).splits[tree.root][2])
    circ = Circuit(n_system=4)
    circ.extend(synthesize_gwdb(tree.root, 2, thetas))
    res = simulate(circ, initial=StateVector.basis(4, "0011"))
    assert np.max(np.abs(res.state.amplitudes - intermediate_example.amplitudes)) < 1e-12


def test_gwdb_zero_angles_is_identity():
    tree = build_partition_tree(4, 2)
    gates = synthesize_gwdb(tree.root, 2, [0.0, 0.0])
    assert gates == []


def test_gwdb_dicke_intermediate():
    tree = build_partition_tree(4, 2)
    betas = analyze(dicke_state(4, 2), tree).splits[tree.root][2]
    circ = Circuit(n_system=4)
    circ.extend(synthesize_gwdb(tree.root, 2, rotation_ladder_angles(betas)))
    res = simulate(circ, initial=StateVector.basis(4, "0011"))
    for i, bits in enumerate(("0011", "0101", "1100")):
        assert abs(res.state.amplitude(bits) - betas[i]) < 1e-12


def tree_product_coefficients(psi, tree, total_weights):
    """Independent oracle for the intermediate state: product of marginal
    split ratios over internal nodes, per leaf-weight configuration."""
    norms = {node: child_weight_norms(psi, tree, node) for node in tree.internal_nodes()}
    coeffs = {}
    for ell in total_weights:
        for dist in enumerate_weight_distributions(tree.leaf_sizes, ell):
            value = 1.0
            for node in tree.internal_nodes():
                node_w = sum(dist[u] for u, leaf in enumerate(tree.leaves)
                             if node.start <= leaf.start < node.start + node.size)
                left_w = sum(dist[u] for u, leaf in enumerate(tree.leaves)
                             if node.left.start <= leaf.start
                             < node.left.start + node.left.size)
                splits = np.array([norms[node][i, node_w - i] if 0 <= node_w - i <= node.right.size
                                   else 0.0 for i in range(node.left.size + 1)])
                denom = math.sqrt(float(np.sum(splits ** 2)))
                if denom < 1e-300:
                    value = 0.0
                    break
                value *= splits[left_w] / denom
            if value:
                coeffs[dist] = value
    return coeffs


@pytest.mark.parametrize("n,k,ell,kind,structured", [
    (4, 2, 2, "real", True), (6, 2, 3, "real", True), (6, 3, 3, "complex", True),
    (8, 2, 4, "real", True), (8, 4, 4, "complex", True), (9, 3, 4, "real", True),
    (10, 3, 5, "real", True), (6, 2, 3, "real", False), (8, 2, 4, "real", False),
])
def test_gwdb_tree_matches_product_formula(n, k, ell, kind, structured):
    """The intermediate state equals the product-of-ratios formula even for
    targets with no product structure over distributions."""
    if structured:
        psi = random_leaf_separable(n, k, ell, kind, seed=[21, n, k])
    else:
        psi = random_fixed_weight_state(n, ell, kind, seed=[22, n, k])
    tree = build_partition_tree(n, k)
    circ = synthesize_gwdb_tree(tree, analyze(psi, tree).splits)
    res = simulate(circ, initial=StateVector.basis(n, packed(n, ell)))
    expected = tree_product_coefficients(psi, tree, [ell])
    out = res.state
    support = set()
    for dist, value in expected.items():
        bits = "".join(packed(tree.leaf_sizes[u], dist[u]) for u in range(len(dist)))
        support.add(bits)
        assert abs(out.amplitude(bits) - value) < 1e-10
    for idx in np.flatnonzero(np.abs(out.amplitudes) > 1e-10):
        assert format(int(idx), f"0{n}b") in support


def test_gwdb_tree_single_leaf_is_identity():
    psi = random_fixed_weight_state(4, 2, "real", seed=1)
    tree = build_partition_tree(4, 4)
    circ = synthesize_gwdb_tree(tree, analyze(psi, tree).splits)
    assert circ.gates == []


def test_gwdb_tree_dicke_marginals():
    """Leaf-weight marginals of the Dicke intermediate state follow the
    binomial products from the lemma formula."""
    n, k, ell = 8, 2, 4
    psi = dicke_state(n, ell)
    tree = build_partition_tree(n, k)
    res = simulate(synthesize_gwdb_tree(tree, analyze(psi, tree).splits),
                   initial=StateVector.basis(n, packed(n, ell)))
    expected = tree_product_coefficients(psi, tree, [ell])
    for dist, value in expected.items():
        bits = "".join(packed(2, w) for w in dist)
        assert abs(res.state.amplitude(bits) - value) < 1e-10
        direct = math.sqrt(math.prod(math.comb(2, w) for w in dist) / math.comb(n, ell))
        assert abs(value - direct) < 1e-12


def test_hwk_encoder_examples():
    gates = synthesize_hwk_encoder(2, 1, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert len(gates) == 1
    g = gates[0]
    assert g.kind == "crbs"
    assert g.controls == ()
    assert abs(g.params[0] - math.pi / 2) < 1e-12
    assert synthesize_hwk_encoder(3, 0, [1.0]) == []
    with pytest.raises(ValueError, match="weight-0"):
        synthesize_hwk_encoder(3, 0, [cmath.exp(0.3j)])


@pytest.mark.parametrize("n,w,kind", [(4, 2, "real"), (5, 2, "complex"),
                                      (6, 3, "real"), (7, 3, "complex"),
                                      (8, 4, "real")])
def test_hwk_encoder_prepares_random_states(n, w, kind):
    psi = random_fixed_weight_state(n, w, kind, seed=[31, n, w])
    order = ehrlich_sequence(n, w)
    eta = np.array([psi.amplitude(g) for g in order])
    circ = Circuit(n_system=n)
    circ.extend(synthesize_initial(n, w).gates)
    circ.extend(synthesize_hwk_encoder(n, w, eta))
    res = simulate(circ, target=psi)
    assert res.fidelity >= 1 - 1e-9


def test_leaf_encoders_worked_example(worked_example, intermediate_example):
    tree = build_partition_tree(4, 2)
    table = leaf_amplitude_table(worked_example, tree, distribution_table(worked_example, tree))
    gates = synthesize_leaf_encoders(table, tree, MODE_FREE)
    circ = Circuit(n_system=4)
    circ.extend(gates)
    res = simulate(circ, initial=intermediate_example, target=worked_example)
    assert res.fidelity >= 1 - 1e-12


def test_leaf_encoders_singleton_classes_silent():
    psi = StateVector.basis(4, "1100")
    tree = build_partition_tree(4, 2)
    table = leaf_amplitude_table(psi, tree, distribution_table(psi, tree))
    assert synthesize_leaf_encoders(table, tree, MODE_FREE) == []


def test_full_rejects_bad_inputs_before_emitting(worked_example):
    """n is the target's, the target has a support, k is in [1, n] and the mode is one of
    the two: each is checked once, and fails before any circuit is returned."""
    for psi, config, message in [
            (worked_example, SynthesisConfig(n=5, k=2), "state has 4 qubits, config expects 5"),
            (StateVector(4, [], [], check=False), SynthesisConfig(n=4, k=2),
             "target state has no support"),
            (worked_example, SynthesisConfig(n=4, k=0), r"k must be in \[1, 4\] for n=4, got 0"),
            (worked_example, SynthesisConfig(n=4, k=9), r"k must be in \[1, 4\] for n=4, got 9"),
            (worked_example, SynthesisConfig(n=4, k=2, mode="Ancilla"),
             "mode must be 'free' or 'ancilla', got 'Ancilla'")]:
        with pytest.raises(ValueError, match=message):
            synthesize_full(psi, config)
    tree = build_partition_tree(4, 2)
    table = leaf_amplitude_table(worked_example, tree, distribution_table(worked_example, tree))
    with pytest.raises(ValueError, match="mode must be 'free' or 'ancilla', got 'ancila'"):
        synthesize_leaf_encoders(table, tree, "ancila")


def test_full_worked_example_both_modes(worked_example):
    for mode in (MODE_FREE, MODE_ANCILLA):
        circ = synthesize_full(worked_example, SynthesisConfig(n=4, k=2, mode=mode))
        res = simulate(circ, target=worked_example)
        assert res.fidelity >= 1 - 1e-10
        assert res.purity >= 1 - 1e-10


def test_full_single_basis_state_only_x_gates():
    psi = StateVector.basis(6, packed(6, 3))
    circ = synthesize_full(psi, SynthesisConfig(n=6, k=3))
    assert all(g.kind == "x" for g in circ.gates)
    assert len(circ.gates) == 3
    assert simulate(circ, target=psi).fidelity >= 1 - 1e-12


def test_full_dicke_6_3():
    psi = dicke_state(6, 3)
    circ = synthesize_full(psi, SynthesisConfig(n=6, k=3))
    res = simulate(circ, target=psi)
    assert res.fidelity >= 1 - 1e-9
    expected = 1 / math.sqrt(math.comb(6, 3))
    for idx in np.flatnonzero(np.abs(psi.amplitudes) > 0):
        assert abs(res.state.amplitudes[idx] - expected) < 1e-9


@pytest.mark.parametrize("n", range(4, 11))
def test_full_exact_at_half_tree(n):
    k = math.ceil(n / 2)
    for kind in ("real", "complex"):
        for mode in (MODE_FREE, MODE_ANCILLA):
            psi = random_leaf_separable(n, k, n // 2, kind, seed=[41, n])
            circ = synthesize_full(psi, SynthesisConfig(n=n, k=k, mode=mode))
            res = simulate(circ, target=psi)
            assert res.fidelity >= 1 - 1e-9, (n, kind, mode)
            assert res.purity >= 1 - 1e-9, (n, kind, mode)


@pytest.mark.parametrize("n", range(4, 11))
def test_full_exact_at_k1_real(n):
    psi = random_leaf_separable(n, 1, n // 2, "real", seed=[42, n])
    circ = synthesize_full(psi, SynthesisConfig(n=n, k=1))
    assert simulate(circ, target=psi).fidelity >= 1 - 1e-9


def test_full_warns_on_non_separable():
    bad = StateVector.from_terms(4, {"1001": 1 / math.sqrt(2), "0110": 1 / math.sqrt(2)})
    with pytest.warns(UserWarning, match=r"^target is not leaf-separable for this tree; "
                                         r"synthesis proceeds as an approximation "
                                         r"\(max_delta 0\.707\)$"):
        circ = synthesize_full(bad, SynthesisConfig(n=4, k=2))
    res = simulate(circ, target=bad)
    assert res.fidelity < 1 - 1e-6  # genuinely approximate
    assert circ.metadata["separable"] is False


def test_full_mismatched_tree_is_approximate():
    psi = random_leaf_separable(8, 4, 4, "real", seed=43)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        circ = synthesize_full(psi, SynthesisConfig(n=8, k=2))
    res = simulate(circ, target=psi)
    assert res.fidelity < 1 - 1e-6


def _with_distribution_phasors(psi, tree, seed):
    """``psi`` with each weight distribution's amplitudes times its own random unit
    phasor: still leaf-separable, but the distribution phases are not additive."""
    idx = np.arange(1 << tree.n)
    key = sum(np.bitwise_count(idx & leaf.mask(tree.n)).astype(np.int64) * (tree.n + 1) ** u
              for u, leaf in enumerate(tree.leaves))
    _, dist = np.unique(key, return_inverse=True)
    alpha = np.random.default_rng(seed).uniform(0, 2 * math.pi, dist.max() + 1)
    return StateVector.from_dense(tree.n, psi.amplitudes * np.exp(1j * alpha[dist]), check=False)


def _phase_gate_split(circ):
    """A free-mode circuit's leaf-local and full-register (n - 1 controls) phase gates.
    With leaves smaller than n, the encoders' trailing ``mcphase`` gates are also
    conditioned on zeros, so the leaf-local ones are those controlled on ones only."""
    leaf, full = [], []
    for g in circ.gates:
        if g.kind != "mcphase":
            continue
        if len(g.controls) == circ.n_system - 1:
            full.append(g)
        elif all(pol == 1 for _, pol in g.controls):
            leaf.append(g)
    return leaf, full


@st.composite
def _phased_targets(draw):
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, n))
    mode = draw(st.sampled_from([MODE_FREE, MODE_ANCILLA]))
    field = draw(st.sampled_from(["real", "complex", "nonneg"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        psi = random_mixed_leaf_separable(n, k, field, seed=seed)
    else:
        psi = random_leaf_separable(n, k, draw(st.integers(1, n - 1)), field, seed=seed)
    phased = draw(st.booleans())
    if phased:
        psi = _with_distribution_phasors(psi, build_partition_tree(n, k), [seed, 1])
    return psi, SynthesisConfig(n=n, k=k, mode=mode), phased


@settings(max_examples=150)
@given(_phased_targets())
def test_distribution_phases_are_exact(case):
    """Separable targets (real, complex or non-negative fields), with or without a random
    phasor per distribution, compile exactly.  Generator targets have additive phases and need no full-register phase
    gate; a random phasor needs at most one per live distribution after the first."""
    psi, config, phased = case
    circ = synthesize_full(psi, config)
    res = simulate(circ, target=psi)
    assert res.fidelity >= 1 - 1e-10
    assert res.purity >= 1 - 1e-10
    counts = circ.metadata["phase_gates"]
    live = np.sum(distribution_table(psi, build_partition_tree(config.n, config.k)).live)
    assert counts["residual"] <= live - 1
    if not phased:
        assert counts["residual"] == 0
        assert counts["max_residual"] <= PHASE_FIT_TOL


def test_phase_gates_metadata():
    """``metadata["phase_gates"]`` counts the leaf-local and full-register phase gates
    and names the worst residual; the text format does not carry it."""
    n, k = 8, 2
    tree = build_partition_tree(n, k)
    psi = random_leaf_separable(n, k, 4, "complex", seed=46)
    circ = synthesize_full(psi, SynthesisConfig(n=n, k=k))
    leaf, full = _phase_gate_split(circ)
    assert circ.metadata["phase_gates"]["residual"] == len(full) == 0
    assert circ.metadata["phase_gates"]["leaf"] == len(leaf) == tree.num_leaves - 1
    assert circ.metadata["phase_gates"]["max_residual"] <= PHASE_FIT_TOL

    phased = _with_distribution_phasors(psi, tree, 47)
    circ = synthesize_full(phased, SynthesisConfig(n=n, k=k))
    leaf, full = _phase_gate_split(circ)
    counts = circ.metadata["phase_gates"]
    assert set(counts) == {"leaf", "residual", "max_residual"}
    assert (counts["leaf"], counts["residual"]) == (len(leaf), len(full))
    assert 0 < counts["residual"] < len(distribution_table(phased, tree).weights) - 1
    assert counts["max_residual"] == max(abs(g.params[0]) for g in full)
    assert min(abs(g.params[0]) for g in full) > PHASE_FIT_TOL
    assert simulate(circ, target=phased).fidelity >= 1 - 1e-10
    text = export_text(circ)
    assert "phase_gates" not in text and export_text(parse_text(text)) == text


def _marker_scheme_circuit(psi, tree, table, class_order):
    """Pipeline with pure marker-plus-ancilla leaf encoders in a given order."""
    from leafsep.synthesis import (_chain_angles, _chain_slots, _distribution_phases,
                                   _leaf_detector, _rotation_chain)
    circ = Circuit(n_system=tree.n, n_ancilla=tree.num_leaves)
    circ.extend(synthesize_initial(tree.n, max(psi.weights_present())).gates)
    circ.extend(synthesize_gwdb_tree(tree, analyze(psi, tree).splits).gates)
    table, phase_gates, _ = _distribution_phases(tree, distribution_table(psi, tree), table)
    circ.extend(phase_gates)
    for u, leaf in enumerate(tree.leaves):
        classes = sorted((w for (lu, w) in table if lu == u),
                         reverse=(class_order == "decreasing"))
        ancilla = tree.n + u
        for w in classes:
            circ.add(_leaf_detector(leaf, w, ancilla))
            amps = table[(u, w)]
            if len(amps) > 1:
                slots = _chain_slots(leaf.size, w, leaf.start, ((ancilla, 1),))
                circ.extend(_rotation_chain(_chain_angles(amps), slots))
    return circ


def test_increasing_class_order_is_load_bearing():
    """The marker scheme relies on processing weight classes small to large:
    reversing the order lets a class chain corrupt already-marked branches."""
    psi = random_leaf_separable(6, 3, 3, "real", seed=44)
    tree = build_partition_tree(6, 3)
    table = leaf_amplitude_table(psi, tree, distribution_table(psi, tree))
    sizes = [len(v) for v in table.values()]
    assert sum(1 for s in sizes if s > 1) >= 2  # order-sensitive target

    good = _marker_scheme_circuit(psi, tree, table, "increasing")
    res = simulate(good, target=psi)
    assert res.fidelity >= 1 - 1e-9
    assert res.purity >= 1 - 1e-9

    bad = _marker_scheme_circuit(psi, tree, table, "decreasing")
    assert simulate(bad, target=psi).fidelity < 1 - 1e-6


def test_ancilla_count_matches_leaf_count():
    for n, k in [(4, 2), (7, 2), (9, 3), (10, 4)]:
        psi = random_leaf_separable(n, k, max(1, n // 2), "real", seed=[45, n, k])
        circ = synthesize_full(psi, SynthesisConfig(n=n, k=k, mode=MODE_ANCILLA))
        assert circ.n_ancilla == math.ceil(n / k)


def _random_leaf_table(rng, tree) -> dict:
    """Unit class vectors on a random subset of every leaf's classes: complex, with
    zero amplitudes, real with a zero tail (zero angles) or one basis state (no gate)."""
    table = {}
    for u, leaf in enumerate(tree.leaves):
        for w in range(leaf.size + 1):
            if rng.random() < 0.25:
                continue
            count = math.comb(leaf.size, w)
            amps = rng.normal(size=count) + 1j * rng.normal(size=count)
            style = rng.integers(4)
            if style == 1:
                amps[rng.random(count) < 0.5] = 0
            elif style == 2:
                amps = np.abs(amps)
                amps[rng.integers(1, count + 1):] = 0
            elif style == 3:
                amps = np.eye(count)[0]
            if not np.any(amps):
                amps[0] = 1
            table[(u, w)] = amps / np.linalg.norm(amps)
    return table


def test_leaf_encoders_match_the_build_both_oracle():
    rng = np.random.default_rng(1212)
    seen = set()
    for size in range(1, 9):
        tree = build_partition_tree(2 * size, size)
        for _ in range(6):
            table = _random_leaf_table(rng, tree)
            for mode in (MODE_FREE, MODE_ANCILLA):
                got = synthesize_leaf_encoders(table, tree, mode)
                want, leaves = leaf_encoders_oracle(table, tree, mode)
                assert list(got) == want
                for entry, (chosen, free_cost, ancilla_cost) in zip(got.leaves, leaves):
                    assert (entry["mode"], entry["free_two_qubit"]) == (chosen, free_cost)
                    if mode == MODE_ANCILLA:
                        assert entry["ancilla_two_qubit"] == ancilla_cost
                        seen.add(chosen)
    assert seen == {MODE_FREE, MODE_ANCILLA}


def test_chain_cost_closed_form():
    """Chains priced in closed form cost what their gates cost, and so do the leaf
    encoders' reported costs of both schemes, detectors included."""
    from leafsep.synthesis import (_chain_angles, _chain_cost, _chain_slots, _leaf_detector,
                                   _rotation_chain)
    rng = np.random.default_rng(10)
    for size in range(2, 11):
        for w in range(1, size):
            count = math.comb(size, w)
            tail = np.abs(rng.normal(size=count))
            tail[count // 2 + 1:] = 0
            for amps in (rng.normal(size=count) + 1j * rng.normal(size=count), tail):
                angles = _chain_angles(amps / np.linalg.norm(amps))
                for ancilla in (False, True):
                    extra = ((size, 1),) if ancilla else None
                    gates = _rotation_chain(angles, _chain_slots(size, w, 0, extra))
                    assert gates
                    assert _chain_cost(size, w, angles, ancilla) == \
                        sum(two_qubit_cost(g) for g in gates)

    def built(gates) -> int:
        return sum(two_qubit_cost(g) for g in gates)

    for n, k, ell in ((12, 6, 6), (12, 6, 3), (10, 5, None), (9, 3, 4), (8, 1, 4)):
        psi = (random_mixed_leaf_separable(n, k, "complex", seed=5) if ell is None
               else random_leaf_separable(n, k, ell, "complex", seed=5))
        tree = build_partition_tree(n, k)
        table = analyze(psi, tree).leaves
        gates = synthesize_leaf_encoders(table, tree, MODE_ANCILLA)
        for u, (leaf, entry) in enumerate(zip(tree.leaves, gates.leaves)):
            classes = sorted(w for lu, w in table if lu == u)
            free = marked = 0
            for w in classes:
                if len(table[(u, w)]) > 1:
                    angles = _chain_angles(table[(u, w)])
                    chain = built(_rotation_chain(angles, _chain_slots(leaf.size, w, leaf.start,
                                                                      None)))
                    free += chain
                    marked += min(chain, built(_rotation_chain(angles, _chain_slots(
                        leaf.size, w, leaf.start, ((n + u, 1),)))))
                marked += two_qubit_cost(_leaf_detector(leaf, w, n + u))
            assert (entry["free_two_qubit"], entry["ancilla_two_qubit"]) == (free, marked)


def test_leaf_encoders_build_only_the_chosen_gates(monkeypatch):
    """Gates built while choosing: at most the emitted ones plus one detector per class."""
    n, k = 12, 6
    psi = random_leaf_separable(n, k, 6, "complex", seed=1212)
    tree = build_partition_tree(n, k)
    table = analyze(psi, tree).leaves
    built = []
    validate = Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda g: (built.append(g), validate(g)))
    gates = synthesize_leaf_encoders(table, tree, MODE_ANCILLA)
    monkeypatch.undo()
    assert MODE_ANCILLA in {entry["mode"] for entry in gates.leaves}
    assert len(gates) <= len(built) <= len(gates) + len(table)


@pytest.mark.parametrize("mode", [MODE_FREE, MODE_ANCILLA])
def test_full_records_the_leaf_encoder_choice(mode):
    from leafsep.synthesis import _distribution_phases
    n, k = 12, 4
    psi = random_leaf_separable(n, k, 6, "complex", seed=[1213, n])
    tree = build_partition_tree(n, k)
    circ = synthesize_full(psi, SynthesisConfig(n, k, mode=mode))
    factored = analyze(psi, tree)
    table, _, _ = _distribution_phases(tree, factored.distributions, factored.leaves)
    _, free = leaf_encoders_oracle(table, tree, MODE_FREE)
    _, marked = leaf_encoders_oracle(table, tree, MODE_ANCILLA)
    chosen = [m for m, _, _ in (free if mode == MODE_FREE else marked)]
    assert circ.metadata["leaf_encoders"] == [
        {"mode": c, "free_two_qubit": f, "ancilla_two_qubit": a}
        for c, (_, f, _), (_, _, a) in zip(chosen, free, marked)]
    text = export_text(circ)
    assert "leaf_encoders" not in text and export_text(parse_text(text)) == text


def test_mixed_weight_input_examples():
    gates = synthesize_mixed_weight_input([0.0, 0.0, 1.0], 5)
    circ = Circuit(n_system=5)
    circ.extend(gates)
    res = simulate(circ)
    assert abs(abs(res.state.amplitude("00011")) - 1.0) < 1e-10

    circ = Circuit(n_system=2)
    circ.extend(synthesize_mixed_weight_input([1 / math.sqrt(2), 1 / math.sqrt(2)], 2))
    res = simulate(circ)
    assert abs(res.state.amplitude("00") - 1 / math.sqrt(2)) < 1e-10
    assert abs(res.state.amplitude("01") - 1 / math.sqrt(2)) < 1e-10


def test_mixed_weight_input_random_profile():
    rng = np.random.default_rng(9)
    n = 6
    profile = np.sqrt(rng.dirichlet(np.ones(n // 2 + 1)))
    circ = Circuit(n_system=n)
    circ.extend(synthesize_mixed_weight_input(profile, n))
    res = simulate(circ)
    for ell, expected in enumerate(profile):
        assert abs(res.state.amplitude(packed(n, ell)) - expected) < 1e-10


def test_mixed_weight_input_prepares_heavy_profiles():
    """The staircase prepares weights above n/2 as it does the others; a profile
    needs at most n + 1 weights."""
    for n, profile in [(4, [0.0, 0.0, 0.0, 1.0]), (4, [0.0, 0.6, 0.0, 0.0, 0.8]),
                       (5, np.sqrt(np.random.default_rng(3).dirichlet(np.ones(6))))]:
        circ = Circuit(n_system=n)
        circ.extend(synthesize_mixed_weight_input(profile, n))
        res = simulate(circ)
        expected = np.zeros(1 << n)
        expected[[(1 << ell) - 1 for ell in range(len(profile))]] = profile
        assert np.max(np.abs(res.state.amplitudes - expected)) < 1e-12
    with pytest.raises(ValueError, match="profile has 4 weights, 2 qubits hold 0..2"):
        synthesize_mixed_weight_input([0.0, 0.0, 0.0, 1.0], 2)


@pytest.mark.parametrize("mode", [MODE_FREE, MODE_ANCILLA])
def test_full_pipeline_on_heavy_mixed_targets(mode):
    """The bit complement of a mixed-weight target lives on weights ceil(n/2)..n and
    stays leaf-separable; it compiles and prepares like the target itself."""
    for n, k in [(4, 2), (7, 3), (9, 4)]:
        psi = random_mixed_leaf_separable(n, k, "complex", seed=[47, n, k])
        heavy = StateVector(n, psi.indices ^ ((1 << n) - 1), psi.values)
        circ = synthesize_full(heavy, SynthesisConfig(n=n, k=k, mode=mode))
        assert circ.metadata["separable"]
        assert simulate(circ, target=heavy).fidelity >= 1 - 1e-12


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_full_mixed_weight_pipeline(kind):
    for n, k in [(4, 2), (6, 3), (8, 4)]:
        psi = random_mixed_leaf_separable(n, k, kind, seed=[46, n, k])
        circ = synthesize_full(psi, SynthesisConfig(n=n, k=k))
        assert simulate(circ, target=psi).fidelity >= 1 - 1e-9


def test_general_baseline_examples():
    zero = StateVector.basis(3, "000")
    assert len(synthesize_general_baseline(zero).gates) == 0

    plus = StateVector.from_terms(2, {"00": 1 / math.sqrt(2), "10": 1 / math.sqrt(2)})
    circ = synthesize_general_baseline(plus)
    assert [(g.kind, g.targets, g.controls) for g in circ.gates] == [("ucry", (0,), ())]
    assert abs(circ.gates[0].params[0] - math.pi / 2) < 1e-12
    assert lower(circ).gates == [mcry(circ.gates[0].params[0], 0)]


@pytest.mark.parametrize("kind", ["nonneg", "complex"])
def test_general_baseline_is_one_multiplexor_per_qubit(kind):
    """Qubit j gets a ucry on qubits 0..j-1, and a ucrz where phases vary."""
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    vec = vec if kind == "complex" else np.abs(vec)
    circ = synthesize_general_baseline(StateVector.from_dense(5, vec, normalize=True))
    kinds = ["ucry", "ucrz"] if kind == "complex" else ["ucry"]
    assert [(g.kind, g.targets, g.controls, len(g.params)) for g in circ.gates] == [
        (k, (j,), tuple((q, 1) for q in range(j)), 1 << j) for k in kinds for j in range(5)]


def _gray_multiplexed_rotation(kind, angles, controls, target) -> list:
    """The lowering of one ``uc`` + ``kind`` multiplexor, ``controls[0]`` its top bit."""
    circ = Circuit(n_system=8)
    circ.add(Gate("uc" + kind, (target,), tuple((w, 1) for w in controls),
                  tuple(map(float, angles))))
    return lower(circ).gates


@pytest.mark.parametrize("n,kind", [(3, "real"), (5, "real"), (4, "complex"),
                                    (6, "complex")])
def test_general_baseline_prepares_random_states(n, kind):
    rng = np.random.default_rng(n * 7)
    vec = rng.standard_normal(1 << n)
    if kind == "complex":
        vec = vec + 1j * rng.standard_normal(1 << n)
    psi = StateVector.from_dense(n, vec, normalize=True)
    circ = synthesize_general_baseline(psi)
    assert simulate(circ, target=psi).fidelity >= 1 - 1e-9


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("kind", ["ry", "rz"])
def test_gray_multiplexed_rotation_matches_sign_matrix(m, kind):
    """Rotation i has angle sum_p (-1)^|g_i & p| angles[p] / 2^m for Gray code g_i,
    and the cx after it is controlled on the bit where g_i and g_(i+1) differ."""
    size = 1 << m
    angles = np.random.default_rng(m).standard_normal(size)
    gray = [i ^ (i >> 1) for i in range(size)]
    signs = np.array([[(-1) ** bin(g & p).count("1") for p in range(size)] for g in gray])
    expected = signs @ angles / size
    controls = [5, 2, 7, 1, 3, 6][:m]
    gates = _gray_multiplexed_rotation(kind, angles, controls, 4)
    assert [g.kind for g in gates] == ["mc" + kind, "cx"] * size
    assert np.max(np.abs([g.params[0] for g in gates[::2]] - expected)) < 1e-12
    for i, gate in enumerate(gates[1::2]):
        changed = (gray[i] ^ gray[(i + 1) % size]).bit_length() - 1
        assert gate.targets == (4,)
        assert gate.controls == ((controls[m - 1 - changed], 1),)
    assert all(g.targets == (4,) and not g.controls for g in gates[::2])


def _gray_cascade_reference(kind, angles, controls, target):
    """The cascade built one Gray step at a time: Walsh-Hadamard butterflies on a
    list, then per step the rotation (when not zero) and a new cx on the changed bit."""
    maker = {"ry": mcry, "rz": mcrz}[kind]
    m, size = len(controls), 1 << len(controls)
    if max(abs(a) for a in angles) <= ANGLE_TOL:
        return [], []
    tilde = [float(a) for a in angles]
    for j in range(m):
        for start in range(0, size, 2 << j):
            for i in range(start, start + (1 << j)):
                a, b = tilde[i], tilde[i + (1 << j)]
                tilde[i], tilde[i + (1 << j)] = a + b, a - b
    tilde = [t / size for t in tilde]
    if m == 0:
        return [maker(tilde[0], target)], []
    gray = [i ^ (i >> 1) for i in range(size)]
    gates, cx_controls = [], []
    for i, g in enumerate(gray):
        if abs(tilde[g]) > ANGLE_TOL:
            gates.append(maker(tilde[g], target))
        changed = (g ^ gray[(i + 1) % size]).bit_length() - 1
        cx_controls.append(controls[m - 1 - changed])
        gates.append(x(target, controls=[(cx_controls[-1], 1)]))
    return gates, cx_controls


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("kind", ["ry", "rz"])
@pytest.mark.parametrize("zeros", ["none", "some", "constant", "all"])
def test_gray_cascade_matches_step_by_step_reference(m, kind, zeros):
    """Same gates in the same order, the same cx control at each step, and one shared
    cx object per control wire."""
    rng = np.random.default_rng([m, len(zeros)])
    angles = rng.standard_normal(1 << m)
    if zeros == "some":
        angles[rng.random(1 << m) < 0.5] = 0.0
    elif zeros == "constant":  # only the first Walsh coefficient survives
        angles[:] = angles[0]
    elif zeros == "all":
        angles[:] = 0.0
    controls = [5, 2, 7, 1, 3, 6][:m]
    gates = _gray_multiplexed_rotation(kind, angles, controls, 4)
    expected, cx_controls = _gray_cascade_reference(kind, angles, controls, 4)
    assert gates == expected
    assert [repr(p) for g in gates for p in g.params] == \
        [repr(p) for g in expected for p in g.params]
    assert [g.controls[0][0] for g in gates if g.kind == "cx"] == cx_controls
    if gates and m:
        assert len({id(g) for g in gates if g.kind == "cx"}) == m


def test_gate_count_linear_growth_fixed_k():
    """Two-qubit counts advance by a constant amount per added tree period."""
    for k, ell in [(2, 2), (3, 3)]:
        counts = {}
        for n in range(2 * k, 17):
            psi = random_leaf_separable(n, k, ell, "nonneg", seed=[47, n, k])
            circ = synthesize_full(psi, SynthesisConfig(n=n, k=k, mode=MODE_ANCILLA))
            counts[n] = cost(circ).two_qubit_count
        ns = sorted(counts)
        increments = [counts[n + k] - counts[n] for n in ns if n + k in counts]
        mean = sum(increments) / len(increments)
        assert all(abs(inc - mean) <= 0.15 * mean for inc in increments), increments


def test_gate_count_doubling_ratio():
    # single-excitation family: counts near-proportional, doubling ratio ~2
    for k in (2, 3):
        for n in (6, 7):
            psis = [random_leaf_separable(m, k, 1, "nonneg", seed=[48, m, k])
                    for m in (n, 2 * n)]
            c1, c2 = [cost(synthesize_full(p, SynthesisConfig(n=p.n, k=k,
                                                              mode=MODE_ANCILLA))).two_qubit_count
                      for p in psis]
            ratio = c2 / c1
            assert 1.7 <= ratio <= 2.3, (k, n, ratio)
