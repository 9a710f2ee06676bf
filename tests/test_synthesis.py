import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import dicke_state

from leafsep.analysis import (distribution_table, leaf_amplitude_table, node_split_norms,
                              rotation_ladder_angles, weight_split_amplitudes)
from leafsep.circuit import Circuit, cost
from leafsep.combinatorics import ehrlich_sequence
from leafsep.core import StateVector, build_partition_tree, enumerate_weight_distributions
from leafsep.experiments import (random_fixed_weight_state, random_leaf_separable,
                                 random_mixed_leaf_separable)
from leafsep.simulator import fidelity, simulate, system_purity
from leafsep.synthesis import (MODE_ANCILLA, MODE_FREE, SynthesisConfig,
                               _gray_multiplexed_rotation, synthesize_full, synthesize_general_baseline,
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
    thetas = rotation_ladder_angles(weight_split_amplitudes(worked_example, tree.root, 2))
    circ = Circuit(n_system=4)
    circ.extend(synthesize_gwdb(tree.root, 2, thetas))
    res = simulate(circ, initial="0011")
    assert np.max(np.abs(res.state.amplitudes - intermediate_example.amplitudes)) < 1e-12


def test_gwdb_zero_angles_is_identity():
    tree = build_partition_tree(4, 2)
    gates = synthesize_gwdb(tree.root, 2, [0.0, 0.0])
    assert gates == []


def test_gwdb_dicke_intermediate():
    tree = build_partition_tree(4, 2)
    betas = weight_split_amplitudes(dicke_state(4, 2), tree.root, 2)
    circ = Circuit(n_system=4)
    circ.extend(synthesize_gwdb(tree.root, 2, rotation_ladder_angles(betas)))
    res = simulate(circ, initial="0011")
    for i, bits in enumerate(("0011", "0101", "1100")):
        assert abs(res.state.amplitude(bits) - betas[i]) < 1e-12


def tree_product_coefficients(psi, tree, total_weights):
    """Independent oracle for the intermediate state: product of marginal
    split ratios over internal nodes, per leaf-weight configuration."""
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
                splits = node_split_norms(psi, node, node_w)
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
    circ = synthesize_gwdb_tree(psi, tree)
    res = simulate(circ, initial=packed(n, ell))
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
    circ = synthesize_gwdb_tree(psi, tree)
    assert circ.gates == []


def test_gwdb_tree_dicke_marginals():
    """Leaf-weight marginals of the Dicke intermediate state follow the
    binomial products from the lemma formula."""
    n, k, ell = 8, 2, 4
    psi = dicke_state(n, ell)
    tree = build_partition_tree(n, k)
    res = simulate(synthesize_gwdb_tree(psi, tree), initial=packed(n, ell))
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
    table = leaf_amplitude_table(worked_example, tree)
    gates = synthesize_leaf_encoders(table, tree, SynthesisConfig(n=4, k=2))
    circ = Circuit(n_system=4)
    circ.extend(gates)
    res = simulate(circ, initial=intermediate_example, target=worked_example)
    assert res.fidelity >= 1 - 1e-12


def test_leaf_encoders_singleton_classes_silent():
    psi = StateVector.basis(4, "1100")
    tree = build_partition_tree(4, 2)
    table = leaf_amplitude_table(psi, tree)
    assert synthesize_leaf_encoders(table, tree, SynthesisConfig(n=4, k=2)) == []


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


def _marker_scheme_circuit(psi, tree, table, class_order):
    """Pipeline with pure marker-plus-ancilla leaf encoders in a given order."""
    from leafsep.synthesis import (_distribution_phase_gates, _leaf_detector,
                                   _rotation_chain)
    circ = Circuit(n_system=tree.n, n_ancilla=tree.num_leaves)
    circ.extend(synthesize_initial(tree.n, max(psi.weights_present())).gates)
    circ.extend(synthesize_gwdb_tree(psi, tree).gates)
    circ.extend(_distribution_phase_gates(tree, distribution_table(psi, tree)))
    for u, leaf in enumerate(tree.leaves):
        classes = sorted((w for (lu, w) in table if lu == u),
                         reverse=(class_order == "decreasing"))
        ancilla = tree.n + u
        for w in classes:
            circ.add(_leaf_detector(leaf, w, ancilla))
            amps = table[(u, w)]
            if len(amps) > 1:
                circ.extend(_rotation_chain(ehrlich_sequence(leaf.size, w), amps,
                                            offset=leaf.start,
                                            extra_controls=((ancilla, 1),)))
    return circ


def test_increasing_class_order_is_load_bearing():
    """The marker scheme relies on processing weight classes small to large:
    reversing the order lets a class chain corrupt already-marked branches."""
    psi = random_leaf_separable(6, 3, 3, "real", seed=44)
    tree = build_partition_tree(6, 3)
    table = leaf_amplitude_table(psi, tree)
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


def test_mixed_weight_input_rejects_heavy_profiles():
    with pytest.raises(ValueError):
        synthesize_mixed_weight_input([0.0, 0.0, 0.0, 1.0], 4)


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
    assert len(circ.gates) == 1
    assert circ.gates[0].kind == "mcry"
    assert abs(circ.gates[0].params[0] - math.pi / 2) < 1e-12


@pytest.mark.parametrize("n,kind", [(3, "real"), (5, "real"), (4, "complex"),
                                    (6, "complex")])
def test_general_baseline_prepares_random_states(n, kind):
    rng = np.random.default_rng(n * 7)
    vec = rng.standard_normal(1 << n)
    if kind == "complex":
        vec = vec + 1j * rng.standard_normal(1 << n)
    psi = StateVector(n, vec, normalize=True)
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
