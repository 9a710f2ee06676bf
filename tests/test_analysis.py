import math

import numpy as np
import pytest
from conftest import separability_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from leafsep.analysis import (class_indices, distribution_norm, distribution_table,
                              encoder_angles, is_leaf_separable, leaf_amplitude_table,
                              mixed_weight_profile, reconstruct_amplitudes,
                              rotation_ladder_angles, tensor_factorization_check,
                              weight_split_amplitudes)
from leafsep.combinatorics import ehrlich_sequence
from leafsep.core import (StateVector, build_partition_tree, dicke_state,
                          enumerate_weight_distributions, index_to_string,
                          weight_distribution_of)
from leafsep.experiments import (random_fixed_weight_state, random_leaf_separable,
                                 random_mixed_leaf_separable)

TREE42 = build_partition_tree(4, 2)


def test_class_indices_are_ascending_slices():
    tree = build_partition_tree(7, 3)
    seen = []
    for w in range(8):
        for dist in enumerate_weight_distributions(tree.leaf_sizes, w):
            idx = class_indices(tree, dist)
            assert list(idx) == sorted(idx)
            assert all(weight_distribution_of(index_to_string(int(i), 7), tree) == dist
                       for i in idx)
            seen.extend(int(i) for i in idx)
    assert sorted(seen) == list(range(1 << 7))


def test_distribution_reference_is_first_live_index(worked_example):
    table = distribution_table(worked_example, TREE42)
    refs = {info.weights: info.reference for info in table}
    assert refs == {(0, 2): None, (1, 1): 0b0101, (2, 0): 0b1100}
    # the class after the empty (0, 2) in key order, (1, 0), starts with a live state
    mixed = StateVector.from_terms(4, {"0100": 0.6, "0101": 0.8})
    refs = {info.weights: info.reference for info in distribution_table(mixed, TREE42)}
    assert refs[(0, 2)] is None and refs[(1, 0)] == 0b0100


def test_distribution_norms(worked_example):
    assert abs(distribution_norm(worked_example, TREE42, (1, 1)) - 1 / math.sqrt(2)) < 1e-12
    assert distribution_norm(worked_example, TREE42, (0, 2)) == 0.0
    for infeasible in [(1, 3), (3, 0), (-1, 2)]:
        assert distribution_norm(worked_example, TREE42, infeasible) == 0.0
    for wrong_length in [(1,), (1, 1, 0)]:
        with pytest.raises(ValueError):
            distribution_norm(worked_example, TREE42, wrong_length)
    total = sum(info.norm ** 2 for info in distribution_table(worked_example, TREE42))
    assert abs(total - 1.0) < 1e-12


def test_is_leaf_separable_worked_example(worked_example):
    report = is_leaf_separable(worked_example, TREE42)
    assert report.separable
    assert report.violations == []
    assert {"I": [1, 1], "c": pytest.approx(1 / math.sqrt(2))} in [
        {"I": d["I"], "c": d["c"]} for d in report.distributions]


def test_is_leaf_separable_counterexample():
    bad = StateVector.from_terms(4, {"1001": 1 / math.sqrt(2), "0110": 1 / math.sqrt(2)})
    report = is_leaf_separable(bad, TREE42)
    assert not report.separable
    # reference 0110; 1001 predicts amp(1010) * amp(0101) / amp(0110)^2 = 0
    assert report.violations == [{"I": [1, 1], "bitstring": "1001", "delta": 1.0}]
    assert not tensor_factorization_check(bad, TREE42)


def test_separability_scans_every_distribution():
    """c(I) for every distribution, the first violation only, and the worst residual,
    checked against a scalar scan over bitstrings."""
    tree = build_partition_tree(8, 2)
    psi = random_fixed_weight_state(8, 4, "complex", seed=11)
    report = is_leaf_separable(psi, tree)
    infos = distribution_table(psi, tree)
    assert [d["I"] for d in report.distributions] == [list(info.weights) for info in infos]
    deltas = []    # (distribution, bitstring, residual) in scan order
    for info in infos:
        ref = index_to_string(info.reference, 8)
        for i in class_indices(tree, info.weights):
            bits = index_to_string(int(i), 8)
            predicted = 1.0
            for leaf in tree.leaves:
                lo, hi = leaf.start, leaf.start + leaf.size
                predicted *= psi.amplitude(ref[:lo] + bits[lo:hi] + ref[hi:]) / psi.amplitude(ref)
            deltas.append((list(info.weights), bits,
                           abs(psi.amplitude(bits) / psi.amplitude(ref) - predicted)))
    bad = [d for d in deltas if d[2] > report.tol]
    assert len({str(d[0]) for d in bad}) > 1
    assert not report.separable and len(report.violations) == 1
    first = report.violations[0]
    assert (first["I"], first["bitstring"]) == (bad[0][0], bad[0][1])
    assert first["delta"] == pytest.approx(bad[0][2], rel=1e-12)
    assert report.max_delta == pytest.approx(max(d[2] for d in deltas), rel=1e-12)
    assert report.to_json_dict()["max_delta"] == report.max_delta
    separable = random_mixed_leaf_separable(8, 2, "complex", seed=12)
    assert is_leaf_separable(separable, tree).max_delta < 1e-12


def test_single_basis_state_is_separable():
    for bits in ("1100", "0110", "1010"):
        psi = StateVector.basis(4, bits)
        assert is_leaf_separable(psi, TREE42).separable
        assert tensor_factorization_check(psi, TREE42)


def _near_miss(psi, tree):
    """``psi`` with the largest amplitude of its largest class scaled by 1 + 1e-6."""
    idx = max((class_indices(tree, info.weights) for info in distribution_table(psi, tree)),
              key=len)
    amps = psi.amplitudes.copy()
    amps[idx[np.argmax(np.abs(amps[idx]))]] *= 1 + 1e-6
    return StateVector(psi.n, amps, normalize=True)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3), (8, 4)])
def test_separability_checker_matches_svd_oracle(n, k):
    tree = build_partition_tree(n, k)
    rng = np.random.default_rng(n * 10 + k)
    cases = []
    for s in range(4):
        cases.append(random_leaf_separable(n, k, n // 2, "real", seed=[n, k, s]))
        cases.append(random_leaf_separable(n, k, n // 2, "complex", seed=[n, k, s, 1]))
        cases.append(random_mixed_leaf_separable(n, k, "complex", seed=[n, k, s, 2]))
        cases.append(_near_miss(
            random_leaf_separable(n, k, n // 2, "complex", seed=[n, k, s, 3]), tree))
    for s in range(4):
        vec = rng.standard_normal(math.comb(n, n // 2))
        amps = np.zeros(1 << n, dtype=np.complex128)
        idx = [i for i in range(1 << n) if bin(i).count("1") == n // 2]
        amps[idx] = vec / np.linalg.norm(vec)
        cases.append(StateVector(n, amps))
    for psi in cases:
        assert is_leaf_separable(psi, tree).separable == \
            tensor_factorization_check(psi, tree)


def test_no_reference_state_violations():
    """A checked class with no amplitude above the reference cutoff is reported only
    when it comes before the first residual violation."""
    tree = build_partition_tree(6, 3)
    faint = 0.9e-9 * 0.8  # below REFERENCE_REL_TOL * max|amp|; three give c(I) = 1.2e-9
    terms = {"000011": faint, "000101": faint, "000110": faint,  # (0, 2): before
             "001001": 0.8, "001010": 0.4, "010001": 0.4,        # (1, 1)
             "011000": faint, "101000": faint, "110000": faint}  # (2, 0): after
    no_ref = [{"I": [0, 2], "error": "no reference state"},
              {"I": [2, 0], "error": "no reference state"}]
    cases = [({"010010": 0.2}, no_ref, 0.0),  # (1, 1) factorizes: both faint classes
             ({"100100": 0.2},                # 010010 is missing: stop after its residual
              no_ref[:1] + [{"I": [1, 1], "bitstring": "010010", "delta": 0.25}], 0.25)]
    for extra, violations, max_delta in cases:
        psi = StateVector.from_terms(6, {**terms, **extra})
        report = is_leaf_separable(psi, tree)
        assert report.violations == violations
        assert report.separable is False
        assert report.max_delta == max_delta
        assert [d["I"] for d in report.distributions] == [[0, 2], [1, 1], [2, 0]]
        assert all(d["c"] > report.tol for d in report.distributions)
        infos = distribution_table(psi, tree)
        assert separability_oracle(psi, tree, infos).to_json_dict() == report.to_json_dict()


def test_violation_at_first_member_of_class():
    """A class whose first member sits below the reference cutoff can fail there; the
    violation is charged to that class, not to the live class before it."""
    tree = build_partition_tree(6, 3)
    faint = 0.75e-9  # below the cutoff 0.8e-9; the reference 010010 is just above it
    psi = StateVector.from_terms(6, {"000011": 0.6, "110000": 0.8, "001010": faint,
                                     "010001": faint, "010010": 0.9e-9})
    report = is_leaf_separable(psi, tree)
    # 001001 is 0 but predicted (faint / 0.9e-9)^2 from the two mixed states
    assert [(v["I"], v["bitstring"]) for v in report.violations] == [([1, 1], "001001")]
    assert report.violations[0]["delta"] == pytest.approx((0.75 / 0.9) ** 2, rel=1e-12)
    infos = distribution_table(psi, tree)
    assert separability_oracle(psi, tree, infos).to_json_dict() == report.to_json_dict()


@st.composite
def _separability_targets(draw):
    n = draw(st.sampled_from(range(3, 11)))
    k = draw(st.integers(1, n))
    ell = draw(st.integers(1, n - 1))
    field = draw(st.sampled_from(["real", "complex"]))
    kind = draw(st.sampled_from(["separable", "mixed", "dense", "near miss"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    tree = build_partition_tree(n, k)
    if kind == "mixed":
        psi = random_mixed_leaf_separable(n, k, field, seed=seed)
    elif kind == "dense":
        psi = random_fixed_weight_state(n, ell, field, seed=seed)
    else:
        psi = random_leaf_separable(n, k, ell, field, seed=seed)
        if kind == "near miss":
            psi = _near_miss(psi, tree)
    return psi, tree


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_separability_targets())
def test_batched_separability_matches_per_class_oracle(case):
    psi, tree = case
    got = is_leaf_separable(psi, tree)
    want = separability_oracle(psi, tree, distribution_table(psi, tree))
    assert got.separable == want.separable
    assert got.distributions == want.distributions
    assert len(got.violations) == len(want.violations)
    for g, w in zip(got.violations, want.violations):
        assert g.keys() == w.keys()
        assert (g["I"], g.get("bitstring"), g.get("error")) == \
            (w["I"], w.get("bitstring"), w.get("error"))
        if "delta" in w:
            assert g["delta"] == pytest.approx(w["delta"], rel=1e-12, abs=0)
    assert got.max_delta == pytest.approx(want.max_delta, rel=1e-12, abs=0)


def test_split_amplitudes_worked_example(worked_example):
    betas = weight_split_amplitudes(worked_example, TREE42.root, 2)
    assert np.allclose(betas, [0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)


def test_split_amplitudes_dicke():
    # brute-force expectation: sqrt(C(2,i) C(2,2-i) / C(4,2))
    betas = weight_split_amplitudes(dicke_state(4, 2), TREE42.root, 2)
    expected = np.sqrt(np.array([1.0, 4.0, 1.0]) / 6.0)
    assert np.allclose(betas, expected, atol=1e-12)


def test_split_amplitudes_single_split():
    psi = StateVector.basis(4, "1100")
    betas = weight_split_amplitudes(psi, TREE42.root, 2)
    assert np.allclose(betas, [0.0, 0.0, 1.0])


def test_split_amplitudes_dead_node_rejected():
    psi = StateVector.basis(4, "1100")
    with pytest.raises(ValueError):
        weight_split_amplitudes(psi, TREE42.root, 1)


def test_ladder_angles_worked_example():
    thetas = rotation_ladder_angles([0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert abs(thetas[0] - math.pi) < 1e-12
    assert abs(thetas[1] - math.pi / 2) < 1e-12


def test_ladder_angles_trivial():
    assert rotation_ladder_angles([1.0, 0.0]) == [0.0]


def test_ladder_angles_dicke_values():
    betas = np.sqrt(np.array([1.0, 4.0, 1.0]) / 6.0)
    thetas = rotation_ladder_angles(betas)
    assert abs(thetas[0] - 2 * math.atan(math.sqrt(5))) < 1e-12
    assert abs(thetas[1] - 2 * math.atan(0.5)) < 1e-12


def test_ladder_angles_round_trip_through_chain():
    # recover the amplitudes by simulating the staircase the angles drive
    from leafsep.circuit import Circuit
    from leafsep.simulator import simulate
    from leafsep.synthesis import synthesize_mixed_weight_input
    profile = np.sqrt(np.array([1.0, 4.0, 1.0]) / 6.0)
    circ = Circuit(n_system=4)
    circ.extend(synthesize_mixed_weight_input(profile, 4))
    res = simulate(circ)
    for ell, expected in enumerate(profile):
        bits = "0" * (4 - ell) + "1" * ell
        assert abs(res.state.amplitude(bits) - expected) < 1e-10


def test_leaf_amplitude_table_worked_example(worked_example):
    table = leaf_amplitude_table(worked_example, TREE42)
    r = 1 / math.sqrt(2)
    assert np.allclose(table.get(0, 1), [r, r])
    assert np.allclose(table.get(1, 1), [r, r])
    assert np.allclose(table.get(0, 2), [1.0])
    assert np.allclose(table.get(1, 0), [1.0])
    # (0, 0) never reachable: weight 2 cannot sit entirely on a 2-qubit right leaf
    # with the left leaf at 0 while (0,2) has no support; the pair is keyed only
    # when some supported distribution reaches it.
    assert table.get(0, 0) is None


def test_leaf_amplitude_table_single_state():
    table = leaf_amplitude_table(StateVector.basis(4, "1100"), TREE42)
    assert np.allclose(table.get(0, 2), [1.0])
    assert np.allclose(table.get(1, 0), [1.0])
    assert table.classes() == [(0, 2), (1, 0)]


def test_table_order_matches_ehrlich():
    # craft a leaf state with distinct amplitudes to pin the ordering
    amps = {"0011": 0.9, "0101": 0.3, "0110": math.sqrt(1 - 0.81 - 0.09)}
    psi = StateVector.from_terms(4, amps)
    tree = build_partition_tree(4, 4)
    table = leaf_amplitude_table(psi, tree)
    order = ehrlich_sequence(4, 2)
    eta = table.get(0, 2)
    for bits, value in amps.items():
        assert abs(eta[order.index(bits)] - value) < 1e-12
    assert abs(table.amplitude(0, 2, "0101") - 0.3) < 1e-12


@pytest.mark.parametrize("n,k,kind", [(6, 2, "real"), (6, 3, "complex"),
                                      (8, 4, "complex"), (9, 3, "real")])
def test_reconstruction_matches_original(n, k, kind):
    psi = random_leaf_separable(n, k, n // 2, kind, seed=[5, n, k])
    rebuilt = reconstruct_amplitudes(psi, build_partition_tree(n, k))
    assert np.max(np.abs(rebuilt.amplitudes - psi.amplitudes)) < 1e-10


def test_gamma_consistency_across_distributions():
    """Shared (leaf, weight) classes, computed from whichever distribution is
    reached first, must reproduce every distribution of a separable state."""
    psi = random_leaf_separable(6, 2, 3, "complex", seed=77)
    rebuilt = reconstruct_amplitudes(psi, build_partition_tree(6, 2))
    assert np.max(np.abs(rebuilt.amplitudes - psi.amplitudes)) < 1e-10


def test_encoder_angles_examples():
    pairs, trailing = encoder_angles([1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert len(pairs) == 1
    assert abs(pairs[0][0] - math.pi / 2) < 1e-12
    assert abs(pairs[0][1]) < 1e-15
    assert trailing == 0.0

    pairs, trailing = encoder_angles([1.0, 0.0, 0.0, 0.0])
    assert all(abs(t) < 1e-15 for t, _ in pairs)
    assert trailing == 0.0


def test_encoder_angles_round_trip_real():
    rng = np.random.default_rng(11)
    eta = rng.standard_normal(6)
    eta /= np.linalg.norm(eta)
    _assert_chain_recovers(4, 2, eta)


def test_encoder_angles_round_trip_complex():
    rng = np.random.default_rng(12)
    eta = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    eta /= np.linalg.norm(eta)
    _assert_chain_recovers(5, 2, eta)


def _assert_chain_recovers(n, w, eta):
    from leafsep.circuit import Circuit, x
    from leafsep.simulator import simulate
    from leafsep.synthesis import synthesize_hwk_encoder
    circ = Circuit(n_system=n)
    for q in range(n - w, n):
        circ.add(x(q))
    circ.extend(synthesize_hwk_encoder(n, w, eta))
    res = simulate(circ)
    order = ehrlich_sequence(n, w)
    got = np.array([res.state.amplitude(g) for g in order])
    assert np.max(np.abs(got - eta)) < 1e-10


def test_mixed_weight_profile():
    psi = StateVector.basis(6, "000111")
    profile = mixed_weight_profile(psi)
    assert np.allclose(profile, [0, 0, 0, 1])

    psi = StateVector.from_terms(2, {"00": 1 / math.sqrt(2), "01": 1 / math.sqrt(2)})
    assert np.allclose(mixed_weight_profile(psi), [1 / math.sqrt(2), 1 / math.sqrt(2)])

    with pytest.raises(ValueError):
        mixed_weight_profile(StateVector.basis(4, "0111"))


def test_mixed_weight_profile_random_unit_norm():
    rng = np.random.default_rng(4)
    n = 6
    amps = np.zeros(1 << n, dtype=np.complex128)
    idx = [i for i in range(1 << n) if bin(i).count("1") <= n // 2]
    vals = rng.standard_normal(len(idx))
    amps[idx] = vals / np.linalg.norm(vals)
    profile = mixed_weight_profile(StateVector(n, amps))
    assert abs(float(np.sum(profile ** 2)) - 1.0) < 1e-12


def test_split_norm_recomposition():
    psi = random_leaf_separable(8, 2, 4, "real", seed=6)
    tree = build_partition_tree(8, 2)
    from leafsep.analysis import node_split_norms, node_weight_norms
    probs = np.abs(psi.amplitudes) ** 2
    for node in tree.internal_nodes():
        norms = node_weight_norms(psi, node)
        assert np.array_equal(node_weight_norms(psi, node, probs=probs), norms)
        for m in range(node.size + 1):
            splits = node_split_norms(psi, node, m)
            assert abs(float(np.sum(splits ** 2)) - norms[m] ** 2) < 1e-12
            assert np.array_equal(node_split_norms(psi, node, m, probs=probs), splits)
            if norms[m] > 0:
                assert np.array_equal(weight_split_amplitudes(psi, node, m, probs=probs),
                                      weight_split_amplitudes(psi, node, m))
