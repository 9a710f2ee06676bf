import math

import numpy as np
import pytest
from conftest import (child_weight_norms, class_indices, dicke_state, separability_oracle,
                      simulated_compiled_state, tensor_factorization_check)
from hypothesis import given, settings
from hypothesis import strategies as st

from leafsep.analysis import (DEAD_BRANCH_TOL, _classes, analyze, distribution_table,
                              encoder_angles, is_leaf_separable, leaf_amplitude_table,
                              reconstruct_amplitudes, rotation_ladder_angles,
                              weight_split_amplitudes)
from leafsep.combinatorics import ehrlich_sequence
from leafsep.core import (StateVector, build_partition_tree, enumerate_weight_distributions,
                          index_to_string)
from leafsep.experiments import (random_fixed_weight_state, random_leaf_separable,
                                 random_mixed_leaf_separable)
from leafsep.simulator import simulate
from leafsep.synthesis import SynthesisConfig, synthesize_full

TREE42 = build_partition_tree(4, 2)


def test_class_indices_are_ascending_slices():
    """``_classes`` returns the rows of the given total weights in order, and each row's
    slice of members is the popcount oracle's class; a full weight set covers every index
    once, an infeasible weight adds no row."""
    for n in range(1, 10):
        for k in range(1, n + 1):
            tree = build_partition_tree(n, k)
            for weights in [tuple(range(n + 1)), (n // 2,), (n + 1, 0, n - 1), (n + 1,)]:
                dists, members, ends, ascending, rank = _classes(tree, weights)
                assert dists.dtype == members.dtype == ends.dtype == np.int64
                assert not (dists.flags.writeable or members.flags.writeable
                            or ends.flags.writeable or ascending.flags.writeable
                            or rank.flags.writeable)
                assert np.array_equal(ascending, np.sort(members))
                assert np.array_equal(ascending[rank], members)
                assert dists.tolist() == [
                    list(dist) for w in weights
                    for dist in enumerate_weight_distributions(tree.leaf_sizes, w)]
                assert len(ends) == len(dists) and len(members) == (ends[-1] if len(ends) else 0)
                for dist, part in zip(dists, np.split(members, ends[:-1])):
                    assert np.array_equal(part, class_indices(tree, dist))
            assert sorted(_classes(tree, tuple(range(n + 1)))[1]) == list(range(1 << n))


def test_classes_need_no_dense_index_space():
    """The classes come from the leaves alone: 40 qubits, past any dense state."""
    tree = build_partition_tree(40, 4)
    dists, members, ends = _classes(tree, (2,))[:3]
    assert members.dtype == np.int64 and len(members) == math.comb(40, 2) == 780
    assert len(set(members.tolist())) == 780 and np.all(np.bitwise_count(members) == 2)
    for dist, part in zip(dists, np.split(members, ends[:-1])):
        assert np.all(np.diff(part) > 0)
        for leaf, w in zip(tree.leaves, dist):
            assert np.all(np.bitwise_count(part & leaf.mask(40)) == w)


def _rows(table, column) -> dict:
    """One column of a distribution table keyed by the distribution's leaf weights."""
    return dict(zip(map(tuple, table.weights.tolist()), getattr(table, column).tolist()))


def test_distribution_reference_is_first_live_index(worked_example):
    table = distribution_table(worked_example, TREE42)
    assert _rows(table, "references") == {(0, 2): -1, (1, 1): 0b0101, (2, 0): 0b1100}
    assert _rows(table, "live") == {(0, 2): False, (1, 1): True, (2, 0): True}
    # the class after the empty (0, 2) in key order, (1, 0), starts with a live state
    mixed = StateVector.from_terms(4, {"0100": 0.6, "0101": 0.8})
    refs = _rows(distribution_table(mixed, TREE42), "references")
    assert refs[(0, 2)] == -1 and refs[(1, 0)] == 0b0100


def test_distribution_norms(worked_example):
    table = distribution_table(worked_example, TREE42)
    assert table.weights.shape == (3, 2) and table.weights.dtype == np.int64
    assert _rows(table, "norms") == {(0, 2): 0.0,
                                     (1, 1): pytest.approx(1 / math.sqrt(2), abs=1e-12),
                                     (2, 0): pytest.approx(1 / math.sqrt(2), abs=1e-12)}
    tree = build_partition_tree(7, 3)
    psi = random_mixed_leaf_separable(7, 3, "complex", seed=8)
    table = distribution_table(psi, tree)
    for weights, norm, ref, phase, live in zip(
            table.weights.tolist(), table.norms.tolist(), table.references.tolist(),
            table.phases.tolist(), table.live.tolist()):
        want = np.linalg.norm(psi.amplitudes[class_indices(tree, weights)])
        assert norm == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert phase == (0.0 if ref < 0 else float(np.angle(psi.amplitudes[ref])))
        assert live == (ref >= 0 and norm > DEAD_BRANCH_TOL)


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
    # reference 0110: both leaf vectors put all weight on its patterns 01 and 10, so
    # the compiled state is |0110> with c(1, 1) = 1; 1001 is missing from it
    assert report.violations == [{"I": [1, 1], "bitstring": "0110",
                                  "delta": pytest.approx(1 - 1 / math.sqrt(2), abs=1e-15)}]
    assert report.max_delta == 1 / math.sqrt(2)
    assert not tensor_factorization_check(bad, TREE42)


def test_separability_scans_every_distribution():
    """c(I) for every distribution, the first violation only, and the worst residual,
    checked against a scalar scan of |psi - simulated compiled state| over bitstrings."""
    tree = build_partition_tree(8, 2)
    psi = random_fixed_weight_state(8, 4, "complex", seed=11)
    report = is_leaf_separable(psi, tree)
    dists = distribution_table(psi, tree).weights.tolist()
    assert [d["I"] for d in report.distributions] == dists
    compiled = simulated_compiled_state(psi, tree)
    deltas = []    # (distribution, bitstring, residual) in scan order
    for weights in dists:
        for i in class_indices(tree, weights):
            bits = index_to_string(int(i), 8)
            deltas.append((weights, bits, abs(psi.amplitude(bits) - compiled[i])))
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


def test_heavy_mixed_target_is_checked():
    """Support above weight n/2 is checked like the rest: the compiled state puts 0.8
    on 1101 (leaf 1's weight-1 entry comes from 0001)."""
    psi = StateVector.from_terms(4, {"0001": 0.6, "1110": 0.8})
    report = is_leaf_separable(psi, TREE42)
    assert not report.separable
    assert report.max_delta == pytest.approx(0.8, abs=1e-15)
    assert report.violations == [{"I": [2, 1], "bitstring": "1101",
                                  "delta": pytest.approx(0.8, abs=1e-15)}]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_is_leaf_separable_rejects_bad_tolerance(worked_example, tol):
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        is_leaf_separable(worked_example, TREE42, tol)


def test_single_basis_state_is_separable():
    # on the (6, 2) tree, node weights that only dead distributions reach give 0 / 0
    # split probabilities, which must not warn (RuntimeWarning is an error in tier-1)
    for tree, bits in [(TREE42, "1100"), (TREE42, "0110"), (TREE42, "1010"),
                       (build_partition_tree(6, 2), "110000")]:
        psi = StateVector.basis(tree.n, bits)
        report = is_leaf_separable(psi, tree)
        assert report.separable and report.max_delta == 0.0
        assert tensor_factorization_check(psi, tree)


def _near_miss(psi, tree):
    """``psi`` with the largest amplitude of its largest class scaled by 1 + 1e-6."""
    idx = _largest_class(psi, tree)
    amps = psi.amplitudes.copy()
    amps[idx[np.argmax(np.abs(amps[idx]))]] *= 1 + 1e-6
    return StateVector.from_dense(psi.n, amps, normalize=True)


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
        cases.append(StateVector.from_dense(n, amps))
    for psi in cases:
        assert is_leaf_separable(psi, tree).separable == \
            tensor_factorization_check(psi, tree)


def test_no_reference_state_violations():
    """A checked class with no amplitude above the reference cutoff gets coefficient 0
    in the compiled state; its members are checked like all others, with no violation
    kind of its own."""
    tree = build_partition_tree(6, 3)
    faint = 0.9e-9 * 0.8  # below REFERENCE_REL_TOL * max|amp|; three give c(I) = 1.2e-9
    terms = {"000011": faint, "000101": faint, "000110": faint,  # (0, 2): before
             "001001": 0.8, "001010": 0.4, "010001": 0.4,        # (1, 1)
             "011000": faint, "101000": faint, "110000": faint}  # (2, 0): after
    # (1, 1) compiles to c * (a x a), a = (0.8, 0.4, 0) / sqrt(0.8) on patterns 001, 010,
    # 100 and c = 1: amplitudes 0.8, 0.4, 0.4 and 0.2 on 010010
    cases = [({"010010": 0.2}, [], faint),  # (1, 1) factorizes: only the faint residuals
             ({"100100": 0.2},              # 010010 is missing, 100100 is not compiled
              [{"I": [1, 1], "bitstring": "010010", "delta": pytest.approx(0.2, abs=1e-15)}],
              0.2)]
    for extra, violations, max_delta in cases:
        psi = StateVector.from_terms(6, {**terms, **extra})
        report = is_leaf_separable(psi, tree)
        assert report.violations == violations
        assert report.separable is not violations
        assert report.max_delta == max_delta
        assert [d["I"] for d in report.distributions] == [[0, 2], [1, 1], [2, 0]]
        assert all(d["c"] > report.tol for d in report.distributions)
        assert np.max(np.abs(psi.amplitudes - simulated_compiled_state(psi, tree))) == \
            pytest.approx(max_delta, abs=1e-15)


def test_violation_at_first_member_of_class():
    """The first violation can sit at the first member of a class; it is charged to
    that class, not to the class before it."""
    tree = build_partition_tree(6, 3)
    psi = StateVector.from_terms(6, {"000011": 0.5, "001001": 0.5, "010010": 0.5,
                                     "110000": 0.5})
    report = is_leaf_separable(psi, tree)
    # (0, 2) and (2, 0) compile exactly; (1, 1) has reference 001001 and both leaf
    # vectors are (1, 0, 0), so it compiles to c(1, 1) = sqrt(0.5) on 001001 alone
    assert report.violations == [{"I": [1, 1], "bitstring": "001001",
                                  "delta": pytest.approx(math.sqrt(0.5) - 0.5, rel=1e-12)}]
    assert report.max_delta == 0.5
    assert not separability_oracle(psi, tree, distribution_table(psi, tree)).separable


def _largest_class(psi, tree) -> np.ndarray:
    return max((class_indices(tree, weights)
                for weights in distribution_table(psi, tree).weights.tolist()), key=len)


def _with_class_vectors_of(psi, other, tree):
    """``psi`` with its largest class taken from ``other``, rescaled to the same norm:
    every class stays rank one, but that class's leaf vectors differ from the others'."""
    idx = _largest_class(psi, tree)
    amps = psi.amplitudes.copy()
    amps[idx] = other.amplitudes[idx] * (np.linalg.norm(amps[idx])
                                         / np.linalg.norm(other.amplitudes[idx]))
    return StateVector.from_dense(psi.n, amps, normalize=True)


@st.composite
def _separability_targets(draw):
    n = draw(st.sampled_from(range(3, 11)))
    k = draw(st.integers(1, n))
    ell = draw(st.integers(1, n - 1))
    field = draw(st.sampled_from(["real", "complex"]))
    kind = draw(st.sampled_from(["separable", "mixed", "dense", "near miss",
                                 "class vectors", "dense k = 1"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "dense k = 1":
        k = 1
    tree = build_partition_tree(n, k)
    if kind == "mixed":
        psi = random_mixed_leaf_separable(n, k, field, seed=seed)
    elif kind.startswith("dense"):
        psi = random_fixed_weight_state(n, ell, field, seed=seed)
    else:
        psi = random_leaf_separable(n, k, ell, field, seed=seed)
        if kind == "near miss":
            psi = _near_miss(psi, tree)
        elif kind == "class vectors":
            other = random_leaf_separable(n, k, ell, field, seed=[seed, 1])
            psi = _with_class_vectors_of(psi, other, tree)
    return psi, tree


@settings(max_examples=150)
@given(_separability_targets())
def test_batched_separability_matches_per_class_oracle(case):
    """The check measures |psi - simulated compiled state|, and rejects every target
    the per-class oracle rejects."""
    psi, tree = case
    got = is_leaf_separable(psi, tree)
    table = distribution_table(psi, tree)
    delta = np.abs(psi.amplitudes - simulated_compiled_state(psi, tree))
    assert abs(got.max_delta - np.max(delta)) < 1e-12
    assert got.separable == (np.max(delta) <= got.tol)
    scan = [(weights, int(i)) for weights in table.weights.tolist()
            for i in class_indices(tree, weights) if delta[i] > got.tol]
    assert len(got.violations) == min(len(scan), 1)
    for g in got.violations:
        assert (g["I"], g["bitstring"]) == (scan[0][0], index_to_string(scan[0][1], psi.n))
        assert abs(g["delta"] - delta[scan[0][1]]) < 1e-12
    want = separability_oracle(psi, tree, table)
    assert got.distributions == want.distributions
    if not want.separable:
        assert not got.separable


def test_split_amplitudes_worked_example(worked_example):
    splits = weight_split_amplitudes(TREE42, distribution_table(worked_example, TREE42))
    assert list(splits) == [TREE42.root]
    assert splits[TREE42.root].shape == (5, 3)
    assert np.allclose(splits[TREE42.root][2], [0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)],
                       atol=1e-12)


def test_split_amplitudes_dicke():
    # brute-force expectation: sqrt(C(2,i) C(2,2-i) / C(4,2))
    table = distribution_table(dicke_state(4, 2), TREE42, [2])
    betas = weight_split_amplitudes(TREE42, table)[TREE42.root][2]
    expected = np.sqrt(np.array([1.0, 4.0, 1.0]) / 6.0)
    assert np.allclose(betas, expected, atol=1e-12)


def test_split_amplitudes_single_split():
    psi = StateVector.basis(4, "1100")
    betas = weight_split_amplitudes(TREE42, distribution_table(psi, TREE42))[TREE42.root][2]
    assert np.allclose(betas, [0.0, 0.0, 1.0])


def test_split_amplitudes_dead_row_is_zero():
    """Row 0 is (1, 0, ...); a node weight without support, outside the table's total
    weights, or with norm at most DEAD_BRANCH_TOL gives a zero row."""
    psi = StateVector.basis(4, "1100")
    table = weight_split_amplitudes(TREE42, distribution_table(psi, TREE42))[TREE42.root]
    assert table.tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]]
    capped = weight_split_amplitudes(TREE42, distribution_table(psi, TREE42, [1]))[TREE42.root]
    assert capped.tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
    faint = StateVector.from_terms(4, {"1100": 1.0, "0100": 1e-13})  # weight-1 norm 1e-13
    faint_table = distribution_table(faint, TREE42, [1, 2])
    assert weight_split_amplitudes(TREE42, faint_table)[TREE42.root].tolist() == table.tolist()


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
    table = leaf_amplitude_table(worked_example, TREE42,
                                 distribution_table(worked_example, TREE42))
    r = 1 / math.sqrt(2)
    assert np.allclose(table[(0, 1)], [r, r])
    assert np.allclose(table[(1, 1)], [r, r])
    assert np.allclose(table[(0, 2)], [1.0])
    assert np.allclose(table[(1, 0)], [1.0])
    # (0, 0) never reachable: weight 2 cannot sit entirely on a 2-qubit right leaf
    # with the left leaf at 0 while (0,2) has no support; the pair is keyed only
    # when some supported distribution reaches it.
    assert (0, 0) not in table


def test_leaf_amplitude_table_single_state():
    psi = StateVector.basis(4, "1100")
    table = leaf_amplitude_table(psi, TREE42, distribution_table(psi, TREE42))
    assert np.allclose(table[(0, 2)], [1.0])
    assert np.allclose(table[(1, 0)], [1.0])
    assert sorted(table) == [(0, 2), (1, 0)]


def test_leaf_amplitude_table_skips_distributions_without_reference():
    """A (leaf, weight) entry comes from the first distribution in table order that
    reaches it and has a reference; a faint distribution before it is skipped."""
    faint = 1e-10  # both faint amplitudes lie below REFERENCE_REL_TOL * max|amp|
    psi = StateVector.from_terms(4, {
        "0001": 0.5, "0010": 0.5,                     # (0, 1)
        "0100": faint, "1000": 3 * faint,             # (1, 0): no reference state
        "0101": 0.12, "0110": 0.24, "1001": 0.16, "1010": 0.32,  # (1, 1)
        "1100": 0.3}, normalize=True)                 # (2, 0)
    dists = distribution_table(psi, TREE42)
    assert list(zip(dists.weights.tolist(), dists.references.tolist())) == [
        ([0, 1], 0b0001), ([1, 0], -1), ([0, 2], -1), ([1, 1], 0b0101), ([2, 0], 0b1100)]
    table = leaf_amplitude_table(psi, TREE42, dists)
    # leaf 0 at weight 1 is first reached by (1, 0), whose pattern ratio is 1 : 3;
    # its entry comes from (1, 1) instead, ratio 0.12 : 0.16 in Ehrlich order 01, 10
    assert np.allclose(table[(0, 1)], [0.6, 0.8], rtol=0, atol=1e-12)
    # leaf 1 at weight 1: (0, 1) comes first (ratio 1 : 1), not (1, 1) (ratio 1 : 2)
    assert np.allclose(table[(1, 1)], [math.sqrt(0.5)] * 2, rtol=0, atol=1e-12)
    assert sorted(table) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]


def test_table_order_matches_ehrlich():
    # craft a leaf state with distinct amplitudes to pin the ordering
    amps = {"0011": 0.9, "0101": 0.3, "0110": math.sqrt(1 - 0.81 - 0.09)}
    psi = StateVector.from_terms(4, amps)
    tree = build_partition_tree(4, 4)
    table = leaf_amplitude_table(psi, tree, distribution_table(psi, tree))
    order = ehrlich_sequence(4, 2)
    eta = table[(0, 2)]
    for bits, value in amps.items():
        assert abs(eta[order.index(bits)] - value) < 1e-12


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
    """The input stage's profile: exactly one-hot at a fixed weight, else the norm of
    the target at each weight, support above n/2 included (the input stage prepares it)."""
    psi = StateVector.basis(6, "000111")
    assert analyze(psi, build_partition_tree(6, 3)).profile.tolist() == [0, 0, 0, 1, 0, 0, 0]

    psi = StateVector.from_terms(2, {"00": 1 / math.sqrt(2), "01": 1 / math.sqrt(2)})
    assert np.allclose(analyze(psi, build_partition_tree(2, 1)).profile,
                       [1 / math.sqrt(2), 1 / math.sqrt(2), 0])

    heavy = StateVector.from_terms(4, {"0001": 0.6, "0111": 0.8})
    assert np.allclose(analyze(heavy, TREE42).profile, [0, 0.6, 0, 0.8, 0])
    assert simulate(synthesize_full(heavy, SynthesisConfig(n=4, k=2)),
                    target=heavy).fidelity == pytest.approx(1.0, abs=1e-15)


def test_mixed_weight_profile_random_unit_norm():
    rng = np.random.default_rng(4)
    n = 6
    amps = np.zeros(1 << n, dtype=np.complex128)
    idx = [i for i in range(1 << n) if bin(i).count("1") <= n // 2]
    vals = rng.standard_normal(len(idx))
    amps[idx] = vals / np.linalg.norm(vals)
    profile = analyze(StateVector.from_dense(n, amps), build_partition_tree(n, 2)).profile
    assert abs(float(np.sum(profile ** 2)) - 1.0) < 1e-12


def test_split_norm_recomposition():
    """Each live row of a node's split table is the class-by-class oracle's split norms
    at that node weight, normalized; rows without support are zero and row 0 is e_0."""
    for psi, tree in [(random_leaf_separable(8, 2, 4, "real", seed=6), build_partition_tree(8, 2)),
                      (random_mixed_leaf_separable(7, 3, "complex", seed=8),
                       build_partition_tree(7, 3)),
                      (random_fixed_weight_state(6, 3, "complex", seed=9),
                       build_partition_tree(6, 1)),
                      (StateVector.from_terms(4, {"0001": 0.6, "1110": 0.8}), TREE42)]:
        splits = weight_split_amplitudes(tree, distribution_table(psi, tree))
        assert list(splits) == tree.internal_nodes()
        for node in tree.internal_nodes():
            norms = child_weight_norms(psi, tree, node)
            table = splits[node]
            assert table.shape == (node.size + 1, node.left.size + 1)
            assert table[0].tolist() == [1.0] + [0.0] * node.left.size
            for m in range(1, node.size + 1):
                want = np.array([norms[i, m - i] if 0 <= m - i <= node.right.size else 0.0
                                 for i in range(node.left.size + 1)])
                if np.linalg.norm(want) > DEAD_BRANCH_TOL:
                    assert np.allclose(table[m], want / np.linalg.norm(want), rtol=0, atol=1e-12)
                else:
                    assert not table[m].any()


def test_classes_reject_indices_past_63_bits():
    """63 qubits fit int64 indices; at 64 the first leaf's patterns would reach the sign
    bit, so the classes fail instead of returning negative members."""
    members = _classes(build_partition_tree(63, 2), (1,))[1]
    assert len(members) == 63 and members.min() > 0
    with pytest.raises(ValueError, match="n = 64 is outside the 63-qubit index limit"):
        _classes(build_partition_tree(64, 2), (3,))
