import itertools
import json
import math

import numpy as np
import pytest

from leafsep.core import (MAX_QUBITS, ParseError, StateVector, build_partition_tree,
                          dicke_state,
                          enumerate_weight_distributions, hamming_weight,
                          index_to_string, restrict, string_to_index,
                          weight_distribution_of)


def test_hamming_weight():
    assert hamming_weight("0011") == 2
    assert hamming_weight("0000") == 0
    assert hamming_weight("1100") == 2


def test_string_index_round_trip():
    for n in range(1, 9):
        for i in range(1 << n):
            s = index_to_string(i, n)
            assert string_to_index(s) == i
            assert len(s) == n


def test_restrict():
    assert restrict("0101", {0, 1}) == "01"
    assert restrict("0101", {2, 3}) == "01"
    assert restrict("1100", range(4)) == "1100"
    with pytest.raises(IndexError):
        restrict("01", {5})


def test_partition_tree_4_2():
    tree = build_partition_tree(4, 2)
    assert tree.root.qubits == range(0, 4)
    assert [(l.start, l.size) for l in tree.leaves] == [(0, 2), (2, 2)]
    assert tree.root.left_size == 2


def test_partition_tree_single_leaf():
    tree = build_partition_tree(4, 4)
    assert tree.root.is_leaf
    assert tree.leaf_sizes == (4,)
    assert tree.internal_nodes() == []


def test_partition_tree_7_2():
    # chunks {01}{23}{45}{6}, halved at mid=2
    tree = build_partition_tree(7, 2)
    assert tree.leaf_sizes == (2, 2, 2, 1)
    left, right = tree.root.left, tree.root.right
    assert (left.start, left.size) == (0, 4)
    assert (right.start, right.size) == (4, 3)
    assert not left.is_leaf and not right.is_leaf


@pytest.mark.parametrize("n", range(1, 17))
def test_partition_tree_invariants_exhaustive(n):
    for k in range(1, n + 1):
        tree = build_partition_tree(n, k)
        covered = []
        for leaf in tree.leaves:
            assert leaf.size <= k
            covered.extend(leaf.qubits)
        assert covered == list(range(n))
        for node in tree.internal_nodes():
            child_qubits = list(node.left.qubits) + list(node.right.qubits)
            assert child_qubits == list(node.qubits)


def test_partition_tree_rejects_bad_leaf_size():
    with pytest.raises(ValueError):
        build_partition_tree(4, 0)
    with pytest.raises(ValueError):
        build_partition_tree(4, 5)


def test_enumerate_weight_distributions_examples():
    assert enumerate_weight_distributions((2, 2), 2) == [(0, 2), (1, 1), (2, 0)]
    assert enumerate_weight_distributions((2, 2), 0) == [(0, 0)]
    assert len(enumerate_weight_distributions((2, 2, 2), 3)) == 7
    assert enumerate_weight_distributions((2, 2), 5) == []


def test_enumerate_weight_distributions_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = int(rng.integers(1, 5))
        sizes = tuple(int(rng.integers(1, 4)) for _ in range(g))
        total = int(rng.integers(0, sum(sizes) + 1))
        got = enumerate_weight_distributions(sizes, total)
        expected = sorted(t for t in itertools.product(*(range(s + 1) for s in sizes))
                          if sum(t) == total)
        assert got == expected


def test_weight_distribution_of():
    tree = build_partition_tree(4, 2)
    assert weight_distribution_of("0101", tree) == (1, 1)
    assert weight_distribution_of("1100", tree) == (2, 0)
    assert weight_distribution_of("0000", tree) == (0, 0)


def test_weight_distribution_sums_to_weight():
    for n, k in [(6, 2), (7, 3), (8, 3)]:
        tree = build_partition_tree(n, k)
        for i in range(1 << n):
            bits = index_to_string(i, n)
            assert sum(weight_distribution_of(bits, tree)) == hamming_weight(bits)


def test_state_vector_normalization_guard():
    with pytest.raises(ValueError):
        StateVector(2, [1.0, 1.0, 0.0, 0.0])
    psi = StateVector(2, [1.0, 1.0, 0.0, 0.0], normalize=True)
    assert abs(psi.norm() - 1.0) < 1e-12


def test_state_vector_json_round_trip():
    psi = StateVector.from_terms(3, {"001": 0.6, "110": 0.8j})
    data = json.loads(psi.dumps())
    assert data["n"] == 3
    assert all("bitstring" in e for e in data["amplitudes"])
    again = StateVector.loads(psi.dumps())
    assert np.allclose(again.amplitudes, psi.amplitudes)


def test_state_vector_json_accepts_index_key():
    data = {"n": 2, "amplitudes": [{"index": 3, "re": 1.0, "im": 0.0}]}
    psi = StateVector.from_json_dict(data)
    assert psi.amplitude("11") == 1.0


def test_dicke_state_amplitudes():
    psi = dicke_state(4, 2)
    expected = 1 / math.sqrt(6)
    for bits in ("0011", "0101", "0110", "1001", "1010", "1100"):
        assert abs(psi.amplitude(bits) - expected) < 1e-15
    assert abs(psi.amplitude("0001")) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
def test_state_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        StateVector(2, [bad, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        StateVector(2, [bad, 1.0, 0.0, 0.0], normalize=True)


def test_state_vector_rejects_too_many_wires():
    n = MAX_QUBITS + 1
    for build in (lambda: StateVector(n, []),
                  lambda: StateVector.basis(n, "0" * n),
                  lambda: StateVector.from_terms(n, {}),
                  lambda: StateVector.from_json_dict({"n": n, "amplitudes": []})):
        with pytest.raises(ValueError, match=f"maximum of {MAX_QUBITS}") as err:
            build()
        assert not isinstance(err.value, ParseError)
