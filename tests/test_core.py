import itertools
import json

import numpy as np
import pytest

from leafsep.core import (MAX_QUBITS, ParseError, StateVector, build_partition_tree,
                          enumerate_weight_distributions, index_to_string, string_to_index)


def test_hamming_weight():
    """``weights_present`` lists the Hamming weights of the support above ``tol``, once each."""
    psi = StateVector.from_terms(4, {"0011": 0.6, "0000": 0.0, "1100": 0.6, "1110": 0.53},
                                 normalize=True)
    assert psi.weights_present() == [2, 3]
    assert psi.weights_present(tol=0.55) == [2]
    assert StateVector.basis(5, "11111").weights_present() == [5]
    assert StateVector(3, np.full(8, 1e-13), check=False).weights_present() == []


def test_string_index_round_trip():
    for n in range(1, 9):
        for i in range(1 << n):
            s = index_to_string(i, n)
            assert string_to_index(s) == i
            assert len(s) == n


def test_partition_tree_4_2():
    tree = build_partition_tree(4, 2)
    assert tree.root.qubits == range(0, 4)
    assert [(l.start, l.size) for l in tree.leaves] == [(0, 2), (2, 2)]
    assert tree.root.left.size == 2


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


def _weight_distribution(index: int, tree) -> tuple[int, ...]:
    return tuple(int(np.bitwise_count(index & leaf.mask(tree.n))) for leaf in tree.leaves)


def test_weight_distribution_of():
    """A leaf's mask picks its qubits out of an index, bit 0 the most significant."""
    tree = build_partition_tree(4, 2)
    assert _weight_distribution(0b0101, tree) == (1, 1)
    assert _weight_distribution(0b1100, tree) == (2, 0)
    assert _weight_distribution(0b0000, tree) == (0, 0)
    tree = build_partition_tree(7, 3)
    assert [leaf.mask(7) for leaf in tree.leaves] == [0b1110000, 0b0001110, 0b0000001]


def test_weight_distribution_sums_to_weight():
    """The leaf masks partition every index's bits."""
    for n, k in [(6, 2), (7, 3), (8, 3)]:
        tree = build_partition_tree(n, k)
        idx = np.arange(1 << n)
        per_leaf = sum(np.bitwise_count(idx & leaf.mask(n)).astype(np.int64)
                       for leaf in tree.leaves)
        assert np.array_equal(per_leaf, np.bitwise_count(idx))
        assert sum(leaf.mask(n) for leaf in tree.leaves) == (1 << n) - 1


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
