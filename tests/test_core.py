import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafsep.core import (MAX_QUBITS, ParseError, StateVector, build_partition_tree,
                          enumerate_weight_distributions, find_sorted, index_to_string,
                          string_to_index)
from leafsep.simulator import fidelity, system_purity


def test_hamming_weight():
    """``weights_present`` lists the Hamming weights of the support above ``tol``, once each."""
    psi = StateVector.from_terms(4, {"0011": 0.6, "0000": 0.0, "1100": 0.6, "1110": 0.53},
                                 normalize=True)
    assert psi.weights_present() == [2, 3]
    assert psi.weights_present(tol=0.55) == [2]
    assert StateVector.basis(5, "11111").weights_present() == [5]
    assert StateVector.from_dense(3, np.full(8, 1e-13), check=False).weights_present() == []


def test_string_index_round_trip():
    for n in range(1, 9):
        for i in range(1 << n):
            s = index_to_string(i, n)
            assert string_to_index(s) == i
            assert len(s) == n
        for i in (-1, 1 << n):
            with pytest.raises(ValueError, match=f"index {i} out of range for {n} qubits"):
                index_to_string(i, n)


@pytest.mark.parametrize("build", [
    lambda: StateVector.basis(2, "+1"),                  # a sign
    lambda: StateVector.basis(3, "0b1"),                 # a base prefix
    lambda: StateVector.from_terms(4, {"1_01": 1.0}),    # an underscore between digits
    lambda: StateVector.basis(2, "01").amplitude(" 1"),  # whitespace
])
def test_bitstrings_hold_only_zeros_and_ones(build):
    """``int(bits, 2)`` takes each of these; a bitstring is ``0`` and ``1`` characters only."""
    with pytest.raises(ValueError, match="not a bitstring"):
        build()


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
    for k in (0, 5):
        with pytest.raises(ValueError, match=rf"^k must be in \[1, 4\] for n=4, got {k}$"):
            build_partition_tree(4, k)


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
        StateVector.from_dense(2, [1.0, 1.0, 0.0, 0.0])
    psi = StateVector.from_dense(2, [1.0, 1.0, 0.0, 0.0], normalize=True)
    assert abs(psi.norm() - 1.0) < 1e-12


def test_checked_state_vector_owns_its_arrays():
    """Changing the arrays a checked state was built from leaves the state as it was."""
    idx = np.array([0, 3], dtype=np.int64)
    vals = np.array([0.6, 0.8], dtype=np.complex128)
    psi = StateVector(2, idx, vals)
    vals[0], idx[1] = 5.0, 7
    assert abs(psi.norm() - 1.0) < 1e-12
    assert psi.indices.tolist() == [0, 3] and psi.values.tolist() == [0.6, 0.8]
    assert psi.amplitude("11") == 0.8


def test_empty_support_reads_zeros_and_repr_shows_four_entries():
    """A state with no support reads 0 everywhere; ``repr`` lists at most four entries
    and marks the rest with "..."."""
    empty = StateVector(3, [], [], check=False)
    assert np.array_equal(empty.lookup([0, 5, 7]), np.zeros(3))
    pos, found = find_sorted(np.array([], np.int64), np.array([2, 4]))
    assert pos.tolist() == [0, 0] and found.tolist() == [False, False]
    assert repr(empty) == "StateVector(n=3, {})"
    assert repr(StateVector.basis(2, "10")) == "StateVector(n=2, {10: 1+0j})"
    five = StateVector(3, [0, 1, 2, 3, 4], [0.5, -0.5, 0.5j, 0.25, 0.25], check=False)
    assert repr(five) == ("StateVector(n=3, {000: 0.5+0j, 001: -0.5+0j, 010: 0+0.5j, "
                          "011: 0.25+0j, ...})")


def test_state_vector_rejects_malformed_support():
    for build, message in [
            (lambda: StateVector(2, [0, 1], [1.0]), "2 indices but 1 amplitudes"),
            (lambda: StateVector(2, [4], [1.0]), r"basis indices must be in \[0, 2\^2\) for n=2"),
            (lambda: StateVector(2, [-1], [1.0]), r"basis indices must be in \[0, 2\^2\)"),
            (lambda: StateVector(2, [1], [0.0], normalize=True), "cannot normalize the zero vector"),
            (lambda: StateVector.basis(3, "01"), "expected a 3-bit string, got '01'"),
            (lambda: StateVector.from_json_dict({"n": -1, "amplitudes": []}),
             '"n" must be non-negative, got -1')]:
        with pytest.raises(ValueError, match=message):
            build()


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


def test_amplitude_rejects_a_bitstring_of_another_length():
    psi = StateVector.basis(4, "0011")
    assert psi.amplitude("0011") == 1.0 and psi.amplitude("0001") == 0.0
    for bits in ("11111", "011"):
        with pytest.raises(ValueError, match="expected a 4-bit string"):
            psi.amplitude(bits)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
def test_state_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        StateVector.from_dense(2, [bad, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        StateVector.from_dense(2, [bad, 1.0, 0.0, 0.0], normalize=True)


def test_state_vector_rejects_too_many_wires():
    """Dense amplitudes, both ways, and the state JSON stop at MAX_QUBITS."""
    n = MAX_QUBITS + 1
    for build in (lambda: StateVector.from_dense(n, []),
                  lambda: StateVector.basis(n, "0" * n).amplitudes,
                  lambda: StateVector.from_terms(n, {1: 1.0}).amplitudes,
                  lambda: StateVector.from_json_dict({"n": n, "amplitudes": []})):
        with pytest.raises(ValueError, match=f"maximum of {MAX_QUBITS}") as err:
            build()
        assert not isinstance(err.value, ParseError)


def test_state_vector_rejects_indices_past_63_bits():
    """Indices are int64: 63 qubits fit, 64 fail with an error naming the limit."""
    assert StateVector.basis(63, "1" * 63).indices.tolist() == [(1 << 63) - 1]
    for build in (lambda: StateVector(64, [0], [1.0]),
                  lambda: StateVector.basis(64, "0" * 64)):
        with pytest.raises(ValueError, match="n = 64 is outside the 63-qubit index limit"):
            build()


@st.composite
def _dense_states(draw):
    """A random unit vector on n_system + n_ancilla <= 12 qubits, as 2^n numpy amplitudes
    of which a random share is zero, with a random unit target on the system qubits."""
    n_system = draw(st.integers(1, 10))
    n_ancilla = draw(st.integers(0, 2))
    n = n_system + n_ancilla
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    amps = (rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)) \
        * (rng.random(1 << n) < share)
    amps[rng.integers(1 << n)] = 1.0 + 0.5j
    target = rng.standard_normal(1 << n_system) + 1j * rng.standard_normal(1 << n_system)
    return n_system, n, amps / np.linalg.norm(amps), target / np.linalg.norm(target), rng


@settings(max_examples=100)
@given(_dense_states())
def test_support_form_matches_dense_oracles(case):
    """Every reading of a support-form state against numpy on its dense amplitudes."""
    n_system, n, amps, target, rng = case
    present = np.flatnonzero(amps)
    shuffled = rng.permutation(present)
    psi = StateVector(n, shuffled, amps[shuffled])
    assert psi == StateVector.from_dense(n, amps)
    assert np.array_equal(psi.indices, present) and np.array_equal(psi.amplitudes, amps)
    queries = rng.integers(0, 1 << n, 40)
    assert np.array_equal(psi.lookup(queries), amps[queries])
    own = psi.lookup(present)  # the support itself
    assert np.array_equal(own, amps[present])
    own[:] = 0
    assert np.array_equal(psi.amplitudes, amps)
    assert abs(psi.norm() - np.linalg.norm(amps)) < 1e-12
    for tol in (1e-12, 0.05, 0.3):
        weights = {bin(i).count("1") for i in range(1 << n) if abs(amps[i]) ** 2 > tol * tol}
        assert psi.weights_present(tol) == sorted(weights)
    assert np.array_equal(StateVector.loads(psi.dumps()).amplitudes, amps)

    matrix = amps.reshape(1 << n_system, 1 << (n - n_system))
    expected = np.sum(np.abs(target.conj() @ matrix) ** 2)
    system = StateVector.from_dense(n_system, target)
    assert abs(fidelity(psi, system) - expected) < 1e-12
    assert abs(system_purity(psi, n_system)
               - np.sum(np.abs(matrix.conj().T @ matrix) ** 2)) < 1e-12

    repeated = np.append(shuffled, shuffled[0])
    with pytest.raises(ValueError, match="listed twice"):
        StateVector(n, repeated, amps[repeated], check=False)
