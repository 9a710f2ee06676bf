import math

import numpy as np
import pytest

from leafsep.circuit import Circuit, crbs
from leafsep.combinatorics import ehrlich_patterns, ehrlich_sequence
from leafsep.core import StateVector, string_to_index
from leafsep.simulator import simulate
from leafsep.synthesis import _chain_slots


def hamming_distance(a, b):
    return sum(x != y for x, y in zip(a, b))


def test_ehrlich_examples():
    assert ehrlich_sequence(2, 1) == ("01", "10")
    assert ehrlich_sequence(3, 0) == ("000",)
    seq = ehrlich_sequence(4, 2)
    assert len(seq) == 6
    assert seq[0] == "0011"
    assert all(hamming_distance(a, b) == 2 for a, b in zip(seq, seq[1:]))


def test_ehrlich_golden_order():
    # frozen package convention; the amplitude tables depend on this order
    assert ehrlich_sequence(4, 2) == ("0011", "0110", "0101", "1100", "1010", "1001")


@pytest.mark.parametrize("n", range(1, 11))
def test_ehrlich_permutation_and_chain(n):
    for w in range(n + 1):
        seq = ehrlich_sequence(n, w)
        assert len(seq) == math.comb(n, w)
        assert len(set(seq)) == len(seq)
        assert all(s.count("1") == w for s in seq)
        assert seq[0] == "0" * (n - w) + "1" * w
        assert all(hamming_distance(a, b) == 2 for a, b in zip(seq, seq[1:]))
        brute = sorted(format(i, f"0{n}b") for i in range(1 << n)
                       if bin(i).count("1") == w)
        assert sorted(seq) == brute


@pytest.mark.parametrize("n", range(1, 11))
def test_ehrlich_patterns_are_the_integer_order(n):
    for w in range(n + 1):
        order = ehrlich_patterns(n, w)
        assert order.dtype == np.int64 and not order.flags.writeable
        assert order.tolist() == [int(s, 2) for s in ehrlich_sequence(n, w)]
        a, b = order[:-1], order[1:]
        assert np.all(np.bitwise_count(a) == w) and np.all(np.bitwise_count(b) == w)
        assert np.all(np.bitwise_count(a ^ b) == 2)


def test_ehrlich_patterns_reject_bad_weight():
    with pytest.raises(ValueError):
        ehrlich_patterns(3, 4)
    with pytest.raises(ValueError):
        ehrlich_sequence(3, -1)


def test_chain_slot_examples():
    steps, phase = _chain_slots(4, 2, 0, ())          # 0011 -> 0110 first
    assert steps[0] == ((3, 1), ((2, 1),))
    assert phase == (3, ((0, 1),))                    # last pattern 1001
    steps, phase = _chain_slots(4, 2, 0, None)
    assert steps[0] == ((3, 1), ((0, -1), (2, 1)))
    assert phase == (3, ((0, 1), (1, -1), (2, -1)))
    steps, _ = _chain_slots(4, 2, 5, ((9, 1),))       # leaf at wires 5..8, ancilla 9
    assert steps[0] == ((8, 6), ((7, 1), (9, 1)))
    assert _chain_slots(2, 1, 0, ())[0] == (((1, 0), ()),)
    assert _chain_slots(3, 0, 0, None) == ((), None)


def test_shared_zeros():
    steps, _ = _chain_slots(5, 2, 0, None)            # 01100 -> 01010
    assert steps[3] == ((2, 3), ((0, -1), (1, 1), (4, -1)))
    for n in range(2, 9):
        for w in range(1, n):
            seq = ehrlich_sequence(n, w)
            steps, _ = _chain_slots(n, w, 0, None)
            for (a, b), (pair, controls) in zip(zip(seq, seq[1:]), steps):
                assert a[pair[0]] == b[pair[1]] == "1" and a[pair[1]] == b[pair[0]] == "0"
                assert controls == tuple((i, 1 if p == "1" else -1)
                                         for i, (p, q) in enumerate(zip(a, b)) if p == q)


@pytest.mark.parametrize("n,w", [(4, 2), (5, 2), (6, 3)])
def test_slot_rotation_confined_to_pair(n, w):
    """A rotation on a slot must mix only the pair and fix every other
    weight-w state whose controls are all satisfied or not."""
    seq = ehrlich_sequence(n, w)
    steps, _ = _chain_slots(n, w, 0, ())
    rng = np.random.default_rng(7)
    for (a, b), (pair, controls) in list(zip(zip(seq, seq[1:]), steps))[:4]:
        theta = float(rng.uniform(0.3, 2.8))
        circ = Circuit(n_system=n)
        circ.add(crbs(theta, 0.0, pair[0], pair[1], controls))
        for other in seq:
            res = simulate(circ, initial=StateVector.basis(n, other))
            out = res.state.amplitudes
            if other in (a, b):
                support = {string_to_index(a), string_to_index(b)}
                assert set(np.flatnonzero(np.abs(out) > 1e-12)) <= support
            else:
                expected = StateVector.basis(n, other).amplitudes
                assert np.allclose(out, expected, atol=1e-12)
