import math

import numpy as np
import pytest

from leafsep.circuit import Circuit, crbs
from leafsep.combinatorics import controls_and_targets, ehrlich_sequence
from leafsep.core import StateVector, string_to_index
from leafsep.simulator import simulate


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


def test_controls_and_targets_examples():
    slot = controls_and_targets("0011", "0101")
    assert slot.controls == (3,)
    assert slot.target_pair == (2, 1)

    slot = controls_and_targets("01", "10")
    assert slot.controls == ()
    assert slot.target_pair == (1, 0)

    slot = controls_and_targets("0111", "1011")
    assert slot.controls == (2, 3)
    assert slot.target_pair == (1, 0)


def test_controls_and_targets_rejects_bad_input():
    with pytest.raises(ValueError):
        controls_and_targets("0011", "0000")
    with pytest.raises(ValueError):
        controls_and_targets("0011", "1100")  # distance 4
    with pytest.raises(ValueError):
        controls_and_targets("01", "011")


def test_shared_zeros():
    slot = controls_and_targets("01010", "01100")
    assert slot.shared_zeros == (0, 4)


@pytest.mark.parametrize("n,w", [(4, 2), (5, 2), (6, 3)])
def test_slot_rotation_confined_to_pair(n, w):
    """A rotation on a slot must mix only the pair and fix every other
    weight-w state whose controls are all satisfied or not."""
    seq = ehrlich_sequence(n, w)
    rng = np.random.default_rng(7)
    for a, b in list(zip(seq, seq[1:]))[:4]:
        slot = controls_and_targets(a, b)
        theta = float(rng.uniform(0.3, 2.8))
        circ = Circuit(n_system=n)
        circ.add(crbs(theta, 0.0, slot.target_pair[0], slot.target_pair[1],
                      [(c, 1) for c in slot.controls]))
        for other in seq:
            res = simulate(circ, initial=other)
            out = res.state.amplitudes
            if other in (a, b):
                support = {string_to_index(a), string_to_index(b)}
                assert set(np.flatnonzero(np.abs(out) > 1e-12)) <= support
            else:
                expected = StateVector.basis(n, other).amplitudes
                assert np.allclose(out, expected, atol=1e-12)
