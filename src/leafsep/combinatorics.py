"""Fixed-weight Gray enumeration and rotation-slot selection.

``ehrlich_sequence`` lists every length-n bitstring of a given weight so that
consecutive strings differ in exactly two positions (one '1' moves).  The
sequence always starts at the right-packed string ``0^(n-w) 1^w``; the rest of
the order is this package's frozen convention, shared by the amplitude tables
and the circuit synthesizer.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
def _ehrlich(n_bits: int, w: int) -> tuple[str, ...]:
    if w == 0:
        return ("0" * n_bits,)
    if w == n_bits:
        return ("1" * n_bits,)
    # Prefix-0 block keeps the right-packed start; the reflected prefix-1 block
    # meets it at Hamming distance 2 (last elements of E(n-1,w) and E(n-1,w-1)
    # differ in exactly one position).
    zeros = tuple("0" + s for s in _ehrlich(n_bits - 1, w))
    ones = tuple("1" + s for s in reversed(_ehrlich(n_bits - 1, w - 1)))
    return zeros + ones


def ehrlich_sequence(n_bits: int, w: int) -> tuple[str, ...]:
    """All C(n_bits, w) strings of weight ``w``, consecutive pairs at distance 2."""
    if w < 0 or w > n_bits:
        raise ValueError(f"weight {w} out of range for {n_bits} bits")
    return _ehrlich(n_bits, w)


@dataclass(frozen=True)
class RotationSlot:
    """Where a two-level rotation between two equal-weight strings acts.

    ``target_pair`` is ordered so the first position holds the '1' of
    ``from_string``; ``controls`` are the positions where both strings have '1'.
    """

    controls: tuple[int, ...]
    target_pair: tuple[int, int]
    from_string: str
    to_string: str

    @property
    def shared_zeros(self) -> tuple[int, ...]:
        return tuple(i for i, (a, b) in enumerate(zip(self.from_string, self.to_string))
                     if a == b == "0")


def controls_and_targets(b: str, b_next: str) -> RotationSlot:
    """Rotation slot between two weight-equal strings at Hamming distance 2."""
    if len(b) != len(b_next):
        raise ValueError("strings must have equal length")
    if b.count("1") != b_next.count("1"):
        raise ValueError("strings must have equal Hamming weight")
    diff = [i for i, (x, y) in enumerate(zip(b, b_next)) if x != y]
    if len(diff) != 2:
        raise ValueError(f"strings must differ in exactly 2 positions, got {len(diff)}")
    q1 = diff[0] if b[diff[0]] == "1" else diff[1]
    q2 = diff[1] if q1 == diff[0] else diff[0]
    controls = tuple(i for i, (x, y) in enumerate(zip(b, b_next)) if x == y == "1")
    return RotationSlot(controls=controls, target_pair=(q1, q2), from_string=b, to_string=b_next)
