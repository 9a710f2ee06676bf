"""Fixed-weight Gray enumeration.

``ehrlich_patterns`` lists every ``size``-bit integer of a given weight so that
consecutive patterns differ in exactly two bits (one '1' moves, Ehrlich 1973):
for neighbours a, b the moved pair is ``a ^ b``, the shared ones ``a & b``.  Bit
``size - 1`` is the leftmost position of a pattern's bitstring (MSB-first, as
basis indices in :mod:`leafsep.core`), and :func:`ehrlich_sequence` is the string
view of the same order.  The sequence always starts at the right-packed pattern
``0^(size-w) 1^w``; the rest of the order is this package's frozen convention,
shared by the amplitude tables and the circuit synthesizer.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def ehrlich_patterns(size: int, w: int) -> np.ndarray:
    """All C(size, w) weight-``w`` patterns as a read-only int64 array, neighbours at
    distance 2."""
    if w < 0 or w > size:
        raise ValueError(f"weight {w} out of range for {size} bits")
    if w == 0 or w == size:
        out = np.array([(1 << w) - 1], dtype=np.int64)
    else:
        # Prefix-0 block keeps the right-packed start; the reflected prefix-1 block
        # meets it at distance 2 (the last patterns of E(size-1, w) and
        # E(size-1, w-1) differ in exactly one bit).
        out = np.concatenate([ehrlich_patterns(size - 1, w),
                              (1 << (size - 1)) | ehrlich_patterns(size - 1, w - 1)[::-1]])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def ehrlich_sequence(n_bits: int, w: int) -> tuple[str, ...]:
    """The bitstrings of :func:`ehrlich_patterns`, in its order."""
    return tuple(format(p | 1 << n_bits, "b")[1:] for p in ehrlich_patterns(n_bits, w).tolist())
