"""Shared vocabulary: bitstrings, states, partition trees, weight distributions.

Bit order convention used everywhere in this package: the leftmost character
of a bitstring is qubit 0 and the most significant bit of the integer index.
So ``"0011"`` on 4 qubits is index 3, with qubits 2 and 3 set.

A :class:`StateVector` is held as its support: ascending int64 basis indices and
their non-zero amplitudes, so a weight-ell target on n qubits takes C(n, ell)
entries, not 2^n.  It is read by sorted search (:func:`find_sorted`,
:meth:`StateVector.lookup`); its 2^n dense amplitudes are built only on request.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

# Largest register a dense state (2^n amplitudes) may span.
MAX_QUBITS = 32
# Basis indices are int64, so no state spans more than this many qubits.
MAX_INDEX_QUBITS = 63


class ParseError(ValueError):
    """Malformed input text, with its 1-based line and column when one is known."""

    def __init__(self, message: str, line: int | None = None, column: int = 0):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _parse_integer(value, what: str) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_real(value, what: str) -> float:
    """A finite JSON number; booleans and strings are rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, got {value!r}")
    if abs(value) > sys.float_info.max or not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {value!r}")
    return float(value)


def string_to_index(bits: str) -> int:
    """Interpret a bitstring of ``0`` and ``1`` characters as a binary number, leftmost
    character most significant."""
    if bits.strip("01"):  # int(bits, 2) also takes signs, prefixes, underscores, spaces
        raise ValueError(f"not a bitstring: {bits!r}")
    return int(bits, 2) if bits else 0


def index_to_string(index: int, n: int) -> str:
    """Inverse of :func:`string_to_index` for an ``n``-qubit register."""
    if index < 0 or index >= (1 << n):
        raise ValueError(f"index {index} out of range for {n} qubits")
    return format(index, f"0{n}b")


def dense_size(n: int) -> int:
    """2^n, the length of a dense state over ``n`` wires, once n is within the limit."""
    if n > MAX_QUBITS:
        raise ValueError(f"{n} wires exceed the maximum of {MAX_QUBITS} for dense states")
    return 1 << n


def check_index_width(n: int) -> None:
    """Reject registers whose basis indices do not fit in int64."""
    if not 0 <= n <= MAX_INDEX_QUBITS:
        raise ValueError(f"n = {n} is outside the {MAX_INDEX_QUBITS}-qubit index limit of "
                         "int64 basis indices")


def find_sorted(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each of ``queries`` in the ascending ``keys``, and whether it is there;
    both arrays of one integer type."""
    if len(keys) == 0:
        return np.zeros(len(queries), dtype=np.intp), np.zeros(len(queries), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return pos, keys[pos] == queries


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """``values`` (2^m contiguous floats) in place, entry p becoming sum_q (-1)^|p & q|
    values[q]: the unnormalised Walsh-Hadamard transform, bit 0's butterflies first."""
    for j in range((len(values) - 1).bit_length()):
        pairs = values.reshape(-1, 2, 1 << j)
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
    return values


@dataclass(frozen=True)
class TreeNode:
    """One node of a partition tree over a contiguous qubit range."""

    start: int
    size: int
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def qubits(self) -> range:
        return range(self.start, self.start + self.size)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def mask(self, n: int) -> int:
        """Integer mask selecting this node's qubits under the MSB-first order."""
        m = 0
        for q in self.qubits:
            m |= 1 << (n - 1 - q)
        return m


@dataclass(frozen=True)
class PartitionTree:
    """Binary tree over qubits 0..n-1 with leaves of size at most ``leaf_size``."""

    n: int
    leaf_size: int
    root: TreeNode
    leaves: tuple[TreeNode, ...] = field(default_factory=tuple)

    @property
    def leaf_sizes(self) -> tuple[int, ...]:
        return tuple(leaf.size for leaf in self.leaves)

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    def internal_nodes(self) -> list[TreeNode]:
        """Internal nodes in preorder (each parent before its children)."""
        out: list[TreeNode] = []

        def walk(node: TreeNode) -> None:
            if node.is_leaf:
                return
            out.append(node)
            walk(node.left)
            walk(node.right)

        walk(self.root)
        return out


def build_partition_tree(n: int, leaf_size: int) -> PartitionTree:
    """Chunk qubits 0..n-1 into contiguous blocks of ``leaf_size`` and halve recursively.

    The chunk list is split at ``mid = len(chunks) // 2`` at every level, so the
    tree is balanced over chunks and every leaf is one chunk (the last chunk has
    ``n mod leaf_size`` qubits when that is nonzero).
    """
    if leaf_size < 1 or leaf_size > n:
        raise ValueError(f"k must be in [1, {n}] for n={n}, got {leaf_size}")

    chunks = [(i, min(leaf_size, n - i)) for i in range(0, n, leaf_size)]

    def build(lo: int, hi: int) -> TreeNode:
        if hi - lo == 1:
            start, size = chunks[lo]
            return TreeNode(start=start, size=size)
        mid = lo + (hi - lo) // 2
        left = build(lo, mid)
        right = build(mid, hi)
        return TreeNode(start=left.start, size=left.size + right.size, left=left, right=right)

    root = build(0, len(chunks))
    leaves = tuple(TreeNode(start=s, size=z) for s, z in chunks)
    return PartitionTree(n=n, leaf_size=leaf_size, root=root, leaves=leaves)


def enumerate_weight_distributions(leaf_sizes, total: int) -> list[tuple[int, ...]]:
    """All tuples (i_1..i_G) with sum ``total`` and 0 <= i_u <= leaf_sizes[u], ascending.

    Returns the empty list when no distribution is feasible.
    """
    sizes = tuple(leaf_sizes)
    head = sum(sizes)     # capacity of the leaves not prepended yet
    suffixes = {0: [()]}  # weight -> ascending distributions of the leaves prepended so far
    for size in reversed(sizes):
        head -= size
        suffixes = {r: [(i,) + t for i in range(min(size, r) + 1) for t in suffixes.get(r - i, ())]
                    for r in range(max(0, total - head), total + 1)}
    return suffixes.get(total, [])


class StateVector:
    """A state on an n-qubit register held as its support: ascending basis indices
    (MSB-first) and their non-zero amplitudes.  The constructor sorts indices given out
    of order, rejects one given twice and drops zero amplitudes.  A checked state owns
    copies of the arrays it is given; ``check=False`` skips the finiteness and norm
    checks and keeps arrays of the right type, for callers that own them."""

    __slots__ = ("n", "indices", "values")

    def __init__(self, n: int, indices, values, normalize: bool = False, check: bool = True):
        check_index_width(n)
        convert = np.array if check else np.asarray
        idx = convert(indices, dtype=np.int64).reshape(-1)
        vals = convert(values, dtype=np.complex128).reshape(-1)
        if idx.shape != vals.shape:
            raise ValueError(f"{len(idx)} indices but {len(vals)} amplitudes")
        if np.any(idx[1:] <= idx[:-1]):
            order = np.argsort(idx)
            idx, vals = idx[order], vals[order]
            if np.any(idx[1:] == idx[:-1]):
                raise ValueError("a basis index is listed twice")
        if len(idx) and (idx[0] < 0 or idx[-1] >= 1 << n):
            raise ValueError(f"basis indices must be in [0, 2^{n}) for n={n}")
        kept = vals != 0
        if not kept.all():
            idx, vals = idx[kept], vals[kept]
        if (normalize or check) and not np.all(np.isfinite(vals)):
            raise ValueError("amplitudes must be finite, got NaN or infinity")
        if normalize:
            norm = np.linalg.norm(vals)
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            vals = vals / norm
        elif check and abs(np.vdot(vals, vals).real - 1.0) > 1e-9:
            raise ValueError("state vector is not normalized")
        self.n, self.indices, self.values = n, idx, vals

    @classmethod
    def from_dense(cls, n: int, amplitudes, normalize: bool = False,
                   check: bool = True) -> "StateVector":
        """From all 2^n amplitudes in index order."""
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(dense_size(n))
        idx = np.flatnonzero(amps)
        return cls(n, idx, amps[idx], normalize=normalize, check=check)

    @classmethod
    def basis(cls, n: int, bits: str) -> "StateVector":
        if len(bits) != n:
            raise ValueError(f"expected a {n}-bit string, got {bits!r}")
        return cls(n, [string_to_index(bits)], [1.0])

    @classmethod
    def from_terms(cls, n: int, terms: dict, normalize: bool = False) -> "StateVector":
        """Build from a {bitstring-or-index: amplitude} mapping; missing entries are zero."""
        indices = [string_to_index(key) if isinstance(key, str) else int(key) for key in terms]
        return cls(n, indices, list(terms.values()), normalize=normalize)

    @property
    def amplitudes(self) -> np.ndarray:
        """All 2^n amplitudes in index order, built on each request."""
        amps = np.zeros(dense_size(self.n), dtype=np.complex128)
        amps[self.indices] = self.values
        return amps

    def lookup(self, indices) -> np.ndarray:
        """The amplitudes at ``indices``, 0 where the support has none."""
        queries = np.asarray(indices, dtype=np.int64)
        # Most reads ask for the support itself: the class members of a full-class
        # target, or a simulated output's rows against its target.  Searching those
        # costs about 25 ns an entry (0.4 ms of a 15-qubit fidelity).
        if np.array_equal(queries, self.indices):
            return self.values.copy()
        pos, found = find_sorted(self.indices, queries)
        out = np.zeros(len(pos), dtype=np.complex128)
        out[found] = self.values[pos[found]]
        return out

    def amplitude(self, bits: str) -> complex:
        if len(bits) != self.n:
            raise ValueError(f"expected a {self.n}-bit string, got {bits!r}")
        index = string_to_index(bits)
        pos = self.indices.searchsorted(index)
        if pos < len(self.indices) and self.indices.item(pos) == index:
            return self.values.item(pos)
        return 0j

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def weights_present(self, tol: float = 1e-12) -> list[int]:
        """Hamming weights carrying probability above tol^2, ascending."""
        kept = self.indices[np.abs(self.values) ** 2 > tol * tol]
        return np.flatnonzero(np.bincount(np.bitwise_count(kept),
                                          minlength=self.n + 1)).tolist()

    def to_json_dict(self) -> dict:
        kept = np.abs(self.values) > 1e-15
        return {"n": self.n, "amplitudes": [
            {"bitstring": index_to_string(i, self.n), "re": a.real, "im": a.imag}
            for i, a in zip(self.indices[kept].tolist(), self.values[kept].tolist())]}

    @classmethod
    def from_json_dict(cls, data: dict, normalize: bool = False) -> "StateVector":
        """Inverse of :meth:`to_json_dict`.  A malformed structure, an ``n`` or ``index`` that
        is not a JSON integer, a repeated basis state or an amplitude part that is not a
        finite JSON number raises :class:`ParseError`."""
        if not isinstance(data, dict) or "n" not in data \
                or not isinstance(data.get("amplitudes"), list):
            raise ParseError('a state must be an object with "n" and an "amplitudes" array')
        n = _parse_integer(data["n"], '"n"')
        if n < 0:
            raise ParseError(f'"n" must be non-negative, got {n}')
        dense_size(n)
        listed: dict[int, int] = {}  # basis index -> position of its entry
        values = []
        for pos, entry in enumerate(data["amplitudes"]):
            where = f"amplitudes[{pos}]"
            if not isinstance(entry, dict):
                raise ParseError(f"{where} must be an object")
            if "bitstring" in entry:
                bits = entry["bitstring"]
                if not isinstance(bits, str) or len(bits) != n or set(bits) - {"0", "1"}:
                    raise ParseError(f"{where}: bitstring {bits!r} is not {n} binary digits")
                idx = string_to_index(bits)
            else:
                idx = _parse_integer(entry.get("index"), f"{where} index")
                if not 0 <= idx < 1 << n:
                    raise ParseError(f"{where}: index {idx} out of range for n={n}")
            if idx in listed:
                raise ParseError(f"{where}: basis state {index_to_string(idx, n)} is already "
                                 f"listed at amplitudes[{listed[idx]}]")
            listed[idx] = pos
            values.append(complex(_parse_real(entry.get("re", 0.0), f"{where} re"),
                                  _parse_real(entry.get("im", 0.0), f"{where} im")))
        return cls(n, list(listed), values, normalize=normalize)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def loads(cls, text: str, normalize: bool = False) -> "StateVector":
        return cls.from_json_dict(json.loads(text), normalize=normalize)

    def __eq__(self, other) -> bool:
        return (isinstance(other, StateVector) and self.n == other.n
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        kept = ", ".join(f"{index_to_string(i, self.n)}: {a:.4g}"
                         for i, a in zip(self.indices[:4].tolist(), self.values[:4].tolist()))
        more = "" if len(self.indices) <= 4 else ", ..."
        return f"StateVector(n={self.n}, {{{kept}{more}}})"
