"""Shared vocabulary: bitstrings, state vectors, partition trees, weight distributions.

Bit order convention used everywhere in this package: the leftmost character
of a bitstring is qubit 0 and the most significant bit of the integer index.
So ``"0011"`` on 4 qubits is index 3, with qubits 2 and 3 set.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12

# Largest register a dense state (2^n amplitudes) may span.
MAX_QUBITS = 32


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
    """Interpret a bitstring as a binary number, leftmost character most significant."""
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
        raise ValueError(f"leaf_size must be in [1, {n}], got {leaf_size}")

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
    """Dense complex amplitudes over an n-qubit register, indexed MSB-first."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, n: int, amplitudes, normalize: bool = False, check: bool = True):
        size = dense_size(n)
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != size:
            raise ValueError(f"expected {size} amplitudes for n={n}, got {amps.shape[0]}")
        if (normalize or check) and not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite, got NaN or infinity")
        if normalize:
            norm = np.linalg.norm(amps)
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / norm
        elif check and abs(np.vdot(amps, amps).real - 1.0) > 1e-9:
            raise ValueError("state vector is not normalized")
        self.n = n
        self.amplitudes = amps

    @classmethod
    def basis(cls, n: int, bits: str) -> "StateVector":
        if len(bits) != n:
            raise ValueError(f"expected a {n}-bit string, got {bits!r}")
        amps = np.zeros(dense_size(n), dtype=np.complex128)
        amps[string_to_index(bits)] = 1.0
        return cls(n, amps)

    @classmethod
    def from_terms(cls, n: int, terms: dict, normalize: bool = False) -> "StateVector":
        """Build from a {bitstring-or-index: amplitude} mapping; missing entries are zero."""
        amps = np.zeros(dense_size(n), dtype=np.complex128)
        for key, value in terms.items():
            idx = string_to_index(key) if isinstance(key, str) else int(key)
            amps[idx] = value
        return cls(n, amps, normalize=normalize)

    def amplitude(self, bits: str) -> complex:
        return complex(self.amplitudes[string_to_index(bits)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def support(self, tol: float = 1e-12) -> list[str]:
        """Bitstrings with |amplitude| above ``tol``, in index order."""
        return [index_to_string(i, self.n) for i in np.flatnonzero(np.abs(self.amplitudes) > tol)]

    def weights_present(self, tol: float = 1e-12) -> list[int]:
        """Hamming weights carrying probability above tol^2, ascending."""
        nonzero = np.flatnonzero(np.abs(self.amplitudes) ** 2 > tol * tol)
        return np.flatnonzero(np.bincount(np.bitwise_count(nonzero),
                                          minlength=self.n + 1)).tolist()

    def to_json_dict(self, tol: float = 1e-15) -> dict:
        entries = []
        for i in np.flatnonzero(np.abs(self.amplitudes) > tol):
            a = self.amplitudes[i]
            entries.append({"bitstring": index_to_string(int(i), self.n),
                            "re": float(a.real), "im": float(a.imag)})
        return {"n": self.n, "amplitudes": entries}

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
        amps = np.zeros(dense_size(n), dtype=np.complex128)
        listed: dict[int, int] = {}  # basis index -> position of its entry
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
            amps[idx] = (_parse_real(entry.get("re", 0.0), f"{where} re")
                         + 1j * _parse_real(entry.get("im", 0.0), f"{where} im"))
        return cls(n, amps, normalize=normalize)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def loads(cls, text: str, normalize: bool = False) -> "StateVector":
        return cls.from_json_dict(json.loads(text), normalize=normalize)

    def __eq__(self, other) -> bool:
        return (isinstance(other, StateVector) and self.n == other.n
                and np.array_equal(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        kept = ", ".join(f"{b}: {self.amplitude(b):.4g}" for b in self.support()[:4])
        more = "" if len(self.support()) <= 4 else ", ..."
        return f"StateVector(n={self.n}, {{{kept}{more}}})"
