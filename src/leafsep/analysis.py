"""Amplitude analysis: distribution norms, split ratios, leaf tables, separability.

Everything here is a pure function of a target state and a partition tree.
The central objects:

* the distribution table: c(I) and a reference state for every weight
  distribution I (:func:`distribution_table`), built once per target,
* the per-node split amplitudes (conditional weight-split probabilities),
* the per-(leaf, weight) normalized local amplitudes that feed the
  Hamming-weight encoders, stored in the enumeration order of
  :func:`leafsep.combinatorics.ehrlich_sequence`,
* the compiled state, the state :func:`leafsep.synthesis.synthesize_full`
  prepares from the three above: the one model of separability.  A target is
  leaf-separable on a tree when it equals its compiled state.

Basis states are integer indices (MSB-first, see :mod:`leafsep.core`);
bitstrings appear only in reports.  Per tree, one cached grouping stably sorts
all 2^n indices by the mixed-radix key sum_u I_u * prod_{v>u} (size_v + 1) of
their weight distribution I, so the class of I is one ascending slice of that
order.  Leaf u owns the index bits of ``mask_u``: the basis state carrying the
leaf-u pattern of ``idx`` and agreeing with ``ref`` everywhere else is
``(ref & ~mask_u) | (idx & mask_u)``.  :func:`factored_amplitudes` goes the
other way, from c(I) and per-leaf tables to the dense vector.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .combinatorics import ehrlich_sequence
from .core import (PartitionTree, StateVector, TreeNode, enumerate_weight_distributions,
                   index_to_string, popcounts)

DEAD_BRANCH_TOL = 1e-12
REFERENCE_REL_TOL = 1e-9


@dataclass(frozen=True)
class _Grouping:
    """Basis indices of one tree sorted by weight distribution (see module docstring)."""

    strides: tuple[int, ...]    # mixed-radix place value of each leaf weight
    order: np.ndarray           # all basis indices, stably sorted by key
    starts: np.ndarray          # the class with key K is order[starts[K]:starts[K + 1]]


@lru_cache(maxsize=64)
def _grouping(tree: PartitionTree) -> _Grouping:
    n, sizes = tree.n, tree.leaf_sizes
    strides = tuple(math.prod(s + 1 for s in sizes[u + 1:]) for u in range(len(sizes)))
    idx = np.arange(1 << n, dtype=np.uint32)
    key = np.zeros(1 << n, dtype=np.int64)
    for leaf, stride in zip(tree.leaves, strides):
        key += stride * popcounts(idx & np.uint32(leaf.mask(n)))
    radix = strides[0] * (sizes[0] + 1)
    starts = np.zeros(radix + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=radix), out=starts[1:])
    return _Grouping(strides, np.argsort(key, kind="stable").astype(np.int32), starts)


@lru_cache(maxsize=None)
def _leaf_patterns(size: int, w: int) -> np.ndarray:
    """A ``size``-qubit leaf's local weight-``w`` patterns, as integers, in Ehrlich order."""
    return np.array([int(g, 2) for g in ehrlich_sequence(size, w)])


@dataclass(frozen=True)
class DistributionInfo:
    weights: tuple[int, ...]
    norm: float
    reference: int | None      # smallest basis index in the class with
    phase: float               # non-negligible amplitude, and its complex argument


def _concat_members(groups: _Grouping, keys) -> tuple[np.ndarray, np.ndarray]:
    """Members of the classes with the given keys, concatenated, and each class's end."""
    keys = np.asarray(keys, dtype=np.int64)
    lo = groups.starts[keys]
    lengths = groups.starts[keys + 1] - lo
    ends = np.cumsum(lengths)
    shift = np.repeat(lo - ends + lengths, lengths)  # grouping position minus batch position
    return groups.order[np.arange(len(shift)) + shift], ends


def distribution_table(psi: StateVector, tree: PartitionTree,
                       total_weights=None) -> list[DistributionInfo]:
    """All valid distributions for the given total weights, with c(I) and reference."""
    if total_weights is None:
        total_weights = psi.weights_present()
    amps = psi.amplitudes
    cutoff = REFERENCE_REL_TOL * float(np.max(np.abs(amps)))
    groups = _grouping(tree)
    dists = [dist for ell in total_weights
             for dist in enumerate_weight_distributions(tree.leaf_sizes, ell)]
    keys = np.array(dists, dtype=np.int64).reshape(-1, tree.num_leaves) @ groups.strides
    idx, ends = _concat_members(groups, keys)
    mags = np.abs(amps[idx])
    live = np.append(np.flatnonzero(mags > cutoff), len(mags))
    begins = np.append(0, ends[:-1])
    first = live[np.searchsorted(live, begins)]  # first live position of each class
    found = first < ends
    refs = np.append(idx, -1)[first]
    norms = np.sqrt(np.bincount(np.repeat(np.arange(len(dists)), ends - begins),
                                weights=mags ** 2, minlength=len(dists)))
    phases = np.where(found, np.angle(amps[refs]), 0.0)
    return [DistributionInfo(weights=dist, norm=norm, reference=ref if ok else None, phase=phase)
            for dist, norm, ref, ok, phase in zip(dists, norms.tolist(), refs.tolist(),
                                                  found.tolist(), phases.tolist())]


# --- node split amplitudes -------------------------------------------------

@lru_cache(maxsize=1)  # the transfer tree asks for one node's norms and splits in a row
def _part_weights(n: int, node: TreeNode) -> tuple[np.ndarray, ...]:
    """Hamming weight of every basis index on each child of ``node`` (a leaf: on itself)."""
    idx = np.arange(1 << n, dtype=np.uint32)
    parts = (node,) if node.is_leaf else (node.left, node.right)
    return tuple(popcounts(idx & np.uint32(part.mask(n))).astype(np.uint8) for part in parts)


def node_weight_norms(psi: StateVector, node: TreeNode, *,
                      probs: np.ndarray | None = None) -> np.ndarray:
    """Norm of the target restricted to each possible Hamming weight on ``node``.

    ``probs`` is ``|psi.amplitudes|**2`` when the caller already has it, as
    :func:`leafsep.synthesis.synthesize_gwdb_tree` does for all its nodes.
    """
    if probs is None:
        probs = np.abs(psi.amplitudes) ** 2
    sums = np.bincount(sum(_part_weights(psi.n, node)), weights=probs, minlength=node.size + 1)
    return np.sqrt(sums)


def node_split_norms(psi: StateVector, node: TreeNode, total_weight: int, *,
                     probs: np.ndarray | None = None) -> np.ndarray:
    """Norms over the (i, total-i) left/right weight splits at an internal node."""
    if node.is_leaf:
        raise ValueError("split norms are defined on internal nodes only")
    wl, wr = _part_weights(psi.n, node)
    if probs is None:
        probs = np.abs(psi.amplitudes) ** 2
    return np.array([math.sqrt(float(np.sum(probs[(wl == i) & (wr == total_weight - i)])))
                     for i in range(total_weight + 1)])


def weight_split_amplitudes(psi: StateVector, node: TreeNode, total_weight: int, *,
                            probs: np.ndarray | None = None) -> np.ndarray:
    """Unit-norm non-negative split amplitudes at a node for one incoming weight.

    Entry i is the square root of the conditional probability of seeing the
    split (i, total-i) across the node's children.  Raises when the node
    carries no support at ``total_weight``.
    """
    splits = node_split_norms(psi, node, total_weight, probs=probs)
    total = math.sqrt(float(np.sum(splits ** 2)))
    if total <= DEAD_BRANCH_TOL:
        raise ValueError(f"node carries no weight-{total_weight} support")
    return splits / total


def rotation_ladder_angles(weights) -> list[float]:
    """Hyperspherical ladder angles for a non-negative amplitude vector.

    theta_i = 2*atan2(tail_i, w_i) with tail_i the norm of the entries after i;
    a zero entry with a live tail gives pi (full transfer), a dead tail gives 0.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < -1e-15):
        raise ValueError("ladder amplitudes must be non-negative")
    tails = np.sqrt(np.cumsum((w ** 2)[::-1])[::-1])
    return [2.0 * math.atan2(float(tails[i + 1]), float(w[i])) for i in range(len(w) - 1)]


# --- leaf amplitude tables --------------------------------------------------

def leaf_amplitude_table(psi: StateVector, tree: PartitionTree, *,
                         infos: list[DistributionInfo] | None = None) -> dict:
    """Map (leaf index, local weight) -> unit local amplitudes in Ehrlich order.

    Each entry holds the ratios against the reference state of the first
    distribution in ``infos`` (the target's :func:`distribution_table`) that
    reaches it and has a reference, normalized to unit 2-norm.  Distributions
    without a reference are skipped.
    """
    if infos is None:
        infos = distribution_table(psi, tree)
    amps = psi.amplitudes
    table: dict[tuple[int, int], np.ndarray] = {}
    for info in infos:
        ref = info.reference
        if ref is None:
            continue
        for u, (leaf, w) in enumerate(zip(tree.leaves, info.weights)):
            if (u, w) in table:
                continue
            if w == 0:
                table[(u, 0)] = np.array([1.0 + 0.0j])
                continue
            patterns = _leaf_patterns(leaf.size, w) << (psi.n - leaf.start - leaf.size)
            gammas = amps[(ref & ~leaf.mask(psi.n)) | patterns] / amps[ref]
            table[(u, w)] = gammas / np.linalg.norm(gammas)
    return table


def encoder_angles(amplitudes) -> tuple[list[tuple[float, float]], float]:
    """Chain parameters preparing ``amplitudes`` along their enumeration order.

    Returns one (theta, phi) pair per consecutive pair of basis strings plus a
    trailing phase for the final string.  Starting from the first string, step
    t deposits amplitude t-1 and carries the tail; phases ride on phi with the
    residual fixed by the trailing phase.
    """
    a = np.asarray(amplitudes, dtype=np.complex128)
    mags = np.abs(a)
    tails = np.sqrt(np.cumsum((mags ** 2)[::-1])[::-1])
    pairs: list[tuple[float, float]] = []
    chi = 0.0
    for t in range(1, len(a)):
        theta = 2.0 * math.atan2(float(tails[t]), float(mags[t - 1]))
        phi = (math.remainder(2.0 * (cmath.phase(a[t - 1]) - chi), 4.0 * math.pi)
               if mags[t - 1] > 1e-15 else 0.0)
        pairs.append((theta, phi))
        chi -= phi / 2.0
    if len(a) and mags[-1] > 1e-15:
        trailing = math.remainder(cmath.phase(a[-1]) - chi, 2.0 * math.pi)
    else:
        trailing = 0.0
    return pairs, trailing


def mixed_weight_profile(psi: StateVector) -> np.ndarray:
    """Per-weight norms for weights 0..floor(n/2); heavier support is rejected."""
    w = popcounts(np.arange(1 << psi.n))
    probs = np.abs(psi.amplitudes) ** 2
    sums = np.bincount(w, weights=probs, minlength=psi.n + 1)
    half = psi.n // 2
    if float(np.sum(sums[half + 1:])) > 1e-18:
        raise ValueError(f"support above weight {half} is out of scope")
    return np.sqrt(sums[:half + 1])


# --- the compiled state and separability ------------------------------------

def node_weights(tree: PartitionTree, distributions: np.ndarray):
    """Per internal node in preorder: the node, and each distribution's weight on it
    and on its left child.  ``distributions`` is a D x G array of leaf weights."""
    first = {leaf.start: u for u, leaf in enumerate(tree.leaves)} | {tree.n: tree.num_leaves}
    cum = np.cumsum(np.pad(distributions, ((0, 0), (1, 0))), axis=1)  # cum[:, u]: leaves < u
    for node in tree.internal_nodes():
        lo, mid, hi = (cum[:, first[q]] for q in (node.start, node.right.start,
                                                  node.start + node.size))
        yield node, hi - lo, mid - lo


def _table_arrays(infos: list[DistributionInfo]):
    """A distribution table as arrays: leaf weights (D x G), norms, the live mask
    (norm > DEAD_BRANCH_TOL and a reference) and the reference phases."""
    dists = np.array([info.weights for info in infos], dtype=np.int64)
    norms = np.array([info.norm for info in infos])
    live = np.array([info.norm > DEAD_BRANCH_TOL and info.reference is not None for info in infos])
    return dists, norms, live, np.array([info.phase for info in infos])


def _compiled(tree: PartitionTree, infos: list[DistributionInfo], table: dict):
    """Distributions, coefficients and leaf factors of the state ``synthesize_full``
    prepares from a target with distribution table ``infos`` and leaf table ``table``.

    From the table's norms, c(I)^2 is the weight profile at I's total weight times,
    per internal node, the probability of I's split given I's weight on the node.
    c(I) carries I's phase, and is 0 without a reference or at norm <= DEAD_BRANCH_TOL.
    """
    dists, norms, live, phases = _table_arrays(infos)
    probs = norms ** 2
    total = dists.sum(axis=1)
    c2 = np.bincount(total, weights=probs)[total]
    for node, w, left in node_weights(tree, dists):
        split = w * (node.left.size + 1) + left
        given = np.bincount(w, weights=probs)[w]
        c2 *= np.divide(np.bincount(split, weights=probs)[split], given,
                        out=np.zeros(len(given)), where=given > 0)
    coefficients = np.where(live, np.sqrt(c2) * np.exp(1j * phases), 0)
    factors = [np.zeros(1 << size, dtype=np.complex128) for size in tree.leaf_sizes]
    for (u, w), entry in table.items():
        factors[u][_leaf_patterns(tree.leaf_sizes[u], w)] = entry
    return dists, coefficients, factors


def _product(tree: PartitionTree, distributions, coefficients, factors):
    """Members of the given distributions (a D x G array; each ascending), each one's
    end, and ``coefficients[j] * prod_u factors[u][g_u(b)]`` at each member b of the
    j-th, multiplied leaf by leaf on real and imaginary parts and added into zeros."""
    n, groups = tree.n, _grouping(tree)
    idx, ends = _concat_members(groups, distributions @ np.array(groups.strides))
    coeff = np.repeat(np.asarray(coefficients, dtype=np.complex128), np.diff(ends, prepend=0))
    re, im = coeff.real, coeff.imag
    for leaf, table in zip(tree.leaves, factors):
        f = table[(idx >> (n - leaf.start - leaf.size)) & ((1 << leaf.size) - 1)]
        re, im = re * f.real - im * f.imag, re * f.imag + im * f.real
    values = np.zeros(len(idx), dtype=np.complex128)
    values.real += re
    values.imag += im
    return idx, ends, values


def factored_amplitudes(tree: PartitionTree, distributions, coefficients,
                        factors: list[np.ndarray]) -> np.ndarray:
    """``coefficients[j] * prod_u factors[u][g_u(b)]`` on each member b of ``distributions[j]``
    (a D x G array of leaf weights), g_u(b) the local pattern of leaf u; 0 elsewhere."""
    idx, _, values = _product(tree, distributions, coefficients, factors)
    amps = np.zeros(1 << tree.n, dtype=np.complex128)
    amps[idx] = values
    return amps


def reconstruct_amplitudes(psi: StateVector, tree: PartitionTree) -> StateVector:
    """The state ``synthesize_full`` prepares from ``psi``, up to the global phase that
    gives the first live distribution's reference its target phase; ``psi`` itself
    exactly when separable.  (The circuit applies each distribution's phase through
    the leaf encoders and residual gates, so its own global phase differs.)"""
    infos = distribution_table(psi, tree)
    compiled = _compiled(tree, infos, leaf_amplitude_table(psi, tree, infos=infos))
    return StateVector(psi.n, factored_amplitudes(tree, *compiled), check=False)


@dataclass
class SeparabilityReport:
    separable: bool
    tol: float
    max_delta: float = 0.0     # worst residual over every member
    violations: list[dict] = field(default_factory=list)
    distributions: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


def is_leaf_separable(psi: StateVector, tree: PartitionTree, tol: float = 1e-9, *,
                      infos: list[DistributionInfo] | None = None,
                      table: dict | None = None) -> SeparabilityReport:
    """Compare the target with its compiled state (:func:`reconstruct_amplitudes`).

    Separable means no residual |psi(b) - compiled(b)| over the members of the
    table's distributions exceeds ``tol``: ``tol`` bounds the per-amplitude error of
    the compiled state.  The report lists c(I) per distribution, the worst residual
    and at most one violation: the first member above ``tol`` in table order, then
    ascending index.  ``infos`` and ``table`` are the target's
    :func:`distribution_table` and :func:`leaf_amplitude_table`, if already built.
    """
    if infos is None:
        infos = distribution_table(psi, tree)
    if table is None:
        table = leaf_amplitude_table(psi, tree, infos=infos)
    dists, coefficients, factors = _compiled(tree, infos, table)
    idx, ends, compiled = _product(tree, dists, coefficients, factors)
    delta = np.abs(psi.amplitudes[idx] - compiled)
    violations = [{"I": dists[np.searchsorted(ends, b, side="right")].tolist(),
                   "bitstring": index_to_string(int(idx[b]), psi.n), "delta": float(delta[b])}
                  for b in np.flatnonzero(delta > tol)[:1]]
    return SeparabilityReport(
        separable=not violations, tol=tol, max_delta=float(np.max(delta, initial=0.0)),
        violations=violations,
        distributions=[{"I": list(info.weights), "c": info.norm} for info in infos])
