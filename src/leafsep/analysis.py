"""Amplitude analysis: distribution norms, separability, split ratios, leaf tables.

Everything here is a pure function of a target state and a partition tree.
The central objects:

* the distribution table: c(I) and a reference state for every weight
  distribution I (:func:`distribution_table`), built once per target,
* the per-node split amplitudes (conditional weight-split probabilities),
* the per-(leaf, weight) normalized local amplitudes that feed the
  Hamming-weight encoders, stored in the enumeration order of
  :func:`leafsep.combinatorics.ehrlich_sequence`.  They are read off the
  distribution table's references: the classes are scanned for references
  once, and the separability check and the leaf tables both reuse them.

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
import operator
from dataclasses import dataclass, field
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

    def key(self, distribution) -> int:
        return sum(map(operator.mul, distribution, self.strides))


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
def _leaf_patterns(n: int, leaf: TreeNode, w: int) -> np.ndarray:
    """The leaf's weight-``w`` patterns in Ehrlich order, placed in n-qubit indices."""
    shift = n - leaf.start - leaf.size
    return np.array([int(g, 2) << shift for g in ehrlich_sequence(leaf.size, w)])


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
    idx, ends = _concat_members(groups, [groups.key(dist) for dist in dists])
    vals = amps[idx]
    live = np.append(np.flatnonzero(np.abs(vals) > cutoff), len(vals))
    begins = np.append(0, ends[:-1])
    first = live[np.searchsorted(live, begins)]  # first live position of each class
    out: list[DistributionInfo] = []
    for dist, lo, hi, pos in zip(dists, begins.tolist(), ends.tolist(), first.tolist()):
        ref = int(idx[pos]) if pos < hi else None
        phase = 0.0 if ref is None else float(np.angle(amps[ref]))
        out.append(DistributionInfo(weights=dist, norm=float(np.linalg.norm(vals[lo:hi])),
                                    reference=ref, phase=phase))
    return out


# --- separability ----------------------------------------------------------

@dataclass
class SeparabilityReport:
    separable: bool
    tol: float
    violations: list[dict] = field(default_factory=list)
    distributions: list[dict] = field(default_factory=list)
    max_delta: float = 0.0     # worst residual over every checked class

    def to_json_dict(self) -> dict:
        return {"separable": self.separable, "tol": self.tol, "max_delta": self.max_delta,
                "violations": self.violations, "distributions": self.distributions}


def is_leaf_separable(psi: StateVector, tree: PartitionTree, tol: float = 1e-9, *,
                      infos: list[DistributionInfo] | None = None) -> SeparabilityReport:
    """Check the per-distribution product condition, with a violation certificate.

    For every valid distribution I with c(I) > tol, every basis state b in the
    class must satisfy alpha_b / alpha_{b*} = prod_u gamma_u(g_u) within tol,
    where b* is the class reference and gamma_u varies one leaf of b* at a time.
    Every distribution is scanned: the report lists c(I) for each, the worst
    residual, and the violations in distribution order up to and including the
    first residual violation (the first bad state in ascending index order).
    ``infos`` is the target's :func:`distribution_table` when the caller has it.
    The members of all checked classes are checked as one array, in table order.
    """
    if infos is None:
        infos = distribution_table(psi, tree)
    report = SeparabilityReport(separable=True, tol=tol, distributions=[
        {"I": list(info.weights), "c": info.norm} for info in infos])
    checked = [info for info in infos if info.norm > tol]
    live = [info for info in checked if info.reference is not None]
    culprit = None
    if live:
        amps, groups = psi.amplitudes, _grouping(tree)
        idx, ends = _concat_members(groups, [groups.key(info.weights) for info in live])
        lengths = np.diff(ends, prepend=0)
        ref = np.repeat([info.reference for info in live], lengths)
        ref_amp = amps[ref]
        predicted = np.ones(len(idx), dtype=np.complex128)
        # numpy's in-place complex product rounds a one-element array without fused
        # multiply-adds; one-member classes keep that rounding, as when checked one by one
        alone = np.flatnonzero(np.repeat(lengths == 1, lengths))
        for leaf in tree.leaves:
            mask = leaf.mask(psi.n)
            factor = amps[(ref & ~mask) | (idx & mask)] / ref_amp
            p, f = predicted[alone], factor[alone]
            predicted *= factor
            predicted.real[alone] = p.real * f.real - p.imag * f.imag
            predicted.imag[alone] = p.real * f.imag + p.imag * f.real
        delta = np.abs(amps[idx] / ref_amp - predicted)
        report.max_delta = float(np.max(delta))
        bad = np.flatnonzero(delta > tol)
        if bad.size:
            b = bad[0]
            culprit = live[int(np.searchsorted(ends, b, side="right"))]
            violation = {"I": list(culprit.weights),
                         "bitstring": index_to_string(int(idx[b]), psi.n),
                         "delta": float(delta[b])}
    for info in checked:
        if info is culprit:
            report.violations.append(violation)
            break
        if info.reference is None:
            report.violations.append({"I": list(info.weights), "error": "no reference state"})
    report.separable = not report.violations
    return report


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
    out = np.zeros(total_weight + 1)
    for i in range(total_weight + 1):
        out[i] = math.sqrt(float(np.sum(probs[(wl == i) & (wr == total_weight - i)])))
    return out


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
            patterns = _leaf_patterns(psi.n, leaf, w)
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
        if mags[t - 1] > 1e-15:
            phi = math.remainder(2.0 * (cmath.phase(a[t - 1]) - chi), 4.0 * math.pi)
        else:
            phi = 0.0
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


def factored_amplitudes(tree: PartitionTree, coefficients: dict,
                        factors: list[np.ndarray]) -> np.ndarray:
    """``amps[b] = coefficients[I(b)] * prod_u factors[u][g_u(b)]`` over all 2^n indices.

    I(b) is the weight distribution of b (absent ones give 0) and g_u(b) the
    local pattern of leaf u as an integer.  The complex product runs leaf by leaf
    on real and imaginary parts, rounding like the scalar ``value * factor``.
    """
    n, groups = tree.n, _grouping(tree)
    keys = np.array(list(coefficients), dtype=np.int64).reshape(-1, tree.num_leaves)
    per_key = np.zeros(len(groups.starts) - 1, dtype=np.complex128)
    per_key[keys @ np.array(groups.strides)] = list(coefficients.values())
    coeff = np.empty(1 << n, dtype=np.complex128)
    coeff[groups.order] = np.repeat(per_key, np.diff(groups.starts))
    re, im = coeff.real, coeff.imag
    idx = np.arange(1 << n)
    for leaf, table in zip(tree.leaves, factors):
        f = table[(idx >> (n - leaf.start - leaf.size)) & ((1 << leaf.size) - 1)]
        re, im = re * f.real - im * f.imag, re * f.imag + im * f.real
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps.real += re
    amps.imag += im
    return amps


def reconstruct_amplitudes(psi: StateVector, tree: PartitionTree,
                           total_weights=None) -> StateVector:
    """Rebuild a state from c(I), the reference phases, and the leaf tables.

    For leaf-separable input this reproduces the state entrywise; the residual
    difference is the natural separability error measure.
    """
    infos = distribution_table(psi, tree, total_weights)
    factors = [np.zeros(1 << size, dtype=np.complex128) for size in tree.leaf_sizes]
    for (u, w), entry in leaf_amplitude_table(psi, tree, infos=infos).items():
        factors[u][[int(g, 2) for g in ehrlich_sequence(tree.leaf_sizes[u], w)]] = entry
    coefficients = {info.weights: info.norm * cmath.exp(1j * info.phase)
                    for info in infos
                    if info.norm > DEAD_BRANCH_TOL and info.reference is not None}
    return StateVector(psi.n, factored_amplitudes(tree, coefficients, factors), check=False)
