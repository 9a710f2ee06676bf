"""Amplitude analysis: distribution table, split amplitudes, leaf tables, separability.

Everything here is a pure function of a target state and a partition tree.
:func:`analyze` computes each piece of the paper's factorisation once, in array
form (:class:`FactoredTarget`): the distribution table (c(I), a reference state
and its phase per weight distribution I), the per-node split amplitudes, the
per-(leaf, weight) unit local amplitudes in the enumeration order of
:func:`leafsep.combinatorics.ehrlich_patterns`, and the input stage's weight
profile.  c(I) is the profile at I's total weight times the product of the split
amplitudes (:func:`tree_coefficients`).  Only the distribution table sums the
target's amplitudes: the split amplitudes and a mixed target's profile are
``bincount``s of its c(I)^2, so they cover exactly its checked total weights, and
the leaf tables read the target at its references.  The compiled state, which
:func:`leafsep.synthesis.synthesize_full` prepares from these pieces, is the one
model of separability: a target is leaf-separable on a tree when it equals it.

Basis states are integer indices (MSB-first, see :mod:`leafsep.core`);
bitstrings appear only in reports.  The class of a weight distribution I, the
basis states of weight I_u on each leaf u, is the OR of one weight-I_u pattern per
leaf, as the leaves own disjoint bits.  :func:`_classes` expands every class leaf
by leaf, from one empty prefix per distribution, so each comes out ascending, and
caches them per (tree, total weights): the table, the compiled state and the
separability check enumerate a target's classes once, never all 2^n indices.
The target is its support (:class:`leafsep.core.StateVector`), read at the members
once: the table looks the members up in their sorted order, which :func:`_classes`
caches with each member's rank in it, and keeps that read for the separability check.  Leaf
u owns the index bits of ``mask_u``: the basis state carrying the leaf-u pattern of
``idx`` and agreeing with ``ref`` everywhere else is ``(ref & ~mask_u) | (idx &
mask_u)``; the leaf tables read all of theirs in one lookup.  :func:`_product` goes
the other way, from c(I) and per-leaf tables to amplitudes on the members: the
compiled state, and the targets :mod:`leafsep.experiments` generates.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .combinatorics import ehrlich_patterns
from .core import (PartitionTree, StateVector, check_index_width,
                   enumerate_weight_distributions, index_to_string)

DEAD_BRANCH_TOL = 1e-12
REFERENCE_REL_TOL = 1e-9


@lru_cache(maxsize=32)
def _classes(tree: PartitionTree, total_weights: tuple[int, ...]):
    """The distributions of ``total_weights`` (D x G leaf weights, in the given order, each
    total's ascending), their members concatenated row by row, each class ascending, each
    row's end in that concatenation, the members sorted and each member's rank among them;
    all read-only (see module docstring)."""
    check_index_width(tree.n)
    dists = np.array([dist for ell in total_weights
                      for dist in enumerate_weight_distributions(tree.leaf_sizes, ell)],
                     dtype=np.int64).reshape(-1, tree.num_leaves)
    rows, members = np.arange(len(dists)), np.zeros(len(dists), dtype=np.int64)
    for leaf, weights in zip(tree.leaves, dists.T):
        local = np.bitwise_count(np.arange(1 << leaf.size))
        patterns = np.argsort(local, kind="stable") << (tree.n - leaf.start - leaf.size)
        counts = np.bincount(local, minlength=leaf.size + 1)
        w = weights[rows]
        repeats = counts[w]
        rows, members = np.repeat(rows, repeats), np.repeat(members, repeats)
        # the j-th copy of a prefix takes the j-th pattern of weight w
        skip = np.cumsum(repeats) - repeats - (np.cumsum(counts) - counts)[w]
        members |= patterns[np.arange(len(members)) - np.repeat(skip, repeats)]
    ends = np.cumsum(np.bincount(rows, minlength=len(dists)))
    ascending = np.sort(members)
    rank = np.searchsorted(ascending, members)
    for array in (dists, members, ends, ascending, rank):
        array.flags.writeable = False
    return dists, members, ends, ascending, rank


@dataclass(frozen=True)
class DistributionTable:
    """One row per distribution of the checked total weights (in the order given), ascending."""

    total_weights: tuple     # the checked total weights
    weights: np.ndarray      # D x G leaf weights, read-only
    norms: np.ndarray        # norm of the target on the distribution's class
    references: np.ndarray   # smallest index in the class with non-negligible amplitude, or -1
    phases: np.ndarray       # complex argument of the target there, 0 without a reference
    live: np.ndarray         # a reference and norm > DEAD_BRANCH_TOL
    member_amplitudes: np.ndarray  # the target at each member of each row's class, in order


def distribution_table(psi: StateVector, tree: PartitionTree,
                       total_weights=None) -> DistributionTable:
    """All valid distributions for the given total weights, with c(I) and reference."""
    total_weights = tuple(psi.weights_present() if total_weights is None else total_weights)
    cutoff = REFERENCE_REL_TOL * float(np.max(np.abs(psi.values), initial=0.0))
    dists, idx, ends, ascending, rank = _classes(tree, total_weights)
    amps = psi.lookup(ascending)[rank]  # the target at each member
    mags = np.abs(amps)
    live = np.append(np.flatnonzero(mags > cutoff), len(mags))
    begins = np.append(0, ends[:-1])
    first = live[np.searchsorted(live, begins)]  # first live position of each class
    found = first < ends
    refs = np.where(found, np.append(idx, -1)[first], -1)
    norms = np.sqrt(np.bincount(np.repeat(np.arange(len(dists)), ends - begins),
                                weights=mags ** 2, minlength=len(dists)))
    phases = np.where(found, np.angle(amps.take(first, mode="clip")), 0.0)
    return DistributionTable(total_weights, dists, norms, refs, phases,
                             found & (norms > DEAD_BRANCH_TOL), amps)


# --- node split amplitudes -------------------------------------------------

def _node_weights(tree: PartitionTree, distributions: np.ndarray):
    """Each internal node in preorder, with every row's weight on the node and on its left
    child, for ``distributions`` a D x G array of leaf weights."""
    cum = np.empty((tree.num_leaves, len(distributions)), dtype=np.int64)
    np.cumsum(distributions.T, axis=0, out=cum)  # at[q] below: the weight on qubits < q
    at = {0: 0} | dict(zip([leaf.start + leaf.size for leaf in tree.leaves], cum))
    for node in tree.internal_nodes():
        lo, mid, hi = at[node.start], at[node.right.start], at[node.start + node.size]
        yield node, hi - lo, mid - lo


def weight_split_amplitudes(tree: PartitionTree, distributions: DistributionTable) -> dict:
    """Map internal node -> (size + 1) x (left size + 1) unit split amplitudes.

    Row m, column i is the norm of the target on the split (i, m - i) across the
    node's children, over that of the m + 1 splits.  That norm is the root of the sum
    of c(I)^2 over the rows I of ``distributions`` with m on the node and i on its
    left child, so the splits cover exactly the table's total weights.  Row 0 is
    (1, 0, ...); a row whose norm is at most DEAD_BRANCH_TOL, or that no row
    reaches, is zero.
    """
    probs = distributions.norms ** 2
    splits: dict = {}
    for node, weight, left in _node_weights(tree, distributions.weights):
        shape = (node.size + 1, node.left.size + 1)
        sums = np.bincount(weight * shape[1] + left, weights=probs,
                           minlength=shape[0] * shape[1]).reshape(shape)
        betas = np.sqrt(sums)
        norms = np.linalg.norm(betas, axis=1, keepdims=True)
        table = splits[node] = np.divide(betas, norms, out=np.zeros(shape),
                                         where=norms > DEAD_BRANCH_TOL)
        table[0, 0] = 1.0
    return splits


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

def leaf_amplitude_table(psi: StateVector, tree: PartitionTree,
                         distributions: DistributionTable) -> dict:
    """Map (leaf index, local weight) -> unit local amplitudes in Ehrlich order.

    Each entry holds the ratios against the reference state of the first row of
    ``distributions`` (the target's :func:`distribution_table`) that reaches it and
    has a reference, normalized to unit 2-norm.  Rows without a reference are
    skipped.
    """
    rows = np.flatnonzero(distributions.references >= 0)
    refs = distributions.references[rows]
    table, reads = {}, []  # reads: (key, the reference, the class members it reads)
    for u, leaf in enumerate(tree.leaves):
        weights, first = np.unique(distributions.weights[rows, u], return_index=True)
        for w, ref in zip(weights.tolist(), refs[first].tolist()):
            table[(u, w)] = np.array([1.0 + 0.0j])
            if w:
                patterns = ehrlich_patterns(leaf.size, w) << (psi.n - leaf.start - leaf.size)
                reads.append(((u, w), ref, (ref & ~leaf.mask(psi.n)) | patterns))
    if reads:
        keys, ref_of, queries = zip(*reads)
        amps = psi.lookup(np.concatenate([ref_of, *queries]))
        start = len(keys)
        for key, ref_amp, members in zip(keys, amps[:start].tolist(), queries):
            gammas = amps[start:start + len(members)] / ref_amp
            table[key] = gammas / np.linalg.norm(gammas)
            start += len(members)
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
    pairs: list[tuple[float, float]] = []
    chi = 0.0
    for t, theta in enumerate(rotation_ladder_angles(mags), 1):
        phi = (math.remainder(2.0 * (cmath.phase(a[t - 1]) - chi), 4.0 * math.pi)
               if mags[t - 1] > 1e-15 else 0.0)
        pairs.append((theta, phi))
        chi -= phi / 2.0
    if len(a) and mags[-1] > 1e-15:
        trailing = math.remainder(cmath.phase(a[-1]) - chi, 2.0 * math.pi)
    else:
        trailing = 0.0
    return pairs, trailing


# --- the factorisation, the compiled state and separability -------------------

@dataclass(frozen=True)
class FactoredTarget:
    """One analysis of a target on a tree (:func:`analyze`): what ``synthesize_full`` emits."""

    distributions: DistributionTable
    leaves: dict              # :func:`leaf_amplitude_table`
    splits: dict              # :func:`weight_split_amplitudes`
    profile: np.ndarray       # amplitude of each Hamming weight 0..n after the input stage


def analyze(psi: StateVector, tree: PartitionTree, total_weights=None) -> FactoredTarget:
    """The distribution, leaf and split tables of ``psi`` for ``total_weights`` (default:
    ``psi.weights_present()``) and its profile: 1 at the weight of a fixed-weight target,
    else the norm of ``psi`` at each of ``total_weights``, summed over the table."""
    table = distribution_table(psi, tree, total_weights)
    if len(table.total_weights) == 1:
        profile = np.eye(psi.n + 1)[table.total_weights[0]]
    else:
        profile = np.sqrt(np.bincount(np.sum(table.weights, axis=1), weights=table.norms ** 2,
                                      minlength=psi.n + 1))
    return FactoredTarget(table, leaf_amplitude_table(psi, tree, table),
                          weight_split_amplitudes(tree, table), profile)


def tree_coefficients(tree: PartitionTree, distributions: np.ndarray, profile,
                      splits: dict) -> np.ndarray:
    """c(I) = profile[|I|] * prod over internal nodes (preorder) of splits[node][w, l] per
    row I of ``distributions`` (D x G), w and l I's weight on the node and its left child."""
    value = np.ones(len(distributions))
    for node, weight, left in _node_weights(tree, distributions):
        value *= splits[node][weight, left]
    return np.asarray(profile)[np.sum(distributions, axis=1)] * value


def _compiled(tree: PartitionTree, target: FactoredTarget):
    """Total weights, coefficients and leaf factors of the state ``synthesize_full``
    prepares: c(I) (:func:`tree_coefficients`) with I's phase on live rows, else 0."""
    table = target.distributions
    c = tree_coefficients(tree, table.weights, target.profile, target.splits)
    coefficients = np.where(table.live, c * np.exp(1j * table.phases), 0)
    factors = [np.zeros(1 << size, dtype=np.complex128) for size in tree.leaf_sizes]
    for (u, w), entry in target.leaves.items():
        factors[u][ehrlich_patterns(tree.leaf_sizes[u], w)] = entry
    return table.total_weights, coefficients, factors


def _product(tree: PartitionTree, total_weights: tuple, coefficients, factors):
    """Members of the distributions of ``total_weights`` (each ascending, see
    :func:`_classes`), each one's end, and ``coefficients[j] * prod_u factors[u][g_u(b)]``
    at each member b of the j-th, multiplied leaf by leaf on real and imaginary parts and
    added into zeros."""
    _, idx, ends = _classes(tree, tuple(total_weights))[:3]
    coeff = np.repeat(np.asarray(coefficients, dtype=np.complex128), np.diff(ends, prepend=0))
    re, im = coeff.real, coeff.imag
    for leaf, table in zip(tree.leaves, factors):
        f = table[(idx >> (tree.n - leaf.start - leaf.size)) & ((1 << leaf.size) - 1)]
        re, im = re * f.real - im * f.imag, re * f.imag + im * f.real
    values = np.zeros(len(idx), dtype=np.complex128)
    values.real += re
    values.imag += im
    return idx, ends, values


def reconstruct_amplitudes(psi: StateVector, tree: PartitionTree) -> StateVector:
    """The state ``synthesize_full`` prepares from ``psi``, up to the global phase that
    gives the first live distribution's reference its target phase; ``psi`` itself
    exactly when separable.  (The circuit applies each distribution's phase through
    the leaf encoders and residual gates, so its own global phase differs.)"""
    idx, _, values = _product(tree, *_compiled(tree, analyze(psi, tree)))
    return StateVector(psi.n, idx, values, check=False)


@dataclass
class SeparabilityReport:
    separable: bool
    tol: float
    max_delta: float = 0.0     # worst residual over every member
    violations: list[dict] = field(default_factory=list)
    table: DistributionTable | None = field(default=None, repr=False, compare=False)

    @property
    def distributions(self) -> list[dict]:
        """c(I) per distribution of the checked table, built on request: a compile reads
        only the verdict."""
        table = self.table
        if table is None:
            return []
        return [{"I": weights, "c": norm}
                for weights, norm in zip(table.weights.tolist(), table.norms.tolist())]

    def to_json_dict(self) -> dict:
        return {"separable": self.separable, "tol": self.tol, "max_delta": self.max_delta,
                "violations": self.violations, "distributions": self.distributions}


def is_leaf_separable(psi: StateVector, tree: PartitionTree, tol: float = 1e-9, *,
                      factored: FactoredTarget | None = None) -> SeparabilityReport:
    """Compare the target with its compiled state (:func:`reconstruct_amplitudes`).

    Separable means no residual |psi(b) - compiled(b)| over the members of the
    table's distributions exceeds ``tol``, which must be finite and non-negative:
    ``tol`` bounds the per-amplitude error of the compiled state.  The report lists
    c(I) per distribution, the worst residual and at most one violation: the first
    member above ``tol`` in table order, then ascending index.  ``factored`` is the
    target's :func:`analyze`, if already built.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if factored is None:
        factored = analyze(psi, tree)
    idx, ends, compiled = _product(tree, *_compiled(tree, factored))
    dists = factored.distributions.weights
    delta = np.abs(factored.distributions.member_amplitudes - compiled)
    violations = [{"I": dists[np.searchsorted(ends, b, side="right")].tolist(),
                   "bitstring": index_to_string(int(idx[b]), psi.n), "delta": float(delta[b])}
                  for b in np.flatnonzero(delta > tol)[:1]]
    return SeparabilityReport(not violations, tol, float(np.max(delta, initial=0.0)),
                              violations, factored.distributions)
