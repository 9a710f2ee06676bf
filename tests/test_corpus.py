"""Byte-level pin of the synthesized circuits over a fixed seeded corpus.

Any change to the analysis or emission layers that alters a single gate,
control or angle bit changes the digests below, and a changed separability
verdict changes the ``NON_SEPARABLE`` labels.  The first digest pins the text
of each circuit's lowering, every leaf encoder chain written out as its crbs
steps and trailing phase, and the second the circuit's own text, a chain per
line.  A structure digest pins the lowered text with every parenthesised
parameter list blanked (``mcry(0.7) [] q3`` reads ``mcry() [] q3``): a change
that moves only angle bits leaves it as it is.  The
verdict holds exactly when a free-mode circuit reaches fidelity 1, and the
reconstruction equals the simulated state (``test_corpus_verdicts_match_fidelity``).
The corpus covers n <= 10 at every k: real, complex and non-negative separable
targets in both modes, mixed-weight targets, dense fixed-weight (non-separable)
targets and targets synthesized on a mismatched tree.

A second digest pins the generated targets themselves, amplitude bytes and
all, for n 2..12 at every k: real, complex and non-negative, fixed-weight and
mixed-weight.

A third pins what the simulator makes of compiled circuits: the amplitude
bytes of ``simulate(circ, target=psi)`` for separable and mixed-weight targets
in both modes, n 4..10, and for general-baseline circuits.  A change to the
simulator's memory layout or gate arithmetic that moves a single bit changes
it.  Fidelity and purity come from BLAS reductions whose low bits depend on
the machine, so they are checked against 1 with a tolerance instead.
"""
import hashlib
import re
import warnings

import numpy as np
import pytest

from conftest import aligned_state, support_gap
from leafsep.analysis import reconstruct_amplitudes
from leafsep.circuit import cost, export_text, lower
from leafsep.core import StateVector, build_partition_tree
from leafsep.experiments import (random_fixed_weight_state, random_leaf_separable,
                                 random_mixed_leaf_separable)
from leafsep.simulator import _run, simulate
from leafsep.synthesis import (MODE_ANCILLA, MODE_FREE, SynthesisConfig, synthesize_full,
                               synthesize_general_baseline)

CORPUS_SHA256 = "d8dda69e40e812e3ae8ff67f0c2b45e984e057c1429bd99c0d94bb629396731f"
CORPUS_CHAINS_SHA256 = "e80461245a61636fe7064ab2cf85292703061f0a1e7cbe4f81c53abe27277ffa"
CORPUS_STRUCTURE_SHA256 = "9bbbb1f47586372f84da9f522eecd55e5c224d1b178cc2c12fd9f6dd38ff551d"
CORPUS_SIZE = 441
NON_SEPARABLE = [
    "dense-4-1", "dense-4-2", "dense-5-1", "dense-5-2", "dense-5-3", "mismatched-5-1",
    "dense-6-1", "dense-6-2", "dense-6-3", "dense-6-4", "mismatched-6-2", "dense-7-1",
    "dense-7-2", "dense-7-3", "dense-7-4", "dense-7-5", "mismatched-7-2", "dense-8-1",
    "dense-8-2", "dense-8-3", "dense-8-4", "dense-8-5", "dense-8-6", "mismatched-8-2",
    "dense-9-1", "dense-9-2", "dense-9-3", "dense-9-4", "dense-9-5", "dense-9-6",
    "dense-9-7", "mismatched-9-3", "dense-10-1", "dense-10-2", "dense-10-3",
    "dense-10-4", "dense-10-5", "dense-10-6", "dense-10-7", "dense-10-8",
    "mismatched-10-3"
]

GENERATED_SHA256 = "74d0e606fc0cad6e10d38e8ef9c02441f00dab8c09b2361fac3acddbe6ce7a17"
GENERATED_SIZE = 462

SIMULATED_SHA256 = "6bff21407c68425868015e3892423479cb63b153851fdc8c16cfa329f96bb91e"
SIMULATED_SIZE = 185

# The general-state baseline's export when it emitted Gray-code cascades instead of
# multiplexors, which lower() must reproduce byte for byte.
BASELINE_LOWERED_SHA256 = "0eb7438c769532a49248f4adb96edb139610aa96dca01098da99cdcd108f899d"
BASELINE_SIZE = 81


def _generated(n_values=range(2, 13)):
    """(n, k, target) triples in a fixed order."""
    for n in n_values:
        for k in range(1, n + 1):
            for kind in ("real", "complex", "nonneg"):
                yield n, k, random_leaf_separable(n, k, n // 2, kind, seed=[105, n, k])
                yield n, k, random_mixed_leaf_separable(n, k, kind, seed=[106, n, k])


def _corpus():
    """(label, target, config) triples in a fixed order."""
    for n in range(4, 11):
        for k in range(1, n + 1):
            for kind in ("real", "complex", "nonneg"):
                psi = random_leaf_separable(n, k, n // 2, kind, seed=[101, n, k])
                for mode in (MODE_FREE, MODE_ANCILLA):
                    config = SynthesisConfig(n=n, k=k, mode=mode)
                    yield f"sep-{kind}-{mode}-{n}-{k}", psi, config
            for kind in ("real", "complex"):
                psi = random_mixed_leaf_separable(n, k, kind, seed=[102, n, k])
                yield f"mixed-{kind}-{n}-{k}", psi, SynthesisConfig(n=n, k=k)
            if k < n:
                psi = random_fixed_weight_state(n, n // 2, "complex", seed=[103, n, k])
                yield f"dense-{n}-{k}", psi, SynthesisConfig(n=n, k=k)
        k_built, k_used = (n + 1) // 2, max(1, n // 3)
        psi = random_leaf_separable(n, k_built, n // 2, "real", seed=[104, n])
        yield f"mismatched-{n}-{k_used}", psi, SynthesisConfig(n=n, k=k_used)


def _simulated():
    """(circuit, target) pairs in a fixed order; k = 1 stops at n = 6 (12 wires
    in ancilla mode) to keep the test fast."""
    for n in range(4, 11):
        for k in range(1 if n <= 6 else 2, n + 1):
            targets = (random_leaf_separable(n, k, n // 2, "complex", seed=[107, n, k]),
                       random_mixed_leaf_separable(n, k, "complex", seed=[108, n, k]))
            for psi in targets:
                for mode in (MODE_FREE, MODE_ANCILLA):
                    yield synthesize_full(psi, SynthesisConfig(n=n, k=k, mode=mode)), psi
    for n in range(4, 9):
        psi = random_fixed_weight_state(n, n // 2, "complex", seed=[109, n])
        yield synthesize_general_baseline(psi), psi


def _baselines():
    """General-state baselines of real, complex and nonneg dense targets on 2-10 qubits,
    three seeds each, in a fixed order."""
    for n in range(2, 11):
        for kind in ("real", "complex", "nonneg"):
            for seed in range(3):
                rng = np.random.default_rng([110, n, seed])
                vec = rng.standard_normal(1 << n) + (1j * rng.standard_normal(1 << n)
                                                     if kind == "complex" else 0.0)
                yield synthesize_general_baseline(StateVector.from_dense(
                    n, np.abs(vec) if kind == "nonneg" else vec, normalize=True))


def test_lowered_baselines_are_pinned():
    """The lowered baseline is the cascade the baseline once emitted, and its cost
    is the multiplexors' cost."""
    digest = hashlib.sha256()
    count = 0
    for circ in _baselines():
        lowered = lower(circ)
        digest.update(export_text(lowered).encode())
        assert cost(lowered) == cost(circ)
        count += 1
    assert count == BASELINE_SIZE
    assert digest.hexdigest() == BASELINE_LOWERED_SHA256


def test_corpus_circuits_are_pinned():
    digest, structure, chains = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    verdicts = []
    count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, psi, config in _corpus():
            circ = synthesize_full(psi, config)
            text = export_text(lower(circ))
            digest.update(text.encode())
            structure.update(re.sub(r"\([^)]*\)", "()", text).encode())
            chains.update(export_text(circ).encode())
            if not circ.metadata["separable"]:
                verdicts.append(label)
            count += 1
    assert count == CORPUS_SIZE
    assert verdicts == NON_SEPARABLE
    assert structure.hexdigest() == CORPUS_STRUCTURE_SHA256
    assert digest.hexdigest() == CORPUS_SHA256
    assert chains.hexdigest() == CORPUS_CHAINS_SHA256


def test_corpus_verdicts_match_fidelity():
    """On every free-mode corpus target the verdict holds exactly when the circuit
    reaches fidelity 1, and the reconstruction is the simulated state, phase-aligned."""
    mismatched = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, psi, config in _corpus():
            if config.mode != MODE_FREE:
                continue
            circ = synthesize_full(psi, config)
            res = simulate(circ, target=psi)
            if circ.metadata["separable"] != (abs(res.fidelity - 1.0) <= 1e-10):
                mismatched.append(label)
            tree = build_partition_tree(config.n, config.k)
            compiled = aligned_state(res.state.amplitudes, psi, tree)
            rebuilt = reconstruct_amplitudes(psi, tree).amplitudes
            assert np.max(np.abs(rebuilt - compiled)) < 1e-12, label
    assert mismatched == []


def test_generated_targets_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for _, _, psi in _generated():
        digest.update(psi.amplitudes.tobytes())
        count += 1
    assert count == GENERATED_SIZE
    assert digest.hexdigest() == GENERATED_SHA256


@pytest.mark.parametrize("n", range(2, 13))
def test_generated_targets_reconstruct(n):
    for _, k, psi in _generated([n]):
        rebuilt = reconstruct_amplitudes(psi, build_partition_tree(n, k))
        assert np.max(np.abs(rebuilt.amplitudes - psi.amplitudes)) < 1e-12


def test_simulated_states_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for circ, psi in _simulated():
        res = simulate(circ, target=psi)
        digest.update(res.state.amplitudes.tobytes())
        assert abs(res.fidelity - 1.0) < 1e-10 and abs(res.purity - 1.0) < 1e-10
        count += 1
    assert count == SIMULATED_SIZE
    assert digest.hexdigest() == SIMULATED_SHA256


def test_support_engine_matches_dense_on_simulated_corpus():
    """Every pinned circuit is below the support engine's wire floor; run on the
    support anyway, it agrees with the dense path to rounding (numpy's scalar and
    vector complex multiplies round differently, so the bytes may not)."""
    worst = 0.0
    for circ, _ in _simulated():
        dense, _, first_dense, *_ = _run(circ, None, lambda *_: False)
        assert first_dense == 0
        sparse, _, first_dense, _, gates = _run(circ, None, lambda *_: True)
        assert first_dense == gates
        worst = max(worst, support_gap(sparse, dense))
    assert worst <= 1e-15
