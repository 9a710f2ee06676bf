import math
import tracemalloc

import numpy as np
import pytest
from conftest import tensor_factorization_check

from leafsep.analysis import is_leaf_separable
from leafsep.core import MAX_QUBITS, build_partition_tree
from leafsep.experiments import (COST_CSV_HEADER, FIDELITY_CSV_HEADER, ExperimentConfig,
                                 random_fixed_weight_state, random_leaf_separable,
                                 random_mixed_leaf_separable, rows_to_csv, run_cost_sweep,
                                 run_fidelity_sweep)


def test_generated_states_are_separable():
    checked = 0
    for n in range(4, 13):
        for k in (1, 2, math.ceil(n / 2)):
            for kind in ("real", "complex"):
                for s in range(3):
                    psi = random_leaf_separable(n, k, max(1, n // 2), kind,
                                                seed=[n, k, s])
                    tree = build_partition_tree(n, k)
                    assert is_leaf_separable(psi, tree, tol=1e-9).separable
                    checked += 1
    assert checked >= 100


def test_generator_matches_svd_oracle_sample():
    for n, k in [(4, 2), (6, 3), (8, 4)]:
        psi = random_leaf_separable(n, k, n // 2, "complex", seed=[3, n])
        assert tensor_factorization_check(psi, build_partition_tree(n, k))


def test_generator_norm_and_support():
    psi = random_leaf_separable(6, 2, 3, "real", seed=5)
    assert abs(psi.norm() - 1.0) < 1e-12
    assert psi.weights_present() == [3]


def test_generator_golden_vector():
    """Frozen regression values from the first verified run (n=4, k=2, ell=2,
    real, seed=7)."""
    psi = random_leaf_separable(4, 2, 2, "real", seed=7)
    expected = {
        "0011": -0.5544818700796377,
        "0101": 0.17288305105020627,
        "0110": 0.21793615024981797,
        "1001": 0.3770615741815578,
        "1010": 0.4753233320737766,
        "1100": 0.49704873009480294,
    }
    for bits, value in expected.items():
        assert abs(psi.amplitude(bits).real - value) < 1e-12
        assert psi.amplitude(bits).imag == 0.0


def test_generator_single_distribution_is_product():
    # ell = 0 admits exactly one distribution: the state is a product |0...0>
    psi = random_leaf_separable(4, 2, 0, "real", seed=1)
    assert abs(abs(psi.amplitude("0000")) - 1.0) < 1e-12


def test_mixed_generator_profile_scope():
    psi = random_mixed_leaf_separable(6, 3, "real", seed=2)
    assert max(psi.weights_present()) <= 3
    assert is_leaf_separable(psi, build_partition_tree(6, 3)).separable


def test_fixed_weight_generator():
    psi = random_fixed_weight_state(6, 2, "complex", seed=4)
    assert psi.weights_present() == [2]
    assert abs(psi.norm() - 1.0) < 1e-12


def test_generators_reject_too_many_qubits_before_work():
    n = MAX_QUBITS + 1
    for build in (lambda: random_leaf_separable(n, 2, n // 2),
                  lambda: random_mixed_leaf_separable(n, 2),
                  lambda: random_fixed_weight_state(n, n // 2)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{n} wires exceed the maximum of {MAX_QUBITS}"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_generators_reject_weights_out_of_range():
    for ell in (-1, 5):
        with pytest.raises(ValueError, match=rf"ell must be in \[0, 4\] for n=4, got {ell}"):
            random_leaf_separable(4, 2, ell)
        with pytest.raises(ValueError, match=rf"w must be in \[0, 4\] for n=4, got {ell}"):
            random_fixed_weight_state(4, ell)
    assert random_leaf_separable(4, 2, 4).weights_present() == [4]


def test_fidelity_sweep_rejects_empty_cells():
    with pytest.raises(ValueError, match="states per cell must be at least 1, got 0"):
        ExperimentConfig(n_values=(4,), states_per_cell=0)
    with pytest.raises(ValueError, match=r"no \(n, k\) cell to run: k \(9,\) exceeds every n"):
        run_fidelity_sweep(ExperimentConfig(n_values=(4,), k_values=(9,), states_per_cell=1))


def test_generators_reject_unknown_fields():
    with pytest.raises(ValueError, match="unknown amplitude field 'integer'"):
        random_leaf_separable(4, 2, 2, "integer")


def test_generators_reject_sizes_out_of_range():
    for k in (0, 5):
        with pytest.raises(ValueError, match=rf"k must be in \[1, 4\] for n=4, got {k}"):
            random_leaf_separable(4, k, 2)
        with pytest.raises(ValueError, match=rf"k must be in \[1, 4\] for n=4, got {k}"):
            random_mixed_leaf_separable(4, k)
    for build in (lambda: random_leaf_separable(0, 1, 1), lambda: random_mixed_leaf_separable(0, 1),
                  lambda: random_fixed_weight_state(0, 0)):
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            build()


def test_fidelity_sweep_rows_and_determinism():
    cfg = ExperimentConfig(n_values=(4, 5), states_per_cell=4, seed=11)
    rows = run_fidelity_sweep(cfg)
    ks = {(r["n"], r["k"]) for r in rows}
    assert ks == {(4, 1), (4, 2), (5, 1), (5, 2), (5, 3)}
    for r in rows:
        assert r["count"] == 4
        assert 0.0 <= r["min_fidelity"] <= r["mean_fidelity"] <= r["max_fidelity"] <= 1 + 1e-12
    csv1 = rows_to_csv(rows, FIDELITY_CSV_HEADER)
    csv2 = rows_to_csv(run_fidelity_sweep(cfg), FIDELITY_CSV_HEADER)
    assert csv1 == csv2
    assert csv1.splitlines()[0] == ("n,k,ell,mode,field,seed,mean_fidelity,"
                                    "min_fidelity,max_fidelity,std_fidelity,count")
    r = rows[0]
    assert csv1.splitlines()[1] == ",".join([
        str(r["n"]), str(r["k"]), str(r["ell"]), r["mode"], r["field"], str(r["seed"]),
        repr(r["mean_fidelity"]), repr(r["min_fidelity"]), repr(r["max_fidelity"]),
        repr(r["std_fidelity"]), str(r["count"])])


def test_exact_cells_dominate():
    cfg = ExperimentConfig(n_values=(6, 7), states_per_cell=5, seed=13)
    rows = run_fidelity_sweep(cfg)
    for n in (6, 7):
        row_means = {r["k"]: r["mean_fidelity"] for r in rows if r["n"] == n}
        exact = row_means[math.ceil(n / 2)]
        assert all(exact >= mean - 1e-9 for mean in row_means.values())


def test_cost_sweep_rows():
    rows = run_cost_sweep((6, 8), seed=1)
    methods = {r["method"] for r in rows}
    assert methods == {"leafsep_free", "leafsep_ancilla", "hwk_encoder",
                       "general_baseline"}
    by = {(r["n"], r["method"]): r for r in rows}
    for n in (6, 8):
        anc = by[(n, "leafsep_ancilla")]
        free = by[(n, "leafsep_free")]
        assert anc["two_qubit"] <= free["two_qubit"]
        for r in (anc, free):
            assert r["k"] == math.ceil(n / 2)
            assert r["depth"] <= r["total"]
    csv = rows_to_csv(rows, COST_CSV_HEADER)
    assert csv.splitlines()[0] == "n,k,method,two_qubit,total,depth"


def test_cost_sweep_empty():
    assert run_cost_sweep(()) == []
    assert rows_to_csv([], COST_CSV_HEADER) == "n,k,method,two_qubit,total,depth\n"


def test_cross_tree_transfer_is_approximate():
    """States built for one tree synthesize approximately on another; this is
    the regime where the sweep's sub-unit fidelities live."""
    import warnings

    from leafsep.simulator import simulate
    from leafsep.synthesis import SynthesisConfig, synthesize_full
    psi = random_leaf_separable(8, 4, 4, "real", seed=21)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        circ = synthesize_full(psi, SynthesisConfig(n=8, k=3))
    fid = simulate(circ, target=psi).fidelity
    assert 0.2 < fid < 1 - 1e-6
