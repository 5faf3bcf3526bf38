"""Random-walk Laplacian baseline and the EDVW-blind cardinality variant."""

import json

import numpy as np
import pytest

import hypercut.solver
from hypercut import (EdvwHypergraph, GKind, HKind, SubmodularWeightSpec,
                      build_rw_laplacian, cardinality_variant, exact_h2,
                      run_method, submodular_weight, with_degree_mu)
from hypercut.oracle import random_instance

CLIQUE = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)


def transition(rwl) -> np.ndarray:
    return (rwl.p_ve @ rwl.p_ev).toarray()


def canonical(partition) -> bytes:
    side = np.asarray(partition, dtype=bool)
    return (side if side[0] else ~side).tobytes()


def test_rw_transition_running_example(h0):
    rwl = build_rw_laplacian(h0)
    expected_row = np.array([1.0, 2.0, 3.0]) / 6.0
    p = transition(rwl)
    for row in p:
        assert np.allclose(row, expected_row, atol=1e-15)
    assert np.allclose(rwl.pi, expected_row, atol=1e-12)


def test_rw_rows_stochastic_and_pi_fixed_point():
    for seed in range(8):
        h = random_instance(seed, n=9, m=6)
        rwl = build_rw_laplacian(h)
        p = transition(rwl)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.max(np.abs(rwl.pi @ p - rwl.pi)) <= 1e-10
        op = rwl.laplacian_operator()
        lap = op @ np.eye(9)  # a block product
        assert np.allclose(op @ np.eye(9)[:, 3], lap[:, 3], atol=1e-14)
        assert np.max(np.abs(lap - lap.T)) <= 1e-12
        evals = np.linalg.eigvalsh(lap)
        assert evals[0] >= -1e-10  # PSD


def test_rw_diagnostics_serializable(h0):
    import json
    diag = json.loads(json.dumps(build_rw_laplacian(h0).diagnostics()))
    assert diag["row_sum_max_error"] <= 1e-12
    assert diag["pi_fixed_point_residual"] <= 1e-10
    assert diag["pi_min"] > 0.0


def test_rw_uniform_for_trivial_edvws():
    h = EdvwHypergraph(4, [[0, 1, 2, 3]], [[1.0] * 4], [2.0])
    rwl = build_rw_laplacian(h)
    assert np.allclose(transition(rwl), 0.25, atol=1e-15)
    assert np.allclose(rwl.pi, 0.25, atol=1e-12)


def test_rw_cluster_running_example(h0):
    report = run_method(h0, None, "rw-2lap")
    h2, _ = exact_h2(with_degree_mu(h0, CLIQUE), CLIQUE)
    assert report.ncc >= h2 - 1e-9
    # deterministic: identical partitions on repeated runs
    again = run_method(h0, None, "rw-2lap")
    assert canonical(report.partition) == canonical(again.partition)
    assert report.ncc == again.ncc


def test_rw_cluster_recovers_planted_split():
    # two internally dense blocks joined by a single weak bridge hyperedge
    edges = [[0, 1, 2], [0, 1, 3], [2, 3, 0],
             [4, 5, 6], [4, 5, 7], [6, 7, 4],
             [3, 4]]
    gams = [[1.0] * len(e) for e in edges]
    kaps = [5.0] * 6 + [0.05]
    h = EdvwHypergraph(8, edges, gams, kaps)
    report = run_method(h, None, "rw-2lap")
    planted = np.zeros(8, bool)
    planted[:4] = True
    hd = with_degree_mu(h, CLIQUE)
    h2, argmin = exact_h2(hd, CLIQUE)
    assert argmin.canonical_key() == \
        (planted if planted[0] else ~planted).tobytes()
    assert canonical(report.partition) == argmin.canonical_key()


def test_rw_lobpcg_path_matches_dense_path(monkeypatch):
    # above DENSE_CAP, LOBPCG applies the factored operator to (n, 1) blocks
    for seed in range(3):
        h = random_instance(seed, n=16, m=9)
        labels = np.arange(16) % 2
        dense = run_method(h, labels, "rw-2lap")
        monkeypatch.setattr(hypercut.solver, "DENSE_CAP", 4)
        iterative = run_method(h, labels, "rw-2lap")
        monkeypatch.undo()
        assert np.array_equal(iterative.partition, dense.partition)
        assert iterative.ncc == dense.ncc
        assert iterative.error == dense.error
        assert np.allclose(iterative.eigenvector, dense.eigenvector, atol=1e-6)



def test_report_keeps_read_only_arrays_and_serializes_lists():
    h = random_instance(4, n=12, m=7)
    report = run_method(h, np.arange(12) % 2, "rw-2lap")
    for arr in (report.eigenvector, report.partition):
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    out = report.to_dict()
    assert all(type(t) is float for t in out["eigenvector"])
    assert out["eigenvector"] == report.eigenvector.tolist()
    assert all(type(b) is int and b in (0, 1) for b in out["partition"])
    assert out["partition"] == [int(b) for b in report.partition]
    assert report.to_json() == json.dumps(out, indent=2, sort_keys=True) + "\n"

def test_cardinality_variant_examples(h0):
    flat = cardinality_variant(h0)
    assert all(np.all(g == 1.0) for g in flat.gamma)
    assert flat.kappa.tolist() == h0.kappa.tolist()  # kappa kept by default
    spec1 = SubmodularWeightSpec(HKind.CONSTANT_ONE, GKind.CLIQUE)
    assert submodular_weight(flat, spec1, 0, [0]) == 2.0  # 1 * (3 - 1)


def test_cardinality_variant_idempotent(h0):
    once = cardinality_variant(h0, recompute_kappa_std=True)
    twice = cardinality_variant(once, recompute_kappa_std=True)
    assert np.array_equal(once.kappa, twice.kappa)
    assert all(np.array_equal(a, b) for a, b in zip(once.gamma, twice.gamma))


def test_cardinality_variant_recomputed_kappa_is_indicator_std(h0):
    flat = cardinality_variant(h0, recompute_kappa_std=True)
    # indicator (1,1,1) over all three vertices has zero std, floored
    assert flat.kappa[0] == 1e-12
    h = EdvwHypergraph(4, [[0, 1], [1, 2, 3]],
                       [[2.0, 3.0], [1.0, 5.0, 2.0]], [9.0, 9.0])
    flat = cardinality_variant(h, recompute_kappa_std=True)
    assert flat.kappa[0] == pytest.approx(0.5, rel=1e-12)  # (1,1,0,0) std
    assert flat.kappa[1] == pytest.approx(np.std([0, 1, 1, 1]), rel=1e-12)
