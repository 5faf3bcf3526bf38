"""Random-walk Laplacian baseline and the EDVW-blind cardinality variant."""

import json

import numpy as np
import pytest

import hypercut.report
import hypercut.solver
from hypercut import (EdvwHypergraph, GKind, HKind, SubmodularWeightSpec,
                      build_rw_laplacian, cardinality_variant, exact_h2,
                      run_method, second_eigvec_2lap, submodular_weight,
                      with_degree_mu)
from hypercut.baselines import PI_MAX_ITERS, PI_TOL
from hypercut.datasets import BinningSpec, build_covertype_from_table
from hypercut.oracle import random_instance

from _toydata import bench_inputs

CLIQUE = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)


def transition(rwl) -> np.ndarray:
    return (rwl.p_ve @ rwl.p_ev).toarray()


def canonical(partition) -> bytes:
    side = np.asarray(partition, dtype=bool)
    return (side if side[0] else ~side).tobytes()


def bench_covertype(n: int, seed: int = 1):
    """The benchmark's covertype-shaped hypergraph at alpha = 1."""
    return build_covertype_from_table(*bench_inputs().covertype_table(n, seed),
                                      BinningSpec(), 1.0).hypergraph


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
        assert rwl.pi.min() > 0.0
        op = rwl.laplacian_operator()
        lap = op @ np.eye(9)  # a block product
        assert np.allclose(op @ np.eye(9)[:, 3], lap[:, 3], atol=1e-14)
        assert np.max(np.abs(lap - lap.T)) <= 1e-12
        evals = np.linalg.eigvalsh(lap)
        assert evals[0] >= -1e-10  # PSD


@pytest.mark.parametrize("n", [600, 1600])
def test_rw_products_are_bit_stable(n):
    # reference: the walk factors transposed afresh for every product; the
    # transposes bound once run the same sparse kernels on the same arrays,
    # so every bit must agree
    rwl = build_rw_laplacian(bench_covertype(n))
    p_ve, p_ev = rwl.p_ve, rwl.p_ev

    pi = np.full(n, 1.0 / n)
    for _ in range(PI_MAX_ITERS):
        nxt = p_ev.T @ (p_ve.T @ pi)
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual <= PI_TOL:
            break
    assert np.array_equal(rwl.pi, pi)

    s = np.sqrt(pi)
    inv_s = 1.0 / s
    op = rwl.laplacian_operator()
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        sc, inv = (s, inv_s) if x.ndim == 1 else (s[:, None], inv_s[:, None])
        a = sc * (p_ve @ (p_ev @ (inv * x)))
        b = inv * (p_ev.T @ (p_ve.T @ (sc * x)))
        assert np.array_equal(op @ x, x - 0.5 * (a + b))


@pytest.mark.parametrize("h", [random_instance(3, n=14, m=8),
                               bench_covertype(600)],
                         ids=["random", "covertype-600"])
def test_rw_operator_matches_its_formula(h):
    rwl = build_rw_laplacian(h)
    n = rwl.n_vertices
    p = transition(rwl)
    s = np.sqrt(rwl.pi)
    # I - (S P S^-1 + S^-1 P^T S) / 2 with S = diag(sqrt(pi))
    sps = s[:, None] * p / s[None, :]
    expected = np.eye(n) - 0.5 * (sps + sps.T)
    lap = rwl.laplacian_operator() @ np.eye(n)
    assert np.max(np.abs(lap - expected)) <= 1e-13 * np.max(np.abs(expected))
    # sqrt(pi) spans the kernel because pi is stationary
    assert np.linalg.norm(rwl.laplacian_operator() @ s) <= 1e-10


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
        rwl = build_rw_laplacian(with_degree_mu(h, CLIQUE))
        vectors, reports = [], []
        for cap in (hypercut.solver.DENSE_CAP, 4):
            monkeypatch.setattr(hypercut.solver, "DENSE_CAP", cap)
            # the vector run_method thresholds, back from sqrt(pi) scaling
            vectors.append(second_eigvec_2lap(
                rwl.laplacian_operator(), nullspace=np.sqrt(rwl.pi),
                diagonal=rwl.laplacian_diagonal()) / np.sqrt(rwl.pi))
            reports.append(run_method(h, labels, "rw-2lap"))
        monkeypatch.undo()
        dense, iterative = reports
        assert np.array_equal(iterative.partition, dense.partition)
        assert iterative.ncc == dense.ncc
        assert iterative.error == dense.error
        assert np.allclose(vectors[1], vectors[0], atol=1e-6)



def test_report_keeps_read_only_arrays_and_serializes_lists():
    h = random_instance(4, n=12, m=7)
    report = run_method(h, np.arange(12) % 2, "rw-2lap")
    arr = report.partition
    assert isinstance(arr, np.ndarray) and not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 0
    out = report.to_dict()
    # the vector and its R1 and threshold stay off the report
    assert not {"eigenvector", "lambda", "threshold"} & set(out)
    assert all(type(b) is int and b in (0, 1) for b in out["partition"])
    assert out["partition"] == [int(b) for b in report.partition]
    assert report.to_json() == json.dumps(out, sort_keys=True,
                                          separators=(",", ":")) + "\n"


@pytest.mark.parametrize("method", ["edvw-1lap", "cardinality-1lap"])
@pytest.mark.parametrize("labels, mu_mode, message", [
    (np.arange(2) % 2, "degree", "labels length"),
    (np.arange(3), "degree", "more than two classes"),
    (np.array([[0], [1], [1]]), "degree", "labels length"),  # shape (n, 1)
    (None, "nope", "unknown mu mode"),
])
def test_run_method_refuses_bad_input_before_any_work(monkeypatch, h0, method,
                                                      labels, mu_mode, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(hypercut.report, "ipm_second_eigvec", no_work)
    monkeypatch.setattr(hypercut.report, "cardinality_variant", no_work)
    with pytest.raises(ValueError, match=message):
        run_method(h0, labels, method, mu_mode=mu_mode)


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
