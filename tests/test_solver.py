"""Inverse power method, inner TV subproblem, 2-Laplacian solver, thresholding."""

import numpy as np
import pytest
import scipy.sparse as sp

import hypercut.solver
from hypercut import (EdvwHypergraph, GKind, HKind, IpmConfig,
                      SubmodularWeightSpec, WeightedGraph, clique_expand,
                      exact_h2, graph_r1, inner_tv_solve, ipm_second_eigvec,
                      median_subgradient, optimal_threshold, r1_functional,
                      second_eigvec_2lap, with_degree_mu)
from hypercut.errors import DisconnectedGraphError
from hypercut.oracle import random_instance
from hypercut.solver import graph_threshold_partition, tv_dual_lipschitz

CLIQUE = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)


def path2(weight=1.0, mu=(1.0, 1.0)) -> WeightedGraph:
    adj = sp.csr_array(np.array([[0.0, weight], [weight, 0.0]]))
    return WeightedGraph(2, adj, np.array(mu))


def expanded(h):
    return clique_expand(h, CLIQUE)


# ---------------------------------------------------------------------------
# median subgradient
# ---------------------------------------------------------------------------

def test_median_subgradient_sums_to_zero_and_supports_denominator():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        x = np.round(rng.standard_normal(n), 1)  # force ties
        mu = rng.uniform(0.1, 3.0, size=n)
        v = median_subgradient(x, mu)
        assert abs(v.sum()) <= 1e-10
        assert np.all(np.abs(v) <= mu * (1 + 1e-12))
        # Euler identity for the positively homogeneous denominator
        from hypercut import weighted_median
        c = weighted_median(x, mu)
        denom = float(mu @ np.abs(x - c))
        assert float(v @ x) == pytest.approx(denom, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# inner solver
# ---------------------------------------------------------------------------

def test_inner_zero_lambda_returns_previous(h0):
    g = expanded(with_degree_mu(h0, CLIQUE))
    x_prev = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    res = inner_tv_solve(g, np.zeros(3), 0.0, IpmConfig(), x_prev=x_prev)
    assert not res.improved
    assert np.array_equal(res.x, x_prev)


def test_inner_two_vertex_linear_term_dominates():
    g = path2()
    v = np.array([0.6, -0.8])
    res = inner_tv_solve(g, v, 1e6, IpmConfig(), x_prev=np.array([1.0, -1.0]))
    assert res.improved
    assert np.allclose(res.x, v / np.linalg.norm(v), atol=1e-5)


def test_inner_objective_nonpositive_in_ipm_context():
    for seed in range(10):
        h = with_degree_mu(random_instance(seed, n=9, m=5), CLIQUE)
        g = expanded(h)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(9)
        from hypercut.solver import _center_normalize
        x = _center_normalize(x, g.mu)
        lam = graph_r1(g, x)
        v = median_subgradient(x, g.mu)
        res = inner_tv_solve(g, v, lam, IpmConfig(), x_prev=x,
                             lipschitz=tv_dual_lipschitz(g))
        assert res.objective <= 1e-12


# ---------------------------------------------------------------------------
# inverse power method
# ---------------------------------------------------------------------------

def test_ipm_two_vertex_path():
    res = ipm_second_eigvec(path2(), IpmConfig(n_restarts=2))
    target = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(np.abs(res.x), np.abs(target), atol=1e-12)
    assert res.lam == pytest.approx(1.0, rel=1e-12)
    assert res.converged


def test_ipm_running_example_reaches_oracle(h0):
    hd = with_degree_mu(h0, CLIQUE)
    res = ipm_second_eigvec(expanded(hd), IpmConfig())
    part = optimal_threshold(res.x, hd, CLIQUE)
    assert part.ncc == pytest.approx(5.0 / 9.0, rel=1e-12)


def test_ipm_monotone_descent_and_threshold_dominance():
    for seed in range(12):
        h = with_degree_mu(random_instance(seed, n=10, m=6), CLIQUE)
        g = expanded(h)
        res = ipm_second_eigvec(g, IpmConfig(rng_seed=seed))
        lams = [it.lam for it in res.trace]
        assert all(b <= a + 1e-10 for a, b in zip(lams, lams[1:]))
        for it in res.trace:
            assert it.threshold_ncc <= it.lam + 1e-9
        # the final R1 never exceeds the initial one
        assert res.lam <= lams[0] + 1e-10


def test_ipm_rejects_disconnected():
    adj = sp.csr_array(np.array([[0.0, 1.0, 0.0, 0.0],
                                 [1.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0, 1.0],
                                 [0.0, 0.0, 1.0, 0.0]]))
    g = WeightedGraph(4, adj, np.ones(4))
    with pytest.raises(DisconnectedGraphError):
        ipm_second_eigvec(g, IpmConfig())


def test_eig_result_internally_consistent_and_serializable(h0):
    hd = with_degree_mu(h0, CLIQUE)
    g = expanded(hd)
    res = ipm_second_eigvec(g, IpmConfig())
    assert res.lam >= 0.0
    assert graph_r1(g, res.x) == res.lam  # recomputed at return time
    assert abs(r1_functional(hd, CLIQUE, res.x) - res.lam) <= 1e-10 * res.lam
    import json
    payload = json.loads(json.dumps(res.to_json_dict()))
    assert payload["lambda"] == res.lam
    assert len(payload["trace"]) == len(res.trace)


def test_ipm_deterministic_given_seed(h0):
    g = expanded(with_degree_mu(h0, CLIQUE))
    a = ipm_second_eigvec(g, IpmConfig(rng_seed=42))
    b = ipm_second_eigvec(g, IpmConfig(rng_seed=42))
    assert np.array_equal(a.x, b.x)
    assert a.lam == b.lam and a.restart_index == b.restart_index


# ---------------------------------------------------------------------------
# 2-Laplacian eigensolver
# ---------------------------------------------------------------------------

def test_second_eigvec_2lap_two_path():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    x = second_eigvec_2lap(lap, nullspace=np.ones(2))
    assert np.allclose(np.abs(x), np.array([1.0, 1.0]) / np.sqrt(2.0))
    lam = float(x @ (lap @ x))
    assert lam == pytest.approx(2.0, rel=1e-12)


def test_second_eigvec_2lap_disconnected_raises():
    lap = np.kron(np.eye(2), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(DisconnectedGraphError):
        second_eigvec_2lap(lap, nullspace=np.ones(4))


def test_second_eigvec_2lap_orthogonal_to_kernel():
    h = with_degree_mu(random_instance(1, n=12, m=7), CLIQUE)
    g = expanded(h)
    d = g.weighted_degrees
    lap = np.diag(d) - g.adjacency.toarray()
    x = second_eigvec_2lap(lap, nullspace=np.ones(12))
    assert abs(x @ np.ones(12)) <= 1e-8 * np.linalg.norm(x) * np.sqrt(12)


def test_second_eigvec_2lap_iterative_path_matches_dense(monkeypatch):
    # force the LOBPCG branch with a tiny dense cap
    h = with_degree_mu(random_instance(2, n=14, m=8), CLIQUE)
    g = expanded(h)
    d = g.weighted_degrees
    lap = sp.csr_array(sp.diags_array(d) - g.adjacency)
    dense = second_eigvec_2lap(lap, nullspace=np.ones(14))
    monkeypatch.setattr(hypercut.solver, "DENSE_CAP", 2)
    iterative = second_eigvec_2lap(lap, nullspace=np.ones(14))
    assert np.allclose(np.abs(dense), np.abs(iterative), atol=1e-6)


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------

def test_optimal_threshold_running_example(h0):
    hd = with_degree_mu(h0, CLIQUE)
    part = optimal_threshold(np.array([3.0, 2.0, 1.0]), hd, CLIQUE)
    assert part.block(True).tolist() == [0]
    assert part.ncc == pytest.approx(5.0 / 9.0, rel=1e-15)


def test_optimal_threshold_dominated_by_r1():
    rng = np.random.default_rng(9)
    for seed in range(15):
        h = with_degree_mu(random_instance(seed, n=9, m=5), CLIQUE)
        for _ in range(10):
            x = rng.standard_normal(9)
            part = optimal_threshold(x, h, CLIQUE)
            assert part.ncc <= r1_functional(h, CLIQUE, x) + 1e-9


def test_optimal_threshold_two_vertices():
    h = EdvwHypergraph(2, [[0, 1]], [[1.0, 2.0]], [1.0])
    hd = with_degree_mu(h, CLIQUE)
    part = optimal_threshold(np.array([0.3, -0.1]), hd, CLIQUE)
    assert part.block(True).tolist() == [0]


def test_optimal_threshold_constant_raises(h0):
    with pytest.raises(ValueError):
        optimal_threshold(np.full(3, 1.5), h0, CLIQUE)


def test_threshold_partition_invariant_under_affine_maps():
    rng = np.random.default_rng(4)
    for seed in range(8):
        h = with_degree_mu(random_instance(seed, n=8, m=5), CLIQUE)
        x = rng.standard_normal(8)
        base = optimal_threshold(x, h, CLIQUE)
        for a, c in ((2.0, 0.0), (0.5, -3.0), (10.0, 7.0)):
            other = optimal_threshold(a * x + c, h, CLIQUE)
            assert other.canonical_key() == base.canonical_key()


def test_graph_and_hypergraph_threshold_agree_under_clique():
    rng = np.random.default_rng(13)
    for seed in range(10):
        h = with_degree_mu(random_instance(seed, n=9, m=5), CLIQUE)
        g = expanded(h)
        x = rng.standard_normal(9)
        ph = optimal_threshold(x, h, CLIQUE)
        pg = graph_threshold_partition(x, g)
        assert ph.canonical_key() == pg.canonical_key()
        assert ph.ncc == pytest.approx(pg.ncc, rel=1e-9)


# ---------------------------------------------------------------------------
# oracle agreement (small-scale preview of the acceptance criterion)
# ---------------------------------------------------------------------------

def test_ipm_matches_oracle_on_small_instances():
    hits = 0
    for seed in range(10):
        h = with_degree_mu(random_instance(seed, n=9, m=6), CLIQUE)
        res = ipm_second_eigvec(expanded(h), IpmConfig(rng_seed=seed))
        part = optimal_threshold(res.x, h, CLIQUE)
        h2, _ = exact_h2(h, CLIQUE)
        assert part.ncc >= h2 - 1e-9
        hits += abs(part.ncc - h2) <= 1e-9
    assert hits >= 8
