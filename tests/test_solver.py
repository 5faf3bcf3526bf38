"""Inverse power method, inner TV subproblem, 2-Laplacian solver, thresholding."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hypercut.report
import hypercut.solver
from hypercut import (EdvwHypergraph, EigResult, GKind, HKind, IpmConfig,
                      Partition, SubmodularWeightSpec, WeightedGraph,
                      build_rw_laplacian, clique_expand, exact_h2,
                      ipm_second_eigvec, optimal_threshold, r1_functional,
                      run_method, second_eigvec_2lap, with_degree_mu)
from hypercut.core import weighted_median
from hypercut.errors import DisconnectedGraphError, SolverConvergenceError
from hypercut.oracle import random_instance
from hypercut.reduction import graph_total_variation
from hypercut.solver import (_center_normalize, graph_r1,
                             graph_threshold_partition, inner_tv_solve,
                             median_subgradient, snapped_descent, tv_prox)

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
        c = weighted_median(x, mu)
        denom = float(mu @ np.abs(x - c))
        assert float(v @ x) == pytest.approx(denom, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# inner solver
# ---------------------------------------------------------------------------

def test_inner_zero_lambda_returns_previous(h0):
    g = expanded(with_degree_mu(h0, CLIQUE))
    x_prev = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    res = inner_tv_solve(g, np.zeros(3), 0.0, x_prev=x_prev)
    assert not res.improved
    assert np.array_equal(res.x, x_prev)


def test_inner_two_vertex_linear_term_dominates():
    g = path2()
    v = np.array([0.6, -0.8])
    res = inner_tv_solve(g, v, 1e6, x_prev=np.array([1.0, -1.0]))
    assert res.improved
    assert np.allclose(res.x, v / np.linalg.norm(v), atol=1e-5)


def test_snapped_descent_ignores_descent_within_one_unit_per_arc():
    # on the path 0 -1- 1 -b- 2 the iterate snapped to S = {0} has lam = 1
    # and v = (1, -1/2, -1/2), so min F = F({0, 1}) = b - 1/2; at -1e-9 that
    # lies within the slack of the integer flow (9 units of 2^31 / 2) and
    # no descent is reported, at -1e-6 there is descent
    x = np.array([1.0, 0.0, 0.0])
    for gap, descent in ((1e-9, False), (1e-6, True)):
        b = 0.5 - gap
        g = WeightedGraph(3, sp.csr_array(np.array([[0.0, 1.0, 0.0],
                                                    [1.0, 0.0, b],
                                                    [0.0, b, 0.0]])),
                          np.ones(3))
        assert np.array_equal(_center_normalize(x, g.mu), x)
        lam, v = graph_r1(g, x), median_subgradient(x, g.mu)
        assert lam == 1.0 and np.array_equal(v, [1.0, -0.5, -0.5])
        assert snapped_descent(g, v, lam) == descent


def test_inner_objective_nonpositive_in_ipm_context():
    for seed in range(10):
        h = with_degree_mu(random_instance(seed, n=9, m=5), CLIQUE)
        g = expanded(h)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(9)
        x = _center_normalize(x, g.mu)
        lam = graph_r1(g, x)
        v = median_subgradient(x, g.mu)
        res = inner_tv_solve(g, v, lam, x_prev=x)
        assert graph_total_variation(g, res.x) - lam * res.x @ v <= 1e-12


def random_graph(rng, n: int, density: float) -> WeightedGraph:
    dense = np.triu(rng.random((n, n)) < density, 1) * rng.lognormal(0.0, 1.0, (n, n))
    return WeightedGraph(n, sp.csr_array(dense + dense.T), np.ones(n))


def test_tv_prox_level_sets_minimize_cut_functions():
    # {p > t} minimizes cut(S) - sum_S (y - t) for every t (Chambolle &
    # Darbon); graphs may have isolated vertices and several pieces
    for case in range(300):
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, rng.choice([0.0, 0.2, 0.5, 0.9]))
        y = 3.0 * rng.standard_normal(n)
        if case % 3 == 0:
            y = np.round(y)  # tied entries
        p = tv_prox(g, y)
        u, v, w = g.edges
        magnitude = w.sum() + np.abs(y).sum()
        assert abs(p.sum() - y.sum()) <= 1e-12 * magnitude, case
        subsets = np.array(list(itertools.product([False, True], repeat=n)))
        cuts = (subsets[:, u] != subsets[:, v]) @ w
        levels = np.unique(p)
        for t in np.concatenate([levels, (levels[1:] + levels[:-1]) / 2,
                                 [levels[0] - 1.0]]):
            f = cuts - subsets @ (y - t)
            s = p > t
            f_level = ((s[u] != s[v]) @ w) - (y - t) @ s
            assert f_level <= f.min() + 1e-9 * magnitude, (case, t)


def test_network_matches_loop_reference():
    # empty rows first, in the middle (two in a row, so row ends repeat)
    # and last; targets of both signs and zero
    for case in range(60):
        rng = np.random.default_rng(case)
        k = int(rng.integers(5, 14))
        dense = np.triu(rng.uniform(0.1, 3.0, (k, k))
                        * (rng.random((k, k)) < 0.5), 1)
        dense += dense.T
        dense[[0, k // 2, k // 2 + 1, k - 1]] = 0.0
        adj = sp.csr_array(dense)
        target = rng.standard_normal(k) * (rng.random(k) < 0.8)
        scale = np.iinfo(np.int32).max / max(2.0 * dense.max(),
                                              float(np.abs(target).max()))
        net = hypercut.solver._network(adj.indptr, adj.indices, adj.data,
                                       target, scale)
        ref = np.zeros((k + 2, k + 2), dtype=np.int64)
        for v in range(k):
            for j in range(adj.indptr[v], adj.indptr[v + 1]):
                ref[v, adj.indices[j]] = np.floor(adj.data[j] * scale)
            ref[v, k + 1] = np.floor(max(-target[v], 0.0) * scale)
            ref[k, v] = np.floor(max(target[v], 0.0) * scale)
        assert net.shape == (k + 2, k + 2)
        assert net.data.dtype == net.indices.dtype == net.indptr.dtype == np.int32
        assert net.has_sorted_indices
        assert np.array_equal(net.toarray(), ref), case
        assert net.nnz == adj.nnz + 2 * k


# ---------------------------------------------------------------------------
# inverse power method
# ---------------------------------------------------------------------------

def test_ipm_two_vertex_path():
    # one hyperedge of two unit gammas: the clique graph is path2()
    h = EdvwHypergraph(2, [[0, 1]], [[1.0, 1.0]], [1.0])
    res = ipm_second_eigvec(h, CLIQUE, IpmConfig(n_restarts=2))
    target = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(np.abs(res.x), np.abs(target), atol=1e-12)
    assert res.lam == pytest.approx(1.0, rel=1e-12)
    assert res.converged


def test_ipm_running_example_reaches_oracle(h0):
    hd = with_degree_mu(h0, CLIQUE)
    res = ipm_second_eigvec(hd, CLIQUE, IpmConfig())
    part = optimal_threshold(res.x, hd, CLIQUE)
    assert part.ncc == pytest.approx(5.0 / 9.0, rel=1e-12)


def test_ipm_monotone_descent_and_threshold_dominance():
    for seed in range(12):
        h = with_degree_mu(random_instance(seed, n=10, m=6), CLIQUE)
        res = ipm_second_eigvec(h, CLIQUE, IpmConfig(rng_seed=seed))
        lams = [it.lam for it in res.trace]
        assert all(b <= a + 1e-10 for a, b in zip(lams, lams[1:]))
        for it in res.trace:
            assert it.threshold_ncc <= it.lam + 1e-9
        # the final R1 never exceeds the initial one
        assert res.lam <= lams[0] + 1e-10


def random_connected_graph(rng, n: int) -> WeightedGraph:
    dense = np.triu(rng.random((n, n)) < 0.5, 1).astype(float)
    dense[np.arange(n - 1), np.arange(1, n)] = 1.0  # a path keeps it connected
    if rng.random() < 0.5:
        dense *= rng.lognormal(0.0, 1.0, (n, n))
    else:  # a few arcs far heavier than the rest
        dense *= rng.uniform(0.05, 1.0, (n, n)) ** 3
    return WeightedGraph(n, sp.csr_array(dense + dense.T),
                         rng.lognormal(0.0, 0.5, n))


def test_cut_descent_certificate_matches_enumeration():
    # the inner solve finds descent exactly when min_A cut(A) - lam * v(A)
    # over all 2^n subsets is negative, and at a snapped iterate with
    # lam = R1(x) so does the split max flow; case 198 routes flow both ways
    # over the heaviest arc
    ruled_out = 0
    split = []
    for case in range(480):
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 11))
        g = random_connected_graph(rng, n)
        if case % 2 == 0:  # snapped iterate: the centered indicator of a cut
            mask = rng.random(n) < 0.5
            mask[0], mask[-1] = True, False
            x = _center_normalize(mask.astype(float), g.mu)
        else:
            x = rng.standard_normal(n)
        v = median_subgradient(x, g.mu)
        lam = graph_r1(g, x)
        if case % 3 == 0:
            lam *= rng.uniform(0.1, 1.0)
        subsets = np.array(list(itertools.product([False, True], repeat=n)))
        u, w_, w = g.edges
        f_min = ((subsets[:, u] != subsets[:, w_]) @ w
                 - lam * (subsets @ v)).min()
        magnitude = max(w.max(), np.abs(lam * v).max())
        got = not inner_tv_solve(g, v, lam, x_prev=x).improved
        assert got == (f_min >= -1e-9 * magnitude), (case, f_min / magnitude)
        ruled_out += got
        if case % 2 == 0 and case % 3 != 0:
            descent = snapped_descent(g, v, lam)
            assert descent == (f_min < -1e-9 * magnitude), case
            split.append(descent)
    assert 60 <= ruled_out <= 420  # both answers are exercised
    assert len(split) == 160 and 0 < sum(split) < 160


#: best partition (vertices of one side) and lambda on the instances of the
#: descent test, as the box-dual FISTA solver with a separate max-flow check
#: returned them
PINNED_IPM_RESULTS = [
    ([0, 1, 3, 5, 8], 0.29645319052372593),
    ([0, 1, 6, 9], 0.2044097480019473),
    ([0, 3, 4], 0.3616460894866174),
    ([0, 1, 2, 4, 6, 8], 0.17706039714197108),
    ([0, 1, 2, 3, 5, 7, 9], 0.13271089504450842),
    ([0, 1, 3, 5, 6, 7, 8, 9], 0.287066713291088),
    ([0, 1, 4, 5, 6, 7, 8], 0.2638714391185306),
    ([0, 1, 3, 7, 9], 0.24058349552886465),
    ([0, 3, 4, 6, 7, 9], 0.17473250852719813),
    ([0, 3, 4, 6], 0.11743847785751033),
    ([0, 1, 5, 6], 0.27456437220482033),
    ([0, 2, 3, 4, 7], 0.15546604403570194),
]


def test_cut_descent_certificate_keeps_ipm_results():
    # the exact inner solve and the split max-flow certificate end every
    # restart on the partition and the eigenvalue the earlier solver found
    for seed, (side, lam) in enumerate(PINNED_IPM_RESULTS):
        h = with_degree_mu(random_instance(seed, n=10, m=6), CLIQUE)
        res = ipm_second_eigvec(h, CLIQUE, IpmConfig(rng_seed=seed))
        part = optimal_threshold(res.x, h, CLIQUE)
        assert np.flatnonzero(part.side_of).tolist() == side, seed
        assert res.lam == pytest.approx(lam, rel=1e-12, abs=0.0), seed
        # the restart ends on the exact cut, as it did: the eigenvector is
        # the centered indicator of the partition
        indicator = _center_normalize(part.side_of.astype(np.float64), h.mu)
        assert np.array_equal(res.x, indicator), seed
        assert_partition_is_the_sweep_of_x(h, res, seed)


@pytest.fixture(scope="module")
def oracle_set_runs():
    """(seed, h, IPM result) on the oracle set: seeds 0-199 of
    random_instance(seed, n=10 + seed % 15, m=4 + n // 2) under degree mu."""
    runs = []
    for seed in range(200):
        n = 10 + seed % 15
        h = with_degree_mu(random_instance(seed, n=n, m=4 + n // 2), CLIQUE)
        runs.append((seed, h, ipm_second_eigvec(h, CLIQUE,
                                                IpmConfig(rng_seed=seed))))
    return runs


def assert_partition_is_the_sweep_of_x(h, res, seed):
    # the IPM keeps the best level-set cut of its iterate, bit for bit what
    # a sweep of x gives, so no caller needs to sweep x again
    swept = optimal_threshold(res.x, h, CLIQUE)
    assert np.array_equal(res.partition.side_of, swept.side_of), seed
    assert (res.partition.cut_weight, res.partition.vol_s,
            res.partition.vol_sbar, res.partition.ncc) == \
        (swept.cut_weight, swept.vol_s, swept.vol_sbar, swept.ncc), seed
    assert res.partition.ncc == res.trace[-1].threshold_ncc, seed


def test_eig_result_partition_is_the_sweep_of_x(oracle_set_runs):
    for seed, h, res in oracle_set_runs:
        assert_partition_is_the_sweep_of_x(h, res, seed)


def test_certificate_alone_ends_every_restart(monkeypatch):
    # the last step of each restart runs the split max flow and no inner
    # solve, so a restart of `iters` steps makes iters - 1 inner calls
    calls, runs = [0], []
    inner, run = hypercut.solver.inner_tv_solve, hypercut.solver._ipm_run

    def counting_inner(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    def recording_run(*args):
        calls[0] = 0
        res = run(*args)
        runs.append((calls[0], res.iters, res.converged))
        return res

    monkeypatch.setattr(hypercut.solver, "inner_tv_solve", counting_inner)
    monkeypatch.setattr(hypercut.solver, "_ipm_run", recording_run)
    for seed in range(len(PINNED_IPM_RESULTS)):
        h = with_degree_mu(random_instance(seed, n=10, m=6), CLIQUE)
        ipm_second_eigvec(h, CLIQUE, IpmConfig(rng_seed=seed))
    assert len(runs) == 5 * len(PINNED_IPM_RESULTS)
    for count, iters, converged in runs:
        assert converged and count == iters - 1


@pytest.mark.parametrize("spectral_fails", [False, True])
def test_random_restarts_start_at_their_draws_best_sweep_cut(monkeypatch,
                                                             spectral_fails):
    # a random restart starts at the centered indicator of its draw's best
    # sweep cut, so its first trace entry is that cut's NCC, and it runs the
    # certificate before any prox: a start that admits no descent makes no
    # inner call.  Restart 0's random fallback follows the same rule.
    calls, runs = [0], {}
    inner, run = hypercut.solver.inner_tv_solve, hypercut.solver._ipm_run

    def counting_inner(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    def recording_run(*args):
        calls[0] = 0
        res = run(*args)
        runs[res.restart_index] = (calls[0], res)
        return res

    def failing_init(*args):
        raise SolverConvergenceError("no spectral vector")

    monkeypatch.setattr(hypercut.solver, "inner_tv_solve", counting_inner)
    monkeypatch.setattr(hypercut.solver, "_ipm_run", recording_run)
    if spectral_fails:
        monkeypatch.setattr(hypercut.solver, "_spectral_init", failing_init)
    stuck = 0
    for seed in range(len(PINNED_IPM_RESULTS)):
        h = with_degree_mu(random_instance(seed, n=10, m=6), CLIQUE)
        g = expanded(h)
        runs.clear()
        ipm_second_eigvec(h, CLIQUE, IpmConfig(rng_seed=seed))
        seeds = np.random.SeedSequence(seed).spawn(5)
        for i in range(0 if spectral_fails else 1, 5):
            count, res = runs[i]
            draw = np.random.default_rng(seeds[i]).standard_normal(g.n_vertices)
            part = optimal_threshold(draw, h, CLIQUE)
            assert res.trace[0].lam == pytest.approx(part.ncc, rel=1e-12), (seed, i)
            start = _center_normalize(part.side_of.astype(np.float64), g.mu)
            if not snapped_descent(g, median_subgradient(start, g.mu),
                                   res.trace[0].lam):
                stuck += 1
                assert count == 0 and res.iters == 1, (seed, i)
    assert stuck > 0  # both branches are exercised


def test_ipm_rejects_disconnected():
    # the hypergraph is connected, but the clique weight of {1, 2}
    # underflows to zero, so its expansion has two components
    h = EdvwHypergraph(4, [[0, 1], [2, 3], [1, 2]],
                       [[1.0, 1.0], [1.0, 1.0], [1e-200, 1e-200]],
                       [1.0, 1.0, 1.0])
    g = expanded(h)
    assert g.adjacency.nnz == 4
    with pytest.raises(DisconnectedGraphError):
        ipm_second_eigvec(h, CLIQUE, IpmConfig())


def test_eig_result_internally_consistent_and_serializable(h0):
    hd = with_degree_mu(h0, CLIQUE)
    res = ipm_second_eigvec(hd, CLIQUE, IpmConfig())
    assert res.lam >= 0.0
    assert r1_functional(hd, CLIQUE, res.x) == res.lam  # R1 of the iterate
    assert abs(graph_r1(expanded(hd), res.x) - res.lam) <= 1e-10 * res.lam


def test_ipm_deterministic_given_seed(h0):
    hd = with_degree_mu(h0, CLIQUE)
    a = ipm_second_eigvec(hd, CLIQUE, IpmConfig(rng_seed=42))
    b = ipm_second_eigvec(hd, CLIQUE, IpmConfig(rng_seed=42))
    assert np.array_equal(a.x, b.x)
    assert a.lam == b.lam and a.restart_index == b.restart_index


def test_ipm_picks_lowest_index_restart_within_tie_of_best(monkeypatch):
    # the restart of least NCC wins; NCCs within 1e-12 relative are ties,
    # and the lowest index among them wins
    run = hypercut.solver._ipm_run
    h = with_degree_mu(random_instance(0, n=10, m=6), CLIQUE)
    side = np.arange(h.n_vertices) < 5
    for nccs in ([0.5, 0.3 * (1 + 5e-13), 0.3, 0.4], [0.3 * (1 + 2e-12), 0.3]):
        def fixed_run(g, h, spec, x0, index, drawn):
            ncc = nccs[index]
            return EigResult(x0, ncc, 1, True, index, (),
                             Partition(side, ncc, 1.0, 1.0, ncc))

        monkeypatch.setattr(hypercut.solver, "_ipm_run", fixed_run)
        res = ipm_second_eigvec(h, CLIQUE, IpmConfig(n_restarts=len(nccs)))
        assert res.restart_index == 1 and res.partition.ncc == nccs[1], nccs

    # on a real instance the result is the lowest-index recorded outcome
    # within the tie of the least NCC
    h = with_degree_mu(random_instance(1, n=40, m=30), CLIQUE)
    outcomes = []

    def recording_run(*args):
        outcomes.append(run(*args))
        return outcomes[-1]

    monkeypatch.setattr(hypercut.solver, "_ipm_run", recording_run)
    res = ipm_second_eigvec(h, CLIQUE, IpmConfig(n_restarts=4, rng_seed=7))
    best = min(r.partition.ncc for r in outcomes) * (1.0 + 1e-12)
    assert [r.restart_index for r in outcomes] == [0, 1, 2, 3]
    assert res is next(r for r in outcomes if r.partition.ncc <= best)
    assert res.restart_index == 1


# ---------------------------------------------------------------------------
# 2-Laplacian eigensolver
# ---------------------------------------------------------------------------

def test_second_eigvec_2lap_two_path():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    x = second_eigvec_2lap(lap, nullspace=np.ones(2))
    assert np.allclose(np.abs(x), np.array([1.0, 1.0]) / np.sqrt(2.0))
    lam = float(x @ (lap @ x))
    assert lam == pytest.approx(2.0, rel=1e-12)


def test_second_eigvec_2lap_sparse_and_dense_inputs_agree():
    g = expanded(with_degree_mu(random_instance(3, n=12, m=8), CLIQUE))
    lap = sp.diags_array(g.weighted_degrees) - g.adjacency
    ones = np.ones(g.n_vertices)
    assert np.array_equal(second_eigvec_2lap(lap, nullspace=ones),
                          second_eigvec_2lap(lap.toarray(), nullspace=ones))


def test_second_eigvec_2lap_dense_branch_matches_full_eigh():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(rng, n)
        lap = sp.diags_array(g.weighted_degrees) - g.adjacency
        full = np.linalg.eigh(lap.toarray())[1][:, 1]
        x = second_eigvec_2lap(lap, nullspace=np.ones(n))
        assert abs(x @ full) >= 1.0 - 1e-12
    pieces = sp.block_diag([random_connected_graph(rng, 6).adjacency,
                            random_connected_graph(rng, 5).adjacency])
    lap = sp.diags_array(np.asarray(pieces.sum(axis=1)).ravel()) - pieces
    with pytest.raises(DisconnectedGraphError):
        second_eigvec_2lap(lap, nullspace=np.ones(11))


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


def spectral_init_operator(h):
    """`_spectral_init`'s operator and diagonal for the eigensolver, its vector."""
    seen, solve = [], hypercut.solver.second_eigvec_2lap

    def recording(lap, **kwargs):
        seen.append((lap, kwargs["diagonal"]))
        return solve(lap, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypercut.solver, "second_eigvec_2lap", recording)
        x = hypercut.solver._spectral_init(h, CLIQUE, 0)
    return (*seen[0], x)


def test_factored_init_operator_is_the_clique_laplacian():
    # diag(d / mu) - mu^-1/2 A mu^-1/2 of the clique graph, applied from the
    # memberships: no n x n matrix is formed
    for seed in range(20):
        n = 6 + seed
        h = with_degree_mu(random_instance(seed, n=n, m=3 + n // 2), CLIQUE)
        g = expanded(h)
        lap, _, _ = spectral_init_operator(h)
        assert isinstance(lap, spla.LinearOperator)
        inv = 1.0 / np.sqrt(g.mu)
        ref = (np.diag(g.weighted_degrees / g.mu)
               - inv[:, None] * g.adjacency.toarray() * inv[None, :])
        got = lap @ np.eye(n)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), seed


def test_factored_init_lobpcg_path_matches_dense_path(monkeypatch):
    # above DENSE_CAP, LOBPCG applies the factored operator to (n, 1) blocks
    for seed in range(3):
        h = random_instance(seed, n=16, m=9)
        labels = np.arange(16) % 2
        sqrt_mu = np.sqrt(with_degree_mu(h, CLIQUE).mu)
        runs = []
        for cap in (hypercut.solver.DENSE_CAP, 4):
            monkeypatch.setattr(hypercut.solver, "DENSE_CAP", cap)
            _, _, x = spectral_init_operator(with_degree_mu(h, CLIQUE))
            runs.append((sqrt_mu * x, run_method(h, labels, "edvw-1lap")))
        (y_dense, dense), (y_iter, iterative) = runs
        assert np.allclose(y_iter, y_dense, atol=1e-6), seed
        assert np.array_equal(iterative.partition, dense.partition)
        assert iterative.ncc == dense.ncc
        assert iterative.error == dense.error


def eigensolver_operator(kind, h):
    """The operator `kind` hands second_eigvec_2lap on h, and its diagonal."""
    if kind == "rw":
        rwl = build_rw_laplacian(h)
        return rwl.laplacian_operator(), rwl.laplacian_diagonal()
    lap, diagonal, _ = spectral_init_operator(h)
    return lap, diagonal


@pytest.mark.parametrize("kind", ["rw", "clique"])
def test_closed_form_diagonals_match_the_operators(kind):
    # the largest diagonal entry scales the eigensolver: it must be the
    # operator's, and at most its top eigenvalue
    for seed in range(10):
        n = 6 + 3 * seed
        h = with_degree_mu(random_instance(seed, n=n, m=3 + n // 2), CLIQUE)
        lap, diagonal = eigensolver_operator(kind, h)
        dense = lap @ np.eye(n)
        assert np.allclose(diagonal, dense.diagonal(), rtol=1e-12, atol=0.0), seed
        top = np.linalg.eigh(0.5 * (dense + dense.T))[0][-1]
        assert diagonal.max() <= top * (1.0 + 1e-12), seed


def test_a_linear_operator_needs_its_diagonal():
    lap = spla.aslinearoperator(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(TypeError, match="diagonal"):
        second_eigvec_2lap(lap, nullspace=np.ones(2))
    x = second_eigvec_2lap(lap, nullspace=np.ones(2), diagonal=np.ones(2))
    assert np.allclose(np.abs(x), np.array([1.0, 1.0]) / np.sqrt(2.0))


@pytest.mark.parametrize("kind", ["rw", "clique"])
def test_eigensolver_applies_the_operator_only_in_lobpcg(monkeypatch, kind):
    # above DENSE_CAP every product but the one residual check is LOBPCG's:
    # no power loop estimates the operator's scale
    n = 100
    assert n > hypercut.solver.DENSE_CAP
    h = random_instance(3, n=n, m=60)
    calls, inside = [], []
    lobpcg, solve = spla.lobpcg, hypercut.solver.second_eigvec_2lap

    def counting_lobpcg(*args, **kwargs):
        before = len(calls)
        out = lobpcg(*args, **kwargs)
        inside.append(len(calls) - before)
        return out

    def counting_solve(lap, **kwargs):
        def apply(x):
            calls.append(x.shape)
            return lap @ x
        return solve(spla.LinearOperator(lap.shape, matvec=apply, matmat=apply,
                                         dtype=np.float64), **kwargs)

    monkeypatch.setattr(hypercut.solver.spla, "lobpcg", counting_lobpcg)
    if kind == "rw":
        monkeypatch.setattr(hypercut.report, "second_eigvec_2lap", counting_solve)
        run_method(h, None, "rw-2lap")
    else:
        monkeypatch.setattr(hypercut.solver, "second_eigvec_2lap", counting_solve)
        hypercut.solver._spectral_init(with_degree_mu(h, CLIQUE), CLIQUE, 0)
    assert len(inside) == 1 and inside[0] > 0
    assert len(calls) == inside[0] + 1
    assert calls[-1] == (n,)  # the residual check


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


def test_indicator_of_best_level_set_never_raises_r1():
    # each IPM step moves to this indicator in place of the inner solution:
    # its R1 is the NCC of the cut, at most R1 of the vector it came from
    rng = np.random.default_rng(21)
    improving = 0
    for seed in range(100):
        n = int(rng.integers(3, 13))
        g = expanded(with_degree_mu(random_instance(seed, n=n, m=n // 2 + 2),
                                    CLIQUE))
        vectors = [rng.standard_normal(n) for _ in range(4)]
        vectors += [rng.integers(0, 3, n).astype(np.float64)  # tied entries
                    for _ in range(3)]
        x = _center_normalize(rng.standard_normal(n), g.mu)
        for _ in range(3):  # inner solutions along one restart
            inner = inner_tv_solve(g, median_subgradient(x, g.mu),
                                   graph_r1(g, x), x_prev=x)
            if not inner.improved:
                break
            vectors.append(inner.x)
            improving += 1
            x = _center_normalize(inner.x, g.mu)
        for u in vectors:
            if u.min() == u.max():
                continue
            side = graph_threshold_partition(u, g).side_of
            snap = _center_normalize(side.astype(np.float64), g.mu)
            assert graph_r1(g, snap) <= graph_r1(g, u) * (1 + 1e-12), seed
    assert improving >= 100


def test_graph_and_hypergraph_threshold_agree_under_clique():
    rng = np.random.default_rng(13)
    for seed in range(10):
        h = with_degree_mu(random_instance(seed, n=9, m=5), CLIQUE)
        g = expanded(h)
        for x in (rng.standard_normal(9),
                  rng.integers(0, 3, 9).astype(np.float64)):  # tied entries
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
        res = ipm_second_eigvec(h, CLIQUE, IpmConfig(rng_seed=seed))
        # the max-flow certificate ended the restart, not MAX_OUTER_ITERS:
        # the last step added no trace entry
        assert res.converged and len(res.trace) == res.iters
        part = optimal_threshold(res.x, h, CLIQUE)
        h2, _ = exact_h2(h, CLIQUE)
        assert part.ncc >= h2 - 1e-9
        hits += abs(part.ncc - h2) <= 1e-9
    assert hits >= 8


def test_ipm_oracle_hits_hold_on_fixed_set(oracle_set_runs):
    # the instances with n <= 20 among seeds 0-59 of the oracle set; the
    # count is a floor that a change to the restarts must not lower
    hits = scored = 0
    for seed, h, res in oracle_set_runs[:60]:
        if h.n_vertices > 20:
            continue
        ncc = optimal_threshold(res.x, h, CLIQUE).ncc
        h2, _ = exact_h2(h, CLIQUE)
        scored += 1
        hits += abs(ncc - h2) <= 1e-9 * h2
    assert scored == 44
    assert hits >= 26
