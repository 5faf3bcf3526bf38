"""Exhaustive small-instance ground truth and the seeded instance generator."""

import numpy as np
import pytest

from hypercut import (EdvwHypergraph, GKind, HKind, SubmodularWeightSpec,
                      clique_expand, evaluate_partition, exact_h2, graph_cut,
                      random_instance, with_degree_mu)

CLIQUE = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)


def test_exact_h2_running_example(h0):
    hd = with_degree_mu(h0, CLIQUE)
    h2, part = exact_h2(hd, CLIQUE)
    assert h2 == pytest.approx(5.0 / 9.0, rel=1e-15)
    assert sorted(part.block(part.side_of[0])) == [0]


def test_exact_h2_finds_planted_split():
    edges = [[0, 1, 2], [1, 2, 0], [3, 4, 5], [4, 5, 3], [2, 3]]
    gams = [[1.0] * len(e) for e in edges]
    kaps = [4.0, 4.0, 4.0, 4.0, 0.1]
    h = with_degree_mu(EdvwHypergraph(6, edges, gams, kaps), CLIQUE)
    h2, part = exact_h2(h, CLIQUE)
    planted = np.zeros(6, bool)
    planted[:3] = True
    assert part.canonical_key() == planted.tobytes()
    assert h2 == pytest.approx(evaluate_partition(h, CLIQUE, planted).ncc, rel=1e-12)


def test_exact_h2_minimality_and_self_consistency():
    rng = np.random.default_rng(1)
    for seed in range(8):
        h = with_degree_mu(random_instance(seed, n=8, m=5), CLIQUE)
        h2, part = exact_h2(h, CLIQUE)
        recomputed = evaluate_partition(h, CLIQUE, part.side_of).ncc
        assert abs(h2 - recomputed) <= 1e-12 * max(1.0, h2)
        for _ in range(25):
            mask = rng.random(8) < 0.5
            if not mask.any() or mask.all():
                continue
            assert h2 <= evaluate_partition(h, CLIQUE, mask).ncc + 1e-12


def test_exact_h2_agrees_with_graph_enumeration():
    # under the clique profile the same minimum arises from graph cuts
    for seed in range(6):
        h = with_degree_mu(random_instance(seed, n=8, m=5), CLIQUE)
        g = clique_expand(h, CLIQUE)
        h2, _ = exact_h2(h, CLIQUE)
        best = np.inf
        voltot = float(g.mu.sum())
        for bits in range(1, 1 << (h.n_vertices - 1)):
            mask = np.zeros(h.n_vertices, bool)
            for v in range(1, h.n_vertices):
                mask[v] = bits >> (v - 1) & 1
            vol = float(g.mu @ mask)
            best = min(best, graph_cut(g, mask) / min(vol, voltot - vol))
        assert abs(h2 - best) <= 1e-9 * max(1.0, h2)


def test_exact_h2_refuses_large_instances():
    h = random_instance(0, n=21, m=12)
    with pytest.raises(ValueError):
        exact_h2(h, CLIQUE)  # MAX_EXACT_VERTICES is 20


def test_random_instance_deterministic():
    a = random_instance(123, n=10, m=6)
    b = random_instance(123, n=10, m=6)
    assert a.n_vertices == b.n_vertices
    assert np.array_equal(a.kappa, b.kappa)
    for ea, eb, ga, gb in zip(a.hyperedges, b.hyperedges, a.gamma, b.gamma):
        assert np.array_equal(ea, eb) and np.array_equal(ga, gb)
    c = random_instance(124, n=10, m=6)
    assert not all(np.array_equal(ea, ec)
                   for ea, ec in zip(a.hyperedges, c.hyperedges)) \
        or not np.array_equal(a.kappa, c.kappa)


def test_random_instance_satisfies_invariants():
    for seed in range(25):
        h = random_instance(seed, n=12, m=7)
        # construction validates positivity, sizes and connectivity
        assert h.n_vertices == 12 and h.n_hyperedges == 7
        assert all(ms.size >= 2 for ms in h.hyperedges)
        covered = set()
        for ms in h.hyperedges:
            covered.update(int(v) for v in ms)
        assert covered == set(range(12))


def test_random_instance_infeasible_budget():
    with pytest.raises(ValueError):
        random_instance(0, n=20, m=2, max_size=4)
