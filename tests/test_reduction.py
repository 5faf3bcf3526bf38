"""Clique expansion, graph total variation and cut equivalences."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import hypercut.reduction
from hypercut import (EdvwHypergraph, GKind, HKind, SubmodularWeightSpec,
                      clique_expand, cut_weight, export_matrix_market,
                      graph_cut, graph_total_variation, lovasz_extension)
from hypercut.errors import UnsupportedReductionError
from hypercut.oracle import random_instance


def sum_lovasz(h, spec, x):
    return sum(lovasz_extension(h, spec, e, x) for e in range(h.n_hyperedges))


def test_adjacency_examples(h0, spec_clique):
    g = clique_expand(h0, spec_clique)
    a = g.adjacency.toarray()
    assert a[0, 1] == 2.0 and a[0, 2] == 3.0 and a[1, 2] == 6.0
    assert np.allclose(a, a.T) and np.all(np.diag(a) == 0.0)
    assert g.mu.tolist() == h0.mu.tolist()


def test_disjoint_hyperedges_give_block_diagonal(spec_clique):
    h = EdvwHypergraph(4, [[0, 1], [2, 3]], [[1.0, 2.0], [3.0, 4.0]],
                       [1.0, 1.0], check_connected=False)
    a = clique_expand(h, spec_clique).adjacency.toarray()
    assert a[0, 2] == a[0, 3] == a[1, 2] == a[1, 3] == 0.0
    assert a[0, 1] == 2.0 and a[2, 3] == 12.0


def test_parallel_hyperedges_accumulate(spec_clique):
    h = EdvwHypergraph(2, [[0, 1], [0, 1]], [[1.0, 1.0], [1.0, 1.0]],
                       [2.0, 5.0])
    a = clique_expand(h, spec_clique).adjacency.toarray()
    assert a[0, 1] == 7.0  # kappa1 + kappa2 under h = identity


def test_min_split_has_no_expansion(h0, spec_minsplit):
    with pytest.raises(UnsupportedReductionError):
        clique_expand(h0, spec_minsplit)


def test_total_variation_examples(h0, spec_clique):
    g = clique_expand(h0, spec_clique)
    assert graph_total_variation(g, [3.0, 2.0, 1.0]) == 14.0
    assert graph_total_variation(g, [4.2, 4.2, 4.2]) == 0.0
    pair = clique_expand(
        EdvwHypergraph(2, [[0, 1]], [[1.0, 1.0]], [3.0]), spec_clique)
    assert graph_total_variation(pair, [1.0, 0.0]) == 3.0
    with pytest.raises(ValueError):
        graph_total_variation(g, [1.0, 2.0])


def test_graph_cut_examples(h0, spec_clique):
    g = clique_expand(h0, spec_clique)
    assert graph_cut(g, [0]) == 5.0
    assert graph_cut(g, [2]) == 9.0
    blocks = EdvwHypergraph(4, [[0, 1], [2, 3]], [[1.0, 1.0], [1.0, 1.0]],
                            [1.0, 1.0], check_connected=False)
    gb = clique_expand(blocks, spec_clique)
    assert graph_cut(gb, [0, 1]) == 0.0
    with pytest.raises(ValueError):
        graph_cut(g, [])


def test_clique_identity_on_random_instances():
    # sum of Lovász extensions == graph total variation, both h kinds
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 13))
        m_min = 1 + max(0, -(-(n - 5) // 4))  # chain feasibility at max size 5
        h = random_instance(seed, n=n, m=int(rng.integers(m_min, 7)))
        spec = SubmodularWeightSpec(
            HKind.IDENTITY if seed % 2 else HKind.CONSTANT_ONE, GKind.CLIQUE)
        g = clique_expand(h, spec)
        for _ in range(20):
            x = rng.standard_normal(h.n_vertices)
            lhs = sum_lovasz(h, spec, x)
            rhs = graph_total_variation(g, x)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_cut_equality_on_random_instances():
    for seed in range(15):
        rng = np.random.default_rng(2000 + seed)
        h = random_instance(seed, n=8, m=5)
        spec = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)
        g = clique_expand(h, spec)
        for _ in range(20):
            mask = rng.random(8) < 0.5
            if not mask.any() or mask.all():
                continue
            hcut = cut_weight(h, spec, mask)
            gcut = graph_cut(g, mask)
            assert abs(hcut - gcut) <= 1e-9 * (1.0 + abs(hcut))


def test_expansion_preserves_connectivity_and_count():
    for seed in range(10):
        h = random_instance(seed, n=10, m=6)
        g = clique_expand(h, SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE))
        assert g.n_vertices == h.n_vertices
        ncomp, _ = connected_components(g.adjacency, directed=False)
        assert ncomp == 1


def clique_expand_loop(h, spec) -> sp.csr_array:
    """Reference expansion: h(kappa_e) gamma_e(u) gamma_e(v), pair by pair."""
    rows, cols, vals = [], [], []
    for e, (ms, gs) in enumerate(zip(h.hyperedges, h.gamma)):
        iu, iv = np.triu_indices(ms.size, k=1)
        rows.append(ms[iu])
        cols.append(ms[iv])
        vals.append(spec.h(h.kappa[e]) * gs[iu] * gs[iv])
    upper = sp.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(h.n_vertices, h.n_vertices))
    return (upper + upper.T).tocsr()


def test_clique_expand_matches_loop_reference():
    # overlapping hyperedges, wide gamma and kappa ranges, and a vertex in
    # no hyperedge (an empty row and no diagonal entry to remove)
    instances = [random_instance(seed, n=4 + seed % 9, m=2 + seed % 6,
                                 gamma_range=(0.01, 100.0),
                                 kappa_range=(0.01, 100.0), max_size=6)
                 for seed in range(40)]
    instances.append(EdvwHypergraph(5, [[0, 1, 2], [1, 3], [0, 1, 3]],
                                    [[1.0, 2.0, 3.0], [0.5, 4.0], [3.0, 1.0, 7.0]],
                                    [1.0, 2.5, 0.3], check_connected=False))
    for h in instances:
        for h_kind in (HKind.IDENTITY, HKind.CONSTANT_ONE):
            spec = SubmodularWeightSpec(h_kind, GKind.CLIQUE)
            got = clique_expand(h, spec).adjacency
            ref = clique_expand_loop(h, spec)
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.all(np.abs(got.data - ref.data) <= 1e-15 * ref.data)


def test_pair_budget_warning(h0, spec_clique, caplog, monkeypatch):
    monkeypatch.setattr(hypercut.reduction, "DEFAULT_PAIR_BUDGET", 1)
    with caplog.at_level("WARNING"):
        clique_expand(h0, spec_clique)
    assert any("pairs" in r.message for r in caplog.records)
    # one hyperedge of 3 members and one of 2: 3 + 1 pairs
    h = EdvwHypergraph(4, [[0, 1, 2], [2, 3]], [[1.0, 1.0, 1.0], [1.0, 1.0]],
                       [1.0, 1.0])
    caplog.clear()
    monkeypatch.setattr(hypercut.reduction, "DEFAULT_PAIR_BUDGET", 4)
    with caplog.at_level("WARNING"):
        clique_expand(h, spec_clique)
    assert not caplog.records
    monkeypatch.setattr(hypercut.reduction, "DEFAULT_PAIR_BUDGET", 3)
    with caplog.at_level("WARNING"):
        clique_expand(h, spec_clique)
    assert [r.getMessage().split()[3] for r in caplog.records] == ["4"]


def test_matrix_market_export(tmp_path, h0, spec_clique):
    g = clique_expand(h0, spec_clique)
    path = tmp_path / "graph.mtx"
    export_matrix_market(g, path)
    import scipy.io
    back = scipy.io.mmread(path).toarray()
    assert np.allclose(back, g.adjacency.toarray())
    assert "symmetric" in path.read_text().splitlines()[0]
