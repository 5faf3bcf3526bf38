"""Ingestion pipelines: tokenizing, tf-idf EDVWs, feature binning, kappa rule."""

import gzip
import json
from collections import Counter

import numpy as np
import pytest

from hypercut.baselines import cardinality_variant
import hypercut.datasets
from hypercut.datasets import (KAPPA_FLOOR, BinningSpec, CorpusSpec,
                               build_covertype_from_table,
                               build_covertype_hypergraph,
                               build_newsgroups_from_documents,
                               build_newsgroups_hypergraph, fetch_dataset,
                               kappa_from_std, tokenize)
from hypercut.errors import DataIngestError

from _toydata import make_toy_covertype_file, make_toy_newsgroup_archive


def loose_spec(**overrides) -> CorpusSpec:
    base = dict(vocab_size=10, max_doc_frac=0.95, min_doc_frac=0.01,
                min_words_per_doc=1)
    base.update(overrides)
    return CorpusSpec(**base)


# ---------------------------------------------------------------------------
# kappa rule
# ---------------------------------------------------------------------------

def test_kappa_from_std_hand_values():
    kappa = kappa_from_std(np.array([0, 1, 0, 1, 2]),
                           np.array([1.0, 1.0, 1.0, 2.0, 3.0]), [2, 3], 4)
    assert kappa[0] == pytest.approx(0.5, rel=1e-12)  # (1, 1, 0, 0)
    assert kappa[1] == pytest.approx(np.std([1.0, 2.0, 3.0, 0.0]), rel=1e-12)
    kappa = kappa_from_std(np.arange(3), np.array([1.0, 2.0, 3.0]), [3], 3)
    assert kappa[0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)


def loop_kappa(hyperedges, gammas, n):
    """The kappa rule one hyperedge at a time, over a dense vector each."""
    std = []
    for ms, gs in zip(hyperedges, gammas):
        dense = np.zeros(n)
        dense[ms] = gs
        std.append(dense.std())
    return np.maximum(std, KAPPA_FLOOR)


@pytest.mark.parametrize("block", [1 << 17, 7, 1])
def test_kappa_from_std_matches_loop_reference(monkeypatch, block):
    # small blocks split the hyperedges over several dense blocks
    monkeypatch.setattr(hypercut.datasets, "_DENSE_BLOCK", block)
    rng = np.random.default_rng(3)
    for n in (2, 5, 40, 300):
        edges = [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                 for _ in range(int(rng.integers(1, 9)))]
        gammas = [rng.lognormal(0.0, 2.0, size=ms.size) for ms in edges]
        expected = loop_kappa(edges, gammas, n)
        kappa = kappa_from_std(np.concatenate(edges), np.concatenate(gammas),
                               [ms.size for ms in edges], n)
        assert np.array_equal(kappa, expected)


def test_kappa_floor_on_constant_vector(caplog):
    with caplog.at_level("WARNING"):
        out = kappa_from_std(np.arange(3), np.full(3, 2.0), [3], 3)
    assert out.tolist() == [1e-12]
    assert any("floored" in r.message for r in caplog.records)


def test_kappa_floors_counted_and_warned_once(caplog):
    # alpha = 0 makes every EDVW vector constant on its members, yet over all
    # vertices only a hyperedge that spans them all is constant: here the
    # one bin of each of the two constant features
    rng = np.random.default_rng(5)
    features = np.column_stack([rng.uniform(0, 1, size=(40, 2)),
                                np.full(40, 3.0), np.full(40, -1.0)])
    labels = np.repeat([0, 1], 20)
    spec = BinningSpec(bins_per_feature=4)

    def floor_warnings():
        return [r.getMessage() for r in caplog.records
                if "floored" in r.getMessage()]

    with caplog.at_level("WARNING"):
        build = build_covertype_from_table(features[:, :2], labels, spec, 0.0)
    assert build.provenance["kappa_rule"] == "all-vertex-std"
    assert build.provenance["kappa_floored"] == 0
    assert floor_warnings() == []

    with caplog.at_level("WARNING"):
        build = build_covertype_from_table(features, labels, spec, 0.0)
    h = build.hypergraph
    assert build.provenance["kappa_floored"] == 2
    assert np.count_nonzero(h.kappa == 1e-12) == 2
    assert floor_warnings() == ["2 constant EDVW vectors; kappa floored at 1e-12"]

    # the cardinality variant recomputes kappa by the same rule and warns once
    caplog.clear()
    with caplog.at_level("WARNING"):
        flat = cardinality_variant(h, recompute_kappa_std=True)
    assert np.array_equal(flat.kappa, h.kappa)  # alpha = 0 EDVWs are all one
    assert floor_warnings() == ["2 constant EDVW vectors; kappa floored at 1e-12"]


# ---------------------------------------------------------------------------
# tokenizer and document pipeline
# ---------------------------------------------------------------------------

def test_tokenize():
    assert tokenize("Don't ride; 2 bikes can CRASH!") == \
        ["don", "ride", "bikes", "can", "crash"]


def test_newsgroups_toy_tfidf_by_hand():
    docs = [["shared", "shared", "alpha"],
            ["shared", "beta"],
            ["shared", "link"],
            ["link", "gamma", "gamma"]]
    labels = [0, 0, 1, 1]
    for alpha in (1.0, 0.5, 2.0):
        build = build_newsgroups_from_documents(
            docs, labels, loose_spec(stopwords=frozenset()), alpha)
        h = build.hypergraph
        # singleton-df words drop as degenerate hyperedges
        assert h.n_vertices == 4 and h.n_hyperedges == 2
        by_members = {tuple(ms.tolist()): gs for ms, gs in
                      zip(h.hyperedges, h.gamma)}
        l_shared, l_link = np.log(4.0 / 3.0), np.log(2.0)
        shared = by_members[(0, 1, 2)]
        assert shared == pytest.approx(
            [(2 * l_shared) ** alpha, l_shared ** alpha, l_shared ** alpha],
            rel=1e-12)
        assert by_members[(2, 3)] == pytest.approx(
            [l_link ** alpha, l_link ** alpha], rel=1e-12)
        if alpha == 1.0:
            e_shared = list(by_members).index((0, 1, 2))
            dense = np.zeros(4)
            dense[[0, 1, 2]] = shared
            assert h.kappa[e_shared] == pytest.approx(dense.std(), rel=1e-12)


def test_newsgroups_alpha_zero_gives_unit_edvws():
    docs = [["shared", "shared", "alpha"],
            ["shared", "beta"],
            ["shared", "link"],
            ["link", "gamma", "gamma"]]
    build = build_newsgroups_from_documents(
        docs, [0, 0, 1, 1], loose_spec(stopwords=frozenset()), alpha=0.0)
    assert all(np.all(gs == 1.0) for gs in build.hypergraph.gamma)


def test_newsgroups_member_order_alpha_invariant():
    docs = [["a", "a", "a", "b"], ["a", "b", "b"], ["a", "b", "c", "c"],
            ["c", "b"]]
    spec = loose_spec(stopwords=frozenset())
    orders = []
    for alpha in (0.5, 1.0, 2.0):
        b = build_newsgroups_from_documents(docs, [0, 0, 1, 1], spec, alpha)
        orders.append([np.argsort(gs).tolist() for gs in b.hypergraph.gamma])
    assert orders[0] == orders[1] == orders[2]


def test_newsgroups_tfidf_matches_scalar_arithmetic():
    # every EDVW is (count * ln(N / df)) ** alpha in numpy scalars, exactly
    rng = np.random.default_rng(11)
    words = [f"w{chr(97 + i)}" for i in range(12)]
    spec = loose_spec(vocab_size=9, min_words_per_doc=2,
                      stopwords=frozenset({"wa"}))
    for alpha in (0.25, 1.0, 1.5):
        docs = [list(rng.choice(words, size=int(rng.integers(2, 12))))
                for _ in range(30)]
        build = build_newsgroups_from_documents(docs, [0] * 30, spec, alpha)
        assert build.provenance["n_components_before_restrict"] == 1
        vocab = build.provenance["vocabulary"]
        counts = [Counter(w for w in doc if w in vocab) for doc in docs]
        kept = [c for c in counts if len(c) >= 2]
        df = Counter(w for c in kept for w in c)
        edges = []
        for w in vocab:
            entries = [(d, (c[w] * np.log(len(kept) / np.float64(df[w])))
                        ** alpha) for d, c in enumerate(kept) if w in c]
            entries = [(d, g) for d, g in entries if g > 0.0]
            if len(entries) >= 2:
                edges.append(entries)
        h = build.hypergraph
        assert h.n_hyperedges == len(edges)
        for ms, gs, entries in zip(h.hyperedges, h.gamma, edges):
            assert ms.tolist() == [d for d, _ in entries]
            assert gs.tolist() == [float(g) for _, g in entries]


def test_newsgroups_stopwords_and_doc_filter():
    docs = [["the", "ride", "fast"], ["ride", "fast"], ["ride", "slow"],
            ["slow", "fast"]]
    spec = loose_spec(min_words_per_doc=2)  # default stopwords drop "the"
    build = build_newsgroups_from_documents(docs, [0, 0, 1, 1], spec, 1.0)
    vocab = set(build.provenance["vocabulary"])
    assert "the" not in vocab
    assert build.provenance["n_documents_retained"] == 4


def test_newsgroups_degenerate_corpus_raises():
    docs = [["w"], ["w"], ["w"]]  # idf = 0 for the only word
    with pytest.raises(DataIngestError):
        build_newsgroups_from_documents(docs, [0, 0, 1],
                                        loose_spec(stopwords=frozenset()), 1.0)


def test_newsgroups_toy_archive_end_to_end(tmp_path):
    make_toy_newsgroup_archive(tmp_path)
    build = build_newsgroups_hypergraph(tmp_path, CorpusSpec(), alpha=1.0)
    h = build.hypergraph
    assert h.n_vertices == 160          # every toy document survives
    assert h.n_hyperedges == 100        # full planted vocabulary
    assert set(build.labels.tolist()) == {0, 1}
    assert build.provenance["n_components_before_restrict"] == 1
    build0 = build_newsgroups_hypergraph(tmp_path, CorpusSpec(), alpha=0.0)
    assert all(np.all(gs == 1.0) for gs in build0.hypergraph.gamma)


def test_newsgroups_missing_archive(tmp_path):
    with pytest.raises(DataIngestError):
        build_newsgroups_hypergraph(tmp_path / "nowhere", CorpusSpec(), 1.0)


# ---------------------------------------------------------------------------
# covertype pipeline
# ---------------------------------------------------------------------------

def loop_bins(features, bins, alpha):
    """Non-empty bins as (members, EDVWs), one feature and bin at a time."""
    out = []
    for col in np.asarray(features, dtype=np.float64).T:
        lo, hi = float(col.min()), float(col.max())
        if hi > lo:
            idx = np.minimum(((col - lo) / ((hi - lo) / bins)).astype(np.int64),
                             bins - 1)
        else:
            idx = np.zeros(col.size, dtype=np.int64)
        for b in range(bins):
            members = np.flatnonzero(idx == b)
            if members.size:
                d = np.abs(col[members] - np.median(col[members]))
                dmax = float(d.max())
                d = d / dmax if dmax > 0.0 else np.zeros_like(d)
                out.append((members, np.exp(-alpha * d)))
    return out


def test_bin_edvws_hand_values():
    # feature 0: bins {0, 1, 2, 10} (median 1.5, max distance 8.5) and
    # {30, 31}; feature 1 is constant, one bin of EDVWs one
    features = np.array([[0.0, 1.0, 2.0, 10.0, 30.0, 31.0], [4.0] * 6]).T
    build = build_covertype_from_table(features, np.zeros(6, dtype=int),
                                       BinningSpec(bins_per_feature=2), 2.0)
    h = build.hypergraph
    assert [ms.tolist() for ms in h.hyperedges] == \
        [[0, 1, 2, 3], [4, 5], list(range(6))]
    dist = np.abs(features[:4, 0] - 1.5) / 8.5
    assert h.gamma[0] == pytest.approx(np.exp(-2.0 * dist), rel=1e-12)
    assert h.gamma[1] == pytest.approx([np.exp(-2.0)] * 2, rel=1e-12)
    assert h.gamma[2].tolist() == [1.0] * 6


def test_bin_edvws_degenerate_bins():
    # a bin whose values all coincide has EDVWs one at any alpha; a bin of
    # one row is dropped as a degenerate hyperedge
    features = np.array([[2.0, 2.0, 2.0, 20.0], [5.0] * 4]).T
    build = build_covertype_from_table(features, np.zeros(4, dtype=int),
                                       BinningSpec(bins_per_feature=2), 3.0)
    h = build.hypergraph
    assert [ms.tolist() for ms in h.hyperedges] == [[0, 1, 2], [0, 1, 2, 3]]
    assert [gs.tolist() for gs in h.gamma] == [[1.0] * 3, [1.0] * 4]
    assert build.provenance["dropped_degenerate_hyperedges"] == 1


@pytest.mark.parametrize("seed", range(6))
def test_covertype_bins_match_loop_reference(seed):
    # ties, a constant feature, single-member and empty bins, odd and even
    # bin sizes; the constant last feature keeps every row connected
    rng = np.random.default_rng(seed)
    n, bins = int(rng.integers(2, 60)), int(rng.integers(2, 9))
    features = np.column_stack([
        rng.normal(size=n), np.round(rng.normal(size=n), 1),
        rng.exponential(size=n) * 10.0 ** int(rng.integers(-3, 4)),
        np.full(n, 7.0)])
    alpha = float(rng.choice([0.0, 0.25, 1.0, 1.5]))
    build = build_covertype_from_table(features, np.zeros(n, dtype=int),
                                       BinningSpec(bins_per_feature=bins),
                                       alpha)
    ref = [(ms, gs) for ms, gs in loop_bins(features, bins, alpha)
           if ms.size >= 2]
    h = build.hypergraph
    assert h.n_vertices == n and h.n_hyperedges == len(ref)
    for ms, gs, (ref_ms, ref_gs) in zip(h.hyperedges, h.gamma, ref):
        assert ms.tolist() == ref_ms.tolist()
        assert gs.tolist() == ref_gs.tolist()
    assert np.array_equal(h.kappa, loop_kappa([m for m, _ in ref],
                                              [g for _, g in ref], n))
    assert build.provenance["empty_bins"] == \
        4 * bins - len(loop_bins(features, bins, alpha))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
def test_covertype_non_finite_features_refused(value):
    features = np.ones((4, 2))
    features[2, 1] = value
    features[3, 1] = -1e308  # with 1e308, a range beyond the float range
    with pytest.raises(DataIngestError, match="finite"):
        build_covertype_from_table(features, np.zeros(4, dtype=int),
                                   BinningSpec(), 1.0)


def test_covertype_equal_width_binning_by_hand():
    # 0,0,1,1,...,19,19,20: width-1 bins, the max value joins the last bin
    col = np.concatenate([np.repeat(np.arange(20, dtype=float), 2), [20.0]])
    features = np.stack([col, np.zeros(41)], axis=1)  # constant second feature
    labels = np.array([0] * 20 + [1] * 21)
    build = build_covertype_from_table(features, labels,
                                       BinningSpec(bins_per_feature=20), 1.0)
    h = build.hypergraph
    sizes = sorted(ms.size for ms in h.hyperedges)
    assert sizes == [2] * 19 + [3, 41]   # 19 pair bins, {19,19,20}, constant bin
    top = next(ms for ms in h.hyperedges if ms.size == 3)
    assert col[top].tolist() == [19.0, 19.0, 20.0]
    assert build.provenance["n_vertices"] == 41


def test_covertype_alpha_monotonicity():
    features, labels = np.random.default_rng(5).uniform(
        0, 1, size=(40, 2)), np.zeros(40, dtype=int)
    labels[20:] = 1
    prev = None
    for alpha in (0.0, 0.5, 1.0, 2.0):
        b = build_covertype_from_table(features, labels,
                                       BinningSpec(bins_per_feature=4), alpha)
        gam = np.concatenate([gs for gs in b.hypergraph.gamma])
        if prev is not None:
            assert np.all(gam <= prev + 1e-12)
        prev = gam
        if alpha == 0.0:
            assert np.all(gam == 1.0)


def test_covertype_toy_file_end_to_end(tmp_path):
    make_toy_covertype_file(tmp_path)
    build = build_covertype_hypergraph(tmp_path, BinningSpec(), alpha=1.0)
    h = build.hypergraph
    assert h.n_vertices == 600          # other-class rows filtered out
    assert build.labels.sum() == 240    # class 5 mapped to 1
    assert h.n_hyperedges <= 200
    assert build.provenance["pipeline"] == "covertype"


def test_covertype_missing_file(tmp_path):
    with pytest.raises(DataIngestError):
        build_covertype_hypergraph(tmp_path, BinningSpec(), 1.0)


def test_largest_component_restriction_logged():
    # two feature blocks that never co-occur force two components
    features = np.array([[0.0], [0.1], [5.0], [5.1], [5.2]])
    labels = np.array([0, 0, 1, 1, 1])
    build = build_covertype_from_table(features, labels,
                                       BinningSpec(bins_per_feature=2), 1.0)
    assert build.provenance["n_components_before_restrict"] == 2
    assert build.hypergraph.n_vertices == 3
    assert build.labels.tolist() == [1, 1, 1]


def test_largest_component_tie_keeps_smallest_vertex():
    # two equally large components; the one holding vertex 0 is kept
    features = np.array([[5.0], [0.0], [5.1], [0.1]])
    labels = np.array([0, 1, 2, 3])
    build = build_covertype_from_table(features, labels,
                                       BinningSpec(bins_per_feature=2), 1.0)
    assert build.provenance["n_components_before_restrict"] == 2
    assert build.hypergraph.n_vertices == 2
    assert build.labels.tolist() == [0, 2]


# ---------------------------------------------------------------------------
# fetch bookkeeping (no network: files are pre-placed or absent)
# ---------------------------------------------------------------------------

def test_fetch_records_digests_and_is_idempotent(tmp_path):
    make_toy_newsgroup_archive(tmp_path)
    rec1 = fetch_dataset("newsgroups", tmp_path)
    assert not rec1["files"][0]["downloaded"]
    digests = json.loads((tmp_path / "digests.json").read_text())
    assert digests["20news-bydate.tar.gz"] == rec1["files"][0]["sha256"]
    rec2 = fetch_dataset("newsgroups", tmp_path)
    assert rec2 == rec1


def test_fetch_detects_corruption(tmp_path):
    make_toy_newsgroup_archive(tmp_path)
    fetch_dataset("newsgroups", tmp_path)
    with gzip.open(tmp_path / "20news-bydate.tar.gz", "wb") as fh:
        fh.write(b"tampered")
    with pytest.raises(DataIngestError):
        fetch_dataset("newsgroups", tmp_path)


def test_fetch_unknown_dataset(tmp_path):
    with pytest.raises(ValueError):
        fetch_dataset("nope", tmp_path)
