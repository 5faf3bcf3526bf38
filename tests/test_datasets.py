"""Ingestion pipelines: tokenizing, tf-idf EDVWs, feature binning, kappa rule."""

import gzip
import json

import numpy as np
import pytest

from hypercut.datasets import (BinningSpec, CorpusSpec,
                               build_covertype_from_table,
                               build_covertype_hypergraph,
                               build_newsgroups_from_documents,
                               build_newsgroups_hypergraph,
                               edvw_from_bin_values, fetch_dataset,
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
    assert kappa_from_std([0, 1], [1.0, 1.0], 4) == pytest.approx(0.5,
                                                                  rel=1e-12)
    assert kappa_from_std([0, 1, 2], [1.0, 2.0, 3.0], 3) == \
        pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)


def test_kappa_floor_on_constant_vector(caplog):
    with caplog.at_level("WARNING"):
        out = kappa_from_std([0, 1, 2], [2.0, 2.0, 2.0], 3)
    assert out == 1e-12
    assert any("floored" in r.message for r in caplog.records)


@pytest.mark.parametrize("members_only", [False, True])
def test_kappa_floors_counted_and_warned_once(caplog, members_only):
    # alpha = 0 makes every EDVW vector constant on its members: the
    # members-only rule floors every hyperedge, the all-vertex rule none
    features = np.random.default_rng(5).uniform(0, 1, size=(40, 2))
    labels = np.repeat([0, 1], 20)
    with caplog.at_level("WARNING"):
        build = build_covertype_from_table(
            features, labels, BinningSpec(bins_per_feature=4), 0.0,
            kappa_members_only=members_only)
    m = build.hypergraph.n_hyperedges
    floors = [r.getMessage() for r in caplog.records
              if "floored" in r.getMessage()]
    prov = build.provenance
    if members_only:
        assert (prov["kappa_floored"], prov["kappa_alt_rule_floored"]) == (m, 0)
        assert floors == [f"{m} constant EDVW vectors; kappa floored at 1e-12"]
    else:
        assert (prov["kappa_floored"], prov["kappa_alt_rule_floored"]) == (0, m)
        assert floors == []


def test_kappa_members_only_switch():
    members, values = [0, 1], [1.0, 3.0]
    assert kappa_from_std(members, values, 4, members_only=True) == \
        pytest.approx(1.0, rel=1e-12)
    assert kappa_from_std(members, values, 4, members_only=False) == \
        pytest.approx(np.std([1.0, 3.0, 0.0, 0.0]), rel=1e-12)


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

def test_bin_edvws_hand_values():
    vals = np.array([0.0, 1.0, 2.0, 10.0])  # median 1.5, max distance 8.5
    out = edvw_from_bin_values(vals, alpha=2.0)
    dist = np.abs(vals - 1.5) / 8.5
    assert out == pytest.approx(np.exp(-2.0 * dist), rel=1e-12)


def test_bin_edvws_degenerate_bins():
    assert edvw_from_bin_values([7.0], alpha=3.0).tolist() == [1.0]
    assert edvw_from_bin_values([2.0, 2.0], alpha=3.0).tolist() == [1.0, 1.0]


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
