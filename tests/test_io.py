"""Hypergraph file format round-trips and parse failures."""

import numpy as np
import pytest

from hypercut import read_hypergraph, with_degree_mu, write_hypergraph
from hypercut.core import GKind, HKind, SubmodularWeightSpec
from hypercut.errors import HypergraphFormatError
from hypercut.oracle import random_instance


def same_hypergraph(a, b):
    assert a.n_vertices == b.n_vertices
    assert a.n_hyperedges == b.n_hyperedges
    assert np.array_equal(a.kappa, b.kappa)
    assert np.array_equal(a.mu, b.mu)
    for ea, eb, ga, gb in zip(a.hyperedges, b.hyperedges, a.gamma, b.gamma):
        assert np.array_equal(ea, eb)
        assert np.array_equal(ga, gb)


@pytest.mark.parametrize("suffix", [".hg", ".json"])
def test_round_trip(tmp_path, suffix):
    for seed in range(5):
        h = random_instance(seed, n=9, m=6)
        if seed % 2:
            h = with_degree_mu(h, SubmodularWeightSpec(HKind.IDENTITY,
                                                       GKind.CLIQUE))
        path = tmp_path / f"h{seed}{suffix}"
        write_hypergraph(h, path)
        same_hypergraph(h, read_hypergraph(path))


def test_text_format_shape(tmp_path, h0):
    path = tmp_path / "h0.hg"
    write_hypergraph(h0, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "3 1"
    assert lines[1].split()[0] == "1.0"
    assert lines[1].split()[1:] == ["0:1.0", "1:2.0", "2:3.0"]
    assert len(lines) == 2  # all-ones mu stays implicit


def test_text_format_comments_and_mu(tmp_path):
    path = tmp_path / "h.hg"
    path.write_text("# comment\n3 1\n2.0 0:1.0 1:2.0 2:3.0\nmu 4.0 5.0 6.0\n")
    h = read_hypergraph(path)
    assert h.mu.tolist() == [4.0, 5.0, 6.0]
    assert h.kappa.tolist() == [2.0]


@pytest.mark.parametrize("text", [
    "",                                   # empty
    "x y\n",                              # bad header
    "3 2\n1.0 0:1.0 1:1.0\n",             # missing hyperedge line
    "3 1\n1.0 0:1.0 1;2.0\n",             # bad member token
    "3 1\n1.0 0:1.0 1:2.0\nxx 1 2 3\n",   # bad trailing section
    "3 1\n1.0 0:1.0 5:2.0\n",             # out-of-range vertex
])
def test_parse_errors(tmp_path, text):
    path = tmp_path / "bad.hg"
    path.write_text(text)
    with pytest.raises(HypergraphFormatError):
        read_hypergraph(path)


@pytest.mark.parametrize("text", [
    "3 1\ninf 0:1.0 1:2.0 2:3.0\n",        # infinite kappa
    "3 1\n1.0 0:1.0 1:inf 2:3.0\n",        # infinite gamma
    "3 1\n1.0 0:1.0 1:2.0 2:3.0\nmu 1.0 inf 1.0\n",  # infinite mu
], ids=["kappa", "gamma", "mu"])
def test_non_finite_weights_rejected(tmp_path, text):
    path = tmp_path / "inf.hg"
    path.write_text(text)
    with pytest.raises(HypergraphFormatError, match="finite"):
        read_hypergraph(path)


def test_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(HypergraphFormatError):
        read_hypergraph(path)
    path.write_text('{"n_vertices": 3}')
    with pytest.raises(HypergraphFormatError):
        read_hypergraph(path)


def test_missing_file(tmp_path):
    with pytest.raises(HypergraphFormatError):
        read_hypergraph(tmp_path / "absent.hg")
