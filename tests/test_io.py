"""Hypergraph file format round-trips and parse failures."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypercut import read_hypergraph, with_degree_mu, write_hypergraph
from hypercut.core import GKind, HKind, SubmodularWeightSpec
from hypercut.errors import HypergraphFormatError
from hypercut.io import _parse_text, from_json_dict
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


# ---------------------------------------------------------------------------
# fuzzing: malformed input may only raise HypergraphFormatError
# ---------------------------------------------------------------------------

BIG = 2 ** 70
small_ints = st.integers(-2, 12)
ints = small_ints | st.integers(-BIG, BIG)
numbers = ints | st.floats() | st.floats(-1.0, 12.0)

int_tokens = ints.map(str)
float_tokens = st.floats().map(repr) | int_tokens
junk = st.text(alphabet=" :#\n0123456789.-+eainfmu", max_size=12)
entry = st.tuples(int_tokens | junk, float_tokens | junk).map(":".join)
edge_line = st.tuples(float_tokens, st.lists(entry, max_size=5)).map(
    lambda t: " ".join([t[0], *t[1]]))
mu_line = st.lists(float_tokens, max_size=6).map(
    lambda t: " ".join(["mu", *t]))
text_docs = st.tuples(
    st.tuples(int_tokens, int_tokens).map(" ".join) | junk,
    st.lists(edge_line | junk, max_size=5),
    st.lists(mu_line | junk, max_size=2),
).map(lambda t: "\n".join([t[0], *t[1], *t[2]]))


@given(text_docs | st.text(max_size=40))
@example("3 1\n1.0 0:1.0 1:1.0 9223372036854775808:1.0\n")  # id 2**63
@example("1000000000000 1\n1.0 0:1.0 1:1.0\n")  # vertices in no hyperedge
def test_text_reader_raises_only_format_errors(text):
    try:
        _parse_text(text, check_connected=True)
    except HypergraphFormatError:
        pass


json_leaves = st.none() | st.booleans() | numbers | st.text(max_size=4)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
json_edges = st.fixed_dictionaries({
    "kappa": numbers,
    "members": st.lists(small_ints | numbers, max_size=5),
    "gamma": st.lists(numbers, max_size=5),
})
json_docs = st.fixed_dictionaries(
    {"n_vertices": small_ints | numbers,
     "hyperedges": st.lists(json_edges | json_values, max_size=4)},
    optional={"mu": st.none() | st.lists(numbers, max_size=8) | json_values})


def json_doc(n, *members):
    return {"n_vertices": n,
            "hyperedges": [{"kappa": 1.0, "members": list(ms),
                            "gamma": [1.0] * len(ms)} for ms in members]}


@given(json_docs | json_values)
@example(json_doc(2.5, [0, 1]))
@example(json_doc(2, [0.5, 1]))
@example(json_doc(3, [0, 1, 2 ** 63]))
@example(json_doc(10 ** 12, [0, 1]))
@example({"n_vertices": 2, "hyperedges": [
    {"kappa": 1.0, "members": [0, 1], "gamma": [2 ** 1100, 1.0]}]})
def test_json_reader_raises_only_format_errors(obj):
    try:
        h = from_json_dict(obj)
    except HypergraphFormatError:
        return
    # whatever is accepted is kept as written, never truncated
    assert h.n_vertices == obj["n_vertices"]
    for ms, edge in zip(h.hyperedges, obj["hyperedges"]):
        assert ms.tolist() == sorted(edge["members"])
