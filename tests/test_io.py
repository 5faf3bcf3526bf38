"""Hypergraph file format round-trips and parse failures."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypercut import (EdvwHypergraph, read_hypergraph, with_degree_mu,
                      write_hypergraph)
from hypercut.core import GKind, HKind, SubmodularWeightSpec
from hypercut.datasets import (BinningSpec, CorpusSpec,
                               build_covertype_from_table,
                               build_newsgroups_from_documents)
from hypercut.errors import HypergraphFormatError
from hypercut.io import _parse_text, from_json_dict
from hypercut.oracle import random_instance

from _toydata import bench_inputs


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


#: sha256 of the files written for the two benchmark shapes at alpha = 1; a
#: change to the writer, the builders or the constructor's canonical order
#: that moves a single byte shows here
GOLDEN = {
    ("covertype", ".hg"):
        "8c9f7d9a8a8186fd684d822c5e8f9f5a3ee02b6f4293e0e52be5035359b9f681",
    ("covertype", ".json"):
        "9e516f462841d8654210206876e4af90d7651a666a300e84f2eb6cbfb749318a",
    ("newsgroups", ".hg"):
        "0ef0a36425b1c67812c393951877726aae76fbd33896b893d0b1f97358b984f2",
    ("newsgroups", ".json"):
        "c412ac0207f1f17d06fde383ff646157a4b003444fd028198a928c9b7c8cf4d2",
}


@pytest.mark.parametrize("shape, suffix", sorted(GOLDEN))
def test_bench_shaped_files_are_byte_stable(tmp_path, shape, suffix):
    inputs = bench_inputs()
    if shape == "covertype":
        build = build_covertype_from_table(*inputs.covertype_table(300, 1),
                                           BinningSpec(), 1.0)
    else:
        build = build_newsgroups_from_documents(
            *inputs.newsgroups_corpus(160, 1), CorpusSpec(), 1.0)
    path = tmp_path / f"h{suffix}"
    write_hypergraph(build.hypergraph, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        GOLDEN[shape, suffix]
    same_hypergraph(build.hypergraph, read_hypergraph(path))


# positive finite floats, with the extremes that `repr` must carry exactly
weights = st.floats(min_value=5e-324, max_value=1.7976931348623157e308,
                    allow_nan=False, allow_infinity=False)
extreme_weights = st.sampled_from([
    5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, 1e300,
    0.30000000000000004, 1.0 / 3.0, 123456789.12345679, 1.0])


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(2, 7))
    w = weights | extreme_weights
    # the first hyperedge spans every vertex, so the hypergraph is connected
    edges = [draw(st.permutations(range(n)))]
    for _ in range(draw(st.integers(0, 3))):
        edges.append(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                   max_size=n, unique=True)))
    gammas = [draw(st.lists(w, min_size=len(ms), max_size=len(ms)))
              for ms in edges]
    kappa = draw(st.lists(w, min_size=len(edges), max_size=len(edges)))
    mu = draw(st.none() | st.lists(w, min_size=n, max_size=n))
    return EdvwHypergraph(n, edges, gammas, kappa, mu)


@given(hypergraphs())
def test_write_read_write_is_byte_identical(tmp_path_factory, h):
    d = tmp_path_factory.mktemp("rt")
    for suffix in (".hg", ".json"):
        first, second = d / f"a{suffix}", d / f"b{suffix}"
        write_hypergraph(h, first)
        back = read_hypergraph(first)
        same_hypergraph(h, back)
        write_hypergraph(back, second)
        assert first.read_bytes() == second.read_bytes()


def _edge_file(line: str, n: int) -> str:
    return f"{n} 1\n{line}\n"


BAD_LINE = "line 2: bad hyperedge entry"
TEN = " ".join(f"{v}:1.0" for v in range(10))


@pytest.mark.parametrize("line, n, verdict", [
    ("1.0 1 2:3:4", 3, BAD_LINE),
    ("1.0 0:1.0 1:", 3, BAD_LINE),
    ("1.0 :2", 3, BAD_LINE),
    ("1.0 0:1.0:2", 3, BAD_LINE),
    ("1.0 1.5:1.0", 3, BAD_LINE),
    ("1.0 0x1:1.0", 3, BAD_LINE),
    ("1.0 0 :1.0 1:1.0", 3, BAD_LINE),
    ("1.0 0: 1.0 1:1.0", 3, BAD_LINE),
    ("1.0: 0:1.0 1:1.0", 3, BAD_LINE),
    ("0:1.0 1:1.0", 3, BAD_LINE),
    ("1.0 0:1.0 1:x", 3, BAD_LINE),
    ("1.0 0;1.0 1:1.0", 3, BAD_LINE),
    # parsed, then refused by the constructor, which names the hyperedge
    ("1.0 0:1.0 9223372036854775808:1.0", 3,
     "invalid hypergraph: hyperedge 0 members must be integers within int64"),
    ("1.0 0:1.0", 3,
     "invalid hypergraph: hyperedge 0 has fewer than two members"),
    ("1.0", 3, "invalid hypergraph: hyperedge 0 has fewer than two members"),
    # accepted: any whitespace that str.split() splits on separates entries,
    # and entries are read by Python's int() and float()
    ("1.0\t0:1.0\t1:2.0\t2:3.0", 3, [0, 1, 2]),
    ("1.0 0:1.0\xa01:2.0\u20032:3.0", 3, [0, 1, 2]),
    ("1.0  0:1.0   1:2.0", 2, [0, 1]),
    (f"1.0 {TEN} 1_0:2.0", 11, list(range(11))),
    ("1_0.5 +0:1_0.5 0_1:1e0", 2, [0, 1]),
    ("1.0 -0:1.0 1:1.0", 2, [0, 1]),
    ("1.0 \uff10:1.0 \u0661:\u0661.\u0665", 2, [0, 1]),
    ("  1.0 1:2.0 0:1.0  ", 2, [0, 1]),
])
def test_hyperedge_line_verdicts(line, n, verdict):
    text = _edge_file(line, n)
    if isinstance(verdict, str):
        with pytest.raises(HypergraphFormatError) as exc:
            _parse_text(text)
        assert str(exc.value).startswith(verdict)
        if verdict == BAD_LINE:
            assert str(exc.value) == f"{BAD_LINE} {line.strip()!r}"
        return
    h = _parse_text(text)
    assert h.hyperedges[0].tolist() == verdict


def loop_parse_edge_line(line):
    """(kappa, members, gammas) of a stripped hyperedge line, token by token.

    The reference for the reader's one-split parse: any ValueError here must
    be a "bad hyperedge entry" there.
    """
    toks = line.split()
    kappa = float(toks[0])
    members, gammas = [], []
    for tok in toks[1:]:
        v, g = tok.split(":")
        members.append(int(v))
        gammas.append(float(g))
    return kappa, members, gammas


line_pieces = st.sampled_from([
    "0", "1", "2", "10", "1.5", "-0", "+1", "1_0", "2.0e0", "nan", "inf", "x",
    ":", ":", " ", "  ", "\t", "\xa0", "\u2003", "\u0661", "\uff12", "0:1.0",
    "1:2.5", "2:0.5"])


@given(st.lists(line_pieces, min_size=1, max_size=14).map("".join))
@example("1.0 0:1.0 1:2.0 2:3.0")
@example("1.0 0 1:2:3")
@example("1.0 a b:")
@example("1.0 0 :1 1:1")
def test_edge_line_matches_token_loop(line):
    line = line.strip()
    if not line:
        return
    text = _edge_file(line, 3)
    try:
        kappa, members, gammas = loop_parse_edge_line(line)
    except ValueError:
        with pytest.raises(HypergraphFormatError) as exc:
            _parse_text(text)
        assert str(exc.value) == f"{BAD_LINE} {line!r}"
        return
    try:
        expected = EdvwHypergraph(3, [members], [gammas], [kappa])
    except ValueError as exc:
        with pytest.raises(HypergraphFormatError) as got:
            _parse_text(text)
        assert str(got.value) == f"invalid hypergraph: {exc}"
        return
    same_hypergraph(expected, _parse_text(text))


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


@pytest.mark.parametrize("field, values", [
    ("members", [0, True, 2]), ("gamma", [1.0, True, 3.0]),
    ("kappa", True), ("mu", [1.0, False, 1.0])])
def test_json_booleans_among_numbers_refused(field, values):
    # numpy reads [1.0, true] as [1.0, 1.0]: the reader refuses it first
    obj = {"n_vertices": 3, "mu": None, "hyperedges": [
        {"kappa": 2.5, "members": [0, 1, 2], "gamma": [1.0, 2.0, 3.0]}]}
    (obj if field == "mu" else obj["hyperedges"][0])[field] = values
    with pytest.raises(HypergraphFormatError, match="booleans"):
        from_json_dict(obj)


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
        _parse_text(text)
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
