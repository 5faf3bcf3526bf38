"""CLI subcommands: cluster, sweep, build, fetch, oracle; exit codes; reports."""

import csv
import gzip
import json

import numpy as np
import pytest

from hypercut import write_hypergraph
from hypercut.cli import main
from hypercut.report import clustering_error

from _toydata import make_toy_covertype_file, make_toy_newsgroup_archive


@pytest.fixture
def h0_file(tmp_path, h0):
    path = tmp_path / "h0.hg"
    write_hypergraph(h0, path)
    return path


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# clustering error
# ---------------------------------------------------------------------------

def test_clustering_error_examples():
    side = np.array([True, True, False, False])
    assert clustering_error(side, [1, 1, 0, 0]) == 0.0
    assert clustering_error(side, [0, 0, 1, 1]) == 0.0  # assignment flip
    ten = np.zeros(10, bool)
    ten[:5] = True
    labels = np.array([1] * 5 + [0] * 5)
    labels[0] = 0  # one wrong vertex
    assert clustering_error(ten, labels) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        clustering_error(side, [0, 1])


# ---------------------------------------------------------------------------
# cluster on hypergraph files
# ---------------------------------------------------------------------------

def test_cluster_running_example(h0_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["cluster", "--input", h0_file, "--method", "edvw-1lap",
                "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["ncc"] == pytest.approx(5.0 / 9.0, rel=1e-12)
    assert report["error"] is None
    assert report["converged"] is True
    assert len(report["eigenvector"]) == 3
    assert sorted(set(report["partition"])) == [0, 1]
    assert "timings" not in report  # deterministic by default


def test_cluster_stdout_and_timings_flag(h0_file, capsys):
    assert run(["cluster", "--input", h0_file, "--timings"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["timings"]) == {"setup_s", "solve_s", "threshold_s"}


def test_cluster_reports_are_byte_identical(h0_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["cluster", "--input", h0_file, "--seed", "7", "--out"]
    assert run(argv + [a]) == 0
    assert run(argv + [b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cluster_report_self_contained(h0_file, tmp_path):
    out = tmp_path / "report.json"
    run(["cluster", "--input", h0_file, "--seed", "3", "--restarts", "4",
         "--out", out])
    report = json.loads(out.read_text())
    cfgecho = report["config"]
    out2 = tmp_path / "rerun.json"
    run(["cluster", "--input", h0_file,
         "--method", cfgecho["method"],
         "--mu", cfgecho["mu_mode"],
         "--seed", cfgecho["rng_seed"],
         "--restarts", cfgecho["n_restarts"],
         "--out", out2])
    rerun = json.loads(out2.read_text())
    assert rerun["ncc"] == report["ncc"]
    assert rerun["partition"] == report["partition"]


def test_cluster_export_graph(h0_file, tmp_path):
    mtx = tmp_path / "graph.mtx"
    run(["cluster", "--input", h0_file, "--export-graph", mtx])
    assert mtx.exists()
    assert "symmetric" in mtx.read_text().splitlines()[0]


def test_cluster_export_graph_refused_without_clique_expansion(h0_file, tmp_path):
    mtx = tmp_path / "graph.mtx"
    assert run(["cluster", "--input", h0_file, "--method", "rw-2lap",
                "--export-graph", mtx]) == 2
    assert not mtx.exists()


@pytest.mark.parametrize("text", [
    '{"labels": [0, 1]}',
    '{"labels": [0, 1, 1], "seed"',
    '[1, 2]',
    '{"labels": [0, 1, "x"]}',
    '{"labels": [0, 1, 1.5]}',
    '{"labels": [0, 1, 100000000000000000000]}',
], ids=["short", "truncated", "not-object", "string", "float", "overflow"])
def test_cluster_bad_sidecar_is_data_error(h0_file, text, capsys):
    (h0_file.parent / "h0.hg.provenance.json").write_text(text)
    assert run(["cluster", "--input", h0_file]) == 3
    assert "provenance sidecar" in capsys.readouterr().err


def test_cluster_sidecar_without_labels(h0_file, capsys):
    (h0_file.parent / "h0.hg.provenance.json").write_text('{"seed": 5}')
    assert run(["cluster", "--input", h0_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["error"] is None
    assert report["provenance"]["seed"] == 5


def test_cluster_missing_input_is_data_error(tmp_path):
    assert run(["cluster", "--input", tmp_path / "absent.hg"]) == 3


def test_cluster_non_finite_kappa_is_data_error(tmp_path):
    path = tmp_path / "inf.hg"
    path.write_text("3 1\ninf 0:1.0 1:2.0 2:3.0\n")
    assert run(["cluster", "--input", path]) == 3


@pytest.mark.parametrize("text", [
    "3 1\n1.0 0:1.0 1:2.0 9223372036854775808:3.0\n",  # id 2**63
    "1000000000000 1\n1.0 0:1.0 1:2.0\n",              # 10**12 vertices
], ids=["id-beyond-int64", "vertices-in-no-hyperedge"])
def test_cluster_bad_vertex_ids_and_counts_are_data_errors(tmp_path, text):
    path = tmp_path / "bad.hg"
    path.write_text(text)
    assert run(["cluster", "--input", path]) == 3


def test_unknown_method_is_usage_error(h0_file):
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--input", h0_file, "--method", "nope"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# dataset-backed commands on toy raw data
# ---------------------------------------------------------------------------

@pytest.fixture
def toy_news_dir(tmp_path):
    d = tmp_path / "news"
    make_toy_newsgroup_archive(d)
    return d


@pytest.fixture
def toy_cov_dir(tmp_path):
    d = tmp_path / "cov"
    make_toy_covertype_file(d)
    return d


def test_build_writes_hypergraph_and_provenance(toy_news_dir, tmp_path):
    out = tmp_path / "news.hg"
    assert run(["build", "newsgroups", "--alpha", "1.0",
                "--data-dir", toy_news_dir, "--out", out]) == 0
    sidecar = tmp_path / "news.hg.provenance.json"
    assert out.exists() and sidecar.exists()
    payload = json.loads(sidecar.read_text())
    assert payload["n_vertices"] == 160
    assert len(payload["labels"]) == 160


def test_cluster_on_built_file_uses_sidecar_labels(toy_news_dir, tmp_path):
    out = tmp_path / "news.hg"
    run(["build", "newsgroups", "--alpha", "1.0",
         "--data-dir", toy_news_dir, "--out", out])
    rep_path = tmp_path / "rep.json"
    assert run(["cluster", "--input", out, "--out", rep_path]) == 0
    report = json.loads(rep_path.read_text())
    assert report["error"] is not None
    assert 0.0 <= report["error"] <= 0.5


def test_cluster_dataset_covertype(toy_cov_dir, tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run(["cluster", "--dataset", "covertype", "--alpha", "1.0",
                "--data-dir", toy_cov_dir, "--out", rep_path]) == 0
    report = json.loads(rep_path.read_text())
    # planted classes are far apart: essentially perfect recovery
    assert report["error"] <= 0.05
    assert np.isfinite(report["ncc"]) and np.isfinite(report["lambda"])


def test_sweep_rows_and_alpha_zero_equivalence(toy_news_dir, tmp_path):
    prefix = tmp_path / "sweep"
    assert run(["sweep", "--dataset", "newsgroups", "--data-dir", toy_news_dir,
                "--alphas", "0,0.5,1", "--methods",
                "edvw-1lap,cardinality-1lap", "--out-prefix", prefix]) == 0
    rows_json = json.loads((tmp_path / "sweep.json").read_text())
    assert len(rows_json) == 6  # |alphas| x |methods|
    with open(tmp_path / "sweep.csv") as fh:
        rows_csv = list(csv.DictReader(fh))
    assert len(rows_csv) == len(rows_json)
    for rj, rc in zip(rows_json, rows_csv):
        assert rc["method"] == rj["method"]
        assert float(rc["alpha"]) == rj["alpha"]
        assert float(rc["ncc"]) == pytest.approx(rj["ncc"], rel=1e-15)
        assert float(rc["error"]) == pytest.approx(rj["error"], rel=1e-15)

    by_key = {(r["method"], r["alpha"]): r for r in rows_json}
    base = by_key[("edvw-1lap", 0.0)]
    for alpha in (0.0, 0.5, 1.0):
        flat = by_key[("cardinality-1lap", alpha)]
        assert flat["ncc"] == pytest.approx(base["ncc"], rel=1e-12)
        assert flat["error"] == pytest.approx(base["error"], rel=1e-12)
        assert flat["lambda"] == pytest.approx(base["lambda"], rel=1e-12)


def test_oracle_subcommand(h0_file, capsys):
    assert run(["oracle", "--input", h0_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h2"] == pytest.approx(5.0 / 9.0, rel=1e-12)
    assert out["argmin_block_of_vertex_0"] == [0]


# ---------------------------------------------------------------------------
# fetch
# ---------------------------------------------------------------------------

def test_fetch_with_preplaced_file(toy_news_dir, capsys):
    assert run(["fetch", "newsgroups", "--data-dir", toy_news_dir]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["files"][0]["downloaded"] is False
    assert (toy_news_dir / "digests.json").exists()


def test_fetch_digest_mismatch_exits_3(toy_news_dir):
    run(["fetch", "newsgroups", "--data-dir", toy_news_dir])
    with gzip.open(toy_news_dir / "20news-bydate.tar.gz", "wb") as fh:
        fh.write(b"tampered")
    assert run(["fetch", "newsgroups", "--data-dir", toy_news_dir]) == 3


def test_fetch_offline_download_exits_3(tmp_path):
    # no raw file present and dataset hosts unreachable in the sandbox
    assert run(["fetch", "covertype", "--data-dir", tmp_path / "empty"]) == 3
    assert not (tmp_path / "empty" / "covtype.data.gz").exists()
