"""CLI subcommands: cluster, sweep, build, fetch, oracle; exit codes; reports."""

import csv
import gzip
import json
import logging
import os
import subprocess
import sys
import urllib.error
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import hypercut.cli
import hypercut.datasets
from hypercut import (EdvwHypergraph, GKind, HKind, IpmConfig,
                      SubmodularWeightSpec, evaluate_partition,
                      read_hypergraph, write_hypergraph)
from hypercut.cli import main
from hypercut.datasets import (BinningSpec, CorpusSpec,
                               build_covertype_from_table,
                               build_newsgroups_from_documents)
from hypercut.report import METHODS, clustering_error, run_method

from _toydata import (bench_inputs, make_toy_covertype_file,
                      make_toy_newsgroup_archive)


@pytest.fixture
def h0_file(tmp_path, h0):
    path = tmp_path / "h0.hg"
    write_hypergraph(h0, path)
    return path


def run(args):
    return main([str(a) for a in args])


#: what the input, the config and the partition fix, and nothing else
REPORT_KEYS = {"alpha", "config", "converged", "error", "iterations", "method",
               "ncc", "partition", "provenance", "restart_index", "source"}


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


def test_clustering_error_refuses_labels_of_shape_n_by_1():
    # one label per vertex, but as a column: compared against the
    # partition by broadcasting it would read an error below zero
    with pytest.raises(ValueError, match="labels length or shape"):
        clustering_error([True, False, False], np.array([[0], [1], [1]]))


def test_clustering_error_refuses_more_than_two_classes():
    # scored as "largest label against the rest" this split would read 0.0,
    # though it merges classes 1 and 0
    with pytest.raises(ValueError, match="more than two classes"):
        clustering_error([True, True, False, False, False, False],
                         [2, 2, 1, 1, 0, 0])


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
    assert sorted(set(report["partition"])) == [0, 1]
    # the partition fixes the report: the vector and its R1 stay off it
    assert set(report) == REPORT_KEYS
    assert "timings" not in report  # deterministic by default


def test_cluster_stdout_and_timings_flag(h0_file, capsys, caplog):
    # the stage seconds leave the report for one INFO record, which the CLI
    # prints to stderr; the flag that put them in the report is gone
    caplog.set_level(logging.INFO, logger="hypercut.report")
    assert run(["cluster", "--input", h0_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "timings" not in report
    [record] = [r for r in caplog.records if r.name == "hypercut.report"]
    assert record.levelno == logging.INFO
    stages = json.loads(record.getMessage())
    assert stages.pop("method") == "edvw-1lap"
    assert set(stages) == {"setup_s", "solve_s"}
    assert all(t >= 0.0 for t in stages.values())
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--input", h0_file, "--timings"])
    assert exc.value.code == 2


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


def test_cluster_solver_defaults_are_ipm_config_defaults(h0_file, tmp_path):
    # without --seed and --restarts the report echoes IpmConfig()'s values
    out = tmp_path / "report.json"
    assert run(["cluster", "--input", h0_file, "--out", out]) == 0
    config, defaults = json.loads(out.read_text())["config"], asdict(IpmConfig())
    assert {k: config[k] for k in defaults} == defaults


def test_cluster_mu_ones_weighs_every_vertex_one(h0_file, tmp_path):
    out = tmp_path / "report.json"
    assert run(["cluster", "--input", h0_file, "--mu", "ones",
                "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["mu_mode"] == "ones"
    h = read_hypergraph(h0_file)
    spec = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)
    partition = np.array(report["partition"], dtype=bool)
    assert report["ncc"] == evaluate_partition(
        h.with_mu(np.ones(h.n_vertices)), spec, partition).ncc


def test_cluster_alpha_with_input_refused_before_any_work(h0_file, tmp_path,
                                                          capsys):
    # a file's EDVWs were built at the alpha of its build, not this one
    out = tmp_path / "r.json"
    assert run(["cluster", "--input", h0_file, "--alpha", "2.5",
                "--out", out]) == 2
    assert capsys.readouterr().err.startswith(
        "usage error: --alpha applies to --dataset only")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cluster", "--dataset", "newsgroups", "--alpha", "nan"],
    ["cluster", "--dataset", "covertype", "--alpha", "inf"],
    ["cluster", "--dataset", "newsgroups", "--alpha=-inf"],
    ["build", "newsgroups", "--alpha", "nan", "--out", "h.hg"],
    ["sweep", "--dataset", "newsgroups", "--alphas", "0,nan",
     "--out-prefix", "rows"],
])
def test_non_finite_alpha_refused_before_any_build(argv, monkeypatch, capsys):
    def no_build(*args):
        pytest.fail("a non-finite alpha reached the dataset build")

    monkeypatch.setattr(hypercut.datasets, "build_newsgroups_hypergraph",
                        no_build)
    monkeypatch.setattr(hypercut.datasets, "build_covertype_hypergraph",
                        no_build)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "alpha must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cluster", "--dataset", "newsgroups", "--restarts", "0"],
    ["cluster", "--input", "x.hg", "--seed", "-1"],
])
def test_solver_flags_refused_before_any_read_or_build(argv, monkeypatch,
                                                       capsys):
    def no_input(*args):
        pytest.fail("a bad solver flag reached the input")

    monkeypatch.setattr(hypercut.cli, "read_hypergraph", no_input)
    monkeypatch.setattr(hypercut.datasets, "build_newsgroups_hypergraph",
                        no_input)
    monkeypatch.setattr(hypercut.datasets, "build_covertype_hypergraph",
                        no_input)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("outputs", [
    ["--out", "{input}"],
    ["--export-graph", "{input}"],
    ["--out", "{input}.provenance.json"],
    ["--out", "{dir}/sub/../h0.hg"],
    ["--out", "r.json", "--export-graph", "{dir}/r.json"],
], ids=["out-input", "export-input", "out-sidecar", "out-input-respelled",
        "out-export"])
def test_cluster_never_overwrites_its_input(h0_file, outputs, monkeypatch,
                                            capsys):
    monkeypatch.chdir(h0_file.parent)
    (h0_file.parent / "sub").mkdir()
    sidecar = Path(f"{h0_file}.provenance.json")
    sidecar.write_text('{"labels": [0, 1, 1]}')
    before = h0_file.read_bytes(), sidecar.read_bytes()
    assert run(["cluster", "--input", h0_file, *(
        a.format(input=h0_file, dir=h0_file.parent) for a in outputs)]) == 2
    assert "usage error: cannot write" in capsys.readouterr().err
    assert (h0_file.read_bytes(), sidecar.read_bytes()) == before
    assert not (h0_file.parent / "r.json").exists()


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
    '{"labels": [0, 1, 2]}',
], ids=["short", "truncated", "not-object", "string", "float", "overflow",
        "three-classes"])
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


def test_cluster_refuses_booleans_and_strings_in_json_weights(tmp_path):
    # a JSON true among numbers and a numeric string would both be cast
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n_vertices": 3, "mu": None, "hyperedges": [
        {"kappa": "2.5", "members": [0, 1, 2], "gamma": ["1.0", True, 3]}]}))
    assert run(["cluster", "--input", path]) == 3


def test_unknown_method_is_usage_error(h0_file):
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--input", h0_file, "--method", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("method", METHODS)
def test_negative_seed_is_usage_error(h0_file, method, capsys):
    assert run(["cluster", "--input", h0_file, "--method", method,
                "--seed", -1]) == 2
    assert capsys.readouterr().err == \
        "usage error: rng_seed must be non-negative\n"


def test_sweep_unknown_method_is_usage_error(tmp_path, capsys):
    assert run(["sweep", "--dataset", "covertype", "--data-dir", tmp_path,
                "--methods", "edvw-1lap,bogus",
                "--out-prefix", tmp_path / "sweep"]) == 2
    assert "unknown method 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_cluster_unwritable_out_refused_before_any_work(h0_file, tmp_path,
                                                        capsys):
    out, mtx = tmp_path / "missing" / "r.json", tmp_path / "graph.mtx"
    assert run(["cluster", "--input", h0_file, "--export-graph", mtx,
                "--out", out]) == 2
    assert capsys.readouterr().err == \
        f"usage error: cannot write {out}: no directory {out.parent}\n"
    assert not out.exists() and not mtx.exists()


def test_cluster_unwritable_export_graph_refused_before_any_work(
        h0_file, tmp_path, capsys):
    out, mtx = tmp_path / "r.json", tmp_path
    assert run(["cluster", "--input", h0_file, "--export-graph", mtx,
                "--out", out]) == 2
    assert capsys.readouterr().err == \
        f"usage error: cannot write {mtx}: it is a directory\n"
    assert not out.exists()


def test_build_unwritable_out_refused_before_any_work(tmp_path, capsys):
    # no raw data either: the path is refused before the build is tried
    out = tmp_path / "missing" / "news.hg"
    assert run(["build", "newsgroups", "--data-dir", tmp_path / "nowhere",
                "--out", out]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_unwritable_out_prefix_refused_before_any_work(tmp_path, capsys):
    prefix = tmp_path / "missing" / "sweep"
    assert run(["sweep", "--dataset", "covertype", "--data-dir",
                tmp_path / "nowhere", "--out-prefix", prefix]) == 2
    assert f"cannot write {prefix}.csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("argv", [
    ["build", "{dataset}", "--out", "{raw}"],
    ["cluster", "--dataset", "{dataset}", "--out", "{raw}"],
    ["cluster", "--dataset", "{dataset}", "--export-graph", "{raw}"],
], ids=["build-out", "cluster-out", "cluster-export"])
@pytest.mark.parametrize("dataset", ["newsgroups", "covertype"])
def test_dataset_commands_never_overwrite_the_raw_data(argv, dataset, request,
                                                       capsys):
    data_dir = request.getfixturevalue(
        "toy_news_dir" if dataset == "newsgroups" else "toy_cov_dir")
    [(name, _)] = hypercut.datasets.DATASET_FILES[dataset]
    raw = data_dir / name
    before = raw.read_bytes()
    assert run([*(a.format(dataset=dataset, raw=raw) for a in argv),
                "--data-dir", data_dir]) == 2
    assert f"usage error: cannot write {raw}" in capsys.readouterr().err
    assert raw.read_bytes() == before
    assert sorted(p.name for p in data_dir.iterdir()) == [name]


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


def test_cardinality_baseline_same_on_built_file_and_dataset(toy_news_dir,
                                                             tmp_path):
    # the baseline recomputes kappa from unit weights whichever way the
    # hypergraph is read, so a build and the file it wrote agree
    built = tmp_path / "news.hg"
    assert run(["build", "newsgroups", "--data-dir", toy_news_dir,
                "--out", built]) == 0
    from_file, from_build = tmp_path / "file.json", tmp_path / "build.json"
    common = ["cluster", "--method", "cardinality-1lap"]
    assert run([*common, "--input", built, "--out", from_file]) == 0
    assert run([*common, "--dataset", "newsgroups", "--data-dir", toy_news_dir,
                "--out", from_build]) == 0
    a, b = (json.loads(p.read_text()) for p in (from_file, from_build))
    assert a["partition"] == b["partition"]
    assert a["ncc"] == b["ncc"]


def test_cluster_reports_are_byte_identical_across_processes(toy_news_dir):
    # hash seeds differ between the two processes: nothing in a report may
    # depend on set or dict iteration order, and the stage seconds go to
    # stderr, not into the report
    src = Path(__file__).resolve().parents[1] / "src"
    runs = {}
    for method in ("edvw-1lap", "rw-2lap"):
        for hash_seed in ("0", "1"):
            path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(path))
            runs[method, hash_seed] = subprocess.Popen(
                [sys.executable, "-m", "hypercut", "cluster", "--dataset",
                 "newsgroups", "--data-dir", str(toy_news_dir), "--method",
                 method], env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE)
    out = {key: proc.communicate(timeout=60) for key, proc in runs.items()}
    assert [proc.returncode for proc in runs.values()] == [0] * 4
    for method in ("edvw-1lap", "rw-2lap"):
        (a, err_a), (b, err_b) = out[method, "0"], out[method, "1"]
        assert json.loads(a)["method"] == method
        assert a == b
        for err in (err_a, err_b):
            [line] = [ln for ln in err.decode().splitlines()
                      if ln.startswith("INFO hypercut.report: ")]
            stages = json.loads(line.split(": ", 1)[1])
            assert stages["method"] == method
            assert set(stages) == {"method", "setup_s", "solve_s"}


def _cluster_at_blas_threads(path, methods) -> dict:
    """`cluster --input path` stdout per (method, OPENBLAS_NUM_THREADS)."""
    src = Path(__file__).resolve().parents[1] / "src"
    path_var = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    runs = {(method, threads): subprocess.Popen(
        [sys.executable, "-m", "hypercut", "cluster", "--input", str(path),
         "--method", method],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                 PYTHONPATH=os.pathsep.join(path_var)),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        for method in methods for threads in (1, 2)}
    out = {key: proc.communicate(timeout=120)[0] for key, proc in runs.items()}
    assert [proc.returncode for proc in runs.values()] == [0] * len(runs)
    return out


def test_reports_do_not_follow_the_blas_thread_count(tmp_path):
    # on this input the spectral vector's last bits differ between one and
    # two BLAS threads; the report keeps only what the partition fixes
    docs, labels = bench_inputs().newsgroups_corpus(850, 1)
    path = tmp_path / "news.hg"
    write_hypergraph(build_newsgroups_from_documents(
        docs, labels, CorpusSpec(), 1.0).hypergraph, path)
    out = _cluster_at_blas_threads(path, ("rw-2lap", "edvw-1lap"))
    for method in ("rw-2lap", "edvw-1lap"):
        assert out[method, 1] == out[method, 2], method


def test_ncc_does_not_follow_the_blas_thread_count(tmp_path):
    # at n = 12 240 OpenBLAS splits a dot product over mu between threads,
    # so volumes summed that way move the NCC of one partition by an ulp
    table, labels = bench_inputs().covertype_table(12240, 1)
    path = tmp_path / "covertype.hg"
    write_hypergraph(build_covertype_from_table(
        table, labels, BinningSpec(), 1.0).hypergraph, path)
    out = _cluster_at_blas_threads(path, ("rw-2lap",))
    one, two = (json.loads(out["rw-2lap", t]) for t in (1, 2))
    assert one["partition"] == two["partition"]
    assert one["ncc"] == two["ncc"]
    assert out["rw-2lap", 1] == out["rw-2lap", 2]


def test_cluster_dataset_covertype(toy_cov_dir, tmp_path):
    rep_path = tmp_path / "rep.json"
    assert run(["cluster", "--dataset", "covertype", "--alpha", "1.0",
                "--data-dir", toy_cov_dir, "--out", rep_path]) == 0
    report = json.loads(rep_path.read_text())
    # planted classes are far apart: essentially perfect recovery
    assert report["error"] <= 0.05
    assert np.isfinite(report["ncc"]) and set(report) == REPORT_KEYS


def test_cluster_dataset_defaults_to_alpha_one(toy_cov_dir, tmp_path):
    # as `build` does: the EDVWs stay on, and the report says so
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    common = ["cluster", "--dataset", "covertype", "--data-dir", toy_cov_dir,
              "--restarts", "1"]
    assert run([*common, "--out", default]) == 0
    assert run([*common, "--alpha", "1", "--out", explicit]) == 0
    assert default.read_bytes() == explicit.read_bytes()
    report = json.loads(default.read_text())
    assert report["alpha"] == report["config"]["alpha"] == 1.0


def test_sweep_rows_and_alpha_zero_equivalence(toy_news_dir, tmp_path):
    prefix = tmp_path / "sweep"
    assert run(["sweep", "--dataset", "newsgroups", "--data-dir", toy_news_dir,
                "--alphas", "0,0.5,1", "--methods",
                "edvw-1lap,cardinality-1lap", "--out-prefix", prefix]) == 0
    rows_json = json.loads((tmp_path / "sweep.json").read_text())
    # one edvw-1lap row per alpha, one cardinality-1lap row without alpha
    assert [(r["method"], r["alpha"]) for r in rows_json] == [
        ("edvw-1lap", 0.0), ("cardinality-1lap", None),
        ("edvw-1lap", 0.5), ("edvw-1lap", 1.0)]
    with open(tmp_path / "sweep.csv") as fh:
        rows_csv = list(csv.DictReader(fh))
    assert len(rows_csv) == len(rows_json)
    for rj, rc in zip(rows_json, rows_csv):
        assert rc["method"] == rj["method"]
        assert rc["alpha"] == ("" if rj["alpha"] is None else str(rj["alpha"]))
        assert float(rc["ncc"]) == pytest.approx(rj["ncc"], rel=1e-15)
        assert float(rc["error"]) == pytest.approx(rj["error"], rel=1e-15)

    by_key = {(r["method"], r["alpha"]): r for r in rows_json}
    base = by_key[("edvw-1lap", 0.0)]
    flat = by_key[("cardinality-1lap", None)]
    assert flat["ncc"] == pytest.approx(base["ncc"], rel=1e-12)
    assert flat["error"] == pytest.approx(base["error"], rel=1e-12)
    assert "lambda" not in flat and set(rows_csv[0]) == set(flat)
    # at alpha = 0 the EDVWs are flat, so both methods solve one problem
    h = hypercut.datasets.build_newsgroups_hypergraph(
        toy_news_dir, CorpusSpec(), 0.0).hypergraph
    assert run_method(h, None, "cardinality-1lap").lam == pytest.approx(
        run_method(h, None, "edvw-1lap").lam, rel=1e-12)


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap module functions so each call is counted by its name."""
    counts = {}

    def wrap(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    return wrap, counts


@pytest.mark.parametrize("dataset, reader_module, raw_reader", [
    ("newsgroups", hypercut.datasets, "_read_newsgroup_archive"),
    ("covertype", gzip, "open"),  # the covertype table is read inline
])
def test_sweep_builds_once_per_alpha(dataset, reader_module, raw_reader,
                                     toy_news_dir, toy_cov_dir, tmp_path,
                                     count_calls):
    wrap, counts = count_calls
    for name in ("build_newsgroups_hypergraph", "build_covertype_hypergraph"):
        wrap(hypercut.datasets, name)
    wrap(reader_module, raw_reader)
    data_dir = toy_news_dir if dataset == "newsgroups" else toy_cov_dir
    assert run(["sweep", "--dataset", dataset, "--data-dir", data_dir,
                "--alphas", "0,1", "--restarts", "1",
                "--out-prefix", tmp_path / "sweep"]) == 0
    # cardinality-1lap does not depend on alpha and gets one row
    assert len(json.loads((tmp_path / "sweep.json").read_text())) == \
        2 * len(METHODS) - 1
    # one build and one read of the raw data per alpha, for all methods
    assert counts == {f"build_{dataset}_hypergraph": 2, raw_reader: 2}
    # an alpha with no method left to solve is not built
    counts.clear()
    assert run(["sweep", "--dataset", dataset, "--data-dir", data_dir,
                "--alphas", "0,1,2", "--methods", "cardinality-1lap",
                "--restarts", "1", "--out-prefix", tmp_path / "flat"]) == 0
    assert len(json.loads((tmp_path / "flat.json").read_text())) == 1
    assert counts == {f"build_{dataset}_hypergraph": 1, raw_reader: 1}


def test_sweep_rows_equal_one_cluster_run_each(toy_news_dir, tmp_path):
    # each row is what `cluster` reports for its own (alpha, method) build
    common = ["--dataset", "newsgroups", "--data-dir", toy_news_dir,
              "--restarts", "2", "--seed", "3"]
    assert run(["sweep", *common, "--alphas", "0.5,1.5",
                "--out-prefix", tmp_path / "sweep"]) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())
    with open(tmp_path / "sweep.csv") as fh:
        rows_csv = list(csv.DictReader(fh))
    keys = ["alpha", "method", "ncc", "error", "iterations", "converged"]
    flat = "cardinality-1lap"
    assert [(r["alpha"], r["method"]) for r in rows] == \
        [(None if m == flat else a, m) for a in (0.5, 1.5) for m in METHODS
         if a == 0.5 or m != flat]
    for row, row_csv in zip(rows, rows_csv, strict=True):
        out = tmp_path / "rep.json"
        # the alpha-free row is solved on the first build; any other alpha
        # gives the same answer
        alpha = 1.5 if row["method"] == flat else row["alpha"]
        assert run(["cluster", *common, "--alpha", alpha,
                    "--method", row["method"], "--out", out]) == 0
        report = json.loads(out.read_text())
        expected = {k: report[k] for k in keys}
        if row["method"] == flat:
            expected["alpha"] = None
        assert {k: row[k] for k in keys} == expected
        assert set(row) == {*keys, "dataset", "seed"} == set(row_csv)
        assert row["dataset"] == "newsgroups" and row["seed"] == 3
        assert {k: row_csv[k] for k in keys} == \
            {k: "" if v is None else str(v) for k, v in expected.items()}


def test_sweep_mu_ones_rows_use_unit_weights(toy_news_dir, tmp_path):
    common = ["--dataset", "newsgroups", "--data-dir", toy_news_dir,
              "--restarts", "1", "--mu", "ones"]
    assert run(["sweep", *common, "--alphas", "1", "--methods", "edvw-1lap",
                "--out-prefix", tmp_path / "sweep"]) == 0
    [row] = json.loads((tmp_path / "sweep.json").read_text())
    out = tmp_path / "rep.json"
    assert run(["cluster", *common, "--alpha", "1", "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["mu_mode"] == "ones"
    h = hypercut.datasets.build_newsgroups_hypergraph(
        toy_news_dir, hypercut.datasets.CorpusSpec(), 1.0).hypergraph
    spec = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)
    partition = np.array(report["partition"], dtype=bool)
    assert row["ncc"] == report["ncc"] == evaluate_partition(
        h.with_mu(np.ones(h.n_vertices)), spec, partition).ncc


def test_oracle_subcommand(h0_file, capsys):
    assert run(["oracle", "--input", h0_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h2"] == pytest.approx(5.0 / 9.0, rel=1e-12)
    assert out["argmin_block_of_vertex_0"] == [0]


def test_oracle_and_cluster_agree_on_a_file_with_weights(tmp_path, capsys):
    # both keep the file's mu unless --mu says otherwise; with degree mu
    # the oracle's h2 here is 2/3, not 1/2
    path = tmp_path / "mu.hg"
    write_hypergraph(EdvwHypergraph(
        4, [[1, 2, 3], [0, 3], [1, 2, 3]], [[1.0] * 3, [1.0] * 2, [1.0] * 3],
        [1.0] * 3, [2.0, 2.0, 2.0, 3.0]), path)
    assert "mu 2.0 2.0 2.0 3.0" in path.read_text()
    assert run(["oracle", "--input", path]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert run(["cluster", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["mu_mode"] == "keep"
    assert report["ncc"] == pytest.approx(oracle["h2"], rel=1e-12)
    assert oracle["h2"] == pytest.approx(0.5, rel=1e-12)
    side = report["partition"]
    assert oracle["argmin_block_of_vertex_0"] == [
        v for v in range(4) if side[v] == side[0]]
    assert run(["oracle", "--input", path, "--mu", "degree"]) == 0
    assert json.loads(capsys.readouterr().out)["h2"] == pytest.approx(
        2.0 / 3.0, rel=1e-12)


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


def test_fetch_offline_download_exits_3(monkeypatch, tmp_path):
    # no raw file present and the download fails: an unreachable host,
    # patched in, so the test reads the same with or without a network
    def unreachable(url, *args, **kwargs):
        raise urllib.error.URLError(f"{url} is unreachable")

    monkeypatch.setattr(hypercut.datasets.urllib.request, "urlopen", unreachable)
    assert run(["fetch", "covertype", "--data-dir", tmp_path / "empty"]) == 3
    assert not (tmp_path / "empty" / "covtype.data.gz").exists()
