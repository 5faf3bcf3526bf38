"""Tiny-size smoke runs of every benchmark workload.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
from hypercut.baselines import DENSE_CAP  # noqa: E402

#: small enough to run in seconds; covertype-rw stays on the operator path
SMALL = {"covertype-1lap": 150, "newsgroups-1lap": 160,
         "covertype-rw": DENSE_CAP + 100, "covertype-rw-dense": 300}


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", 3)
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)


def test_every_workload_has_a_small_size():
    assert set(SMALL) == set(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    record = harness.run(name, 0, 0.0, trace, size=SMALL[name], out_dir=tmp_path)
    line = harness.summary(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    metrics = record["metrics"]
    assert metrics["failed_ratio"]["value"] == record["failed"] / record["attempted"]
    assert metrics["setup_s"]["value"] > 0
    assert (tmp_path / f"{name}-seed0-trace{int(trace)}.json").is_file()
    if record["failed"]:  # counted, with the exception kept, never raised
        assert record["errors"] or record["problems"]
    if name != "covertype-rw":
        assert record["correct"] and record["failed"] == 0
        assert 0 < metrics["ncc"]["value"] and metrics["error"]["value"] is not None
    if trace:
        assert record["spans"]
        assert json.loads(json.dumps(line)) == line


def test_raising_cluster_call_is_counted_not_raised(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ValueError("planted failure")

    monkeypatch.setattr(harness.hc_report, "run_method", broken)
    record = harness.run("covertype-1lap", 0, 0.0, True, size=SMALL["covertype-1lap"],
                         out_dir=tmp_path)
    assert record["failed"] == record["attempted"] == 2
    assert record["metrics"]["failed_ratio"]["value"] == 1.0
    assert record["errors"] == ["ValueError: planted failure"]
    assert not record["correct"]
    assert record["metrics"]["setup_s"]["value"] > 0
    assert record["layers"]["core.n_vertices"]["value"] == SMALL["covertype-1lap"]


def test_answer_change_between_processes_is_a_failed_check(tmp_path):
    size = SMALL["covertype-1lap"]
    first = harness.run("covertype-1lap", 3, 0.0, False, size=size, out_dir=tmp_path)
    again = harness.run("covertype-1lap", 3, 0.0, False, size=size, out_dir=tmp_path)
    assert first["correct"] and again["correct"]
    assert first["input"]["report_sha256"] == again["input"]["report_sha256"]

    answers = tmp_path / "answers.json"
    known = json.loads(answers.read_text())
    known = {k: ["0" * 64, v[1]] for k, v in known.items()}
    answers.write_text(json.dumps(known))
    changed = harness.run("covertype-1lap", 3, 0.0, False, size=size, out_dir=tmp_path)
    assert not changed["correct"] and changed["failed"] == 1
    assert changed["problems"] == ["partition or report bytes differ from an earlier run"]


def test_inputs_repeat_for_a_seed():
    a, b = (harness.generate(harness.WORKLOADS["newsgroups-1lap"], 5) for _ in range(2))
    assert a[0] == b[0] and (a[1] == b[1]).all()
    c = harness.generate(harness.WORKLOADS["newsgroups-1lap"], 6)
    assert c[0] != a[0]


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_self_time_subtracts_child_spans():
    from tracing import Span, Tracer
    tracer = Tracer()
    tracer.spans += [Span("outer", 0.0, 10.0, None), Span("inner", 1.0, 4.0, 0),
                     Span("inner", 5.0, 6.0, 0), Span("leaf", 2.0, 3.0, 1)]
    total, own = tracer.totals()
    assert total == {"outer": 10.0, "inner": 4.0, "leaf": 1.0}
    assert own == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_run_refuses_a_checkout_without_sources(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "covertype-1lap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
