"""One benchmark run: build a seeded input, cluster it, check and time it.

A run mirrors `hypercut build` followed by `hypercut cluster --input`:

1. generate the raw input from the seed (not timed);
2. build the hypergraph with the public build function (alpha = 1);
3. `write_hypergraph`, then `read_hypergraph`;
4. `run_method(h, labels, method, cfg, mu_mode="degree",
   cardinality_recompute_kappa=False)`;
5. `ClusteringReport.to_json()`.

Steps 2-3 are set-up (`setup_s`, the median of back-to-back repetitions
before the first cluster call: at least `SETUP_REPS` of them, spanning at
least `SETUP_MIN_S` seconds, so that a slow phase of the machine lasting
a second or two does not decide it); steps 4-5 are one cluster call
(`cluster_s`), repeated on the same input while the time budget, which
counts from the start of set-up, lasts.  A traced run first makes one
cluster call without tracing and then traced ones; its per-layer numbers
come from the traced calls and `trace.overhead_s` is the difference of the
two.
"""

from __future__ import annotations

import collections
import hashlib
import json
import logging
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import hypercut
from hypercut import report as hc_report
from hypercut.core import (GKind, HKind, SubmodularWeightSpec,
                           evaluate_partition, with_degree_mu)
from hypercut.datasets import (BinningSpec, CorpusSpec,
                               build_covertype_from_table,
                               build_newsgroups_from_documents)
from hypercut.io import read_hypergraph, write_hypergraph
from hypercut.reduction import clique_expand
from hypercut.solver import IpmConfig

import inputs
from tracing import Tracer, WarningCounter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 31
SETUP_MIN_S = 5.0

#: end-to-end metrics and their units; `failed_ratio` reads 0 on a healthy
#: workload, so it stays in the full record but not in the summary line
END_TO_END = {"setup_s": "s", "cluster_s": "s", "peak_rss_mb": "MB",
              "ncc": "1", "error": "1"}
RECORD_ONLY = {"failed_ratio": "1"}

MODULES = ("core", "datasets", "io", "reduction", "solver", "baselines", "report")
PER_LAYER = {
    "datasets.build_s": "s",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.file_bytes": "bytes",
    "core.degree_mu_s": "s",
    "core.n_vertices": "count",
    "core.n_hyperedges": "count",
    "core.memberships": "count",
    "reduction.clique_expand_s": "s",
    "reduction.member_pairs": "count",
    "reduction.graph_edges": "count",
    "reduction.adjacency_mb": "MB",
    "solver.ipm_s": "s",
    "solver.ipm_self_s": "s",
    "solver.outer_iters": "count",
    "solver.restart_index": "count",
    "solver.inner_calls": "count",
    "solver.inner_s": "s",
    "solver.inner_improved_ratio": "1",
    "solver.inner_converged_ratio": "1",
    "solver.spectral_init_s": "s",
    "solver.graph_threshold_calls": "count",
    "solver.graph_threshold_s": "s",
    "solver.graph_r1_calls": "count",
    "solver.graph_r1_s": "s",
    "solver.threshold_s": "s",
    "baselines.rw_build_s": "s",
    "baselines.eig_s": "s",
    "report.run_method_self_s": "s",
    "report.serialize_s": "s",
    "report.json_bytes": "bytes",
    **{f"log.warnings.{m}": "count" for m in MODULES},
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    shape: str          # "covertype" or "newsgroups"
    size: int           # table rows, or documents generated
    method: str
    ipm: dict = field(default_factory=dict)  # IpmConfig overrides


WORKLOADS = {
    # the dataset-scale profile from the README, pinned
    "covertype-1lap": Workload("covertype", 2000, "edvw-1lap",
                               {"inner_tol": 1e-6, "n_restarts": 2}),
    # the CLI default IpmConfig(); about 700 documents survive filtering
    "newsgroups-1lap": Workload("newsgroups", 850, "edvw-1lap"),
    # the paper's full covertype size; every call fails at this commit
    "covertype-rw": Workload("covertype", 12240, "rw-2lap"),
    # the largest covertype size on the dense path (DENSE_CAP), which runs
    "covertype-rw-dense": Workload("covertype", 4000, "rw-2lap"),
}

SPEC = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)


def generate(workload: Workload, seed: int):
    if workload.shape == "covertype":
        return inputs.covertype_table(workload.size, seed)
    return inputs.newsgroups_corpus(workload.size, seed)


def build(workload: Workload, raw):
    if workload.shape == "covertype":
        return build_covertype_from_table(*raw, BinningSpec(), 1.0)
    return build_newsgroups_from_documents(*raw, CorpusSpec(), 1.0)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def code_digest() -> str:
    """Digest of the library and benchmark sources, standing in for a rev."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "hypercut").rglob("*.py"))
    files += [ROOT / "src" / "hypercut" / "stopwords.txt"]
    files += sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas_threads() -> int | None:
    """Thread limit reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    mem_total_kb = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_total_kb = int(line.split()[1])
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": mem_total_kb,
        "blas": blas,
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hypercut": hypercut.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(),
    }


def cpu_steal_s() -> float | None:
    """CPU time the hypervisor took from this machine since boot, all CPUs."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Attempt:
    """One cluster call: its time, outcome and (when traced) layer numbers."""

    seconds: float
    cpu_seconds: float
    traced: bool
    report: object = None
    text: str = ""
    error: str | None = None
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


class Run:
    """State of one benchmark run over a single workload and seed."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 size: int | None = None, out_dir: Path | None = None):
        base = WORKLOADS[name]
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.workload = Workload(base.shape, size or base.size, base.method, base.ipm)
        self.cfg = IpmConfig(**self.workload.ipm)
        self.out_dir = Path(out_dir) if out_dir else BENCH_DIR / "out"
        self.tracer = Tracer()
        self.warnings = WarningCounter()
        self.setup_times: list = []
        self.setup_layers: list = []
        self.attempts: list = []
        self.first_answer: tuple | None = None
        self.h_mu = None
        self.spans: list = []
        self.traceback: str | None = None
        self.raw = generate(self.workload, seed)
        self.path = self.out_dir / f"{name}-{os.getpid()}.hg"
        self.file_sha: str | None = None
        self.setup_warnings = collections.Counter()

    # -- set-up ----------------------------------------------------------

    def setup(self, reps: int, seconds: float) -> None:
        """Set up back to back, `reps` times or more, for at least `seconds`."""
        warned = self.warnings.counts.copy()
        start = time.perf_counter()
        while (len(self.setup_times) < reps
               or time.perf_counter() - start < seconds):
            t0 = time.perf_counter()
            with self.tracer.span("datasets.build"):
                built = build(self.workload, self.raw)
            with self.tracer.span("io.write"):
                write_hypergraph(built.hypergraph, self.path)
            with self.tracer.span("io.read"):
                h = read_hypergraph(self.path)
            self.setup_times.append(time.perf_counter() - t0)
            total, _ = self.tracer.totals()
            data = self.path.read_bytes()
            self.setup_layers.append({
                "datasets.build_s": total["datasets.build"],
                "io.write_s": total["io.write"],
                "io.read_s": total["io.read"],
                "io.file_bytes": len(data),
            })
            self.tracer.reset()
            if self.file_sha is None:
                self.file_sha = _sha(data)
                self.h, self.labels = h, built.labels
            elif _sha(data) != self.file_sha:
                raise RuntimeError("hypergraph file differs between set-ups")
        self.setup_warnings.update(self.warnings.counts - warned)

    # -- cluster calls ----------------------------------------------------

    def cluster(self, traced: bool) -> Attempt:
        self.tracer.reset()
        if traced:
            self.tracer.install()
        warned = self.warnings.counts.copy()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with self.tracer.span("report.run_method"):
                rep = hc_report.run_method(
                    self.h, self.labels, self.workload.method, self.cfg,
                    mu_mode="degree", cardinality_recompute_kappa=False)
            with self.tracer.span("report.serialize"):
                text = rep.to_json()
            attempt = Attempt(time.perf_counter() - t0,
                              time.process_time() - c0, traced, rep, text)
        except Exception as exc:  # recorded, and counted into failed_ratio
            attempt = Attempt(time.perf_counter() - t0,
                              time.process_time() - c0, traced,
                              error=f"{type(exc).__name__}: {exc}")
            self.traceback = traceback.format_exc()
        finally:
            self.tracer.remove()
        if attempt.report is not None:
            attempt.problems = self.check(attempt)
        if traced:
            attempt.layers = self.layer_metrics(attempt, warned)
            self.spans = self.tracer.span_records()
        return attempt

    def check(self, attempt: Attempt) -> list:
        rep, problems = attempt.report, []
        if self.h_mu is None:
            self.h_mu = with_degree_mu(self.h, SPEC)
        fresh = evaluate_partition(self.h_mu, SPEC,
                                   np.asarray(rep.partition, dtype=bool)).ncc
        if not math.isclose(rep.ncc, fresh, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"reported ncc {rep.ncc!r} != fresh {fresh!r}")
        if rep.ncc > rep.lam * (1.0 + 1e-9):
            problems.append(f"threshold dominance: ncc {rep.ncc!r} > lambda {rep.lam!r}")
        answer = (_sha(np.asarray(rep.partition, dtype=np.uint8).tobytes()),
                  _sha(attempt.text.encode()))
        if self.first_answer is None:
            self.first_answer = answer
        elif answer != self.first_answer:
            problems.append("partition or report bytes differ between calls")
        return problems

    def layer_metrics(self, attempt: Attempt, warned) -> dict:
        total, own = self.tracer.totals()
        counts = self.tracer.counts
        rep = attempt.report
        inner = counts["solver.inner.calls"]
        out = {
            "core.degree_mu_s": total.get("core.degree_mu", 0.0),
            "reduction.clique_expand_s": total.get("reduction.clique_expand", 0.0),
            "reduction.member_pairs": counts["reduction.member_pairs"],
            "reduction.graph_edges": counts["reduction.graph_edges"],
            "reduction.adjacency_mb": counts["reduction.adjacency_bytes"] / 2 ** 20,
            "solver.ipm_s": total.get("solver.ipm", 0.0),
            "solver.ipm_self_s": own.get("solver.ipm", 0.0),
            "solver.outer_iters": rep.iterations if rep is not None else 0,
            "solver.restart_index": rep.restart_index if rep is not None else 0,
            "solver.inner_calls": inner,
            "solver.inner_s": total.get("solver.inner", 0.0),
            "solver.inner_improved_ratio":
                counts["solver.inner_improved"] / inner if inner else 0.0,
            "solver.inner_converged_ratio":
                counts["solver.inner_converged"] / inner if inner else 0.0,
            "solver.spectral_init_s": total.get("solver.spectral_init", 0.0),
            "solver.graph_threshold_calls": counts["solver.graph_threshold.calls"],
            "solver.graph_threshold_s": total.get("solver.graph_threshold", 0.0),
            "solver.graph_r1_calls": counts["solver.graph_r1.calls"],
            "solver.graph_r1_s": total.get("solver.graph_r1", 0.0),
            "solver.threshold_s": total.get("solver.threshold", 0.0),
            "baselines.rw_build_s": total.get("baselines.rw_build", 0.0),
            "baselines.eig_s": total.get("baselines.eig", 0.0),
            "report.run_method_self_s": own.get("report.run_method", 0.0),
            "report.serialize_s": total.get("report.serialize", 0.0),
            "report.json_bytes": len(attempt.text.encode()),
        }
        for m in MODULES:
            out[f"log.warnings.{m}"] = self.warnings.counts[m] - warned[m]
        return out

    def loop(self, start: float) -> None:
        """Cluster calls until the next one would end `seconds` after `start`."""
        while True:
            traced = self.trace and bool(self.attempts)
            self.attempts.append(self.cluster(traced))
            if self.trace and not any(a.traced for a in self.attempts):
                continue
            if self.attempts[-1].error is not None:
                return  # a raising call is not repeated
            elapsed = time.perf_counter() - start
            typical = statistics.median(a.seconds for a in self.attempts)
            if elapsed + typical > self.seconds:
                return

    # -- records ----------------------------------------------------------

    def input_facts(self) -> dict:
        sizes = np.array([ms.size for ms in self.h.hyperedges], dtype=np.int64)
        facts = {
            "n": self.h.n_vertices,
            "m": self.h.n_hyperedges,
            "memberships": int(sizes.sum()),
            "member_pairs": int((sizes * (sizes - 1) // 2).sum()),
            "graph_edges": None,
        }
        if self.workload.method != "rw-2lap":
            graph = clique_expand(self.h, SPEC)
            facts["graph_edges"] = int(graph.adjacency.nnz // 2)
        return facts

    def check_across_processes(self) -> list:
        """Compare the answer with earlier runs of the same code and seed."""
        if self.first_answer is None:
            return []
        path = self.out_dir / "answers.json"
        key = "|".join([self.name, str(self.workload.size), str(self.seed),
                        code_digest()])
        known = json.loads(path.read_text()) if path.is_file() else {}
        answer = list(self.first_answer)
        if key in known:
            return [] if known[key] == answer else [
                "partition or report bytes differ from an earlier run"]
        known[key] = answer
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []


def run(name: str, seed: int, seconds: float, trace: bool,
        size: int | None = None, out_dir: Path | None = None) -> dict:
    """Run one workload and return its full record (see `summary`)."""
    r = Run(name, seed, seconds, trace, size, out_dir)
    r.out_dir.mkdir(parents=True, exist_ok=True)
    logger = logging.getLogger("hypercut")
    logger.addHandler(r.warnings)
    steal0 = cpu_steal_s()
    try:
        start = time.perf_counter()
        r.setup(SETUP_REPS, SETUP_MIN_S)
        r.loop(start)
        cross = r.check_across_processes()
    finally:
        logger.removeHandler(r.warnings)
        r.path.unlink(missing_ok=True)

    attempts = r.attempts
    if cross:
        attempts[0].problems.extend(cross)
    failed = sum(a.failed for a in attempts)
    good = [a for a in attempts if a.report is not None]
    first = good[0].report if good else None
    untraced = [a.seconds for a in attempts if not a.traced]
    metrics = {
        "setup_s": statistics.median(r.setup_times),
        "cluster_s": statistics.median(untraced),
        "peak_rss_mb": _peak_rss_mb(),
        "ncc": first.ncc if first else None,
        "error": first.error if first else None,
        "failed_ratio": failed / len(attempts),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "method": r.workload.method,
        "size": r.workload.size,
        "ipm_config": r.cfg.__dict__,
        "attempted": len(attempts),
        "failed": failed,
        "correct": bool(good) and not any(a.problems for a in attempts),
        "errors": sorted({a.error for a in attempts if a.error}),
        "problems": sorted({p for a in attempts for p in a.problems}),
        "cluster_s_all": [a.seconds for a in attempts],
        "cluster_cpu_s_all": [a.cpu_seconds for a in attempts],
        "setup_s_all": r.setup_times,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in {**END_TO_END, **RECORD_ONLY}.items()},
        "machine": {**machine_facts(), "cpu_steal_s_during_run":
                    None if steal0 is None else cpu_steal_s() - steal0},
        "input": {**r.input_facts(),
                  "partition_sha256": r.first_answer[0] if r.first_answer else None,
                  "report_sha256": r.first_answer[1] if r.first_answer else None,
                  "ncc": metrics["ncc"],
                  "setup_warnings": dict(r.setup_warnings),
                  "code_digest": code_digest()},
    }
    if trace:
        traced = [a for a in attempts if a.traced]
        layers = {k: statistics.median(a.layers[k] for a in traced)
                  for k in traced[0].layers}
        for key in ("datasets.build_s", "io.write_s", "io.read_s", "io.file_bytes"):
            layers[key] = statistics.median(s[key] for s in r.setup_layers)
        layers["core.n_vertices"] = r.h.n_vertices
        layers["core.n_hyperedges"] = r.h.n_hyperedges
        layers["core.memberships"] = record["input"]["memberships"]
        for m in MODULES:  # one set-up plus one cluster call
            layers[f"log.warnings.{m}"] += (r.setup_warnings[m]
                                            // len(r.setup_times))
        layers["trace.overhead_s"] = (
            statistics.median(a.seconds for a in traced)
            - statistics.median(untraced))
        record["layers"] = {k: {"value": layers[k], "unit": u}
                            for k, u in PER_LAYER.items()}
        record["spans"] = r.spans
    if r.traceback:
        record["traceback"] = r.traceback
    name_trace = f"{name}-seed{seed}-trace{int(trace)}.json"
    (r.out_dir / name_trace).write_text(json.dumps(record, indent=1) + "\n")
    return record


def summary(record: dict) -> dict:
    """The one-line result: end-to-end metrics, or per-layer ones when traced."""
    metrics = record["layers"] if record["trace"] else {
        k: record["metrics"][k] for k in END_TO_END}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}
