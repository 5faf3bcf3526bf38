"""End-to-end clustering runs and their serialized reports."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import build_rw_laplacian, cardinality_variant
from .core import (EdvwHypergraph, GKind, HKind, SubmodularWeightSpec,
                   r1_functional, with_degree_mu)
from .reduction import clique_expand, export_matrix_market
from .solver import (IpmConfig, ipm_second_eigvec, optimal_threshold,
                     second_eigvec_2lap)

METHODS = ("edvw-1lap", "rw-2lap", "cardinality-1lap")


def clustering_error(side_of, labels) -> float:
    """Fraction of misassigned vertices, minimized over the two block-label
    pairings; always in [0, 1/2]."""
    side_of = np.asarray(side_of, dtype=bool)
    labels = np.asarray(labels)
    if side_of.size != labels.size:
        raise ValueError("labels length does not match the partition")
    mismatch = float(np.count_nonzero(side_of != (labels == labels.max())))
    return min(mismatch, side_of.size - mismatch) / side_of.size


@dataclass(frozen=True, eq=False)
class ClusteringReport:
    """Per-run record of a clustering pipeline execution."""

    source: str
    method: str
    alpha: float | None
    ncc: float
    error: float | None       # clustering error; None without labels
    lam: float                # converged R1 value (the eigenvalue estimate)
    threshold: float
    iterations: int
    converged: bool
    restart_index: int
    eigenvector: list
    partition: list           # 0/1 side per vertex
    config: dict              # full resolved configuration echo
    provenance: dict
    timings: dict | None = field(default=None)

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "source": self.source,
            "method": self.method,
            "alpha": self.alpha,
            "ncc": self.ncc,
            "error": self.error,
            "lambda": self.lam,
            "threshold": self.threshold,
            "iterations": self.iterations,
            "converged": self.converged,
            "restart_index": self.restart_index,
            "eigenvector": self.eigenvector,
            "partition": self.partition,
            "config": self.config,
            "provenance": self.provenance,
        }
        if include_timings and self.timings is not None:
            out["timings"] = self.timings
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings),
                          indent=2, sort_keys=True) + "\n"

    def save(self, path, include_timings: bool = False) -> None:
        Path(path).write_text(self.to_json(include_timings))


def run_method(h: EdvwHypergraph, labels, method: str,
               cfg: IpmConfig | None = None, *,
               alpha: float | None = None, source: str = "",
               mu_mode: str = "degree",
               cardinality_recompute_kappa: bool = True,
               provenance: dict | None = None,
               export_graph: str | None = None) -> ClusteringReport:
    """Run one clustering method end to end and assemble its report.

    `mu_mode` selects the vertex weights: "degree" (theta-degree, the default
    convention), "ones", or "keep" (whatever h carries, e.g. from a file).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    cfg = cfg or IpmConfig()
    spec = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)
    timings: dict = {}
    t0 = time.perf_counter()

    if method == "cardinality-1lap":
        h = cardinality_variant(h, recompute_kappa_std=cardinality_recompute_kappa)
    if mu_mode == "degree":
        h = with_degree_mu(h, spec)
    elif mu_mode == "ones":
        h = h.with_mu(np.ones(h.n_vertices))
    elif mu_mode != "keep":
        raise ValueError(f"unknown mu mode {mu_mode!r}")
    timings["setup_s"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    if method in ("edvw-1lap", "cardinality-1lap"):
        graph = clique_expand(h, spec)
        if export_graph:
            export_matrix_market(graph, export_graph)
        eig = ipm_second_eigvec(graph, cfg)
        x, lam = eig.x, eig.lam
        iterations, converged, restart = eig.iters, eig.converged, eig.restart_index
    else:
        rwl = build_rw_laplacian(h)
        y = second_eigvec_2lap(rwl.laplacian_operator(),
                               nullspace=np.sqrt(rwl.pi), rng_seed=cfg.rng_seed)
        # back from the sqrt(pi)-scaled space: the row normalization of
        # two-way spectral clustering
        x = y / np.sqrt(rwl.pi)
        lam = r1_functional(h, spec, x)
        iterations, converged, restart = 0, True, 0
    timings["solve_s"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    part = optimal_threshold(x, h, spec)
    timings["threshold_s"] = time.perf_counter() - t2
    threshold = float(np.max(x[~part.side_of]))
    err = clustering_error(part.side_of, labels) if labels is not None else None

    config = {
        "method": method,
        "alpha": alpha,
        "mu_mode": mu_mode,
        "h_kind": spec.h_kind.value,
        "g_kind": spec.g_kind.value,
        "cardinality_recompute_kappa": cardinality_recompute_kappa,
        "max_outer_iters": cfg.max_outer_iters,
        "outer_tol": cfg.outer_tol,
        "inner_max_iters": cfg.inner_max_iters,
        "inner_tol": cfg.inner_tol,
        "n_restarts": cfg.n_restarts,
        "rng_seed": cfg.rng_seed,
    }
    return ClusteringReport(
        source=source, method=method, alpha=alpha,
        ncc=float(part.ncc), error=err, lam=float(lam),
        threshold=threshold, iterations=iterations, converged=converged,
        restart_index=restart,
        eigenvector=[float(t) for t in x],
        partition=[int(b) for b in part.side_of],
        config=config, provenance=provenance or {}, timings=timings)
