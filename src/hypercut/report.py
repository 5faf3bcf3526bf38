"""End-to-end clustering runs and their serialized reports."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .baselines import build_rw_laplacian, cardinality_variant
from .core import (EdvwHypergraph, GKind, HKind, SubmodularWeightSpec,
                   r1_functional, with_degree_mu)
from .reduction import clique_expand, export_matrix_market
from .solver import (IpmConfig, ipm_second_eigvec, optimal_threshold,
                     second_eigvec_2lap)

METHODS = ("edvw-1lap", "rw-2lap", "cardinality-1lap")
MU_MODES = ("degree", "ones", "keep")

logger = logging.getLogger(__name__)


def _checked_labels(labels, n: int) -> np.ndarray:
    """The one labels check: an array of shape (n,) with at most two classes."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("labels length or shape does not match the partition")
    if np.unique(labels).size > 2:
        raise ValueError("labels name more than two classes")
    return labels


def clustering_error(side_of, labels) -> float:
    """Fraction of misassigned vertices, minimized over the two block-label
    pairings; always in [0, 1/2].  Labels may name at most two classes."""
    side_of = np.asarray(side_of, dtype=bool)
    labels = _checked_labels(labels, side_of.size)
    mismatch = float(np.count_nonzero(side_of != (labels == labels.max())))
    return min(mismatch, side_of.size - mismatch) / side_of.size


@dataclass(frozen=True, eq=False)
class ClusteringReport:
    """Per-run record of a clustering pipeline execution.

    Its JSON holds every field but `lam`: what the input, the config and the
    partition fix, so no BLAS thread count or summation order moves a byte.
    """

    source: str
    method: str
    alpha: float | None
    ncc: float
    error: float | None       # clustering error; None without labels
    lam: float                # R1 of the final vector: off the JSON, as
                              # its last bits follow the BLAS thread count;
                              # bench/harness.py checks ncc <= lam
    iterations: int
    converged: bool
    restart_index: int
    partition: np.ndarray     # read-only 0/1 int8 side per vertex
    config: dict              # full resolved configuration echo
    provenance: dict

    def __post_init__(self):
        # an array, not a list: a caller that keeps many reports keeps
        # one byte per vertex instead of about 32
        arr = np.array(self.partition, dtype=np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "partition", arr)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["lam"]
        return {**out, "partition": self.partition.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"


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
    `export_graph` names a matrix-market file for the clique expansion of the
    1-Laplacian methods; rw-2lap builds none and refuses it.  Bad arguments
    and labels are refused before any work.  The set-up and solve seconds
    stay out of the report: one INFO record logs them as a JSON object.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if export_graph and method == "rw-2lap":
        raise ValueError("rw-2lap builds no clique expansion to export")
    if mu_mode not in MU_MODES:
        raise ValueError(f"unknown mu mode {mu_mode!r}")
    if labels is not None:
        labels = _checked_labels(labels, h.n_vertices)
    cfg = cfg or IpmConfig()
    spec = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)
    t0 = time.perf_counter()

    if method == "cardinality-1lap":
        h = cardinality_variant(h, recompute_kappa_std=cardinality_recompute_kappa)
    if mu_mode == "degree":
        h = with_degree_mu(h, spec)
    elif mu_mode == "ones":
        h = h.with_mu(np.ones(h.n_vertices))
    t1 = time.perf_counter()

    if method in ("edvw-1lap", "cardinality-1lap"):
        if export_graph:
            export_matrix_market(clique_expand(h, spec), export_graph)
        eig = ipm_second_eigvec(h, spec, cfg)
        lam, part = eig.lam, eig.partition
        iterations, converged, restart = eig.iters, eig.converged, eig.restart_index
    else:
        rwl = build_rw_laplacian(h)
        y = second_eigvec_2lap(rwl.laplacian_operator(),
                               rwl.laplacian_diagonal(),
                               nullspace=np.sqrt(rwl.pi), rng_seed=cfg.rng_seed)
        # back from the sqrt(pi)-scaled space: the row normalization of
        # two-way spectral clustering
        x = y / np.sqrt(rwl.pi)
        lam = r1_functional(h, spec, x)
        part = optimal_threshold(x, h, spec)
        iterations, converged, restart = 0, True, 0
    logger.info("%s", json.dumps({"method": method, "setup_s": t1 - t0,
                                  "solve_s": time.perf_counter() - t1}))
    err = clustering_error(part.side_of, labels) if labels is not None else None

    config = {
        "method": method,
        "alpha": alpha,
        "mu_mode": mu_mode,
        "h_kind": spec.h_kind.value,
        "g_kind": spec.g_kind.value,
        "cardinality_recompute_kappa": cardinality_recompute_kappa,
        **asdict(cfg),
    }
    return ClusteringReport(
        source=source, method=method, alpha=alpha,
        ncc=float(part.ncc), error=err, lam=float(lam),
        iterations=iterations, converged=converged, restart_index=restart,
        partition=part.side_of,
        config=config, provenance=provenance or {})
