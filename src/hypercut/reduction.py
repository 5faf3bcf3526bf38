"""Clique expansion of EDVW hypergraphs and graph total-variation evaluation.

Under the clique profile g(x) = x * (T - x) the hypergraph cut machinery is
equivalent to an ordinary weighted graph: each hyperedge contributes
h(kappa(e)) * gamma_e(u) * gamma_e(v) to the adjacency entry of every member
pair.  The equivalence covers both the Lovász-extension sum (equal to graph
total variation) and set cuts (equal to graph cuts), which the test-suite
checks on randomized instances.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse as sp

from .core import EdvwHypergraph, GKind, SubmodularWeightSpec, as_subset_mask
from .errors import UnsupportedReductionError

logger = logging.getLogger(__name__)

#: warn when an expansion would materialize more member pairs than this
DEFAULT_PAIR_BUDGET = 20_000_000


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Sparse symmetric non-negatively weighted graph with vertex weights."""

    n_vertices: int
    adjacency: sp.csr_array  # symmetric, zero diagonal
    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64).copy()
        if mu.size != self.n_vertices or not np.all(mu > 0.0):
            raise ValueError("mu must be positive and match n_vertices")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)

    @cached_property
    def edges(self):
        """Upper-triangle edge list (u, v, weight), each undirected edge once."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        u = coo.row.astype(np.int64)
        v = coo.col.astype(np.int64)
        w = coo.data.astype(np.float64)
        for a in (u, v, w):
            a.setflags(write=False)
        return u, v, w

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        d = np.asarray(self.adjacency.sum(axis=1)).ravel()
        d.setflags(write=False)
        return d

    @cached_property
    def incidence_matrix(self) -> sp.csr_array:
        """Signed edge-difference operator D with (Dx)_e = x_u - x_v."""
        u, v, _ = self.edges
        m = u.size
        rows = np.concatenate([np.arange(m), np.arange(m)])
        cols = np.concatenate([u, v])
        vals = np.concatenate([np.ones(m), -np.ones(m)])
        return sp.csr_array((vals, (rows, cols)),
                            shape=(m, self.n_vertices))


def clique_expand(h: EdvwHypergraph, spec: SubmodularWeightSpec,
                  pair_budget: int = DEFAULT_PAIR_BUDGET) -> WeightedGraph:
    """Expand every hyperedge into a weighted clique.

    Only valid for the clique g profile; other profiles have no known
    graph-equivalent cut structure and raise UnsupportedReductionError.
    Contributions of different hyperedges to the same vertex pair accumulate.
    Expansion materializes Theta(|e|^2) pairs per hyperedge; a warning is
    logged when the total exceeds `pair_budget`.
    """
    if spec.g_kind is not GKind.CLIQUE:
        raise UnsupportedReductionError(
            f"no clique expansion for g kind {spec.g_kind.value!r}")
    n = h.n_vertices
    total_pairs = sum(ms.size * (ms.size - 1) // 2 for ms in h.hyperedges)
    if total_pairs > pair_budget:
        logger.warning(
            "clique expansion materializes %d vertex pairs "
            "(budget %d); expect high memory use", total_pairs, pair_budget)

    rows, cols, vals = [], [], []
    for e, (ms, gs) in enumerate(zip(h.hyperedges, h.gamma)):
        iu, iv = np.triu_indices(ms.size, k=1)
        rows.append(ms[iu])
        cols.append(ms[iv])
        vals.append(spec.h(h.kappa[e]) * gs[iu] * gs[iv])
    upper = sp.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    adj = (upper + upper.T).tocsr()
    return WeightedGraph(n, adj, h.mu)


def graph_total_variation(g: WeightedGraph, x) -> float:
    """(1/2) sum_{u,v} A_uv |x_u - x_v|, each undirected edge counted once."""
    x = np.asarray(x, dtype=np.float64)
    if x.size != g.n_vertices:
        raise ValueError("x length must match n_vertices")
    u, v, w = g.edges
    return float(w @ np.abs(x[u] - x[v]))


def graph_cut(g: WeightedGraph, subset) -> float:
    """Total weight of edges crossing a proper non-empty subset."""
    mask = as_subset_mask(g.n_vertices, subset)
    if not mask.any() or mask.all():
        raise ValueError("cut is undefined for the empty or full vertex set")
    u, v, w = g.edges
    return float(w @ (mask[u] != mask[v]))


def export_matrix_market(g: WeightedGraph, path) -> None:
    """Write the adjacency as a symmetric coordinate matrix-market file."""
    scipy.io.mmwrite(str(path), sp.coo_matrix(g.adjacency),
                     symmetry="symmetric")
