"""Comparison methods: the EDVW random-walk Laplacian and the EDVW-blind variant.

The random-walk model does a two-step walk: from a vertex pick an incident
hyperedge proportionally to kappa, then land on a member proportionally to its
gamma within that hyperedge.  The symmetric normalized Laplacian of that walk
is clustered with the ordinary (2-)spectral pipeline (`run_method`'s
"rw-2lap") and thresholded against the same hypergraph NCC objective as the
proposed method, so the two are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import EdvwHypergraph
from .errors import SolverConvergenceError
# re-exported: the benchmark's smoke tests size the operator-path run from it
from .solver import DENSE_CAP  # noqa: F401


@dataclass(frozen=True, eq=False)
class RwLaplacian:
    """Two-step walk in factored form, its stationary distribution and Laplacian.

    The transition matrix is P = p_ve @ p_ev (vertex -> hyperedge ->
    vertex); it is never materialized, and neither is the Laplacian, which
    is exposed only as a LinearOperator.
    """

    p_ve: sp.csr_array   # n x m, rows sum to 1
    p_ev: sp.csr_array   # m x n, rows sum to 1
    pi: np.ndarray       # stationary distribution of the composite walk

    @property
    def n_vertices(self) -> int:
        return self.p_ve.shape[0]

    def laplacian_operator(self) -> spla.LinearOperator:
        """I - (S P S^-1 + S^-1 P^T S) / 2 with S = diag(sqrt(pi)).

        Applies to a vector (n,) or a block (n, k) with two sparse products
        per side.
        """
        n = self.n_vertices
        s = np.sqrt(self.pi)
        inv_s = 1.0 / s

        def apply(x):
            sc, inv = (s, inv_s) if x.ndim == 1 else (s[:, None], inv_s[:, None])
            a = sc * (self.p_ve @ (self.p_ev @ (inv * x)))
            b = inv * (self.p_ev.T @ (self.p_ve.T @ (sc * x)))
            return x - 0.5 * (a + b)

        return spla.LinearOperator((n, n), matvec=apply, rmatvec=apply,
                                   matmat=apply, rmatmat=apply, dtype=np.float64)

    def diagnostics(self) -> dict:
        """JSON-serializable sanity numbers for the walk construction."""
        ones = np.ones(self.n_vertices)
        row_sums = self.p_ve @ (self.p_ev @ ones)
        pi_next = self.p_ev.T @ (self.p_ve.T @ self.pi)
        return {
            "n_vertices": int(self.n_vertices),
            "n_hyperedges": int(self.p_ve.shape[1]),
            "row_sum_max_error": float(np.max(np.abs(row_sums - 1.0))),
            "pi_fixed_point_residual": float(np.abs(pi_next - self.pi).sum()),
            "pi_min": float(self.pi.min()),
            "pi": [float(p) for p in self.pi],
        }


def build_rw_laplacian(h: EdvwHypergraph, pi_tol: float = 1e-12,
                       pi_max_iters: int = 200_000) -> RwLaplacian:
    """Assemble the two-step walk and its stationary distribution.

    Hyperedge selection is kappa-proportional and ignores the gammas of the
    selecting vertex; the landing step is gamma-proportional.  The stationary
    distribution comes from power iteration on the factored transition,
    stopped at an l1 fixed-point residual of `pi_tol`.
    """
    n, m = h.n_vertices, h.n_hyperedges
    kdeg = np.zeros(n)
    for e, ms in enumerate(h.hyperedges):
        kdeg[ms] += h.kappa[e]

    rows, cols, v_ve, v_ev = [], [], [], []
    for e, (ms, gs) in enumerate(zip(h.hyperedges, h.gamma)):
        rows.append(ms)
        cols.append(np.full(ms.size, e, dtype=np.int64))
        v_ve.append(h.kappa[e] / kdeg[ms])
        v_ev.append(gs / float(h.totals[e]))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    p_ve = sp.coo_array((np.concatenate(v_ve), (rows, cols)), shape=(n, m)).tocsr()
    p_ev = sp.coo_array((np.concatenate(v_ev), (cols, rows)), shape=(m, n)).tocsr()

    pi = np.full(n, 1.0 / n)
    for _ in range(pi_max_iters):
        nxt = p_ev.T @ (p_ve.T @ pi)
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual <= pi_tol:
            break
    else:
        raise SolverConvergenceError(
            "stationary distribution power iteration did not converge",
            diagnostics={"residual": residual, "iters": pi_max_iters})
    if not np.all(pi > 0.0):
        raise SolverConvergenceError("stationary distribution has zero mass")
    return RwLaplacian(p_ve, p_ev, pi)


def cardinality_variant(h: EdvwHypergraph,
                        recompute_kappa_std: bool = False) -> EdvwHypergraph:
    """Copy of h with every member EDVW replaced by one.

    With `recompute_kappa_std` the hyperedge strengths are refreshed with the
    membership-indicator standard deviation over all vertices (the rule the
    dataset builders use); otherwise kappa is kept.  Idempotent either way.
    """
    from .datasets import kappa_from_std  # local import; datasets builds on core

    ones = [np.ones(ms.size) for ms in h.hyperedges]
    if recompute_kappa_std:
        kappa = np.array([kappa_from_std(ms, np.ones(ms.size), h.n_vertices)
                          for ms in h.hyperedges])
    else:
        kappa = h.kappa
    return EdvwHypergraph(h.n_vertices, h.hyperedges, ones, kappa, h.mu,
                          check_connected=False)
