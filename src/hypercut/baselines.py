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

from .core import EdvwHypergraph, split_by_sizes
from .errors import SolverConvergenceError
# re-exported: the benchmark's smoke tests size the operator-path run from it
from .solver import DENSE_CAP  # noqa: F401

#: the stationary power iteration stops at this l1 fixed-point residual and
#: gives up after PI_MAX_ITERS steps
PI_TOL = 1e-12
PI_MAX_ITERS = 200_000


@dataclass(frozen=True, eq=False)
class RwLaplacian:
    """Two-step walk in factored form, its stationary distribution and Laplacian.

    The transition matrix is P = p_ve @ p_ev (vertex -> hyperedge ->
    vertex); it is never materialized, and neither is the Laplacian, which
    is exposed only as a LinearOperator.  Products with P^T run on the CSC
    transposes of the factors, taken once per operator and once per build
    (for the stationary power iteration), not once per product.
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
        per side.  The transposed factors are taken here, once per operator,
        so no product rebuilds them.
        """
        n = self.n_vertices
        s = np.sqrt(self.pi)
        inv_s = 1.0 / s
        p_ve, p_ev = self.p_ve, self.p_ev
        p_ve_t, p_ev_t = p_ve.T, p_ev.T

        def apply(x):
            sc, inv = (s, inv_s) if x.ndim == 1 else (s[:, None], inv_s[:, None])
            a = sc * (p_ve @ (p_ev @ (inv * x)))
            b = inv * (p_ev_t @ (p_ve_t @ (sc * x)))
            return x - 0.5 * (a + b)

        return spla.LinearOperator((n, n), matvec=apply, rmatvec=apply,
                                   matmat=apply, rmatmat=apply, dtype=np.float64)

    def laplacian_diagonal(self) -> np.ndarray:
        """1 - P_vv, the diagonal of `laplacian_operator`, from the factors."""
        return 1.0 - (self.p_ve * self.p_ev.T).sum(axis=1)


def build_rw_laplacian(h: EdvwHypergraph) -> RwLaplacian:
    """Assemble the two-step walk and its stationary distribution.

    Hyperedge selection is kappa-proportional and ignores the gammas of the
    selecting vertex; the landing step is gamma-proportional.  The stationary
    distribution comes from power iteration on the factored transition,
    stopped at an l1 fixed-point residual of `PI_TOL`.
    """
    n, m = h.n_vertices, h.n_hyperedges
    members, edge_of, gamma = h.memberships
    # bincount adds in membership order: per vertex, in hyperedge order
    kdeg = np.bincount(members, h.kappa[edge_of], minlength=n)
    p_ev = sp.csr_array((gamma / h.totals[edge_of], members, h.offsets),
                        shape=(m, n))
    p_ve = sp.csr_array((h.kappa[edge_of] / kdeg[members], members, h.offsets),
                        shape=(m, n)).T.tocsr()

    pi = np.full(n, 1.0 / n)
    p_ve_t, p_ev_t = p_ve.T, p_ev.T
    for _ in range(PI_MAX_ITERS):
        nxt = p_ev_t @ (p_ve_t @ pi)
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual <= PI_TOL:
            break
    else:
        raise SolverConvergenceError(
            "stationary distribution power iteration did not converge",
            diagnostics={"residual": residual, "iters": PI_MAX_ITERS})
    if not np.all(pi > 0.0):
        raise SolverConvergenceError("stationary distribution has zero mass")
    return RwLaplacian(p_ve, p_ev, pi)


def cardinality_variant(h: EdvwHypergraph,
                        recompute_kappa_std: bool = False) -> EdvwHypergraph:
    """Copy of h with every member EDVW replaced by one.

    With `recompute_kappa_std` the hyperedge strengths are recomputed from the
    membership indicators by `kappa_from_std`, the rule the dataset builders
    use; otherwise kappa is kept.  Idempotent either way.
    """
    from .datasets import kappa_from_std  # local import; datasets builds on core

    sizes = np.diff(h.offsets)
    ones = np.ones(h.offsets[-1])
    kappa = (kappa_from_std(h.memberships[0], ones, sizes, h.n_vertices)
             if recompute_kappa_std else h.kappa)
    return EdvwHypergraph(h.n_vertices, h.hyperedges,
                          split_by_sizes(ones, sizes), kappa, h.mu)
