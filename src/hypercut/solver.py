"""Second eigenpair of the graph 1-Laplacian and NCC-optimal thresholding.

The nonlinear inverse power method (IPM) minimizes the ratio

    R1(x) = TV(x) / min_c ||x - c 1||_{1, mu}

whose minimum over non-constant x equals the Cheeger constant of the graph.
Each outer step linearizes the denominator at the current iterate through a
zero-sum subgradient v and solves

    min { TV(u) - lam * <u, v> : ||u||_2 <= 1 }

which is handled in the dual: TV(u) = max { <beta, Du> : |beta_e| <= w_e }
with D the signed edge-difference operator, so the inner problem reduces to a
box-constrained least-norm program over edge dual variables, solved with
FISTA (accelerated projected gradient with adaptive restart).  A feasible
inner iterate with non-positive objective certifies monotone descent of R1,
since the previous iterate itself has objective exactly zero.

Outer iterates are additionally compared against the centered indicator
vector of their own best threshold cut; whenever that indicator has a smaller
R1 value (it never has a larger NCC, by the thresholding bound) it becomes
the next iterate.  This keeps the descent guarantee intact and snaps the
method onto exact cuts quickly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .core import (EdvwHypergraph, Partition, SubmodularWeightSpec,
                   evaluate_partition, weighted_median,
                   weighted_median_interval)
from .errors import DisconnectedGraphError, SolverConvergenceError
from .reduction import WeightedGraph, graph_cut, graph_total_variation

logger = logging.getLogger(__name__)

_TINY = 1e-300

#: second_eigvec_2lap solves exactly with dense eigh up to this many vertices
DENSE_CAP = 1500


@dataclass(frozen=True)
class IpmConfig:
    """Tolerances, iteration caps and seeding for the inverse power method."""

    max_outer_iters: int = 100
    outer_tol: float = 1e-6          # relative R1 decrease below which we stop
    inner_max_iters: int = 2000
    inner_tol: float = 1e-8          # sup-norm stall tolerance on edge duals
    n_restarts: int = 5              # first run is spectrally initialized
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_outer_iters < 1 or self.inner_max_iters < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.outer_tol <= 0 or self.inner_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.n_restarts < 1:
            raise ValueError("need at least one restart")


@dataclass(frozen=True)
class IpmIterate:
    """Per-outer-iterate log entry: R1 value and its best threshold NCC."""

    lam: float
    threshold_ncc: float


@dataclass(frozen=True, eq=False)
class EigResult:
    """Approximate second eigenpair of the graph 1-Laplacian."""

    x: np.ndarray        # final iterate of the selected restart, unit norm
    lam: float           # R1(x); the converged eigenvalue estimate
    iters: int           # outer iterations of the selected restart
    converged: bool
    restart_index: int
    trace: tuple         # IpmIterate sequence of the selected restart

    def to_json_dict(self) -> dict:
        return {
            "x": [float(t) for t in self.x],
            "lambda": float(self.lam),
            "iters": int(self.iters),
            "converged": bool(self.converged),
            "restart_index": int(self.restart_index),
            "trace": [{"lambda": it.lam, "threshold_ncc": it.threshold_ncc}
                      for it in self.trace],
        }


@dataclass(frozen=True, eq=False)
class InnerResult:
    """Outcome of one inner total-variation subproblem."""

    x: np.ndarray
    beta: np.ndarray     # edge duals, reusable as a warm start
    converged: bool
    objective: float     # TV(x) - lam * <x, v> of the returned vector
    improved: bool       # False when the previous iterate was returned


def median_subgradient(x, mu) -> np.ndarray:
    """Zero-sum subgradient of x -> min_c ||x - c 1||_{1, mu} at x.

    Entries are mu(v) * sign(x_v - c) at the weighted median c; entries tied
    at the median absorb the sign imbalance so the result sums to zero, which
    is exactly the first-order condition tying c to optimality.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    c = weighted_median(x, mu)
    diff = x - c
    v = mu * np.sign(diff)
    ties = diff == 0.0
    excess = float(v.sum())
    wz = float(mu[ties].sum())  # positive: c is one of the data values
    v[ties] = -excess * (mu[ties] / wz)
    return v


def graph_r1(g: WeightedGraph, x) -> float:
    """TV(x) / min_c ||x - c 1||_{1, mu} on a weighted graph."""
    x = np.asarray(x, dtype=np.float64)
    tv = graph_total_variation(g, x)
    c = weighted_median(x, g.mu)
    denom = float(g.mu @ np.abs(x - c))
    if denom <= 0.0:
        raise ValueError("degenerate input: x is constant")
    return tv / denom


def _center_normalize(x, mu):
    """Shift by the midpoint of the weighted-median interval, scale to unit norm.

    Returns None when x is (numerically) constant.  The midpoint rather than
    the smallest optimal median keeps symmetric inputs symmetric, e.g. a
    two-vertex vector centers to +/- (1, -1) / sqrt(2).
    """
    lo, hi = weighted_median_interval(x, mu)
    y = x - 0.5 * (lo + hi)
    nrm = float(np.linalg.norm(y))
    if nrm <= 1e-14 * max(1.0, float(np.abs(x).max())):
        return None
    return y / nrm


def tv_dual_lipschitz(g: WeightedGraph) -> float:
    """Safe upper bound on the dual gradient Lipschitz constant lambda_max(D^T D).

    D^T D is the unweighted Laplacian of the edge structure, whose largest
    eigenvalue is at most twice the maximum vertex degree.
    """
    eu, ev, _ = g.edges
    if eu.size == 0:
        return 1.0
    deg = np.bincount(eu, minlength=g.n_vertices) \
        + np.bincount(ev, minlength=g.n_vertices)
    return float(2.0 * deg.max())


def inner_tv_solve(g: WeightedGraph, v, lam: float, cfg: IpmConfig,
                   x_prev=None, beta0=None,
                   lipschitz: float | None = None) -> InnerResult:
    """Approximately minimize TV(x) - lam * <x, v> over the unit 2-norm ball.

    Runs FISTA on the dual box program min ||D^T beta - lam v||^2 over
    |beta_e| <= w_e and recovers the primal point from the residual.  The
    previous outer iterate is returned unchanged whenever the candidate does
    not certify descent (non-positive objective), so the caller's descent
    contract can never be violated.
    """
    n = g.n_vertices
    v = np.asarray(v, dtype=np.float64)
    x_prev = np.zeros(n) if x_prev is None else np.asarray(x_prev, dtype=np.float64)
    eu, ev, w = g.edges
    m = eu.size

    def objective(x: np.ndarray) -> float:
        return float(w @ np.abs(x[eu] - x[ev]) - lam * (x @ v))

    if lam <= 0.0 or m == 0:
        return InnerResult(x_prev.copy(), np.zeros(m), True,
                           objective(x_prev), improved=False)

    target = lam * v
    step = 1.0 / (lipschitz if lipschitz is not None else tv_dual_lipschitz(g))
    incidence = g.incidence_matrix
    neg_w = -w
    beta = np.zeros(m) if beta0 is None else np.clip(beta0, -w, w)
    z = beta.copy()
    t = 1.0
    converged = False
    stall_tol = cfg.inner_tol * max(1.0, float(w.max()))
    dbeta = np.empty(m)
    scratch = np.empty(m)

    def dual_residual(duals: np.ndarray) -> np.ndarray:
        r = np.bincount(eu, weights=duals, minlength=n)
        r -= np.bincount(ev, weights=duals, minlength=n)
        r -= target
        return r

    for it in range(1, cfg.inner_max_iters + 1):
        cand = incidence @ dual_residual(z)  # gradient of the dual objective
        np.multiply(cand, -step, out=cand)
        cand += z
        np.clip(cand, neg_w, w, out=cand)    # cand is now the new dual point
        np.subtract(cand, beta, out=dbeta)
        np.subtract(z, cand, out=scratch)
        if float(scratch @ dbeta) > 0.0:
            # adaptive restart: momentum points uphill
            t = 1.0
            z[:] = cand
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            np.multiply(dbeta, (t - 1.0) / t_new, out=scratch)
            np.add(cand, scratch, out=z)
            t = t_new
        beta, cand = cand, beta  # reuse the old buffer next round
        if float(np.max(np.abs(dbeta))) <= stall_tol:
            converged = True
            break
        if it % 25 == 0:
            # certified stop: primal-dual gap of the recovered unit vector
            rr = dual_residual(beta)
            nr = float(np.linalg.norm(rr))
            if nr <= _TINY:
                break
            gap = objective(-rr / nr) + nr
            if gap <= cfg.inner_tol * max(1.0, nr):
                converged = True
                break

    r = dual_residual(beta)
    nr = float(np.linalg.norm(r))
    if nr <= _TINY:
        return InnerResult(x_prev.copy(), beta, converged,
                           objective(x_prev), improved=False)
    x = -r / nr
    obj = objective(x)
    if obj <= 0.0:
        return InnerResult(x, beta, converged, obj, improved=True)
    return InnerResult(x_prev.copy(), beta, converged,
                       objective(x_prev), improved=False)


def _select_best_split(x_sorted: np.ndarray, cuts: np.ndarray,
                       vol_prefix: np.ndarray, vol_total: float) -> int:
    """Pick the best prefix split; ties prefer balanced volumes, then small S."""
    boundary = np.flatnonzero(x_sorted[:-1] != x_sorted[1:])
    if boundary.size == 0:
        raise ValueError("degenerate input: x is constant")
    vol_s = vol_prefix[boundary]
    minvol = np.minimum(vol_s, vol_total - vol_s)
    nccs = cuts[boundary] / minvol
    k = np.lexsort((boundary, -minvol, nccs))[0]
    return int(boundary[k])


def graph_threshold_partition(x, g: WeightedGraph) -> Partition:
    """NCC-minimizing level-set partition of x on a weighted graph."""
    x = np.asarray(x, dtype=np.float64)
    if x.size != g.n_vertices:
        raise ValueError("x length must match n_vertices")
    n = g.n_vertices
    order = np.argsort(-x, kind="stable")
    xs = x[order]
    vol_prefix = np.cumsum(g.mu[order])
    vol_total = float(vol_prefix[-1])

    adj = g.adjacency
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    wdeg = g.weighted_degrees
    acc = np.zeros(n)          # edge mass from each vertex into the prefix
    cuts = np.empty(n - 1)
    cur = 0.0
    for j in range(n - 1):
        vtx = order[j]
        cur += wdeg[vtx] - 2.0 * acc[vtx]
        lo, hi = indptr[vtx], indptr[vtx + 1]
        acc[indices[lo:hi]] += data[lo:hi]
        cuts[j] = cur

    j = _select_best_split(xs, cuts, vol_prefix[:-1], vol_total)
    mask = np.zeros(n, dtype=bool)
    mask[order[:j + 1]] = True
    cw = graph_cut(g, mask)  # fresh evaluation, no accumulation drift
    vs = float(g.mu @ mask)
    vsb = float(g.mu @ ~mask)
    return Partition(mask, cw, vs, vsb, cw / min(vs, vsb))


def optimal_threshold(x, h: EdvwHypergraph, spec: SubmodularWeightSpec) -> Partition:
    """NCC-minimizing level-set partition of x under the hypergraph cut cost.

    Sweeps all n - 1 candidate splits S = {v : x_v > t} between distinct
    sorted entries, maintaining per-hyperedge gamma masses incrementally.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size != h.n_vertices:
        raise ValueError("x length must match n_vertices")
    n = h.n_vertices
    order = np.argsort(-x, kind="stable")
    xs = x[order]
    vol_prefix = np.cumsum(h.mu[order])
    vol_total = float(vol_prefix[-1])

    h_vals = np.array([spec.h(k) for k in h.kappa])
    totals = h.totals
    mass = np.zeros(h.n_hyperedges)
    contrib = np.zeros(h.n_hyperedges)
    cuts = np.empty(n - 1)
    cur = 0.0
    for j in range(n - 1):
        eids, gvals = h.incidence[order[j]]
        if eids.size:
            mass[eids] += gvals
            newc = h_vals[eids] * spec.g(totals[eids], mass[eids])
            cur += float((newc - contrib[eids]).sum())
            contrib[eids] = newc
        cuts[j] = cur

    j = _select_best_split(xs, cuts, vol_prefix[:-1], vol_total)
    mask = np.zeros(n, dtype=bool)
    mask[order[:j + 1]] = True
    return evaluate_partition(h, spec, mask)


def _operator_norm_estimate(lop, n: int, iters: int = 80) -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    est = 1.0
    for _ in range(iters):
        y = lop @ x
        est = float(np.linalg.norm(y))
        if est <= _TINY:
            return _TINY
        x = y / est
    return est


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(x) > 1e-12 * max(1.0, float(np.abs(x).max())))
    if nz.size and x[nz[0]] < 0:
        return -x
    return x


def second_eigvec_2lap(lap, *, nullspace, rng_seed: int = 0,
                       residual_tol: float = 1e-8) -> np.ndarray:
    """Eigenvector of the second-smallest eigenvalue of a symmetric PSD operator.

    `lap` is an ndarray, a sparse matrix or a LinearOperator whose kernel is
    spanned by `nullspace`.  Up to DENSE_CAP vertices it is materialized and
    solved exactly; larger problems use LOBPCG deflated against `nullspace`,
    with the residual contract ||L x - lam x|| <= residual_tol * ||L||
    verified (a violation raises SolverConvergenceError with diagnostics).
    A numerically zero second eigenvalue signals a disconnected operator.
    """
    n = lap.shape[0]
    if n <= DENSE_CAP:
        evals, evecs = np.linalg.eigh(lap @ np.eye(n))
        scale = max(float(np.abs(evals).max()), _TINY)
        if evals[1] <= 1e-10 * scale:
            raise DisconnectedGraphError(
                "second eigenvalue is numerically zero; operator is disconnected")
        return _canonical_sign(evecs[:, 1])

    lop = spla.aslinearoperator(lap)
    norm_est = max(_operator_norm_estimate(lop, n), _TINY)
    y = np.asarray(nullspace, dtype=np.float64).reshape(n, 1)
    y = y / np.linalg.norm(y)
    rng = np.random.default_rng(rng_seed)
    x0 = rng.standard_normal((n, 1))
    evals, evecs = spla.lobpcg(lop, x0, Y=y, largest=False,
                               tol=1e-10 * norm_est, maxiter=2000)
    lam, x = float(evals[0]), evecs[:, 0]

    x = x / np.linalg.norm(x)
    residual = float(np.linalg.norm(lop @ x - lam * x))
    if residual > residual_tol * norm_est:
        raise SolverConvergenceError(
            "eigensolver missed its residual contract",
            diagnostics={"residual": residual, "norm_estimate": norm_est,
                         "eigenvalue": lam})
    if lam <= 1e-10 * norm_est:
        raise DisconnectedGraphError(
            "second eigenvalue is numerically zero; operator is disconnected")
    return _canonical_sign(x)


def _spectral_init(g: WeightedGraph, rng_seed: int) -> np.ndarray:
    """Second eigenvector of the mu-normalized 2-Laplacian, mapped back."""
    inv_sqrt_mu = 1.0 / np.sqrt(g.mu)
    lap = (sp.diags_array(g.weighted_degrees * inv_sqrt_mu ** 2)
           - sp.diags_array(inv_sqrt_mu) @ g.adjacency @ sp.diags_array(inv_sqrt_mu))
    y = second_eigvec_2lap(lap, nullspace=np.sqrt(g.mu), rng_seed=rng_seed)
    return inv_sqrt_mu * y


@dataclass(frozen=True, eq=False)
class _RunOutcome:
    x: np.ndarray
    lam: float
    iters: int
    converged: bool
    trace: tuple
    partition: Partition


def _ipm_run(g: WeightedGraph, x0: np.ndarray, cfg: IpmConfig,
             lipschitz: float) -> _RunOutcome:
    mu = g.mu
    x = _center_normalize(x0, mu)
    if x is None:
        raise ValueError("initial vector is constant")
    lam = graph_r1(g, x)
    part = graph_threshold_partition(x, g)
    trace = [IpmIterate(lam, part.ncc)]
    beta = None
    converged = False
    iters = 0
    for k in range(cfg.max_outer_iters):
        iters = k + 1
        v = median_subgradient(x, mu)
        inner = inner_tv_solve(g, v, lam, cfg, x_prev=x, beta0=beta,
                               lipschitz=lipschitz)
        beta = inner.beta
        if not inner.improved:
            converged = True
            break
        cand = _center_normalize(inner.x, mu)
        if cand is None:
            converged = True
            break
        lam_cand = graph_r1(g, cand)
        part_cand = graph_threshold_partition(cand, g)
        # cut-improvement step: the centered indicator of the best threshold
        # set has R1 equal to that cut's NCC and never loses to the candidate
        # by more than the thresholding bound allows
        indicator = _center_normalize(part_cand.side_of.astype(np.float64), mu)
        lam_ind = graph_r1(g, indicator) if indicator is not None else np.inf
        if lam_ind < lam_cand:
            nxt, lam_next = indicator, lam_ind
        else:
            nxt, lam_next = cand, lam_cand
        if lam_next > lam + 1e-10:
            logger.warning("IPM descent violated (%.3e -> %.3e); stopping",
                           lam, lam_next)
            converged = False
            break
        drop = lam - lam_next
        x, lam = nxt, lam_next
        part = graph_threshold_partition(x, g)
        trace.append(IpmIterate(lam, part.ncc))
        if drop <= cfg.outer_tol * max(lam, _TINY):
            converged = True
            break
    lam = graph_r1(g, x)  # keep (x, lam) exactly consistent
    return _RunOutcome(x, lam, iters, converged, tuple(trace),
                       graph_threshold_partition(x, g))


def ipm_second_eigvec(g: WeightedGraph, cfg: IpmConfig | None = None) -> EigResult:
    """Multi-restart inverse power method for the graph 1-Laplacian.

    One restart starts from the 2-Laplacian spectral vector, the remainder
    from seeded random vectors; the restart whose final thresholded NCC is
    smallest wins (index order breaks ties).  R1 decreases monotonically
    within every restart.
    """
    cfg = cfg or IpmConfig()
    ncomp, _ = connected_components(g.adjacency, directed=False)
    if ncomp != 1:
        raise DisconnectedGraphError(
            f"graph has {ncomp} components; the IPM needs a connected graph")

    lipschitz = tv_dual_lipschitz(g)
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.n_restarts)
    inits: list[np.ndarray] = []
    try:
        inits.append(_spectral_init(g, cfg.rng_seed))
    except SolverConvergenceError as exc:
        logger.warning("spectral initialization failed (%s); using random", exc)
        inits.append(np.random.default_rng(seeds[0]).standard_normal(g.n_vertices))
    for i in range(1, cfg.n_restarts):
        rng = np.random.default_rng(seeds[i])
        x0 = rng.standard_normal(g.n_vertices)
        while _center_normalize(x0, g.mu) is None:  # vanishing draws are resampled
            x0 = rng.standard_normal(g.n_vertices)
        inits.append(x0)

    outcomes = [_ipm_run(g, x0, cfg, lipschitz) for x0 in inits]

    best = min(range(len(outcomes)),
               key=lambda i: (outcomes[i].partition.ncc, i))
    out = outcomes[best]
    return EigResult(out.x, out.lam, out.iters, out.converged, best, out.trace)
