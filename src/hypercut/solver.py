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

After such a snap the previous iterate is optimal for the next inner problem
far more often than not, and FISTA can only approach that answer
sublinearly.  TV(u) - lam * <u, v> is the Lovász extension of the set
function F(A) = cut(A) - lam * v(A) (Hein & Setzer, NIPS 2011), so descent
exists exactly when min_A F(A) < 0, which one s-t max flow decides; the
inner solve is skipped whenever the flow rules descent out.
"""

from __future__ import annotations

import logging
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components, maximum_flow

from .core import (EdvwHypergraph, Partition, SubmodularWeightSpec,
                   evaluate_partition, weighted_median,
                   weighted_median_interval)
from .errors import DisconnectedGraphError, SolverConvergenceError
from .reduction import WeightedGraph, graph_cut, graph_total_variation

logger = logging.getLogger(__name__)

_TINY = 1e-300

#: second_eigvec_2lap solves exactly with dense eigh up to this many vertices
DENSE_CAP = 1500

#: largest capacity scipy's max flow accepts; it returns flow 0 above it
_INT32_MAX = np.iinfo(np.int32).max


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

    Every length-m operation in the loop releases the GIL and avoids
    threaded BLAS (sparse products, ufuncs, reductions and einsum), so
    restarts running on separate threads proceed in parallel.
    """
    n = g.n_vertices
    v = np.asarray(v, dtype=np.float64)
    x_prev = np.zeros(n) if x_prev is None else np.asarray(x_prev, dtype=np.float64)
    w = g.edges[2]
    m = w.size

    def objective(x: np.ndarray) -> float:
        return graph_total_variation(g, x) - lam * float(x @ v)

    if lam <= 0.0 or m == 0:
        return InnerResult(x_prev.copy(), np.zeros(m), True,
                           objective(x_prev), improved=False)

    target = lam * v
    step = 1.0 / (lipschitz if lipschitz is not None else tv_dual_lipschitz(g))
    incidence = g.incidence_matrix
    incidence_t = incidence.T  # CSC view of the same arrays, nothing copied
    neg_w = -w
    beta = np.zeros(m) if beta0 is None else np.clip(beta0, -w, w)
    z = beta.copy()
    t = 1.0
    converged = False
    stall_tol = cfg.inner_tol * max(1.0, float(w.max()))
    dbeta = np.empty(m)
    scratch = np.empty(m)

    def dual_residual(duals: np.ndarray) -> np.ndarray:
        r = incidence_t @ duals
        r -= target
        return r

    for it in range(1, cfg.inner_max_iters + 1):
        rs = dual_residual(z)
        rs *= -step
        cand = incidence @ rs                # -step * gradient of the dual
        cand += z
        np.clip(cand, neg_w, w, out=cand)    # cand is now the new dual point
        np.subtract(cand, beta, out=dbeta)
        np.subtract(z, cand, out=scratch)
        if np.einsum("i,i->", scratch, dbeta) > 0.0:
            # adaptive restart: momentum points uphill
            t = 1.0
            z[:] = cand
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            np.multiply(dbeta, (t - 1.0) / t_new, out=scratch)
            np.add(cand, scratch, out=z)
            t = t_new
        beta = cand
        if max(dbeta.max(), -dbeta.min()) <= stall_tol:
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
        dense = lap.toarray() if sp.issparse(lap) else lap @ np.eye(n)
        evals, evecs = np.linalg.eigh(dense)
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
class _FlowPattern:
    """Arc layout of the s-t network behind `_cut_descent_ruled_out`.

    Vertices 0..n-1 keep their ids, the source is n and the sink n + 1.  Row
    v lists v's graph arcs in adjacency order followed by its sink arc; the
    source row lists one arc per vertex.  Unused arcs get capacity zero, so
    every check fills a data array of the same layout.  Restart threads share
    one pattern; scipy reads it without writing but refuses read-only arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    graph_slots: np.ndarray   # data positions of the adjacency entries
    sink_slots: np.ndarray    # data position of arc v -> sink, per vertex

    @classmethod
    def of(cls, g: WeightedGraph) -> "_FlowPattern":
        n = g.n_vertices
        adj = g.adjacency
        nnz = int(adj.indptr[-1])
        shift = np.arange(n + 1)
        indptr = np.concatenate([adj.indptr + shift,
                                 [nnz + 2 * n] * 2]).astype(np.int32)
        sink_slots = indptr[1:n + 1] - 1
        graph_slots = np.arange(nnz) + np.repeat(shift[:n], np.diff(adj.indptr))
        indices = np.empty(nnz + 2 * n, dtype=np.int32)
        indices[graph_slots] = adj.indices
        indices[sink_slots] = n + 1
        indices[nnz + n:] = np.arange(n)
        return cls(indptr, indices, graph_slots, sink_slots)


def _cut_descent_ruled_out(g: WeightedGraph, pattern: _FlowPattern,
                           v: np.ndarray, lam: float) -> bool:
    """True when one max flow shows min_A cut(A) - lam * v(A) >= 0.

    v sums to zero, so F(A) = cut(A) - lam * v(A) vanishes on the empty and
    the full set, and its Lovász extension TV(u) - lam * <u, v> is the inner
    objective: no u has a negative inner objective exactly when min F >= 0.
    The network carries the graph arcs both ways, an arc source -> i of
    capacity lam * v_i where v_i > 0 and i -> sink of capacity -lam * v_i
    where v_i < 0; its minimum cut equals sum_{v_i > 0} lam * v_i + min F.
    Capacities are scaled to integers and floored, which can only lower the
    flow, so the test allows one unit per arc.  A graph arc and its reverse
    share one residual capacity in scipy, so their sum must fit in int32 too.
    """
    n = g.n_vertices
    w = g.adjacency.data
    target = lam * v
    scale = _INT32_MAX / max(2.0 * float(w.max()), float(np.abs(target).max()))
    data = np.empty(pattern.indices.size, dtype=np.int32)
    data[pattern.graph_slots] = w * scale   # non-negative: the cast floors
    pos = np.maximum(target, 0.0)
    data[pattern.sink_slots] = np.maximum(-target, 0.0) * scale
    data[-n:] = pos * scale
    net = sp.csr_array((data, pattern.indices, pattern.indptr),
                       shape=(n + 2, n + 2))
    flow = maximum_flow(net, n, n + 1).flow_value
    return flow / scale - float(pos.sum()) >= -(data.size + 1) / scale


@dataclass(frozen=True, eq=False)
class _RunOutcome:
    x: np.ndarray
    lam: float
    iters: int
    converged: bool
    trace: tuple
    partition: Partition


def _ipm_run(g: WeightedGraph, x0: np.ndarray, cfg: IpmConfig,
             lipschitz: float, pattern: _FlowPattern) -> _RunOutcome:
    mu = g.mu
    x = _center_normalize(x0, mu)
    if x is None:
        raise ValueError("initial vector is constant")
    lam = graph_r1(g, x)
    part = graph_threshold_partition(x, g)
    trace = [IpmIterate(lam, part.ncc)]
    beta = None
    converged = False
    snapped = False
    iters = 0
    for k in range(cfg.max_outer_iters):
        iters = k + 1
        v = median_subgradient(x, mu)
        if snapped and _cut_descent_ruled_out(g, pattern, v, lam):
            # the inner solve could only return x itself
            converged = True
            break
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
        snapped = lam_ind < lam_cand
        if snapped:
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


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def ipm_second_eigvec(g: WeightedGraph, cfg: IpmConfig | None = None) -> EigResult:
    """Multi-restart inverse power method for the graph 1-Laplacian.

    One restart starts from the 2-Laplacian spectral vector, the remainder
    from seeded random vectors; the restart whose final thresholded NCC is
    smallest wins (index order breaks ties).  R1 decreases monotonically
    within every restart.  Restarts run concurrently on up to one thread per
    usable CPU; the result does not depend on the thread count.
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

    # cached_property is not thread-safe: fill the caches before the pool
    g.edges, g.incidence_matrix, g.weighted_degrees
    pattern = _FlowPattern.of(g)
    pending = queue.SimpleQueue()
    for item in enumerate(inits):
        pending.put(item)
    outcomes = [None] * len(inits)

    def drain():
        while True:
            try:
                i, x0 = pending.get_nowait()
            except queue.Empty:
                return
            outcomes[i] = _ipm_run(g, x0, cfg, lipschitz, pattern)

    # this thread is one of the workers: each extra thread keeps a malloc
    # arena as large as its FISTA buffers after the pool is gone
    workers = min(cfg.n_restarts, _usable_cpus())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for fut in helpers:
            fut.result()

    best = min(range(len(outcomes)),
               key=lambda i: (outcomes[i].partition.ncc, i))
    out = outcomes[best]
    return EigResult(out.x, out.lam, out.iters, out.converged, best, out.trace)
