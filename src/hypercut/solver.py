"""Second eigenpair of the hypergraph 1-Laplacian and NCC-optimal thresholding.

The nonlinear inverse power method (IPM) minimizes the ratio

    R1(x) = sum_e f_e(x) / min_c ||x - c 1||_{1, mu}

whose minimum over non-constant x is the hypergraph's Cheeger constant (f_e
the Lovász extensions; under the clique profile their sum is the total
variation TV of the clique graph).  Each outer step linearizes the
denominator at the current iterate through a zero-sum subgradient v and solves

    min { TV(u) - lam * <u, v> : ||u||_2 <= 1 }

whose solution is u = p / ||p|| with p the proximal point of the total
variation at lam * v, p = argmin TV(x) + 1/2 ||x - lam v||^2.  That prox is
computed exactly by parametric min cuts (Chambolle & Darbon, IJCV 2009):
every level set {p > t} minimizes cut(S) - sum_{i in S} (y_i - t).  A
divide and conquer splits the vertices along one such minimum cut, moves
the weight of the cut edges into y on both sides and recurses; all pieces of
one depth share a single s-t max flow.  The previous iterate is returned
whenever the candidate does not certify descent (non-positive objective), so
the descent contract holds regardless of rounding.

Every improving step moves to the centered indicator of the best threshold
cut of the inner solution (`optimal_threshold`), whose R1 (`r1_functional`)
is the cut's NCC: at most R1 of the solution by the thresholding bound of
Hein & Bühler (NIPS 2010), so the snap keeps descent and lands on exact cuts.

After such a snap the previous iterate is usually optimal for the next inner
problem.  TV(u) - lam * <u, v> is the Lovász extension of the set function
F(A) = cut(A) - lam * v(A) (Hein & Setzer, NIPS 2011), so descent exists
exactly when min_A F(A) < 0.  At a snapped iterate of cut S, F(S) = 0 and
submodularity splits that test into one on the subsets of S and one on its
supersets, which a single max flow on the graph without the arcs across S
decides (`snapped_descent`).  A restart ends when it rules descent out; the
prox runs only when it does not.  `MAX_OUTER_ITERS` only guards against a
restart that the certificate does not end; none has been seen.

The spectral restart starts at the clique 2-Laplacian eigenvector, whose
first prox improves on its best sweep cut.  A random draw's first prox
typically lands on the draw's best sweep cut itself, so a random restart
starts at the centered indicator of that cut and runs the certificate first.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  maximum_flow)

from .core import (EdvwHypergraph, Partition, SubmodularWeightSpec,
                   cut_increments, evaluate_partition, r1_functional,
                   sweep_order, weighted_median, weighted_median_interval)
from .errors import DisconnectedGraphError, SolverConvergenceError
from .reduction import (WeightedGraph, clique_expand, graph_cut,
                        graph_total_variation)

logger = logging.getLogger(__name__)

_TINY = 1e-300

#: second_eigvec_2lap solves exactly with dense eigh up to this many vertices
DENSE_CAP = 64

#: LOBPCG must reach ||L x - lam x|| <= RESIDUAL_TOL * max_i L_ii, a scale
#: at most ||L|| for PSD L (max_i e_i^T L e_i <= lam_max)
RESIDUAL_TOL = 1e-8

#: largest capacity scipy's max flow accepts; it returns flow 0 above it
_INT32_MAX = np.iinfo(np.int32).max

#: safety cap on outer steps; `snapped_descent` ends restarts first
MAX_OUTER_ITERS = 100


@dataclass(frozen=True)
class IpmConfig:
    """Restarts and seeding for the inverse power method."""

    inner_tol: float = 1e-8          # inert: the inner solve is exact; kept
                                     # because bench/harness.py pins it
    n_restarts: int = 5              # first run starts at the spectral
                                     # vector, the others at the best sweep
                                     # cut of a seeded random draw
    rng_seed: int = 0

    def __post_init__(self):
        if self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive")
        if self.n_restarts < 1:
            raise ValueError("need at least one restart")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class IpmIterate:
    """Per-outer-iterate log entry: R1 value and its best threshold NCC."""

    lam: float
    threshold_ncc: float


@dataclass(frozen=True, eq=False)
class EigResult:
    """Approximate second eigenpair of the hypergraph 1-Laplacian."""

    x: np.ndarray        # final iterate of the restart, unit norm
    lam: float           # R1(x); the converged eigenvalue estimate
    iters: int           # outer iterations of the restart
    converged: bool
    restart_index: int
    trace: tuple         # IpmIterate sequence of the restart
    partition: Partition  # optimal_threshold(x), kept from the sweeps


@dataclass(frozen=True, eq=False)
class InnerResult:
    """Outcome of one inner total-variation subproblem."""

    x: np.ndarray
    converged: bool      # always True: the inner solve is exact
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


def _network(indptr: np.ndarray, indices: np.ndarray, w: np.ndarray,
             target: np.ndarray, scale: float) -> sp.csr_array:
    """The s-t network over a graph in CSR form, scaled and floored to int32.

    Vertices 0..k-1 keep their ids, the source is k and the sink k + 1.  Row
    v lists v's graph arcs of capacity w in CSR order, then its sink arc of
    capacity -target_v where negative; the source row has an arc of capacity
    target_v to each v where positive.  Indices stay sorted when the graph's
    are, so scipy's max flow copies nothing to sort them.
    """
    k = target.size
    # the sink arcs end the rows and the source row follows the last
    at = np.append(indptr[1:], np.full(k, indptr[-1]))
    terminal = np.maximum(np.append(-target, target), 0.0)
    # capacities are non-negative, so the casts floor them
    data = np.insert((w * scale).astype(np.int32), at,
                     (terminal * scale).astype(np.int32))
    cols = np.insert(indices, at, np.append(np.full(k, k + 1), np.arange(k)))
    ptr = np.append(indptr + np.arange(k + 1), [indptr[-1] + 2 * k] * 2)
    return sp.csr_array((data, cols.astype(np.int32, copy=False),
                         ptr.astype(np.int32)), shape=(k + 2, k + 2))


def _source_side(net: sp.csr_array) -> np.ndarray:
    """The source side of the minimal minimum cut of an s-t network."""
    k = net.shape[0] - 2
    reach = breadth_first_order(net - maximum_flow(net, k, k + 1).flow > 0, k,
                                return_predecessors=False)
    side = np.zeros(k + 2, dtype=bool)
    side[reach] = True
    return side[:k]


def _restrict(indptr: np.ndarray, indices: np.ndarray, w: np.ndarray,
              keep: np.ndarray, stay: np.ndarray | None = None) -> tuple:
    """The CSR arcs where `keep`, over the vertices where `stay` (default all).

    The rows of vertices outside `stay` must keep no arc.  The vertices that
    stay are renumbered in order, so sorted indices stay sorted.
    """
    kept = np.flatnonzero(keep)
    indptr = np.searchsorted(kept, indptr)  # kept arcs before each row
    indices, w = indices[kept], w[kept]
    if stay is None:
        return indptr, indices, w
    local = (np.cumsum(stay) - 1).astype(np.int32)
    return indptr[np.flatnonzero(np.append(stay, True))], local[indices], w


def tv_prox(g: WeightedGraph, y) -> np.ndarray:
    """p = argmin_x TV(x) + 1/2 ||x - y||^2 by level-synchronous min cuts.

    The vertices are cut into pieces, first one piece holding them all.  A
    piece P whose values are all equal takes the mean t of its (adjusted) y,
    and it is optimal exactly when min_{S in P} F(S) >= 0 for
    F(S) = cut_P(S) - sum_{i in S} (y_i - t).  Otherwise a minimizer S
    holds the vertices of P above t (Chambolle & Darbon, IJCV 2009), so P
    splits into S and the rest, and each edge between them becomes linear:
    its weight moves into y, subtracted on the S side and added on the
    other.  Each round runs one max flow over the union of the unsettled
    pieces, without the arcs between pieces; pieces of one vertex settle at
    once.  Capacities are scaled into int32 and floored, and a piece splits
    only when its source side has F < 0 evaluated in floats.
    """
    n = g.n_vertices
    adj = g.adjacency
    y = np.array(y, dtype=np.float64)        # absorbs the weight of cut edges
    piece = np.zeros(n, dtype=np.int64)
    ids = np.arange(n)                        # vertices of unsettled pieces
    indptr, indices, w = adj.indptr, adj.indices, adj.data  # arcs among them
    while ids.size:
        k = ids.size
        lp = piece[ids]
        size = np.bincount(lp)
        target = y[ids] - (np.bincount(lp, y[ids]) / np.maximum(size, 1))[lp]
        top = max(2.0 * float(w.max(initial=0.0)), float(np.abs(target).max()))
        if top == 0.0:
            break                                 # F(S) = cut(S) >= 0
        scale = _INT32_MAX / top   # an arc and its reverse share a residual
        side = _source_side(_network(indptr, indices, w, target, scale))
        degree = np.diff(indptr)
        head, tail = np.repeat(side, degree), side[indices]
        out = np.flatnonzero(head > tail)         # each cut edge once
        rows = np.repeat(np.arange(k, dtype=np.int32), degree)[out]
        cut = np.bincount(lp[rows], w[out], minlength=size.size)
        gain = np.bincount(lp[side], target[side], minlength=size.size)
        inside = np.bincount(lp[side], minlength=size.size)
        split = (cut < gain) & (inside > 0) & (inside < size)
        if not split.any():
            break
        moving = split[lp]
        mv = moving[rows]
        wm = w[out[mv]]
        y[ids] += (np.bincount(indices[out[mv]], wm, minlength=k)
                   - np.bincount(rows[mv], wm, minlength=k))
        upper = np.zeros(n, dtype=np.int64)
        upper[ids[side & moving]] = 1
        _, piece = np.unique(2 * piece + upper, return_inverse=True)
        stay = moving & (np.bincount(piece)[piece[ids]] > 1)
        keep = np.repeat(stay, degree) & (head == tail)
        indptr, indices, w = _restrict(indptr, indices, w, keep, stay)
        ids = ids[stay]
    return (np.bincount(piece, y) / np.bincount(piece))[piece]


def snapped_descent(g: WeightedGraph, v, lam: float) -> bool:
    """Whether F(A) = cut(A) - lam * v(A) is negative somewhere, when snapped.

    v is the median subgradient of the centered indicator of a cut and lam
    its R1, the cut's NCC, so S = {v > 0} has F(S) = 0.  F is submodular, so
    F(A) + F(S) >= F(A & S) + F(A | S): some A has F(A) < 0 exactly when a
    subset of S or a superset of S does.  These are the tests of MQI (Lang &
    Rao, IPCO 2004) and of FlowImprove (Andersen & Lang, SODA 2008):

        F(A) = cut_S(A) - sum_{i in A} (lam v_i - w(i, S'))    for A in S,
        F(S | B) = cut_S'(B) - sum_{i in B} (lam v_i + w(i, S))  for B in S',

    with S' the rest.  One max flow decides both on the graph without the
    arcs across S, whose weight moves into the targets as in `tv_prox`.  As
    there, capacities are scaled into int32 and floored, so descent within
    one capacity unit per arc goes unreported.
    """
    n = g.n_vertices
    adj = g.adjacency
    v = np.asarray(v, dtype=np.float64)
    side = v > 0.0
    toward = adj @ side.astype(np.float64)   # w(i, S)
    target = lam * v + np.where(side, toward - g.weighted_degrees, toward)
    indptr, indices, w = _restrict(
        adj.indptr, adj.indices, adj.data,
        np.repeat(side, np.diff(adj.indptr)) == side[adj.indices])
    # the whole graph's weights set the unit, as for the unsplit network:
    # the targets cancel up to rounding of that order
    top = max(2.0 * float(adj.data.max()), float(np.abs(target).max()))
    scale = _INT32_MAX / top
    net = _network(indptr, indices, w, target, scale)
    flow = maximum_flow(net, n, n + 1).flow_value
    return (flow / scale - float(np.maximum(target, 0.0).sum())
            < -(net.nnz + 1) / scale)


def inner_tv_solve(g: WeightedGraph, v, lam: float, x_prev=None) -> InnerResult:
    """Minimize TV(x) - lam * <x, v> over the unit 2-norm ball.

    The minimizer is p / ||p|| for the prox p of TV at lam * v (`tv_prox`).
    The previous outer iterate is returned unchanged when p is constant (no
    descent direction) or when the candidate does not certify descent
    (non-positive objective), so the caller's descent contract can never be
    violated.
    """
    n = g.n_vertices
    v = np.asarray(v, dtype=np.float64)
    x_prev = np.zeros(n) if x_prev is None else np.asarray(x_prev, dtype=np.float64)
    if lam > 0.0 and g.adjacency.nnz:
        p = tv_prox(g, lam * v)
        if p.min() < p.max():
            x = p / np.linalg.norm(p)
            if graph_total_variation(g, x) - lam * float(x @ v) <= 0.0:
                return InnerResult(x, True, improved=True)
    return InnerResult(x_prev.copy(), True, improved=False)


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


def _best_prefix(x, mu: np.ndarray, prefix_cuts) -> np.ndarray:
    """Mask of the NCC-best set {v : x_v > t}, given the prefix cuts by rank.

    `prefix_cuts(order, rank)` returns the cuts of the first 1, ..., n - 1
    vertices in the order of decreasing x (ties by id).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size != mu.size:
        raise ValueError("x length must match n_vertices")
    order, rank = sweep_order(x)
    vol_prefix = np.cumsum(mu[order])
    j = _select_best_split(x[order], prefix_cuts(order, rank), vol_prefix[:-1],
                           float(vol_prefix[-1]))
    mask = np.zeros(x.size, dtype=bool)
    mask[order[:j + 1]] = True
    return mask


# graph_r1 and graph_threshold_partition (and reduction.graph_cut) have no
# caller in the package; they stay because bench/tracing.py looks them up
def graph_r1(g: WeightedGraph, x) -> float:
    """TV(x) / min_c ||x - c 1||_{1, mu} on a weighted graph."""
    x = np.asarray(x, dtype=np.float64)
    tv = graph_total_variation(g, x)
    c = weighted_median(x, g.mu)
    denom = float(g.mu @ np.abs(x - c))
    if denom <= 0.0:
        raise ValueError("degenerate input: x is constant")
    return tv / denom


def graph_threshold_partition(x, g: WeightedGraph) -> Partition:
    """NCC-minimizing level-set partition of x on a weighted graph."""
    eu, ev, w = g.edges
    n = g.n_vertices

    def prefix_cuts(order, rank):
        # an edge enters the cut with its first endpoint and leaves with its
        # second, so a vertex adds its degree less twice its earlier edges
        ru = rank[eu]
        first = np.minimum(ru, rank[ev], out=ru)
        return np.cumsum(2.0 * np.bincount(first, w, minlength=n)
                         - g.weighted_degrees[order])[:-1]

    mask = _best_prefix(x, g.mu, prefix_cuts)
    cw = graph_cut(g, mask)  # fresh evaluation, no accumulation drift
    vs = float(g.mu @ mask)
    vsb = float(g.mu @ ~mask)
    return Partition(mask, cw, vs, vsb, cw / min(vs, vsb))


def optimal_threshold(x, h: EdvwHypergraph, spec: SubmodularWeightSpec) -> Partition:
    """NCC-minimizing level-set partition of x under the hypergraph cut cost.

    Sweeps all n - 1 candidate splits S = {v : x_v > t} between distinct
    sorted entries; the cuts of all prefixes come from one sort of the
    memberships (`cut_increments`).
    """
    members = h.memberships[0]

    def prefix_cuts(order, rank):
        return np.cumsum(np.bincount(rank[members],
                                     cut_increments(h, spec, rank),
                                     minlength=h.n_vertices))[:-1]

    return evaluate_partition(h, spec, _best_prefix(x, h.mu, prefix_cuts))


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(x) > 1e-12 * max(1.0, float(np.abs(x).max())))
    if nz.size and x[nz[0]] < 0:
        return -x
    return x


def second_eigvec_2lap(lap, *, nullspace, diagonal=None,
                       rng_seed: int = 0) -> np.ndarray:
    """Eigenvector of the second-smallest eigenvalue of a symmetric PSD operator.

    `lap` is an ndarray, a sparse matrix or a LinearOperator whose kernel is
    spanned by `nullspace`; a LinearOperator needs its `diagonal`.  Up to
    DENSE_CAP vertices it is materialized and solved exactly; larger
    problems use LOBPCG deflated against `nullspace`, then one product
    verifies ||L x - lam x|| <= RESIDUAL_TOL * max_i L_ii (a violation
    raises SolverConvergenceError with diagnostics).  A second eigenvalue
    at most 1e-10 max_i L_ii signals a disconnected operator.
    """
    if diagonal is None:
        if isinstance(lap, spla.LinearOperator):
            raise TypeError("pass diagonal= with a LinearOperator")
        diagonal = lap.diagonal()
    scale = max(float(np.max(diagonal)), _TINY)
    n = lap.shape[0]
    if n <= DENSE_CAP:
        dense = lap.toarray() if sp.issparse(lap) else lap @ np.eye(n)
        evals, evecs = sla.eigh(dense, subset_by_index=[0, 1],
                                overwrite_a=True)
        if evals[1] <= 1e-10 * scale:
            raise DisconnectedGraphError(
                "second eigenvalue is numerically zero; operator is disconnected")
        return _canonical_sign(evecs[:, 1])

    lop = spla.aslinearoperator(lap)
    y = np.asarray(nullspace, dtype=np.float64).reshape(n, 1)
    y = y / np.linalg.norm(y)
    rng = np.random.default_rng(rng_seed)
    x0 = rng.standard_normal((n, 1))
    evals, evecs = spla.lobpcg(lop, x0, Y=y, largest=False,
                               tol=1e-10 * scale, maxiter=2000)
    lam, x = float(evals[0]), evecs[:, 0]

    x = x / np.linalg.norm(x)
    residual = float(np.linalg.norm(lop @ x - lam * x))
    if residual > RESIDUAL_TOL * scale:
        raise SolverConvergenceError(
            "eigensolver missed its residual contract",
            diagnostics={"residual": residual, "max_diagonal": scale,
                         "eigenvalue": lam})
    if lam <= 1e-10 * scale:
        raise DisconnectedGraphError(
            "second eigenvalue is numerically zero; operator is disconnected")
    return _canonical_sign(x)


def _spectral_init(h: EdvwHypergraph, spec: SubmodularWeightSpec,
                   rng_seed: int) -> np.ndarray:
    """Second eigenvector of the mu-normalized clique Laplacian, mapped back."""
    members, edge_of, gamma = h.memberships
    hk = spec.h(h.kappa)[edge_of]
    inv_sqrt_mu = 1.0 / np.sqrt(h.mu)
    # the clique adjacency is B H B^T less its diagonal (B the n x m gammas,
    # H = diag(h(kappa))), so L = diag(B H T / mu) - G G^T, G = mu^-1/2 B H^1/2
    gop = spla.aslinearoperator(sp.csr_array(
        (np.sqrt(hk) * gamma * inv_sqrt_mu[members], members, h.offsets),
        shape=(h.n_hyperedges, h.n_vertices)).T)
    diag = np.bincount(members, hk * gamma * h.totals[edge_of]) / h.mu
    lap = spla.aslinearoperator(sp.diags_array(diag)) - gop @ gop.T
    # L's diagonal, the clique degree over mu: diag less G G^T's h gamma^2
    degree = np.bincount(members, hk * gamma * (h.totals[edge_of] - gamma))
    y = second_eigvec_2lap(lap, nullspace=np.sqrt(h.mu), diagonal=degree / h.mu,
                           rng_seed=rng_seed)
    return inv_sqrt_mu * y


def _ipm_run(g: WeightedGraph, h: EdvwHypergraph, spec: SubmodularWeightSpec,
             x0: np.ndarray, index: int, drawn: bool) -> EigResult:
    mu = h.mu
    if drawn:
        # a random draw holds nothing the first prox could use: start at its
        # best sweep cut, whose NCC the thresholding bound keeps at or below
        # R1 of the draw, and let the certificate decide the first step
        cut = optimal_threshold(x0, h, spec)
        x0 = cut.side_of.astype(np.float64)
    x = _center_normalize(x0, mu)
    if x is None:
        raise ValueError("initial vector is constant")
    lam = r1_functional(h, spec, x)
    if not drawn:  # a drawn start is a cut, its own best level set
        cut = optimal_threshold(x, h, spec)
    trace = [IpmIterate(lam, cut.ncc)]
    converged = False
    iters = 0
    for k in range(MAX_OUTER_ITERS):
        iters = k + 1
        v = median_subgradient(x, mu)
        # every iterate after the first, and a drawn start, is snapped: the
        # split max flow decides whether descent is left before any prox
        if (k or drawn) and not snapped_descent(g, v, lam):
            converged = True
            break
        inner = inner_tv_solve(g, v, lam, x_prev=x)
        if not inner.improved:
            converged = True
            break
        # an improving inner solution is non-constant; the centered indicator
        # of its best level set has R1 equal to that cut's NCC, which the
        # thresholding bound keeps at or below R1 of the solution itself
        part = optimal_threshold(inner.x, h, spec)
        nxt = _center_normalize(part.side_of.astype(np.float64), mu)
        lam_next = r1_functional(h, spec, nxt)
        if lam_next > lam + 1e-10:
            logger.warning("IPM descent violated (%.3e -> %.3e); stopping",
                           lam, lam_next)
            converged = False
            break
        x, lam, cut = nxt, lam_next, part
        trace.append(IpmIterate(lam, cut.ncc))
    return EigResult(x, lam, iters, converged, index, tuple(trace), cut)


def ipm_second_eigvec(h: EdvwHypergraph, spec: SubmodularWeightSpec,
                      cfg: IpmConfig | None = None) -> EigResult:
    """Multi-restart inverse power method for the hypergraph 1-Laplacian.

    Restart 0 starts from the 2-Laplacian spectral vector, the others from
    the best sweep cut of a seeded random vector, as does restart 0 when the
    spectral init fails; a restart that starts on a cut runs the certificate
    before any prox.  The restart whose best level-set cut (`partition`)
    has the smallest NCC wins, index order breaking ties.  R1 decreases
    monotonically within every restart, and a restart ends when the max flow
    split along its snapped cut finds no descent.  Restarts run one after
    another, in index order, on the calling thread.
    """
    cfg = cfg or IpmConfig()
    g = clique_expand(h, spec)  # for the prox and the certificate only
    ncomp, _ = connected_components(g.adjacency, directed=False)
    if ncomp != 1:  # clique weights that underflow to 0 can split g
        raise DisconnectedGraphError(
            f"graph has {ncomp} components; the IPM needs a connected graph")

    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.n_restarts)
    inits = []  # (start vector, whether it is a random draw)
    try:
        inits.append((_spectral_init(h, spec, cfg.rng_seed), False))
    except SolverConvergenceError as exc:
        logger.warning("spectral initialization failed (%s); using random", exc)
    # restart i draws from seeds[i], restart 0 too when the spectral init
    # failed; a normal draw on two or more vertices is not constant
    inits += [(np.random.default_rng(s).standard_normal(h.n_vertices), True)
              for s in seeds[len(inits):]]

    outcomes = [_ipm_run(g, h, spec, x0, i, drawn)
                for i, (x0, drawn) in enumerate(inits)]

    # a cut's NCC may differ in its last bits by side: near-ties are ties
    best = min(r.partition.ncc for r in outcomes) * (1.0 + 1e-12)
    return next(r for r in outcomes if r.partition.ncc <= best)
