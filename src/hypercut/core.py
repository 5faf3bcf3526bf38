"""Hypergraphs with edge-dependent vertex weights (EDVWs) and submodular cut costs.

A hypergraph here carries, for every hyperedge e, a positive strength kappa(e)
and per-member importance scores gamma_e(v) > 0.  Cut costs are generated from
a vetted (h, g) pair:

    w_e(S) = h(kappa(e)) * g(sum of gamma_e over S's members of e)

where g is concave on [0, T_e], symmetric about T_e / 2 and g(0) = 0
(T_e is the total gamma mass of e).  Any such w_e is symmetric, submodular
and vanishes on the empty set, which is what the rest of the package relies
on.  Only vetted g kinds are instantiable, so the properties hold by
construction rather than by runtime checking.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DisconnectedGraphError

logger = logging.getLogger(__name__)

#: largest hyperedge size for which the exact max-cut value is enumerated
DEFAULT_EXACT_CAP = 16


class HKind(Enum):
    """Strength-to-scale maps h: R+ -> R+."""

    CONSTANT_ONE = "constant-one"
    IDENTITY = "identity"


class GKind(Enum):
    """Concave symmetric profiles g on [0, T] with g(0) = 0."""

    CLIQUE = "clique"        # g(x) = x * (T - x); clique-expansion reducible
    MIN_SPLIT = "min-split"  # g(x) = min(x, T - x); no graph reduction


@dataclass(frozen=True)
class SubmodularWeightSpec:
    """Selects the (h, g) pair defining every hyperedge's cut cost."""

    h_kind: HKind = HKind.IDENTITY
    g_kind: GKind = GKind.CLIQUE

    def __post_init__(self):
        # accept raw strings from config files / CLI flags
        object.__setattr__(self, "h_kind", HKind(self.h_kind))
        object.__setattr__(self, "g_kind", GKind(self.g_kind))

    def h(self, kappa):
        """Evaluate h on a scalar or array of hyperedge strengths."""
        kappa = np.asarray(kappa, dtype=np.float64)
        if self.h_kind is HKind.CONSTANT_ONE:
            return np.ones_like(kappa)
        return kappa

    def g(self, total: float, x):
        """Evaluate g on a scalar or array of gamma masses in [0, total]."""
        if self.g_kind is GKind.CLIQUE:
            return x * (total - x)
        return np.minimum(x, total - x)


def _asarray(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    # numpy reads [1, True] as [1, 1]: lists, tuples, object arrays are scanned
    items = arr.flat if arr.dtype == object else (
        values if isinstance(values, (list, tuple)) else ())
    if arr.dtype == bool or any(isinstance(v, (bool, np.bool_)) for v in items):
        raise ValueError(f"{name} must be numbers, not booleans")
    return arr


def _as_float_array(values, name: str) -> np.ndarray:
    arr = _asarray(values, name)
    if arr.dtype.kind not in "iuf":  # strings and objects: refused, not cast
        raise ValueError(f"{name} must be numbers")
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr.astype(np.float64, copy=False)


def _as_int64_array(values, name: str) -> np.ndarray:
    """Integral values as int64; non-integral or out-of-int64 entries raise.

    A plain int64 cast would truncate 2.5 to 2 and turn ids of 2**63 and more
    into an OverflowError; here both fail the round-trip comparison.
    """
    arr = _asarray(values, name)
    if arr.dtype == np.int64:
        return arr
    if arr.dtype.kind not in "iufO":
        raise ValueError(f"{name} must be integers")
    try:
        with np.errstate(invalid="ignore"):  # out-of-range floats
            out = arr.astype(np.int64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be integers within int64") from exc
    if not np.array_equal(out, arr):
        raise ValueError(f"{name} must be integers within int64")
    return out


def as_subset_mask(n_vertices: int, subset) -> np.ndarray:
    """Normalize a vertex subset (boolean mask or id iterable) to a bool mask."""
    if isinstance(subset, np.ndarray) and subset.dtype == bool:
        if subset.shape != (n_vertices,):
            raise ValueError("boolean subset mask has wrong length")
        return subset
    idx = np.asarray(list(subset), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n_vertices):
        raise ValueError("subset contains out-of-range vertex ids")
    mask = np.zeros(n_vertices, dtype=bool)
    mask[idx] = True
    return mask


def _checked_mu(mu, n: int) -> np.ndarray:
    """Read-only copy of vertex weights (all ones for None); bad values raise."""
    mu = np.ones(n) if mu is None else _as_float_array(mu, "mu").copy()
    if mu.size != n:
        raise ValueError("mu length must match n_vertices")
    if not np.all((mu > 0.0) & (mu < np.inf)):
        raise ValueError("mu values must be positive and finite")
    mu.setflags(write=False)
    return mu


#: the constructor's per-hyperedge checks, in the order they are reported
_MEMBERSHIP_FAULTS = ("has fewer than two members",
                      "has out-of-range vertex ids",
                      "has duplicate members",
                      "has non-positive or non-finite gamma values")


def _checked_memberships(n: int, members: list, gammas: list) -> tuple:
    """Members and gammas of all hyperedges, each hyperedge sorted by id.

    `members` and `gammas` hold one converted 1-d array per hyperedge, of
    equal sizes.  All memberships are checked at once; the first faulty
    hyperedge is reported with its first failing check in
    `_MEMBERSHIP_FAULTS` order.  Returns the concatenated sorted members,
    the hyperedge of each, their gammas and the hyperedge sizes.
    """
    sizes = np.array([ms.size for ms in members], dtype=np.int64)
    k = sizes.size
    edge_of = np.repeat(np.arange(k), sizes)
    flat = np.concatenate(members)
    # (hyperedge, rank of id) keys sort as (hyperedge, id) and stay below
    # k * len(flat), whatever n is
    rank = np.unique(flat, return_inverse=True)[1]
    order = np.argsort(edge_of * flat.size + rank)
    flat = flat[order]  # edge_of keeps its order
    gamma = np.concatenate(gammas)[order]

    def per_edge(mask):
        return np.bincount(edge_of[mask], minlength=k) > 0

    repeated = np.zeros(flat.size, dtype=bool)
    repeated[1:] = (flat[1:] == flat[:-1]) & (edge_of[1:] == edge_of[:-1])
    faults = np.stack([sizes < 2, per_edge((flat < 0) | (flat >= n)),
                       per_edge(repeated),
                       per_edge(~((gamma > 0.0) & (gamma < np.inf)))])
    faulty = faults.any(axis=0)
    if faulty.any():
        e = int(np.argmax(faulty))
        check = int(np.argmax(faults[:, e]))
        raise ValueError(f"hyperedge {e} {_MEMBERSHIP_FAULTS[check]}")
    return flat, edge_of, gamma, sizes


def split_by_sizes(flat: np.ndarray, sizes) -> list:
    """Consecutive pieces of `flat` with the given sizes, as views."""
    ends = np.cumsum(sizes).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def connected_component_labels(n_vertices: int, members: np.ndarray,
                               sizes) -> np.ndarray:
    """Component of every vertex, numbered 0..k-1 in order of first appearance.

    The hyperedges are given as their concatenated `members`, one entry of
    `sizes` per hyperedge.  Components of the bipartite vertex-hyperedge
    graph restricted to the vertices, so component 0 holds vertex 0;
    isolated vertices stay singletons.
    """
    size = n_vertices + len(sizes)
    # row n + e lists the members of hyperedge e; vertex rows are empty
    indptr = np.zeros(size + 1, dtype=np.int64)
    indptr[n_vertices + 1:] = np.cumsum(sizes)
    graph = sp.csr_array((np.ones(members.size), members, indptr),
                         shape=(size, size))
    _, labels = connected_components(graph, connection="weak")
    _, first, labels = np.unique(labels[:n_vertices], return_index=True,
                                 return_inverse=True)
    return np.argsort(np.argsort(first))[labels]


@dataclass(frozen=True, eq=False)
class EdvwHypergraph:
    """Immutable hypergraph with EDVWs.

    Parameters
    ----------
    n_vertices : int
        Size of the vertex set {0, ..., n_vertices - 1}.
    hyperedges : sequence of vertex-id sequences
        Each hyperedge must have at least two distinct members.
    gamma : sequence of positive finite float sequences
        gamma[i][j] is the importance of hyperedges[i][j]; off-members are
        implicitly zero.
    kappa : positive finite floats, one per hyperedge.
    mu : positive finite vertex weights; defaults to all ones.

    `memberships` keeps the validated (vertex, hyperedge id, gamma) arrays,
    read-only and hyperedge-major, that every cut, expansion and walk reads;
    hyperedge e holds their entries offsets[e]:offsets[e + 1], and
    `hyperedges` and `gamma` are views of these per-hyperedge slices.

    The model assumes a connected hypergraph: a vertex in no hyperedge or a
    second component raises DisconnectedGraphError.
    """

    n_vertices: int
    hyperedges: tuple = ()
    gamma: tuple = ()
    kappa: np.ndarray = None
    mu: np.ndarray = None

    def __post_init__(self):
        n = _as_int64_array(self.n_vertices, "n_vertices")
        if n.ndim != 0:
            raise ValueError("n_vertices must be a single integer")
        n = int(n)
        if n < 2:
            raise ValueError("need at least two vertices")
        if len(self.hyperedges) != len(self.gamma):
            raise ValueError("hyperedges and gamma must have equal length")
        if len(self.hyperedges) == 0:
            raise ValueError("need at least one hyperedge")

        members, gammas, fault = [], [], None
        for i, (ms, gs) in enumerate(zip(self.hyperedges, self.gamma)):
            try:
                ms = _as_int64_array(ms, f"hyperedge {i} members")
                gs = _as_float_array(gs, f"gamma[{i}]")
                if ms.ndim != 1 or ms.size != gs.size:
                    raise ValueError(
                        f"hyperedge {i}: members/gamma length mismatch")
            except (TypeError, ValueError) as exc:
                fault = exc
                break
            members.append(ms)
            gammas.append(gs)
        if members:  # a fault in an earlier hyperedge is reported first
            flat, edge_of, gamma, sizes = _checked_memberships(
                n, members, gammas)
        if fault is not None:
            raise fault

        if n > flat.size:
            # refused before any length-n allocation: n may be huge
            raise DisconnectedGraphError(
                f"n_vertices {n} exceeds the total hyperedge membership, "
                "so some vertex lies in no hyperedge")
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for a in (flat, edge_of, gamma, offsets):
            a.setflags(write=False)  # and so are the per-hyperedge views
        kap = _as_float_array(self.kappa, "kappa")
        if kap.size != sizes.size:
            raise ValueError("kappa length must match the number of hyperedges")
        if not np.all((kap > 0.0) & (kap < np.inf)):
            raise ValueError("kappa values must be positive and finite")
        kap = kap.copy()
        kap.setflags(write=False)

        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "hyperedges",
                           tuple(split_by_sizes(flat, sizes)))
        object.__setattr__(self, "gamma", tuple(split_by_sizes(gamma, sizes)))
        object.__setattr__(self, "kappa", kap)
        object.__setattr__(self, "mu", _checked_mu(self.mu, n))
        object.__setattr__(self, "memberships", (flat, edge_of, gamma))
        object.__setattr__(self, "offsets", offsets)

        labels = connected_component_labels(n, flat, sizes)
        if labels.max() != 0:
            raise DisconnectedGraphError(
                f"hypergraph is disconnected ({labels.max() + 1} components)")

    @property
    def n_hyperedges(self) -> int:
        return len(self.hyperedges)

    @cached_property
    def totals(self) -> np.ndarray:
        """Total gamma mass T_e per hyperedge, summed in member order.

        `submodular_weight` sums a subset's gamma the same way, so its
        w_e(e) is exactly zero.  The sweep of `cut_increments` takes each
        mass as a difference of one running sum over all memberships, so its
        last mass of e may miss T_e by rounding (up to 8e-13 relative on the
        seed-1 bench inputs), and a prefix holding all of e keeps that
        residual of e's cut instead of zero.
        """
        _, edge_of, gamma = self.memberships
        t = np.bincount(edge_of, gamma, minlength=self.n_hyperedges)
        t.setflags(write=False)
        return t

    def with_mu(self, mu) -> "EdvwHypergraph":
        """Return a copy with replaced vertex weights.

        Only the new mu is validated; the structure arrays and every cached
        property that does not depend on mu are shared with self.
        """
        out = copy.copy(self)  # shallow: shares the instance dict's values
        object.__setattr__(out, "mu", _checked_mu(mu, self.n_vertices))
        return out

    def _check_edge_id(self, e: int) -> int:
        e = int(e)
        if not 0 <= e < self.n_hyperedges:
            raise ValueError(f"unknown hyperedge id {e}")
        return e


def submodular_weight(h: EdvwHypergraph, spec: SubmodularWeightSpec,
                      e: int, subset) -> float:
    """Cut cost w_e(S); S may be any vertex subset (only S's members of e count)."""
    e = h._check_edge_id(e)
    mask = as_subset_mask(h.n_vertices, subset)
    inside = h.gamma[e][mask[h.hyperedges[e]]]
    # sequential accumulation in member order, bit-identical to the prefix
    # sums of the Lovász extension on indicator vectors
    mass = float(inside.cumsum()[-1]) if inside.size else 0.0
    return float(spec.h(h.kappa[e]) * spec.g(float(h.totals[e]), mass))


def lovasz_extension(h: EdvwHypergraph, spec: SubmodularWeightSpec,
                     e: int, x) -> float:
    """Lovász extension f_e(x) of w_e, evaluated over e's members.

    Off-members never contribute: w_e(S) = w_e(S ∩ e) and w_e(e) = 0, so the
    extension reduces to a sum over the sorted member entries of x.
    """
    e = h._check_edge_id(e)
    x = _as_float_array(x, "x")
    if x.size != h.n_vertices:
        raise ValueError("x length must match n_vertices")
    xm = x[h.hyperedges[e]]
    order = np.argsort(-xm, kind="stable")
    xs = xm[order]
    prefix = np.cumsum(h.gamma[e][order])[:-1]
    weights = spec.h(h.kappa[e]) * spec.g(float(h.totals[e]), prefix)
    return float(weights @ (xs[:-1] - xs[1:]))


def sweep_order(x: np.ndarray) -> tuple:
    """Vertices by decreasing x (ties by id) and each vertex's rank in that order."""
    order = np.argsort(-x, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return order, rank


def cut_increments(h: EdvwHypergraph, spec: SubmodularWeightSpec,
                   rank: np.ndarray) -> np.ndarray:
    """Change of the cut cost as each membership's vertex joins S, by rank.

    Vertices join S one at a time in increasing `rank`.  One argsort of the
    unique keys e * n + rank orders the memberships by (hyperedge, rank);
    segmented gamma prefix sums then give every membership (e, v) the
    increment h(kappa_e) * (g(T_e, after) - g(T_e, before)), with before/after
    the gamma mass of e inside S just before and after v joins.  So the cut of
    the first j + 1 vertices is the sum of the increments of ranks <= j, and
    by Abel summation sum_e f_e(x) = increments @ x[members] when rank sorts
    x decreasingly.  Returned in `h.memberships` order.
    """
    members, edge_of, gamma = h.memberships
    order = np.argsort(edge_of * h.n_vertices + rank[members])
    mass = np.cumsum(gamma[order])
    base = np.zeros(h.n_hyperedges)
    base[1:] = mass[h.offsets[1:-1] - 1]
    mass -= base[edge_of]  # edge_of[order] == edge_of: segments stay put
    after = spec.h(h.kappa)[edge_of] * spec.g(h.totals[edge_of], mass)
    before = np.empty_like(after)
    before[1:] = after[:-1]
    before[h.offsets[:-1]] = 0.0  # g(T, 0) = 0
    increments = np.empty_like(after)
    increments[order] = after - before
    return increments


def cut_weight(h: EdvwHypergraph, spec: SubmodularWeightSpec, subset) -> float:
    """Total cut cost sum_e w_e(S) for a proper non-empty S."""
    mask = as_subset_mask(h.n_vertices, subset)
    if not mask.any() or mask.all():
        raise ValueError("cut is undefined for the empty or full vertex set")
    members, edge_of, gamma = h.memberships
    # member-order sums, as in totals: a hyperedge inside S costs exactly 0
    mass = np.bincount(edge_of, gamma * mask[members])
    return float((spec.h(h.kappa) * spec.g(h.totals, mass)).cumsum()[-1])


def _theta_exact(spec: SubmodularWeightSpec, kappa_e: float,
                 gamma_e: np.ndarray, total: float) -> float:
    # enumerate all achievable gamma subset sums (2^|e| doubling)
    sums = np.zeros(1)
    for g in gamma_e:
        sums = np.concatenate([sums, sums + g])
    return spec.h(kappa_e) * float(np.max(spec.g(total, sums)))


def _theta_greedy(spec: SubmodularWeightSpec, kappa_e: float,
                  gamma_e: np.ndarray, total: float) -> float:
    # balanced-split heuristic: largest-first onto the lighter side
    a = b = 0.0
    for g in np.sort(gamma_e)[::-1].tolist():
        if a <= b:
            a += g
        else:
            b += g
    return spec.h(kappa_e) * float(spec.g(total, a))


def theta_and_degree(h: EdvwHypergraph, spec: SubmodularWeightSpec):
    """Per-hyperedge maximal cut cost theta_e and the vertex degrees it induces.

    theta_e = max over S of w_e(S), exact by enumeration for hyperedges of up
    to `DEFAULT_EXACT_CAP` members and via a deterministic greedy balanced
    split above that (the greedy value never exceeds the exact maximum).
    The degree of a vertex sums theta_e over its incident hyperedges and is
    the usual choice for the vertex weights mu.
    """
    theta = np.empty(h.n_hyperedges)
    for e, (ms, gs) in enumerate(zip(h.hyperedges, h.gamma)):
        total = float(h.totals[e])
        if ms.size <= DEFAULT_EXACT_CAP:
            theta[e] = _theta_exact(spec, h.kappa[e], gs, total)
        else:
            theta[e] = _theta_greedy(spec, h.kappa[e], gs, total)
    members, edge_of, _ = h.memberships
    # bincount adds in membership order: per vertex, in hyperedge order
    deg = np.bincount(members, theta[edge_of], minlength=h.n_vertices)
    return theta, deg


def with_degree_mu(h: EdvwHypergraph,
                   spec: SubmodularWeightSpec) -> EdvwHypergraph:
    """Copy of h with mu set to the theta-induced vertex degrees."""
    _, deg = theta_and_degree(h, spec)
    return h.with_mu(deg)


def volume(h: EdvwHypergraph, subset) -> float:
    """mu-mass of a non-empty vertex subset."""
    mask = as_subset_mask(h.n_vertices, subset)
    if not mask.any():
        raise ValueError("volume of the empty set is undefined here")
    return math.fsum(h.mu[mask])


def weighted_median(x, mu) -> float:
    """Smallest c minimizing sum_v mu_v |x_v - c| (the mu-weighted median)."""
    return weighted_median_interval(x, mu)[0]


def weighted_median_interval(x, mu):
    """Closed interval [lo, hi] of all minimizers of sum mu |x - c|."""
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cum = np.cumsum(mu[order])
    half = cum[-1] / 2.0
    i = int(np.searchsorted(cum, half))
    lo = float(xs[i])
    # flat stretch only when the lower half-mass is hit exactly
    hi = float(xs[i + 1]) if (cum[i] == half and i + 1 < xs.size) else lo
    return lo, hi


def r1_functional(h: EdvwHypergraph, spec: SubmodularWeightSpec, x) -> float:
    """Ratio of summed Lovász extensions to the median-centered weighted 1-norm.

    Shift- and positive-scale-invariant; undefined for constant x.
    """
    x = _as_float_array(x, "x")
    if x.size != h.n_vertices:
        raise ValueError("x length must match n_vertices")
    if np.max(x) == np.min(x):
        raise ValueError("degenerate input: x is constant")
    _, rank = sweep_order(x)
    # centering leaves every f_e unchanged (w_e(e) = 0) and keeps the
    # increments @ x sum free of cancellation against a large offset
    y = x - weighted_median(x, h.mu)
    numerator = float(cut_increments(h, spec, rank) @ y[h.memberships[0]])
    denominator = float(h.mu @ np.abs(y))
    return numerator / denominator


@dataclass(frozen=True, eq=False)
class Partition:
    """A two-block vertex split with its cached cut statistics."""

    side_of: np.ndarray  # bool; True marks membership in S
    cut_weight: float
    vol_s: float
    vol_sbar: float
    ncc: float

    def __post_init__(self):
        mask = np.asarray(self.side_of, dtype=bool).copy()
        if not mask.any() or mask.all():
            raise ValueError("both blocks of a partition must be non-empty")
        mask.setflags(write=False)
        object.__setattr__(self, "side_of", mask)

    def canonical_key(self) -> bytes:
        """Representation-independent identity (block of vertex 0)."""
        side = self.side_of if self.side_of[0] else ~self.side_of
        return side.tobytes()

    def block(self, side: bool = True) -> np.ndarray:
        return np.flatnonzero(self.side_of == side)


def evaluate_partition(h: EdvwHypergraph, spec: SubmodularWeightSpec,
                       subset) -> Partition:
    """Build a Partition for S with freshly computed cut, volumes and NCC."""
    mask = as_subset_mask(h.n_vertices, subset)
    if not mask.any() or mask.all():
        raise ValueError("both blocks of a partition must be non-empty")
    cw = cut_weight(h, spec, mask)
    # exactly rounded sums: no thread count, order or numbering moves them
    vs, vsb = math.fsum(h.mu[mask]), math.fsum(h.mu[~mask])
    return Partition(mask, cw, vs, vsb, cw / min(vs, vsb))
