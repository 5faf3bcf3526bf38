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

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

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

    def h(self, kappa: float) -> float:
        if self.h_kind is HKind.CONSTANT_ONE:
            return 1.0
        return float(kappa)

    def g(self, total: float, x):
        """Evaluate g on a scalar or array of gamma masses in [0, total]."""
        if self.g_kind is GKind.CLIQUE:
            return x * (total - x)
        return np.minimum(x, total - x)


def _as_float_array(values, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64)
    except OverflowError as exc:  # a Python int beyond the float range
        raise ValueError(f"{name} must be finite: {exc}") from exc
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _as_int64_array(values, name: str) -> np.ndarray:
    """Integral values as int64; non-integral or out-of-int64 entries raise.

    A plain int64 cast would truncate 2.5 to 2 and turn ids of 2**63 and more
    into an OverflowError; here both fail the round-trip comparison.
    """
    arr = np.asarray(values)
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


def connected_component_labels(n_vertices: int, hyperedges: Sequence) -> np.ndarray:
    """Union-find over hyperedge member sets; isolated vertices stay singletons."""
    parent = np.arange(n_vertices, dtype=np.int64)

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    for members in hyperedges:
        ms = np.asarray(members, dtype=np.int64)
        r0 = find(int(ms[0]))
        for v in ms[1:]:
            rv = find(int(v))
            if rv != r0:
                parent[rv] = r0
    labels = np.fromiter((find(v) for v in range(n_vertices)), dtype=np.int64,
                         count=n_vertices)
    # relabel to 0..k-1 in order of first appearance
    _, labels = np.unique(labels, return_inverse=True)
    return labels


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
    check_connected : bool
        The model assumes a connected hypergraph; tests and intermediate
        pipelines may disable the check.
    """

    n_vertices: int
    hyperedges: tuple = ()
    gamma: tuple = ()
    kappa: np.ndarray = None
    mu: np.ndarray = None
    check_connected: bool = field(default=True, repr=False)

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

        members_out, gamma_out = [], []
        for i, (members, gvals) in enumerate(zip(self.hyperedges, self.gamma)):
            ms = _as_int64_array(members, f"hyperedge {i} members")
            gs = _as_float_array(gvals, f"gamma[{i}]")
            if ms.ndim != 1 or ms.size != gs.size:
                raise ValueError(f"hyperedge {i}: members/gamma length mismatch")
            if ms.size < 2:
                raise ValueError(f"hyperedge {i} has fewer than two members")
            if ms.min() < 0 or ms.max() >= n:
                raise ValueError(f"hyperedge {i} has out-of-range vertex ids")
            if np.unique(ms).size != ms.size:
                raise ValueError(f"hyperedge {i} has duplicate members")
            if not np.all((gs > 0.0) & (gs < np.inf)):
                raise ValueError(
                    f"hyperedge {i} has non-positive or non-finite gamma values")
            order = np.argsort(ms)  # canonical member order
            ms, gs = ms[order], gs[order]
            ms.setflags(write=False)
            gs.setflags(write=False)
            members_out.append(ms)
            gamma_out.append(gs)

        if self.check_connected and n > sum(ms.size for ms in members_out):
            # refused before any length-n allocation: n may be huge
            raise DisconnectedGraphError(
                f"n_vertices {n} exceeds the total hyperedge membership, "
                "so some vertex lies in no hyperedge")
        kap = _as_float_array(self.kappa, "kappa")
        if kap.size != len(members_out):
            raise ValueError("kappa length must match the number of hyperedges")
        if not np.all((kap > 0.0) & (kap < np.inf)):
            raise ValueError("kappa values must be positive and finite")
        mu = (np.ones(n) if self.mu is None
              else _as_float_array(self.mu, "mu").copy())
        if mu.size != n:
            raise ValueError("mu length must match n_vertices")
        if not np.all((mu > 0.0) & (mu < np.inf)):
            raise ValueError("mu values must be positive and finite")
        kap = kap.copy()
        kap.setflags(write=False)
        mu.setflags(write=False)

        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "hyperedges", tuple(members_out))
        object.__setattr__(self, "gamma", tuple(gamma_out))
        object.__setattr__(self, "kappa", kap)
        object.__setattr__(self, "mu", mu)

        if self.check_connected:
            labels = connected_component_labels(n, members_out)
            if labels.max() != 0:
                raise DisconnectedGraphError(
                    f"hypergraph is disconnected ({labels.max() + 1} components)")

    @property
    def n_hyperedges(self) -> int:
        return len(self.hyperedges)

    @cached_property
    def totals(self) -> np.ndarray:
        """Total gamma mass T_e per hyperedge.

        Accumulated sequentially so that g(T_e, mass) vanishes exactly on the
        full member set, matching the prefix sums used everywhere else.
        """
        t = np.array([g.cumsum()[-1] for g in self.gamma])
        t.setflags(write=False)
        return t

    @cached_property
    def incidence(self) -> tuple:
        """Per-vertex (hyperedge ids, gamma values) arrays, ids ascending."""
        members = np.concatenate(self.hyperedges)
        edge_of = np.repeat(np.arange(self.n_hyperedges),
                            [ms.size for ms in self.hyperedges])
        order = np.argsort(members, kind="stable")  # keeps hyperedge order
        bounds = np.cumsum(np.bincount(members, minlength=self.n_vertices))[:-1]
        eids = np.split(edge_of[order], bounds)
        gvals = np.split(np.concatenate(self.gamma)[order], bounds)
        for a in eids + gvals:
            a.setflags(write=False)
        return tuple(zip(eids, gvals))

    def with_mu(self, mu) -> "EdvwHypergraph":
        """Return a copy with replaced vertex weights."""
        return EdvwHypergraph(self.n_vertices, self.hyperedges, self.gamma,
                              self.kappa, mu, check_connected=False)

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


def cut_weight(h: EdvwHypergraph, spec: SubmodularWeightSpec, subset) -> float:
    """Total cut cost sum_e w_e(S) for a proper non-empty S."""
    mask = as_subset_mask(h.n_vertices, subset)
    if not mask.any() or mask.all():
        raise ValueError("cut is undefined for the empty or full vertex set")
    total = 0.0
    for e, (ms, gs) in enumerate(zip(h.hyperedges, h.gamma)):
        mass = float(gs @ mask[ms])
        total += spec.h(h.kappa[e]) * float(spec.g(float(h.totals[e]), mass))
    return total


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
    for g in np.sort(gamma_e)[::-1]:
        if a <= b:
            a += g
        else:
            b += g
    return spec.h(kappa_e) * float(spec.g(total, a))


def theta_and_degree(h: EdvwHypergraph, spec: SubmodularWeightSpec,
                     exact_cap: int = DEFAULT_EXACT_CAP):
    """Per-hyperedge maximal cut cost theta_e and the vertex degrees it induces.

    theta_e = max over S of w_e(S), exact by enumeration for hyperedges of up
    to `exact_cap` members and via a deterministic greedy balanced split above
    that (the greedy value never exceeds the exact maximum).  The degree of a
    vertex sums theta_e over its incident hyperedges and is the usual choice
    for the vertex weights mu.
    """
    theta = np.empty(h.n_hyperedges)
    for e, (ms, gs) in enumerate(zip(h.hyperedges, h.gamma)):
        total = float(h.totals[e])
        if ms.size <= exact_cap:
            theta[e] = _theta_exact(spec, h.kappa[e], gs, total)
        else:
            theta[e] = _theta_greedy(spec, h.kappa[e], gs, total)
    deg = np.zeros(h.n_vertices)
    for e, ms in enumerate(h.hyperedges):
        deg[ms] += theta[e]
    return theta, deg


def with_degree_mu(h: EdvwHypergraph, spec: SubmodularWeightSpec,
                   exact_cap: int = DEFAULT_EXACT_CAP) -> EdvwHypergraph:
    """Copy of h with mu set to the theta-induced vertex degrees."""
    _, deg = theta_and_degree(h, spec, exact_cap)
    return h.with_mu(deg)


def volume(h: EdvwHypergraph, subset) -> float:
    """mu-mass of a non-empty vertex subset."""
    mask = as_subset_mask(h.n_vertices, subset)
    if not mask.any():
        raise ValueError("volume of the empty set is undefined here")
    return float(h.mu @ mask)


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
    numerator = sum(lovasz_extension(h, spec, e, x)
                    for e in range(h.n_hyperedges))
    c = weighted_median(x, h.mu)
    denominator = float(h.mu @ np.abs(x - c))
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
    vs = float(h.mu @ mask)
    vsb = float(h.mu @ ~mask)
    return Partition(mask, cw, vs, vsb, cw / min(vs, vsb))
