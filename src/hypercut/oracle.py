"""Brute-force ground truth on small instances, plus seeded instance generators.

The exact Cheeger constant is found by enumerating every one of the
2^(n-1) - 1 two-block splits, which stays interactive up to twenty vertices.
Enumeration is vectorized over chunks of bitmask-encoded subsets.
"""

from __future__ import annotations

import numpy as np

from .core import EdvwHypergraph, SubmodularWeightSpec, evaluate_partition

MAX_EXACT_VERTICES = 20
_CHUNK = 1 << 18


def exact_h2(h: EdvwHypergraph, spec: SubmodularWeightSpec):
    """Exact minimal NCC and its argmin partition by full enumeration.

    Subsets never contain vertex 0 (each split is visited once via its
    complement).  Ties go to the lexicographically smallest block containing
    vertex 0.  Returns (h2, Partition).
    """
    n = h.n_vertices
    if n > MAX_EXACT_VERTICES:
        raise ValueError(
            f"refusing exact enumeration for n={n} > {MAX_EXACT_VERTICES}")
    n_masks = (1 << (n - 1))  # masks over vertices 1..n-1; 0 stays out of S
    h_vals = spec.h(h.kappa)
    mu_bits = h.mu[1:]

    best = np.inf
    best_masks: list[int] = []
    for start in range(1, n_masks, _CHUNK):
        stop = min(start + _CHUNK, n_masks)
        masks = np.arange(start, stop, dtype=np.uint64)
        bits = [((masks >> np.uint64(v - 1)) & np.uint64(1)).astype(np.float64)
                for v in range(1, n)]
        cut = np.zeros(masks.size)
        for e, (ms, gs) in enumerate(zip(h.hyperedges, h.gamma)):
            mass = np.zeros(masks.size)
            for vtx, gamma in zip(ms, gs):
                if vtx == 0:
                    continue  # vertex 0 is never in S
                mass += gamma * bits[vtx - 1]
            cut += h_vals[e] * spec.g(float(h.totals[e]), mass)
        vol_s = np.zeros(masks.size)
        for v in range(1, n):
            vol_s += mu_bits[v - 1] * bits[v - 1]
        nccs = cut / np.minimum(vol_s, float(h.mu.sum()) - vol_s)
        lo = float(nccs.min())
        if lo < best:
            best = lo
            best_masks = []
        if lo <= best:
            best_masks.extend(int(m) for m in masks[nccs == best])

    def block_with_zero(mask: int) -> tuple:
        inside = [v for v in range(1, n) if (mask >> (v - 1)) & 1]
        return tuple(v for v in range(n) if v not in inside)

    chosen = min(best_masks, key=block_with_zero)
    members = [v for v in range(1, n) if (chosen >> (v - 1)) & 1]
    part = evaluate_partition(h, spec, members)
    return part.ncc, part


def random_instance(seed: int, n: int, m: int,
                    gamma_range=(0.5, 2.0), kappa_range=(0.5, 2.0),
                    max_size: int | None = None) -> EdvwHypergraph:
    """Seeded random connected EDVW hypergraph (mu left at ones).

    Hyperedges are grown as a covering chain (each new hyperedge anchors on an
    already-covered vertex and pulls in fresh ones) so connectivity holds by
    construction; any remaining hyperedges are uniform random subsets.  The
    same seed always yields the same instance.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = np.random.default_rng(seed)
    cap = max(2, min(n, max_size if max_size is not None else min(n, 5)))
    if n > cap + (m - 1) * (cap - 1):
        raise ValueError(
            f"m={m} hyperedges of at most {cap} members cannot cover n={n}")
    perm = list(rng.permutation(n))

    edges: list[list[int]] = []
    first_min = max(2, n - (m - 1) * (cap - 1))
    first = max(int(rng.integers(2, cap + 1)), first_min)
    covered = perm[:first]
    pool = perm[first:]
    edges.append(sorted(covered))
    while pool:
        # leave enough budget for the remaining uncovered vertices
        slack = (m - len(edges) - 1) * (cap - 1)
        fresh = max(int(rng.integers(1, cap)), len(pool) - slack)
        fresh = min(fresh, cap - 1, len(pool))
        take, pool = pool[:fresh], pool[fresh:]
        anchor = int(rng.choice(covered))
        edges.append(sorted(take + [anchor]))
        covered.extend(take)
    while len(edges) < m:
        size = int(rng.integers(2, cap + 1))
        edges.append(sorted(rng.choice(n, size=size, replace=False).tolist()))

    gamma = [rng.uniform(*gamma_range, size=len(e)) for e in edges]
    kappa = rng.uniform(*kappa_range, size=len(edges))
    return EdvwHypergraph(n, edges, gamma, kappa)
