"""Cut costs, Lovász extensions, degrees, volumes, NCC and the R1 ratio."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercut import (EdvwHypergraph, GKind, HKind, SubmodularWeightSpec,
                      cut_weight, evaluate_partition, lovasz_extension,
                      r1_functional, submodular_weight, theta_and_degree,
                      volume, weighted_median, with_degree_mu)
from hypercut.core import weighted_median_interval
from hypercut.errors import DisconnectedGraphError
from hypercut.oracle import random_instance

SPECS = [SubmodularWeightSpec(h, g) for h in HKind for g in GKind]


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        EdvwHypergraph(3, [[0]], [[1.0]], [1.0])           # singleton hyperedge
    with pytest.raises(ValueError):
        EdvwHypergraph(3, [[0, 1]], [[1.0, 0.0]], [1.0])   # zero gamma
    with pytest.raises(ValueError):
        EdvwHypergraph(3, [[0, 1]], [[1.0, 1.0]], [0.0])   # zero kappa
    with pytest.raises(ValueError):
        EdvwHypergraph(3, [[0, 3]], [[1.0, 1.0]], [1.0])   # id out of range
    with pytest.raises(ValueError):
        EdvwHypergraph(3, [[0, 0]], [[1.0, 1.0]], [1.0])   # duplicate member
    with pytest.raises(ValueError):
        EdvwHypergraph(3, [[0, 1]], [[1.0, 1.0]], [1.0], [1.0, -1.0, 1.0])


def test_rejects_disconnected_unless_asked():
    edges, gams, kap = [[0, 1], [2, 3]], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]
    with pytest.raises(DisconnectedGraphError):
        EdvwHypergraph(4, edges, gams, kap)
    h = EdvwHypergraph(4, edges, gams, kap, check_connected=False)
    assert h.n_hyperedges == 2


def test_members_are_canonically_sorted():
    h = EdvwHypergraph(3, [[2, 0, 1]], [[3.0, 1.0, 2.0]], [1.0])
    assert h.hyperedges[0].tolist() == [0, 1, 2]
    assert h.gamma[0].tolist() == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# hand-derived running-example values
# ---------------------------------------------------------------------------

def test_submodular_weight_examples(h0, spec_clique):
    assert submodular_weight(h0, spec_clique, 0, [0]) == 5.0
    assert submodular_weight(h0, spec_clique, 0, []) == 0.0
    assert submodular_weight(h0, spec_clique, 0, [0, 1, 2]) == 0.0
    assert submodular_weight(h0, spec_clique, 0, [0, 1]) == 9.0
    assert submodular_weight(h0, spec_clique, 0, [2]) == 9.0
    with pytest.raises(ValueError):
        submodular_weight(h0, spec_clique, 1, [0])  # unknown hyperedge id


def test_weight_evaluates_on_intersection_with_members():
    # S may contain vertices outside the hyperedge; they contribute nothing
    h = EdvwHypergraph(4, [[0, 1], [1, 2, 3]],
                       [[1.0, 2.0], [1.0, 1.0, 1.0]], [1.0, 1.0])
    spec = SubmodularWeightSpec(HKind.IDENTITY, GKind.CLIQUE)
    assert submodular_weight(h, spec, 0, [0, 2, 3]) == \
        submodular_weight(h, spec, 0, [0])


def test_lovasz_examples(h0, spec_clique):
    assert lovasz_extension(h0, spec_clique, 0, [3.0, 2.0, 1.0]) == 14.0
    for c in (-2.0, 0.0, 5.5):
        assert lovasz_extension(h0, spec_clique, 0, [c, c, c]) == 0.0
    assert lovasz_extension(h0, spec_clique, 0, [0.0, 0.0, 1.0]) == 9.0
    with pytest.raises(ValueError):
        lovasz_extension(h0, spec_clique, 0, [1.0, 2.0])  # length mismatch


def test_cut_weight_examples(h0, spec_clique):
    assert cut_weight(h0, spec_clique, [0]) == 5.0
    assert cut_weight(h0, spec_clique, [1]) == 8.0
    assert cut_weight(h0, spec_clique, [2]) == 9.0
    for bad in ([], [0, 1, 2]):
        with pytest.raises(ValueError):
            cut_weight(h0, spec_clique, bad)


def test_theta_and_degree_examples(h0, spec_clique):
    theta, deg = theta_and_degree(h0, spec_clique)
    assert theta.tolist() == [9.0]
    assert deg.tolist() == [9.0, 9.0, 9.0]
    hd = with_degree_mu(h0, spec_clique)
    assert volume(hd, [0, 1, 2]) == 27.0

    pair = EdvwHypergraph(2, [[0, 1]], [[1.0, 1.0]], [7.0])
    theta, _ = theta_and_degree(pair, SubmodularWeightSpec(
        HKind.CONSTANT_ONE, GKind.CLIQUE))
    assert theta.tolist() == [1.0]  # 1 * (2 - 1)


def test_theta_minsplit_closest_achievable_sum(spec_minsplit):
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        gam = rng.uniform(0.1, 3.0, size=k)
        h = EdvwHypergraph(k, [list(range(k))], [gam], [1.0])
        theta, _ = theta_and_degree(h, spec_minsplit)
        sums = np.zeros(1)
        for g in gam:
            sums = np.concatenate([sums, sums + g])
        total = float(gam.sum())
        a_star = sums[np.argmin(np.abs(sums - total / 2.0))]
        assert theta[0] == pytest.approx(min(a_star, total - a_star), rel=1e-12)


def test_theta_greedy_never_exceeds_exact():
    rng = np.random.default_rng(11)
    for spec in SPECS:
        for _ in range(25):
            k = int(rng.integers(2, 11))
            gam = rng.uniform(0.1, 3.0, size=k)
            h = EdvwHypergraph(k, [list(range(k))], [gam], [2.0])
            exact, _ = theta_and_degree(h, spec, exact_cap=16)
            greedy, _ = theta_and_degree(h, spec, exact_cap=1)
            assert greedy[0] <= exact[0] * (1 + 1e-12)


def test_theta_greedy_matches_exact_when_split_is_optimal(spec_clique):
    # equal gammas make the greedy alternation optimal
    h = EdvwHypergraph(4, [[0, 1, 2, 3]], [[1.0, 1.0, 1.0, 1.0]], [1.0])
    exact, _ = theta_and_degree(h, spec_clique, exact_cap=16)
    greedy, _ = theta_and_degree(h, spec_clique, exact_cap=1)
    assert greedy[0] == exact[0] == 4.0  # 2 * (4 - 2)


def test_volume_and_ncc_examples(h0, spec_clique):
    hd = with_degree_mu(h0, spec_clique)
    assert volume(hd, [0]) == 9.0
    assert evaluate_partition(hd, spec_clique, [0]).ncc == \
        pytest.approx(5.0 / 9.0, rel=1e-15)
    assert evaluate_partition(hd, spec_clique, [2]).ncc == \
        pytest.approx(1.0, rel=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(10):
        mask = rng.random(3) < 0.5
        if not mask.any() or mask.all():
            continue
        assert volume(hd, mask) + volume(hd, ~mask) == \
            pytest.approx(volume(hd, np.ones(3, bool)), rel=1e-15)
    with pytest.raises(ValueError):
        evaluate_partition(hd, spec_clique, [0, 1, 2])


def test_r1_examples(h0, spec_clique):
    hd = with_degree_mu(h0, spec_clique)
    x = np.array([3.0, 2.0, 1.0])
    assert r1_functional(hd, spec_clique, x) == pytest.approx(7.0 / 9.0,
                                                              rel=1e-15)
    for c in (-1.0, 2.5):
        assert r1_functional(hd, spec_clique, x + c) == \
            pytest.approx(r1_functional(hd, spec_clique, x), rel=1e-12)
    for a in (0.5, 3.0):
        assert r1_functional(hd, spec_clique, a * x) == \
            pytest.approx(r1_functional(hd, spec_clique, x), rel=1e-12)
    with pytest.raises(ValueError):
        r1_functional(hd, spec_clique, np.full(3, 4.2))


def test_weighted_median_examples():
    assert weighted_median([0.0, 1.0, 3.0], [1.0, 1.0, 1.0]) == 1.0
    assert weighted_median([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) == 5.0
    assert weighted_median([0.0, 1.0], [3.0, 1.0]) == 0.0


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
       st.lists(st.floats(0.01, 10), min_size=12, max_size=12),
       st.floats(-50, 50))
def test_weighted_median_minimizes(xs, ws, probe):
    x = np.array(xs)
    mu = np.array(ws[:len(xs)])
    c = weighted_median(x, mu)
    objective = float(mu @ np.abs(x - c))
    assert objective <= float(mu @ np.abs(x - probe)) + 1e-9
    lo, hi = weighted_median_interval(x, mu)
    assert lo <= hi
    assert float(mu @ np.abs(x - 0.5 * (lo + hi))) <= objective + 1e-9


# ---------------------------------------------------------------------------
# structural properties over randomized instances
# ---------------------------------------------------------------------------

@given(st.integers(0, 10_000))
def test_submodularity_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    h = random_instance(seed, n=int(rng.integers(4, 10)),
                        m=int(rng.integers(2, 6)))
    spec = SPECS[seed % len(SPECS)]
    e = int(rng.integers(0, h.n_hyperedges))
    n = h.n_vertices
    # nested S1 <= S2 with u outside S2
    s2 = rng.random(n) < 0.6
    u = int(rng.integers(0, n))
    s2[u] = False
    s1 = s2 & (rng.random(n) < 0.6)
    w = lambda mask: submodular_weight(h, spec, e, mask)
    s1u, s2u = s1.copy(), s2.copy()
    s1u[u] = s2u[u] = True
    assert w(s1u) - w(s1) >= w(s2u) - w(s2) - 1e-12

    s = rng.random(n) < 0.5
    ws, wc = w(s), w(~s)
    assert abs(ws - wc) <= 1e-12 * max(1.0, abs(ws))


def test_lovasz_on_indicators_matches_set_function():
    for seed in range(5):
        h = random_instance(seed, n=8, m=4)
        spec = SPECS[seed % len(SPECS)]
        for e, ms in enumerate(h.hyperedges):
            k = ms.size
            if k > 10:
                continue
            for mask_bits in range(1 << k):
                x = np.zeros(h.n_vertices)
                chosen = [int(ms[i]) for i in range(k) if mask_bits >> i & 1]
                x[chosen] = 1.0
                assert lovasz_extension(h, spec, e, x) == \
                    submodular_weight(h, spec, e, chosen)


def test_lovasz_homogeneity_and_shift_nullity():
    rng = np.random.default_rng(5)
    for seed in range(10):
        h = random_instance(seed, n=7, m=4)
        spec = SPECS[seed % len(SPECS)]
        e = int(rng.integers(0, h.n_hyperedges))
        x = rng.standard_normal(h.n_vertices)
        f = lovasz_extension(h, spec, e, x)
        for a in (0.25, 2.0, 10.0):
            assert lovasz_extension(h, spec, e, a * x) == \
                pytest.approx(a * f, rel=1e-12, abs=1e-12)
        for c in (-3.0, 0.7):
            assert lovasz_extension(h, spec, e, x + c) == \
                pytest.approx(f, rel=1e-12, abs=1e-12)


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0),
       st.floats(0.5, 20.0), st.sampled_from(list(GKind)))
def test_g_profiles_are_concave(a1, extra, b, total, g_kind):
    # g(a1 + b) - g(a1) >= g(a2 + b) - g(a2) for a1 <= a2, within the domain
    spec = SubmodularWeightSpec(HKind.CONSTANT_ONE, g_kind)
    a1 = min(a1, total)
    a2 = min(a1 + extra, total)
    b = min(b, total - a2)
    lhs = spec.g(total, a1 + b) - spec.g(total, a1)
    rhs = spec.g(total, a2 + b) - spec.g(total, a2)
    assert lhs >= rhs - 1e-12


def test_evaluate_partition_consistency(h0, spec_clique):
    hd = with_degree_mu(h0, spec_clique)
    part = evaluate_partition(hd, spec_clique, [0])
    assert part.cut_weight == 5.0
    assert part.vol_s == 9.0
    assert part.vol_sbar == 18.0
    assert part.ncc == pytest.approx(5.0 / 9.0, rel=1e-15)
    assert part.canonical_key() == \
        evaluate_partition(hd, spec_clique, [1, 2]).canonical_key()
