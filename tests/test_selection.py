"""Token selection: contributions, kNN graph, reverse pass, MMD stopping.

The reverse-selection oracle is a from-scratch scalar simulation of the
pick/penalize/MMD loop, kept free of the library's incremental updates.
"""

import math

import numpy as np
import pytest

from mmprune.errors import InsufficientTokensError, ShapeError
from mmprune.selection import (AmiaParams, build_knn, forward_update, kernel_matrix,
                               pairwise_cosine_distances, reverse_select, select_amia,
                               select_tokens, token_contributions)


# ---------------------------------------------------------------------------
# token_contributions


def test_identity_attention_contributions():
    np.testing.assert_array_equal(token_contributions(np.eye(3)), [0.0, 0.0, 1.0])


def test_uniform_causal_attention_contributions():
    attn = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [1 / 3, 1 / 3, 1 / 3, 0.0],
        [0.25, 0.25, 0.25, 0.25],
    ])
    np.testing.assert_allclose(token_contributions(attn), [0.25] * 4)


def test_contributions_match_manual_softmax():
    logits = [0.3, 0.7]
    e = [math.exp(v) for v in logits]
    row = [v / sum(e) for v in e]
    attn = np.array([[1.0, 0.0], row])
    np.testing.assert_allclose(token_contributions(attn), row, rtol=1e-6)


def test_contributions_reject_non_square():
    with pytest.raises(ShapeError):
        token_contributions(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# kNN graph


def test_knn_identical_tokens_unit_weights():
    z = np.tile([1.0, 2.0], (4, 1))
    graph = build_knn(z, k=3, gamma=1.0)
    np.testing.assert_allclose(graph.weights, 1.0, atol=1e-12)
    for i in range(4):
        assert i not in graph.neighbors[i]


def test_knn_orthogonal_axes_kernel_value():
    z = np.eye(4)
    graph = build_knn(z, k=3, gamma=1.0)
    np.testing.assert_allclose(graph.weights, math.exp(-1.0), rtol=1e-9)


def test_knn_matches_exhaustive_sort_oracle():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((10, 5))
    graph = build_knn(z, k=3, gamma=1.0)

    def unit(v):
        return v / math.sqrt(sum(x * x for x in v))

    for i in range(10):
        dists = []
        for j in range(10):
            if j == i:
                continue
            d = 1.0 - sum(a * b for a, b in zip(unit(z[i]), unit(z[j])))
            dists.append((d, j))
        expected = [j for _, j in sorted(dists)[:3]]
        assert sorted(graph.neighbors[i]) == sorted(expected)


def test_knn_tie_break_prefers_lower_index():
    # tokens 1, 2, 3 identical; token 0's three neighbors are all at the same
    # distance, so they are taken in index order
    z = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    graph = build_knn(z, k=3, gamma=1.0)
    assert list(graph.neighbors[0]) == [1, 2, 3]


def test_knn_order_matches_stable_argsort_on_ties():
    # integer grids, duplicated rows and zero rows make many equal distances;
    # neighbors must come nearest first, equal distances in index order
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 14))
        d = int(rng.integers(1, 4))
        z = rng.integers(-1, 2, size=(n, d)).astype(float)
        z[rng.random(n) < 0.2] = 0.0
        dup = rng.integers(0, n, size=n // 3)
        z[rng.integers(0, n, size=len(dup))] = z[dup]
        distances = pairwise_cosine_distances(z)
        ranked = distances.copy()
        np.fill_diagonal(ranked, np.inf)
        for k in range(1, min(4, n - 1) + 1):
            expected = np.argsort(ranked, axis=1, kind="stable")[:, :k]
            graph = build_knn(z, k=k, gamma=1.0)
            np.testing.assert_array_equal(graph.neighbors, expected)
            np.testing.assert_array_equal(graph.distances,
                                          np.take_along_axis(distances, expected, axis=1))


def test_knn_needs_more_tokens_than_k():
    with pytest.raises(InsufficientTokensError):
        build_knn(np.ones((3, 2)), k=3)


# ---------------------------------------------------------------------------
# forward update


def test_forward_update_mutual_neighbors():
    z = np.tile([1.0, 0.0], (2, 1))
    graph = build_knn(z, k=1, gamma=1.0)
    out = forward_update(np.array([0.6, 0.4]), graph)
    np.testing.assert_allclose(out, [1.0, 1.0], rtol=1e-9)


def test_forward_update_vanishing_kernel_is_noop():
    z = np.eye(3)
    graph = build_knn(z, k=2, gamma=1e4)  # e^{-1e4} == 0 in float
    a = np.array([0.5, 0.3, 0.2])
    np.testing.assert_allclose(forward_update(a, graph), a, atol=1e-9)


def test_forward_update_matches_original_value_loop():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((5, 4))
    a = rng.random(5)
    graph = build_knn(z, k=2, gamma=1.0)
    expected = []
    for i in range(5):
        total = a[i]
        for slot, j in enumerate(graph.neighbors[i]):
            total += graph.weights[i, slot] * a[j]  # reads the ORIGINAL a
        expected.append(total)
    np.testing.assert_allclose(forward_update(a, graph), expected, rtol=1e-9)


def test_forward_update_never_decreases():
    rng = np.random.default_rng(37)
    z = rng.standard_normal((8, 3))
    a = rng.random(8)
    out = forward_update(a, build_knn(z, k=3, gamma=1.0))
    assert (out >= a - 1e-12).all()


# ---------------------------------------------------------------------------
# reverse selection


def two_cluster_tokens():
    # two tight clusters far apart in angle; 6 tokens
    return np.array([
        [1.0, 0.01], [1.0, -0.01], [1.0, 0.02],
        [0.01, 1.0], [-0.01, 1.0], [0.02, 1.0],
    ])


def oracle_reverse_select(a, z, k, gamma_rev, threshold, min_count):
    """Scalar re-simulation: argmax pick, neighbor penalty, from-scratch MMD."""
    n = len(a)
    d = pairwise_cosine_distances(z)
    kernel = np.exp(-gamma_rev * d)
    ranked = d.copy()
    np.fill_diagonal(ranked, np.inf)
    neighbors = {i: list(np.argsort(ranked[i], kind="stable")[:k]) for i in range(n)}
    a = list(map(float, a))
    picked = []
    trace = []
    while True:
        best, best_val = None, -np.inf
        for i in range(n):
            if i not in picked and a[i] > best_val:
                best, best_val = i, a[i]
        picked.append(best)
        for j in neighbors[best]:
            a[j] -= math.exp(-gamma_rev * d[best, j]) * best_val
        full = list(range(n))
        k_cc = sum(kernel[i, j] for i in full for j in full) / n**2
        k_pp = sum(kernel[i, j] for i in picked for j in picked) / len(picked) ** 2
        k_cp = sum(kernel[i, j] for i in full for j in picked) / (n * len(picked))
        trace.append(max(0.0, k_cc + k_pp - 2 * k_cp))
        if len(picked) >= min_count and trace[-1] < threshold:
            return picked, trace, "threshold"
        if len(picked) == n:
            return picked, trace, "exhausted"


def test_reverse_select_matches_scalar_simulation():
    z = two_cluster_tokens()
    a0 = np.full(6, 1.0 / 6.0)
    params = AmiaParams()
    graph_fwd = build_knn(z, params.k, params.gamma_forward)
    boosted = forward_update(a0, graph_fwd)
    kernel = kernel_matrix(pairwise_cosine_distances(z), params.gamma_reverse)
    graph_rev = graph_fwd.with_gamma(params.gamma_reverse)

    threshold = 0.05
    result = reverse_select(boosted, graph_rev, kernel, threshold, min_count=params.min_count)
    picks, trace, stopped = oracle_reverse_select(
        boosted, z, params.k, params.gamma_reverse, threshold, params.min_count)
    assert list(result.selected) == picks
    np.testing.assert_allclose(result.mmd_trace, trace, rtol=1e-6, atol=1e-12)
    assert result.stopped_by == stopped


def test_two_clusters_second_pick_from_other_cluster():
    z = two_cluster_tokens()
    a0 = np.full(6, 1.0 / 6.0)
    result = select_amia(a0, z, threshold=1e-9)
    first, second = result.selected[:2]
    assert (first < 3) != (second < 3)


def test_dominant_contribution_token_picked_first():
    z = np.tile([1.0, 0.5], (5, 1)) + 1e-3 * np.random.default_rng(2).standard_normal((5, 2))
    a = np.array([0.1, 0.1, 0.6, 0.1, 0.1])
    result = select_amia(a, z, threshold=1e-12)
    assert result.selected[0] == 2


def test_threshold_infinite_selects_exactly_min_count():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((12, 4))
    a = rng.random(12)
    result = select_amia(a, z, threshold=np.inf)
    assert len(result.selected) == AmiaParams().min_count
    assert result.stopped_by == "threshold"


def test_threshold_zero_selects_everything_with_zero_final_mmd():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((10, 4))
    a = rng.random(10)
    result = select_amia(a, z, threshold=0.0)
    assert len(result.selected) == 10
    assert sorted(result.selected) == list(range(10))
    assert result.stopped_by == "exhausted"
    assert result.mmd_trace[-1] == pytest.approx(0.0, abs=1e-9)


def test_no_duplicate_selections_under_negative_contributions():
    rng = np.random.default_rng(8)
    for trial in range(10):
        z = rng.standard_normal((9, 3))
        a = rng.random(9)
        result = select_amia(a, z, threshold=0.0)
        assert len(set(result.selected.tolist())) == len(result.selected) == 9


def test_selection_scale_invariance():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((14, 5))
    a = rng.random(14)
    base = select_amia(a, z, threshold=0.03)
    for scale in (8.0, 10.0):
        scaled = select_amia(a, scale * z, threshold=0.03)
        assert list(scaled.selected) == list(base.selected)


def test_mmd_trace_length_matches_selection():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((11, 4))
    a = rng.random(11)
    result = select_amia(a, z, threshold=0.02)
    assert len(result.mmd_trace) == len(result.selected)


# ---------------------------------------------------------------------------
# variants


def test_variant_full():
    z = np.ones((7, 2))
    np.testing.assert_array_equal(select_tokens("full", None, z)[0], np.arange(7))


def test_variant_attention_uniform_falls_back_to_full():
    z = np.ones((5, 2))
    a = np.full(5, 0.2)
    np.testing.assert_array_equal(select_tokens("attention", a, z)[0], np.arange(5))


def test_variant_attention_above_mean():
    z = np.ones((4, 2))
    a = np.array([0.1, 0.4, 0.2, 0.3])
    np.testing.assert_array_equal(select_tokens("attention", a, z)[0], [1, 3])


def test_variant_random_deterministic_and_capped():
    z = np.ones((250, 2))
    pick1 = select_tokens("random", None, z, rng=np.random.default_rng(99))[0]
    pick2 = select_tokens("random", None, z, rng=np.random.default_rng(99))[0]
    np.testing.assert_array_equal(pick1, pick2)
    assert len(pick1) == 100
    assert len(set(pick1.tolist())) == 100
    small = select_tokens("random", None, np.ones((30, 2)), rng=np.random.default_rng(1))[0]
    assert len(small) == 30


def test_selected_sets_within_range_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        z = rng.standard_normal((n, 4))
        a = rng.random(n)
        for kind in ("full", "random", "attention", "amia"):
            idx = select_tokens(kind, a, z, rng=np.random.default_rng(0), threshold=0.05)[0]
            assert len(set(idx.tolist())) == len(idx)
            assert (idx >= 0).all() and (idx < n).all()


def test_threshold_stops_imply_final_below_threshold_fuzz():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(6, 30))
        z = rng.standard_normal((n, 4))
        a = rng.random(n)
        threshold = float(rng.uniform(0.005, 0.2))
        result = select_amia(a, z, threshold=threshold)
        assert np.isfinite(result.mmd_trace).all()
        if result.stopped_by == "threshold":
            assert result.mmd_trace[-1] < threshold
