"""Token selection: contributions, kNN graph, reverse pass, MMD stopping.

The reverse-selection oracle is a from-scratch scalar simulation of the
pick/penalize/MMD loop, kept free of the library's incremental updates.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mmprune import selection
from mmprune.errors import InsufficientTokensError, ShapeError
from mmprune.selection import (SELECTION_KINDS, AmiaParams, build_knn, forward_update,
                               pairwise_cosine_distances, reverse_select, select_amia)


def amia_one(a, z, threshold, params=AmiaParams()):
    """`select_amia` on one layer: a stack of one."""
    return select_amia(np.asarray(a)[None], np.asarray(z)[None], [threshold], params)[0]


def knn(z, k):
    """build_knn of z's tokens: (neighbors, distances to them)."""
    return build_knn(pairwise_cosine_distances(z), k)


def knn_weights(z, k, gamma):
    """z's kNN neighbors and their weights exp(-gamma * d), computed from the neighbor
    distances alone, apart from any kernel matrix."""
    neighbors, nearest = knn(z, k)
    return neighbors, np.exp(-gamma * nearest)


# ---------------------------------------------------------------------------
# kNN graph


def test_knn_identical_tokens_unit_weights():
    z = np.tile([1.0, 2.0], (4, 1))
    neighbors, weights = knn_weights(z, 3, 1.0)
    np.testing.assert_allclose(weights, 1.0, atol=1e-12)
    for i in range(4):
        assert i not in neighbors[i]


def test_knn_orthogonal_axes_kernel_value():
    z = np.eye(4)
    _, weights = knn_weights(z, 3, 1.0)
    np.testing.assert_allclose(weights, math.exp(-1.0), rtol=1e-9)


def test_knn_matches_exhaustive_sort_oracle():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((10, 5))
    neighbors, _ = knn(z, 3)

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
        assert sorted(neighbors[i]) == sorted(expected)


def test_knn_tie_break_prefers_lower_index():
    # tokens 1, 2, 3 identical; token 0's three neighbors are all at the same
    # distance, so they are taken in index order
    z = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    neighbors, _ = knn(z, 3)
    assert list(neighbors[0]) == [1, 2, 3]


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
            neighbors, nearest = build_knn(distances.copy(), k)
            np.testing.assert_array_equal(neighbors, expected)
            np.testing.assert_array_equal(nearest, np.take_along_axis(distances, expected, axis=1))


def test_knn_needs_more_tokens_than_k():
    with pytest.raises(InsufficientTokensError):
        knn(np.ones((3, 2)), 3)


def test_in_place_kernels_equal_their_out_of_place_formulas_bitwise(monkeypatch):
    kernels = []  # the kernel select_amia hands to reverse_select
    monkeypatch.setattr(selection, "reverse_select", lambda a, neighbors, kernel, *rest, **kw: kernels.append(kernel))
    rng = np.random.default_rng(43)
    for n, d in [(1, 3), (2, 1), (9, 4), (64, 16), (188, 64)]:
        z = rng.standard_normal((n, d)) * rng.random(d) * 3.0
        z[rng.random(n) < 0.1] = 0.0  # zero rows sit at distance 1
        # repeated and negated rows round 1 - cos to just below 0 or above 2, which the clip fixes
        z[1::3] = z[0::3][:len(z[1::3])]
        z[2::3] = -z[0::3][:len(z[2::3])]
        unit = z / np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
        expected = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)
        np.fill_diagonal(expected, 0.0)
        distances = pairwise_cosine_distances(z)
        assert distances.tobytes() == expected.tobytes()
        if n <= AmiaParams().k:
            continue
        neighbors, nearest = build_knn(distances, AmiaParams().k)
        for gamma in (0.2, 1.0, 1e4):
            select_amia(rng.random((1, n)), z[None], [0.1], AmiaParams(gamma_reverse=gamma))
            kernel = kernels.pop()[0]
            assert kernel.tobytes() == np.exp(-gamma * expected).tobytes()
            # reverse_select's penalty weights are kernel entries: those of the kNN weights formula
            weights = np.take_along_axis(kernel, neighbors, -1)
            assert weights.tobytes() == np.exp(-gamma * nearest).tobytes()


# ---------------------------------------------------------------------------
# forward update


def test_forward_update_mutual_neighbors():
    z = np.tile([1.0, 0.0], (2, 1))
    out = forward_update(np.array([0.6, 0.4]), *knn_weights(z, 1, 1.0))
    np.testing.assert_allclose(out, [1.0, 1.0], rtol=1e-9)


def test_forward_update_vanishing_kernel_is_noop():
    z = np.eye(3)
    neighbors, weights = knn_weights(z, 2, 1e4)  # e^{-1e4} == 0 in float
    a = np.array([0.5, 0.3, 0.2])
    np.testing.assert_allclose(forward_update(a, neighbors, weights), a, atol=1e-9)


def test_forward_update_matches_original_value_loop():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((5, 4))
    a = rng.random(5)
    neighbors, weights = knn_weights(z, 2, 1.0)
    expected = []
    for i in range(5):
        total = a[i]
        for slot, j in enumerate(neighbors[i]):
            total += weights[i, slot] * a[j]  # reads the ORIGINAL a
        expected.append(total)
    np.testing.assert_allclose(forward_update(a, neighbors, weights), expected, rtol=1e-9)


def test_forward_update_never_decreases():
    rng = np.random.default_rng(37)
    z = rng.standard_normal((8, 3))
    a = rng.random(8)
    out = forward_update(a, *knn_weights(z, 3, 1.0))
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
    z = two_cluster_tokens()[None]  # a stack of one layer
    a0 = np.full((1, 6), 1.0 / 6.0)
    params = AmiaParams()
    neighbors, weights = knn_weights(z, params.k, params.gamma_forward)
    boosted = forward_update(a0, neighbors, weights)
    kernel = np.exp(-params.gamma_reverse * pairwise_cosine_distances(z))

    threshold = 0.05
    result, = reverse_select(boosted, neighbors, kernel, [threshold], min_count=params.min_count)
    picks, trace, stopped = oracle_reverse_select(
        boosted[0], z[0], params.k, params.gamma_reverse, threshold, params.min_count)
    assert list(result.selected) == picks
    np.testing.assert_allclose(result.mmd_trace, trace, rtol=1e-6, atol=1e-12)
    assert result.stopped_by == stopped


def test_two_clusters_second_pick_from_other_cluster():
    z = two_cluster_tokens()
    a0 = np.full(6, 1.0 / 6.0)
    result = amia_one(a0, z, threshold=1e-9)
    first, second = result.selected[:2]
    assert (first < 3) != (second < 3)


def test_dominant_contribution_token_picked_first():
    z = np.tile([1.0, 0.5], (5, 1)) + 1e-3 * np.random.default_rng(2).standard_normal((5, 2))
    a = np.array([0.1, 0.1, 0.6, 0.1, 0.1])
    result = amia_one(a, z, threshold=1e-12)
    assert result.selected[0] == 2


def test_threshold_infinite_selects_exactly_min_count():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((12, 4))
    a = rng.random(12)
    result = amia_one(a, z, threshold=np.inf)
    assert len(result.selected) == AmiaParams().min_count
    assert result.stopped_by == "threshold"


def test_threshold_zero_selects_everything_with_zero_final_mmd():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((10, 4))
    a = rng.random(10)
    result = amia_one(a, z, threshold=0.0)
    assert len(result.selected) == 10
    assert sorted(result.selected) == list(range(10))
    assert result.stopped_by == "exhausted"
    assert result.mmd_trace[-1] == pytest.approx(0.0, abs=1e-9)


def test_no_duplicate_selections_under_negative_contributions():
    rng = np.random.default_rng(8)
    for trial in range(10):
        z = rng.standard_normal((9, 3))
        a = rng.random(9)
        result = amia_one(a, z, threshold=0.0)
        assert len(set(result.selected.tolist())) == len(result.selected) == 9


def test_selection_scale_invariance():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((14, 5))
    a = rng.random(14)
    base = amia_one(a, z, threshold=0.03)
    for scale in (8.0, 10.0):
        scaled = amia_one(a, scale * z, threshold=0.03)
        assert list(scaled.selected) == list(base.selected)


def test_mmd_trace_length_matches_selection():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((11, 4))
    a = rng.random(11)
    result = amia_one(a, z, threshold=0.02)
    assert len(result.mmd_trace) == len(result.selected)


# ---------------------------------------------------------------------------
# layer stacks


def incremental_reverse_select(a, z, k, gamma_rev, threshold, min_count):
    """The one-layer loop that stacked selection replaced, kept as its bitwise reference:
    one pick and one incremental MMD update per step, reading the picked kernel column.
    Its penalty weights come from the neighbor distances, not from the kernel."""
    neighbors, weights = knn_weights(z, k, gamma_rev)
    kernel = np.exp(-gamma_rev * pairwise_cosine_distances(z))
    a = np.array(a, dtype=np.float64)
    n = len(a)
    min_count = min(n, max(min_count, 1))
    total_mean = kernel.mean()
    cross_cols, sum_selected, sum_cross = np.zeros(n), 0.0, 0.0
    picked, picked_mask, trace = [], np.zeros(n, dtype=bool), []
    for t in range(1, n + 1):
        candidate = int(np.where(picked_mask, -np.inf, a).argmax())
        value = a[candidate]
        picked.append(candidate)
        picked_mask[candidate] = True
        a[neighbors[candidate]] -= weights[candidate] * value
        column = kernel[:, candidate]
        sum_selected += 2.0 * cross_cols[candidate] + column[candidate]
        cross_cols += column
        sum_cross += column.sum()
        trace.append(max(0.0, float(total_mean + sum_selected / t**2 - 2.0 * sum_cross / (n * t))))
        if t >= min_count and trace[-1] < threshold:
            return picked, trace, "threshold"
    return picked, trace, "exhausted"


def layer_stack(seed, n_layers=5, n=24, c=6):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_layers, n, c)) * rng.random((n_layers, 1, c)) * 3.0
    z[:, 1::5] = z[:, 0::5][:, :len(z[0, 1::5])]  # repeated rows tie distances
    return rng.random((n_layers, n)), z


def test_stacked_kernels_equal_each_layer_alone_bitwise():
    _, z = layer_stack(51)
    distances = pairwise_cosine_distances(z)
    neighbors, nearest = build_knn(distances.copy(), 3)
    for i in range(len(z)):
        alone = pairwise_cosine_distances(z[i])
        assert distances[i].tobytes() == alone.tobytes()
        assert (alone == alone.T).all()  # reverse_select reads kernel rows for columns
        one = build_knn(alone, 3)
        assert neighbors[i].tobytes() == one[0].tobytes()
        assert nearest[i].tobytes() == one[1].tobytes()
    a = np.random.default_rng(52).random(z.shape[:2])
    boosted = forward_update(a, neighbors, np.exp(-nearest))
    for i in range(len(z)):
        assert boosted[i].tobytes() == forward_update(a[i], *knn_weights(z[i], 3, 1.0)).tobytes()


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_stacked_selection_equals_the_one_layer_loop_with_its_own_stop_per_layer(seed):
    a, z = layer_stack(seed)
    params = AmiaParams()
    boosted = [forward_update(a[i], *knn_weights(z[i], params.k, params.gamma_forward)) for i in range(len(z))]
    # the full MMD trace of each layer sets thresholds that stop the layers at different t
    full = [incremental_reverse_select(boosted[i], z[i], params.k, params.gamma_reverse, 0.0, params.min_count)[1]
            for i in range(len(z))]
    thresholds = [np.inf, 0.0] + [full[i][t] * (1 + 1e-9) for i, t in ((2, 6), (3, 12), (4, 17))]
    stacked = select_amia(a, z, thresholds, params)
    stops = set()
    for i, result in enumerate(stacked):
        picks, trace, stopped_by = incremental_reverse_select(
            boosted[i], z[i], params.k, params.gamma_reverse, thresholds[i], params.min_count)
        assert result.selected.tolist() == picks
        assert result.mmd_trace == trace  # bitwise: same floats in the same order
        assert result.stopped_by == stopped_by
        assert result.threshold == thresholds[i]
        one = amia_one(a[i], z[i], thresholds[i], params)
        assert (one.selected.tolist(), one.mmd_trace, one.stopped_by) == (picks, trace, stopped_by)
        stops.add((len(picks), stopped_by))
    assert (params.min_count, "threshold") in stops and (len(a[0]), "exhausted") in stops
    assert len(stops) >= 4


def test_stacked_selection_rejects_a_threshold_count_that_misses_the_layers():
    a, z = layer_stack(64, n_layers=3)
    with pytest.raises(ShapeError, match="2 thresholds for 3 layers"):
        select_amia(a, z, [0.1, 0.2])


def test_a_stack_holds_one_n_by_n_float64_buffer():
    # the distances become the kernel in place, and float32 layer outputs given as a list
    # (as a sample's are) go straight into the float64 unit rows
    a, z = layer_stack(71, n_layers=3, n=256, c=32)
    outputs = [layer.astype(np.float32) for layer in z]
    expected = select_amia(a, np.stack(outputs), [0.05] * 3)
    tracemalloc.start()
    try:
        results = select_amia(a, outputs, [0.05] * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 3 * 256**2 * 8
    for got, want in zip(results, expected):
        assert (got.selected.tolist(), got.mmd_trace, got.stopped_by) == (want.selected.tolist(), want.mmd_trace,
                                                                          want.stopped_by)


# ---------------------------------------------------------------------------
# variants


def pick(kind, a, z, seed=0):
    """The tokens that `kind`'s entry of SELECTION_KINDS keeps of one layer with outputs
    `z`, in block 0 of sample 0 with contributions `a`, under `seed`."""
    sample = SimpleNamespace(layer_inputs={(0, "q"): z}, index=0, contributions={0: a})
    return SELECTION_KINDS[kind].select(sample, SimpleNamespace(seed=seed, random_count=100), {})[(0, "q")][0]


def test_variant_full():
    z = np.ones((7, 2))
    np.testing.assert_array_equal(pick("full", None, z), np.arange(7))


def test_variant_attention_uniform_falls_back_to_full():
    z = np.ones((5, 2))
    a = np.full(5, 0.2)
    np.testing.assert_array_equal(pick("attention", a, z), np.arange(5))


def test_variant_attention_above_mean():
    z = np.ones((4, 2))
    a = np.array([0.1, 0.4, 0.2, 0.3])
    np.testing.assert_array_equal(pick("attention", a, z), [1, 3])


def test_variant_random_deterministic_and_capped():
    z = np.ones((250, 2))
    pick1 = pick("random", None, z, seed=99)
    pick2 = pick("random", None, z, seed=99)
    np.testing.assert_array_equal(pick1, pick2)
    assert len(pick1) == 100
    assert len(set(pick1.tolist())) == 100
    small = pick("random", None, np.ones((30, 2)), seed=1)
    assert len(small) == 30


def test_selected_sets_within_range_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        z = rng.standard_normal((n, 4))
        a = rng.random(n)
        picks = [pick(kind, a, z)
                 for kind in ("full", "random", "attention")]
        for idx in picks + [amia_one(a, z, threshold=0.05).selected]:
            assert len(set(idx.tolist())) == len(idx)
            assert (idx >= 0).all() and (idx < n).all()


def test_threshold_stops_imply_final_below_threshold_fuzz():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(6, 30))
        z = rng.standard_normal((n, 4))
        a = rng.random(n)
        threshold = float(rng.uniform(0.005, 0.2))
        result = amia_one(a, z, threshold=threshold)
        assert np.isfinite(result.mmd_trace).all()
        if result.stopped_by == "threshold":
            assert result.mmd_trace[-1] < threshold
