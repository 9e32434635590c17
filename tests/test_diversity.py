"""Diversity statistics, through the streaming accumulator, against exhaustive pair-loop oracles."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mmprune.diversity import (NORM_BLOCK_ELEMENTS, DiversityAccumulator, block_input_output_similarity,
                               layer_importance)
from mmprune.errors import DegenerateInputError, ShapeError
from mmprune.model import PROJECTION_KINDS, ActivationTrace, ModalityId, Span

VIS = ModalityId(0, "visual")
LANG = ModalityId(1, "language")
AUD = ModalityId(2, "audio")


def oracle_cos_dist(u, v):
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    return 1.0 - sum(a * b for a, b in zip(u, v)) / (nu * nv)


def oracle_intra(z, idx):
    pairs = [(i, j) for a, i in enumerate(idx) for j in idx[a + 1:]]
    return sum(oracle_cos_dist(z[i], z[j]) for i, j in pairs) / len(pairs)


def oracle_inter(z, idx_a, idx_b):
    total = sum(oracle_cos_dist(z[i], z[j]) for i in idx_a for j in idx_b)
    return total / (len(idx_a) * len(idx_b))


def oracle_floored_dist(u, v):
    # a zero row has a zero unit row, so it sits at distance 1 from everything
    if not any(u) or not any(v):
        return 1.0
    return oracle_cos_dist(u, v)


def oracle_floored_intra(z, idx):
    pairs = [(i, j) for a, i in enumerate(idx) for j in idx[a + 1:]]
    return sum(oracle_floored_dist(z[i], z[j]) for i, j in pairs) / len(pairs)


def oracle_floored_inter(z, idx_a, idx_b):
    total = sum(oracle_floored_dist(z[i], z[j]) for i in idx_a for j in idx_b)
    return total / (len(idx_a) * len(idx_b))


def layer_stats(z, spans):
    """DiversityStats of one layer after a single accumulated sample."""
    acc = DiversityAccumulator()
    acc.add_layer_sample((0, "q"), np.asarray(z, dtype=np.float64), spans)
    return acc.finalize()[(0, "q")]


def intra(z, idx):
    """The accumulator's intra term over rows z[idx], fed as one visual span."""
    rows = np.asarray(z, dtype=np.float64)[list(idx)]
    return layer_stats(rows, [Span(VIS, 0, len(rows))]).intra["visual"]


def inter(z, idx_a, idx_b):
    """The accumulator's inter term between rows z[idx_a] (visual) and z[idx_b] (language)."""
    rows = np.asarray(z, dtype=np.float64)[list(idx_a) + list(idx_b)]
    spans = [Span(VIS, 0, len(idx_a)), Span(LANG, len(idx_a), len(idx_b))]
    return layer_stats(rows, spans).inter[("visual", "language")]


def all_token(z):
    return layer_stats(z, [Span(VIS, 0, len(z))]).all_token


def pair_distance(u, v):
    return intra(np.array([u, v], dtype=np.float64), [0, 1])


# ---------------------------------------------------------------------------
# cosine distance of one pair


def test_cosine_distance_identical_direction():
    assert pair_distance([1.0, 0.0], [1.0, 0.0]) == 0.0


def test_cosine_distance_orthogonal():
    assert pair_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_cosine_distance_45_degrees():
    value = pair_distance([1.0, 1.0], [1.0, 0.0])
    assert value == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-6)


def test_cosine_distance_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        d1, d2 = pair_distance(u, v), pair_distance(v, u)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert 0.0 <= d1 <= 2.0


# ---------------------------------------------------------------------------
# intra / inter / all-token


def test_intra_identical_rows_is_zero():
    z = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert intra(z, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_intra_single_orthogonal_pair():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert intra(z, [0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_intra_matches_exhaustive_loop():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((4, 6))
    got = intra(z, np.arange(4))
    assert got == pytest.approx(oracle_intra(z, list(range(4))), rel=1e-6)


def test_intra_needs_two_tokens():
    stats = layer_stats(np.ones((3, 2)), [Span(VIS, 0, 1), Span(LANG, 1, 2)])
    assert "visual" not in stats.intra and "language" in stats.intra


def test_inter_equal_spans_zero():
    z = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    assert inter(z, [0], [1, 2]) == pytest.approx(0.0, abs=1e-12)
    assert inter(np.ones((5, 3)), [0, 1], [2, 3, 4]) == 0.0  # rounds to -2e-16 before the clip


def test_inter_orthogonal_singletons():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert inter(z, [0], [1]) == pytest.approx(1.0, abs=1e-12)


def test_inter_matches_exhaustive_loop():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((5, 4))
    got = inter(z, [0, 1, 2], [3, 4])
    assert got == pytest.approx(oracle_inter(z, [0, 1, 2], [3, 4]), rel=1e-6)


def test_inter_empty_span_raises():
    # an empty span adds no inter term; a layer left with no term at all cannot be scored
    assert layer_stats(np.ones((2, 2)), [Span(VIS, 0, 0), Span(LANG, 0, 2)]).inter == {}
    with pytest.raises(DegenerateInputError):
        layer_stats(np.ones((1, 2)), [Span(VIS, 0, 0), Span(LANG, 0, 1)])


def test_all_token_identical_rows():
    assert all_token(np.ones((5, 3))) == 0.0


def test_all_token_equals_intra_over_everything():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 4))
    assert all_token(z) == intra(z, np.arange(6))


def test_all_token_matches_exhaustive_loop():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((5, 3))
    assert all_token(z) == pytest.approx(oracle_intra(z, list(range(5))), rel=1e-6)


def test_zero_row_scores_distance_one():
    z = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    # pairs: (zero, x) twice at 1, (x, x) at 0
    assert intra(z, [0, 1, 2]) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert inter(z, [0], [1, 2]) == pytest.approx(1.0, abs=1e-15)
    assert intra(np.zeros((3, 2)), [0, 1, 2]) == pytest.approx(1.0, abs=1e-15)


def test_antipodal_rows_score_two():
    z = np.array([[1.0, 2.0], [-1.0, -2.0], [3.0, 6.0], [-0.5, -1.0]])
    assert inter(z, [0, 2], [1, 3]) == pytest.approx(2.0, abs=1e-15)
    assert intra(z, [0, 1]) == pytest.approx(2.0, abs=1e-15)
    assert intra(z, [0, 1, 2, 3]) == pytest.approx(oracle_intra(z, [0, 1, 2, 3]), abs=1e-12)


def test_degenerate_rows_match_pair_loop_oracles():
    rng = np.random.default_rng(29)
    for _ in range(60):
        d = int(rng.integers(2, 5))
        base = rng.standard_normal(d)
        pool = [np.zeros(d), base, -base, 2.0 * base, base + 1e-9 * rng.standard_normal(d),
                rng.integers(-2, 3, size=d).astype(float)]
        n = int(rng.integers(2, 9))
        z = np.array([pool[int(rng.integers(len(pool)))] if rng.random() < 0.7
                      else rng.standard_normal(d) for _ in range(n)])
        idx = list(range(n))
        assert intra(z, idx) == pytest.approx(oracle_floored_intra(z, idx), abs=1e-12)
        assert all_token(z) == pytest.approx(oracle_floored_intra(z, idx), abs=1e-12)
        cut = int(rng.integers(1, n))
        assert inter(z, idx[:cut], idx[cut:]) == pytest.approx(
            oracle_floored_inter(z, idx[:cut], idx[cut:]), abs=1e-12)


# ---------------------------------------------------------------------------
# invariance properties


def test_scale_invariance_of_diversities():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((6, 4))
    scaled = z.copy()
    scaled[2] *= 8.0  # power of two keeps normalization bit-exact
    assert intra(z, np.arange(6)) == intra(scaled, np.arange(6))


def test_permutation_invariance_within_span():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((6, 4))
    idx = np.array([0, 1, 2, 3])
    shuffled = np.array([2, 0, 3, 1])
    assert intra(z, idx) == pytest.approx(intra(z, shuffled), abs=1e-12)


# ---------------------------------------------------------------------------
# layer importance


def test_layer_importance_equal_terms():
    assert layer_importance({"v": 0.6, "l": 0.6}, {("v", "l"): 0.6}) == pytest.approx(0.6)


def test_layer_importance_is_arithmetic_mean():
    got = layer_importance({"v": 0.3, "l": 0.6}, {("v", "l"): 0.9})
    assert got == pytest.approx(0.6, rel=1e-9)


def test_layer_importance_three_modalities():
    intra = {"v": 0.5, "l": 0.5, "a": 0.5}
    inter = {("v", "l"): 0.5, ("v", "a"): 0.5, ("l", "a"): 0.5}
    assert layer_importance(intra, inter) == pytest.approx(0.5)


def test_layer_importance_monotone_in_terms():
    base = layer_importance({"v": 0.3, "l": 0.4}, {("v", "l"): 0.5})
    bumped = layer_importance({"v": 0.35, "l": 0.4}, {("v", "l"): 0.5})
    assert bumped >= base


def test_layer_importance_no_terms_raises():
    with pytest.raises(DegenerateInputError):
        layer_importance({}, {})


# ---------------------------------------------------------------------------
# block io similarity


def test_block_similarity_identity():
    x = np.random.default_rng(0).standard_normal((4, 3))
    assert block_input_output_similarity(x, x.copy()) == pytest.approx(1.0, abs=1e-12)


def test_block_similarity_negated():
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert block_input_output_similarity(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_block_similarity_matches_per_row_loop():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
    oracle = sum(1.0 - oracle_cos_dist(a[i], b[i]) for i in range(4)) / 4
    assert block_input_output_similarity(a, b) == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# accumulator semantics


def test_accumulator_averages_per_sample_then_over_samples():
    acc = DiversityAccumulator()
    spans = [Span(VIS, 0, 2), Span(LANG, 2, 2)]
    z1 = np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]])
    z2 = np.array([[1.0, 0], [0, 1], [1, 0], [0, 1]])
    acc.add_layer_sample((0, "v"), z1, spans)
    acc.add_layer_sample((0, "v"), z2, spans)
    stats = acc.finalize()[(0, "v")]
    # sample 1: intra_v = 0, intra_l = 0, inter = 1; sample 2: intra_v = 1, intra_l = 1, inter = 0.5
    assert stats.intra["visual"] == pytest.approx(0.5)
    assert stats.intra["language"] == pytest.approx(0.5)
    assert stats.inter[("visual", "language")] == pytest.approx(0.75)
    assert stats.importance == pytest.approx((0.5 + 0.5 + 0.75) / 3)


def test_accumulator_skips_degenerate_spans():
    acc = DiversityAccumulator()
    spans_a = [Span(VIS, 0, 1), Span(LANG, 1, 2)]  # visual has 1 token: intra skipped
    spans_b = [Span(VIS, 0, 2), Span(LANG, 2, 1)]
    acc.add_layer_sample((0, "q"), np.array([[1.0, 0], [0, 1], [0, 1]]), spans_a)
    acc.add_layer_sample((0, "q"), np.array([[1.0, 0], [1, 0], [0, 1]]), spans_b)
    stats = acc.finalize()[(0, "q")]
    assert stats.intra["visual"] == pytest.approx(0.0)   # only sample b contributes
    assert stats.intra["language"] == pytest.approx(0.0)  # only sample a contributes
    assert stats.inter[("visual", "language")] == pytest.approx(1.0)


def test_accumulator_zero_norm_rows_use_floor_not_error():
    acc = DiversityAccumulator()
    spans = [Span(VIS, 0, 3)]
    z = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    acc.add_layer_sample((0, "k"), z, spans)
    stats = acc.finalize()[(0, "k")]
    assert np.isfinite(stats.importance)


def test_accumulator_joins_repeated_modality_spans():
    rng = np.random.default_rng(31)
    z = rng.standard_normal((7, 3))
    z[5] = 0.0
    spans = [Span(VIS, 0, 2), Span(LANG, 2, 2), Span(VIS, 4, 0), Span(VIS, 4, 3)]
    acc = DiversityAccumulator()
    acc.add_layer_sample((0, "o"), z, spans)
    stats = acc.finalize()[(0, "o")]
    vis, lang = [0, 1, 4, 5, 6], [2, 3]
    assert stats.intra["visual"] == pytest.approx(oracle_floored_intra(z, vis), abs=1e-12)
    assert stats.intra["language"] == pytest.approx(oracle_floored_intra(z, lang), abs=1e-12)
    assert stats.inter[("visual", "language")] == pytest.approx(oracle_floored_inter(z, vis, lang), abs=1e-12)
    assert stats.all_token == pytest.approx(oracle_floored_intra(z, list(range(7))), abs=1e-12)


# ---------------------------------------------------------------------------
# stacks of layers and samples


def finalized(acc):
    """The accumulator's per-layer stats, with NaN spelled out so that equal stats compare equal."""
    return repr(acc.finalize())


@pytest.mark.parametrize("spans,channels", [
    ([Span(VIS, 0, 24), Span(LANG, 24, 24)], 16),  # plain calibration and eval
    ([Span(VIS, 0, 160), Span(LANG, 160, 28)], 24),  # noisy calibration
    ([Span(VIS, 0, 0), Span(LANG, 0, 28)], 24),  # noisy eval: an empty visual span
    ([Span(VIS, 0, 3), Span(LANG, 3, 4), Span(VIS, 7, 0), Span(VIS, 7, 2), Span(AUD, 9, 1)], 5),
    ([Span(VIS, 0, 1), Span(LANG, 1, 1)], 3),  # two tokens: no intra term, one inter
], ids=["plain", "noisy-calib", "noisy-eval", "repeated-spans", "two-tokens"])
@pytest.mark.parametrize("samples", [1, 3])
def test_stacked_accumulation_equals_one_sample_at_a_time_bitwise(spans, channels, samples):
    rng = np.random.default_rng(len(spans) * 100 + channels + samples)
    n = spans[-1].stop
    keys = [(0, "q"), (0, "k"), (1, "q")]
    z = (rng.standard_normal((len(keys), samples, n, channels)) * rng.uniform(0.1, 9.0)).astype(np.float32)
    z[0, 0, 1] = 0.0  # a zero row sits at distance 1 from every other row
    stacked, single = DiversityAccumulator(), DiversityAccumulator()
    stacked.add_layer_sample(keys, z[:, :1], spans)  # a stack of one sample first
    if samples > 1:
        stacked.add_layer_sample(keys, z[:, 1:], spans)
    for s in range(samples):
        for l, key in enumerate(keys):
            single.add_layer_sample(key, z[l, s], spans)
    assert finalized(stacked) == finalized(single)


def test_one_token_samples_have_no_terms_stacked_or_alone():
    z = np.ones((2, 3, 1, 4), dtype=np.float32)
    spans = [Span(VIS, 0, 1), Span(LANG, 1, 0)]
    stacked, single = DiversityAccumulator(), DiversityAccumulator()
    stacked.add_layer_sample([(0, "q"), (0, "k")], z, spans)
    single.add_layer_sample((0, "q"), z[0, 0], spans)
    for acc in (stacked, single):
        with pytest.raises(DegenerateInputError, match="layer 0:q"):
            acc.finalize()


@pytest.mark.parametrize("keys,shape", [([(0, "q")], (2, 1, 3, 4)), ([(0, "q")], (1, 0, 3, 4)),
                                        ([(0, "q")], (1, 3, 4))])
def test_stack_needs_one_key_per_layer_and_a_sample(keys, shape):
    with pytest.raises(ShapeError):
        DiversityAccumulator().add_layer_sample(keys, np.ones(shape), [Span(VIS, 0, 3)])


def test_noisy_add_holds_its_float64_stack_and_one_norm_block():
    # the noisy workspace's shapes: 4 blocks, 188 tokens, outputs 64 wide but gate and up
    rng = np.random.default_rng(7)
    widths = {"gate": 128, "up": 128}
    outputs = {(b, kind): rng.standard_normal((188, widths.get(kind, 64))).astype(np.float32)
               for b in range(4) for kind in PROJECTION_KINDS}
    trace = ActivationTrace(spans=[Span(VIS, 0, 160), Span(LANG, 160, 28)], layer_outputs=outputs)
    tracemalloc.start()
    try:
        DiversityAccumulator().add([SimpleNamespace(trace=trace)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = 20 * 188 * 64 * 8  # the largest stack: 20 layers of 64-wide outputs, as float64
    # a float32 stack beside it, or norms over the whole stack, would add half a stack or more
    assert peak <= stack + NORM_BLOCK_ELEMENTS * 8 + 64 * 1024
