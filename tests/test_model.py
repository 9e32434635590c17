"""Model, forward pass, and synthetic init tests.

The hand-computation oracle evaluates one block scalar-by-scalar (pure
Python floats) and was written against the documented architecture, not
against the implementation.
"""

import math

import numpy as np
import pytest

from mmprune.errors import ConfigError, NumericError, ShapeError
from mmprune.model import (Block, CaptureFlags, LinearLayer, ModalityId, Span, TokenSequence,
                           ToyModel, forward, init_synthetic)

VIS = ModalityId(0, "visual")
LANG = ModalityId(1, "language")
CAPTURE_ALL = CaptureFlags(inputs=True, outputs=True, attention=True, hiddens=True)


def two_span_seq(embeddings):
    embeddings = np.asarray(embeddings, dtype=np.float32)
    n = embeddings.shape[0]
    half = n // 2
    return TokenSequence(embeddings, [Span(VIS, 0, half), Span(LANG, half, n - half)])


def rng_seq(n, d, seed=0):
    return two_span_seq(np.random.default_rng(seed).standard_normal((n, d)))


# ---------------------------------------------------------------------------
# TokenSequence invariants


def test_spans_must_cover_sequence():
    emb = np.zeros((4, 2), dtype=np.float32)
    with pytest.raises(ShapeError):
        TokenSequence(emb, [Span(VIS, 0, 3)])
    with pytest.raises(ShapeError):
        TokenSequence(emb, [Span(VIS, 0, 2), Span(LANG, 3, 1)])


def test_zero_length_span_is_allowed():
    emb = np.ones((3, 2), dtype=np.float32)
    seq = TokenSequence(emb, [Span(VIS, 0, 0), Span(LANG, 0, 3)])
    assert [(s.start, s.stop) for s in seq.spans] == [(0, 0), (0, 3)]


def test_non_finite_embeddings_rejected():
    emb = np.ones((2, 2), dtype=np.float32)
    emb[1, 1] = np.nan
    with pytest.raises(NumericError):
        TokenSequence(emb, [Span(VIS, 0, 2)])


# ---------------------------------------------------------------------------
# forward


def test_zero_projection_block_leaves_residual_unchanged():
    model = init_synthetic(8, 2, 16, 1, seed=1)
    for kind in ("v", "o", "gate", "up", "down"):
        layer = model.blocks[0].layers[kind]
        layer.weight = np.zeros_like(layer.weight)
    seq = rng_seq(6, 8, seed=3)
    hidden, _ = forward(model, seq)
    np.testing.assert_array_equal(hidden, seq.embeddings)


def test_forward_is_deterministic_bitwise():
    model = init_synthetic(16, 4, 24, 3, seed=5)
    seq = rng_seq(12, 16, seed=9)
    h1, t1 = forward(model, seq, CAPTURE_ALL)
    h2, t2 = forward(model, seq, CAPTURE_ALL)
    assert h1.tobytes() == h2.tobytes()
    for key in t1.layer_outputs:
        assert t1.layer_outputs[key].tobytes() == t2.layer_outputs[key].tobytes()
    for b in t1.attention:
        assert t1.attention[b].tobytes() == t2.attention[b].tobytes()


def test_attention_is_row_stochastic_and_causal():
    model = init_synthetic(16, 4, 24, 2, seed=11)
    seq = rng_seq(9, 16, seed=2)
    _, trace = forward(model, seq, CaptureFlags(attention=True))
    for attn in trace.attention.values():
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-5)
        upper = attn[np.triu_indices(len(seq), k=1)]
        assert (upper == 0.0).all()


def test_capture_flags_control_trace_contents():
    model = init_synthetic(8, 2, 12, 2, seed=4)
    seq = rng_seq(5, 8)
    _, trace = forward(model, seq, CaptureFlags(inputs=True))
    assert trace.layer_inputs and not trace.layer_outputs and not trace.attention
    _, trace = forward(model, seq, CaptureFlags(attention=True, blocks=frozenset({1})))
    assert list(trace.attention) == [1]
    _, trace = forward(model, seq)
    assert not trace.layer_inputs and not trace.attention and not trace.hiddens


def test_all_true_mask_changes_nothing_bitwise():
    model = init_synthetic(8, 2, 12, 2, seed=6)
    seq = rng_seq(5, 8, seed=1)
    before, _ = forward(model, seq)
    for layer in model.iter_layers():
        layer.mask = np.ones_like(layer.weight, dtype=bool)
        layer.apply_mask()
    after, _ = forward(model, seq)
    assert before.tobytes() == after.tobytes()


def test_dimension_mismatch_raises():
    model = init_synthetic(8, 2, 12, 1, seed=0)
    with pytest.raises(ShapeError):
        forward(model, rng_seq(4, 6))


def _oracle_rms(x, scale):
    ms = sum(v * v for v in x) / len(x)
    return [v / math.sqrt(ms + 1e-6) * s for v, s in zip(x, scale)]


def _oracle_matvec(w, x):
    return [sum(wi * xi for wi, xi in zip(row, x)) for row in w]


def test_forward_matches_scalar_hand_computation():
    """2-token, 1-head, d_model=4 block checked against a spreadsheet-style
    scalar evaluation of norm, QK^T / sqrt(d_h), causal softmax, value mix,
    output projection, and the gated FFN."""
    d = 4
    wq = [[0.5, -0.2, 0.1, 0.3], [0.0, 0.4, -0.1, 0.2], [0.3, 0.1, 0.2, -0.4], [-0.2, 0.3, 0.5, 0.1]]
    wk = [[0.2, 0.1, -0.3, 0.4], [0.5, -0.1, 0.2, 0.0], [-0.3, 0.2, 0.1, 0.3], [0.1, 0.4, -0.2, 0.2]]
    wv = [[0.3, -0.4, 0.2, 0.1], [0.1, 0.2, -0.5, 0.3], [0.4, 0.0, 0.1, -0.2], [-0.1, 0.3, 0.2, 0.4]]
    wo = [[0.2, 0.3, -0.1, 0.4], [-0.4, 0.1, 0.3, 0.2], [0.1, -0.2, 0.4, 0.3], [0.3, 0.2, 0.1, -0.1]]
    wgate = [[0.4, -0.2, 0.3, 0.1], [0.2, 0.3, -0.1, 0.4], [-0.3, 0.1, 0.2, 0.5]]
    wup = [[0.1, 0.4, 0.2, -0.3], [0.3, -0.1, 0.4, 0.2], [0.2, 0.2, -0.3, 0.1]]
    wdown = [[0.5, -0.2, 0.3], [0.1, 0.4, -0.2], [-0.3, 0.2, 0.4], [0.2, 0.1, 0.3]]
    x0 = [0.8, -0.5, 0.3, 1.1]
    x1 = [-0.4, 0.9, -0.7, 0.2]

    # --- oracle, step by step in python floats
    n0 = _oracle_rms(x0, [1.0] * d)
    n1 = _oracle_rms(x1, [1.0] * d)
    q0, q1 = _oracle_matvec(wq, n0), _oracle_matvec(wq, n1)
    k0, k1 = _oracle_matvec(wk, n0), _oracle_matvec(wk, n1)
    v0, v1 = _oracle_matvec(wv, n0), _oracle_matvec(wv, n1)
    scale = math.sqrt(d)  # one head, head_dim == d_model
    s10 = sum(a * b for a, b in zip(q1, k0)) / scale
    s11 = sum(a * b for a, b in zip(q1, k1)) / scale
    m = max(s10, s11)
    e10, e11 = math.exp(s10 - m), math.exp(s11 - m)
    p10, p11 = e10 / (e10 + e11), e11 / (e10 + e11)
    attn_oracle = [[1.0, 0.0], [p10, p11]]
    ctx0 = v0
    ctx1 = [p10 * a + p11 * b for a, b in zip(v0, v1)]
    h0 = [a + b for a, b in zip(x0, _oracle_matvec(wo, ctx0))]
    h1 = [a + b for a, b in zip(x1, _oracle_matvec(wo, ctx1))]

    def ffn(h):
        nh = _oracle_rms(h, [1.0] * d)
        g = _oracle_matvec(wgate, nh)
        u = _oracle_matvec(wup, nh)
        act = [gi / (1.0 + math.exp(-gi)) * ui for gi, ui in zip(g, u)]
        return [a + b for a, b in zip(h, _oracle_matvec(wdown, act))]

    final_oracle = [ffn(h0), ffn(h1)]

    # --- implementation
    layers = {
        "q": LinearLayer(np.array(wq, np.float32), "q", 0),
        "k": LinearLayer(np.array(wk, np.float32), "k", 0),
        "v": LinearLayer(np.array(wv, np.float32), "v", 0),
        "o": LinearLayer(np.array(wo, np.float32), "o", 0),
        "gate": LinearLayer(np.array(wgate, np.float32), "gate", 0),
        "up": LinearLayer(np.array(wup, np.float32), "up", 0),
        "down": LinearLayer(np.array(wdown, np.float32), "down", 0),
    }
    block = Block(0, layers, np.ones(d, np.float32), np.ones(d, np.float32))
    model = ToyModel([block], n_heads=1, d_model=d, d_ff=3, seed=0)
    seq = TokenSequence(np.array([x0, x1], np.float32), [Span(VIS, 0, 1), Span(LANG, 1, 1)])
    hidden, trace = forward(model, seq, CAPTURE_ALL)

    np.testing.assert_allclose(trace.attention[0], np.array(attn_oracle), rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(hidden, np.array(final_oracle), rtol=1e-6, atol=5e-7)


# ---------------------------------------------------------------------------
# init_synthetic


def test_init_synthetic_seed_reproducibility():
    a = init_synthetic(8, 2, 12, 2, seed=7)
    b = init_synthetic(8, 2, 12, 2, seed=7)
    for la, lb in zip(a.iter_layers(), b.iter_layers()):
        assert la.weight.tobytes() == lb.weight.tobytes()
    c = init_synthetic(8, 2, 12, 2, seed=8)
    assert any(la.weight.tobytes() != lc.weight.tobytes()
               for la, lc in zip(a.iter_layers(), c.iter_layers()))


# Frozen from the first generation run (seed=7, d_model=8, d_ff=16, 1 block).
FROZEN_SEED7_SUM = 2.9530473104678094
FROZEN_SEED7_SHA256 = "df7eaad1a69b2b7a8454e90811851b33eb5fe037277ac65197e7166f39ba6420"


def test_init_synthetic_frozen_checksum():
    model = init_synthetic(8, 2, 16, 1, seed=7)
    total = float(sum(layer.weight.astype(np.float64).sum() for layer in model.iter_layers()))
    assert total == pytest.approx(FROZEN_SEED7_SUM, rel=0, abs=1e-9)
    import hashlib
    digest = hashlib.sha256(b"".join(layer.weight.tobytes() for layer in model.iter_layers()))
    assert digest.hexdigest() == FROZEN_SEED7_SHA256


def test_init_synthetic_rejects_bad_dims():
    with pytest.raises(ConfigError):
        init_synthetic(10, 3, 16, 1, seed=0)
    with pytest.raises(ConfigError):
        init_synthetic(8, 2, 16, 0, seed=0)


def test_weights_are_within_documented_uniform_bounds():
    model = init_synthetic(16, 2, 32, 2, seed=3)
    for layer in model.iter_layers():
        bound = 1.0 / np.sqrt(layer.in_features)
        assert np.abs(layer.weight).max() <= bound


def test_model_copy_is_deep():
    model = init_synthetic(8, 2, 12, 1, seed=2)
    clone = model.copy()
    clone.blocks[0].layers["q"].weight[0, 0] = 99.0
    assert model.blocks[0].layers["q"].weight[0, 0] != 99.0


def test_non_finite_intermediate_names_layer():
    model = init_synthetic(8, 2, 12, 1, seed=0)
    model.blocks[0].layers["q"].weight = np.full((8, 8), 3e38, dtype=np.float32)
    with pytest.raises(NumericError, match="block0"):
        forward(model, rng_seq(4, 8, seed=2))


def test_forward_does_not_mutate_model():
    model = init_synthetic(8, 2, 12, 2, seed=21)
    before = [layer.weight.tobytes() for layer in model.iter_layers()]
    forward(model, rng_seq(5, 8, seed=3), CAPTURE_ALL)
    after = [layer.weight.tobytes() for layer in model.iter_layers()]
    assert before == after


def test_residual_stream_shape_preserved_through_blocks():
    model = init_synthetic(16, 4, 24, 3, seed=2)
    seq = rng_seq(7, 16, seed=5)
    _, trace = forward(model, seq, CaptureFlags(hiddens=True))
    assert len(trace.hiddens) == 4  # input plus one per block
    assert all(h.shape == (7, 16) for h in trace.hiddens)


def test_forward_block_range_continues_from_a_carried_state():
    model = init_synthetic(8, 2, 12, 3, seed=8)
    seq = rng_seq(6, 8, seed=4)
    capture = CaptureFlags(inputs=True, attention=True, hiddens=True)
    full, trace = forward(model, seq, capture)
    h1, _ = forward(model, seq, stop=1)
    assert h1.tobytes() == trace.hiddens[1].tobytes()
    rest, part = forward(model, seq, capture, start=1, hidden=h1)
    assert rest.tobytes() == full.tobytes()
    assert sorted(part.layer_inputs) == [key for key in sorted(trace.layer_inputs) if key[0] >= 1]
    for key, x in part.layer_inputs.items():
        assert x.tobytes() == trace.layer_inputs[key].tobytes()
    assert list(part.attention) == [1, 2]
    assert [h.tobytes() for h in part.hiddens] == [h.tobytes() for h in trace.hiddens[1:]]
    _, one = forward(model, seq, CaptureFlags(inputs=True, blocks=frozenset({2})),
                     start=1, stop=3, hidden=h1)
    assert sorted({block for block, _ in one.layer_inputs}) == [2]


def test_forward_rejects_bad_block_ranges_and_states():
    model = init_synthetic(8, 2, 12, 3, seed=8)
    seq = rng_seq(6, 8, seed=4)
    with pytest.raises(ConfigError):
        forward(model, seq, start=2, stop=1, hidden=seq.embeddings)
    with pytest.raises(ConfigError):
        forward(model, seq, stop=4)
    with pytest.raises(ShapeError):
        forward(model, seq, start=1, hidden=seq.embeddings[:3])


def test_trace_shares_projection_inputs_and_never_aliases_the_sequence():
    model = init_synthetic(8, 2, 12, 2, seed=4)
    seq = rng_seq(5, 8)
    embeddings = seq.embeddings.copy()
    reference, _ = forward(model, seq)
    _, trace = forward(model, seq, CAPTURE_ALL)
    inputs = trace.layer_inputs
    for b in range(model.n_blocks):
        assert inputs[(b, "q")] is inputs[(b, "k")] is inputs[(b, "v")]
        assert inputs[(b, "gate")] is inputs[(b, "up")]
        assert inputs[(b, "q")] is not inputs[(b, "gate")]
    captured = [*inputs.values(), *trace.layer_outputs.values(), *trace.attention.values(),
                *trace.hiddens]
    assert not any(np.shares_memory(a, seq.embeddings) for a in captured)
    for a in captured:
        a[...] = 7.0
    assert seq.embeddings.tobytes() == embeddings.tobytes()
    assert forward(model, seq)[0].tobytes() == reference.tobytes()
