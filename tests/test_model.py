"""Model, forward pass, and synthetic init tests.

The hand-computation oracle evaluates one block scalar-by-scalar (pure
Python floats) and was written against the documented architecture, not
against the implementation.
"""

import math
import tracemalloc
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmprune import model as model_module
from mmprune.data import make_noisy_modality_scenario
from mmprune.errors import ConfigError, NumericError, ShapeError
from mmprune.model import (PROJECTION_KINDS, RMS_EPS, Block, Chunk, LinearLayer,
                           ModalityId, Span, TokenSequence, ToyModel, _causal_softmax, chunks, forward,
                           init_synthetic)
from tests.test_data import traced_peak

VIS = ModalityId(0, "visual")
LANG = ModalityId(1, "language")
AUDIO = ModalityId(2, "audio")


@dataclass
class Captures:
    """One sequence's share of a forward's block records: per layer its projection's (N, C)
    input and output, per block its (n_spans, N) span masses (if asked for) and its final
    query's attention row, and the states entering the first block and leaving each."""

    spans: list
    layer_inputs: dict = field(default_factory=dict)
    layer_outputs: dict = field(default_factory=dict)
    span_mass: dict = field(default_factory=dict)
    hiddens: list = field(default_factory=list)
    final_query: dict = field(default_factory=dict)


def forward_captures(model, seq, span_mass=False, on_block=None):
    """`forward`'s state and its block records split per sequence: (state, Captures) for
    a TokenSequence, (state, [Captures]) for a Chunk. Each sequence gets one view of each
    stacked input, so its q/k/v share one input and its gate/up another. `on_block`, if
    given, also sees every record."""
    seqs = seq.seqs if isinstance(seq, Chunk) else [seq]
    traces = [Captures(list(one.spans)) for one in seqs]

    def split(record):
        b = record.index
        for i, trace in enumerate(traces):
            views = {}  # id of a stacked input -> its row i
            for key, x in record.inputs.items():
                trace.layer_inputs[key] = views.setdefault(id(x), x[i])
            trace.layer_outputs.update((key, z[i]) for key, z in record.outputs.items())
            if record.span_mass is not None:
                trace.span_mass[b] = record.span_mass[i]
            trace.final_query[b] = record.final_query[i]
            entering, leaving = record.hiddens
            if not trace.hiddens:
                trace.hiddens.append(entering[i])
            trace.hiddens.append(leaving[i])
        if on_block is not None:
            on_block(record)

    state = forward(model, seq, span_mass, split)
    return (state, traces) if isinstance(seq, Chunk) else (state, traces[0])


def two_span_seq(embeddings):
    embeddings = np.asarray(embeddings, dtype=np.float32)
    n = embeddings.shape[0]
    half = n // 2
    return TokenSequence(embeddings, [Span(VIS, 0, half), Span(LANG, half, n - half)])


def rng_seq(n, d, seed=0):
    return two_span_seq(np.random.default_rng(seed).standard_normal((n, d)))


def mixed_layout_setup(seed):
    """Sequences of one length whose span layouts differ, with repeated, empty and
    trailing empty spans, so one chunk holds several layouts."""
    model = init_synthetic(8, 2, 12, 2, seed=seed)
    rng = np.random.default_rng(seed)
    layouts = [
        [Span(VIS, 0, 4), Span(LANG, 4, 3), Span(VIS, 7, 3), Span(AUDIO, 10, 0)],
        [Span(VIS, 0, 4), Span(LANG, 4, 3), Span(VIS, 7, 3), Span(AUDIO, 10, 0)],
        [Span(VIS, 0, 0), Span(LANG, 0, 10)],
        [Span(VIS, 0, 4), Span(LANG, 4, 3), Span(VIS, 7, 3), Span(AUDIO, 10, 0)],
        [Span(LANG, 0, 5), Span(VIS, 5, 5)],
    ]
    seqs = [TokenSequence(rng.standard_normal((10, 8)).astype(np.float32), spans) for spans in layouts]
    return model, seqs


def dense_attention(trace, b, n_heads):
    """Block b's head-averaged causal attention (N x N float32), recomputed from the
    trace's captured q and k outputs in the forward's float32 steps, each on a fresh
    array: matmul, scale, causal bias, row max, exp, row sum, divide, head mean."""
    q, k = trace.layer_outputs[(b, "q")], trace.layer_outputs[(b, "k")]
    n, dh = len(q), q.shape[1] // n_heads
    qh = q.reshape(1, n, n_heads, dh).transpose(0, 2, 1, 3)
    kh = k.reshape(1, n, n_heads, dh).transpose(0, 2, 1, 3)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) / np.float32(np.sqrt(dh))
    scores = scores + np.triu(np.full((n, n), -np.inf, dtype=np.float32), k=1)
    scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (scores / scores.sum(axis=-1, keepdims=True)).mean(axis=1)[0]


def span_sums(attn, spans):
    """Per span, each query row's attention summed over the span's keys: (n_spans, N)."""
    return np.stack([attn[:, span.start:span.stop].sum(axis=1) for span in spans])


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
    hidden = forward(model, seq)
    np.testing.assert_array_equal(hidden, seq.embeddings)


def test_forward_is_deterministic_bitwise():
    model = init_synthetic(16, 4, 24, 3, seed=5)
    seq = rng_seq(12, 16, seed=9)
    h1, t1 = forward_captures(model, seq, span_mass=True)
    h2, t2 = forward_captures(model, seq, span_mass=True)
    assert h1.tobytes() == h2.tobytes()
    for key in t1.layer_outputs:
        assert t1.layer_outputs[key].tobytes() == t2.layer_outputs[key].tobytes()
    for b in t1.span_mass:
        assert t1.span_mass[b].tobytes() == t2.span_mass[b].tobytes()


def test_span_masses_are_row_stochastic_and_causal():
    model = init_synthetic(16, 4, 24, 2, seed=11)
    seq = rng_seq(9, 16, seed=2)  # visual tokens 0-3, language 4-8
    _, trace = forward_captures(model, seq, span_mass=True)
    for rows in trace.span_mass.values():
        assert rows.shape == (2, 9) and rows.dtype == np.float32
        np.testing.assert_allclose(rows.sum(axis=0), 1.0, atol=1e-5)
        assert (rows[1, :4] == 0.0).all() and (rows[0, :4] > 0.0).all()  # no query sees a later key


def test_all_true_mask_changes_nothing_bitwise():
    model = init_synthetic(8, 2, 12, 2, seed=6)
    seq = rng_seq(5, 8, seed=1)
    before = forward(model, seq)
    for layer in model.iter_layers():
        layer.mask = np.ones_like(layer.weight, dtype=bool)
        layer.apply_mask()
    after = forward(model, seq)
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
    hidden, trace = forward_captures(model, seq, span_mass=True)

    # per span (visual key 0, language key 1), each query's attention on it
    np.testing.assert_allclose(trace.span_mass[0], np.array(attn_oracle).T, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(trace.final_query[0], attn_oracle[1], rtol=1e-6, atol=1e-7)
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
    forward(model, rng_seq(5, 8, seed=3), span_mass=True)
    after = [layer.weight.tobytes() for layer in model.iter_layers()]
    assert before == after


def test_residual_stream_shape_preserved_through_blocks():
    model = init_synthetic(16, 4, 24, 3, seed=2)
    seq = rng_seq(7, 16, seed=5)
    _, trace = forward_captures(model, seq)
    assert len(trace.hiddens) == 4  # input plus one per block
    assert all(h.shape == (7, 16) for h in trace.hiddens)


def test_trace_shares_projection_inputs_and_never_aliases_the_sequence():
    model = init_synthetic(8, 2, 12, 2, seed=4)
    seq = rng_seq(5, 8)
    embeddings = seq.embeddings.copy()
    reference = forward(model, seq)
    _, trace = forward_captures(model, seq, span_mass=True)
    inputs = trace.layer_inputs
    for b in range(model.n_blocks):
        assert inputs[(b, "q")] is inputs[(b, "k")] is inputs[(b, "v")]
        assert inputs[(b, "gate")] is inputs[(b, "up")]
        assert inputs[(b, "q")] is not inputs[(b, "gate")]
    captured = [*inputs.values(), *trace.layer_outputs.values(), *trace.span_mass.values(),
                *trace.hiddens, *trace.final_query.values()]
    assert not any(np.shares_memory(a, seq.embeddings) for a in captured)
    for a in captured:
        a[...] = 7.0
    assert seq.embeddings.tobytes() == embeddings.tobytes()
    assert forward(model, seq).tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# in-place kernels against the out-of-place forward they replaced


def _oracle_softmax(scores):
    n = scores.shape[-1]
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    scores = np.where(mask, -np.inf, scores)
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    return weights / weights.sum(axis=-1, keepdims=True)


def _oracle_forward(model, seq):
    """Every block with fresh arrays at each step; returns (state, attention, layer outputs)."""
    def rms_norm(x, scale):
        return (x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + RMS_EPS)) * scale

    def project(block, kind, inp):
        out = inp @ block.layers[kind].weight.T
        outputs[(block.index, kind)] = out
        return out

    n, h, dh = len(seq), model.n_heads, model.head_dim
    x, attention, outputs = seq.embeddings, {}, {}
    for block in model.blocks:
        attn_in = rms_norm(x, block.attn_norm_scale)
        q, k, v = (project(block, kind, attn_in).reshape(n, h, dh).transpose(1, 0, 2) for kind in "qkv")
        probs = _oracle_softmax((q @ k.transpose(0, 2, 1)) / np.float32(np.sqrt(dh)))
        attention[block.index] = probs.mean(axis=0).astype(np.float32)
        context = (probs @ v).transpose(1, 0, 2).reshape(n, model.d_model).astype(np.float32)
        x = x + project(block, "o", context)
        ffn_in = rms_norm(x, block.ffn_norm_scale)
        gate, up = project(block, "gate", ffn_in), project(block, "up", ffn_in)
        x = (x + project(block, "down", ((gate / (1.0 + np.exp(-gate))) * up).astype(np.float32))).astype(np.float32)
    return x, attention, outputs


def test_forward_matches_out_of_place_oracle_bitwise(monkeypatch):
    # start from an empty mask cache: 40 grows it, 7 and 1 read slices of it, 40 reads it whole
    monkeypatch.setattr(model_module, "_causal_bias", np.zeros((0, 0), dtype=np.float32))
    model = init_synthetic(16, 4, 24, 3, seed=12)
    scenario = make_noisy_modality_scenario(0, d_model=24, n_heads=4, d_ff=32, n_blocks=4,
                                            n_calib=1, n_eval=1)
    cases = [(model, rng_seq(n, 16, seed=n)) for n in (40, 7, 1, 40)]
    cases += [(scenario.model, seq) for seq in scenario.calib + scenario.eval]  # 188 and 28 tokens
    for i, (m, seq) in enumerate(cases):
        state, trace = forward_captures(m, seq, span_mass=True)
        expected_state, expected_attention, expected_outputs = _oracle_forward(m, seq)
        assert state.tobytes() == expected_state.tobytes()
        assert sorted(trace.span_mass) == sorted(trace.final_query) == sorted(expected_attention)
        for b, attn in expected_attention.items():
            assert trace.span_mass[b].dtype == np.float32
            assert trace.span_mass[b].tobytes() == span_sums(attn, seq.spans).tobytes()
            assert trace.final_query[b].tobytes() == attn[-1].tobytes()
        assert sorted(trace.layer_outputs) == sorted(expected_outputs)
        for key, out in trace.layer_outputs.items():
            assert out.tobytes() == expected_outputs[key].tobytes()
        if i == 3:
            assert model_module._causal_bias.shape == (40, 40)  # one array, as long as the longest
    assert model_module._causal_bias.shape == (188, 188)


# ---------------------------------------------------------------------------
# chunked forward against one sequence at a time


def _assert_same_trace(got, expected):
    assert got.spans == expected.spans
    for field in ("layer_inputs", "layer_outputs", "span_mass", "final_query"):
        got_field, expected_field = getattr(got, field), getattr(expected, field)
        assert list(got_field) == list(expected_field), field
        for key, value in got_field.items():
            assert value.dtype == expected_field[key].dtype
            assert value.tobytes() == expected_field[key].tobytes(), (field, key)
    assert [h.tobytes() for h in got.hiddens] == [h.tobytes() for h in expected.hiddens]


def _chunk_cases():
    plain = init_synthetic(64, 4, 128, 2, seed=3)
    scenario = make_noisy_modality_scenario(1, d_model=24, n_heads=4, d_ff=32, n_blocks=2,
                                            n_calib=3, n_eval=5)
    return [(plain, [rng_seq(48, 64, seed=i) for i in range(5)]),  # the plain workspace's length
            (scenario.model, scenario.calib),                       # 188 tokens
            (scenario.model, scenario.eval),                        # 28 tokens, an empty noise span
            mixed_layout_setup(92)]                                 # five span layouts of 10 tokens


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_chunked_forward_matches_per_sequence_forward_bitwise(size):
    # sizes 2 and 3 leave an odd tail chunk of the 5 (or 3) sequences
    for model, seqs in _chunk_cases():
        expected = [forward_captures(model, seq, span_mass=True) for seq in seqs]
        for start in range(0, len(seqs), size):
            chunk = seqs[start:start + size]
            state, traces = forward_captures(model, Chunk(chunk), span_mass=True)
            assert state.shape == (len(chunk), len(chunk[0]), model.d_model) and state.dtype == np.float32
            for i, trace in enumerate(traces):
                expected_state, expected_trace = expected[start + i]
                assert state[i].tobytes() == expected_state.tobytes()
                _assert_same_trace(trace, expected_trace)
            # one sample's captures never share memory with another's
            captured = [[*t.layer_inputs.values(), *t.layer_outputs.values(), *t.span_mass.values(),
                         *t.hiddens, *t.final_query.values()] for t in traces]
            for i, mine in enumerate(captured):
                for theirs in captured[i + 1:]:
                    assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


def _block_captures(trace, b):
    """The captures of block b in a full forward's trace, as a one-block view records them."""
    return Captures(trace.spans, {key: x for key, x in trace.layer_inputs.items() if key[0] == b},
                    {key: z for key, z in trace.layer_outputs.items() if key[0] == b},
                    {b: trace.span_mass[b]}, trace.hiddens[b:b + 2], {b: trace.final_query[b]})


def _record_arrays(record):
    return [*record.inputs.values(), *record.outputs.values(), *record.hiddens, record.final_query,
            *(record.span_mass or ())]


# span_mass is the forward's one optional capture
@pytest.mark.parametrize("span_mass", [False, True], ids=["no-captures", "span-mass"])
@pytest.mark.parametrize("size", [1, 3])
def test_block_callback_gets_each_blocks_stacked_outputs(size, span_mass):
    # each block's record, field by field, against the stacked captures of each sequence's
    # own forward; the states and the final query's row are always there, and the states
    # are also those of the forward through the blocks so far; the span masses are there
    # exactly when asked, and no array the callback gets is written afterwards
    for model, seqs in _chunk_cases():
        prefixes = [ToyModel(model.blocks[:j + 1], model.n_heads, model.d_model, model.d_ff, model.seed)
                    for j in range(model.n_blocks)]
        for start in range(0, len(seqs), size):
            chunk = seqs[start:start + size]
            expected = [forward_captures(model, seq, span_mass=True) for seq in chunk]
            states = [np.stack([seq.embeddings for seq in chunk])]
            states += [np.stack([forward(prefix, seq) for seq in chunk]) for prefix in prefixes]
            records, handed = [], []

            def keep(record):
                records.append(record)
                handed.append([a.tobytes() for a in _record_arrays(record)])

            # one sequence: its N x d_model state out, (1, N, ...) stacks to the callback
            state = forward(model, chunk[0] if size == 1 else Chunk(chunk), span_mass, keep)
            assert state.tobytes() == np.stack([one for one, _ in expected]).tobytes()
            assert [record.index for record in records] == [block.index for block in model.blocks]
            for j, record in enumerate(records):
                b, inputs = record.index, record.inputs
                assert list(inputs) == list(record.outputs) == [(b, kind) for kind in PROJECTION_KINDS]
                assert inputs[(b, "q")] is inputs[(b, "k")] is inputs[(b, "v")]
                assert inputs[(b, "gate")] is inputs[(b, "up")]
                assert len({id(x) for x in inputs.values()}) == 4  # with o's and down's
                for stacks, field_name in [(inputs, "layer_inputs"), (record.outputs, "layer_outputs")]:
                    for key, got in stacks.items():
                        want = np.stack([getattr(trace, field_name)[key] for _, trace in expected])
                        assert got.shape == want.shape and got.dtype == np.float32
                        assert got.tobytes() == want.tobytes(), (field_name, key)
                assert len(record.hiddens) == 2  # entering and leaving the block
                for got, h in zip(record.hiddens, (j, j + 1)):
                    assert got.dtype == np.float32 and got.tobytes() == states[h].tobytes()
                    assert got.tobytes() == np.stack([trace.hiddens[h] for _, trace in expected]).tobytes()
                want = np.stack([trace.final_query[b] for _, trace in expected])
                assert record.final_query.dtype == np.float32
                assert record.final_query.shape == want.shape and record.final_query.tobytes() == want.tobytes()
                assert (record.span_mass is not None) == span_mass
                if span_mass:
                    assert len(record.span_mass) == len(chunk)
                    for got, (_, trace) in zip(record.span_mass, expected):
                        assert got.dtype == np.float32 and got.tobytes() == trace.span_mass[b].tobytes()
            assert [[a.tobytes() for a in _record_arrays(record)] for record in records] == handed


def test_the_scores_are_freed_before_the_block_callback(monkeypatch):
    slabs = []

    def recording_softmax(scores):
        slabs.append(weakref.ref(scores))
        return _causal_softmax(scores)

    monkeypatch.setattr(model_module, "_causal_softmax", recording_softmax)
    model = init_synthetic(16, 4, 24, 3, seed=7)
    alive = []
    forward(model, Chunk([rng_seq(9, 16, seed=i) for i in range(2)]), span_mass=True,
            on_block=lambda record: alive.append(slabs[-1]() is not None))
    assert len(slabs) == 3 and alive == [False] * 3
    # a 512-token block's scores are 4 MB; in the callback, traced memory holds the
    # record's and the states' few N x d rows, not the scores beside them
    seq = rng_seq(512, 16, seed=4)
    forward(model, seq)  # the causal bias is cached before anything is traced
    held = []
    tracemalloc.start()
    try:
        forward(model, seq, span_mass=True,
                on_block=lambda record: held.append(tracemalloc.get_traced_memory()[0]))
    finally:
        tracemalloc.stop()
    assert len(held) == 3 and max(held) < 4 * 512**2 * 4 / 4


def test_one_block_views_over_carried_states_chain_into_the_full_forward():
    # as `--sequential` runs a model: block by block, each chunk's samples replaced by
    # sequences of their states and spans
    for model, seqs in _chunk_cases():
        expected = [forward_captures(model, seq, span_mass=True) for seq in seqs]
        for size in (1, 2, len(seqs)):
            carried = list(seqs)
            for block in model.blocks:
                view = ToyModel([block], model.n_heads, model.d_model, model.d_ff, model.seed)
                for start in range(0, len(seqs), size):
                    chunk = carried[start:start + size]
                    state, traces = forward_captures(view, Chunk(chunk), span_mass=True)
                    for i, trace in enumerate(traces):
                        _assert_same_trace(trace, _block_captures(expected[start + i][1], block.index))
                    carried[start:start + size] = [TokenSequence(x, seq.spans) for x, seq in zip(state, chunk)]
            assert [seq.embeddings.tobytes() for seq in carried] == [state.tobytes() for state, _ in expected]


@pytest.mark.parametrize("size", [1, 2, 5])
def test_attention_captures_equal_the_dense_oracle_bitwise(size):
    # the span masses and the final query's row, with and without the span masses, per
    # sequence or per chunk, against the attention recomputed from the captured q and k
    for model, seqs in _chunk_cases():
        for start in range(0, len(seqs), size):
            chunk = Chunk(seqs[start:start + size])
            _, rows = forward_captures(model, chunk)
            _, full = forward_captures(model, chunk, span_mass=True)
            for row_trace, full_trace in zip(rows, full):
                assert not row_trace.span_mass
                for b in (block.index for block in model.blocks):
                    attn = dense_attention(full_trace, b, model.n_heads)
                    assert full_trace.span_mass[b].dtype == np.float32
                    assert full_trace.span_mass[b].tobytes() == span_sums(attn, full_trace.spans).tobytes()
                    for trace in (row_trace, full_trace):
                        assert trace.final_query[b].dtype == np.float32
                        assert trace.final_query[b].tobytes() == attn[-1].tobytes()


def test_chunk_rejects_mixed_lengths():
    with pytest.raises(ShapeError, match="sequences of 6 and 5 tokens"):
        Chunk([rng_seq(6, 8), rng_seq(5, 8)])


def test_chunks_keep_order_and_equal_lengths_within_the_token_budget(monkeypatch):
    monkeypatch.setattr(model_module, "CHUNK_TOKENS", 100)
    seqs = [rng_seq(n, 4, seed=i) for i, n in enumerate([48, 48, 48, 20, 20, 20, 20, 20, 20, 150, 7])]
    got = [[seqs.index(seq) for seq in chunk.seqs] for chunk in chunks(seqs)]
    assert got == [[0, 1], [2], [3, 4, 5, 6, 7], [8], [9], [10]]


def test_attention_overflow_with_finite_q_and_k_names_the_block():
    model = init_synthetic(8, 2, 12, 1, seed=0)
    for kind in ("q", "k"):
        model.blocks[0].layers[kind].weight = np.full((8, 8), 1e19, dtype=np.float32)
    seq = two_span_seq(np.ones((4, 8)))  # q = k = 8e19 per channel: finite, q.k overflows
    with pytest.raises(NumericError, match=r"block0\.attention"):
        forward(model, seq)


def _checking_forward(model, seqs):
    """A forward over the stack of `seqs` with fresh arrays that checks every projection
    output as it is made, each block's attention row sums, and its residual both after o
    and at the block's end, in the order q, k, v, attention, o, residual (x + o), gate,
    up, down, residual: the oracle for the NumericError a forward raises. Returns the
    final state."""
    def check(values, where):
        if not np.isfinite(values).all():
            raise NumericError(f"non-finite values at {where}")
        return values

    def rms_norm(x, scale):
        return (x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + RMS_EPS)) * scale

    s, n, d, h, dh = len(seqs), len(seqs[0]), model.d_model, model.n_heads, model.head_dim
    x = np.stack([seq.embeddings for seq in seqs])
    with np.errstate(all="ignore"):
        for block in model.blocks:
            def project(kind, inp):
                return check(inp @ block.layers[kind].weight.T, f"block{block.index}.{kind}")

            attn_in = rms_norm(x, block.attn_norm_scale)
            q, k, v = (project(kind, attn_in).reshape(s, n, h, dh).transpose(0, 2, 1, 3) for kind in "qkv")
            scores = (q @ k.transpose(0, 1, 3, 2)) / np.float32(np.sqrt(dh))
            scores = scores + np.triu(np.full((n, n), -np.inf, dtype=np.float32), k=1)  # +inf above it: NaN
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
            sums = check(weights.sum(axis=-1, keepdims=True), f"block{block.index}.attention")
            context = ((weights / sums) @ v).transpose(0, 2, 1, 3).reshape(s, n, d).astype(np.float32)
            x = check(x + project("o", context), f"block{block.index}.residual")
            ffn_in = rms_norm(x, block.ffn_norm_scale)
            gate, up = project("gate", ffn_in), project("up", ffn_in)
            x = x + project("down", ((gate / (1.0 + np.exp(-gate))) * up).astype(np.float32))
            x = check(x.astype(np.float32), f"block{block.index}.residual")
    return x


def _outcome(run):
    """("ok", the returned state's bytes) or ("error", the NumericError's message)."""
    try:
        return "ok", run().tobytes()
    except NumericError as err:
        return "error", str(err)


@pytest.mark.parametrize("size", [1, 2])
def test_forward_raises_what_a_forward_checking_every_output_raises(size):
    # IEEE arithmetic carries a non-finite q, v, o, gate, up or down output into the
    # attention or residual check, whose rescan then names the first such output
    seen = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        model = init_synthetic(8, 2, 12, 2, seed=seed)
        for _ in range(rng.integers(1, 3)):  # one or two weights, weight rows or weight columns
            weight = model.blocks[rng.integers(2)].layers[rng.choice(PROJECTION_KINDS)].weight
            value = rng.choice([np.inf, -np.inf, np.nan, 3e38, -3e38, 1e19])
            row, column = rng.integers(weight.shape[0]), rng.integers(weight.shape[1])
            where = [(row, column), (row, slice(None)), (slice(None), column)][rng.integers(3)]
            weight[where] = value
        seqs = [rng_seq(int(rng.integers(1, 10)), 8, seed=seed)] * size
        expected = _outcome(lambda: _checking_forward(model, seqs))
        assert _outcome(lambda: forward(model, Chunk(seqs))) == expected, seed
        seen.add(expected[1].rsplit(".", 1)[-1] if expected[0] == "error" else "ok")
    assert seen >= {"ok", *PROJECTION_KINDS}


def test_a_key_whose_overflow_only_hides_scores_is_named():
    # k[2, 0] overflows to -inf: with q[2, 0] > 0, row 2's diagonal score is -inf beside
    # two finite ones, so the row sums stay finite and the residual never sees k
    model = init_synthetic(8, 2, 12, 1, seed=0)
    layers = model.blocks[0].layers
    layers["q"].weight[:] = 0.0
    layers["q"].weight[0, 1] = 0.5
    layers["k"].weight[:] = 0.0
    layers["k"].weight[0, 0] = 3e38
    embeddings = np.ones((3, 8), dtype=np.float32)
    embeddings[2, 0] = -10.0
    seq = TokenSequence(embeddings, [Span(VIS, 0, 3)])
    with pytest.raises(NumericError, match=r"block0\.k$"):
        forward(model, seq)
    assert _outcome(lambda: _checking_forward(model, [seq]))[1].endswith("block0.k")


def test_an_overflow_of_x_plus_o_names_the_residual():
    # o's outputs are finite, but token 1's 3e38 plus its 4e37 is not: the normed
    # x + o is NaN, so gate's output is the first non-finite projection output
    model = init_synthetic(8, 2, 16, 1, seed=0)
    layers = model.blocks[0].layers
    layers["v"].weight = np.eye(8, dtype=np.float32)
    layers["o"].weight = np.zeros((8, 8), dtype=np.float32)
    layers["o"].weight[0, 0] = 3e37
    embeddings = np.zeros((2, 8), dtype=np.float32)
    embeddings[:, 0] = [1.0, 3e38]
    seq = TokenSequence(embeddings, [Span(VIS, 0, 2)])
    with pytest.raises(NumericError, match=r"^non-finite values at block0\.residual$"):
        forward(model, seq)
    assert _outcome(lambda: _checking_forward(model, [seq])) == ("error", "non-finite values at block0.residual")


def test_a_residual_overflow_from_finite_outputs_names_the_residual(monkeypatch):
    # a float32 norm zeroes a state whose squares overflow, so its down output is 0 and
    # x + down stays finite; a float64 norm keeps such a state's ffn input alive
    def wide_rms_norm(x, scale):
        ms = np.mean(np.square(x.astype(np.float64)), axis=-1, keepdims=True)
        return (x / np.sqrt(ms + RMS_EPS)).astype(np.float32) * scale

    monkeypatch.setattr(model_module, "_rms_norm", wide_rms_norm)
    model = init_synthetic(8, 2, 12, 1, seed=0)
    layers = model.blocks[0].layers
    for kind in ("gate", "up"):  # both 8^0.5 / 2^0.5 = 2 on every row below
        layers[kind].weight[:] = 0.0
        layers[kind].weight[:, 0] = 1.0
    layers["down"].weight[:] = 0.0
    layers["down"].weight[0] = 1e36  # down[:, 0] = 12 x 1.76 x 2 x 1e36, finite
    embeddings = np.zeros((2, 8), dtype=np.float32)
    embeddings[:, 0] = 3e38
    embeddings[:, 1] = -3e38  # (3e38 + 4e37) overflows
    seq = TokenSequence(embeddings, [Span(VIS, 0, 2)])
    with pytest.raises(NumericError, match=r"^non-finite values at block0\.residual$"):
        forward(model, seq, on_block=lambda record: pytest.fail("a block that failed its check ended"))


def test_captured_attention_never_shares_the_scores_buffer(monkeypatch):
    buffers = []

    def recording_softmax(scores):
        buffers.append(scores)
        return _causal_softmax(scores)

    monkeypatch.setattr(model_module, "_causal_softmax", recording_softmax)
    model = init_synthetic(16, 4, 24, 3, seed=7)
    _, trace = forward_captures(model, rng_seq(9, 16, seed=1), span_mass=True)
    assert len(buffers) == 3  # one per block, each kept alive here
    arrays = [*trace.layer_inputs.values(), *trace.layer_outputs.values(), *trace.hiddens]
    attention = [*trace.span_mass.values(), *trace.final_query.values()]
    assert len(attention) == 6
    for i, attn in enumerate(attention):
        assert not any(np.shares_memory(attn, other) for other in [*buffers, *arrays, *attention[i + 1:]])
    assert not any(np.shares_memory(buf, a) for buf in buffers for a in arrays)


def test_span_masses_hold_one_n_by_n_temporary_at_a_time():
    # each block's head average is freed before the next block's is taken; the slack
    # covers the few N x d_model rows alive beside it
    model = init_synthetic(16, 4, 24, 3, seed=2)
    seq = rng_seq(512, 16, seed=4)
    forward(model, seq)  # the causal bias is cached before anything is traced
    _, plain = traced_peak(lambda: forward(model, seq))
    _, masses = traced_peak(lambda: forward(model, seq, span_mass=True))
    assert masses - plain <= 1.25 * 512**2 * 4


def test_causal_bias_builds_without_n_by_n_temporaries(monkeypatch):
    monkeypatch.setattr(model_module, "_causal_bias", np.zeros((0, 0), dtype=np.float32))
    n = 512
    scores = np.zeros((1, 1, n, n), dtype=np.float32)
    _, peak = traced_peak(lambda: _causal_softmax(scores))
    bias = model_module._causal_bias
    # the cache itself and the softmax's few (n, 1) columns; a full -inf matrix, a
    # triangle mask or a second copy beside it would each add a quarter or more
    assert bias.shape == (n, n) and peak <= 1.05 * bias.nbytes
    # the bits of np.triu(np.full((n, n), -inf), k=1): +0.0 on and below the diagonal
    assert bias.tobytes() == np.triu(np.full((n, n), -np.inf, dtype=np.float32), k=1).tobytes()
    assert not bias.flags.writeable
    _causal_softmax(np.zeros((1, 1, n + 1, n + 1), dtype=np.float32))
    assert model_module._causal_bias.shape == (n + 1, n + 1)  # grown by replacement
    assert bias.shape == (n, n) and bias.tobytes() == model_module._causal_bias[:n, :n].tobytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(heads=st.integers(1, 4), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]), ties=st.booleans())
def test_in_place_softmax_matches_oracle(heads, n, seed, scale, ties):
    scores = np.random.default_rng(seed).uniform(-scale, scale, size=(heads, n, n)).astype(np.float32)
    if ties:  # repeated row maxima, and -0.0 from rounding small negatives
        scores = np.round(scores / scale * 3.0).astype(np.float32)
    expected = _oracle_softmax(scores)
    sums = _causal_softmax(scores)
    assert scores.tobytes() == expected.tobytes()
    assert sums.shape == (heads, n, 1) and np.isfinite(sums).all() and (sums >= 1.0).all()
    assert (np.triu(scores, k=1) == 0.0).all()  # exact zeros above the diagonal


def _max_softmax(scores):
    """The in-place softmax as it took its row max with `max` before `np.fmax.reduce`."""
    scores += np.triu(np.full(scores.shape[-2:], -np.inf, dtype=np.float32), k=1)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    sums = scores.sum(axis=-1, keepdims=True)
    scores /= sums
    return sums


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), heads=st.integers(1, 2), n=st.integers(1, 8))
def test_fmax_row_max_matches_the_max_softmax(data, heads, n):
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    entry = st.one_of(special, st.floats(-1e4, 1e4, width=32), st.floats(width=32, allow_nan=False))
    scores = np.array(data.draw(st.lists(entry, min_size=heads * n * n, max_size=heads * n * n)),
                      dtype=np.float32).reshape(heads, n, n)
    expected = scores.copy()
    with np.errstate(all="ignore"):
        expected_sums = _max_softmax(expected)
        sums = _causal_softmax(scores)
    finite = np.isfinite(expected_sums)
    assert (np.isfinite(sums) == finite).all()  # non-finite in exactly the same rows
    assert sums[finite].tobytes() == expected_sums[finite].tobytes()
    rows = np.broadcast_to(finite, scores.shape)
    assert scores[rows].tobytes() == expected[rows].tobytes()
