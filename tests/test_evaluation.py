"""Reconstruction metrics, relative average, attention/sparsity reports."""

import math
import weakref

import numpy as np
import pytest

from mmprune.allocation import allocate_uniform, PlanEntry, SparsityPlan
from mmprune.data import ModalitySpec, generate_sequences
from mmprune.errors import ConfigError
from mmprune.evaluation import (attention_by_modality, reconstruction_report, rel_avg,
                                run_comparison, sparsity_report)
from mmprune.model import (ActivationTrace, Block, LinearLayer, ModalityId, Span,
                           TokenSequence, ToyModel, forward)
from mmprune.pruner import METHOD_SPECS, Calibration, PruneConfig, make_mask, prune_model
from mmprune.model import init_synthetic
from tests.test_model import _oracle_matvec, _oracle_rms, rng_seq
from tests.test_pruner import count_calibration_forwards

VIS = ModalityId(0, "visual")
LANG = ModalityId(1, "language")


def eval_setup(seed=0):
    model = init_synthetic(8, 2, 12, 2, seed=seed)
    specs = [ModalitySpec("visual", 5), ModalitySpec("language", 4)]
    seqs = generate_sequences(3, 8, specs, seed=seed + 1)
    return model, seqs


# ---------------------------------------------------------------------------
# reconstruction_report


def test_dense_vs_dense_is_exactly_zero_and_one():
    model, seqs = eval_setup()
    metrics = reconstruction_report(model, model.copy(), seqs)
    assert metrics.end_rel_error == 0.0
    assert metrics.cosine == 1.0
    assert all(v == 0.0 for v in metrics.layer_rel_error.values())
    assert all(v == 1.0 for v in metrics.cosine_by_modality.values())
    assert all(v == 0.0 for v in metrics.end_rel_error_by_modality.values())


def test_fully_pruned_nonzero_model_has_positive_error():
    model, seqs = eval_setup(seed=2)
    pruned = model.copy()
    for layer in pruned.iter_layers():
        layer.mask = make_mask(np.abs(layer.weight), 1.0).keep
        layer.apply_mask()
    metrics = reconstruction_report(model, pruned, seqs)
    assert metrics.end_rel_error > 0.0
    assert metrics.cosine < 1.0


def test_architecture_mismatch_raises():
    a = init_synthetic(8, 2, 12, 2, seed=0)
    b = init_synthetic(8, 2, 12, 3, seed=0)
    with pytest.raises(ConfigError):
        reconstruction_report(a, b, [rng_seq(4, 8)])


def _scalar_block_forward(weights, norm_scale, x_tokens):
    """Scalar re-computation of one block, returning per-layer outputs."""
    wq, wk, wv, wo, wgate, wup, wdown = weights
    d = len(x_tokens[0])
    record = {}
    normed = [_oracle_rms(x, norm_scale) for x in x_tokens]
    record["q"] = [_oracle_matvec(wq, x) for x in normed]
    record["k"] = [_oracle_matvec(wk, x) for x in normed]
    record["v"] = [_oracle_matvec(wv, x) for x in normed]
    q, k, v = record["q"], record["k"], record["v"]
    scale = math.sqrt(d)
    s10 = sum(a * b for a, b in zip(q[1], k[0])) / scale
    s11 = sum(a * b for a, b in zip(q[1], k[1])) / scale
    m = max(s10, s11)
    e10, e11 = math.exp(s10 - m), math.exp(s11 - m)
    p10, p11 = e10 / (e10 + e11), e11 / (e10 + e11)
    ctx = [v[0], [p10 * a + p11 * b for a, b in zip(v[0], v[1])]]
    record["o"] = [_oracle_matvec(wo, c) for c in ctx]
    h = [[a + b for a, b in zip(x, o)] for x, o in zip(x_tokens, record["o"])]
    normed2 = [_oracle_rms(t, norm_scale) for t in h]
    record["gate"] = [_oracle_matvec(wgate, t) for t in normed2]
    record["up"] = [_oracle_matvec(wup, t) for t in normed2]
    act = [[g / (1.0 + math.exp(-g)) * u for g, u in zip(gs, us)]
           for gs, us in zip(record["gate"], record["up"])]
    record["down"] = [_oracle_matvec(wdown, a) for a in act]
    record["final"] = [[a + b for a, b in zip(t, dn)] for t, dn in zip(h, record["down"])]
    return record


def test_reconstruction_matches_scalar_oracle_on_one_block():
    d = 4
    rng = np.random.default_rng(33)
    dense_weights = [rng.uniform(-0.5, 0.5, size=(d, d)).tolist() for _ in range(4)]
    dense_weights += [rng.uniform(-0.5, 0.5, size=(3, d)).tolist() for _ in range(2)]
    dense_weights += [rng.uniform(-0.5, 0.5, size=(d, 3)).tolist()]
    pruned_weights = [[list(row) for row in w] for w in dense_weights]
    pruned_weights[2][0] = [0.0] * d  # zero the v-projection's first output row
    pruned_weights[6][1] = [0.0, 0.0, 0.0]  # and a row of down
    x_tokens = [[0.9, -0.4, 0.6, 1.2], [-0.7, 0.8, -0.2, 0.5]]

    ones = [1.0] * d
    oracle_d = _scalar_block_forward(dense_weights, ones, x_tokens)
    oracle_p = _scalar_block_forward(pruned_weights, ones, x_tokens)

    def rel(key):
        num = sum((a - b) ** 2 for ta, tb in zip(oracle_d[key], oracle_p[key])
                  for a, b in zip(ta, tb))
        den = sum(a ** 2 for ta in oracle_d[key] for a in ta)
        return math.sqrt(num / den)

    def token_cos(ta, tb):
        na = math.sqrt(sum(a * a for a in ta))
        nb = math.sqrt(sum(b * b for b in tb))
        return 1.0 - 0.5 * sum((a / na - b / nb) ** 2 for a, b in zip(ta, tb))

    expected_cos = np.mean([token_cos(ta, tb)
                            for ta, tb in zip(oracle_d["final"], oracle_p["final"])])
    expected_end = rel("final")

    def build(weights):
        kinds = ["q", "k", "v", "o", "gate", "up", "down"]
        layers = {kind: LinearLayer(np.array(w, np.float32), kind, 0)
                  for kind, w in zip(kinds, weights)}
        return ToyModel([Block(0, layers, np.ones(d, np.float32), np.ones(d, np.float32))],
                        n_heads=1, d_model=d, d_ff=3, seed=0)

    seq = TokenSequence(np.array(x_tokens, np.float32), [Span(VIS, 0, 1), Span(LANG, 1, 1)])
    metrics = reconstruction_report(build(dense_weights), build(pruned_weights), [seq])
    for kind in ("q", "k", "v", "o", "gate", "up", "down"):
        assert metrics.layer_rel_error[(0, kind)] == pytest.approx(rel(kind), rel=1e-6, abs=1e-7)
    assert metrics.end_rel_error == pytest.approx(expected_end, rel=1e-6)
    assert metrics.cosine == pytest.approx(expected_cos, rel=1e-6)


def test_per_modality_end_to_end_metrics_match_token_loop_oracle():
    model, calib = eval_setup(seed=4)
    pruned, _ = prune_model(model, calib, PruneConfig(method="wanda", sparsity=0.5))
    audio = ModalityId(2, "audio")
    rng = np.random.default_rng(8)
    seqs = [  # visual appears twice in the first sequence, audio only as an empty span
        TokenSequence(rng.standard_normal((9, 8)).astype(np.float32),
                      [Span(VIS, 0, 3), Span(LANG, 3, 2), Span(audio, 5, 0), Span(VIS, 5, 4)]),
        TokenSequence(rng.standard_normal((6, 8)).astype(np.float32),
                      [Span(LANG, 0, 4), Span(VIS, 4, 2)]),
    ]
    num, den, cos, count = {}, {}, {}, {}
    for seq in seqs:
        hidden_d, _ = forward(model, seq)
        hidden_p, _ = forward(pruned, seq)
        for span in seq.spans:
            for t in range(span.start, span.stop):
                a = [float(x) for x in hidden_d[t]]
                b = [float(x) for x in hidden_p[t]]
                norm_a = math.sqrt(sum(x * x for x in a))
                norm_b = math.sqrt(sum(y * y for y in b))
                for group in ("all tokens", span.modality.name):
                    num[group] = num.get(group, 0.0) + sum((x - y) ** 2 for x, y in zip(a, b))
                    den[group] = den.get(group, 0.0) + sum(x * x for x in a)
                    cos[group] = cos.get(group, 0.0) + sum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)
                    count[group] = count.get(group, 0) + 1

    metrics = reconstruction_report(model, pruned, seqs)
    assert metrics.end_rel_error > 0.0
    assert metrics.end_rel_error == pytest.approx(math.sqrt(num["all tokens"] / den["all tokens"]), rel=1e-9)
    assert metrics.cosine == pytest.approx(cos["all tokens"] / count["all tokens"], rel=1e-9)
    assert set(metrics.end_rel_error_by_modality) == set(metrics.cosine_by_modality) == {"visual", "language"}
    for name in ("visual", "language"):
        assert metrics.end_rel_error_by_modality[name] == pytest.approx(math.sqrt(num[name] / den[name]), rel=1e-9)
        assert metrics.cosine_by_modality[name] == pytest.approx(cos[name] / count[name], rel=1e-9)


# ---------------------------------------------------------------------------
# rel_avg


def test_rel_avg_identical_scores_exactly_100():
    scores = {"a": (41.25, 41.25), "b": (0.3, 0.3), "c": (97.0, 97.0)}
    assert rel_avg(scores) == 100.0


def test_rel_avg_half_scores():
    assert rel_avg({"a": (25.0, 50.0), "b": (5.0, 10.0)}) == 50.0


def test_rel_avg_mixed_example():
    assert rel_avg({"a": (45.0, 50.0), "b": (80.0, 100.0)}) == pytest.approx(85.0, abs=1e-12)


def test_rel_avg_rejects_non_positive_reference():
    with pytest.raises(ConfigError):
        rel_avg({"a": (1.0, 0.0)})


# ---------------------------------------------------------------------------
# attention_by_modality


def test_attention_single_modality_mass_one():
    attn = np.array([[1.0, 0.0], [0.5, 0.5]])
    trace = ActivationTrace(spans=[Span(VIS, 0, 2)], attention={0: attn})
    masses = attention_by_modality([trace])
    assert masses[0]["visual"] == pytest.approx(1.0, abs=1e-12)


def test_attention_uniform_masses_proportional_to_span():
    attn = np.full((4, 4), 0.25)
    trace = ActivationTrace(spans=[Span(VIS, 0, 3), Span(LANG, 3, 1)], attention={0: attn})
    masses = attention_by_modality([trace])
    assert masses[0]["visual"] == pytest.approx(0.75, abs=1e-12)
    assert masses[0]["language"] == pytest.approx(0.25, abs=1e-12)


def test_attention_masses_match_double_loop_and_sum_to_one():
    rng = np.random.default_rng(3)
    raw = rng.random((6, 6))
    attn = raw / raw.sum(axis=1, keepdims=True)
    spans = [Span(VIS, 0, 2), Span(LANG, 2, 4)]
    trace = ActivationTrace(spans=spans, attention={0: attn})
    masses = attention_by_modality([trace])
    for span in spans:
        oracle = np.mean([sum(attn[q, k] for k in range(span.start, span.stop))
                          for q in range(6)])
        assert masses[0][span.modality.name] == pytest.approx(oracle, rel=1e-9)
    assert sum(masses[0].values()) == pytest.approx(1.0, abs=1e-5)


def test_attention_requires_capture():
    trace = ActivationTrace(spans=[Span(VIS, 0, 2)], attention={})
    with pytest.raises(ConfigError):
        attention_by_modality([trace])


def test_attention_from_real_traces_sums_to_one():
    model, seqs = eval_setup(seed=5)
    from mmprune.model import CaptureFlags
    traces = [forward(model, s, CaptureFlags(attention=True))[1] for s in seqs]
    masses = attention_by_modality(traces)
    for block in masses.values():
        assert sum(block.values()) == pytest.approx(1.0, abs=1e-5)


def test_attention_streams_a_generator_of_traces():
    model, seqs = eval_setup(seed=5)
    from mmprune.model import CaptureFlags
    capture = CaptureFlags(attention=True)
    refs, peak = [], []

    def traces():
        for seq in seqs:
            trace = forward(model, seq, capture)[1]
            refs.append(weakref.ref(trace))
            peak.append(sum(ref() is not None for ref in refs))
            yield trace
            del trace

    streamed = attention_by_modality(traces())
    assert streamed == attention_by_modality([forward(model, s, capture)[1] for s in seqs])
    assert len(seqs) == 3 and max(peak) == 2  # the consumer drops each trace before the next
    with pytest.raises(ConfigError, match="no traces"):
        attention_by_modality(iter([]))


# ---------------------------------------------------------------------------
# sparsity_report


def test_sparsity_report_uniform_plan():
    counts = {(b, k): 16 for b in range(2) for k in ("q", "k", "v", "o", "gate", "up", "down")}
    plan = allocate_uniform(counts, 0.6)
    report = sparsity_report(plan)
    assert all(v == pytest.approx(0.6) for v in report["by_kind"].values())
    assert all(v == pytest.approx(0.6) for v in report["by_block"].values())


def test_sparsity_report_hand_built_plan():
    entries = []
    values = {}
    for b in range(2):
        for i, kind in enumerate(("q", "k", "v", "o", "gate", "up", "down")):
            ratio = 0.1 * (i + 1) + 0.05 * b
            entries.append(PlanEntry((b, kind), 10, ratio))
            values[(b, kind)] = ratio
    plan = SparsityPlan(0.5, 0.1, entries)
    report = sparsity_report(plan)
    assert report["by_kind"]["q"] == pytest.approx((values[(0, 'q')] + values[(1, 'q')]) / 2)
    assert report["by_block"][1] == pytest.approx(
        np.mean([values[(1, k)] for k in ("q", "k", "v", "o", "gate", "up", "down")]))


def test_sparsity_report_from_masked_model():
    model, seqs = eval_setup(seed=7)
    pruned, _ = prune_model(model, seqs, PruneConfig(method="wanda", sparsity=0.5))
    report = sparsity_report(pruned)
    assert all(v == pytest.approx(0.5, abs=1e-9) for v in report["by_kind"].values())


def test_sparsity_report_empty_model_raises():
    empty = ToyModel([], 2, 8, 12, 0)
    with pytest.raises(ConfigError):
        sparsity_report(empty)


# ---------------------------------------------------------------------------
# comparison grid


def test_run_comparison_rows_and_relavg():
    model, seqs = eval_setup(seed=9)
    eval_seqs = generate_sequences(2, 8, [ModalitySpec("visual", 5), ModalitySpec("language", 4)],
                                   seed=99, domain=1)
    rows = run_comparison(model, seqs, eval_seqs, ["magnitude", "wanda"], [0.5],
                          PruneConfig(sparsity=0.5))
    assert len(rows) == 2
    for row in rows:
        assert {"method", "sparsity", "rel_avg", "cos_overall", "cos_visual", "cos_language"} <= set(row)
        assert row["rel_avg"] <= 100.0 + 1e-9
    dense_scores = reconstruction_report(model, model.copy(), eval_seqs).task_scores()
    assert all(v == 1.0 for v in dense_scores.values())
    assert rel_avg({t: (v, v) for t, v in dense_scores.items()}) == 100.0


def _oracle_row(dense, calib, eval_seqs, config):
    """One comparison row from an independent prune and evaluation."""
    reference = reconstruction_report(dense, dense, eval_seqs).task_scores()
    pruned, report = prune_model(dense, calib, config)
    metrics = reconstruction_report(dense, pruned, eval_seqs)
    scores = metrics.task_scores()
    row = {
        "method": config.method,
        "sparsity": config.sparsity,
        "global_achieved": report.global_achieved,
        "end_rel_error": metrics.end_rel_error,
        "mean_layer_rel_error": metrics.to_dict()["mean_layer_rel_error"],
    }
    row.update(scores)
    row["rel_avg"] = rel_avg({task: (scores[task], reference[task]) for task in scores})
    return row


def test_shared_calibration_grid_matches_independent_cells():
    model, seqs = eval_setup(seed=21)
    eval_seqs = generate_sequences(2, 8, [ModalitySpec("visual", 5), ModalitySpec("language", 4)],
                                   seed=98, domain=1)
    methods = list(METHOD_SPECS)
    sparsities = [0.4, 0.6]
    base = PruneConfig(seed=4, random_count=5)
    shared = Calibration(model, seqs, base.calibration_params())
    for selection in (None, "random", "attention"):
        config = PruneConfig(seed=4, random_count=5, selection=selection)
        rows = run_comparison(model, shared, eval_seqs, methods, sparsities, config)
        expected = [_oracle_row(model, seqs, eval_seqs,
                                PruneConfig(method=m, sparsity=p, seed=4, random_count=5,
                                            selection=selection))
                    for p in sparsities for m in methods]
        assert rows == expected, selection


def test_comparison_grid_runs_each_calibration_pass_once(monkeypatch):
    model, seqs = eval_setup(seed=23)
    eval_seqs = generate_sequences(2, 8, [ModalitySpec("visual", 5), ModalitySpec("language", 4)],
                                   seed=97, domain=1)
    calls = count_calibration_forwards(monkeypatch)
    rows = run_comparison(model, seqs, eval_seqs,
                          ["magnitude", "wanda", "owl", "das", "amia", "tamp"], [0.4, 0.5, 0.6],
                          PruneConfig())
    assert len(rows) == 18
    # one diversity pass, one full-token pass, one adaptive-selection pass
    assert len(calls) <= 3 * len(seqs)


def test_comparison_forwards_each_model_once_per_eval_sequence(monkeypatch):
    import mmprune.evaluation as evaluation
    model, seqs = eval_setup(seed=24)
    eval_seqs = generate_sequences(5, 8, [ModalitySpec("visual", 5), ModalitySpec("language", 4)],
                                   seed=96, domain=1)
    forwarded = {}  # model -> sequences it ran on, in order
    real_forward = evaluation.forward

    def counting_forward(m, chunk, *args, **kwargs):
        forwarded.setdefault(id(m), []).extend(id(seq) for seq in chunk.seqs)
        return real_forward(m, chunk, *args, **kwargs)

    monkeypatch.setattr(evaluation, "forward", counting_forward)
    run_comparison(model, seqs, eval_seqs, ["magnitude", "wanda", "tamp"], [0.4, 0.6], PruneConfig())
    order = [id(seq) for seq in eval_seqs]
    assert forwarded.pop(id(model)) == order  # one dense pass serves the reference and all 6 cells
    assert [ids for ids in forwarded.values()] == [order * 6]  # every cell in one scratch model


@pytest.mark.parametrize("tokens", [1, 18, 27, 10**6], ids=["chunks-of-1", "of-2", "of-3", "one-chunk"])
def test_comparison_rows_do_not_depend_on_eval_chunks(monkeypatch, tokens):
    import mmprune.model as model_module
    model, seqs = eval_setup(seed=25)
    eval_seqs = generate_sequences(5, 8, [ModalitySpec("visual", 5), ModalitySpec("language", 4)],
                                   seed=95, domain=1)
    args = (model, seqs, eval_seqs, ["wanda", "das", "tamp"], [0.5], PruneConfig())
    expected = run_comparison(*args)
    monkeypatch.setattr(model_module, "CHUNK_TOKENS", tokens)
    assert run_comparison(*args) == expected


def test_masked_scratch_weights_equal_apply_mask_bitwise():
    from mmprune.evaluation import _write_masked
    dense = init_synthetic(8, 2, 12, 1, seed=26)
    for layer in dense.iter_layers():
        layer.weight[0, :4] = [-0.0, 0.0, -1.5, 2.5]  # kept and dropped signed zeros and negatives
    rng = np.random.default_rng(27)
    masks = [rng.random(layer.weight.shape) < 0.5 for layer in dense.iter_layers()]
    for mask in masks:
        mask[0, :4] = [True, False, False, True]
    expected = dense.copy()
    for layer, mask in zip(expected.iter_layers(), masks):
        layer.mask = mask
        layer.apply_mask()
    scratch = dense.copy()
    for layer in scratch.iter_layers():
        layer.weight[...] = np.nan  # every weight is written
    assert _write_masked(scratch, dense, [np.packbits(mask) for mask in masks]) is scratch
    for got, want in zip(scratch.iter_layers(), expected.iter_layers()):
        assert got.weight.tobytes() == want.weight.tobytes()


def test_comparison_peak_memory_does_not_grow_with_cells():
    import tracemalloc
    model = init_synthetic(32, 2, 64, 2, seed=28)
    specs = [ModalitySpec("visual", 8), ModalitySpec("language", 8)]
    seqs = generate_sequences(4, 32, specs, seed=29)
    eval_seqs = generate_sequences(4, 32, specs, seed=30, domain=1)

    def peak(methods):
        tracemalloc.start()
        try:
            run_comparison(model, seqs, eval_seqs, methods, [0.5], PruneConfig())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(["wanda", "tamp"])  # first-use caches, such as the causal mask, fill here
    two = peak(["wanda", "tamp"])  # every calibration pass the six methods need
    six = peak(["magnitude", "wanda", "owl", "das", "amia", "tamp"])
    # four more cells cost less than one model's weights; a pruned model kept per cell
    # would add four times that, plus the masks
    weights = sum(layer.weight.nbytes for layer in model.iter_layers())
    assert six - two < weights
