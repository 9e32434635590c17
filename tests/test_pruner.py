"""Importance, masks, pipeline orchestration, and block pruning.

The TAMP end-to-end check re-builds every pipeline stage from scalar
oracles (pair-loop diversities, bisection budget solve, simulated
selection, loop-based norms and masks) and requires the library masks to
match exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mmprune.data import generate_sequences, make_noisy_modality_scenario, ModalitySpec
from mmprune.errors import ConfigError, ShapeError
from mmprune.model import (PROJECTION_KINDS, CaptureFlags, ModalityId, Span, TokenSequence, forward,
                           init_synthetic)
from mmprune.pruner import (Calibration, InputActivation, LayerSelectionStats, PruneConfig,
                            block_importances_das, block_importances_shortgpt, block_prune,
                            blocks_to_remove, importance_magnitude, importance_wanda,
                            make_mask, prune_model)
from mmprune.selection import AmiaParams, select_amia, select_tokens, token_contributions
from tests.test_diversity import oracle_intra, oracle_inter
from tests.test_selection import oracle_reverse_select


# ---------------------------------------------------------------------------
# input activation: per-channel l2 norms over the selected calibration inputs


def q_activation(rows_per_seq):
    """Block 0's q inputs per sequence, and Calibration's full-selection activation of that layer."""
    model = init_synthetic(4, 2, 8, 1, seed=3)
    vis = ModalityId(0, "visual")
    seqs = [TokenSequence(np.array(rows, np.float32), [Span(vis, 0, len(rows))]) for rows in rows_per_seq]
    inputs = [forward(model, seq, CaptureFlags(inputs=True))[1].layer_inputs[(0, "q")] for seq in seqs]
    return inputs, Calibration(model, seqs).activations("full")[0][(0, "q")]


def test_input_activation_single_token():
    (x,), act = q_activation([[[3.0, 4.0, 0.0, 1.0]]])
    np.testing.assert_allclose(act.norms, np.abs(x[0]), rtol=1e-12)
    assert act.token_count == 1


def test_input_activation_orthogonal_rows():
    # RMS norm rescales each row, so orthogonal embeddings give orthogonal inputs
    (x,), act = q_activation([[[2.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]]])
    np.testing.assert_allclose(act.norms, [x[0, 0], x[1, 1], 0.0, 0.0], rtol=1e-12)


def test_input_activation_duplication_scales_by_sqrt2():
    rows = np.random.default_rng(0).standard_normal((5, 4)).tolist()
    _, base = q_activation([rows])
    _, doubled = q_activation([rows, rows])
    np.testing.assert_allclose(doubled.norms, np.sqrt(2.0) * base.norms, rtol=1e-12)
    assert doubled.token_count == 2 * base.token_count


def test_amia_keeps_every_token_of_a_sample_too_short_for_a_knn_graph():
    # 3 tokens and 5 tokens against k = 3: the short sample keeps all its tokens unscored,
    # the long one is selected by AMIA, and both feed the same layers
    rows = np.random.default_rng(4).standard_normal((8, 4)).tolist()
    _, full = q_activation([rows[:3]])
    model = init_synthetic(4, 2, 8, 1, seed=3)
    vis = ModalityId(0, "visual")
    seqs = [TokenSequence(np.array(r, np.float32), [Span(vis, 0, len(r))]) for r in (rows[:3], rows[3:])]
    activations, stats = Calibration(model, seqs).activations("amia")
    short_only, _ = Calibration(model, seqs[:1]).activations("amia")
    np.testing.assert_array_equal(short_only[(0, "q")].norms, full.norms)
    for key, entry in stats.items():
        assert entry.token_total == 8 and 3 + AmiaParams().min_count <= entry.selected_total <= 8
        assert entry.samples == 1 and sum(entry.stopped_by.values()) == 1, key


def test_input_activation_empty_raises():
    model, _ = calib_setup()
    with pytest.raises(ConfigError, match="at least one calibration sequence"):
        prune_model(model, [], PruneConfig(method="wanda"))


# ---------------------------------------------------------------------------
# importance


def test_importance_magnitude():
    np.testing.assert_array_equal(importance_magnitude(np.array([[-2.0, 1.0]])), [[2.0, 1.0]])
    np.testing.assert_array_equal(importance_magnitude(np.zeros((2, 2))), np.zeros((2, 2)))


def test_importance_wanda_unit_activations_is_magnitude():
    w = np.array([[1.0, -2.0], [3.0, 0.5]])
    act = InputActivation(np.ones(2), 1, "full")
    np.testing.assert_array_equal(importance_wanda(w, act), importance_magnitude(w))


def test_importance_wanda_elementwise_example():
    w = np.array([[1.0, -2.0], [3.0, 0.5]])
    act = InputActivation(np.array([2.0, 1.0]), 1, "full")
    np.testing.assert_array_equal(importance_wanda(w, act), [[2.0, 2.0], [6.0, 0.5]])


def test_importance_wanda_zero_channel_zeroes_column():
    w = np.random.default_rng(1).standard_normal((3, 4))
    act = InputActivation(np.array([1.0, 0.0, 2.0, 1.0]), 1, "full")
    assert (importance_wanda(w, act)[:, 1] == 0.0).all()


def test_importance_wanda_shape_mismatch():
    with pytest.raises(ShapeError):
        importance_wanda(np.ones((2, 3)), InputActivation(np.ones(2), 1, "full"))


# ---------------------------------------------------------------------------
# make_mask


def test_mask_ratio_zero_and_one():
    imp = np.random.default_rng(0).random((4, 6))
    assert make_mask(imp, 0.0).keep.all()
    full = make_mask(imp, 1.0)
    assert not full.keep.any()
    assert full.achieved_ratio == 1.0


def test_mask_per_row_example_with_tie_break():
    imp = np.array([[2.0, 2.0], [6.0, 0.5]])
    mask = make_mask(imp, 0.5, "per_output_row")
    np.testing.assert_array_equal(mask.keep, [[False, True], [True, False]])
    assert mask.achieved_ratio == 0.5


def test_mask_per_layer_example():
    imp = np.array([[2.0, 2.0], [6.0, 0.5]])
    mask = make_mask(imp, 0.5, "per_layer")
    np.testing.assert_array_equal(mask.keep, [[False, True], [True, False]])


def test_mask_matches_sorting_oracle():
    rng = np.random.default_rng(5)
    imp = rng.random((6, 9))
    ratio = 0.4
    mask = make_mask(imp, ratio, "per_output_row")
    n_drop = int(ratio * 9)
    for r in range(6):
        order = sorted(range(9), key=lambda c: (imp[r, c], c))
        drop = set(order[:n_drop])
        np.testing.assert_array_equal(~mask.keep[r], [c in drop for c in range(9)])


def test_mask_achieved_within_one_element_per_group_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows, cols = int(rng.integers(1, 64)), int(rng.integers(1, 64))
        imp = rng.random((rows, cols))
        ratio = float(rng.random())
        for group, size in (("per_output_row", cols), ("per_layer", rows * cols)):
            mask = make_mask(imp, ratio, group)
            achieved = (~mask.keep).sum() / (rows * cols)
            assert mask.achieved_ratio == achieved
            if group == "per_output_row":
                per_row = (~mask.keep).sum(axis=1) / cols
                assert (np.abs(per_row - ratio) < 1.0 / cols + 1e-12).all()
            else:
                assert abs(achieved - ratio) < 1.0 / size + 1e-12


def test_mask_containment_monotone_in_ratio():
    rng = np.random.default_rng(9)
    imp = rng.random((8, 16))
    previous = np.zeros(imp.shape, dtype=bool)
    for ratio in (0.1, 0.25, 0.5, 0.75, 0.9):
        dropped = ~make_mask(imp, ratio, "per_output_row").keep
        assert (previous <= dropped).all()
        previous = dropped


def test_mask_invariant_to_activation_rescaling():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((12, 10))
    norms = rng.random(10) + 0.1
    base = make_mask(importance_wanda(w, InputActivation(norms, 1, "full")), 0.5)
    scaled = make_mask(importance_wanda(w, InputActivation(4.0 * norms, 1, "full")), 0.5)
    np.testing.assert_array_equal(base.keep, scaled.keep)


def test_mask_bad_args():
    with pytest.raises(ConfigError):
        make_mask(np.ones((2, 2)), 1.5)
    with pytest.raises(ConfigError):
        make_mask(np.ones((2, 2)), 0.5, "per_banana")


# ---------------------------------------------------------------------------
# pipeline


def calib_setup(seed=0, n_blocks=2, n_seqs=3):
    model = init_synthetic(8, 2, 12, n_blocks, seed=seed)
    specs = [ModalitySpec("visual", 6, scale=1.2), ModalitySpec("language", 4)]
    seqs = generate_sequences(n_seqs, 8, specs, seed=seed + 1)
    return model, seqs


def test_magnitude_uniform_reproduces_classic_magnitude():
    model, seqs = calib_setup()
    pruned, report = prune_model(model, seqs, PruneConfig(method="magnitude", sparsity=0.5))
    for layer in model.iter_layers():
        expected = make_mask(importance_magnitude(layer.weight), 0.5)
        got = pruned.blocks[layer.block_index].layers[layer.kind]
        np.testing.assert_array_equal(got.mask, expected.keep)
        assert (got.weight[~got.mask] == 0.0).all()
        np.testing.assert_array_equal(got.weight[got.mask], layer.weight[expected.keep])


def test_wanda_uniform_full_selection_is_wanda():
    model, seqs = calib_setup(seed=3)
    pruned, _ = prune_model(model, seqs, PruneConfig(method="wanda", sparsity=0.5))
    # oracle: stack every token of every sequence, per-channel l2 norms
    capture = CaptureFlags(inputs=True)
    stacked = {}
    for seq in seqs:
        _, trace = forward(model, seq, capture)
        for key, x in trace.layer_inputs.items():
            stacked.setdefault(key, []).append(x.astype(np.float64))
    for layer in model.iter_layers():
        key = (layer.block_index, layer.kind)
        rows = np.concatenate(stacked[key])
        norms = np.sqrt((rows ** 2).sum(axis=0))
        expected = make_mask(norms[None, :] * np.abs(layer.weight.astype(np.float64)), 0.5)
        got = pruned.blocks[key[0]].layers[key[1]]
        np.testing.assert_array_equal(got.mask, expected.keep)


def test_pipeline_deterministic_and_thread_invariant():
    model, seqs = calib_setup(seed=5, n_seqs=4)
    cfg1 = PruneConfig(method="tamp", sparsity=0.5, seed=9)
    p1, _ = prune_model(model, seqs, cfg1)
    p2, _ = prune_model(model, seqs, cfg1)
    for a, b in zip(p1.iter_layers(), p2.iter_layers()):
        assert a.weight.tobytes() == b.weight.tobytes()
        np.testing.assert_array_equal(a.mask, b.mask)


def count_calibration_forwards(monkeypatch):
    """One entry per sequence that a calibration forward runs, whatever its chunk."""
    import mmprune.pruner as pruner
    calls = []
    real_forward = pruner.forward

    def counting_forward(model, chunk, *args, **kwargs):
        calls.extend([1] * len(chunk.seqs))
        return real_forward(model, chunk, *args, **kwargs)

    monkeypatch.setattr(pruner, "forward", counting_forward)
    return calls


def test_single_prune_runs_only_the_passes_it_uses(monkeypatch):
    model, seqs = calib_setup(seed=6, n_seqs=4)
    calls = count_calibration_forwards(monkeypatch)
    expected = {"magnitude": 0, "wanda": 1, "owl": 1, "das": 2, "amia": 2, "tamp": 2}
    for method, passes in expected.items():
        calls.clear()
        prune_model(model, seqs, PruneConfig(method=method, sparsity=0.5))
        assert len(calls) == passes * len(seqs), method


def test_calibration_memoizes_and_matches_fresh_runs(monkeypatch):
    model, seqs = calib_setup(seed=8, n_seqs=4)
    config = PruneConfig(method="tamp", sparsity=0.5, seed=2)
    calls = count_calibration_forwards(monkeypatch)
    shared = Calibration(model, seqs, config.calibration_params())
    first, _ = prune_model(model, shared, config)
    assert len(calls) == 2 * len(seqs)
    again, _ = prune_model(model, shared, config)
    das, _ = prune_model(model, shared, PruneConfig(method="das", sparsity=0.6, seed=2))
    assert len(calls) == 3 * len(seqs)  # + the full-token pass das needs
    fresh, _ = prune_model(model, seqs, config)
    fresh_das, _ = prune_model(model, seqs, PruneConfig(method="das", sparsity=0.6, seed=2))
    for a, b, c in zip(first.iter_layers(), again.iter_layers(), fresh.iter_layers()):
        assert a.weight.tobytes() == b.weight.tobytes() == c.weight.tobytes()
    for a, b in zip(das.iter_layers(), fresh_das.iter_layers()):
        assert a.weight.tobytes() == b.weight.tobytes()


@pytest.mark.parametrize("config,data", [
    (PruneConfig(method="tamp", sparsity=0.5, seed=2), "plain"),
    (PruneConfig(method="tamp", sparsity=0.5, seed=2), "noisy"),
    (PruneConfig(method="wanda", sparsity=0.5, sequential=True), "plain"),
    (PruneConfig(method="tamp", sparsity=0.5, sequential=True), "noisy"),
], ids=["tamp", "noisy-tamp", "sequential-wanda", "noisy-sequential-tamp"])
def test_prune_does_not_depend_on_chunk_or_stack_sizes(monkeypatch, config, data):
    import mmprune.model as model_module
    import mmprune.pruner as pruner
    if data == "plain":
        model, seqs = calib_setup(seed=61, n_seqs=5)
    else:
        scenario = make_noisy_modality_scenario(2, d_model=24, n_heads=4, d_ff=32, n_blocks=2,
                                                n_calib=3, n_eval=1)
        model, seqs = scenario.model, scenario.calib
    runs = []
    # one sequence per chunk and one layer per AMIA stack; two sequences and the default
    # stacks; every sequence in one chunk and every layer of a shape in one stack
    for tokens, elements in [(1, 1), (2 * len(seqs[0]), pruner.AMIA_STACK_ELEMENTS), (10**9, 10**9)]:
        monkeypatch.setattr(model_module, "CHUNK_TOKENS", tokens)
        monkeypatch.setattr(pruner, "AMIA_STACK_ELEMENTS", elements)
        pruned, report = prune_model(model, seqs, config)
        runs.append(([layer.weight.tobytes() + layer.mask.tobytes() for layer in pruned.iter_layers()],
                     report.to_dict()))
    assert runs[0] == runs[1] == runs[2]


def test_calibration_must_match_model_and_settings():
    model, seqs = calib_setup(seed=9)
    shared = Calibration(model, seqs, PruneConfig(seed=1).calibration_params())
    with pytest.raises(ConfigError):
        prune_model(model, shared, PruneConfig(seed=2))
    with pytest.raises(ConfigError):
        prune_model(model.copy(), shared, PruneConfig(seed=1))
    with pytest.raises(ConfigError):
        prune_model(model, seqs, PruneConfig(method="wanda", selection="banana"))


def test_mask_application_idempotent():
    model, seqs = calib_setup(seed=7)
    pruned, _ = prune_model(model, seqs, PruneConfig(method="wanda", sparsity=0.6))
    before = [l.weight.copy() for l in pruned.iter_layers()]
    for layer in pruned.iter_layers():
        layer.apply_mask()
    for prev, layer in zip(before, pruned.iter_layers()):
        assert prev.tobytes() == layer.weight.tobytes()


def test_report_contents_and_global_achieved():
    model, seqs = calib_setup(seed=11)
    pruned, report = prune_model(model, seqs, PruneConfig(method="tamp", sparsity=0.5))
    assert set(report.achieved) == set(model.param_counts())
    assert report.plan.weighted_mean() == pytest.approx(0.5, abs=1e-9)
    # floor granularity is 1/C_in = 1/8 per row group at this width
    assert abs(report.global_achieved - 0.5) < 0.125
    assert report.selection == "amia"
    assert report.diversity is not None
    d = report.to_dict()
    assert len(d["layers"]) == 14


def test_selection_override_and_random_determinism():
    model, seqs = calib_setup(seed=13)
    cfg = PruneConfig(method="wanda", sparsity=0.5, selection="random", random_count=5, seed=3)
    p1, r1 = prune_model(model, seqs, cfg)
    p2, r2 = prune_model(model, seqs, cfg)
    assert r1.selection == "random"
    for a, b in zip(p1.iter_layers(), p2.iter_layers()):
        np.testing.assert_array_equal(a.mask, b.mask)
    stats = r1.selection_stats[(0, "q")]
    assert stats.selected_total == 5 * len(seqs)


def test_plan_must_cover_every_layer():
    model, seqs = calib_setup(seed=17)
    from mmprune.allocation import allocate_uniform
    partial_plan = allocate_uniform({(0, "q"): 64}, 0.5)
    with pytest.raises(ConfigError):
        prune_model(model, seqs, PruneConfig(method="wanda"), plan=partial_plan)


def test_owl_report_carries_outlier_ratios():
    model, seqs = calib_setup(seed=19)
    _, report = prune_model(model, seqs, PruneConfig(method="owl", sparsity=0.5))
    assert report.owl_ratios is not None
    assert all(0.0 <= v <= 1.0 for v in report.owl_ratios.values())


def test_sequential_mode_runs_and_hits_budget():
    model, seqs = calib_setup(seed=23)
    pruned, report = prune_model(model, seqs, PruneConfig(method="tamp", sparsity=0.5, sequential=True))
    assert abs(report.global_achieved - 0.5) < 0.125
    for layer in pruned.iter_layers():
        assert layer.mask is not None


def oracle_sequential_prune(model, seqs, config, ratios):
    """Naive sequential reference: per block, a full forward of every sample
    through the progressively masked copy, then Wanda masks for that block."""
    kind = config.resolved_selection()
    thresholds = Calibration(model, seqs).thresholds if kind == "amia" else {}
    masked = model.copy()
    masks, achieved, stats = {}, {}, {}
    capture = CaptureFlags(inputs=True, outputs=True, attention=True)
    for b in range(model.n_blocks):
        traces = [forward(masked, seq, capture)[1] for seq in seqs]
        for kind_index, layer_kind in enumerate(PROJECTION_KINDS):
            key = (b, layer_kind)
            entry = LayerSelectionStats(threshold=thresholds.get(key))
            sq = np.zeros(model.layer(*key).in_features)
            for index, trace in enumerate(traces):
                x = trace.layer_inputs[key]
                rng = np.random.default_rng(np.random.SeedSequence(
                    [config.seed, 7701, index, b, kind_index]))
                a, z = token_contributions(trace.attention[b]), trace.layer_outputs[key]
                if kind == "amia":
                    result = select_amia(a[None], z[None], [thresholds[key]], config.amia)[0]
                    picks = result.selected
                else:
                    picks = select_tokens(kind, a, z, rng=rng, random_count=config.random_count)
                    result = None
                sq += np.square(x[picks].astype(np.float64)).sum(axis=0)
                entry.token_total += len(x)
                entry.selected_total += len(picks)
                for span in trace.spans:
                    inside = int(((picks >= span.start) & (picks < span.stop)).sum())
                    name = span.modality.name
                    entry.by_modality[name] = entry.by_modality.get(name, 0) + inside
                if result is not None:
                    entry.stopped_by[result.stopped_by] = entry.stopped_by.get(result.stopped_by, 0) + 1
                    entry.final_mmd_sum += result.mmd_trace[-1]
                    entry.samples += 1
            stats[key] = entry
            layer = masked.layer(*key)
            masks[key] = make_mask(importance_wanda(layer.weight, InputActivation(np.sqrt(sq), 0, kind)),
                                   ratios[key]).keep
            achieved[key] = float((~masks[key]).sum()) / masks[key].size
        for layer_kind in PROJECTION_KINDS:
            layer = masked.layer(b, layer_kind)
            layer.mask = masks[(b, layer_kind)]
            layer.apply_mask()
    return masks, achieved, stats


@pytest.mark.parametrize("method,selection", [
    ("wanda", "full"), ("wanda", "random"), ("wanda", "attention"), ("wanda", "amia"),
    ("tamp", None), ("owl", None), ("owl", "attention")])
def test_sequential_prune_matches_naive_masked_prefix_oracle(method, selection):
    model, seqs = calib_setup(seed=51, n_blocks=3, n_seqs=4)
    config = PruneConfig(method=method, sparsity=0.5, selection=selection, random_count=5,
                         seed=4, sequential=True)
    _, dense_report = prune_model(model, seqs, replace(config, sequential=False))
    ratios = dense_report.plan.ratios()
    masks, achieved, stats = oracle_sequential_prune(model, seqs, config, ratios)
    pruned, report = prune_model(model, seqs, config)
    assert report.plan.ratios() == ratios
    for layer in pruned.iter_layers():
        key = (layer.block_index, layer.kind)
        np.testing.assert_array_equal(layer.mask, masks[key], err_msg=f"layer {key}")
    assert report.achieved == achieved
    assert report.selection_stats == stats
    # masking changes later blocks' inputs, so the sequential prune differs from the dense one
    assert any(not np.array_equal(a.mask, b.mask)
               for a, b in zip(pruned.iter_layers(), prune_model(model, seqs, replace(
                   config, sequential=False))[0].iter_layers()))


def test_sequential_prune_runs_each_block_at_most_twice_per_sample(monkeypatch):
    import inspect

    import mmprune.pruner as pruner
    model, seqs = calib_setup(seed=53, n_blocks=4, n_seqs=3)
    real_forward = pruner.forward
    signature = inspect.signature(real_forward)
    evaluated = []  # blocks run, once per sequence forwarded

    def counting_forward(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        stop = bound.get("stop")
        blocks = (bound["model"].n_blocks if stop is None else stop) - bound.get("start", 0)
        evaluated.extend([blocks] * len(bound["seq"].seqs))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(pruner, "forward", counting_forward)
    prune_model(model, seqs, PruneConfig(method="wanda", sparsity=0.5, sequential=True))
    n_blocks = model.n_blocks
    assert len(evaluated) == n_blocks * len(seqs)
    assert sum(evaluated) == (2 * n_blocks - 1) * len(seqs)  # B^2 per sample when re-run per block


# ---------------------------------------------------------------------------
# the scripted composition oracle for TAMP


def oracle_plan_bisect(importances, counts, target, lam):
    keys = list(importances)
    vals = [importances[k] for k in keys]
    lo, hi = min(vals), max(vals)
    shat = {k: 0.5 if hi == lo else (importances[k] - lo) / (hi - lo) for k in keys}
    raw = {k: target + lam * (1.0 - 2.0 * shat[k]) for k in keys}
    total = sum(counts[k] for k in keys)

    def mean(delta):
        return sum(counts[k] * min(1.0, max(0.0, raw[k] + delta)) for k in keys) / total

    lo_d, hi_d = -2.0, 2.0
    for _ in range(200):
        mid = (lo_d + hi_d) / 2.0
        if mean(mid) < target:
            lo_d = mid
        else:
            hi_d = mid
    delta = (lo_d + hi_d) / 2.0
    return {k: min(1.0, max(0.0, raw[k] + delta)) for k in keys}


def test_tamp_masks_match_scripted_composition_oracle():
    model, seqs = calib_setup(seed=29, n_blocks=2, n_seqs=3)
    target, lam = 0.5, 0.1
    params = AmiaParams()

    # stage 1: diversity stats via exhaustive pair loops, per sample then averaged
    capture = CaptureFlags(inputs=True, outputs=True, attention=True)
    traces = [forward(model, seq, capture)[1] for seq in seqs]
    importances = {}
    for key in model.param_counts():
        terms = {"v": [], "l": [], "vl": []}
        for trace in traces:
            z = trace.layer_outputs[key].astype(np.float64)
            vis = [i for s in trace.spans if s.modality.name == "visual" for i in range(s.start, s.stop)]
            lang = [i for s in trace.spans if s.modality.name == "language" for i in range(s.start, s.stop)]
            terms["v"].append(oracle_intra(z, vis))
            terms["l"].append(oracle_intra(z, lang))
            terms["vl"].append(oracle_inter(z, vis, lang))
        s = sum(np.mean(t) for t in terms.values()) / 3.0
        importances[key] = s

    # stage 2: plan via bisection on the common offset
    counts = model.param_counts()
    oracle_ratios = oracle_plan_bisect(importances, counts, target, lam)

    # stage 3: selection per (sample, layer) via the scalar simulation,
    # then norms, importance, and masks via plain loops
    oracle_masks = {}
    for key in counts:
        threshold = 0.1 * math.sqrt(importances[key])
        sq = np.zeros(model.layer(*key).in_features)
        for trace in traces:
            a0 = trace.attention[key[0]][-1, :].astype(np.float64)
            z = trace.layer_outputs[key].astype(np.float64)
            # forward update with original-value semantics
            from mmprune.selection import build_knn
            graph = build_knn(z, params.k, params.gamma_forward)
            boosted = []
            for i in range(len(a0)):
                total = a0[i]
                for slot, j in enumerate(graph.neighbors[i]):
                    total += graph.weights[i, slot] * a0[j]
                boosted.append(total)
            picks, _, _ = oracle_reverse_select(
                np.array(boosted), z, params.k, params.gamma_reverse, threshold, params.min_count)
            x = trace.layer_inputs[key].astype(np.float64)
            for i in picks:
                sq += x[i] ** 2
        norms = np.sqrt(sq)
        w = model.layer(*key).weight.astype(np.float64)
        imp = norms[None, :] * np.abs(w)
        n_drop = int(oracle_ratios[key] * imp.shape[1])
        keep = np.ones(imp.shape, dtype=bool)
        for r in range(imp.shape[0]):
            order = sorted(range(imp.shape[1]), key=lambda c: (imp[r, c], c))
            for c in order[:n_drop]:
                keep[r, c] = False
        oracle_masks[key] = keep

    pruned, report = prune_model(model, seqs, PruneConfig(method="tamp", sparsity=target, lam=lam))
    for key in counts:
        assert report.plan.ratios()[key] == pytest.approx(oracle_ratios[key], abs=1e-9)
        got = pruned.blocks[key[0]].layers[key[1]].mask
        np.testing.assert_array_equal(got, oracle_masks[key], err_msg=f"layer {key}")


# ---------------------------------------------------------------------------
# block pruning


def test_blocks_to_remove_argmin_example():
    imps = {0: 0.9, 1: 0.1, 2: 0.8, 3: 0.7}
    assert blocks_to_remove(imps, 0.25) == [1]


def test_blocks_to_remove_tie_prefers_deeper():
    imps = {0: 0.5, 1: 0.5, 2: 0.9, 3: 0.9}
    assert blocks_to_remove(imps, 0.5) == [0, 1]
    imps = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.9}
    assert blocks_to_remove(imps, 0.5) == [1, 2]


def test_block_prune_ratio_zero_is_identity():
    model, seqs = calib_setup(seed=31, n_blocks=4)
    reduced = block_prune(model, {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}, 0.0)
    assert reduced.n_blocks == 4
    h0, _ = forward(model, seqs[0])
    h1, _ = forward(reduced, seqs[0])
    assert h0.tobytes() == h1.tobytes()


def test_block_prune_all_blocks_raises():
    model, _ = calib_setup(seed=37, n_blocks=2)
    with pytest.raises(ConfigError):
        block_prune(model, {0: 0.1, 1: 0.2}, 1.0)


def make_identity_block(model, index):
    for kind in ("v", "o", "gate", "up", "down"):
        layer = model.blocks[index].layers[kind]
        layer.weight = np.zeros_like(layer.weight)


def test_identity_block_removal_changes_nothing():
    model, seqs = calib_setup(seed=41, n_blocks=4)
    make_identity_block(model, 2)
    imps = block_importances_shortgpt(Calibration(model, seqs))
    assert min(imps, key=imps.get) == 2
    assert imps[2] == pytest.approx(0.0, abs=1e-6)
    reduced = block_prune(model, imps, 0.25)
    assert reduced.n_blocks == 3
    for seq in seqs:
        h0, _ = forward(model, seq)
        h1, _ = forward(reduced, seq)
        assert h0.tobytes() == h1.tobytes()


def test_block_importances_das_is_mean_of_layer_importances():
    model, seqs = calib_setup(seed=43, n_blocks=2)
    stats = Calibration(model, seqs).diversity
    by_block = block_importances_das(stats)
    manual0 = np.mean([stats[(0, kind)].importance for kind in PROJECTION_KINDS])
    assert by_block[0] == pytest.approx(manual0, rel=1e-12)


def test_sequential_owl_combination_runs():
    model, seqs = calib_setup(seed=47)
    pruned, report = prune_model(model, seqs,
                                 PruneConfig(method="owl", sparsity=0.5, sequential=True))
    assert report.owl_ratios is not None
    assert all(layer.mask is not None for layer in pruned.iter_layers())
    assert report.plan.weighted_mean() == pytest.approx(0.5, abs=1e-9)
