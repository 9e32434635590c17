"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated after the fact:
oracle equivalence at 1e-6 relative, budgets at 1e-9, masks within one
element per comparison group, statistical properties at their stated
win counts.
"""

import numpy as np
import pytest

from mmprune.allocation import allocate_das
from mmprune.cli import main
from mmprune.data import make_noisy_modality_scenario
from mmprune.errors import InfeasibleBudgetError
from mmprune.evaluation import reconstruction_report, rel_avg
from mmprune.model import ModalityId, Span, TokenSequence, forward, init_synthetic
from mmprune.pruner import (Calibration, PruneConfig, block_importances_shortgpt,
                            block_prune, blocks_to_remove, importance_wanda, make_mask, mask_order,
                            prune_model)
from mmprune.selection import AmiaParams
from tests.test_diversity import intra, oracle_intra
from tests.test_model import rng_seq
from tests.test_pruner import achieved_ratio, q_activation
from tests.test_selection import amia_one, knn_weights, oracle_reverse_select, two_cluster_tokens


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS - {message}")


def test_criterion_1_oracle_equivalence():
    """Independent oracles reproduce the implementation at 1e-6 relative."""
    rtol = 1e-6

    # forward pass against the scalar block oracle (full check in test_model)
    from tests.test_model import test_forward_matches_scalar_hand_computation
    test_forward_matches_scalar_hand_computation()

    # diversity against exhaustive pair loops
    rng = np.random.default_rng(101)
    z = rng.standard_normal((6, 5))
    assert intra(z, np.arange(6)) == pytest.approx(oracle_intra(z, list(range(6))), rel=rtol)

    # allocation against the brute-force offset search
    plan = allocate_das({"a": 2.0, "b": 1.0}, {"a": 3, "b": 1}, 0.5, 0.1)
    assert plan.ratios()["a"] == pytest.approx(0.45, rel=rtol)
    assert plan.ratios()["b"] == pytest.approx(0.65, rel=rtol)

    # selection against the scalar simulation
    z = two_cluster_tokens()
    params = AmiaParams()
    result = amia_one(np.full(6, 1 / 6), z, threshold=0.05, params=params)
    from mmprune.selection import forward_update
    boosted = forward_update(np.full(6, 1 / 6), *knn_weights(z, params.k, params.gamma_forward))
    picks, trace, _ = oracle_reverse_select(boosted, z, params.k, params.gamma_reverse,
                                            0.05, params.min_count)
    assert list(result.selected) == picks
    np.testing.assert_allclose(result.mmd_trace, trace, rtol=rtol)

    # wanda importance and activation norms, scalar arithmetic
    (x,), act = q_activation([rng.standard_normal((5, 4)).tolist()])
    oracle = [sum(float(row[c]) ** 2 for row in x) ** 0.5 for c in range(4)]
    np.testing.assert_allclose(act.norms, oracle, rtol=rtol)
    got = importance_wanda(np.array([[1.0, -2.0], [3.0, 0.5]]),
                           np.array([2.0, 1.0]))
    np.testing.assert_allclose(got, [[2.0, 2.0], [6.0, 0.5]], rtol=rtol)

    # mask generation against the per-row sort oracle
    mask = make_mask(mask_order(np.array([[2.0, 2.0], [6.0, 0.5]]), "per_output_row"), 0.5, "per_output_row")
    np.testing.assert_array_equal(mask, [[False, True], [True, False]])

    # relative average arithmetic
    assert rel_avg({"a": (45.0, 50.0), "b": (80.0, 100.0)}) == pytest.approx(85.0, rel=rtol)

    report(1, "derived examples match their independent oracles at 1e-6 relative")


def test_criterion_2_budget_exactness():
    """1000 fuzzed allocation instances: budget within 1e-9 or infeasibility;
    monotone in importance; lambda=0 collapses to uniform."""
    rng = np.random.default_rng(2024)
    checked = 0
    infeasible = 0
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        importances = {i: float(rng.uniform(0, 10)) for i in range(n)}
        counts = {i: int(rng.integers(1, 2000)) for i in range(n)}
        target = float(rng.uniform(0.02, 0.98))
        lam = float(rng.uniform(0, 0.6))
        try:
            plan = allocate_das(importances, counts, target, lam)
        except InfeasibleBudgetError:
            infeasible += 1
            continue
        total = sum(counts.values())
        mean = sum(counts[i] * r for i, r in plan.ratios().items()) / total
        assert abs(mean - target) <= 1e-9
        ratios = plan.ratios()
        for i in range(n):
            assert 0.0 <= ratios[i] <= 1.0
            for j in range(n):
                if importances[i] > importances[j]:
                    assert ratios[i] <= ratios[j] + 1e-12
        flat = allocate_das(importances, counts, target, 0.0)
        assert all(r == pytest.approx(target, abs=1e-12) for r in flat.ratios().values())
        checked += 1
    assert checked + infeasible == 1000
    report(2, f"{checked} fuzzed budgets exact to 1e-9 ({infeasible} infeasible raises), "
              "monotone, lambda=0 uniform")


def test_criterion_3_mask_correctness():
    """Fuzzed masks up to 64x64: per-group sparsity within one element,
    nested drop sets across ratios, activation-rescale invariance."""
    rng = np.random.default_rng(77)
    for _ in range(150):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        imp = rng.random((rows, cols)) * float(rng.uniform(0.5, 100))
        ratios = sorted(float(r) for r in rng.random(3))
        for group, size in (("per_output_row", cols), ("per_layer", rows * cols)):
            previous = np.zeros((rows, cols), dtype=bool)
            for ratio in ratios:
                mask = make_mask(mask_order(imp, group), ratio, group)
                dropped = ~mask
                if group == "per_output_row":
                    per_group = dropped.sum(axis=1) / cols
                    assert (np.abs(per_group - ratio) < 1.0 / size + 1e-12).all()
                else:
                    assert abs(dropped.sum() / dropped.size - ratio) < 1.0 / size + 1e-12
                assert (previous <= dropped).all()
                previous = dropped
        scale = float(rng.uniform(0.1, 50))
        base = make_mask(mask_order(imp, "per_output_row"), 0.5, "per_output_row")
        scaled_cols = rng.random(cols) + 0.1
        a = make_mask(mask_order(imp * scaled_cols, "per_output_row"), 0.5, "per_output_row")
        b = make_mask(mask_order(imp * (scale * scaled_cols), "per_output_row"), 0.5, "per_output_row")
        np.testing.assert_array_equal(a, b)
        assert achieved_ratio(base) == (~base).sum() / base.size
    report(3, "150 fuzzed importance matrices: group sparsity within one element, "
              "nested drops, rescale-invariant")


def test_criterion_4_amia_behavior():
    """Two-cluster picks split, threshold-0 exhausts with zero MMD, x10
    rescaling leaves the selection unchanged."""
    z = two_cluster_tokens()
    result = amia_one(np.full(6, 1 / 6), z, threshold=1e-9)
    first, second = result.selected[:2]
    assert (first < 3) != (second < 3)

    rng = np.random.default_rng(404)
    z_big = rng.standard_normal((20, 6))
    a = rng.random(20)
    full = amia_one(a, z_big, threshold=0.0)
    assert sorted(full.selected) == list(range(20))
    assert full.mmd_trace[-1] == pytest.approx(0.0, abs=1e-9)

    base = amia_one(a, z_big, threshold=0.05)
    scaled = amia_one(a, 10.0 * z_big, threshold=0.05)
    assert list(base.selected) == list(scaled.selected)
    report(4, "cluster-splitting picks, exhaustive zero-threshold selection, "
              "x10 scale invariance")


def diversity_probe(seed: int):
    """2-block model where block 0's v-projection collapses output tokens onto
    one direction (low diversity) and block 1's v is orthogonal (high
    diversity), plus matching sequences sharing the mean direction that the
    collapsing projection reads.

    Returns (model, sequences, low_layer_id, high_layer_id).
    """
    d_model, n_tokens = 32, 24
    rng = np.random.default_rng(np.random.SeedSequence([seed, 555]))
    mu = rng.standard_normal(d_model)
    mu /= np.linalg.norm(mu)

    model = init_synthetic(d_model, 4, 64, 2, seed=seed)
    v_low = model.blocks[0].layers["v"]
    u = rng.standard_normal(d_model)
    u /= np.linalg.norm(u)
    v_low.weight = (np.linalg.norm(v_low.weight.astype(np.float64)) * np.outer(u, mu)
                    + 0.05 * v_low.weight).astype(np.float32)
    v_high = model.blocks[1].layers["v"]
    q_mat, _ = np.linalg.qr(rng.standard_normal((d_model, d_model)))
    v_high.weight = (q_mat * 0.6).astype(np.float32)

    half = n_tokens // 2
    mods = [ModalityId(0, "visual"), ModalityId(1, "language")]
    seqs = []
    for i in range(8):
        seq_rng = np.random.default_rng(np.random.SeedSequence([seed, 556, i]))
        embeddings = (2.5 * mu + 0.6 * seq_rng.standard_normal((n_tokens, d_model))).astype(np.float32)
        spans = [Span(mods[0], 0, half), Span(mods[1], half, n_tokens - half)]
        seqs.append(TokenSequence(embeddings, spans))
    return model, seqs, (0, "v"), (1, "v")


def test_criterion_5_das_directionality():
    """Engineered low-diversity layer gets strictly higher sparsity at
    p=0.5, lambda=0.1."""
    model, seqs, low_key, high_key = diversity_probe(0)
    stats = Calibration(model, seqs).diversity
    importances = {key: st.importance for key, st in stats.items()}
    assert importances[low_key] < importances[high_key]
    plan = allocate_das(importances, model.param_counts(), 0.5, 0.1)
    ratios = plan.ratios()
    assert ratios[low_key] > ratios[high_key]
    report(5, f"low-diversity v-layer ratio {ratios[low_key]:.4f} > "
              f"high-diversity {ratios[high_key]:.4f}")


def test_criterion_6_adversarial_superiority():
    """On the noisy-modality construction at 50% sparsity: TAMP beats
    uniform Wanda in >= 8/10 seeds; DAS-only and AMIA-only in >= 6/10."""
    methods = ("wanda", "das", "amia", "tamp")
    wins = {"das": 0, "amia": 0, "tamp": 0}
    for seed in range(10):
        scenario = make_noisy_modality_scenario(seed, n_calib=12, n_eval=8)
        calibration = Calibration(scenario.model, scenario.calib)  # shared by the four prunes
        errors = {}
        for method in methods:
            pruned, _ = prune_model(scenario.model, calibration,
                                    PruneConfig(method=method, sparsity=0.5))
            metrics = reconstruction_report(scenario.model, pruned, scenario.eval)
            errors[method] = metrics.end_rel_error
        for method in wins:
            wins[method] += errors[method] <= errors["wanda"]
    assert wins["tamp"] >= 8, wins
    assert wins["das"] >= 6, wins
    assert wins["amia"] >= 6, wins
    report(6, f"wins over uniform Wanda across 10 seeds: tamp={wins['tamp']}, "
              f"das={wins['das']}, amia={wins['amia']}")


def test_criterion_7_structural_sanity():
    """ShortGPT-style importance removes a residual-only block first and
    removing it changes outputs by exactly 0."""
    model = init_synthetic(32, 4, 48, 4, seed=8)
    for kind in ("v", "o", "gate", "up", "down"):
        layer = model.blocks[1].layers[kind]
        layer.weight = np.zeros_like(layer.weight)
    seqs = [rng_seq(16, 32, seed=s) for s in range(4)]
    importances = block_importances_shortgpt(Calibration(model, seqs))
    assert blocks_to_remove(importances, 0.25) == [1]
    reduced = block_prune(model, importances, 0.25)
    assert reduced.n_blocks == 3
    for seq in seqs:
        h_full = forward(model, seq)
        h_reduced = forward(reduced, seq)
        assert h_full.tobytes() == h_reduced.tobytes()
    report(7, "identity block removed first; outputs bit-identical after removal")


def test_criterion_8_determinism_and_stability(tmp_path):
    """Byte-identical compare reruns from one run.json; TAMP's relative-average
    std over 3 calibration resamples stays at or below uniform Wanda's."""
    ws = tmp_path / "ws"
    assert main(["gen-synth", "--out", str(ws), "--d-model", "16", "--n-heads", "2",
                 "--d-ff", "24", "--n-blocks", "2", "--tokens-per-modality", "8",
                 "--n-calib", "4", "--n-eval", "2", "--seed", "1"]) == 0
    out = tmp_path / "cmp"
    args = ["compare", "--model", str(ws / "model"), "--calib", str(ws / "calib.jsonl"),
            "--eval", str(ws / "eval.jsonl"), "--methods", "wanda,tamp",
            "--sparsities", "0.5", "--out", str(out), "--seed", "5"]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert main(["rerun", str(out / "run.json")]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert first == second

    stds = {}
    for method in ("wanda", "tamp"):
        scores = []
        for variant in range(3):
            scenario = make_noisy_modality_scenario(0, n_calib=12, n_eval=8,
                                                    calib_variant=variant)
            pruned, _ = prune_model(scenario.model, scenario.calib,
                                    PruneConfig(method=method, sparsity=0.5))
            metrics = reconstruction_report(scenario.model, pruned, scenario.eval)
            scores.append(rel_avg({t: (v, 1.0) for t, v in metrics.task_scores().items()}))
        stds[method] = float(np.std(scores))
    assert stds["tamp"] <= stds["wanda"], stds
    report(8, f"byte-identical rerun; rel-avg std tamp={stds['tamp']:.4f} <= "
              f"wanda={stds['wanda']:.4f} across calibration resamples")
