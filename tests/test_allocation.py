"""Sparsity allocation: budget exactness, monotonicity, oracle checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmprune.allocation import (SparsityPlan, allocate_blockwise_das, allocate_das,
                                allocate_owl, allocate_uniform, owl_outlier_ratio)
from mmprune.errors import ConfigError, InfeasibleBudgetError, MMPruneError
from tests.test_data import edited_json


def weighted_mean(plan):
    total = sum(e.param_count for e in plan.entries)
    return sum(e.param_count * e.ratio for e in plan.entries) / total


# ---------------------------------------------------------------------------
# allocate_das


def test_equal_importances_give_uniform_plan():
    plan = allocate_das({"a": 1.0, "b": 1.0, "c": 1.0}, {"a": 10, "b": 20, "c": 5},
                        target=0.5, lam=0.1)
    assert all(e.ratio == pytest.approx(0.5, abs=1e-12) for e in plan.entries)


def test_two_layer_equal_counts_example():
    plan = allocate_das({"a": 2.0, "b": 1.0}, {"a": 4, "b": 4}, target=0.5, lam=0.1)
    ratios = plan.ratios()
    assert ratios["a"] == pytest.approx(0.4, abs=1e-9)
    assert ratios["b"] == pytest.approx(0.6, abs=1e-9)


def test_two_layer_weighted_counts_example_with_search_oracle():
    # oracle: brute-force the common offset c with r1 = c - lam, r2 = c + lam
    # under (3 r1 + r2) / 4 = 0.5; scan confirms c = 0.55.
    lam = 0.1
    cs = np.linspace(0.0, 1.0, 2_000_001)
    means = (3 * (cs - lam) + (cs + lam)) / 4
    c_star = cs[np.abs(means - 0.5).argmin()]
    assert c_star == pytest.approx(0.55, abs=1e-6)

    plan = allocate_das({"a": 2.0, "b": 1.0}, {"a": 3, "b": 1}, target=0.5, lam=lam)
    ratios = plan.ratios()
    assert ratios["a"] == pytest.approx(c_star - lam, abs=1e-6)
    assert ratios["b"] == pytest.approx(c_star + lam, abs=1e-6)
    assert weighted_mean(plan) == pytest.approx(0.5, abs=1e-9)


def test_budget_exactness_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = rng.integers(1, 12)
        importances = {i: float(rng.uniform(0, 10)) for i in range(n)}
        counts = {i: int(rng.integers(1, 1000)) for i in range(n)}
        target = float(rng.uniform(0.05, 0.95))
        lam = float(rng.uniform(0, 0.5))
        try:
            plan = allocate_das(importances, counts, target, lam)
        except InfeasibleBudgetError:
            continue
        assert abs(weighted_mean(plan) - target) <= 1e-9
        for e in plan.entries:
            assert 0.0 <= e.ratio <= 1.0


def test_order_preservation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        imp = {i: float(rng.uniform(0, 5)) for i in range(n)}
        counts = {i: int(rng.integers(1, 50)) for i in range(n)}
        plan = allocate_das(imp, counts, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 0.4)))
        ratios = plan.ratios()
        for a in range(n):
            for b in range(n):
                if imp[a] > imp[b]:
                    assert ratios[a] <= ratios[b] + 1e-12


def test_lambda_zero_collapses_to_uniform():
    plan = allocate_das({"a": 5.0, "b": 1.0}, {"a": 3, "b": 9}, target=0.3, lam=0.0)
    assert all(e.ratio == pytest.approx(0.3, abs=1e-12) for e in plan.entries)


def test_scale_invariance_power_of_two():
    imp = {i: v for i, v in enumerate([0.25, 1.5, 0.75, 2.0])}
    counts = {i: c for i, c in enumerate([7, 3, 9, 2])}
    a = allocate_das(imp, counts, 0.5, 0.2)
    b = allocate_das({k: 4.0 * v for k, v in imp.items()}, counts, 0.5, 0.2)
    assert a.ratios() == b.ratios()


def test_extreme_targets_clamp_safely():
    rng = np.random.default_rng(3)
    for target in (0.01, 0.99):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            imp = {i: float(rng.uniform(0, 1)) for i in range(n)}
            counts = {i: int(rng.integers(1, 100)) for i in range(n)}
            try:
                plan = allocate_das(imp, counts, target, lam=0.3)
            except InfeasibleBudgetError:
                continue
            for e in plan.entries:
                assert 0.0 <= e.ratio <= 1.0
            assert abs(weighted_mean(plan) - target) <= 1e-9


def test_invalid_args_raise_config_error():
    with pytest.raises(ConfigError):
        allocate_das({"a": 1.0}, {"a": 1}, target=0.0, lam=0.1)
    with pytest.raises(ConfigError):
        allocate_das({"a": 1.0}, {"a": 1}, target=0.5, lam=-0.1)
    with pytest.raises(ConfigError):
        allocate_das({"a": float("nan")}, {"a": 1}, target=0.5, lam=0.1)
    with pytest.raises(ConfigError):
        allocate_das({}, {}, target=0.5, lam=0.1)


# ---------------------------------------------------------------------------
# blockwise


def seven_layers(block, value):
    return {(block, kind): value for kind in ("q", "k", "v", "o", "gate", "up", "down")}


def test_blockwise_single_block_is_uniform():
    imp = seven_layers(0, 0.8)
    counts = {key: 16 for key in imp}
    plan = allocate_blockwise_das(imp, counts, 0.5, 0.1)
    assert all(e.ratio == pytest.approx(0.5, abs=1e-12) for e in plan.entries)


def test_blockwise_two_blocks_high_low():
    imp = {**seven_layers(0, 0.9), **seven_layers(1, 0.1)}
    counts = {key: 8 for key in imp}
    plan = allocate_blockwise_das(imp, counts, 0.5, 0.1)
    ratios = plan.ratios()
    for kind in ("q", "k", "v", "o", "gate", "up", "down"):
        assert ratios[(0, kind)] == pytest.approx(0.4, abs=1e-9)
        assert ratios[(1, kind)] == pytest.approx(0.6, abs=1e-9)


def test_blockwise_constant_within_block():
    rng = np.random.default_rng(5)
    imp = {}
    counts = {}
    for block in range(3):
        for kind in ("q", "k", "v", "o", "gate", "up", "down"):
            imp[(block, kind)] = float(rng.uniform(0, 1))
            counts[(block, kind)] = int(rng.integers(8, 64))
    plan = allocate_blockwise_das(imp, counts, 0.5, 0.1)
    ratios = plan.ratios()
    for block in range(3):
        values = {ratios[(block, kind)] for kind in ("q", "k", "v", "o", "gate", "up", "down")}
        assert len(values) == 1


# ---------------------------------------------------------------------------
# uniform


def test_uniform_plan():
    plan = allocate_uniform({"a": 5, "b": 10}, 0.6)
    assert all(e.ratio == 0.6 for e in plan.entries)
    assert weighted_mean(plan) == pytest.approx(0.6, abs=1e-12)


def test_uniform_empty_raises():
    with pytest.raises(ConfigError):
        allocate_uniform({}, 0.5)


# ---------------------------------------------------------------------------
# OWL


def test_owl_outlier_ratio_constant_matrix():
    assert owl_outlier_ratio(np.full((3, 3), 2.0), m=5.0) == 0.0


def test_owl_outlier_ratio_arithmetic_cases():
    assert owl_outlier_ratio(np.array([1.0, 1.0, 1.0, 97.0]), m=5.0) == 0.0
    assert owl_outlier_ratio(np.array([1.0, 1.0, 1.0, 197.0]), m=5.0) == 0.0
    assert owl_outlier_ratio(np.array([0.0, 0.0, 0.0, 100.0]), m=5.0) == 0.0
    got = owl_outlier_ratio(np.array([0.0, 0.0, 0.0, 1000.0, 1.0, 1.0, 1.0, 1.0]), m=5.0)
    assert got == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_owl_all_zero_matrix_gives_zero():
    assert owl_outlier_ratio(np.zeros((4, 4)), m=5.0) == 0.0


def test_owl_m_must_exceed_one():
    with pytest.raises(ConfigError):
        owl_outlier_ratio(np.ones(4), m=1.0)


def test_allocate_owl_mirrors_das():
    ratios = {"a": 0.2, "b": 0.0}
    plan = allocate_owl(ratios, {"a": 4, "b": 4}, target=0.5, lam=0.08)
    got = plan.ratios()
    # more outliers => lower sparsity
    assert got["a"] == pytest.approx(0.42, abs=1e-9)
    assert got["b"] == pytest.approx(0.58, abs=1e-9)
    assert weighted_mean(plan) == pytest.approx(0.5, abs=1e-9)


def test_allocate_owl_rejects_out_of_range_ratio():
    with pytest.raises(ConfigError):
        allocate_owl({"a": 1.5}, {"a": 4}, 0.5)


# ---------------------------------------------------------------------------
# plan serialization


def test_plan_json_round_trip(tmp_path):
    imp = {(0, "q"): 1.0, (0, "v"): 2.0, (1, "down"): 0.5}
    counts = {(0, "q"): 16, (0, "v"): 16, (1, "down"): 32}
    plan = allocate_das(imp, counts, 0.5, 0.1)
    path = tmp_path / "plan.json"
    plan.to_json(path)
    loaded = SparsityPlan.from_json(path)
    assert loaded.target == plan.target
    assert loaded.ratios() == plan.ratios()


def test_lambda_zero_uniform_for_every_allocator():
    imp = {(b, k): 0.1 * b + 0.01 * i
           for b in range(2) for i, k in enumerate(("q", "k", "v", "o", "gate", "up", "down"))}
    counts = {key: 16 + 8 * key[0] for key in imp}
    for plan in (allocate_das(imp, counts, 0.4, 0.0),
                 allocate_blockwise_das(imp, counts, 0.4, 0.0),
                 allocate_owl({k: min(v, 1.0) for k, v in imp.items()}, counts, 0.4, 0.0)):
        assert all(e.ratio == pytest.approx(0.4, abs=1e-12) for e in plan.entries)


PLAN_PATHS = ([(key,) for key in ("target", "lambda", "entries")]
              + [("entries", i, key) for i in range(3) for key in ("layer", "param_count", "ratio")])
# values near the valid ones, so that edits reach the entry checks and the budget
PLAN_VALUES = st.sampled_from([0, 1, 16, 2**63, -1, 0.5, 1.5, 1e308, True, "0:q", "1:down", "0:x", "٣:q", ":q",
                               "1" * 5000 + ":q", [], {}])


@pytest.fixture(scope="module")
def fuzz_plan(tmp_path_factory):
    """A file to write fuzzed plans into, and a valid 3-entry plan as JSON."""
    path = tmp_path_factory.mktemp("fuzz_plan") / "plan.json"
    allocate_das({(0, "q"): 1.0, (0, "v"): 2.0, (1, "down"): 0.5},
                 {(0, "q"): 16, (0, "v"): 16, (1, "down"): 32}, 0.5, 0.1).to_json(path)
    return path, json.loads(path.read_text())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_fuzzed_plans_fail_only_as_mmprune_errors(fuzz_plan, data):
    path, plan = fuzz_plan
    path.write_bytes(data.draw(edited_json(plan, PLAN_PATHS, PLAN_VALUES)))
    try:
        SparsityPlan.from_json(path)
    except MMPruneError:
        pass
