"""Per-layer sparsity allocation under a parameter-weighted global budget.

Importance scores are min-max normalized to [0, 1] and mapped through a
bounded affine deviation `ratio = target + lam * (1 - 2 * s_hat)`, so more
important layers get at most the sparsity of less important ones. A
water-filling pass shifts all unclamped ratios by a common offset until
the parameter-weighted mean hits the target exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InfeasibleBudgetError, is_count
from .model import PROJECTION_KINDS

BUDGET_TOL = 1e-12


@dataclass(frozen=True)
class PlanEntry:
    layer: object
    param_count: int
    ratio: float


@dataclass
class SparsityPlan:
    target: float
    lam: float
    entries: list[PlanEntry]

    def ratios(self) -> dict:
        return {entry.layer: entry.ratio for entry in self.entries}

    def weighted_mean(self) -> float:
        total = sum(e.param_count for e in self.entries)
        return sum(e.param_count * e.ratio for e in self.entries) / total

    def validate(self) -> None:
        for entry in self.entries:
            if not (0.0 <= entry.ratio <= 1.0):
                raise ConfigError(f"layer {entry.layer!r} ratio {entry.ratio} outside [0, 1]")
        if abs(self.weighted_mean() - self.target) > 1e-9:
            raise ConfigError(f"plan misses target: {self.weighted_mean()} != {self.target}")

    def check_layers(self, param_counts: dict) -> None:
        """Raises ConfigError, naming a layer, unless the plan's {layer: param_count}
        equals `param_counts` (a model's `param_counts()`)."""
        counts = {e.layer: e.param_count for e in self.entries}
        if counts != param_counts:
            layer = next(key for key in {**param_counts, **counts} if counts.get(key) != param_counts.get(key))
            raise ConfigError(f"plan and model disagree on layer {layer}: plan param_count "
                              f"{counts.get(layer, 'absent')}, model {param_counts.get(layer, 'absent')}")

    def to_json(self, path: str | Path) -> None:
        payload = {
            "target": self.target,
            "lambda": self.lam,
            "entries": [
                {"layer": f"{e.layer[0]}:{e.layer[1]}", "param_count": e.param_count, "ratio": e.ratio}
                for e in self.entries
            ],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "SparsityPlan":
        """Read a plan written by `to_json`; a plan missing its own target is a ConfigError.

        Each entry's layer is `BLOCK:KIND`, and no layer may appear twice.
        """
        try:
            with open(path, encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, ValueError, RecursionError) as err:  # missing, unreadable, not JSON, or nested too deep
            raise FormatError(f"{path}: cannot read sparsity plan: {err}") from err
        if not (isinstance(payload, dict) and _is_number(payload.get("target"))
                and _is_number(payload.get("lambda")) and isinstance(payload.get("entries"), list)
                and payload["entries"]):
            raise FormatError(f"{path}: a sparsity plan needs numeric \"target\" and \"lambda\" "
                              "and a non-empty \"entries\" list")
        entries: dict[tuple[int, str], PlanEntry] = {}
        for i, record in enumerate(payload["entries"]):
            problem = _entry_problem(record)
            if problem is None:
                block, kind = record["layer"].split(":")
                layer = (int(block), kind)
                problem = f"repeats layer {record['layer']!r}" if layer in entries else None
                entries[layer] = PlanEntry(layer, record["param_count"], record["ratio"])
            if problem:
                raise FormatError(f"{path}: entries[{i}] {problem}")
        plan = cls(payload["target"], payload["lambda"], list(entries.values()))
        try:
            plan.validate()
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from err
        return plan


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _entry_problem(record) -> str | None:
    """What is wrong with one serialized plan entry, or None."""
    if not isinstance(record, dict):
        return "is not a JSON object"
    layer, count, ratio = record.get("layer"), record.get("param_count"), record.get("ratio")
    block, _, kind = layer.partition(":") if isinstance(layer, str) else ("", "", "")
    if not (block.isascii() and block.isdecimal() and len(block) <= 18 and kind in PROJECTION_KINDS):
        return (f"'layer' must be BLOCK:KIND, BLOCK of at most 18 digits and KIND one of {PROJECTION_KINDS}, "
                f"got {layer!r}")
    if not (is_count(count, 1) and count <= sys.maxsize):
        return f"'param_count' must be a positive array size, got {count!r}"
    if not _is_number(ratio):
        return f"'ratio' must be a finite number, got {ratio!r}"
    return None


def _validate_budget_args(target: float, lam: float) -> None:
    if not (0.0 < target < 1.0):
        raise ConfigError(f"sparsity target must be in (0, 1), got {target}")
    if not 0.0 <= lam < float("inf"):
        raise ConfigError(f"lambda must be finite and >= 0, got {lam}")


def _waterfill(raw: dict, param_counts: dict, target: float, lam: float) -> SparsityPlan:
    """Shift all ratios by a common offset until the budget is exact.

    The weighted mean of clip(raw + delta, 0, 1) is continuous and
    nondecreasing in delta, running from 0 to 1, so any target in (0, 1)
    has a solution: bracketed bisection finds the segment, a Newton step
    on the unclamped set lands on the target exactly.
    """
    layers = list(raw)
    counts = np.array([param_counts[l] for l in layers], dtype=np.float64)
    base = np.array([raw[l] for l in layers], dtype=np.float64)
    total = counts.sum()

    def mean_at(delta: float) -> float:
        return float(counts @ np.clip(base + delta, 0.0, 1.0)) / total

    lo = float(-base.max())        # everything clamps to 0
    hi = float(1.0 - base.min())   # everything clamps to 1
    delta = 0.0
    for _ in range(200):
        delta = 0.5 * (lo + hi)
        if mean_at(delta) < target:
            lo = delta
        else:
            hi = delta
    for _ in range(len(layers) + 2):
        residual = target - mean_at(delta)
        if abs(residual) <= BUDGET_TOL:
            break
        free = (base + delta > 0.0) & (base + delta < 1.0)
        if not free.any():
            break
        delta += residual * total / float(counts[free].sum())

    ratios = np.clip(base + delta, 0.0, 1.0)
    if abs(target - float(counts @ ratios) / total) > BUDGET_TOL:
        binding = [l for l, r in zip(layers, ratios) if r in (0.0, 1.0)]
        raise InfeasibleBudgetError(f"budget solve failed for target {target}", binding)
    plan = SparsityPlan(target, lam, [
        PlanEntry(l, int(param_counts[l]), float(r)) for l, r in zip(layers, ratios)
    ])
    plan.validate()
    return plan


def _allocate_inverse(importances: dict, param_counts: dict, target: float, lam: float) -> SparsityPlan:
    _validate_budget_args(target, lam)
    if not importances:
        raise ConfigError("no layers to allocate")
    values = np.array(list(importances.values()), dtype=np.float64)
    if not np.isfinite(values).all() or (values < 0).any():
        raise ConfigError("importances must be finite and >= 0")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        s_hat = {layer: 0.5 for layer in importances}
    else:
        s_hat = {layer: (value - lo) / (hi - lo) for layer, value in importances.items()}
    raw = {layer: target + lam * (1.0 - 2.0 * s_hat[layer]) for layer in importances}
    return _waterfill(raw, param_counts, target, lam)


def allocate_das(importances: dict, param_counts: dict, target: float, lam: float = 0.1) -> SparsityPlan:
    """Diversity-aware allocation: sparsity inverse to layer importance."""
    return _allocate_inverse(importances, param_counts, target, lam)


def allocate_blockwise_das(layer_importances: dict, param_counts: dict, target: float,
                           lam: float = 0.1) -> SparsityPlan:
    """Average layer importance within each block, allocate per block, and
    assign the block ratio uniformly to its layers."""
    _validate_budget_args(target, lam)
    block_terms: dict[int, list[float]] = {}
    block_counts: dict[int, int] = {}
    for (block, _kind), value in layer_importances.items():
        block_terms.setdefault(block, []).append(value)
        block_counts[block] = block_counts.get(block, 0) + param_counts[(block, _kind)]
    block_importances = {block: float(np.mean(terms)) for block, terms in block_terms.items()}
    block_plan = _allocate_inverse(block_importances, block_counts, target, lam)
    block_ratios = block_plan.ratios()
    entries = [
        PlanEntry(layer, int(param_counts[layer]), block_ratios[layer[0]])
        for layer in layer_importances
    ]
    plan = SparsityPlan(target, lam, entries)
    plan.validate()
    return plan


def allocate_uniform(param_counts: dict, target: float) -> SparsityPlan:
    if not (0.0 < target < 1.0):
        raise ConfigError(f"sparsity target must be in (0, 1), got {target}")
    if not param_counts:
        raise ConfigError("no layers to allocate")
    entries = [PlanEntry(layer, int(count), target) for layer, count in param_counts.items()]
    plan = SparsityPlan(target, 0.0, entries)
    plan.validate()
    return plan


def owl_outlier_ratio(importance: np.ndarray, m: float = 5.0) -> float:
    """Fraction of importance entries exceeding m times the mean entry."""
    if not 1.0 < m < float("inf"):
        raise ConfigError(f"outlier multiplier must be finite and > 1, got {m}")
    importance = np.asarray(importance, dtype=np.float64)
    if importance.size == 0:
        raise ConfigError("empty importance matrix")
    mean = float(importance.mean())
    if mean == 0.0:
        return 0.0
    return float((importance > m * mean).mean())


def allocate_owl(outlier_ratios: dict, param_counts: dict, target: float, lam: float = 0.08) -> SparsityPlan:
    """Outlier-weighted allocation: layers rich in activation outliers keep
    more parameters (same machinery as DAS with outlier ratio as importance)."""
    for layer, value in outlier_ratios.items():
        if not (0.0 <= value <= 1.0):
            raise ConfigError(f"outlier ratio for {layer!r} must be in [0, 1], got {value}")
    return _allocate_inverse(outlier_ratios, param_counts, target, lam)
