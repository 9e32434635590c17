"""Pruned-model fidelity metrics and analysis reports.

Benchmark accuracy has no desk-scale analogue, so fidelity is measured by
reconstruction: per-layer relative Frobenius error of projection outputs
and end-to-end per-token cosine similarity / relative error of the final
hidden states, split by modality. The relative-average aggregation over
task scores mirrors the usual pruned/reference * 100 reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .allocation import SparsityPlan
from .errors import ConfigError
from .model import (PROJECTION_KINDS, ActivationTrace, CaptureFlags, TokenSequence,
                    ToyModel, forward)
from .pruner import Calibration, PruneConfig, prune_model


@dataclass
class EvalMetrics:
    layer_rel_error: dict[tuple[int, str], float] = field(default_factory=dict)
    end_rel_error: float = 0.0
    end_rel_error_by_modality: dict[str, float] = field(default_factory=dict)
    cosine: float = 1.0
    cosine_by_modality: dict[str, float] = field(default_factory=dict)

    def task_scores(self) -> dict[str, float]:
        scores = {"cos_overall": self.cosine}
        for name, value in sorted(self.cosine_by_modality.items()):
            scores[f"cos_{name}"] = value
        return scores

    def to_dict(self) -> dict:
        return {
            "end_rel_error": self.end_rel_error,
            "end_rel_error_by_modality": dict(sorted(self.end_rel_error_by_modality.items())),
            "cosine": self.cosine,
            "cosine_by_modality": dict(sorted(self.cosine_by_modality.items())),
            "layer_rel_error": {f"{b}:{k}": v for (b, k), v in sorted(self.layer_rel_error.items())},
            "mean_layer_rel_error": float(np.mean(list(self.layer_rel_error.values())))
            if self.layer_rel_error else 0.0,
        }


def _rel(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(np.sqrt(num / den))


def _token_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # 1 - 0.5 * ||a_hat - b_hat||^2 equals cos(a, b) and is exactly 1.0 for
    # bit-identical rows, which keeps the dense-vs-dense check exact.
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_hat = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    b_hat = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    return np.clip(1.0 - 0.5 * np.square(a_hat - b_hat).sum(axis=1), -1.0, 1.0)


def reconstruction_report(dense: ToyModel, pruned: ToyModel,
                          seqs: list[TokenSequence]) -> EvalMetrics:
    """Deterministic fidelity metrics of `pruned` against `dense` over `seqs`.

    Per-layer errors cover all tokens; end-to-end error and cosine are also
    reported per modality.
    """
    same = (dense.d_model == pruned.d_model and dense.n_heads == pruned.n_heads
            and dense.d_ff == pruned.d_ff and dense.n_blocks == pruned.n_blocks)
    if not same:
        raise ConfigError("dense and pruned models must share an architecture")
    if not seqs:
        raise ConfigError("evaluation requires at least one sequence")

    capture = CaptureFlags(outputs=True)
    # (block, kind) -> [num, den] over all tokens
    layers: dict[tuple[int, str], list[float]] = {}
    # None (all tokens) or a modality name -> [num, den, cosine sum, token count];
    # repeated spans of one modality add into one entry
    groups: dict[str | None, list[float]] = {}

    for seq in seqs:
        hidden_d, trace_d = forward(dense, seq, capture)
        hidden_p, trace_p = forward(pruned, seq, capture)
        for key, z_d in trace_d.layer_outputs.items():
            z_d = z_d.astype(np.float64)
            acc = layers.setdefault(key, [0.0, 0.0])
            acc[0] += float(np.square(z_d - trace_p.layer_outputs[key].astype(np.float64)).sum())
            acc[1] += float(np.square(z_d).sum())
        hidden_d = hidden_d.astype(np.float64)
        diff = hidden_d - hidden_p.astype(np.float64)
        cosines = _token_cosines(hidden_d, hidden_p)
        for name, rows in [(None, slice(None))] + [
                (s.modality.name, slice(s.start, s.stop)) for s in seq.spans if s.length]:
            acc = groups.setdefault(name, [0.0, 0.0, 0.0, 0])
            acc[0] += float(np.square(diff[rows]).sum())
            acc[1] += float(np.square(hidden_d[rows]).sum())
            acc[2] += float(cosines[rows].sum())
            acc[3] += len(cosines[rows])

    end_rel = {name: _rel(num, den) for name, (num, den, _, _) in groups.items()}
    cosine = {name: cos_sum / count for name, (_, _, cos_sum, count) in groups.items()}
    return EvalMetrics(
        layer_rel_error={key: _rel(num, den) for key, (num, den) in layers.items()},
        end_rel_error=end_rel.pop(None),
        end_rel_error_by_modality=end_rel,
        cosine=cosine.pop(None),
        cosine_by_modality=cosine,
    )


def rel_avg(scores: dict[str, tuple[float, float]]) -> float:
    """Mean over tasks of 100 * pruned / reference."""
    if not scores:
        raise ConfigError("relative average needs at least one task")
    values = []
    for task, (pruned, reference) in scores.items():
        if reference <= 0.0:
            raise ConfigError(f"task {task!r} has non-positive reference score {reference}")
        values.append(100.0 * pruned / reference)
    return float(np.mean(values))


def attention_by_modality(traces: list[ActivationTrace]) -> dict[int, dict[str, float]]:
    """Per block, the mean attention mass landing on each modality's key span."""
    if not traces:
        raise ConfigError("no traces given")
    sums: dict[int, dict[str, float]] = {}
    counts: dict[int, int] = {}
    for trace in traces:
        if not trace.attention:
            raise ConfigError("trace lacks attention capture")
        for block, attn in trace.attention.items():
            masses: dict[str, float] = {}
            for span in trace.spans:
                mass = float(attn[:, span.start:span.stop].sum(axis=1).mean()) if span.length else 0.0
                masses[span.modality.name] = masses.get(span.modality.name, 0.0) + mass
            entry = sums.setdefault(block, {})
            for name, mass in masses.items():
                entry[name] = entry.get(name, 0.0) + mass
            counts[block] = counts.get(block, 0) + 1
    return {
        block: {name: value / counts[block] for name, value in sorted(entry.items())}
        for block, entry in sorted(sums.items())
    }


def sparsity_report(source: SparsityPlan | ToyModel) -> dict:
    """Mean sparsity per projection kind and per block (plain means over layers)."""
    if isinstance(source, SparsityPlan):
        ratios = {}
        for entry in source.entries:
            if not (isinstance(entry.layer, tuple) and len(entry.layer) == 2):
                raise ConfigError(f"plan entry {entry.layer!r} is not a (block, kind) layer id")
            ratios[entry.layer] = entry.ratio
    elif isinstance(source, ToyModel):
        if source.n_blocks == 0:
            raise ConfigError("model has no blocks")
        ratios = {}
        for layer in source.iter_layers():
            if layer.mask is None:
                ratios[(layer.block_index, layer.kind)] = 0.0
            else:
                ratios[(layer.block_index, layer.kind)] = float((~layer.mask).sum()) / layer.mask.size
    else:
        raise ConfigError(f"cannot report sparsity of {type(source).__name__}")
    if not ratios:
        raise ConfigError("no layers to report")

    by_kind: dict[str, list[float]] = {}
    by_block: dict[int, list[float]] = {}
    for (block, kind), ratio in ratios.items():
        by_kind.setdefault(kind, []).append(ratio)
        by_block.setdefault(block, []).append(ratio)
    return {
        "by_kind": {kind: float(np.mean(by_kind[kind])) for kind in PROJECTION_KINDS if kind in by_kind},
        "by_block": {block: float(np.mean(values)) for block, values in sorted(by_block.items())},
    }


def run_comparison(dense: ToyModel, calib: Calibration | list[TokenSequence],
                   eval_seqs: list[TokenSequence], methods: list[str], sparsities: list[float],
                   base_config: PruneConfig) -> list[dict]:
    """Prune on a method x sparsity grid and score each cell on eval data.

    All cells share one Calibration, so each distinct pass runs once.
    Task scores are the end-to-end per-token cosine similarities (overall
    and per modality); references come from an explicit dense-vs-dense run,
    so the relative average of the unpruned model is exactly 100.
    """
    if not isinstance(calib, Calibration):
        calib = Calibration(dense, calib, base_config.calibration_params())
    reference = reconstruction_report(dense, dense, eval_seqs).task_scores()
    rows = []
    for sparsity in sparsities:
        for method in methods:
            config = replace(base_config, method=method, sparsity=sparsity)
            pruned, report = prune_model(dense, calib, config)
            metrics = reconstruction_report(dense, pruned, eval_seqs)
            scores = metrics.task_scores()
            row = {
                "method": method,
                "sparsity": sparsity,
                "global_achieved": report.global_achieved,
                "end_rel_error": metrics.end_rel_error,
                "mean_layer_rel_error": metrics.to_dict()["mean_layer_rel_error"],
            }
            row.update(scores)
            row["rel_avg"] = rel_avg({task: (scores[task], reference[task]) for task in scores})
            rows.append(row)
    return rows
