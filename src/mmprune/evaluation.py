"""Pruned-model fidelity metrics and analysis reports.

Benchmark accuracy has no desk-scale analogue, so fidelity is measured by
reconstruction: per-layer relative Frobenius error of projection outputs
and end-to-end per-token cosine similarity / relative error of the final
hidden states, split by modality. The relative-average aggregation over
task scores mirrors the usual pruned/reference * 100 reporting.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .allocation import SparsityPlan
from .errors import ConfigError
from .model import (PROJECTION_KINDS, ActivationTrace, CaptureFlags, TokenSequence,
                    ToyModel, chunks, forward)
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


class _Reference:
    """One sequence's dense outputs and the sums of squares every scored model divides by."""

    def __init__(self, seq: TokenSequence, hidden: np.ndarray, trace: ActivationTrace):
        self.outputs = trace.layer_outputs
        self.layer_dens = {key: float(np.square(z.astype(np.float64)).sum())
                           for key, z in self.outputs.items()}
        self.hidden = hidden.astype(np.float64)
        # all tokens, then each modality span; repeated spans of one modality add into one entry
        self.groups = [(None, slice(None))] + [
            (s.modality.name, slice(s.start, s.stop)) for s in seq.spans if s.length]
        self.group_dens = [float(np.square(self.hidden[rows]).sum()) for _, rows in self.groups]


class _Fidelity:
    """Error sums of one model's outputs against the dense model's, one sequence at a time."""

    def __init__(self):
        # (block, kind) -> [num, den] over all tokens
        self.layers: dict[tuple[int, str], list[float]] = {}
        # None (all tokens) or a modality name -> [num, den, cosine sum, token count]
        self.groups: dict[str | None, list[float]] = {}

    def add(self, ref: _Reference, hidden: np.ndarray, trace: ActivationTrace) -> None:
        """Adds one sequence's final state and trace under the scored model."""
        for key, z_d in ref.outputs.items():
            acc = self.layers.setdefault(key, [0.0, 0.0])
            diff = np.subtract(z_d, trace.layer_outputs[key], dtype=np.float64)
            acc[0] += float(np.square(diff, out=diff).sum())
            acc[1] += ref.layer_dens[key]
        diff = ref.hidden - hidden.astype(np.float64)
        cosines = _token_cosines(ref.hidden, hidden)
        for (name, rows), den in zip(ref.groups, ref.group_dens):
            acc = self.groups.setdefault(name, [0.0, 0.0, 0.0, 0])
            acc[0] += float(np.square(diff[rows]).sum())
            acc[1] += den
            acc[2] += float(cosines[rows].sum())
            acc[3] += len(cosines[rows])

    def metrics(self) -> EvalMetrics:
        end_rel = {name: _rel(num, den) for name, (num, den, _, _) in self.groups.items()}
        cosine = {name: cos_sum / count for name, (_, _, cos_sum, count) in self.groups.items()}
        return EvalMetrics(
            layer_rel_error={key: _rel(num, den) for key, (num, den) in self.layers.items()},
            end_rel_error=end_rel.pop(None),
            end_rel_error_by_modality=end_rel,
            cosine=cosine.pop(None),
            cosine_by_modality=cosine,
        )


def _evaluate(dense: ToyModel, seqs: list[TokenSequence], models: list) -> list[EvalMetrics]:
    """Fidelity metrics against `dense` of each entry of `models` over `seqs`.

    An entry is a callable returning the model to score, called once per chunk of
    sequences, or None for `dense` itself. Each chunk runs one dense forward, which
    every entry is scored against, and one forward per callable. Each entry's sums
    take one term per sequence in sequence order, so its metrics do not depend on
    the chunks.
    """
    if not seqs:
        raise ConfigError("evaluation requires at least one sequence")
    capture = CaptureFlags(outputs=True)
    sums = [_Fidelity() for _ in models]
    for chunk in chunks(seqs):
        dense_out = forward(dense, chunk, capture)
        refs = [_Reference(seq, *one) for seq, one in zip(chunk.seqs, zip(*dense_out))]
        for acc, model in zip(sums, models):
            hidden, traces = dense_out if model is None else forward(model(), chunk, capture)
            for ref, one, trace in zip(refs, hidden, traces):
                acc.add(ref, one, trace)
    return [acc.metrics() for acc in sums]


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
    return _evaluate(dense, seqs, [lambda: pruned])[0]


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


def attention_by_modality(traces: Iterable[ActivationTrace]) -> dict[int, dict[str, float]]:
    """Per block, the mean attention mass landing on each modality's key span.

    Reads `traces` once, so a generator keeps one trace alive at a time.
    """
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
    if not counts:
        raise ConfigError("no traces given")
    return {
        block: {name: value / counts[block] for name, value in sorted(entry.items())}
        for block, entry in sorted(sums.items())
    }


def sparsity_report(source: SparsityPlan | ToyModel) -> dict:
    """Mean sparsity per projection kind and per block (plain means over layers)."""
    if isinstance(source, SparsityPlan):
        ratios = source.ratios()
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


def _write_masked(model: ToyModel, dense: ToyModel, keep: list[np.ndarray]) -> ToyModel:
    """Writes `dense`'s weights into `model` under bit-packed keep-masks, one per layer
    in `iter_layers` order, and returns `model`. Each weight's bits are ANDed with all
    ones where kept and all zeros where dropped, so kept weights stay bit-identical and
    dropped ones become +0.0, as `LinearLayer.apply_mask` leaves them."""
    for layer, source, packed in zip(model.iter_layers(), dense.iter_layers(), keep):
        bits = np.unpackbits(packed, count=source.weight.size).astype(np.uint32)
        bits *= np.uint32(0xFFFFFFFF)
        np.bitwise_and(source.weight.view(np.uint32), bits.reshape(source.weight.shape),
                       out=layer.weight.view(np.uint32))
    return model


def run_comparison(dense: ToyModel, calib: Calibration | list[TokenSequence],
                   eval_seqs: list[TokenSequence], methods: list[str], sparsities: list[float],
                   base_config: PruneConfig) -> list[dict]:
    """Prune on a method x sparsity grid and score each cell on eval data.

    All cells share one Calibration, so each distinct pass runs once. Every
    cell is pruned first, keeping only its bit-packed keep-masks; evaluation
    then forwards the dense model once per eval chunk and scores each cell
    against it, rebuilding the cell's masked weights in one scratch model.
    Task scores are the end-to-end per-token cosine similarities (overall
    and per modality); references come from the dense model scored against
    itself, so the relative average of the unpruned model is exactly 100.
    """
    if not isinstance(calib, Calibration):
        calib = Calibration(dense, calib, base_config.calibration_params())
    cells = []
    for sparsity in sparsities:
        for method in methods:
            config = replace(base_config, method=method, sparsity=sparsity)
            pruned, report = prune_model(dense, calib, config)
            keep = [np.packbits(layer.mask) for layer in pruned.iter_layers()]
            cells.append((method, sparsity, report.global_achieved, keep))
            del pruned

    scratch = dense.copy()
    reference, *scored = _evaluate(dense, eval_seqs, [None] + [
        partial(_write_masked, scratch, dense, keep) for *_, keep in cells])
    reference = reference.task_scores()
    rows = []
    for (method, sparsity, global_achieved, _), metrics in zip(cells, scored):
        scores = metrics.task_scores()
        row = {
            "method": method,
            "sparsity": sparsity,
            "global_achieved": global_achieved,
            "end_rel_error": metrics.end_rel_error,
            "mean_layer_rel_error": metrics.to_dict()["mean_layer_rel_error"],
        }
        row.update(scores)
        row["rel_avg"] = rel_avg({task: (scores[task], reference[task]) for task in scores})
        rows.append(row)
    return rows
