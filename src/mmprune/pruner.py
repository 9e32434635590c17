"""Weight importance, mask generation, and the pruning pipelines.

Unstructured pruning composes: calibration pass (activation capture) ->
token selection -> per-channel input activation norms -> importance
(|W| or norms * |W|) -> per-group mask at the planned ratio. Calibration
passes run in one memoizing engine, `Calibration`. Masks are computed for
every layer first, then committed, so a failure never leaves a
half-masked model. Structural pruning removes whole blocks by importance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .allocation import (SparsityPlan, allocate_blockwise_das, allocate_das,
                         allocate_owl, allocate_uniform, owl_outlier_ratio)
from .diversity import DiversityAccumulator, DiversityStats, block_input_output_similarity
from .errors import ConfigError, ShapeError
from .model import PROJECTION_KINDS, CaptureFlags, TokenSequence, ToyModel, chunks, forward
from .selection import SELECTION_KINDS, AmiaParams, select_amia, select_tokens, token_contributions

MASK_GROUPS = ("per_output_row", "per_layer")

# AMIA runs a sample's layers of one output shape (N, C) as one stack while L * N^2
# stays within this many elements: a 48-token plain sample's 20 (N, d_model) layers in
# one stack and its 8 (N, d_ff) layers in another, a 188-token noisy sample's layers
# three at a time. A stack holds two L x N x N float64 buffers, 2 MB at the bound. At
# 2**16 a noisy stack held one layer, and the stacked pick loop's per-step array calls
# made noisy `tamp` about 10% slower than the one-layer scalar loop they replaced.
AMIA_STACK_ELEMENTS = 2**17


@dataclass(frozen=True)
class MethodSpec:
    allocator: str
    importance: str
    selection: str


METHOD_SPECS = {
    "magnitude": MethodSpec("uniform", "magnitude", "full"),
    "wanda": MethodSpec("uniform", "wanda", "full"),
    "owl": MethodSpec("owl", "wanda", "full"),
    "das": MethodSpec("das", "wanda", "full"),
    "das_alltoken": MethodSpec("das_alltoken", "wanda", "full"),
    "das_blockwise": MethodSpec("das_blockwise", "wanda", "full"),
    "amia": MethodSpec("uniform", "wanda", "amia"),
    "tamp": MethodSpec("das", "wanda", "amia"),
}
PRUNE_METHODS = tuple(METHOD_SPECS)


@dataclass
class InputActivation:
    """Per-input-channel l2 norms over the selected calibration tokens."""

    norms: np.ndarray
    token_count: int
    selection_kind: str


def importance_magnitude(weight: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(weight, dtype=np.float64))


def importance_wanda(weight: np.ndarray, act: InputActivation) -> np.ndarray:
    weight = np.asarray(weight, dtype=np.float64)
    if act.norms.shape != (weight.shape[1],):
        raise ShapeError(f"activation length {act.norms.shape} != C_in {weight.shape[1]}")
    return act.norms[None, :] * np.abs(weight)


@dataclass
class PruneMask:
    keep: np.ndarray
    achieved_ratio: float


def make_mask(importance: np.ndarray, ratio: float, group: str = "per_output_row") -> PruneMask:
    """Drop the floor(ratio * group_size) smallest-importance entries per group.

    Ties are broken by dropping the lower flattened index first, so drop
    sets are nested across ratios.
    """
    if not (0.0 <= ratio <= 1.0):
        raise ConfigError(f"ratio must be in [0, 1], got {ratio}")
    if group not in MASK_GROUPS:
        raise ConfigError(f"unknown comparison group {group!r}")
    importance = np.asarray(importance, dtype=np.float64)
    keep = np.ones(importance.shape, dtype=bool)
    if group == "per_output_row":
        n_drop = int(ratio * importance.shape[1])
        if n_drop:
            order = np.argsort(importance, axis=1, kind="stable")[:, :n_drop]
            keep[np.arange(importance.shape[0])[:, None], order] = False
    else:
        n_drop = int(ratio * importance.size)
        if n_drop:
            order = np.argsort(importance.ravel(), kind="stable")[:n_drop]
            keep.ravel()[order] = False
    achieved = float((~keep).sum()) / keep.size
    return PruneMask(keep, achieved)


# ---------------------------------------------------------------------------
# calibration engine


@dataclass(frozen=True)
class CalibrationParams:
    """Every setting that changes a calibration result."""

    amia: AmiaParams = AmiaParams()
    seed: int = 0
    random_count: int = 100


@dataclass
class PruneConfig:
    method: str = "tamp"
    sparsity: float = 0.5
    lam: float = 0.1
    owl_lam: float = 0.08
    owl_m: float = 5.0
    group: str = "per_output_row"
    selection: str | None = None
    amia: AmiaParams = AmiaParams()
    random_count: int = 100
    seed: int = 0
    sequential: bool = False

    def resolved_selection(self) -> str:
        return self.selection or METHOD_SPECS[self.method].selection

    def calibration_params(self) -> CalibrationParams:
        return CalibrationParams(self.amia, self.seed, self.random_count)


@dataclass
class LayerSelectionStats:
    threshold: float | None = None
    token_total: int = 0
    selected_total: int = 0
    by_modality: dict[str, int] = field(default_factory=dict)
    stopped_by: dict[str, int] = field(default_factory=dict)
    final_mmd_sum: float = 0.0
    samples: int = 0

    def mean_final_mmd(self) -> float | None:
        return self.final_mmd_sum / self.samples if self.samples else None


def _add_modality_counts(counts: dict[str, int], indices: np.ndarray, spans) -> dict[str, int]:
    """Adds how many of `indices` fall in each modality's spans to `counts`."""
    for span in spans:
        count = int(((indices >= span.start) & (indices < span.stop)).sum())
        counts[span.modality.name] = counts.get(span.modality.name, 0) + count
    return counts


class Calibration:
    """Calibration results of one model on one sequence set, computed lazily.

    Each result is computed on first request and cached on the instance, so
    a method x sparsity grid sharing one Calibration pays each distinct pass
    once, and a single prune computes only what it uses. The cache holds
    per-layer aggregates and per-sample selection records, never traces.
    """

    def __init__(self, model: ToyModel, seqs: list[TokenSequence],
                 params: CalibrationParams = CalibrationParams()):
        self.model = model
        self.seqs = list(seqs)
        self.params = params
        self._cache: dict = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def traces(self, capture: CaptureFlags):
        """The sample loop: one trace per sequence, from one forward of the calibrated
        model per chunk of sequences."""
        for chunk in chunks(self.seqs):
            yield from forward(self.model, chunk, capture)[1]

    def prefix_traces(self, capture: CaptureFlags, model: ToyModel, block: int, states: list[np.ndarray]):
        """Per sample, a trace from one forward per chunk that advances `states[i]` (the
        embeddings, then the state entering block `block - 1`) through that block of
        `model`, then records `block`."""
        capture = replace(capture, hiddens=block > 0, blocks=frozenset({block}))
        i = 0
        for chunk in chunks(self.seqs):
            s = len(chunk.seqs)
            hidden = states[i][None] if s == 1 else np.stack(states[i:i + s])
            for trace in forward(model, chunk, capture, max(block - 1, 0), block + 1, hidden)[1]:
                if block:
                    states[i] = trace.hiddens[1]
                i += 1
                yield trace
            del trace, hidden  # as in `_selections`: free the chunk before the next forward

    @cached_property
    def diversity(self) -> dict[tuple[int, str], DiversityStats]:
        """Per-layer diversity terms of the output tokens."""
        acc = DiversityAccumulator()
        for trace in self.traces(CaptureFlags(outputs=True)):
            for key, z in trace.layer_outputs.items():
                acc.add_layer_sample(key, z, trace.spans)
        return acc.finalize()

    @cached_property
    def thresholds(self) -> dict[tuple[int, str], float]:
        """AMIA's per-layer MMD stopping thresholds, scaled by layer diversity."""
        coefficient = self.params.amia.mmd_coefficient
        return {key: coefficient * float(np.sqrt(st.importance)) for key, st in self.diversity.items()}

    def _selections(self, kind: str, traces=None):
        """Yields (trace, {layer: (indices, SelectionResult | None)}) per sample.

        `traces(capture)` yields one trace per sequence (default: `self.traces`).
        Callers drop both before the next sample, so a noisy chunk (one sample) is
        freed before the next forward: with two traces alive, AMIA's N x N
        temporaries land in fresh pages and noisy `tamp` runs ~5% slower.
        """
        capture = CaptureFlags(inputs=True, outputs=(kind == "amia"),
                               attention=kind in ("attention", "amia"))
        thresholds = self.thresholds if kind == "amia" else {}  # its pass runs first
        p = self.params
        for index, trace in enumerate((traces or self.traces)(capture)):
            contributions = {b: token_contributions(attn) for b, attn in trace.attention.items()}
            if kind == "amia":
                selected = self._amia(trace, contributions, thresholds)
            else:
                selected = {}
                for key, x in trace.layer_inputs.items():
                    block, layer_kind = key
                    rng = None
                    if kind == "random":
                        rng = np.random.default_rng(np.random.SeedSequence(
                            [p.seed, 7701, index, block, PROJECTION_KINDS.index(layer_kind)]))
                    selected[key] = (select_tokens(kind, contributions.get(block), x, rng=rng,
                                                   random_count=p.random_count), None)
            yield trace, selected
            del trace, selected, contributions

    def _amia(self, trace, contributions, thresholds) -> dict:
        """AMIA selections of one sample's layers, in layer order: a stack of layers of one
        output shape at a time, or all tokens where there are too few for a kNN graph."""
        amia = self.params.amia
        stacks: dict[tuple[int, ...], list] = {}
        for key, z in trace.layer_outputs.items():
            stacks.setdefault(z.shape, []).append(key)
        selected = dict.fromkeys(trace.layer_outputs)
        for (n, _), keys in stacks.items():
            if n <= amia.k:
                selected.update((key, (np.arange(n), None)) for key in keys)
                continue
            size = max(1, AMIA_STACK_ELEMENTS // (n * n))
            for i in range(0, len(keys), size):
                stack = keys[i:i + size]
                results = select_amia(np.stack([contributions[block] for block, _ in stack]),
                                      np.stack([trace.layer_outputs[key] for key in stack]),
                                      [thresholds[key] for key in stack], amia)
                selected.update((key, (result.selected, result)) for key, result in zip(stack, results))
        return selected

    def activations(self, kind: str, traces=None):
        """(InputActivation, LayerSelectionStats) per layer over the tokens `kind` selects,
        memoized unless `traces` (as in `_selections`, e.g. `prefix_traces`) is given."""
        if traces is None:
            return self._memo(("activations", kind), lambda: self.activations(kind, self.traces))
        thresholds = self.thresholds if kind == "amia" else {}
        sq_sums: dict[tuple[int, str], np.ndarray] = {}
        stats: dict[tuple[int, str], LayerSelectionStats] = {}
        for trace, selected in self._selections(kind, traces):
            for key, (indices, result) in selected.items():
                x = trace.layer_inputs[key]
                sq = np.square(x[indices].astype(np.float64)).sum(axis=0)
                if key not in sq_sums:
                    sq_sums[key] = np.zeros_like(sq)
                    stats[key] = LayerSelectionStats(threshold=thresholds.get(key))
                sq_sums[key] += sq
                entry = stats[key]
                entry.token_total += len(x)
                entry.selected_total += len(indices)
                _add_modality_counts(entry.by_modality, indices, trace.spans)
                if result is not None:
                    entry.stopped_by[result.stopped_by] = entry.stopped_by.get(result.stopped_by, 0) + 1
                    entry.final_mmd_sum += result.mmd_trace[-1]
                    entry.samples += 1
            del trace, selected
        activations = {key: InputActivation(np.sqrt(sq), stats[key].selected_total, kind)
                       for key, sq in sq_sums.items()}
        return activations, stats

    def selection_records(self, kind: str) -> list[dict]:
        """Per (sample, layer) selection details backing the analysis CSV."""
        return self._memo(("records", kind), lambda: [
            self._record(index, key, trace, *selected[key])
            for index, (trace, selected) in enumerate(self._selections(kind))
            for key in sorted(selected)])

    @staticmethod
    def _record(index: int, key: tuple[int, str], trace, indices: np.ndarray, result) -> dict:
        record = {
            "sample": index,
            "block": key[0],
            "kind": key[1],
            "n_tokens": len(trace.layer_inputs[key]),
            "n_selected": int(len(indices)),
            "by_modality": _add_modality_counts({}, indices, trace.spans),
        }
        if result is not None:
            record["stopped_by"] = result.stopped_by
            record["threshold"] = result.threshold
            record["mmd_trace"] = [float(v) for v in result.mmd_trace]
        return record

    @cached_property
    def block_similarity(self) -> dict[int, float]:
        """Mean per-token cosine similarity between each block's input and output rows."""
        n_blocks = self.model.n_blocks
        sums = np.zeros(n_blocks)
        for trace in self.traces(CaptureFlags(hiddens=True)):
            sums += np.asarray([block_input_output_similarity(trace.hiddens[b], trace.hiddens[b + 1])
                                for b in range(n_blocks)])
        return {b: float(sums[b] / len(self.seqs)) for b in range(n_blocks)}


# ---------------------------------------------------------------------------
# unstructured pruning pipeline


@dataclass
class PruneReport:
    method: str
    selection: str
    group: str
    seed: int
    plan: SparsityPlan
    achieved: dict[tuple[int, str], float]
    global_achieved: float
    diversity: dict[tuple[int, str], DiversityStats] | None = None
    selection_stats: dict[tuple[int, str], LayerSelectionStats] | None = None
    owl_ratios: dict[tuple[int, str], float] | None = None

    def to_dict(self) -> dict:
        out = {
            "method": self.method,
            "selection": self.selection,
            "group": self.group,
            "seed": self.seed,
            "target": self.plan.target,
            "lambda": self.plan.lam,
            "global_achieved": self.global_achieved,
            "layers": [],
        }
        ratios = self.plan.ratios()
        for key in sorted(self.achieved):
            record = {
                "layer": f"{key[0]}:{key[1]}",
                "planned": ratios[key],
                "achieved": self.achieved[key],
            }
            if self.diversity and key in self.diversity:
                stats = self.diversity[key]
                record["importance"] = stats.importance
                record["intra"] = dict(sorted(stats.intra.items()))
                record["inter"] = {f"{a}|{b}": v for (a, b), v in sorted(stats.inter.items())}
            if self.selection_stats and key in self.selection_stats:
                sel = self.selection_stats[key]
                record["selected_total"] = sel.selected_total
                record["token_total"] = sel.token_total
                record["selected_by_modality"] = dict(sorted(sel.by_modality.items()))
                if sel.samples:
                    record["stopped_by"] = dict(sorted(sel.stopped_by.items()))
                    record["mean_final_mmd"] = sel.mean_final_mmd()
                    record["mmd_threshold"] = sel.threshold
            if self.owl_ratios and key in self.owl_ratios:
                record["outlier_ratio"] = self.owl_ratios[key]
            out["layers"].append(record)
        return out


def _build_plan(model: ToyModel, config: PruneConfig, stats, norms) -> tuple[SparsityPlan, dict | None]:
    allocator = METHOD_SPECS[config.method].allocator
    param_counts = model.param_counts()
    if allocator == "uniform":
        return allocate_uniform(param_counts, config.sparsity), None
    if allocator == "das":
        importances = {key: stats[key].importance for key in param_counts}
        return allocate_das(importances, param_counts, config.sparsity, config.lam), None
    if allocator == "das_alltoken":
        importances = {key: stats[key].all_token for key in param_counts}
        return allocate_das(importances, param_counts, config.sparsity, config.lam), None
    if allocator == "das_blockwise":
        importances = {key: stats[key].importance for key in param_counts}
        return allocate_blockwise_das(importances, param_counts, config.sparsity, config.lam), None
    if allocator == "owl":
        ratios = {}
        for layer in model.iter_layers():
            key = (layer.block_index, layer.kind)
            score = importance_wanda(layer.weight, norms[key])
            ratios[key] = owl_outlier_ratio(score, config.owl_m)
        return allocate_owl(ratios, param_counts, config.sparsity, config.owl_lam), ratios
    raise ConfigError(f"unknown allocator {allocator!r}")


def prune_model(model: ToyModel, calib: Calibration | list[TokenSequence], config: PruneConfig,
                plan: SparsityPlan | None = None) -> tuple[ToyModel, PruneReport]:
    """Run the full unstructured pipeline; returns (masked copy, report).

    `calib` is the calibration sequences, or a Calibration of `model` with
    `config.calibration_params()` that several prunes share.
    """
    if config.method not in METHOD_SPECS:
        raise ConfigError(f"unknown method {config.method!r}")
    selection = config.resolved_selection()
    if selection not in SELECTION_KINDS:
        raise ConfigError(f"unknown selection kind {selection!r}")
    if not isinstance(calib, Calibration):
        calib = Calibration(model, calib, config.calibration_params())
    elif calib.model is not model or calib.params != config.calibration_params():
        raise ConfigError("calibration was built for another model or other calibration settings")
    if not calib.seqs:
        raise ConfigError("pruning requires at least one calibration sequence")
    counts = model.param_counts()
    if plan is not None:
        plan.check_layers(counts)
    spec = METHOD_SPECS[config.method]

    stats = calib.diversity if spec.allocator.startswith("das") or selection == "amia" else None
    needs_norms = spec.importance == "wanda" or spec.allocator == "owl"
    norms = sel_stats = None
    if needs_norms and (spec.allocator == "owl" or not config.sequential):
        norms, sel_stats = calib.activations(selection)

    if plan is None:
        plan, owl_ratios = _build_plan(model, config, stats, norms)
    else:
        owl_ratios = None
    plan_ratios = plan.ratios()

    pruned = model.copy()
    achieved: dict[tuple[int, str], float] = {}

    def mask_layers(layers, norms) -> None:
        # commit only after every mask is built
        masks = {}
        for layer in layers:
            key = (layer.block_index, layer.kind)
            if spec.importance == "magnitude":
                score = importance_magnitude(layer.weight)
            else:
                score = importance_wanda(layer.weight, norms[key])
            masks[key] = make_mask(score, plan_ratios[key], config.group)
        for layer in layers:
            key = (layer.block_index, layer.kind)
            layer.mask = masks[key].keep
            layer.apply_mask()
            achieved[key] = masks[key].achieved_ratio

    if config.sequential and spec.importance == "wanda":
        # Carry each sample's hidden state through the masked prefix, one block per step.
        sel_stats = {}
        states = [seq.embeddings for seq in calib.seqs]
        for block in pruned.blocks:
            block_norms, block_stats = calib.activations(
                selection, partial(calib.prefix_traces, model=pruned, block=block.index, states=states))
            sel_stats.update(block_stats)
            mask_layers([block.layers[kind] for kind in PROJECTION_KINDS], block_norms)
    else:
        mask_layers(list(pruned.iter_layers()), norms)

    global_achieved = sum(achieved[key] * count for key, count in counts.items()) / sum(counts.values())
    report = PruneReport(
        method=config.method,
        selection=selection,
        group=config.group,
        seed=config.seed,
        plan=plan,
        achieved=achieved,
        global_achieved=global_achieved,
        diversity=stats,
        selection_stats=sel_stats,
        owl_ratios=owl_ratios,
    )
    return pruned, report


# ---------------------------------------------------------------------------
# structural (block) pruning


def blocks_to_remove(importances: dict[int, float], ratio: float) -> list[int]:
    """Indices of the floor(ratio * n) lowest-importance blocks; ties drop the
    deeper block first."""
    n = len(importances)
    if not (0.0 <= ratio <= 1.0):
        raise ConfigError(f"block ratio must be in [0, 1], got {ratio}")
    n_remove = int(ratio * n)
    if n_remove >= n:
        raise ConfigError(f"removing {n_remove} of {n} blocks would leave no model")
    order = sorted(importances, key=lambda b: (importances[b], -b))
    return sorted(order[:n_remove])


def block_prune(model: ToyModel, importances: dict[int, float], ratio: float) -> ToyModel:
    if set(importances) != set(range(model.n_blocks)):
        raise ConfigError("block importances must cover every block index")
    removed = set(blocks_to_remove(importances, ratio))
    reduced = model.copy()
    survivors = [block for block in reduced.blocks if block.index not in removed]
    for new_index, block in enumerate(survivors):
        block.index = new_index
        for kind in PROJECTION_KINDS:
            block.layers[kind].block_index = new_index
    return ToyModel(survivors, model.n_heads, model.d_model, model.d_ff, model.seed)


def block_importances_shortgpt(calib: Calibration) -> dict[int, float]:
    """1 - mean cosine similarity between each block's input and output rows."""
    return {b: 1.0 - sim for b, sim in calib.block_similarity.items()}


def block_importances_das(stats: dict[tuple[int, str], DiversityStats]) -> dict[int, float]:
    """Mean diversity importance of each block's projection layers."""
    terms: dict[int, list[float]] = {}
    for (block, _kind), st in stats.items():
        terms.setdefault(block, []).append(st.importance)
    return {block: float(np.mean(values)) for block, values in sorted(terms.items())}
