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
from itertools import groupby

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


def mask_order(importance: np.ndarray, group: str = "per_output_row") -> np.ndarray:
    """The order in which `make_mask` drops entries: each row's stable ascending argsort
    (per_output_row), or the whole matrix's as flat indices in the matrix's shape
    (per_layer), in the narrowest unsigned integer type. Ties put the lower flattened
    index first, so drop sets are nested across ratios."""
    if group not in MASK_GROUPS:
        raise ConfigError(f"unknown comparison group {group!r}")
    importance = np.asarray(importance, dtype=np.float64)
    if group == "per_output_row":
        order = np.argsort(importance, axis=1, kind="stable")
        n = importance.shape[1]
    else:
        order = np.argsort(importance.ravel(), kind="stable").reshape(importance.shape)
        n = importance.size
    return order.astype(np.min_scalar_type(max(n - 1, 0)))


def make_mask(order: np.ndarray, ratio: float, group: str = "per_output_row") -> PruneMask:
    """Drop the floor(ratio * group_size) smallest-importance entries per group: the
    first ones of each group's `mask_order`."""
    if not (0.0 <= ratio <= 1.0):
        raise ConfigError(f"ratio must be in [0, 1], got {ratio}")
    if group not in MASK_GROUPS:
        raise ConfigError(f"unknown comparison group {group!r}")
    keep = np.ones(order.shape, dtype=bool)
    if group == "per_output_row":
        n_drop = int(ratio * order.shape[1])
        if n_drop:
            keep[np.arange(order.shape[0])[:, None], order[:, :n_drop]] = False
    else:
        n_drop = int(ratio * order.size)
        if n_drop:
            keep.ravel()[order.ravel()[:n_drop]] = False
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


class _Sample:
    """One sample's trace with what the statistics of every selection kind share: its
    captured inputs in float64, converted once per distinct input array (q/k/v share
    one, gate/up another), and each token's span."""

    def __init__(self, trace):
        self.trace = trace
        self.spans = trace.spans
        self.span_index = np.repeat(np.arange(len(self.spans)), [span.length for span in self.spans])
        self._inputs: dict[int, list] = {}  # id of a captured input -> [float64 copy, all-row sums]

    def sq_sums(self, key, indices: np.ndarray | None) -> np.ndarray:
        """Per input channel of layer `key`, the sum of squares over the rows `indices`
        (None: every row, computed once per distinct input)."""
        x = self.trace.layer_inputs[key]
        entry = self._inputs.get(id(x))
        if entry is None:
            entry = self._inputs[id(x)] = [x.astype(np.float64), None]
        if indices is not None:
            return np.square(entry[0][indices]).sum(axis=0)
        if entry[1] is None:
            entry[1] = np.square(entry[0]).sum(axis=0)
        return entry[1]

    def add_modality_counts(self, counts: dict[str, int], indices: np.ndarray | None) -> dict[str, int]:
        """Adds how many of `indices` (None: every token) fall in each modality's spans
        to `counts`."""
        if indices is None:
            per_span = [span.length for span in self.spans]
        else:
            per_span = np.bincount(self.span_index[indices], minlength=len(self.spans)).tolist()
        for span, count in zip(self.spans, per_span):
            counts[span.modality.name] = counts.get(span.modality.name, 0) + count
        return counts


class _ActivationSums:
    """Streams one selection kind's per-layer input norms and LayerSelectionStats."""

    def __init__(self, kind: str, thresholds: dict):
        self.kind = kind
        self.thresholds = thresholds
        self.sq_sums: dict[tuple[int, str], np.ndarray] = {}
        self.stats: dict[tuple[int, str], LayerSelectionStats] = {}

    def add(self, sample: _Sample, selected: dict) -> None:
        """Adds one sample's {layer: (indices, SelectionResult | None)}."""
        # the full kind keeps every token in order, so its sums need no gather
        every_row = self.kind == "full"
        for key, (indices, result) in selected.items():
            sq = sample.sq_sums(key, None if every_row else indices)
            if key not in self.sq_sums:
                self.sq_sums[key] = np.zeros_like(sq)
                self.stats[key] = LayerSelectionStats(threshold=self.thresholds.get(key))
            self.sq_sums[key] += sq
            entry = self.stats[key]
            entry.token_total += len(sample.trace.layer_inputs[key])
            entry.selected_total += len(indices)
            sample.add_modality_counts(entry.by_modality, None if every_row else indices)
            if result is not None:
                entry.stopped_by[result.stopped_by] = entry.stopped_by.get(result.stopped_by, 0) + 1
                entry.final_mmd_sum += result.mmd_trace[-1]
                entry.samples += 1

    def result(self):
        activations = {key: InputActivation(np.sqrt(sq), self.stats[key].selected_total, self.kind)
                       for key, sq in self.sq_sums.items()}
        return activations, self.stats


def _add_diversity(acc: DiversityAccumulator, traces) -> None:
    """Adds one chunk's layer outputs to `acc`: per run of consecutive samples with one
    span layout, one stack per output shape, its layers in order."""
    for spans, run in groupby(traces, key=lambda trace: trace.spans):
        run = list(run)
        by_shape: dict[tuple[int, ...], list] = {}
        for key, z in run[0].layer_outputs.items():
            by_shape.setdefault(z.shape, []).append(key)
        for keys in by_shape.values():
            acc.add_layer_sample(keys, np.array([[trace.layer_outputs[key] for trace in run] for key in keys]),
                                 spans)


class Calibration:
    """Calibration results of one model on one sequence set, computed lazily.

    Each result is computed on first request and cached on the instance, so
    a method x sparsity grid sharing one Calibration pays each distinct pass
    once, and a single prune computes only what it uses. A caller that needs
    several results declares them to `compute`, which serves every result of
    one dependency level from one forward per chunk. The cache holds per-layer
    aggregates, per-sample selection records and mask orders, never traces.
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

    def compute(self, *results: str) -> None:
        """Computes each of `results` that is not cached yet: "diversity", or a kind of
        SELECTION_KINDS for the activations over the tokens it keeps. Diversity and the
        non-adaptive activations share one pass over the samples; amia's activations
        read the thresholds taken from the finalized diversity, so they run in a
        second."""
        for result in results:
            if result != "diversity" and result not in SELECTION_KINDS:
                raise ConfigError(f"unknown calibration result {result!r}")
        missing = [result for result in dict.fromkeys(results) if result not in self._cache]
        for level in ([r for r in missing if r != "amia"], [r for r in missing if r == "amia"]):
            if level:
                self._cache.update(self._pass(level, self.chunk_traces))

    def chunk_traces(self, capture: CaptureFlags):
        """The sample loop: per chunk of sequences, its traces from one forward of the
        calibrated model."""
        for chunk in chunks(self.seqs):
            yield forward(self.model, chunk, capture)[1]

    def traces(self, capture: CaptureFlags):
        """One trace per sequence, from `chunk_traces`."""
        for traces in self.chunk_traces(capture):
            yield from traces

    def prefix_traces(self, capture: CaptureFlags, model: ToyModel, block: int, states: list[np.ndarray]):
        """Per chunk, its traces from one forward that advances each sample's `states[i]`
        (the embeddings, then the state entering block `block - 1`) through that block of
        `model`, then records `block`."""
        capture = replace(capture, hiddens=block > 0, blocks=frozenset({block}))
        i = 0
        for chunk in chunks(self.seqs):
            s = len(chunk.seqs)
            hidden = states[i][None] if s == 1 else np.stack(states[i:i + s])
            traces = forward(model, chunk, capture, max(block - 1, 0), block + 1, hidden)[1]
            if block:
                states[i:i + s] = [trace.hiddens[1] for trace in traces]
            i += s
            del hidden
            yield traces
            del traces  # free the chunk before the next forward, as `_selections` says

    @property
    def diversity(self) -> dict[tuple[int, str], DiversityStats]:
        """Per-layer diversity terms of the output tokens."""
        self.compute("diversity")
        return self._cache["diversity"]

    @cached_property
    def thresholds(self) -> dict[tuple[int, str], float]:
        """AMIA's per-layer MMD stopping thresholds, scaled by layer diversity."""
        coefficient = self.params.amia.mmd_coefficient
        return {key: coefficient * float(np.sqrt(st.importance)) for key, st in self.diversity.items()}

    def _selections(self, kinds: list[str], chunk_traces, outputs: bool = False):
        """Yields, per chunk, its traces and per trace {kind: {layer: (indices,
        SelectionResult | None)}} for each selection kind of `kinds`.

        `chunk_traces(capture)` yields each chunk's traces (e.g. `self.chunk_traces`);
        `outputs` also captures the layer outputs. Callers drop what a chunk yields
        before the next one, so a noisy chunk (one sample) is freed before the next
        forward: with two traces alive, AMIA's N x N temporaries land in fresh pages
        and noisy `tamp` runs ~5% slower.
        """
        capture = CaptureFlags(inputs=bool(kinds), outputs=outputs or "amia" in kinds,
                               attention=any(kind in ("attention", "amia") for kind in kinds))
        thresholds = self.thresholds if "amia" in kinds else {}  # its pass runs first
        p = self.params
        index = 0
        for traces in chunk_traces(capture):
            selected = []
            for trace in traces:
                contributions = {b: token_contributions(attn) for b, attn in trace.attention.items()}
                by_kind = {}
                for kind in kinds:
                    if kind == "amia":
                        by_kind[kind] = self._amia(trace, contributions, thresholds)
                        continue
                    by_kind[kind] = {}
                    for key, x in trace.layer_inputs.items():
                        block, layer_kind = key
                        rng = None
                        if kind == "random":
                            rng = np.random.default_rng(np.random.SeedSequence(
                                [p.seed, 7701, index, block, PROJECTION_KINDS.index(layer_kind)]))
                        by_kind[kind][key] = (select_tokens(kind, contributions.get(block), x, rng=rng,
                                                            random_count=p.random_count), None)
                selected.append(by_kind)
                index += 1
            yield traces, selected
            del traces, selected, trace, contributions, by_kind

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

    def _pass(self, results: list[str], chunk_traces) -> dict:
        """One pass over the samples that computes `results` (as in `compute`), all of one
        dependency level, from the chunks `chunk_traces(capture)` yields."""
        kinds = [result for result in results if result != "diversity"]
        acc = DiversityAccumulator() if "diversity" in results else None
        sums = {kind: _ActivationSums(kind, self.thresholds if kind == "amia" else {}) for kind in kinds}
        for traces, selected in self._selections(kinds, chunk_traces, outputs=acc is not None):
            if acc is not None:
                _add_diversity(acc, traces)
            for trace, by_kind in zip(traces, selected):
                sample = _Sample(trace)
                for kind, layers in by_kind.items():
                    sums[kind].add(sample, layers)
            del traces, selected, trace, by_kind, sample
        out = {kind: acc_sums.result() for kind, acc_sums in sums.items()}
        if acc is not None:
            # in layer order, as the stats' consumers (block means, thresholds) read them
            stats = acc.finalize()
            out["diversity"] = {key: stats[key] for key in self.model.param_counts() if key in stats}
        return out

    def activations(self, kind: str, chunk_traces=None):
        """(InputActivation, LayerSelectionStats) per layer over the tokens `kind` selects,
        cached unless `chunk_traces` (as in `_selections`, e.g. `prefix_traces`) is
        given."""
        if chunk_traces is not None:
            return self._pass([kind], chunk_traces)[kind]
        self.compute(kind)
        return self._cache[kind]

    def mask_orders(self, importance: str, selection: str, group: str) -> dict[tuple[int, str], np.ndarray]:
        """Per layer of the calibrated model, the `mask_order` under `group` of its
        importance: "magnitude", or "wanda" over the tokens `selection` keeps. Each layer
        is sorted once per (importance, selection, group); `make_mask` cuts its order at
        any ratio."""
        if importance == "magnitude":
            selection = None

        def compute():
            norms = None if selection is None else self.activations(selection)[0]
            orders = {}
            for layer in self.model.iter_layers():
                key = (layer.block_index, layer.kind)
                score = (importance_magnitude(layer.weight) if norms is None
                         else importance_wanda(layer.weight, norms[key]))
                orders[key] = mask_order(score, group)
            return orders
        return self._memo(("orders", importance, selection, group), compute)

    def selection_records(self, kind: str) -> list[dict]:
        """Per (sample, layer) selection details backing the analysis CSV."""
        def compute():
            records = []
            index = 0
            for traces, selected in self._selections([kind], self.chunk_traces):
                for trace, by_kind in zip(traces, selected):
                    layers, sample = by_kind[kind], _Sample(trace)
                    records += [self._record(index, key, sample, *layers[key]) for key in sorted(layers)]
                    index += 1
                del traces, selected, trace, by_kind, layers, sample
            return records
        return self._memo(("records", kind), compute)

    @staticmethod
    def _record(index: int, key: tuple[int, str], sample: _Sample, indices: np.ndarray, result) -> dict:
        record = {
            "sample": index,
            "block": key[0],
            "kind": key[1],
            "n_tokens": len(sample.trace.layer_inputs[key]),
            "n_selected": int(len(indices)),
            "by_modality": sample.add_modality_counts({}, indices),
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


def calibration_needs(config: PruneConfig) -> list[str]:
    """The Calibration results (as `Calibration.compute` names them) that `prune_model`
    reads under `config`: the diversity for DAS allocation and AMIA thresholds, and the
    activations of the selected tokens for wanda importance and OWL ratios, which
    `--sequential` takes from the masked prefix instead."""
    spec = METHOD_SPECS[config.method]
    selection = config.resolved_selection()
    needs = []
    if spec.allocator.startswith("das") or selection == "amia":
        needs.append("diversity")
    if spec.allocator == "owl" or (spec.importance == "wanda" and not config.sequential):
        needs.append(selection)
    return needs


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

    needs = calibration_needs(config)
    calib.compute(*needs)
    stats = calib.diversity if "diversity" in needs else None
    norms = sel_stats = None
    if selection in needs:
        norms, sel_stats = calib.activations(selection)

    if plan is None:
        plan, owl_ratios = _build_plan(model, config, stats, norms)
    else:
        owl_ratios = None
    plan_ratios = plan.ratios()

    pruned = model.copy()
    achieved: dict[tuple[int, str], float] = {}

    def mask_layers(layers, orders) -> None:
        # commit only after every mask is built
        masks = {}
        for layer in layers:
            key = (layer.block_index, layer.kind)
            masks[key] = make_mask(orders[key], plan_ratios[key], config.group)
        for layer in layers:
            key = (layer.block_index, layer.kind)
            layer.mask = masks[key].keep
            layer.apply_mask()
            achieved[key] = masks[key].achieved_ratio

    if config.sequential and spec.importance == "wanda":
        # Carry each sample's hidden state through the masked prefix, one block per step;
        # each block's norms, and so its orders, come from the masked prefix.
        sel_stats = {}
        states = [seq.embeddings for seq in calib.seqs]
        for block in pruned.blocks:
            block_norms, block_stats = calib.activations(
                selection, partial(calib.prefix_traces, model=pruned, block=block.index, states=states))
            sel_stats.update(block_stats)
            orders = {key: mask_order(importance_wanda(block.layers[key[1]].weight, act), config.group)
                      for key, act in block_norms.items()}
            mask_layers([block.layers[kind] for kind in PROJECTION_KINDS], orders)
    else:
        mask_layers(list(pruned.iter_layers()), calib.mask_orders(spec.importance, selection, config.group))

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
