"""Weight importance, mask generation, and the pruning pipelines.

Unstructured pruning composes: calibration pass (activation capture) ->
token selection -> per-channel input activation norms -> importance
(|W| or norms * |W|) -> per-group mask at the planned ratio. Calibration
passes run in one memoizing engine, `Calibration`. Masks are computed for
every layer first, then committed, so a failure never leaves a
half-masked model. Structural pruning removes whole blocks by importance.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .allocation import (SparsityPlan, allocate_blockwise_das, allocate_das,
                         allocate_owl, allocate_uniform, owl_outlier_ratio)
from .data import load_sequences, write_sequences
from .diversity import DiversityAccumulator, DiversityStats, block_input_output_similarity
from .errors import ConfigError, ShapeError
from .model import PROJECTION_KINDS, TokenSequence, ToyModel, chunks, forward
from .selection import AMIA_STACK_ELEMENTS, SELECTION_KINDS, AmiaParams

MASK_GROUPS = ("per_output_row", "per_layer")


@dataclass(frozen=True)
class MethodSpec:
    """A pruning method: its plan function, its weight importance ("magnitude" or
    "wanda") and its default selection kind. `plan(model, config, stats, norms)` gives
    (SparsityPlan, OWL ratios or None) from the diversity stats if `diversity` and the
    selected tokens' norms if `norms`. It looks `allocate_*` up when called, so a
    wrapper bound to the module name sees the call."""

    plan: Callable[..., tuple]
    importance: str
    selection: str
    diversity: bool = False
    norms: bool = False


def _plan_uniform(model: ToyModel, config: PruneConfig, stats, norms):
    return allocate_uniform(model.param_counts(), config.sparsity), None


def _plan_das(model: ToyModel, config: PruneConfig, stats, norms, term="importance", blockwise=False):
    counts = model.param_counts()
    allocate = allocate_blockwise_das if blockwise else allocate_das
    return allocate({key: getattr(stats[key], term) for key in counts}, counts, config.sparsity, config.lam), None


def _plan_owl(model: ToyModel, config: PruneConfig, stats, norms):
    ratios = {}
    for layer in model.iter_layers():
        key = (layer.block_index, layer.kind)
        ratios[key] = owl_outlier_ratio(importance_wanda(layer.weight, norms[key]), config.owl_m)
    return allocate_owl(ratios, model.param_counts(), config.sparsity, config.owl_lam), ratios


METHOD_SPECS = {
    "magnitude": MethodSpec(_plan_uniform, "magnitude", "full"),
    "wanda": MethodSpec(_plan_uniform, "wanda", "full"),
    "owl": MethodSpec(_plan_owl, "wanda", "full", norms=True),
    "das": MethodSpec(_plan_das, "wanda", "full", diversity=True),
    "das_alltoken": MethodSpec(partial(_plan_das, term="all_token"), "wanda", "full", diversity=True),
    "das_blockwise": MethodSpec(partial(_plan_das, blockwise=True), "wanda", "full", diversity=True),
    "amia": MethodSpec(_plan_uniform, "wanda", "amia"),
    "tamp": MethodSpec(_plan_das, "wanda", "amia", diversity=True),
}
PRUNE_METHODS = tuple(METHOD_SPECS)


def importance_magnitude(weight: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(weight, dtype=np.float64))


def importance_wanda(weight: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """|W| scaled by the per-input-channel l2 norms of the selected calibration tokens."""
    weight = np.asarray(weight, dtype=np.float64)
    if norms.shape != (weight.shape[1],):
        raise ShapeError(f"activation length {norms.shape} != C_in {weight.shape[1]}")
    return norms[None, :] * np.abs(weight)


def _rows(matrix: np.ndarray, group: str) -> np.ndarray:
    """`matrix` viewed as the rows that `group` compares: its output rows
    (per_output_row), or one row of all its entries (per_layer)."""
    if group not in MASK_GROUPS:
        raise ConfigError(f"unknown comparison group {group!r}")
    return matrix if group == "per_output_row" else matrix.reshape(1, -1)


def mask_order(importance: np.ndarray, group: str = "per_output_row") -> np.ndarray:
    """The order in which `make_mask` drops entries: each compared row's stable ascending
    argsort, so per_layer gives flat indices, in the matrix's shape and the narrowest
    unsigned integer type. Ties put the lower index first, so drop sets are nested across
    ratios."""
    importance = np.asarray(importance, dtype=np.float64)
    rows = _rows(importance, group)
    order = np.argsort(rows, axis=1, kind="stable").reshape(importance.shape)
    return order.astype(np.min_scalar_type(max(rows.shape[1] - 1, 0)))


def make_mask(order: np.ndarray, ratio: float, group: str = "per_output_row") -> np.ndarray:
    """The keep-mask that drops the floor(ratio * row length) smallest-importance entries
    of each row `group` compares: the first ones of each row of its `mask_order`."""
    if not (0.0 <= ratio <= 1.0):
        raise ConfigError(f"ratio must be in [0, 1], got {ratio}")
    rows = _rows(order, group)
    keep = np.ones(order.shape, dtype=bool)
    n_drop = int(ratio * rows.shape[1])
    if n_drop:
        _rows(keep, group)[np.arange(len(rows))[:, None], rows[:, :n_drop]] = False
    return keep


def _layer_orders(layers, norms: dict | None, group: str) -> dict[tuple[int, str], np.ndarray]:
    """Per layer of `layers`, the `mask_order` under `group` of its importance: |W|
    without `norms`, else wanda over its entry of `norms`."""
    orders = {}
    for layer in layers:
        key = (layer.block_index, layer.kind)
        score = importance_magnitude(layer.weight) if norms is None else importance_wanda(layer.weight, norms[key])
        orders[key] = mask_order(score, group)
    return orders


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


class _Sample:
    """One sequence's share of a calibration pass's group of block records: its index
    among the pass's sequences, its spans and its tokens' span numbers (`span_index`,
    made once per chunk), per layer its projection input and output (one view per
    stacked input, so q/k/v share one and gate/up another), per block its (entering,
    leaving) `hiddens`, its float32 final-query attention row (its `contributions`) and,
    if the pass asked for them, its `span_mass`, all views of the records' arrays, its
    tokens selected by each kind the pass reads, and what those kinds' statistics share:
    each input's all-row sums of squares, taken once per input array."""

    def __init__(self, records, i: int, index: int, spans: list, span_index: np.ndarray):
        self.index = index
        self.spans = spans
        self.span_index = span_index
        self.selected: dict[str, dict] = {}
        self.layer_inputs, self.layer_outputs, views = {}, {}, {}  # views: id of a stack -> its row i
        for record in records:
            for key, x in record.inputs.items():
                self.layer_inputs[key] = views.setdefault(id(x), x[i])
            self.layer_outputs.update((key, z[i]) for key, z in record.outputs.items())
        self.span_mass = {r.index: r.span_mass[i] for r in records if r.span_mass is not None}
        self.hiddens = {r.index: (r.hiddens[0][i], r.hiddens[1][i]) for r in records}
        self.contributions = {r.index: r.final_query[i] for r in records}
        self._sums: dict[int, np.ndarray] = {}  # id of an input view -> its all-row sums

    def sq_sums(self, key, indices: np.ndarray | None) -> np.ndarray:
        """Per input channel of layer `key`, the sum of squares in float64 over the rows
        `indices` (None: every row, computed once per distinct input). Only the rows
        summed are converted: float32 to float64 is exact, so gathering first changes
        no bit."""
        x = self.layer_inputs[key]
        if indices is not None:
            return np.square(x[indices].astype(np.float64)).sum(axis=0)
        if id(x) not in self._sums:
            self._sums[id(x)] = np.square(x.astype(np.float64)).sum(axis=0)
        return self._sums[id(x)]

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
    """One selection kind's per-layer input norms and LayerSelectionStats."""

    def __init__(self, calib: "Calibration", kind: str):
        self.kind = kind
        self.thresholds = calib.thresholds if SELECTION_KINDS[kind].adaptive else {}
        self.sq_sums: dict[tuple[int, str], np.ndarray] = {}
        self.stats: dict[tuple[int, str], LayerSelectionStats] = {}

    def add(self, samples: list[_Sample]) -> None:
        every_row = SELECTION_KINDS[self.kind].keeps_all  # its sums need no gather
        for sample in samples:
            for key, (indices, result) in sample.selected[self.kind].items():
                sq = sample.sq_sums(key, None if every_row else indices)
                if key not in self.sq_sums:
                    self.sq_sums[key] = np.zeros_like(sq)
                    self.stats[key] = LayerSelectionStats(threshold=self.thresholds.get(key))
                self.sq_sums[key] += sq
                entry = self.stats[key]
                entry.token_total += len(sample.layer_inputs[key])
                entry.selected_total += len(indices)
                sample.add_modality_counts(entry.by_modality, None if every_row else indices)
                if result is not None:
                    entry.stopped_by[result.stopped_by] = entry.stopped_by.get(result.stopped_by, 0) + 1
                    entry.final_mmd_sum += result.mmd_trace[-1]
                    entry.samples += 1

    def finalize(self):
        return {key: np.sqrt(sq) for key, sq in self.sq_sums.items()}, self.stats


class _Records:
    """One selection kind's per (sample, layer) details, backing the analysis CSV, in
    sample order and then layer order, whichever groups of blocks the samples came in."""

    def __init__(self, kind: str):
        self.kind = kind
        self.records: list[dict] = []

    def add(self, samples: list[_Sample]) -> None:
        for sample in samples:
            for key, (indices, result) in sorted(sample.selected[self.kind].items()):
                record = {"sample": sample.index, "block": key[0], "kind": key[1],
                          "n_tokens": len(sample.layer_inputs[key]), "n_selected": int(len(indices)),
                          "by_modality": sample.add_modality_counts({}, indices)}
                if result is not None:
                    record.update(stopped_by=result.stopped_by, threshold=result.threshold,
                                  mmd_trace=[float(v) for v in result.mmd_trace])
                self.records.append(record)

    def finalize(self) -> list[dict]:
        # a chunk's groups arrive in block order, so a stable sort by sample is enough
        return sorted(self.records, key=lambda record: record["sample"])


class _AttentionMass:
    """Per block, the mean attention mass landing on each modality's key span: the mean
    of a span's `span_mass` row over the queries. Spans of one modality add."""

    def __init__(self):
        self.sums: dict[int, Counter] = {}
        self.counts = Counter()  # samples per block

    def add(self, samples: list[_Sample]) -> None:
        for sample in samples:
            if not sample.span_mass:
                raise ConfigError("a sample lacks the span_mass capture")
            for block, rows in sample.span_mass.items():
                masses = Counter()  # a sample's spans of one modality add before the sample does
                for span, row in zip(sample.spans, rows):
                    masses[span.modality.name] += float(row.mean())
                self.sums.setdefault(block, Counter()).update(masses)
                self.counts[block] += 1

    def finalize(self) -> dict[int, dict[str, float]]:
        return {block: {name: value / self.counts[block] for name, value in sorted(entry.items())}
                for block, entry in sorted(self.sums.items())}


class _BlockSimilarity:
    """Mean per-token cosine similarity between each block's input and output rows."""

    def __init__(self, n_blocks: int):
        self.sums = np.zeros(n_blocks)
        self.counts = [0] * n_blocks  # samples per block

    def add(self, samples: list[_Sample]) -> None:
        for sample in samples:
            for block, (a, b) in sample.hiddens.items():
                self.sums[block] += block_input_output_similarity(a, b)
                self.counts[block] += 1

    def finalize(self) -> dict[int, float]:
        return {b: float(total / count) for b, (total, count) in enumerate(zip(self.sums, self.counts))}


# Every result `Calibration.compute` serves: the selection kind it reads (or None) and
# a function making its accumulator, which takes the samples of each chunk's each group
# of blocks in `add` and then gives its `finalize()`. A kind names its activations.
RESULTS = {
    "diversity": (None, lambda calib: DiversityAccumulator()),
    "attention_mass": (None, lambda calib: _AttentionMass()),
    "block_similarity": (None, lambda calib: _BlockSimilarity(calib.model.n_blocks)),
    **{kind: (kind, partial(_ActivationSums, kind=kind)) for kind in SELECTION_KINDS},
    **{("records", kind): (kind, lambda calib, kind=kind: _Records(kind)) for kind in SELECTION_KINDS},
}


class Calibration:
    """Calibration results of one model on one sequence set, computed lazily.

    Each result is computed on first request and cached, so a method x sparsity grid
    sharing one Calibration pays each distinct pass once, and a single prune computes only
    what it uses. A caller that needs several results declares them to `compute`, which
    serves every result of one dependency level from one forward per chunk. The cache
    holds per-layer aggregates, per-sample selection records and mask orders, never captures.
    """

    def __init__(self, model: ToyModel, seqs: list[TokenSequence],
                 params: CalibrationParams = CalibrationParams()):
        self.model = model
        self.seqs = list(seqs)
        if not self.seqs:
            raise ConfigError("a calibration needs at least one calibration sequence")
        self.params = params
        self._cache: dict = {}

    def compute(self, *results) -> None:
        """Computes each of `results` (named as in RESULTS) not cached yet, in one pass per
        dependency level: a result that reads an adaptive kind reads the thresholds taken
        from the finalized diversity, so it runs in a second pass."""
        for result in results:
            if result not in RESULTS:
                raise ConfigError(f"unknown calibration result {result!r}")
        missing = [result for result in dict.fromkeys(results) if result not in self._cache]
        adaptive = [r for r in missing if RESULTS[r][0] is not None and SELECTION_KINDS[RESULTS[r][0]].adaptive]
        for level in ([r for r in missing if r not in adaptive], adaptive):
            if level:
                self._cache.update(self._pass(level, self.model, self.seqs))

    def result(self, name):
        """The result `name` (as in RESULTS), computed if it is not cached."""
        self.compute(name)
        return self._cache[name]

    @property
    def diversity(self) -> dict[tuple[int, str], DiversityStats]:
        """Per-layer diversity terms of the output tokens."""
        return self.result("diversity")

    @cached_property
    def thresholds(self) -> dict[tuple[int, str], float]:
        """AMIA's per-layer MMD stopping thresholds, scaled by layer diversity."""
        coefficient = self.params.amia.mmd_coefficient
        return {key: coefficient * float(np.sqrt(st.importance)) for key, st in self.diversity.items()}

    def _pass(self, results: list, model: ToyModel, seqs: list[TokenSequence]) -> dict:
        """The one loop that computes results over calibration chunks (`--sequential`
        only carries its samples through a masked block with a plain forward): computes
        `results`, all of one dependency level, from `model` on `seqs` (the calibrated
        model and sequences, or a `--sequential` step's one-block model and carried
        samples), in one forward per chunk, which takes the span masses only for
        `attention_mass`. Adaptive kinds read the thresholds of the calibrated model.

        The forward's `on_block` gathers its block records in consecutive groups of G
        blocks: the most whole blocks whose 7 layers each fit one AMIA stack at the
        chunk's length N, and at least one, max(1, min(n_blocks, AMIA_STACK_ELEMENTS //
        (7 N^2))). That is the whole model at 48 tokens and one block at 188. Once a group
        is complete, it selects each sample's tokens once per kind, feeds every
        accumulator the group's samples and drops the group, so a pass holds one group's
        records (at 188 tokens, a quarter of a 4-block forward's); with two noisy blocks'
        records alive, AMIA's N x N temporaries land in fresh pages and noisy `tamp` runs ~5%
        slower. Per-layer terms still add in sample order, and a layer's AMIA result does
        not depend on its stack, so no result depends on G."""
        # fed in RESULTS order, diversity first: its stacks then reuse heap that a kind's float64
        # inputs would pin (a plain `compare` takes 850 minor page faults, not 51,000)
        accs = {result: build(self) for result, (_, build) in RESULTS.items() if result in results}
        kinds = {kind: SELECTION_KINDS[kind] for kind, _ in map(RESULTS.get, results) if kind is not None}
        thresholds = self.thresholds if any(entry.adaptive for entry in kinds.values()) else {}
        index, group = 0, []
        for chunk in chunks(seqs):
            n = len(chunk.seqs[0])
            size = max(1, AMIA_STACK_ELEMENTS // (len(PROJECTION_KINDS) * n * n))
            span_index = [np.repeat(np.arange(len(seq.spans)), [sp.length for sp in seq.spans]) for seq in chunk.seqs]

            def on_block(record) -> None:
                group.append(record)
                if len(group) < size and record.index != model.blocks[-1].index:
                    return
                samples = [_Sample(group, i, index + i, seq.spans, span_index[i]) for i, seq in enumerate(chunk.seqs)]
                for sample in samples:
                    for kind, entry in kinds.items():
                        sample.selected[kind] = entry.select(sample, self.params, thresholds)
                for acc in accs.values():
                    acc.add(samples)
                group.clear()

            forward(model, chunk, "attention_mass" in accs, on_block)
            index += len(chunk.seqs)
        return {result: acc.finalize() for result, acc in accs.items()}

    def activations(self, kind: str):
        """(norms, LayerSelectionStats) per layer over the tokens `kind` selects."""
        return self.result(kind)

    def mask_orders(self, importance: str, selection: str, group: str) -> dict[tuple[int, str], np.ndarray]:
        """Per layer of the calibrated model, the `mask_order` under `group` of its
        importance: "magnitude", or "wanda" over the tokens `selection` keeps. Each layer
        is sorted once per (importance, selection, group); `make_mask` cuts its order at
        any ratio."""
        if importance == "magnitude":
            selection = None
        key = ("orders", importance, selection, group)
        if key not in self._cache:
            norms = None if selection is None else self.activations(selection)[0]
            self._cache[key] = _layer_orders(self.model.iter_layers(), norms, group)
        return self._cache[key]


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
                    record["mean_final_mmd"] = sel.final_mmd_sum / sel.samples
                    record["mmd_threshold"] = sel.threshold
            if self.owl_ratios and key in self.owl_ratios:
                record["outlier_ratio"] = self.owl_ratios[key]
            out["layers"].append(record)
        return out


def calibration_needs(config: PruneConfig) -> list[str]:
    """The Calibration results (as `Calibration.compute` names them) that `prune_model`
    reads under `config`: the diversity for DAS allocation and AMIA thresholds, and the
    activations of the selected tokens for wanda importance and OWL ratios, which
    `--sequential` takes from the masked prefix instead."""
    spec = METHOD_SPECS[config.method]
    selection = config.resolved_selection()
    needs = []
    if spec.diversity or SELECTION_KINDS[selection].adaptive:
        needs.append("diversity")
    if spec.norms or (spec.importance == "wanda" and not config.sequential):
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
    counts = model.param_counts()
    if plan is not None:
        plan.check_layers(counts)
    spec = METHOD_SPECS[config.method]

    needs = calibration_needs(config)
    calib.compute(*needs)
    stats = calib.diversity if "diversity" in needs else None
    norms, sel_stats = calib.activations(selection) if selection in needs else (None, None)

    if plan is None:
        plan, owl_ratios = spec.plan(model, config, stats, norms)
    else:
        owl_ratios = None
    plan_ratios = plan.ratios()

    pruned = model.copy()
    achieved: dict[tuple[int, str], float] = {}

    def mask_layers(layers, orders) -> None:
        # commit only after every mask is built; a layer masked before keeps its drops
        keys = [(layer.block_index, layer.kind) for layer in layers]
        masks = [make_mask(orders[key], plan_ratios[key], config.group) for key in keys]
        for layer, key, keep in zip(layers, keys, masks):
            layer.mask = keep if layer.mask is None else keep & layer.mask
            layer.apply_mask()
            achieved[key] = float((~layer.mask).sum()) / layer.mask.size

    if config.sequential and spec.importance == "wanda":
        # Each block's norms, and so its orders, come from the samples carried through the
        # blocks already masked: one pass over a one-block model of the block, which, once
        # masked, advances them. They start as the calibration sequences; each advance
        # writes them as a dataset of its own and loads it back, and the one before is then
        # deleted, so memory holds one chunk of states and the disk at most two steps'
        # datasets. The scratch directory goes on every exit.
        import tempfile  # here, not at the top: it adds 7 ms to every command's start

        sel_stats = {}
        carried = list(calib.seqs)
        with tempfile.TemporaryDirectory() as scratch:
            previous = []
            for block in pruned.blocks:
                view = ToyModel([block], pruned.n_heads, pruned.d_model, pruned.d_ff, pruned.seed)
                block_norms, block_stats = calib._pass([selection], view, carried)[selection]
                sel_stats.update(block_stats)
                layers = [block.layers[kind] for kind in PROJECTION_KINDS]
                mask_layers(layers, _layer_orders(layers, block_norms, config.group))
                if block is pruned.blocks[-1]:
                    break
                states = (TokenSequence(x, seq.spans)
                          for chunk in chunks(carried) for x, seq in zip(forward(view, chunk), chunk.seqs))
                jsonl = write_sequences(states, scratch, f"after_block{block.index}")
                carried = load_sequences(jsonl)
                for path in previous:
                    path.unlink()
                previous = [jsonl, carried[0].blob]
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
    return {b: 1.0 - sim for b, sim in calib.result("block_similarity").items()}


def block_importances_das(stats: dict[tuple[int, str], DiversityStats]) -> dict[int, float]:
    """Mean diversity importance of each block's projection layers."""
    terms: dict[int, list[float]] = {}
    for (block, _kind), st in stats.items():
        terms.setdefault(block, []).append(st.importance)
    return {block: float(np.mean(values)) for block, values in sorted(terms.items())}


# `prune --structural`'s block importances, each from a Calibration of the model
BLOCK_IMPORTANCES = {
    "das": lambda calib: block_importances_das(calib.diversity),
    "shortgpt": block_importances_shortgpt,
}
