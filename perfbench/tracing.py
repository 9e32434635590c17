"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the `mmprune` modules from outside the
package. Each target is replaced under every name by which a caller looks it
up: `mmprune.model.forward` is also bound as `mmprune.pruner.forward` and
`mmprune.evaluation.forward`, and each of those bindings is swapped. A
target that no longer exists is reported as absent, so the traced run keeps
working while the library is refactored.

A span is `[name, start, end, parent]`, where `parent` is the index of the
enclosing span or -1. Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute path) for every wrapped public function.
TARGETS = [
    ("cli.main", "mmprune.cli", "main"),
    ("model.forward", "mmprune.model", "forward"),
    ("diversity.add_layer_sample", "mmprune.diversity", "DiversityAccumulator.add_layer_sample"),
    ("selection.select_amia", "mmprune.selection", "select_amia"),
    ("selection.pairwise_cosine_distances", "mmprune.selection", "pairwise_cosine_distances"),
    ("selection.build_knn", "mmprune.selection", "build_knn"),
    ("selection.reverse_select", "mmprune.selection", "reverse_select"),
    ("pruner.prune_model", "mmprune.pruner", "prune_model"),
    ("pruner.compute_diversity_stats", "mmprune.pruner", "compute_diversity_stats"),
    ("pruner.collect_activations", "mmprune.pruner", "collect_activations"),
    ("pruner.make_mask", "mmprune.pruner", "make_mask"),
    ("allocation.allocate_uniform", "mmprune.allocation", "allocate_uniform"),
    ("allocation.allocate_das", "mmprune.allocation", "allocate_das"),
    ("allocation.allocate_blockwise_das", "mmprune.allocation", "allocate_blockwise_das"),
    ("allocation.allocate_owl", "mmprune.allocation", "allocate_owl"),
    ("allocation.owl_outlier_ratio", "mmprune.allocation", "owl_outlier_ratio"),
    ("evaluation.run_comparison", "mmprune.evaluation", "run_comparison"),
    ("evaluation.reconstruction_report", "mmprune.evaluation", "reconstruction_report"),
    ("checkpoint.load_checkpoint", "mmprune.checkpoint", "load_checkpoint"),
    ("checkpoint.save_checkpoint", "mmprune.checkpoint", "save_checkpoint"),
    ("data.load_sequences", "mmprune.data", "load_sequences"),
    ("data.generate_sequences", "mmprune.data", "generate_sequences"),
    ("data.make_noisy_modality_scenario", "mmprune.data", "make_noisy_modality_scenario"),
    ("data.write_sequences", "mmprune.data", "write_sequences"),
]

ALLOCATION_SPANS = ("allocation.allocate_uniform", "allocation.allocate_das",
                    "allocation.allocate_blockwise_das", "allocation.allocate_owl",
                    "allocation.owl_outlier_ratio")
GEN_SYNTH_SPANS = ("data.generate_sequences", "data.make_noisy_modality_scenario",
                   "data.write_sequences")

# Per-layer metrics of one operation, with their units, in report order.
LAYER_METRICS = {
    "model.forward.calls": "count",
    "model.forward.tokens": "count",
    "model.forward.s": "s",
    "diversity.add_layer_sample.calls": "count",
    "diversity.add_layer_sample.s": "s",
    "selection.select_amia.calls": "count",
    "selection.select_amia.s": "s",
    "selection.pairwise_cosine_distances.s": "s",
    "selection.build_knn.s": "s",
    "selection.reverse_select.s": "s",
    "selection.kept_ratio": "ratio",
    "selection.stopped_by.threshold": "count",
    "selection.stopped_by.exhausted": "count",
    "selection.stopped_by.max_count": "count",
    "pruner.prune_model.self_s": "s",
    "pruner.compute_diversity_stats.calls": "count",
    "pruner.compute_diversity_stats.self_s": "s",
    "pruner.collect_activations.calls": "count",
    "pruner.collect_activations.self_s": "s",
    "pruner.make_mask.calls": "count",
    "pruner.make_mask.s": "s",
    "allocation.s": "s",
    "evaluation.reconstruction_report.calls": "count",
    "evaluation.reconstruction_report.s": "s",
    "checkpoint.load_checkpoint.s": "s",
    "checkpoint.save_checkpoint.s": "s",
    "checkpoint.bytes_written": "bytes",
    "data.load_sequences.s": "s",
    "data.tokens_loaded": "count",
    "cli.self_s": "s",
}

# Metrics that count decisions or work; they must repeat exactly between runs.
EXACT_METRICS = tuple(name for name in LAYER_METRICS
                      if name.endswith((".calls", ".tokens")) or ".stopped_by." in name
                      or name in ("selection.kept_ratio", "checkpoint.bytes_written",
                                  "data.tokens_loaded"))


def _arg(fn_signature: inspect.Signature, args, kwargs, name: str):
    return fn_signature.bind(*args, **kwargs).arguments[name]


def _count_forward(tracer, sig, args, kwargs, result):
    tracer.counts["model.forward.tokens"] += len(_arg(sig, args, kwargs, "seq"))


def _count_select_amia(tracer, sig, args, kwargs, result):
    tracer.counts["selection.tokens_seen"] += len(_arg(sig, args, kwargs, "z"))
    tracer.counts["selection.tokens_kept"] += len(result.selected)
    tracer.counts[f"selection.stopped_by.{result.stopped_by}"] += 1


def _count_load_sequences(tracer, sig, args, kwargs, result):
    tracer.counts["data.tokens_loaded"] += sum(len(seq) for seq in result)


def _count_save_checkpoint(tracer, sig, args, kwargs, result):
    directory = _arg(sig, args, kwargs, "directory")
    tracer.counts["checkpoint.bytes_written"] += sum(
        entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


COUNTERS = {
    "model.forward": _count_forward,
    "selection.select_amia": _count_select_amia,
    "data.load_sequences": _count_load_sequences,
    "checkpoint.save_checkpoint": _count_save_checkpoint,
}


class Tracer:
    """Records spans and counters while installed; restores every binding on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.bindings: dict[str, list[str] | str] = {}
        self.counter_errors: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def __enter__(self) -> "Tracer":
        self.bindings = {}
        for name, module_name, path in self.targets:
            self.bindings[name] = self._install(name, module_name, path)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _install(self, name: str, module_name: str, path: str) -> list[str] | str:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return "absent"
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = None if owner is None else vars(owner).get(attr)
        if not callable(original):
            return "absent"
        wrapper = self._wrap(name, original)
        if owner is not module:  # a method: its class is the only binding
            self._swap(owner, attr, original, wrapper)
            return [f"{module_name}.{path}"]
        bound = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "mmprune" or mod_name.startswith("mmprune.")):
                continue
            for mod_attr, value in list(vars(mod).items()):
                if value is original:
                    self._swap(mod, mod_attr, original, wrapper)
                    bound.append(f"{mod_name}.{mod_attr}")
        return bound

    def _swap(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(self, sig, args, kwargs, result)
                except (TypeError, KeyError, AttributeError):
                    self.counter_errors.add(name)
            return result

        return wrapper


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _busy(spans: list[list], names) -> float:
    """Wall time covered by spans in `names`, counting nested ones once."""
    names = set(names)
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        outer = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[i] = outer
        if name in names and not outer:
            total += end - start
    return total


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    own = _self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        calls[name] += 1
        self_s[name] += t
    out = {}
    for metric in LAYER_METRICS:
        span_name, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[span_name]
        elif field == "self_s":
            out[metric] = self_s[span_name]
        elif field == "s":
            out[metric] = _busy(spans, [span_name])
        else:
            out[metric] = counts.get(metric, 0)
    out["cli.self_s"] = self_s["cli.main"]
    out["allocation.s"] = _busy(spans, ALLOCATION_SPANS)
    seen = counts.get("selection.tokens_seen", 0)
    out["selection.kept_ratio"] = counts.get("selection.tokens_kept", 0) / seen if seen else 0.0
    return out


def gen_synth_seconds(spans: list[list]) -> float:
    return _busy(spans, GEN_SYNTH_SPANS)
