"""Every committed bench record (`BENCH_*.json`) carries what `BENCHMARK.json` declares,
and the benchmark's tracer sees the pipeline's work.

A record holds, per workload, the final JSON line of `perfbench/run.py` with
`--trace 0` (key `trace0`) and with `--trace 1` (key `trace1`).
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from mmprune.checkpoint import load_checkpoint
from mmprune.cli import main
from mmprune.data import load_sequences
from mmprune.model import chunks

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

# Counters a traced run of each workload must move: every workload forwards the model
# and masks every layer, and the two whose methods select tokens by AMIA run it. A
# counter that reads 0 here means the tracer no longer sees that work, so its time
# lands in the caller's self time.
MOVED = {
    "sweep-plain": ("model.forward.calls", "model.forward.tokens", "pruner.make_mask.calls",
                    "diversity.add_layer_sample.calls", "selection.select_amia.calls"),
    "tamp-noisy": ("model.forward.calls", "model.forward.tokens", "pruner.make_mask.calls",
                   "diversity.add_layer_sample.calls", "selection.select_amia.calls"),
    "sequential-noisy": ("model.forward.calls", "model.forward.tokens", "pruner.make_mask.calls"),
}


def test_bench_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_bench_record_matches_the_benchmark(path):
    record = json.loads(path.read_text())
    assert sorted(record["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for name, runs in record["workloads"].items():
        for trace, declared in (("trace0", SPEC["end_to_end"]), ("trace1", SPEC["per_layer"])):
            line = runs[trace]
            assert line["failed"] == 0 and line["correct"] is True, (name, trace)
            assert line["attempted"] >= 1, (name, trace)
            for metric in declared:
                entry = line["metrics"].get(metric["name"])
                assert entry is not None, (name, trace, metric["name"])
                assert entry["unit"] == metric["unit"], (name, trace, metric["name"])
                assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        # an end-to-end metric that reads 0 would make every bound on it meaningless
        assert all(runs["trace0"]["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"]), name
        moved = runs["trace1"]["metrics"]
        assert [m for m in MOVED[name] if not moved[m]["value"] > 0] == [], name


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_counts_chunked_forwards_and_stacked_selections(tmp_path):
    tracing = _tracing()
    ws = tmp_path / "ws"
    assert main(["gen-synth", "--out", str(ws), "--n-calib", "3"]) == 0
    seqs = load_sequences(ws / "calib.jsonl")
    n_layers = len(list(load_checkpoint(ws / "model").iter_layers()))

    def traced_prune(method, allocator):
        tracer = tracing.Tracer()
        with tracer:
            assert main(["prune", "--model", str(ws / "model"), "--calib", str(ws / "calib.jsonl"),
                         "--method", method, "--out", str(tmp_path / method)]) == 0
        # the allocator table calls `allocate_*` by its bound name
        assert f"allocation.{allocator}" in {name for name, *_ in tracer.spans}
        return tracing.layer_metrics(tracer.spans, tracer.counts)

    metrics = traced_prune("tamp", "allocate_das")
    # tamp runs two calibration passes: diversity, then AMIA selection
    assert metrics["model.forward.tokens"] == 2 * sum(len(seq) for seq in seqs)
    assert 0 < metrics["model.forward.calls"] < 2 * len(seqs)  # a chunk is one call
    # one stack per chunk and output shape, (N, d_model) and (N, d_ff)
    assert metrics["diversity.add_layer_sample.calls"] == 2 * len(list(chunks(seqs)))
    assert 0 < metrics["selection.select_amia.calls"] < len(seqs) * n_layers  # a stack is one call
    assert metrics["selection.select_amia.s"] > 0
    assert metrics["allocation.s"] > 0
    assert metrics["pruner.make_mask.calls"] == n_layers
    metrics = traced_prune("owl", "allocate_owl")
    assert metrics["allocation.s"] > 0 and metrics["pruner.make_mask.calls"] == n_layers
    assert metrics["model.forward.tokens"] == sum(len(seq) for seq in seqs)  # one full-token pass
    assert metrics["selection.select_amia.calls"] == 0
