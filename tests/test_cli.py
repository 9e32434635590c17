"""CLI behaviour: artifacts, exit codes, reproducibility."""

import contextlib
import csv
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmprune.cli as cli
from mmprune import pruner
from mmprune.allocation import allocate_uniform
from mmprune.checkpoint import load_checkpoint
from mmprune.cli import _prune_config, build_parser, main
from mmprune.data import make_noisy_modality_scenario
from mmprune.errors import ConfigError, NumericError
from mmprune.model import CaptureFlags
from mmprune.pruner import PruneConfig
from tests.test_data import edited_json
from tests.test_pruner import count_calibration_forwards


def snapshot(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture()
def workspace(tmp_path):
    out = tmp_path / "ws"
    code = main(["gen-synth", "--out", str(out), "--d-model", "16", "--n-heads", "2",
                 "--d-ff", "24", "--n-blocks", "2", "--tokens-per-modality", "8",
                 "--n-calib", "4", "--n-eval", "2", "--seed", "3"])
    assert code == 0
    return out


def test_gen_synth_outputs_and_determinism(tmp_path):
    args = ["gen-synth", "--d-model", "16", "--n-heads", "2", "--d-ff", "24",
            "--n-blocks", "2", "--tokens-per-modality", "6", "--n-calib", "3",
            "--n-eval", "2", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = snapshot(tmp_path / "a")
    b = snapshot(tmp_path / "b")
    # everything except the recorded output path must match byte for byte
    assert set(a) == set(b)
    for name in a:
        if name != "run.json":
            assert a[name] == b[name], name
    assert (tmp_path / "a" / "model" / "manifest.json").exists()
    assert (tmp_path / "a" / "calib.jsonl").exists()


def test_gen_synth_three_modalities(tmp_path):
    out = tmp_path / "tri"
    assert main(["gen-synth", "--out", str(out), "--d-model", "16", "--n-heads", "2",
                 "--d-ff", "24", "--n-blocks", "1", "--modalities", "3",
                 "--tokens-per-modality", "4", "--n-calib", "2", "--n-eval", "1",
                 "--seed", "0"]) == 0
    record = json.loads((out / "calib.jsonl").read_text().splitlines()[0])
    names = [s["modality"] for s in record["spans"]]
    assert names == ["visual", "language", "audio"]
    assert all(s["len"] == 4 for s in record["spans"])


@pytest.mark.parametrize("d_model", [8, 12, 16, 20, 23])
def test_noisy_scenario_below_its_channel_count_is_usage_error(tmp_path, capsys, d_model):
    message = usage_error(["gen-synth", "--scenario", "noisy-modality", "--out", str(tmp_path / "ws"),
                           "--d-model", str(d_model), "--n-heads", "1", "--n-calib", "1", "--n-eval", "1"], capsys)
    assert message == (f"--scenario noisy-modality needs --d-model >= 24 (16 signal and 8 outlier channels), "
                       f"got {d_model}")
    assert not (tmp_path / "ws").exists()
    # the library keeps its own check
    with pytest.raises(ConfigError, match=rf"needs d_model >= 24 \(16 signal and 8 outlier channels\), got {d_model}"):
        make_noisy_modality_scenario(0, d_model=d_model, n_heads=1, n_calib=1, n_eval=1)


def test_noisy_scenario_at_its_channel_count(tmp_path):
    # the plain scenario's flags at their defaults, as every noisy run record holds them
    assert main(["gen-synth", "--scenario", "noisy-modality", "--out", str(tmp_path / "ws"),
                 "--d-model", "24", "--n-heads", "4", "--d-ff", "8", "--n-blocks", "1",
                 "--n-calib", "1", "--n-eval", "1", "--modalities", "2", "--tokens-per-modality", "24"]) == 0
    assert load_checkpoint(tmp_path / "ws" / "model").d_model == 24


def usage_error(argv, capsys) -> str:
    """The message of the JSON UsageError record that `main(argv)` writes, exiting 2."""
    code = main(argv)
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "UsageError"
    return err["message"]


def test_prune_usage_error_on_bad_sparsity(workspace, tmp_path, capsys):
    message = usage_error(["prune", "--model", str(workspace / "model"), "--calib",
                           str(workspace / "calib.jsonl"), "--sparsity", "1.5",
                           "--out", str(tmp_path / "out")], capsys)
    assert message == "--sparsity must be in (0, 1), got 1.5"


@pytest.mark.parametrize("argv", [["prune", "--structural", "shortgpt"], ["prune", "--structural", "das"],
                                  ["analyze", "--reports", "diversity"], ["analyze", "--reports", "attention"],
                                  ["analyze", "--reports", "selection"]],
                         ids=["shortgpt", "das", "diversity", "attention", "selection"])
def test_empty_calibration_set_is_config_error(workspace, tmp_path, capsys, argv):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(argv + ["--model", str(workspace / "model"), "--calib", str(empty), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and "at least one calibration sequence" in err["message"]
    assert snapshot(tmp_path / "out") == {}  # no report, checkpoint or CSV


@pytest.mark.parametrize("argv,message", [
    ([], "mmprune: the following arguments are required: command"),
    (["banana"], "mmprune: argument command: invalid choice: 'banana'"),
    (["prune", "--out", "o"], "mmprune prune: the following arguments are required: --model, --calib"),
    (["prune", "--model", "m", "--calib", "c", "--out", "o", "--k", "two"],
     "mmprune prune: argument --k: invalid int value: 'two'"),
    (["prune", "--model", "m", "--calib", "c", "--out", "o", "--banana"], "mmprune: unrecognized arguments: --banana"),
    *[(["analyze", "--model", "m", "--calib", "c", "--out", "o", flag, value],
       f"mmprune: unrecognized arguments: {flag} {value}")  # analyze reads only the calibration flags
      for flag, value in (("--lam", "0.1"), ("--lambda", "0.1"), ("--owl-m", "5"), ("--owl-lambda", "0.08"),
                          ("--group", "layer"))],
], ids=["no-command", "unknown-command", "missing-flags", "bad-int", "unknown-flag", "analyze-lam",
        "analyze-lambda", "analyze-owl-m", "analyze-owl-lambda", "analyze-group"])
def test_argparse_errors_are_json_usage_errors(tmp_path, capsys, no_loads, argv, message):
    assert usage_error(argv, capsys).startswith(message)
    assert no_loads == []


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prune", "--help"])
    assert exc.value.code == 0
    assert "--gamma-reverse" in capsys.readouterr().out


def test_prune_missing_model_is_runtime_error(workspace, tmp_path, capsys):
    code = main(["prune", "--model", str(tmp_path / "nope"), "--calib",
                 str(workspace / "calib.jsonl"), "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FormatError"


def prune_format_error(workspace, tmp_path, capsys, needle):
    code = main(["prune", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--method", "wanda", "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == "FormatError"
    assert needle in err["message"]


def rewrite_first_calib_record(workspace, edit):
    path = workspace / "calib.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    edit(record)
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:1"


def test_prune_span_without_len_is_format_error(workspace, tmp_path, capsys):
    where = rewrite_first_calib_record(workspace, lambda r: r["spans"][0].pop("len"))
    prune_format_error(workspace, tmp_path, capsys, where)


def test_prune_non_list_spans_is_format_error(workspace, tmp_path, capsys):
    where = rewrite_first_calib_record(workspace, lambda r: r.update(spans={"modality": "visual"}))
    prune_format_error(workspace, tmp_path, capsys, where)


@pytest.mark.parametrize("offset", [-8, 2.5, "0"])
def test_prune_bad_row_offset_is_format_error(workspace, tmp_path, capsys, offset):
    where = rewrite_first_calib_record(workspace, lambda r: r.update(row_offset=offset))
    prune_format_error(workspace, tmp_path, capsys, where)


def rewrite_manifest(workspace, edit):
    path = workspace / "model" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("key", ["n_heads", "d_model", "d_ff"])
def test_prune_non_positive_model_dimension_is_format_error(workspace, tmp_path, capsys, key):
    rewrite_manifest(workspace, lambda m: m.update({key: 0}))
    prune_format_error(workspace, tmp_path, capsys, key)


@pytest.mark.parametrize("edit,record", [
    (lambda m: m["layers"][0].pop("offset"), "layers[0] 'offset'"),
    (lambda m: m["layers"][1].update(shape="16x16"), "layers[1] 'shape'"),
    (lambda m: m["norm_scales"][0].update(offset=2.5), "norm_scales[0] 'offset'"),
    (lambda m: m.update(n_blocks="2"), "'n_blocks'"),
    (lambda m: m.update(seed={"not": "a seed"}), "'seed' must be an integer >= 0, got {'not': 'a seed'}"),
    (lambda m: m["norm_scales"][3].update(shape=[4]), "norm_scales[3] 'shape'"),
    (lambda m: m.update(format_version=99), "'format_version'"),
    (lambda m: m.pop("format_version"), "'format_version'"),
    (lambda m: m["layers"].append(dict(m["layers"][2])), "layers[14] repeats (block, kind) = (0, 'v')"),
    (lambda m: m["layers"][0].update(block=2), "layers[0] (block, kind) = (2, 'q') is outside"),
    (lambda m: m.update(n_blocks=1), "layers[7] (block, kind) = (1, 'q') is outside"),
    (lambda m: m["layers"].pop(), "layers has no record for (block, kind) = (1, 'down')"),
    (lambda m: m["norm_scales"][1].update(name="attn"), "norm_scales[1] repeats (block, name) = (0, 'attn')"),
    (lambda m: m.update(n_blocks=10**12), "layers has no record for (block, kind) = (2, 'q')"),
    (lambda m: m["layers"][2].update(blob="../model/weights.bin"),
     "layers[2]: blob '../model/weights.bin' must be a plain file name"),
    (lambda m: m["norm_scales"][1].update(blob=".."), "norm_scales[1]: blob '..' must be a plain file name"),
    (lambda m: m["layers"][3].update(mask_blob="/masks.bin", mask_offset=0),
     "layers[3]: blob '/masks.bin' must be a plain file name"),
    # a product of Python ints: numpy's int64 product wraps to 0 and reads an empty layer
    (lambda m: m["layers"][0].update(shape=[2**40, 2**40]), f"layers[0]: needs {2**80} float32 values"),
], ids=["layer-without-offset", "string-shape", "float-offset", "string-n-blocks", "object-seed", "short-norm-scale",
        "format-version-99", "no-format-version", "duplicate-layer", "block-out-of-range",
        "n-blocks-below-records", "missing-layer", "duplicate-norm-scale", "huge-n-blocks",
        "blob-outside-directory", "norm-scale-blob-parent", "absolute-mask-blob", "huge-shape"])
def test_prune_malformed_manifest_record_is_format_error(workspace, tmp_path, capsys, edit, record):
    path = rewrite_manifest(workspace, edit)
    prune_format_error(workspace, tmp_path, capsys, f"{path}: {record}")


def four_block_plan(payload):
    """The 2-block workspace's plan with blocks 2 and 3 appended, as a 4-block model would give."""
    for entry in list(payload["entries"]):
        block, kind = entry["layer"].split(":")
        payload["entries"].append({**entry, "layer": f"{int(block) + 2}:{kind}"})


def write_plan(workspace, path, edit):
    plan = allocate_uniform(load_checkpoint(workspace / "model").param_counts(), 0.5)
    plan.to_json(path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("command,edit,error,record", [
    ("prune", None, "FormatError", "cannot read sparsity plan"),
    ("analyze", None, "FormatError", "cannot read sparsity plan"),
    ("prune", "not json {", "FormatError", "cannot read sparsity plan"),
    ("prune", lambda p: p.pop("entries"), "FormatError", "non-empty \"entries\" list"),
    ("prune", lambda p: p["entries"][3].update(layer="x:q"), "FormatError", "entries[3] 'layer'"),
    ("analyze", lambda p: p["entries"][3].update(layer="x:q"), "FormatError", "entries[3] 'layer'"),
    ("prune", lambda p: p["entries"][0].update(ratio=0.57), "ConfigError", "plan misses target"),
    ("prune", "[]", "FormatError", "numeric \"target\""),
    ("prune", lambda p: p.pop("target"), "FormatError", "numeric \"target\""),
    ("prune", lambda p: p.update(target="0.5"), "FormatError", "numeric \"target\""),
    ("prune", lambda p: p.pop("lambda"), "FormatError", "\"lambda\""),
    ("prune", lambda p: p.update({"lambda": True}), "FormatError", "\"lambda\""),
    ("prune", lambda p: p["entries"].__setitem__(2, "0:v"), "FormatError", "entries[2] is not a JSON object"),
    ("prune", lambda p: p["entries"][1].update(param_count=0), "FormatError", "entries[1] 'param_count'"),
    ("prune", lambda p: p["entries"][1].update(param_count=True), "FormatError", "entries[1] 'param_count'"),
    ("prune", lambda p: p["entries"][1].update(param_count=2**63), "FormatError", "entries[1] 'param_count'"),
    ("prune", lambda p: p["entries"][4].update(ratio=1e400), "FormatError", "entries[4] 'ratio'"),
    ("prune", lambda p: p["entries"][4].update(ratio="0.5"), "FormatError", "entries[4] 'ratio'"),
    ("prune", lambda p: p["entries"].append({"layer": "extra", "param_count": 1, "ratio": 0.5}),
     "FormatError", "entries[14] 'layer' must be BLOCK:KIND"),
    ("analyze", lambda p: p["entries"].append({"layer": "extra", "param_count": 1, "ratio": 0.5}),
     "FormatError", "entries[14] 'layer' must be BLOCK:KIND"),
    ("prune", lambda p: p["entries"][5].update(layer="0:proj"), "FormatError", "entries[5] 'layer'"),
    # `int` refuses a string of more than 4300 digits with a ValueError
    ("prune", lambda p: p["entries"][5].update(layer="1" * 5000 + ":q"), "FormatError", "entries[5] 'layer'"),
    ("prune", "[" * 100_000, "FormatError", "cannot read sparsity plan: maximum recursion depth"),
    ("prune", lambda p: p["entries"].append(dict(p["entries"][0])), "FormatError",
     "entries[14] repeats layer '0:q'"),
    ("prune", lambda p: [e.update(param_count=1) for e in p["entries"] if e["layer"].endswith(":q")],
     "ConfigError", "plan and model disagree on layer (0, 'q'): plan param_count 1, model 256"),
    ("prune", lambda p: p["entries"].pop(), "ConfigError",
     "plan and model disagree on layer (1, 'down'): plan param_count absent, model 384"),
    ("analyze", lambda p: [e.update(param_count=1) for e in p["entries"] if e["layer"].endswith(":q")],
     "ConfigError", "plan and model disagree on layer (0, 'q'): plan param_count 1, model 256"),
    ("analyze", lambda p: p["entries"].pop(), "ConfigError",
     "plan and model disagree on layer (1, 'down'): plan param_count absent, model 384"),
    ("prune", four_block_plan, "ConfigError",
     "plan and model disagree on layer (2, 'q'): plan param_count 256, model absent"),
    ("analyze", four_block_plan, "ConfigError",
     "plan and model disagree on layer (2, 'q'): plan param_count 256, model absent"),
], ids=["missing-file", "analyze-missing-file", "not-json", "no-entries", "bad-layer",
        "analyze-bad-layer", "ratios-miss-target", "not-an-object", "no-target", "string-target",
        "no-lambda", "bool-lambda", "non-object-entry", "zero-param-count", "bool-param-count",
        "huge-param-count", "infinite-ratio", "string-ratio", "extra-layer", "analyze-extra-layer",
        "unknown-kind", "block-of-5000-digits", "nested-too-deep", "repeated-layer", "q-param-count-1", "missing-layer",
        "analyze-q-param-count-1", "analyze-missing-layer", "four-block-plan", "analyze-four-block-plan"])
def test_bad_plan_is_runtime_error(workspace, tmp_path, capsys, command, edit, error, record):
    path = tmp_path / "plan.json"
    if isinstance(edit, str):
        path.write_text(edit)
    elif edit is not None:
        write_plan(workspace, path, edit)
    args = ["--model", str(workspace / "model"), "--calib", str(workspace / "calib.jsonl"),
            "--plan", str(path), "--out", str(tmp_path / "out")]
    if command == "prune":
        args += ["--method", "wanda"]
    else:
        args += ["--reports", "sparsity"]
    code = main([command] + args)
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == error
    assert record in err["message"]
    if not record.startswith("plan and model disagree"):  # found by prune_model, which sees no file
        assert f"{path}: " in err["message"]


def test_prune_masked_nonzero_weight_is_format_error(workspace, tmp_path, capsys):
    # a mask that drops every weight of layers[3] (16 x 16) over its stored non-zero weights
    (workspace / "model" / "masks.bin").write_bytes(bytes(16 * 16 // 8))
    path = rewrite_manifest(workspace, lambda m: m["layers"][3].update(mask_blob="masks.bin", mask_offset=0))
    prune_format_error(workspace, tmp_path, capsys, f"{path}: layers[3] has non-zero weights")


@pytest.mark.parametrize("flag,target,named", [
    ("--out", "a_file", "a_file"),
    ("--report", "a_file/report.json", "a_file"),
    ("--plan-out", "a_file/plan.json", "a_file"),
    ("--report", "a_dir", "a_dir"),
], ids=["--out", "--report", "--plan-out", "report-is-a-directory"])
def test_unwritable_output_is_runtime_error(workspace, tmp_path, capsys, monkeypatch, flag, target, named):
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_dir").mkdir()
    forwards, real_forward = [], pruner.forward
    monkeypatch.setattr(pruner, "forward",
                        lambda *args, **kwargs: forwards.append(args) or real_forward(*args, **kwargs))
    outputs = {"--out": "out", "--report": "report.json", "--plan-out": "plan.json", flag: target}
    code = main(["prune", "--model", str(workspace / "model"), "--calib", str(workspace / "calib.jsonl"),
                 "--method", "wanda"] + [arg for f, t in outputs.items() for arg in (f, str(tmp_path / t))])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == "MMPruneError"
    assert str(tmp_path / named) in err["message"]
    assert forwards == []  # the path fails before any calibration


@pytest.mark.parametrize("via_rerun", [False, True], ids=["prune", "rerun"])
def test_memory_error_is_a_json_runtime_record(tmp_path, capsys, monkeypatch, via_rerun):
    message = "Unable to allocate 4.00 GiB for an array with shape (1, 4, 16384, 16384) and data type float32"

    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "load_checkpoint", exhausted)
    argv = ["prune", "--model", "m", "--calib", "c", "--method", "wanda", "--out", str(tmp_path / "out")]
    if via_rerun:
        record = {"command": "prune", "config": parsed_config("prune", tmp_path / "out")}
        (tmp_path / "run.json").write_text(json.dumps(record))
        argv = ["rerun", str(tmp_path / "run.json")]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "MMPruneError", "message": f"out of memory: {message}"}


@pytest.mark.parametrize("argv,message", [
    (["prune", "--structural", "das", "--plan-out", "PLAN"], "drop --plan-out"),
    (["prune", "--structural", "shortgpt", "--plan", "PLAN"], "drop --plan"),
    (["prune", "--structural", "das", "--plan", "PLAN", "--plan-out", "PLAN"],
     "drop --plan and --plan-out"),
    (["analyze", "--reports", "diversity,selection", "--plan", "PLAN"],
     "add sparsity to --reports or drop --plan"),
    (["prune", "--structural", "das", "--sequential"], "drop --sequential"),
    (["prune", "--structural", "shortgpt", "--selection", "random"], "drop --selection"),
    (["prune", "--method", "magnitude", "--sequential"], "--method magnitude does not read: drop --sequential"),
    (["prune", "--method", "magnitude", "--selection", "random"], "--method magnitude does not read: drop --selection"),
    (["analyze", "--reports", "diversity", "--selection", "random"],
     "add selection to --reports or drop --selection"),
    (["compare", "--eval", "EVAL", "--methods", "magnitude", "--selection", "random"],
     "--methods magnitude does not read: drop --selection"),
], ids=["structural-plan-out", "structural-plan", "structural-both", "analyze-plan-without-sparsity",
        "structural-sequential", "structural-selection", "magnitude-sequential", "magnitude-selection",
        "analyze-selection-without-selection-report", "compare-magnitude-selection"])
def test_unused_plan_flag_is_usage_error(workspace, tmp_path, capsys, monkeypatch, argv, message):
    import mmprune.cli as cli
    loads = []
    monkeypatch.setattr(cli, "load_checkpoint", lambda *args: loads.append(args))
    plan = str(tmp_path / "missing" / "plan.json")  # never opened, never created
    code = main([arg.replace("PLAN", plan).replace("EVAL", str(workspace / "eval.jsonl")) for arg in argv] + [
        "--model", str(workspace / "model"), "--calib", str(workspace / "calib.jsonl"),
        "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "UsageError"
    assert err["message"].endswith(message)
    assert loads == [] and not (tmp_path / "out").exists() and not (tmp_path / "missing").exists()


def test_prune_settings_have_one_source_of_defaults():
    assert _prune_config({}) == PruneConfig()
    assert _prune_config({"max_count": 1, "amia": None}) == PruneConfig()
    required = ["--model", "m", "--calib", "c", "--out", "o"]
    for argv in (["prune"] + required, ["analyze"] + required, ["compare", "--eval", "e"] + required):
        assert _prune_config(vars(build_parser().parse_args(argv))) == PruneConfig()


@pytest.mark.parametrize("command", ["gen-synth", "prune", "analyze", "compare"])
def test_every_setting_has_one_source_of_defaults(tmp_path, command):
    # a record of only the required settings resolves to what argparse gives the same flags
    parsed = parsed_config(command, tmp_path / "out")
    required = {key: value for key, value in parsed.items() if key in ("model", "calib", "eval", "out")}
    assert cli._check_config(command, required) == parsed


@pytest.mark.parametrize("flags,message", [
    (["--report", "OUT/manifest.json"], "--report OUT/manifest.json would overwrite the manifest.json that prune "
                                        "writes to --out"),
    (["--plan-out", "OUT/run.json"], "--plan-out OUT/run.json would overwrite the run.json that prune writes to --out"),
    (["--report", "OUT/weights.bin"], "would overwrite the weights.bin that prune writes to --out"),
    (["--plan-out", "OUT/masks.bin"], "would overwrite the masks.bin that prune writes to --out"),
    (["--report", "OUT/../out/./manifest.json"], "would overwrite the manifest.json that prune writes to --out"),
    (["--report", "OUT/r.json", "--plan-out", "OUT/../out/r.json"],
     "--plan-out OUT/../out/r.json would overwrite the --report file"),
], ids=["report-manifest", "plan-out-run-record", "report-weights", "plan-out-masks", "report-manifest-by-dots",
        "report-is-plan-out"])
def test_prune_output_file_over_another_output_is_usage_error(tmp_path, capsys, no_loads, flags, message):
    out = tmp_path / "out"
    flags = [flag.replace("OUT", str(out)) for flag in flags]
    assert usage_error(["prune", "--model", "m", "--calib", "c", "--out", str(out)] + flags,
                       capsys).endswith(message.replace("OUT", str(out)))
    assert no_loads == [] and not out.exists()


def test_prune_writes_masked_checkpoint_and_report(workspace, tmp_path):
    out = tmp_path / "pruned"
    report_path = tmp_path / "report.json"
    code = main(["prune", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--method", "tamp", "--sparsity", "0.5",
                 "--seed", "1", "--out", str(out), "--report", str(report_path)])
    assert code == 0
    pruned = load_checkpoint(out)
    assert all(layer.mask is not None for layer in pruned.iter_layers())
    report = json.loads(report_path.read_text())
    assert report["method"] == "tamp"
    assert len(report["layers"]) == 14
    assert report["layers"][0]["selected_by_modality"]


def test_prune_structural_mode(workspace, tmp_path):
    out = tmp_path / "reduced"
    code = main(["prune", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--structural", "shortgpt",
                 "--sparsity", "0.5", "--out", str(out),
                 "--report", str(tmp_path / "sr.json")])
    assert code == 0
    reduced = load_checkpoint(out)
    assert reduced.n_blocks == 1
    report = json.loads((tmp_path / "sr.json").read_text())
    assert report["mode"] == "structural"
    assert len(report["removed_blocks"]) == 1


def test_analyze_emits_diversity_rows(workspace, tmp_path):
    out = tmp_path / "analysis"
    code = main(["analyze", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--out", str(out),
                 "--reports", "diversity,attention,selection"])
    assert code == 0
    with open(out / "diversity.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 14  # 7 kinds x 2 blocks
    assert {"block", "kind", "s", "s_visual", "s_language", "s_visual_language"} <= set(rows[0])
    with open(out / "attention.csv") as f:
        attn_rows = list(csv.DictReader(f))
    assert len(attn_rows) == 2
    total = float(attn_rows[0]["mass_visual"]) + float(attn_rows[0]["mass_language"])
    assert total == pytest.approx(1.0, abs=1e-5)
    with open(out / "selection.csv") as f:
        sel_rows = list(csv.DictReader(f))
    assert len(sel_rows) == 14 * 4  # layers x samples
    assert {"stopped_by", "final_mmd", "sel_visual"} <= set(sel_rows[0])


def test_analyze_runs_the_diversity_pass_once(workspace, tmp_path, monkeypatch):
    from mmprune.diversity import DiversityAccumulator
    passes = []
    real_finalize = DiversityAccumulator.finalize

    def counting_finalize(self):
        passes.append(1)
        return real_finalize(self)

    monkeypatch.setattr(DiversityAccumulator, "finalize", counting_finalize)
    assert main(["analyze", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--out", str(tmp_path / "analysis"),
                 "--reports", "diversity,selection"]) == 0
    assert len(passes) == 1


@pytest.mark.parametrize("argv,passes", [
    (["analyze", "--reports", "diversity,attention"], 1),
    (["analyze", "--reports", "diversity,attention,selection"], 2),  # amia reads the diversity
    (["analyze", "--reports", "diversity,attention,selection", "--selection", "full"], 1),
    (["prune", "--structural", "shortgpt"], 1),
], ids=["default-reports", "amia-selection", "full-selection", "shortgpt"])
def test_each_command_forwards_the_calibration_set_once_per_dependency_level(workspace, tmp_path, monkeypatch,
                                                                             argv, passes):
    # on the default 128-sequence workspace: 128, 256, 128 and 128 sequences
    calls = count_calibration_forwards(monkeypatch)
    assert main(argv + ["--model", str(workspace / "model"), "--calib", str(workspace / "calib.jsonl"),
                        "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == passes * 4  # the workspace's 4 calibration sequences per pass


def test_analyze_captures_span_masses_only_in_its_attention_reports_pass(tmp_path, monkeypatch):
    ws = tmp_path / "ws"  # 20 tokens, so no N equals d_model (16) or d_ff (24)
    assert main(["gen-synth", "--out", str(ws), "--d-model", "16", "--n-heads", "2", "--d-ff", "24",
                 "--n-blocks", "2", "--tokens-per-modality", "10", "--n-calib", "4", "--n-eval", "1"]) == 0
    captures, quadratic, real_forward = [], [], pruner.forward

    def spy(model, chunk, capture=pruner.CaptureFlags()):
        captures.append(capture)
        state, traces = real_forward(model, chunk, capture)
        for trace in traces:
            arrays = [*trace.layer_inputs.values(), *trace.layer_outputs.values(), *trace.span_mass.values(),
                      *trace.hiddens, *trace.final_query.values()]
            quadratic.extend(a.shape for a in arrays if a.shape.count(trace.spans[-1].stop) > 1)
        return state, traces

    monkeypatch.setattr(pruner, "forward", spy)
    assert main(["analyze", "--model", str(ws / "model"), "--calib", str(ws / "calib.jsonl"),
                 "--out", str(tmp_path / "out"), "--reports", "diversity,attention,selection"]) == 0
    # the diversity and attention reports' pass, then amia's, which reads the final query's row
    assert [(c.span_mass, c.final_query) for c in dict.fromkeys(captures)] == [(True, False), (False, True)]
    assert quadratic == []  # no trace array has two axes of length N


def test_degenerate_calibration_error_names_the_layer(tmp_path, capsys):
    ws = tmp_path / "tiny"
    assert main(["gen-synth", "--out", str(ws), "--d-model", "16", "--n-heads", "2",
                 "--d-ff", "24", "--n-blocks", "1", "--n-calib", "2", "--n-eval", "1",
                 "--modalities", "1", "--tokens-per-modality", "1"]) == 0
    capsys.readouterr()
    code = main(["prune", "--model", str(ws / "model"), "--calib", str(ws / "calib.jsonl"),
                 "--method", "das", "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == "DegenerateInputError"
    assert "layer 0:q" in err["message"]


def test_analyze_sparsity_report_from_masked_model(workspace, tmp_path):
    pruned_dir = tmp_path / "pruned"
    main(["prune", "--model", str(workspace / "model"), "--calib",
          str(workspace / "calib.jsonl"), "--method", "wanda", "--sparsity", "0.5",
          "--out", str(pruned_dir)])
    out = tmp_path / "analysis"
    code = main(["analyze", "--model", str(pruned_dir), "--calib",
                 str(workspace / "calib.jsonl"), "--out", str(out), "--reports", "sparsity"])
    assert code == 0
    with open(out / "sparsity_by_type.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 7
    assert float(rows[0]["mean_sparsity"]) == pytest.approx(0.5, abs=1e-9)


def test_compare_matrix_and_byte_identical_reruns(workspace, tmp_path):
    out = tmp_path / "cmp"
    args = ["compare", "--model", str(workspace / "model"), "--calib",
            str(workspace / "calib.jsonl"), "--eval", str(workspace / "eval.jsonl"),
            "--methods", "wanda,tamp", "--sparsities", "0.5", "--out", str(out),
            "--seed", "2"]
    assert main(args) == 0
    first = snapshot(out)
    assert main(args) == 0
    second = snapshot(out)
    assert first == second
    with open(out / "compare.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["method"] for r in rows] == ["wanda", "tamp"]
    assert {"rel_avg", "cos_overall", "cos_visual", "cos_language"} <= set(rows[0])
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "method,sparsity,rel_avg"
    assert len(sweep) == 3


def test_compare_unknown_method_is_usage_error(workspace, tmp_path, capsys):
    code = main(["compare", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--eval", str(workspace / "eval.jsonl"),
                 "--methods", "wanda,banana", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "banana" in json.loads(capsys.readouterr().err)["message"]


def test_compare_bad_sparsities_is_usage_error(workspace, tmp_path, capsys):
    code = main(["compare", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--eval", str(workspace / "eval.jsonl"),
                 "--methods", "wanda", "--sparsities", "1.5", "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("methods,sparsities,message", [
    ("wanda,wanda", "0.5,0.5", "--methods repeats ['wanda']"),
    ("wanda,tamp,wanda", "0.5", "--methods repeats ['wanda']"),
    ("wanda,tamp", "0.5,0.50", "--sparsities repeats [0.5]"),
    ("wanda", "0.4,0.5,0.4", "--sparsities repeats [0.4]"),
], ids=["both", "method", "sparsity-spelled-twice", "sparsity"])
def test_compare_repeated_method_or_sparsity_is_usage_error(tmp_path, capsys, no_loads, methods, sparsities,
                                                            message):
    out = tmp_path / "x"
    assert usage_error(["compare", "--model", "m", "--calib", "c", "--eval", "e", "--methods", methods,
                        "--sparsities", sparsities, "--out", str(out)], capsys).startswith(message)
    assert no_loads == [] and not out.exists()


def test_rerun_reproduces_outputs(workspace, tmp_path):
    out = tmp_path / "pruned"
    assert main(["prune", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--method", "das", "--sparsity", "0.4",
                 "--out", str(out)]) == 0
    original = snapshot(out)
    run_file = tmp_path / "saved_run.json"
    run_file.write_bytes((out / "run.json").read_bytes())
    for p in list(out.rglob("*")):
        if p.is_file():
            p.unlink()
    assert main(["rerun", str(run_file)]) == 0
    assert snapshot(out) == original
    # records written while --threads or --max-pairs existed still replay
    for key, value in (("threads", 2), ("max_pairs", 64)):
        record = json.loads(run_file.read_text())
        record["config"][key] = value
        run_file.write_text(json.dumps(record))
        for p in list(out.rglob("*")):
            if p.is_file():
                p.unlink()
        assert main(["rerun", str(run_file)]) == 0
        replayed = snapshot(out)
        assert set(replayed) == set(original)
        assert all(replayed[name] == original[name] for name in original if name != "run.json")
    # a record without its optional settings replays under the parser's defaults
    record = json.loads((out / "run.json").read_text())
    record["config"] = {key: record["config"][key] for key in ("model", "calib", "out", "method", "sparsity")}
    run_file.write_text(json.dumps(record))
    assert main(["rerun", str(run_file)]) == 0
    assert snapshot(out) == original


def rerun_error(path, capsys):
    code = main(["rerun", str(path)])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == "FormatError"
    assert str(path) in err["message"]


def test_older_analyze_records_with_prune_flags_still_replay(workspace, tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "--model", str(workspace / "model"), "--calib", str(workspace / "calib.jsonl"),
                 "--out", str(out), "--reports", "diversity,selection"]) == 0
    original = snapshot(out)
    assert not {"lam", "owl_m", "owl_lam", "group"} & json.loads(original["run.json"])["config"].keys()
    # analyze declared the allocation flags until it was seen that it never read them
    record = json.loads(original["run.json"])
    record["config"].update(lam=0.2, owl_m=5.0, owl_lam=0.08, group="row")
    run_file = tmp_path / "older_run.json"
    run_file.write_text(json.dumps(record))
    for path in out.iterdir():
        path.unlink()
    assert main(["rerun", str(run_file)]) == 0
    replayed = snapshot(out)
    assert set(replayed) == set(original)
    assert all(replayed[name] == original[name] for name in original if name != "run.json")


def test_rerun_missing_file_is_format_error(tmp_path, capsys):
    rerun_error(tmp_path / "absent_run.json", capsys)


@pytest.mark.parametrize("content", ["not json {", "[" * 100_000], ids=["not-json", "nested-too-deep"])
def test_rerun_non_json_file_is_format_error(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    path.write_text(content)
    rerun_error(path, capsys)


def test_rerun_record_without_config_is_format_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "prune"}))
    rerun_error(path, capsys)


def parsed_config(command: str, out: Path) -> dict:
    """The config that argparse gives `command` with placeholder input paths."""
    args = {"prune": ["prune", "--model", "m", "--calib", "c"],
            "analyze": ["analyze", "--model", "m", "--calib", "c"],
            "compare": ["compare", "--model", "m", "--calib", "c", "--eval", "e"],
            "gen-synth": ["gen-synth"]}[command]
    return {k: v for k, v in vars(build_parser().parse_args(args + ["--out", str(out)])).items() if k != "command"}


RERUN_RECORDS = {command: {"command": command, "config": parsed_config(command, Path("out")),
                           "versions": {"mmprune": "0", "numpy": "0", "python": "0"}}
                 for command in ("prune", "compare", "analyze")}
# values near the valid ones, so that edits reach every check of `_check_config`
RERUN_VALUES = st.sampled_from(["prune", "analyze", "compare", "gen-synth", "rerun", 0, 1, 3, -1, 0.5, 1.5, 2**63,
                                float("nan"), True, False, None, "", "nan", "wanda", "tamp", "magnitude", "owl",
                                "das", "amia", "random", "row", "layer", "shortgpt", "wanda,banana", "0.5,0.6",
                                "diversity,selection,sparsity", "m", [], {}])
rerun_records = st.sampled_from(sorted(RERUN_RECORDS)).flatmap(lambda command: edited_json(
    RERUN_RECORDS[command], [("command",), ("config",), ("versions",)]
    + [("config", key) for key in RERUN_RECORDS[command]["config"]], RERUN_VALUES))


@pytest.fixture(scope="module")
def fuzz_run_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_rerun") / "run.json"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(content=rerun_records)
def test_fuzzed_rerun_records_fail_only_as_json_errors(fuzz_run_file, content):
    fuzz_run_file.write_bytes(content)
    # each command only resolves its config, so a record that passes its checks runs no work
    stubs = {command: _prune_config for command in cli.COMMANDS}
    err = io.StringIO()
    with mock.patch.dict(cli.COMMANDS, stubs), contextlib.redirect_stderr(err):
        code = main(["rerun", str(fuzz_run_file)])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {"error", "message"}
        assert (record["error"] == "UsageError") == (code == 2)


def test_sequential_scratch_directory_is_removed_on_every_exit(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "ws"
    assert main(["gen-synth", "--out", str(ws), "--d-model", "16", "--n-heads", "2", "--d-ff", "24",
                 "--n-blocks", "3", "--tokens-per-modality", "8", "--n-calib", "4", "--n-eval", "1"]) == 0
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    argv = ["prune", "--model", str(ws / "model"), "--calib", str(ws / "calib.jsonl"), "--method", "wanda",
            "--sequential", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert list(scratch.iterdir()) == []

    real_forward = pruner.forward
    blobs = []  # the scratch blobs on disk as the advance through block 1 fails

    def failing_forward(model, seq, capture=CaptureFlags()):
        if capture == CaptureFlags() and model.blocks[0].index == 1:
            blobs.extend(sorted(path.name for path in scratch.rglob("*") if path.is_file()))
            raise NumericError("non-finite values at block1.residual")
        return real_forward(model, seq, capture)
    monkeypatch.setattr(pruner, "forward", failing_forward)
    capsys.readouterr()
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "NumericError",
                                                   "message": "non-finite values at block1.residual"}
    assert blobs == ["after_block0.bin", "after_block1.bin"]  # the first advance's, and the one being written
    assert list(scratch.iterdir()) == []


def test_lambda_flag_alias(workspace, tmp_path):
    out = tmp_path / "o"
    code = main(["prune", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--method", "das", "--sparsity", "0.5",
                 "--lambda", "0.2", "--out", str(out), "--report", str(tmp_path / "r.json")])
    assert code == 0
    assert json.loads((tmp_path / "r.json").read_text())["lambda"] == 0.2


def test_invalid_gamma_is_usage_error(workspace, tmp_path, capsys):
    message = usage_error(["prune", "--model", str(workspace / "model"), "--calib",
                           str(workspace / "calib.jsonl"), "--gamma-reverse", "-1",
                           "--out", str(tmp_path / "o")], capsys)
    assert message == "--gamma-reverse must be a finite number > 0, got -1.0"


def test_plan_round_trip_through_cli(workspace, tmp_path):
    out1 = tmp_path / "p1"
    plan_path = tmp_path / "plan.json"
    assert main(["prune", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--method", "das", "--sparsity", "0.5",
                 "--out", str(out1), "--plan-out", str(plan_path)]) == 0
    assert plan_path.exists()
    # re-prune with the saved plan: identical masks
    out2 = tmp_path / "p2"
    assert main(["prune", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--method", "das", "--sparsity", "0.5",
                 "--out", str(out2), "--plan", str(plan_path)]) == 0
    a = load_checkpoint(out1)
    b = load_checkpoint(out2)
    for la, lb in zip(a.iter_layers(), b.iter_layers()):
        assert la.weight.tobytes() == lb.weight.tobytes()


def test_selection_csv_carries_mmd_trace(workspace, tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--out", str(out),
                 "--reports", "selection"]) == 0
    with open(out / "selection.csv") as f:
        rows = list(csv.DictReader(f))
    trace = rows[0]["mmd_trace"].split("|")
    assert len(trace) == int(rows[0]["n_selected"])
    assert float(trace[-1]) == float(rows[0]["final_mmd"])


def test_structural_das_mode(workspace, tmp_path):
    out = tmp_path / "reduced_das"
    code = main(["prune", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--structural", "das",
                 "--sparsity", "0.5", "--out", str(out),
                 "--report", str(tmp_path / "rd.json")])
    assert code == 0
    assert load_checkpoint(out).n_blocks == 1
    assert json.loads((tmp_path / "rd.json").read_text())["importance"] == "das"


def test_selection_report_with_full_kind(workspace, tmp_path):
    out = tmp_path / "analysis_full"
    code = main(["analyze", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--out", str(out),
                 "--reports", "selection", "--selection", "full"])
    assert code == 0
    with open(out / "selection.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["n_selected"] == rows[0]["n_tokens"]
    assert rows[0]["stopped_by"] == ""


@pytest.fixture()
def no_loads(monkeypatch):
    """Records every model or sequence load, and every synthetic workspace generated."""
    import mmprune.cli as cli
    loads = []
    for name in ("load_checkpoint", "load_sequences", "init_synthetic", "make_noisy_modality_scenario"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: loads.append(name))
    return loads


@pytest.mark.parametrize("argv", [
    ["prune", "--method", "tamp", "--gamma-reverse", "nan"],
    ["prune", "--gamma-forward", "inf"],
    ["prune", "--mmd-coefficient", "nan"],
    ["prune", "--owl-m", "nan"],
    ["prune", "--method", "owl", "--owl-m", "0.5"],
    ["prune", "--method", "das", "--lam", "nan"],
    ["prune", "--method", "das", "--lam=--"],
    ["prune", "--method", "owl", "--owl-lambda", "nan"],
    ["prune", "--owl-lambda", "-inf"],
    ["prune", "--selection", "random", "--seed", "-1"],
    ["prune", "--k", "0"],
    ["analyze", "--random-count", "0"],
    ["compare", "--methods", "wanda,banana"],
    ["compare", "--methods", ","],
    ["compare", "--sparsities", "0.5,nan"],
    ["compare", "--sparsities", "0.5,1.5"],
    ["compare", "--sparsities", ","],
    ["gen-synth", "--seed", "-1"],
    ["gen-synth", "--n-calib", "0"],
    ["gen-synth", "--scenario", "noisy-modality", "--modalities", "3"],
    ["gen-synth", "--scenario", "noisy-modality", "--tokens-per-modality", "512", "--modalities", "3"],
    ["gen-synth", "--n-heads", "3"],
    ["gen-synth", "--scenario", "noisy-modality", "--d-model", "16"],
    ["analyze", "--reports", ","],
    ["prune", "--report", "r\x00p"],
], ids=["gamma-reverse-nan", "gamma-forward-inf", "mmd-coefficient-nan", "owl-m-nan", "owl-m-below-1",
        "lam-nan", "lam-dashes", "owl-lambda-nan", "owl-lambda-negative", "seed-negative", "k-zero",
        "random-count-zero", "unknown-method", "no-methods", "sparsities-nan", "sparsities-above-1", "no-sparsities",
        "gen-synth-seed-negative", "gen-synth-no-calib", "noisy-modalities", "noisy-tokens-and-modalities",
        "heads-not-dividing-d-model", "noisy-d-model-below-channels", "no-reports", "nul-in-report"])
def test_bad_numeric_setting_is_usage_error_before_anything_loads(tmp_path, capsys, no_loads, argv):
    paths = {"prune": ["--model", "m", "--calib", "c"], "analyze": ["--model", "m", "--calib", "c"],
             "compare": ["--model", "m", "--calib", "c", "--eval", "e"], "gen-synth": []}[argv[0]]
    usage_error(argv + paths + ["--out", str(tmp_path / "out")], capsys)
    assert no_loads == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,edit,message", [
    ("prune", {"gamma_reverse": float("nan")}, "--gamma-reverse must be a finite number > 0, got nan"),
    ("prune", {"lam": float("inf")}, "--lam must be a finite number >= 0, got inf"),
    ("prune", {"owl_m": 1}, "--owl-m must be a finite number > 1, got 1"),
    ("prune", {"seed": -1}, "--seed must be an integer >= 0, got -1"),
    ("prune", {"seed": 1.5}, "--seed must be an integer >= 0, got 1.5"),
    ("prune", {"k": True}, "--k must be an integer >= 1, got True"),
    ("prune", {"sparsity": "0.5"}, "--sparsity must be in (0, 1), got '0.5'"),
    ("prune", {"group": "banana"}, "--group must be one of ['layer', 'row'], got 'banana'"),
    ("prune", {"structural": "das", "plan_out": "p.json"}, "drop --plan-out"),
    ("prune", {"structural": "das", "sequential": True}, "drop --sequential"),
    ("prune", {"structural": "shortgpt", "selection": "random"}, "drop --selection"),
    ("prune", {"method": "magnitude", "sequential": True}, "drop --sequential"),
    ("prune", {"method": "magnitude", "selection": "amia"}, "drop --selection"),
    ("analyze", {"reports": "diversity,banana"}, "unknown analyze reports: ['banana']"),
    ("analyze", {"reports": "diversity,attention", "selection": "full"}, "drop --selection"),
    ("compare", {"sparsities": "0.5,1.0"}, "bad --sparsities value: --sparsity must be in (0, 1), got 1.0"),
    ("compare", {"methods": "magnitude", "selection": "random"}, "--methods magnitude does not read: drop --selection"),
    ("compare", {"sparsities": "0.5,0.50"}, "--sparsities repeats [0.5]: a grid cell would be pruned and scored twice"),
    ("gen-synth", {"n_blocks": 0}, "--n-blocks must be an integer >= 1, got 0"),
    ("gen-synth", {"scenario": "noisy-modality", "tokens_per_modality": 512}, "drop --tokens-per-modality"),
    ("gen-synth", {"n_heads": 3}, "--d-model must be a multiple of --n-heads, got 64 and 3"),
    ("gen-synth", {"scenario": "noisy-modality", "d_model": 16},
     "--scenario noisy-modality needs --d-model >= 24 (16 signal and 8 outlier channels), got 16"),
    ("analyze", {"reports": ""}, "no reports given"),
    ("gen-synth", {"out": "a\u0000b"}, "--out must not contain a NUL byte, got 'a\\x00b'"),
], ids=["gamma-nan", "lam-inf", "owl-m-1", "seed-negative", "seed-float", "k-bool", "sparsity-text",
        "group", "structural-plan-out", "structural-sequential", "structural-selection", "magnitude-sequential",
        "magnitude-selection", "analyze-report", "analyze-selection", "compare-sparsity", "compare-magnitude-selection",
        "compare-repeated-sparsity", "gen-synth-blocks", "noisy-tokens-per-modality", "heads-not-dividing-d-model",
        "noisy-d-model-below-channels", "no-reports", "nul-byte"])
def test_rerun_of_a_record_with_a_bad_setting_is_usage_error(tmp_path, capsys, no_loads, command, edit, message):
    check_rerun_is_usage_error(tmp_path, capsys, no_loads, command, lambda config: {**config, **edit}, message)


def without(*keys):
    return lambda config: {key: value for key, value in config.items() if key not in keys}


@pytest.mark.parametrize("command,edit,message", [
    ("prune", lambda config: {}, "the run record has no --model setting ('model')"),
    ("prune", without("calib"), "the run record has no --calib setting ('calib')"),
    ("compare", without("eval"), "the run record has no --eval setting ('eval')"),
    ("gen-synth", without("out"), "the run record has no --out setting ('out')"),
    ("prune", lambda config: {**config, "report": 5}, "--report must be a string or null, got 5"),
    ("prune", lambda config: {**config, "model": ["a"]}, "--model must be a string, got ['a']"),
    ("prune", lambda config: {**config, "plan": 5}, "--plan must be a string or null, got 5"),
    ("analyze", lambda config: {**config, "reports": None}, "--reports must be a string, got None"),
    ("prune", lambda config: {**config, "sequential": "no"}, "--sequential must be true or false, got 'no'"),
    ("prune", lambda config: {**config, "sequential": 1}, "--sequential must be true or false, got 1"),
    ("gen-synth", lambda config: {**config, "model": 5}, "--model must be a string, got 5"),
], ids=["empty", "no-calib", "no-eval", "gen-synth-no-out", "report-number", "model-list", "plan-number",
        "reports-null", "sequential-text", "sequential-number", "other-command-setting"])
def test_rerun_of_a_record_with_a_missing_or_mistyped_setting_is_usage_error(tmp_path, capsys, no_loads,
                                                                           command, edit, message):
    check_rerun_is_usage_error(tmp_path, capsys, no_loads, command, edit, message)


def check_rerun_is_usage_error(tmp_path, capsys, no_loads, command, edit, message):
    """`rerun` of a `command` record whose parsed config `edit` changes exits 2 with a JSON
    UsageError ending in `message`, before anything loads or any directory is made."""
    config = parsed_config(command, tmp_path / "out")
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({"command": command, "config": edit(config)}))
    code = main(["rerun", str(run_file)])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "UsageError"
    assert err["message"].endswith(message)
    assert no_loads == [] and not (tmp_path / "out").exists()


FAULTS_OF_REPEATED_TEMPORARIES = """
import resource, sys
import numpy as np
from mmprune.cli import main
main(["gen-synth", "--out", sys.argv[1], "--d-model", "8", "--n-heads", "1", "--d-ff", "8", "--n-blocks", "1",
      "--n-calib", "1", "--n-eval", "1", "--modalities", "1", "--tokens-per-modality", "2"])
count, size = int(sys.argv[2]), int(sys.argv[3])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    temporaries = [np.ones(size // 8) for _ in range(count)]
    del temporaries
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
@pytest.mark.parametrize("count, size", [(4, 2**20), (1, 12 * 2**20)],
                         ids=["4x1MB-as-a-noisy-chunk", "12MB-past-a-fixed-8MB-threshold"])
def test_after_main_freed_temporaries_stay_in_the_heap_for_reuse(tmp_path, count, size):
    # In a fresh process. The first round faults its pages in, count * size / 4 KB of
    # them; had each round's frees gone back to the system, 20 rounds would fault 20 times that.
    src = str(Path(main.__code__.co_filename).parents[1])
    out = subprocess.run([sys.executable, "-c", FAULTS_OF_REPEATED_TEMPORARIES, str(tmp_path / "ws"),
                          str(count), str(size)],
                         capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout.splitlines()[-1]) < 3 * count * size // 4096
