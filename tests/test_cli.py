"""CLI behaviour: artifacts, exit codes, reproducibility."""

import csv
import json

import pytest

from mmprune import pruner
from mmprune.allocation import allocate_uniform
from mmprune.checkpoint import load_checkpoint
from mmprune.cli import _prune_config, build_parser, main
from mmprune.pruner import PruneConfig


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
def test_noisy_scenario_below_its_channel_count_is_config_error(tmp_path, capsys, d_model):
    code = main(["gen-synth", "--scenario", "noisy-modality", "--out", str(tmp_path / "ws"),
                 "--d-model", str(d_model), "--n-heads", "1", "--n-calib", "1", "--n-eval", "1"])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == "ConfigError"
    assert f"needs d_model >= 24 (16 signal and 8 outlier channels), got {d_model}" in err["message"]
    assert not (tmp_path / "ws" / "model").exists()


def test_noisy_scenario_at_its_channel_count(tmp_path):
    assert main(["gen-synth", "--scenario", "noisy-modality", "--out", str(tmp_path / "ws"),
                 "--d-model", "24", "--n-heads", "4", "--d-ff", "8", "--n-blocks", "1",
                 "--n-calib", "1", "--n-eval", "1"]) == 0
    assert load_checkpoint(tmp_path / "ws" / "model").d_model == 24


def test_prune_usage_error_on_bad_sparsity(workspace, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["prune", "--model", str(workspace / "model"), "--calib",
              str(workspace / "calib.jsonl"), "--sparsity", "1.5",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


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
    (lambda m: m["norm_scales"][3].update(shape=[4]), "norm_scales[3] 'shape'"),
    (lambda m: m.update(format_version=99), "'format_version'"),
    (lambda m: m.pop("format_version"), "'format_version'"),
    (lambda m: m["layers"].append(dict(m["layers"][2])), "layers[14] repeats (block, kind) = (0, 'v')"),
    (lambda m: m["layers"][0].update(block=2), "layers[0] (block, kind) = (2, 'q') is outside"),
    (lambda m: m.update(n_blocks=1), "layers[7] (block, kind) = (1, 'q') is outside"),
    (lambda m: m["layers"].pop(), "layers has no record for (block, kind) = (1, 'down')"),
    (lambda m: m["norm_scales"][1].update(name="attn"), "norm_scales[1] repeats (block, name) = (0, 'attn')"),
    (lambda m: m.update(n_blocks=10**12), "layers has no record for (block, kind) = (2, 'q')"),
], ids=["layer-without-offset", "string-shape", "float-offset", "string-n-blocks", "short-norm-scale",
        "format-version-99", "no-format-version", "duplicate-layer", "block-out-of-range",
        "n-blocks-below-records", "missing-layer", "duplicate-norm-scale", "huge-n-blocks"])
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
        "unknown-kind", "repeated-layer", "q-param-count-1", "missing-layer",
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


@pytest.mark.parametrize("argv,message", [
    (["prune", "--structural", "das", "--plan-out", "PLAN"], "drop --plan-out"),
    (["prune", "--structural", "shortgpt", "--plan", "PLAN"], "drop --plan"),
    (["prune", "--structural", "das", "--plan", "PLAN", "--plan-out", "PLAN"],
     "drop --plan and --plan-out"),
    (["analyze", "--reports", "diversity,selection", "--plan", "PLAN"],
     "add sparsity to --reports or drop --plan"),
], ids=["structural-plan-out", "structural-plan", "structural-both", "analyze-plan-without-sparsity"])
def test_unused_plan_flag_is_usage_error(workspace, tmp_path, capsys, monkeypatch, argv, message):
    import mmprune.cli as cli
    loads = []
    monkeypatch.setattr(cli, "load_checkpoint", lambda *args: loads.append(args))
    plan = str(tmp_path / "missing" / "plan.json")  # never opened, never created
    code = main([arg.replace("PLAN", plan) for arg in argv] + [
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


def rerun_error(path, capsys):
    code = main(["rerun", str(path)])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == "FormatError"
    assert str(path) in err["message"]


def test_rerun_missing_file_is_format_error(tmp_path, capsys):
    rerun_error(tmp_path / "absent_run.json", capsys)


def test_rerun_non_json_file_is_format_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("not json {")
    rerun_error(path, capsys)


def test_rerun_record_without_config_is_format_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "prune"}))
    rerun_error(path, capsys)


def test_lambda_flag_alias(workspace, tmp_path):
    out = tmp_path / "o"
    code = main(["prune", "--model", str(workspace / "model"), "--calib",
                 str(workspace / "calib.jsonl"), "--method", "das", "--sparsity", "0.5",
                 "--lambda", "0.2", "--out", str(out), "--report", str(tmp_path / "r.json")])
    assert code == 0
    assert json.loads((tmp_path / "r.json").read_text())["lambda"] == 0.2


def test_invalid_gamma_is_usage_error(workspace, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["prune", "--model", str(workspace / "model"), "--calib",
              str(workspace / "calib.jsonl"), "--gamma-reverse", "-1",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


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
