"""Command line surface: gen-synth, prune, analyze, compare, rerun.

Every run writes a `run.json` with the fully resolved configuration and
tool versions into its output directory; `rerun` replays one. Outputs are
deterministic: identical configurations produce byte-identical files.
Usage errors exit with code 2, runtime failures with 1 (plus a JSON error
record on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import SparsityPlan
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (default_modality_specs, generate_sequences, load_sequences,
                   make_noisy_modality_scenario, write_sequences)
from .errors import FormatError, MMPruneError, UsageError
from .evaluation import attention_by_modality, run_comparison, sparsity_report
from .model import CaptureFlags, init_synthetic
from .pruner import (PRUNE_METHODS, Calibration, PruneConfig, block_importances_das,
                     block_importances_shortgpt, block_prune, blocks_to_remove, prune_model)
from .selection import SELECTION_KINDS, AmiaParams

GROUP_FLAGS = {"row": "per_output_row", "layer": "per_layer"}
DEFAULTS = PruneConfig()


def _sparsity_arg(text: str) -> float:
    value = float(text)
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"sparsity must be in (0, 1), got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_run_record(out_dir: Path, command: str, config: dict) -> None:
    record = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "versions": {
            "mmprune": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    _write_json(out_dir / "run.json", record)


def _prune_config(config: dict) -> PruneConfig:
    """Resolve a run config's flagged settings; other keys, as in older run records, are ignored."""
    def present(cls) -> dict:
        return {f.name: config[f.name] for f in fields(cls) if f.name in config}
    values = present(PruneConfig)
    if "group" in values:
        values["group"] = GROUP_FLAGS[values["group"]]
    return PruneConfig(**{**values, "amia": AmiaParams(**present(AmiaParams))})


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synth(config: dict) -> None:
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = config["seed"]
    if config["scenario"] == "noisy-modality":
        scenario = make_noisy_modality_scenario(
            seed,
            d_model=config["d_model"], n_heads=config["n_heads"],
            d_ff=config["d_ff"], n_blocks=config["n_blocks"],
            n_calib=config["n_calib"], n_eval=config["n_eval"],
        )
        model, calib, eval_seqs = scenario.model, scenario.calib, scenario.eval
    else:
        model = init_synthetic(config["d_model"], config["n_heads"], config["d_ff"],
                               config["n_blocks"], seed)
        specs = default_modality_specs(config["modalities"], config["tokens_per_modality"])
        calib = generate_sequences(config["n_calib"], config["d_model"], specs, seed, domain=0)
        eval_seqs = generate_sequences(config["n_eval"], config["d_model"], specs, seed, domain=1)
    save_checkpoint(model, out_dir / "model")
    write_sequences(calib, out_dir, "calib")
    write_sequences(eval_seqs, out_dir, "eval")
    _write_run_record(out_dir, "gen-synth", config)
    print(f"wrote model + {len(calib)} calib / {len(eval_seqs)} eval sequences to {out_dir}")


def cmd_prune(config: dict) -> None:
    out_dir = Path(config["out"])
    model = load_checkpoint(config["model"])
    calib = load_sequences(config["calib"])
    prune_cfg = _prune_config(config)

    if config.get("structural"):
        ratio = config["sparsity"]
        calibration = Calibration(model, calib, prune_cfg.calibration_params())
        if config["structural"] == "shortgpt":
            importances = block_importances_shortgpt(calibration)
        else:
            importances = block_importances_das(calibration.diversity)
        removed = blocks_to_remove(importances, ratio)
        reduced = block_prune(model, importances, ratio)
        save_checkpoint(reduced, out_dir)
        report = {
            "mode": "structural",
            "importance": config["structural"],
            "ratio": ratio,
            "block_importances": {str(b): importances[b] for b in sorted(importances)},
            "removed_blocks": removed,
            "surviving_blocks": reduced.n_blocks,
        }
    else:
        plan = SparsityPlan.from_json(config["plan"]) if config.get("plan") else None
        pruned, prune_report = prune_model(model, calib, prune_cfg, plan=plan)
        save_checkpoint(pruned, out_dir)
        if config.get("plan_out"):
            prune_report.plan.to_json(Path(config["plan_out"]))
        report = prune_report.to_dict()

    if config.get("report"):
        _write_json(Path(config["report"]), report)
    _write_run_record(out_dir, "prune", config)
    print(f"pruned checkpoint written to {out_dir}")


def cmd_analyze(config: dict) -> None:
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(config["model"])
    calib = load_sequences(config["calib"])
    reports = [name.strip() for name in config["reports"].split(",") if name.strip()]
    known = {"diversity", "attention", "selection", "sparsity"}
    unknown = set(reports) - known
    if unknown:
        raise UsageError(f"unknown analyze reports: {sorted(unknown)}")
    calibration = Calibration(model, calib, _prune_config(config).calibration_params())

    if "diversity" in reports:
        stats = calibration.diversity
        intra_names = sorted({name for st in stats.values() for name in st.intra})
        inter_pairs = sorted({pair for st in stats.values() for pair in st.inter})
        header = (["block", "kind"] + [f"s_{n}" for n in intra_names]
                  + [f"s_{a}_{b}" for a, b in inter_pairs] + ["s", "s_all_token"])
        rows = []
        for (block, kind) in sorted(stats):
            st = stats[(block, kind)]
            rows.append([block, kind]
                        + [st.intra.get(n, float("nan")) for n in intra_names]
                        + [st.inter.get(p, float("nan")) for p in inter_pairs]
                        + [st.importance, st.all_token])
        _write_csv(out_dir / "diversity.csv", header, rows)

    if "attention" in reports:
        masses = attention_by_modality(calibration.traces(CaptureFlags(attention=True)))
        names = sorted({name for entry in masses.values() for name in entry})
        rows = [[block] + [masses[block].get(name, 0.0) for name in names]
                for block in sorted(masses)]
        _write_csv(out_dir / "attention.csv", ["block"] + [f"mass_{n}" for n in names], rows)

    if "selection" in reports:
        records = calibration.selection_records(config.get("selection") or "amia")
        names = sorted({name for r in records for name in r["by_modality"]})
        header = (["sample", "block", "kind", "n_tokens", "n_selected"]
                  + [f"sel_{n}" for n in names]
                  + ["stopped_by", "threshold", "final_mmd", "mmd_trace"])
        rows = []
        for r in records:
            trace = r.get("mmd_trace", [])
            rows.append([r["sample"], r["block"], r["kind"], r["n_tokens"], r["n_selected"]]
                        + [r["by_modality"].get(n, 0) for n in names]
                        + [r.get("stopped_by", ""),
                           r.get("threshold", float("nan")),
                           trace[-1] if trace else float("nan"),
                           "|".join(repr(v) for v in trace)])
        _write_csv(out_dir / "selection.csv", header, rows)

    if "sparsity" in reports:
        source = SparsityPlan.from_json(config["plan"]) if config.get("plan") else model
        report = sparsity_report(source)
        _write_csv(out_dir / "sparsity_by_type.csv", ["kind", "mean_sparsity"],
                   [[kind, value] for kind, value in report["by_kind"].items()])
        _write_csv(out_dir / "sparsity_by_block.csv", ["block", "mean_sparsity"],
                   [[block, value] for block, value in report["by_block"].items()])

    _write_run_record(out_dir, "analyze", config)
    print(f"analysis reports written to {out_dir}")


def cmd_compare(config: dict) -> None:
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(config["model"])
    calib = load_sequences(config["calib"])
    eval_seqs = load_sequences(config["eval"])
    methods = [m.strip() for m in config["methods"].split(",") if m.strip()]
    unknown = [m for m in methods if m not in PRUNE_METHODS]
    if unknown:
        raise UsageError(f"unknown methods: {unknown}")
    try:
        sparsities = [_sparsity_arg(s) for s in config["sparsities"].split(",") if s.strip()]
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise UsageError(f"bad --sparsities value: {err}") from err
    if not sparsities:
        raise UsageError("no sparsity levels given")

    rows = run_comparison(model, calib, eval_seqs, methods, sparsities, _prune_config(config))
    columns = ["method", "sparsity", "global_achieved"]
    metric_columns = sorted({k for row in rows for k in row} - set(columns) - {"rel_avg"})
    columns += metric_columns + ["rel_avg"]
    _write_csv(out_dir / "compare.csv", columns,
               [[row.get(c, float("nan")) for c in columns] for row in rows])
    _write_csv(out_dir / "sweep.csv", ["method", "sparsity", "rel_avg"],
               [[row["method"], row["sparsity"], row["rel_avg"]] for row in rows])
    _write_json(out_dir / "compare.json", {"rows": rows})
    _write_run_record(out_dir, "compare", config)
    print(f"comparison matrix written to {out_dir}")


COMMANDS = {
    "gen-synth": cmd_gen_synth,
    "prune": cmd_prune,
    "analyze": cmd_analyze,
    "compare": cmd_compare,
}


def cmd_rerun(config: dict) -> None:
    path = config["run_file"]
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, ValueError) as err:  # missing, unreadable, or not JSON
        raise FormatError(f"{path}: cannot read run record: {err}") from err
    if not isinstance(record, dict) or not isinstance(record.get("config"), dict):
        raise FormatError(f"{path}: run record has no \"config\" object")
    command = record.get("command")
    if command not in COMMANDS:
        raise MMPruneError(f"{path}: run record has unknown command {command!r}")
    COMMANDS[command](record["config"])


def _add_common_prune_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lam", "--lambda", type=float, default=DEFAULTS.lam,
                        help="sparsity deviation half-width")
    parser.add_argument("--owl-m", type=_positive_float, default=DEFAULTS.owl_m)
    parser.add_argument("--owl-lambda", dest="owl_lam", type=float, default=DEFAULTS.owl_lam)
    parser.add_argument("--group", choices=sorted(GROUP_FLAGS),
                        default={v: k for k, v in GROUP_FLAGS.items()}[DEFAULTS.group])
    parser.add_argument("--selection", choices=SELECTION_KINDS, default=DEFAULTS.selection)
    parser.add_argument("--k", type=_positive_int, default=DEFAULTS.amia.k, help="nearest neighbors")
    parser.add_argument("--gamma-forward", type=_positive_float, default=DEFAULTS.amia.gamma_forward)
    parser.add_argument("--gamma-reverse", type=_positive_float, default=DEFAULTS.amia.gamma_reverse)
    parser.add_argument("--mmd-coefficient", type=_positive_float, default=DEFAULTS.amia.mmd_coefficient)
    parser.add_argument("--random-count", type=_positive_int, default=DEFAULTS.random_count)
    parser.add_argument("--seed", type=int, default=DEFAULTS.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmprune",
                                     description="Token-adaptive pruning toolkit for toy multimodal transformers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic model plus calibration/eval data")
    p.add_argument("--out", required=True)
    p.add_argument("--scenario", choices=["plain", "noisy-modality"], default="plain")
    p.add_argument("--d-model", dest="d_model", type=_positive_int, default=64)
    p.add_argument("--n-heads", dest="n_heads", type=_positive_int, default=4)
    p.add_argument("--d-ff", dest="d_ff", type=_positive_int, default=128)
    p.add_argument("--n-blocks", dest="n_blocks", type=_positive_int, default=4)
    p.add_argument("--modalities", type=_positive_int, default=2)
    p.add_argument("--tokens-per-modality", dest="tokens_per_modality", type=_positive_int, default=24)
    p.add_argument("--n-calib", dest="n_calib", type=_positive_int, default=128)
    p.add_argument("--n-eval", dest="n_eval", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("prune", help="prune a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--method", choices=PRUNE_METHODS, default=DEFAULTS.method)
    p.add_argument("--sparsity", type=_sparsity_arg, default=DEFAULTS.sparsity)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="write a JSON prune report here")
    p.add_argument("--sequential", action="store_true",
                   help="recompute activations on the already-masked prefix, block by block")
    p.add_argument("--structural", choices=["das", "shortgpt"], default=None,
                   help="remove whole blocks by importance instead of masking weights")
    p.add_argument("--plan", default=None, help="use a precomputed sparsity plan JSON")
    p.add_argument("--plan-out", dest="plan_out", default=None,
                   help="write the resolved sparsity plan JSON here")
    _add_common_prune_flags(p)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("analyze", help="emit diversity/attention/selection/sparsity reports")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reports", default="diversity,attention",
                   help="comma list: diversity,attention,selection,sparsity")
    p.add_argument("--plan", default=None, help="sparsity plan JSON for the sparsity report")
    _add_common_prune_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="run a method x sparsity grid and emit the comparison matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--methods", default="magnitude,wanda,owl,das,amia,tamp")
    p.add_argument("--sparsities", default="0.5")
    p.add_argument("--out", required=True)
    _add_common_prune_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("rerun", help="replay a saved run.json")
    p.add_argument("run_file")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    try:
        args.func(config)
    except (MMPruneError, OSError) as err:
        if isinstance(err, OSError):  # e.g. an output path that is an existing file; names the path
            err = MMPruneError(str(err))
        json.dump({"error": type(err).__name__, "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(err, UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
