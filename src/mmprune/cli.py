"""Command line surface: gen-synth, prune, analyze, compare, rerun.

Every run writes a `run.json` with the fully resolved configuration and
tool versions into its output directory; `rerun` replays one. Outputs are
deterministic: identical configurations produce byte-identical files.
Usage errors, argparse's own among them, exit with code 2 and runtime
failures with 1, each with a JSON error record on stderr; `--help` exits 0.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import errno
import functools
import json
import math
import os
import platform
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import SparsityPlan
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (default_modality_specs, draw_sequences, load_sequences,
                   make_noisy_modality_scenario, write_sequences)
from .errors import FormatError, MMPruneError, UsageError
from .evaluation import run_comparison, sparsity_report
from .model import init_synthetic
from .pruner import (METHOD_SPECS, PRUNE_METHODS, Calibration, PruneConfig, block_importances_das,
                     block_importances_shortgpt, block_prune, blocks_to_remove, prune_model)
from .selection import SELECTION_KINDS, AmiaParams

GROUP_FLAGS = {"row": "per_output_row", "layer": "per_layer"}
DEFAULTS = PruneConfig()
ANALYZE_REPORTS = ("diversity", "attention", "selection", "sparsity")
# the settings with a fixed set of values; None stands for an unset optional flag
CHOICES = {
    "scenario": ("plain", "noisy-modality"),
    "method": PRUNE_METHODS,
    "structural": (None, "das", "shortgpt"),
    "group": tuple(sorted(GROUP_FLAGS)),
    "selection": (None, *SELECTION_KINDS),
}


def _finite_positive(value) -> bool:
    return 0.0 < value < math.inf


def _count(value) -> bool:
    return value >= 1


# Every numeric setting a command reads: (type, test, what the test asks). argparse
# parses each flag with the type, and `_check_config` applies the tests to every
# config, a `rerun` record's included, before anything loads.
NUMERIC_SETTINGS = {
    "sparsity": (float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "lam": (float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0"),
    "owl_lam": (float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0"),
    "owl_m": (float, lambda v: 1.0 < v < math.inf, "a finite number > 1"),
    "gamma_forward": (float, _finite_positive, "a finite number > 0"),
    "gamma_reverse": (float, _finite_positive, "a finite number > 0"),
    "mmd_coefficient": (float, _finite_positive, "a finite number > 0"),
    "k": (int, _count, "an integer >= 1"),
    "random_count": (int, _count, "an integer >= 1"),
    "seed": (int, lambda v: v >= 0, "an integer >= 0"),
    **{key: (int, _count, "an integer >= 1") for key in (
        "d_model", "n_heads", "d_ff", "n_blocks", "modalities", "tokens_per_modality", "n_calib", "n_eval")},
}
FLAG_NAMES = {"owl_lam": "--owl-lambda"}  # otherwise "--" and the key with dashes


def _flag(key: str) -> str:
    return FLAG_NAMES.get(key, "--" + key.replace("_", "-"))


def _numeric_setting(key: str, value):
    """`value` of setting `key` if it passes NUMERIC_SETTINGS' test; else a UsageError."""
    kind, test, rule = NUMERIC_SETTINGS[key]
    number = isinstance(value, (int, float) if kind is float else int) and not isinstance(value, bool)
    if not (number and test(value)):
        raise UsageError(f"{_flag(key)} must be {rule}, got {value!r}")
    return value


def _names(config: dict, key: str) -> list[str]:
    return [name.strip() for name in str(config[key]).split(",") if name.strip()]


def _sparsities(config: dict) -> list[float]:
    try:
        sparsities = [_numeric_setting("sparsity", float(text)) for text in _names(config, "sparsities")]
    except (ValueError, UsageError) as err:
        raise UsageError(f"bad --sparsities value: {err}") from err
    if not sparsities:
        raise UsageError("no sparsity levels given")
    return sparsities


@functools.cache  # built once per process: a parser is cyclic garbage that costs about 3 ms to build
def _settings(command: str) -> tuple[argparse.Action, ...]:
    """The settings of `command`, as `build_parser` declares them."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(action for action in commands.choices[command]._actions if action.dest != "help")


def _check_config(command: str, config: dict) -> dict:
    """`command`'s config, every usage check passed, before anything loads, whether it
    comes from argparse or from a `rerun` record. A record's missing optional setting
    takes the parser's default; other keys, as in older records, are kept and ignored."""
    for action in _settings(command):
        key = action.dest
        if key not in config:
            if action.required:
                raise UsageError(f"the run record has no {_flag(key)} setting ({key!r})")
            config = {**config, key: action.default}
        value = config[key]
        if isinstance(action, argparse._StoreTrueAction):
            if not isinstance(value, bool):
                raise UsageError(f"{_flag(key)} must be true or false, got {value!r}")
        elif action.type is None and action.choices is None:  # a path or a comma list
            optional = action.default is None and not action.required
            if not (isinstance(value, str) or (optional and value is None)):
                raise UsageError(f"{_flag(key)} must be a string{' or null' if optional else ''}, got {value!r}")
    for key, value in config.items():
        if key in NUMERIC_SETTINGS:
            _numeric_setting(key, value)
    for key, allowed in CHOICES.items():
        if key in config and config[key] not in allowed:
            raise UsageError(f"{_flag(key)} must be one of {[c for c in allowed if c is not None]}, "
                             f"got {config[key]!r}")
    if command == "prune" and config.get("structural"):
        unused = [_flag(key) for key in ("plan", "plan_out", "sequential", "selection") if config.get(key)]
        if unused:
            raise UsageError("--structural removes whole blocks by importance and reads no sparsity plan, "
                             f"token selection or masked prefix: drop {' and '.join(unused)}")
    if command == "compare":
        methods = _names(config, "methods")
        unknown = [m for m in methods if m not in PRUNE_METHODS]
        if unknown or not methods:
            raise UsageError(f"unknown methods: {unknown}" if unknown else "no methods given")
        for flag, values in (("--methods", methods), ("--sparsities", _sparsities(config))):
            repeated = sorted({value for value in values if values.count(value) > 1})
            if repeated:
                raise UsageError(f"{flag} repeats {repeated}: a grid cell would be pruned and scored twice")
    if command in ("prune", "compare"):
        key = "method" if command == "prune" else "methods"
        if all(METHOD_SPECS[m].importance != "wanda" for m in _names(config, key)):
            unused = [_flag(flag) for flag in ("sequential", "selection") if config.get(flag)]
            if unused:
                raise UsageError("--sequential and --selection serve the activation norms, which "
                                 f"{_flag(key)} {config[key]} does not read: drop {' and '.join(unused)}")
    if command == "gen-synth" and config["scenario"] == "noisy-modality":
        unused = [_flag(action.dest) for action in _settings(command)
                  if action.dest in ("modalities", "tokens_per_modality") and config[action.dest] != action.default]
        if unused:
            raise UsageError(f"--scenario noisy-modality draws fixed 160 + 28-token spans: drop {' and '.join(unused)}")
    if command == "analyze":
        reports = _names(config, "reports")
        unknown = set(reports) - set(ANALYZE_REPORTS)
        if unknown:
            raise UsageError(f"unknown analyze reports: {sorted(unknown)}")
        if config.get("plan") and "sparsity" not in reports:
            raise UsageError("--plan is read only by the sparsity report: "
                             "add sparsity to --reports or drop --plan")
        if config.get("selection") and "selection" not in reports:
            raise UsageError("--selection is read only by the selection report: "
                             "add selection to --reports or drop --selection")
    return config


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


def _prepare_output_file(path: Path) -> Path:
    """Create the directory an output file goes in, so that a path that cannot be
    written fails, with an OSError naming it, before any work."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return path


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
        model, calib, eval_seqs = scenario.model, scenario.draw_calib(), scenario.draw_eval()
    else:
        model = init_synthetic(config["d_model"], config["n_heads"], config["d_ff"],
                               config["n_blocks"], seed)
        specs = default_modality_specs(config["modalities"], config["tokens_per_modality"])
        calib = draw_sequences(config["n_calib"], config["d_model"], specs, seed, domain=0)
        eval_seqs = draw_sequences(config["n_eval"], config["d_model"], specs, seed, domain=1)
    save_checkpoint(model, out_dir / "model")
    write_sequences(calib, out_dir, "calib")  # each sequence is written as it is drawn
    write_sequences(eval_seqs, out_dir, "eval")
    _write_run_record(out_dir, "gen-synth", config)
    print(f"wrote model + {config['n_calib']} calib / {config['n_eval']} eval sequences to {out_dir}")


def cmd_prune(config: dict) -> None:
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)  # every output path first: a bad one fails before any work
    report_path = _prepare_output_file(Path(config["report"])) if config.get("report") else None
    plan_out = _prepare_output_file(Path(config["plan_out"])) if config.get("plan_out") else None
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
        if plan_out:
            prune_report.plan.to_json(plan_out)
        report = prune_report.to_dict()

    if report_path:
        _write_json(report_path, report)
    _write_run_record(out_dir, "prune", config)
    print(f"pruned checkpoint written to {out_dir}")


def cmd_analyze(config: dict) -> None:
    reports = _names(config, "reports")
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(config["model"])
    calib = load_sequences(config["calib"])
    plan = None
    if config.get("plan"):
        plan = SparsityPlan.from_json(config["plan"])
        plan.check_layers(model.param_counts())
    calibration = Calibration(model, calib, _prune_config(config).calibration_params())
    selection = config.get("selection") or "amia"
    results = {"diversity": "diversity", "attention": "attention_mass", "selection": ("records", selection)}
    calibration.compute(*(results[report] for report in reports if report in results))  # one pass per level

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
        masses = calibration.result("attention_mass")
        names = sorted({name for entry in masses.values() for name in entry})
        rows = [[block] + [masses[block].get(name, 0.0) for name in names]
                for block in sorted(masses)]
        _write_csv(out_dir / "attention.csv", ["block"] + [f"mass_{n}" for n in names], rows)

    if "selection" in reports:
        records = calibration.result(("records", selection))
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
        report = sparsity_report(plan if plan is not None else model)
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

    rows = run_comparison(model, calib, eval_seqs, _names(config, "methods"), _sparsities(config),
                          _prune_config(config))
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


def _run(command: str, config: dict) -> None:
    """Runs `command` on `config` once its usage checks pass: the way in for the command
    line and for `rerun` alike."""
    COMMANDS[command](_check_config(command, config))


def cmd_rerun(config: dict) -> None:
    path = config["run_file"]
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, ValueError, RecursionError) as err:  # missing, unreadable, not JSON, or nested too deep
        raise FormatError(f"{path}: cannot read run record: {err}") from err
    if not isinstance(record, dict) or not isinstance(record.get("config"), dict):
        raise FormatError(f"{path}: run record has no \"config\" object")
    command = record.get("command")
    if not isinstance(command, str) or command not in COMMANDS:  # a list or object is unhashable
        raise MMPruneError(f"{path}: run record has unknown command {command!r}")
    _run(command, record["config"])


def _add_calibration_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--selection", choices=CHOICES["selection"][1:], default=DEFAULTS.selection)
    parser.add_argument("--k", type=int, default=DEFAULTS.amia.k, help="nearest neighbors")
    parser.add_argument("--gamma-forward", type=float, default=DEFAULTS.amia.gamma_forward)
    parser.add_argument("--gamma-reverse", type=float, default=DEFAULTS.amia.gamma_reverse)
    parser.add_argument("--mmd-coefficient", type=float, default=DEFAULTS.amia.mmd_coefficient)
    parser.add_argument("--random-count", type=int, default=DEFAULTS.random_count)
    parser.add_argument("--seed", type=int, default=DEFAULTS.seed)


def _add_prune_flags(parser: argparse.ArgumentParser) -> None:
    """The calibration flags, and those of the sparsity allocation and the masks."""
    parser.add_argument("--lam", "--lambda", type=float, default=DEFAULTS.lam, help="sparsity deviation half-width")
    parser.add_argument("--owl-m", type=float, default=DEFAULTS.owl_m)
    parser.add_argument("--owl-lambda", dest="owl_lam", type=float, default=DEFAULTS.owl_lam)
    parser.add_argument("--group", choices=CHOICES["group"],
                        default={v: k for k, v in GROUP_FLAGS.items()}[DEFAULTS.group])
    _add_calibration_flags(parser)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors, so that `main` reports them as JSON."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmprune", description="Token-adaptive pruning toolkit for toy multimodal transformers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic model plus calibration/eval data")
    p.add_argument("--out", required=True)
    p.add_argument("--scenario", choices=CHOICES["scenario"], default="plain")
    p.add_argument("--d-model", dest="d_model", type=int, default=64)
    p.add_argument("--n-heads", dest="n_heads", type=int, default=4)
    p.add_argument("--d-ff", dest="d_ff", type=int, default=128)
    p.add_argument("--n-blocks", dest="n_blocks", type=int, default=4)
    p.add_argument("--modalities", type=int, default=2)
    p.add_argument("--tokens-per-modality", dest="tokens_per_modality", type=int, default=24)
    p.add_argument("--n-calib", dest="n_calib", type=int, default=128)
    p.add_argument("--n-eval", dest="n_eval", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("prune", help="prune a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--method", choices=CHOICES["method"], default=DEFAULTS.method)
    p.add_argument("--sparsity", type=float, default=DEFAULTS.sparsity)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="write a JSON prune report here")
    p.add_argument("--sequential", action="store_true",
                   help="recompute activations on the already-masked prefix, block by block")
    p.add_argument("--structural", choices=CHOICES["structural"][1:], default=None,
                   help="remove whole blocks by importance instead of masking weights")
    p.add_argument("--plan", default=None, help="use a precomputed sparsity plan JSON")
    p.add_argument("--plan-out", dest="plan_out", default=None,
                   help="write the resolved sparsity plan JSON here")
    _add_prune_flags(p)

    p = sub.add_parser("analyze", help="emit diversity/attention/selection/sparsity reports")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reports", default="diversity,attention",
                   help="comma list: diversity,attention,selection,sparsity")
    p.add_argument("--plan", default=None, help="sparsity plan JSON for the sparsity report")
    _add_calibration_flags(p)

    p = sub.add_parser("compare", help="run a method x sparsity grid and emit the comparison matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--methods", default="magnitude,wanda,owl,das,amia,tamp")
    p.add_argument("--sparsities", default="0.5")
    p.add_argument("--out", required=True)
    _add_prune_flags(p)

    p = sub.add_parser("rerun", help="replay a saved run.json")
    p.add_argument("run_file")

    return parser


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)


def _keep_freed_heap() -> None:
    """On glibc, sets malloc's mmap threshold to the highest value its dynamic
    adjustment reaches (32 MB on 64-bit) and the trim threshold to twice that; without
    glibc, does nothing.

    Each calibration chunk allocates and frees several MB of traces and stacks. glibc
    starts with a 128 KB mmap threshold and hands the heap's free top back to the system
    once it passes twice the largest block freed so far, so until some block of several
    MB has been freed, every chunk faults the same pages in again: a noisy-modality
    `tamp` prune took about 280,000 minor faults and a fifth more time. Setting the
    thresholds turns their adjustment off, so they are set where it would end."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mmap_threshold = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)  # DEFAULT_MMAP_THRESHOLD_MAX
    mallopt(M_MMAP_THRESHOLD, mmap_threshold)
    mallopt(M_TRIM_THRESHOLD, 2 * mmap_threshold)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    try:  # `--help` still exits 0 through SystemExit
        args = build_parser().parse_args(argv)
        config = {k: v for k, v in vars(args).items() if k != "command"}
        if args.command == "rerun":
            cmd_rerun(config)
        else:
            _run(args.command, config)
    except (MMPruneError, OSError, MemoryError) as err:
        if isinstance(err, OSError):  # e.g. an output path that is an existing file; names the path
            err = MMPruneError(str(err))
        elif isinstance(err, MemoryError):  # numpy's message names the array's shape and dtype
            err = MMPruneError(f"out of memory: {err}")
        json.dump({"error": type(err).__name__, "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(err, UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
