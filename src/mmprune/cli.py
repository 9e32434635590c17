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
import json
import math
import os
import platform
import sys
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .allocation import SparsityPlan
from .checkpoint import MANIFEST_NAME, MASKS_BLOB, WEIGHTS_BLOB, load_checkpoint, save_checkpoint
from .data import (OUTLIER_CHANNELS, SIGNAL_CHANNELS, default_modality_specs, draw_sequences, load_sequences,
                   make_noisy_modality_scenario, write_sequences)
from .errors import FormatError, MMPruneError, UsageError
from .evaluation import run_comparison, sparsity_report
from .model import init_synthetic
from .pruner import (BLOCK_IMPORTANCES, METHOD_SPECS, PRUNE_METHODS, Calibration, PruneConfig, block_prune,
                     blocks_to_remove, prune_model)
from .selection import SELECTION_KINDS, AmiaParams

GROUP_FLAGS = {"row": "per_output_row", "layer": "per_layer"}
DEFAULTS = PruneConfig()
ANALYZE_REPORTS = ("diversity", "attention", "selection", "sparsity")
RUN_RECORD = "run.json"
REQUIRED = object()  # the default of a setting that has none: its flag must be given


class Setting(NamedTuple):
    """One setting of the command line and of a run record. `kind` is int, float, bool
    (a switch) or str (a path, a comma list or one of `rule`'s choices); a number's
    `rule` is (test, what the test asks). `flags` defaults to "--" and the key with dashes."""

    kind: type
    default: object
    rule: tuple = ()
    help: str | None = None
    flags: tuple[str, ...] = ()


COUNT = (lambda v: v >= 1, "an integer >= 1")
FINITE_POSITIVE = (lambda v: 0.0 < v < math.inf, "a finite number > 0")
FINITE_NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
# Every setting of every command. argparse parses each flag by its entry, and
# `_check_config` checks every config by it, a `rerun` record's included, before
# anything loads.
SETTINGS = {
    **{key: Setting(str, REQUIRED) for key in ("model", "calib", "eval", "out")},
    "scenario": Setting(str, "plain", ("plain", "noisy-modality")),
    **{key: Setting(int, default, COUNT) for key, default in (
        ("d_model", 64), ("n_heads", 4), ("d_ff", 128), ("n_blocks", 4), ("modalities", 2),
        ("tokens_per_modality", 24), ("n_calib", 128), ("n_eval", 16))},
    "method": Setting(str, DEFAULTS.method, PRUNE_METHODS),
    "sparsity": Setting(float, DEFAULTS.sparsity, (lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    "report": Setting(str, None, help="write a JSON prune report here"),
    "sequential": Setting(bool, DEFAULTS.sequential,
                          help="recompute activations on the already-masked prefix, block by block"),
    "structural": Setting(str, None, tuple(BLOCK_IMPORTANCES),
                          help="remove whole blocks by importance instead of masking weights"),
    "plan": Setting(str, None, help="a sparsity plan JSON, for prune to apply or the sparsity report to read"),
    "plan_out": Setting(str, None, help="write the resolved sparsity plan JSON here"),
    "lam": Setting(float, DEFAULTS.lam, FINITE_NON_NEGATIVE, "sparsity deviation half-width", ("--lam", "--lambda")),
    "owl_m": Setting(float, DEFAULTS.owl_m, (lambda v: 1.0 < v < math.inf, "a finite number > 1")),
    "owl_lam": Setting(float, DEFAULTS.owl_lam, FINITE_NON_NEGATIVE, flags=("--owl-lambda",)),
    "group": Setting(str, {v: k for k, v in GROUP_FLAGS.items()}[DEFAULTS.group], tuple(sorted(GROUP_FLAGS))),
    "selection": Setting(str, DEFAULTS.selection, tuple(SELECTION_KINDS)),
    "k": Setting(int, DEFAULTS.amia.k, COUNT, "nearest neighbors"),
    **{key: Setting(float, getattr(DEFAULTS.amia, key), FINITE_POSITIVE)
       for key in ("gamma_forward", "gamma_reverse", "mmd_coefficient")},
    "random_count": Setting(int, DEFAULTS.random_count, COUNT),
    "seed": Setting(int, DEFAULTS.seed, (lambda v: v >= 0, "an integer >= 0")),
    "reports": Setting(str, "diversity,attention", help="comma list: " + ",".join(ANALYZE_REPORTS)),
    "methods": Setting(str, "magnitude,wanda,owl,das,amia,tamp"),
    "sparsities": Setting(str, "0.5"),
}
CALIBRATION_SETTINGS = ("selection", "k", "gamma_forward", "gamma_reverse", "mmd_coefficient", "random_count", "seed")
ALLOCATION_SETTINGS = ("lam", "owl_m", "owl_lam", "group", *CALIBRATION_SETTINGS)
# each command's settings, in the order `--help` lists them
COMMAND_SETTINGS = {
    "gen-synth": ("out", "scenario", "d_model", "n_heads", "d_ff", "n_blocks", "modalities",
                  "tokens_per_modality", "n_calib", "n_eval", "seed"),
    "prune": ("model", "calib", "method", "sparsity", "out", "report", "sequential", "structural", "plan",
              "plan_out", *ALLOCATION_SETTINGS),
    "analyze": ("model", "calib", "out", "reports", "plan", *CALIBRATION_SETTINGS),
    "compare": ("model", "calib", "eval", "methods", "sparsities", "out", *ALLOCATION_SETTINGS),
}


def _flag(key: str) -> str:
    return SETTINGS[key].flags[0] if SETTINGS[key].flags else "--" + key.replace("_", "-")


def _check_setting(key: str, value):
    """`value` if setting `key` takes it; else a UsageError."""
    kind, default, rule = SETTINGS[key][:3]
    if kind is bool:
        ok, what = isinstance(value, bool), "true or false"
    elif kind is not str:
        test, what = rule
        ok = isinstance(value, (int, float) if kind is float else int) and not isinstance(value, bool) and test(value)
    else:  # a choice, or any string; null where the setting is unset by default
        ok = (value in rule if rule else isinstance(value, str)) or (default is None and value is None)
        what = f"one of {list(rule)}" if rule else "a string or null" if default is None else "a string"
    if not ok:
        raise UsageError(f"{_flag(key)} must be {what}, got {value!r}")
    if isinstance(value, str) and "\0" in value:  # no path or name the OS takes holds one
        raise UsageError(f"{_flag(key)} must not contain a NUL byte, got {value!r}")
    return value


def _names(config: dict, key: str) -> list[str]:
    return [name.strip() for name in str(config[key]).split(",") if name.strip()]


def _sparsities(config: dict) -> list[float]:
    try:
        sparsities = [_check_setting("sparsity", float(text)) for text in _names(config, "sparsities")]
    except (ValueError, UsageError) as err:
        raise UsageError(f"bad --sparsities value: {err}") from err
    if not sparsities:
        raise UsageError("no sparsity levels given")
    return sparsities


def _check_config(command: str, config: dict) -> dict:
    """`command`'s config, every usage check passed, before anything loads, whether it
    comes from argparse or from a `rerun` record. A record's missing optional setting
    takes its default; every key that names a setting, another command's too, is checked
    against it; other keys, as in older records, are kept and ignored."""
    for key in COMMAND_SETTINGS[command]:
        if key not in config:
            if SETTINGS[key].default is REQUIRED:
                raise UsageError(f"the run record has no {_flag(key)} setting ({key!r})")
            config = {**config, key: SETTINGS[key].default}
    for key, value in config.items():
        if key in SETTINGS:
            _check_setting(key, value)
    if command == "prune":
        if config["structural"]:
            unused = [_flag(key) for key in ("plan", "plan_out", "sequential", "selection") if config[key]]
            if unused:
                raise UsageError("--structural removes whole blocks by importance and reads no sparsity plan, "
                                 f"token selection or masked prefix: drop {' and '.join(unused)}")
        out = Path(config["out"]).resolve()
        taken = {out / name: f"the {name} that prune writes to --out"
                 for name in (MANIFEST_NAME, WEIGHTS_BLOB, MASKS_BLOB, RUN_RECORD)}
        for key in ("report", "plan_out"):
            if config[key]:
                path = Path(config[key]).resolve()
                if path in taken:
                    raise UsageError(f"{_flag(key)} {config[key]} would overwrite {taken[path]}")
                taken[path] = f"the {_flag(key)} file"
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
    if command == "gen-synth":
        if config["d_model"] % config["n_heads"]:
            raise UsageError(f"--d-model must be a multiple of --n-heads, got {config['d_model']} "
                             f"and {config['n_heads']}")
        if config["scenario"] == "noisy-modality":
            unused = [_flag(key) for key in ("modalities", "tokens_per_modality")
                      if config[key] != SETTINGS[key].default]
            if unused:
                raise UsageError(f"--scenario noisy-modality draws fixed 160 + 28-token spans: "
                                 f"drop {' and '.join(unused)}")
            if config["d_model"] < SIGNAL_CHANNELS + OUTLIER_CHANNELS:
                raise UsageError(f"--scenario noisy-modality needs --d-model >= {SIGNAL_CHANNELS + OUTLIER_CHANNELS} "
                                 f"({SIGNAL_CHANNELS} signal and {OUTLIER_CHANNELS} outlier channels), "
                                 f"got {config['d_model']}")
    if command == "analyze":
        reports = _names(config, "reports")
        unknown = set(reports) - set(ANALYZE_REPORTS)
        if unknown or not reports:
            raise UsageError(f"unknown analyze reports: {sorted(unknown)}" if unknown else "no reports given")
        if config["plan"] and "sparsity" not in reports:
            raise UsageError("--plan is read only by the sparsity report: "
                             "add sparsity to --reports or drop --plan")
        if config["selection"] and "selection" not in reports:
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
    _write_json(out_dir / RUN_RECORD, record)


def _prune_config(config: dict) -> PruneConfig:
    """Resolve a run config's flagged settings; other keys, as in older run records, are ignored."""
    def present(cls) -> dict:
        return {f.name: config[f.name] for f in fields(cls) if f.name in config}
    values = present(PruneConfig)
    if "group" in values:
        values["group"] = GROUP_FLAGS[values["group"]]
    return PruneConfig(**{**values, "amia": AmiaParams(**present(AmiaParams))})


# ---------------------------------------------------------------------------
# subcommands; each docstring is the command's line in `mmprune --help`


def cmd_gen_synth(config: dict) -> None:
    """generate a synthetic model plus calibration/eval data"""
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
    """prune a checkpoint"""
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)  # every output path first: a bad one fails before any work
    report_path = _prepare_output_file(Path(config["report"])) if config.get("report") else None
    plan_out = _prepare_output_file(Path(config["plan_out"])) if config.get("plan_out") else None
    model = load_checkpoint(config["model"])
    calib = load_sequences(config["calib"])
    prune_cfg = _prune_config(config)

    if config.get("structural"):
        ratio = config["sparsity"]
        importances = BLOCK_IMPORTANCES[config["structural"]](Calibration(model, calib, prune_cfg.calibration_params()))
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
    """emit diversity/attention/selection/sparsity reports"""
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
    """run a method x sparsity grid and emit the comparison matrix"""
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
    """replay a saved run.json"""
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors, so that `main` reports them as JSON."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmprune", description="Token-adaptive pruning toolkit for toy multimodal transformers")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in COMMAND_SETTINGS.items():
        p = sub.add_parser(command, help=COMMANDS[command].__doc__)
        for key in keys:
            kind, default, rule, help_text, flags = SETTINGS[key]
            if kind is bool:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"type": kind, "choices": rule if kind is str and rule else None}
            kwargs.update({"required": True} if default is REQUIRED else {"default": default})
            p.add_argument(*(flags or [_flag(key)]), dest=key, help=help_text, **kwargs)
    sub.add_parser("rerun", help=cmd_rerun.__doc__).add_argument("run_file")
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
