#!/usr/bin/env python3
"""mmprune benchmark: one workload through `mmprune.cli.main`, in-process.

    python3 perfbench/run.py --workload tamp-noisy --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout: the program is imported from
`src/`, and nothing needs building. The workload's workspace is generated
from `--seed` with `mmprune gen-synth`; the program sees only those files.
Operations run in a closed loop, one caller issuing one operation at a time,
until `--seconds` of operation time has been measured. Every operation's
output is checked, against `reference.json` when it has an entry for this
workload, seed and size, and otherwise against invariants of the pruning
definition. The last line of stdout is the JSON result. With `--trace 0` it
holds the end-to-end metrics; with `--trace 1` it holds per-layer metrics
from a traced run. Full results, environment record and spans are written
to `.perfbench_out/`.
"""

import os

# Pinned before numpy loads. The hot path is Python around small matmuls, so
# a second BLAS thread saves nothing, while a thread waiting for a core that
# other processes share adds noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

# Floats in outputs must match the reference within these; masks match exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-12
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


@dataclass(frozen=True)
class Workload:
    scenario: str
    args: tuple[str, ...]  # subcommand and flags, without input and output paths
    cells: int             # prune cells per operation


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "sweep-plain": Workload(
        "plain",
        ("compare", "--methods", "magnitude,wanda,owl,das,amia,tamp", "--sparsities", "0.4,0.5,0.6"),
        18),
    "tamp-noisy": Workload("noisy-modality", ("prune", "--method", "tamp", "--sparsity", "0.5"), 1),
    "sequential-noisy": Workload(
        "noisy-modality", ("prune", "--method", "wanda", "--sparsity", "0.5", "--sequential"), 1),
}

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "calib_tok_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fidelity_rel_avg": "%",
}
PER_LAYER = {**tracing.LAYER_METRICS, "data.gen_synth.s": "s", "trace.overhead_s": "s"}

SETUP_SCRIPT = """\
import sys, time
start = time.perf_counter()
from mmprune.cli import main
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="operation time to measure; at least one operation runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-calib", dest="n_calib", type=int, default=128,
                        help="calibration sequences in the workspace (small values for self-tests)")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the reference entry instead of checking them")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown (unresolved ref)"


def environment(args, numpy) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "mmprune").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(ROOT),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(os.environ["OPENBLAS_NUM_THREADS"])},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "n_calib": args.n_calib,
    }


# ---------------------------------------------------------------------------
# operations


def gen_synth_argv(workload: Workload, out: Path, seed: int, n_calib: int) -> list[str]:
    return ["gen-synth", "--out", str(out), "--seed", str(seed),
            "--scenario", workload.scenario, "--n-calib", str(n_calib)]


def op_argv(workload: Workload, ws: Path, out: Path) -> list[str]:
    command, *flags = workload.args
    argv = [command, "--model", str(ws / "model"), "--calib", str(ws / "calib.jsonl")]
    if command == "compare":
        argv += ["--eval", str(ws / "eval.jsonl"), "--out", str(out)]
    else:
        argv += ["--out", str(out / "ckpt"), "--report", str(out / "report.json")]
    return argv + flags


def measure_setup(workload: Workload, work: Path, seed: int, n_calib: int) -> list[float]:
    """Import plus gen-synth, each repeat in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, *gen_synth_argv(workload, out, seed, n_calib)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(out)
    return times


def run_op(cli, argv: list[str]) -> tuple[float, str | None]:
    """Returns (wall seconds, failure or None)."""
    gc.collect()  # start every operation from the same heap state
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # an operation that raises is counted as failed; the loop goes on
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, "raised"
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"exit code {code}"


def calib_tokens(ws: Path) -> int:
    with open(ws / "calib.jsonl", encoding="utf-8") as f:
        return sum(span["len"] for line in f if line.strip() for span in json.loads(line)["spans"])


# ---------------------------------------------------------------------------
# output checks


class Scorer:
    """Fidelity against the dense model on the eval set, computed outside timing."""

    def __init__(self, mm, ws: Path):
        self.mm = mm
        self.dense = mm.load_checkpoint(ws / "model")
        self.eval_seqs = mm.load_sequences(ws / "eval.jsonl")
        self.reference = mm.reconstruction_report(self.dense, self.dense, self.eval_seqs).task_scores()

    def rel_avg(self, pruned) -> float:
        scores = self.mm.reconstruction_report(self.dense, pruned, self.eval_seqs).task_scores()
        return self.mm.rel_avg({task: (scores[task], self.reference[task]) for task in scores})


def observe(workload: Workload, out: Path, scorer: Scorer, numpy) -> tuple[dict, list[str]]:
    """(observation, invariant violations) of one operation's output."""
    if workload.args[0] == "compare":
        return _observe_compare(workload, out, scorer)
    return _observe_prune(out, scorer, numpy)


def _observe_prune(out: Path, scorer: Scorer, np) -> tuple[dict, list[str]]:
    report = json.loads((out / "report.json").read_text())
    pruned = scorer.mm.load_checkpoint(out / "ckpt")
    planned = {rec["layer"]: rec["planned"] for rec in report["layers"]}
    achieved = {rec["layer"]: rec["achieved"] for rec in report["layers"]}
    problems = []
    layers = {}
    weighted_plan = weighted_achieved = total = 0
    for layer in pruned.iter_layers():
        key = f"{layer.block_index}:{layer.kind}"
        keep = np.ones(layer.weight.shape, bool) if layer.mask is None else layer.mask
        layers[key] = {
            "mask_sha256": hashlib.sha256(np.packbits(keep).tobytes()).hexdigest(),
            "planned": planned[key],
            "achieved": achieved[key],
        }
        rows, cols = keep.shape
        dropped = (~keep).sum(axis=1)
        if not (dropped == int(planned[key] * cols)).all():
            problems.append(f"{key}: rows do not drop floor(planned * C_in) weights")
        if np.any(layer.weight[~keep] != 0.0):
            problems.append(f"{key}: masked weights are not zero")
        if not math.isclose(achieved[key], dropped.sum() / keep.size, rel_tol=REL_TOL):
            problems.append(f"{key}: reported achieved ratio differs from the mask")
        weighted_plan += planned[key] * keep.size
        weighted_achieved += achieved[key] * keep.size
        total += keep.size
    if not math.isclose(weighted_plan / total, report["target"], rel_tol=1e-9, abs_tol=1e-12):
        problems.append("planned ratios miss the global target")
    if not math.isclose(weighted_achieved / total, report["global_achieved"], rel_tol=1e-9):
        problems.append("global_achieved is not the parameter-weighted mean of achieved ratios")
    fidelity = scorer.rel_avg(pruned)
    if not (math.isfinite(fidelity) and 0.0 < fidelity <= 100.0 + 1e-9):
        problems.append(f"fidelity {fidelity} is outside (0, 100]")
    return {"layers": layers, "global_achieved": report["global_achieved"],
            "fidelity_rel_avg": fidelity}, problems


def _observe_compare(workload: Workload, out: Path, scorer: Scorer) -> tuple[dict, list[str]]:
    rows = json.loads((out / "compare.json").read_text())["rows"]
    methods = workload.args[workload.args.index("--methods") + 1].split(",")
    sparsities = [float(s) for s in workload.args[workload.args.index("--sparsities") + 1].split(",")]
    min_cols = min(layer.weight.shape[1] for layer in scorer.dense.iter_layers())
    cells = {f"{row['method']}@{row['sparsity']}": row for row in rows}
    problems = []
    expected = {f"{m}@{s}" for m in methods for s in sparsities}
    if len(rows) != len(expected) or set(cells) != expected:
        problems.append(f"cells {sorted(cells)} != {sorted(expected)}")
    for cell, row in cells.items():
        for name, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{cell}: {name} is not finite")
        if not 0.0 < row["rel_avg"] <= 100.0 + 1e-9:
            problems.append(f"{cell}: rel_avg {row['rel_avg']} is outside (0, 100]")
        # every layer drops floor(ratio * C_in) per row, and the plan meets the target
        if not row["sparsity"] - 1.0 / min_cols - 1e-9 <= row["global_achieved"] <= row["sparsity"] + 1e-9:
            problems.append(f"{cell}: global_achieved {row['global_achieved']} misses the target")
    fidelity = statistics.fmean(row["rel_avg"] for row in rows) if rows else 0.0
    return {"rows": cells, "fidelity_rel_avg": fidelity}, problems


def diff(expected, actual, path: str = "") -> list[str]:
    """Mismatches between a reference entry and an observation."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = [f"{path}/{k}: missing" for k in expected if k not in actual]
        out += [f"{path}/{k}: unexpected" for k in actual if k not in expected]
        for key in expected.keys() & actual.keys():
            out += diff(expected[key], actual[key], f"{path}/{key}")
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) and \
                math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != reference {expected!r}"]


def reference_key(args) -> str:
    return f"{args.workload}/seed={args.seed}/n_calib={args.n_calib}"


def load_reference(path: Path) -> dict:
    if not path.is_file():
        return {"entries": {}}
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# statistics and output


def tail(times: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    for p in TAIL_PERCENTILES:
        if len(times) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]
    return None


def median_metrics(per_op: list[dict]) -> dict:
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmprune" / "__init__.py").is_file():
        print(f"error: no mmprune sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import mmprune
    import mmprune.cli as cli
    if SRC not in Path(mmprune.__file__).resolve().parents:
        print(f"error: mmprune was imported from {mmprune.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment(args, numpy)
    print("env " + json.dumps(env, sort_keys=True))
    reference = load_reference(args.reference)
    expected = None if args.record else reference["entries"].get(reference_key(args))

    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, workload, env, cli, mmprune, numpy, reference, expected, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, env, cli, mm, numpy, reference, expected, work) -> int:
    tracer = tracing.Tracer() if args.trace else None
    setup_times = [] if args.trace else measure_setup(workload, work, args.seed, args.n_calib)

    ws = work / "ws"
    with tracer or contextlib.nullcontext():
        _, failure = run_op(cli, gen_synth_argv(workload, ws, args.seed, args.n_calib))
    if failure:
        print(f"error: gen-synth failed ({failure})", file=sys.stderr)
        return 1
    gen_synth_s = tracing.gen_synth_seconds(tracer.spans) if tracer else None
    scorer = Scorer(mm, ws)
    tokens = calib_tokens(ws)

    ops = []  # one record per operation
    traced = []  # per-layer metrics of each traced operation
    spans_out = []

    def one_op(trace_it: bool) -> float:
        out = work / f"op{len(ops)}"
        argv = op_argv(workload, ws, out)
        if trace_it:
            tracer.reset()
            with tracer:
                elapsed, failure = run_op(cli, argv)
            traced.append(tracing.layer_metrics(tracer.spans, tracer.counts))
            spans_out.append({"op_s": elapsed, "spans": [list(s) for s in tracer.spans]})
        else:
            elapsed, failure = run_op(cli, argv)
        record = {"op_s": elapsed, "traced": trace_it, "problems": [failure] if failure else []}
        if not failure:
            try:
                observation, problems = observe(workload, out, scorer, numpy)
            except Exception as err:  # unreadable output fails this operation, not the run
                traceback.print_exc()
                record["problems"].append(f"output check raised {err!r}")
            else:
                record["observation"] = observation
                record["problems"] += problems
                if expected is not None:
                    record["problems"] += diff(expected, observation)
        ops.append(record)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed

    if args.trace:
        # A process's first operation runs slower, so it warms up and is left out
        # of the comparison; traced and untraced operations then alternate, so
        # drift in machine speed reaches both sides alike.
        one_op(False)
        kinds = itertools.cycle((True, False))
    else:
        kinds = itertools.repeat(False)
    first = len(ops)
    measured = 0.0
    while measured < args.seconds or len(ops) - first < 1 + args.trace:
        measured += one_op(next(kinds))
    untraced_times = [r["op_s"] for r in ops[first:] if not r["traced"]]
    traced_times = [r["op_s"] for r in ops[first:] if r["traced"]]

    failed = sum(1 for r in ops if r["problems"])
    attempted = len(ops)
    correct = failed == 0
    op_s = statistics.median(untraced_times)
    fidelities = [r["observation"]["fidelity_rel_avg"] for r in ops if "observation" in r]

    if expected is not None:
        ref_note = f"reference check: {args.reference.name} entry {reference_key(args)}"
    elif args.record:
        ref_note = "reference check: skipped (recording this run as the reference)"
    else:
        ref_note = (f"reference check: skipped (no entry for {reference_key(args)}); "
                    "checked invariants only")
    print(ref_note)
    for i, r in enumerate(ops):
        status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"][:5])
        kind = "warm-up" if args.trace and i < first else "traced" if r["traced"] else "untraced"
        print(f"op {i} {kind}: {r['op_s']:.4f} s  {status}")

    if args.trace:
        values = median_metrics(traced)
        values["data.gen_synth.s"] = gen_synth_s
        traced_op_s = statistics.median(traced_times)
        values["trace.overhead_s"] = traced_op_s - op_s
        units = PER_LAYER
        absent = sorted(name for name, bound in tracer.bindings.items() if bound == "absent")
        print("trace bindings " + json.dumps(tracer.bindings, sort_keys=True))
        print(f"trace absent: {absent or 'none'}; counter errors: "
              f"{sorted(tracer.counter_errors) or 'none'}")
        print(f"trace: traced op_s {traced_op_s:.4f} s, untraced {op_s:.4f} s, "
              f"overhead {traced_op_s - op_s:+.4f} s")
        with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({"env": env, "bindings": tracer.bindings, "absent": absent,
                       "counter_errors": sorted(tracer.counter_errors), "ops": spans_out}, f)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s": op_s,
            "calib_tok_per_s": workload.cells * tokens / op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fidelity_rel_avg": statistics.median(fidelities) if fidelities else 0.0,
        }
        units = END_TO_END
        high = tail(untraced_times)
        print(f"op_s samples: {len(untraced_times)}; highest percentile with >= 10 samples "
              "beyond it: " + (f"p{high[0]} = {high[1]:.4f} s" if high
                               else f"none (max {max(untraced_times):.4f} s)"))
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:.6g} {unit}")
    print(f"{'fail_ratio':40s} {failed / attempted:.6g} ratio ({failed}/{attempted})")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"env": env, "setup_times": setup_times, "ops": [
        {k: v for k, v in r.items() if k != "observation"} for r in ops],
        "metrics": metrics, "fail_ratio": failed / attempted, "reference": ref_note}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)

    if args.record:
        observations = [r["observation"] for r in ops if "observation" in r]
        if not correct or any(diff(observations[0], o) for o in observations[1:]):
            print("error: not recording a reference from a run with failures", file=sys.stderr)
            return 1
        reference["entries"][reference_key(args)] = observations[0]
        with open(args.reference, "w", encoding="utf-8") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"recorded {reference_key(args)} in {args.reference}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
