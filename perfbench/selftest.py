#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (4 calibration sequences).

    python3 perfbench/selftest.py

Runs every workload through `run.py`, the same code path as a full run, and
asserts that:
- every metric named in BENCHMARK.json is printed with its unit, untraced
  and traced, and `fail_ratio` is printed;
- a reference recorded from this code passes, while a corrupted copy (a
  float, and on prune workloads a mask digest) fails every operation;
- two traced runs give identical counters;
- a traced target that no longer exists is reported absent, and tracing an
  operation still yields every per-layer metric.
Exits 0 when all hold; raises AssertionError otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing

SEED = 5
N_CALIB = 4
SCRATCH = run.WORK_DIR / "selftest"


def bench(workload: str, trace: int, reference: Path, *extra: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--n-calib", str(N_CALIB), "--reference", str(reference), *extra],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    assert lines, f"{workload}: no output; stderr:\n{proc.stderr}"
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def assert_metrics(result: dict, stdout: str, declared: list[dict], label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{label}: metrics {got} != BENCHMARK.json {want}"
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2:3] == [unit]
                   for line in stdout.splitlines()), f"{label}: {name} [{unit}] not printed"
    assert "fail_ratio" in stdout, f"{label}: fail_ratio not printed"


def corrupt(reference: Path, key: str, part: str) -> Path:
    data = json.loads(reference.read_text())
    entry = data["entries"][key]
    if part == "mask":
        first = sorted(entry["layers"])[0]
        entry["layers"][first]["mask_sha256"] = "0" * 64
    else:
        entry["fidelity_rel_avg"] += 1e-6
    out = reference.with_name(f"{reference.stem}-{part}.json")
    out.write_text(json.dumps(data))
    return out


def check_workload(workload: str, spec: dict) -> None:
    reference = SCRATCH / f"reference-{workload}.json"
    key = f"{workload}/seed={SEED}/n_calib={N_CALIB}"

    code, result, stdout = bench(workload, 0, reference, "--record")
    assert code == 0 and result["correct"], f"{workload}: recording failed\n{stdout}"
    assert_metrics(result, stdout, spec["end_to_end"], f"{workload} untraced")

    code, result, stdout = bench(workload, 0, reference)
    assert f"entry {key}" in stdout, stdout
    assert code == 0 and result["failed"] == 0, f"{workload}: fresh reference fails\n{stdout}"

    parts = ["float"] + (["mask"] if workload != "sweep-plain" else [])
    for part in parts:
        code, result, stdout = bench(workload, 0, corrupt(reference, key, part))
        assert code != 0 and not result["correct"], f"{workload}: corrupted {part} passed"
        assert result["failed"] == result["attempted"] > 0, f"{workload}: {result}"

    counters = []
    for _ in range(2):
        code, result, stdout = bench(workload, 1, reference)
        assert code == 0 and result["failed"] == 0, f"{workload}: traced run failed\n{stdout}"
        assert_metrics(result, stdout, spec["per_layer"], f"{workload} traced")
        counters.append({name: result["metrics"][name]["value"] for name in tracing.EXACT_METRICS})
    assert counters[0] == counters[1], f"{workload}: counters differ between traced runs"
    print(f"{workload}: ok")


def check_absent_targets() -> None:
    """A renamed or deleted target is reported absent and tracing still works."""
    sys.path.insert(0, str(run.SRC))
    import mmprune.cli as cli

    gone = [("gone.function", "mmprune.pruner", "no_such_function"),
            ("gone.module", "mmprune.no_such_module", "f"),
            ("gone.method", "mmprune.diversity", "NoSuchClass.add_layer_sample")]
    ws = SCRATCH / "absent"
    tracer = tracing.Tracer(tracing.TARGETS + gone)
    assert cli.main(["gen-synth", "--out", str(ws), "--n-calib", "2"]) == 0
    with tracer:
        assert cli.main(["prune", "--model", str(ws / "model"), "--calib", str(ws / "calib.jsonl"),
                         "--method", "tamp", "--out", str(ws / "out")]) == 0
    for name, *_ in gone:
        assert tracer.bindings[name] == "absent", tracer.bindings
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert set(metrics) == set(tracing.LAYER_METRICS) and metrics["model.forward.calls"] > 0
    print("absent targets: ok")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        check_absent_targets()
        for workload in run.WORKLOADS:
            check_workload(workload, spec)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
