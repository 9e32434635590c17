"""Byte-identity oracle: every CLI output file of a fixed set of runs, by sha256.

The runs cover both `gen-synth` scenarios, a `compare` grid of every method at two
sparsities (plus the random and attention selection overrides and a per-layer
group), a `prune` of every method with `--report` and `--plan-out`, `--sequential`,
`--plan` and both `--structural` kinds, and `analyze` with all four reports, on
small plain and noisy-modality workspaces. Each file except `run.json` (which
records the output paths) must match the digest committed in
`output_digests.json`, so a change that should leave results alone is checked
against the outputs of the code before it.

Float results depend on numpy's and the BLAS's kernels, so the digests hold for
one platform. After a change that moves results on purpose, or on another
platform, rewrite them with `PYTHONPATH=src python tests/test_output_digests.py`
and review the diff.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mmprune.cli import main

DIGESTS = Path(__file__).with_name("output_digests.json")
METHODS = "magnitude,wanda,owl,das,das_alltoken,das_blockwise,amia,tamp"

PLAIN = ["--d-model", "16", "--n-heads", "2", "--d-ff", "24", "--n-blocks", "2",
         "--tokens-per-modality", "24", "--n-calib", "5", "--n-eval", "3", "--seed", "3"]
NOISY = ["--scenario", "noisy-modality", "--d-model", "24", "--n-heads", "4", "--d-ff", "32",
         "--n-blocks", "2", "--n-calib", "2", "--n-eval", "5", "--seed", "1"]


def _runs() -> list[tuple[str, list[str]]]:
    """(name, argv) in run order; `{ws}` is a workspace and `{out}` the run's own
    directory. A later run may read an earlier run's outputs."""
    def data(ws: str) -> list[str]:
        return ["--model", f"{{{ws}}}/model", "--calib", f"{{{ws}}}/calib.jsonl"]

    def prune(ws: str, *flags: str) -> list[str]:
        return (["prune", *data(ws), "--out", "{out}/ckpt", "--report", "{out}/report.json",
                 "--plan-out", "{out}/plan.json"] + list(flags))

    def compare(ws: str, *flags: str) -> list[str]:
        return ["compare", *data(ws), "--eval", f"{{{ws}}}/eval.jsonl", "--out", "{out}"] + list(flags)

    runs = [("gen-plain", ["gen-synth", "--out", "{out}"] + PLAIN),
            ("gen-noisy", ["gen-synth", "--out", "{out}"] + NOISY)]
    runs += [(f"prune-{method}", prune("plain", "--method", method, "--sparsity", "0.5", "--seed", "2"))
             for method in METHODS.split(",")]
    runs += [
        ("prune-tamp-layer", prune("plain", "--method", "tamp", "--group", "layer")),
        ("prune-wanda-sequential", prune("plain", "--method", "wanda", "--sequential")),
        ("prune-tamp-sequential", prune("plain", "--method", "tamp", "--sequential")),
        ("prune-wanda-random-sequential",
         prune("plain", "--method", "wanda", "--sequential", "--selection", "random", "--random-count", "9")),
        ("prune-tamp-noisy", prune("noisy", "--method", "tamp")),
        ("prune-das-noisy", prune("noisy", "--method", "das", "--sparsity", "0.6")),
        ("prune-wanda-noisy-sequential", prune("noisy", "--method", "wanda", "--sequential")),
        ("prune-plan", ["prune", *data("plain"), "--method", "wanda", "--plan",
                        "{runs}/prune-tamp/plan.json", "--out", "{out}/ckpt", "--report", "{out}/report.json"]),
        ("prune-structural-das", ["prune", *data("plain"), "--structural", "das", "--sparsity", "0.5",
                                  "--out", "{out}/ckpt", "--report", "{out}/report.json"]),
        ("prune-structural-shortgpt", ["prune", *data("plain"), "--structural", "shortgpt",
                                       "--sparsity", "0.5", "--out", "{out}/ckpt",
                                       "--report", "{out}/report.json"]),
        ("prune-structural-shortgpt-noisy", ["prune", *data("noisy"), "--structural", "shortgpt",
                                             "--sparsity", "0.5", "--out", "{out}/ckpt",
                                             "--report", "{out}/report.json"]),
        ("prune-structural-das-noisy", ["prune", *data("noisy"), "--structural", "das", "--sparsity", "0.5",
                                        "--out", "{out}/ckpt", "--report", "{out}/report.json"]),
        ("compare-plain", compare("plain", "--methods", METHODS, "--sparsities", "0.4,0.6")),
        ("compare-random", compare("plain", "--methods", METHODS, "--sparsities", "0.4,0.6",
                                   "--selection", "random", "--random-count", "20", "--seed", "5")),
        ("compare-attention", compare("plain", "--methods", METHODS, "--sparsities", "0.4,0.6",
                                      "--selection", "attention")),
        ("compare-layer", compare("plain", "--methods", "magnitude,wanda,das,tamp", "--sparsities", "0.3,0.5",
                                  "--group", "layer")),
        ("compare-noisy", compare("noisy", "--methods", "wanda,das,amia,tamp", "--sparsities", "0.5")),
        ("analyze-plain", ["analyze", "--model", "{runs}/prune-tamp/ckpt", "--calib", "{plain}/calib.jsonl",
                           "--out", "{out}", "--reports", "diversity,attention,selection,sparsity"]),
        ("analyze-noisy", ["analyze", *data("noisy"), "--out", "{out}",
                           "--reports", "diversity,attention,selection,sparsity"]),
        ("analyze-full-plan", ["analyze", *data("plain"), "--out", "{out}", "--selection", "full",
                               "--reports", "selection,sparsity", "--plan", "{runs}/prune-das/plan.json"]),
    ]
    return runs


def run_all(root: Path) -> dict[str, str]:
    """Runs every command under `root`; returns {run/file: sha256} of every output
    file except `run.json`."""
    places = {"plain": root / "gen-plain", "noisy": root / "gen-noisy", "runs": root}
    digests = {}
    for name, argv in _runs():
        out = root / name
        args = [a.format(out=out, **places) for a in argv]
        assert main(args) == 0, name
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "run.json":
                digests[f"{name}/{path.relative_to(out).as_posix()}"] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("oracle"))


@pytest.mark.parametrize("run", [name for name, _ in _runs()])
def test_outputs_match_the_committed_digests(outputs, run):
    expected = {k: v for k, v in json.loads(DIGESTS.read_text()).items() if k.startswith(f"{run}/")}
    got = {k: v for k, v in outputs.items() if k.startswith(f"{run}/")}
    assert expected, run
    assert sorted(got) == sorted(expected)
    assert [k for k in expected if got[k] != expected[k]] == []


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
