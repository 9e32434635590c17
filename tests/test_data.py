"""Sequence file IO and synthetic generators."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mmprune.data import (ModalitySpec, generate_sequences, load_sequences,
                          make_noisy_modality_scenario, write_sequences)
from mmprune.errors import FormatError


def traced_peak(call):
    """(call(), the peak bytes that tracemalloc saw it allocate)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_specs():
    return [ModalitySpec("visual", 5, scale=2.0), ModalitySpec("language", 3)]


def test_write_load_round_trip(tmp_path):
    seqs = generate_sequences(4, 8, make_specs(), seed=3)
    write_sequences(seqs, tmp_path, "calib")
    loaded = load_sequences(tmp_path / "calib.jsonl")
    assert len(loaded) == len(seqs)
    for a, b in zip(seqs, loaded):
        assert a.embeddings.tobytes() == b.embeddings.tobytes()
        assert [(s.modality.name, s.start, s.length) for s in a.spans] == \
               [(s.modality.name, s.start, s.length) for s in b.spans]


def test_record_schema_matches_contract(tmp_path):
    seqs = generate_sequences(2, 8, make_specs(), seed=1)
    path = write_sequences(seqs, tmp_path, "calib")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["spans"][0] == {"modality": "visual", "len": 5}
    assert records[0]["embeddings_file"] == "calib_embeddings.bin"
    assert records[0]["row_offset"] == 0
    assert records[1]["row_offset"] == 8
    blob = (tmp_path / "calib_embeddings.bin").read_bytes()
    assert len(blob) == 2 * 8 * 8 * 4  # 2 sequences x 8 tokens x dim 8 x float32


def test_write_sequences_holds_at_most_one_sequence_beyond_its_input(tmp_path):
    seqs = make_noisy_modality_scenario(0, n_calib=16, n_eval=1).calib
    _, peak = traced_peak(lambda: write_sequences(seqs, tmp_path, "calib"))
    # a copy of the whole set, as a concatenation or its bytes would be, is 16 sequences
    assert peak <= seqs[0].embeddings.nbytes


def test_load_sequences_holds_one_copy_of_the_embeddings(tmp_path):
    path = write_sequences(make_noisy_modality_scenario(0, n_calib=16, n_eval=1).calib, tmp_path, "calib")
    loaded, peak = traced_peak(lambda: load_sequences(path))
    embeddings = [seq.embeddings for seq in loaded]
    assert peak <= 1.1 * sum(e.nbytes for e in embeddings)  # the blob held as well would double it
    assert all(e.flags.aligned and e.flags.c_contiguous for e in embeddings)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(embeddings) for b in embeddings[i + 1:])


def test_truncated_blob_raises(tmp_path):
    seqs = generate_sequences(2, 8, make_specs(), seed=1)
    path = write_sequences(seqs, tmp_path, "calib")
    blob = tmp_path / "calib_embeddings.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(FormatError):
        load_sequences(path)


def test_missing_jsonl_raises():
    with pytest.raises(FormatError):
        load_sequences("/nonexistent/calib.jsonl")


def test_generate_sequences_deterministic_and_domain_separated():
    specs = make_specs()
    a = generate_sequences(3, 8, specs, seed=5, domain=0)
    b = generate_sequences(3, 8, specs, seed=5, domain=0)
    c = generate_sequences(3, 8, specs, seed=5, domain=1)
    for sa, sb in zip(a, b):
        assert sa.embeddings.tobytes() == sb.embeddings.tobytes()
    assert a[0].embeddings.tobytes() != c[0].embeddings.tobytes()


def test_generate_sequences_span_layout():
    seqs = generate_sequences(1, 8, make_specs(), seed=0)
    seq = seqs[0]
    assert len(seq) == 8
    assert [s.modality.name for s in seq.spans] == ["visual", "language"]
    assert [s.length for s in seq.spans] == [5, 3]


def test_noisy_scenario_shape_and_determinism():
    a = make_noisy_modality_scenario(2, n_calib=3, n_eval=2)
    b = make_noisy_modality_scenario(2, n_calib=3, n_eval=2)
    assert len(a.calib) == 3 and len(a.eval) == 2
    assert a.calib[0].embeddings.tobytes() == b.calib[0].embeddings.tobytes()
    for la, lb in zip(a.model.iter_layers(), b.model.iter_layers()):
        assert la.weight.tobytes() == lb.weight.tobytes()
    # calibration carries the noise span, eval does not
    noise_span, signal_span = a.calib[0].spans
    assert (noise_span.modality.name, signal_span.modality.name) == ("visual", "language")
    assert noise_span.length > 0
    assert [(s.modality.name, s.length) for s in a.eval[0].spans] == [("visual", 0), ("language", len(a.eval[0]))]
    # the noise modality is the high-magnitude one
    noise = a.calib[0].embeddings[noise_span.start:noise_span.stop]
    signal = a.calib[0].embeddings[signal_span.start:signal_span.stop]
    assert np.abs(noise).mean() > 2 * np.abs(signal).mean()


def test_noisy_scenario_does_not_import_numpy_ma():
    # numpy.ma takes tens of milliseconds to import, on every noisy gen-synth
    code = ("import sys; from mmprune.data import make_noisy_modality_scenario; "
            "make_noisy_modality_scenario(0, n_calib=1, n_eval=1); print('numpy.ma' in sys.modules)")
    src = str(Path(make_noisy_modality_scenario.__code__.co_filename).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_records_without_dim_field_load_via_inference(tmp_path):
    # the minimal record schema omits "dim"; the row width comes from the blob
    seqs = generate_sequences(3, 8, make_specs(), seed=2)
    path = write_sequences(seqs, tmp_path, "calib")
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        del record["dim"]
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n")
    loaded = load_sequences(path)
    for a, b in zip(seqs, loaded):
        assert a.embeddings.tobytes() == b.embeddings.tobytes()


@pytest.mark.parametrize("line", [
    '[1, 2]',
    '{"spans": [{"len": 8}], "embeddings_file": "calib_embeddings.bin", "row_offset": 0}',
    '{"spans": [{"modality": "visual", "len": -1}], "embeddings_file": "calib_embeddings.bin", "row_offset": 0}',
    '{"spans": [{"modality": "visual", "len": 8}], "embeddings_file": 7, "row_offset": 0}',
    '{"spans": [{"modality": "visual", "len": 8}], "embeddings_file": "calib_embeddings.bin", "row_offset": true}',
    '{"spans": [{"modality": "visual", "len": 8}], "embeddings_file": "calib_embeddings.bin", "row_offset": 0, "dim": -8}',
    # blob names that reach the real blob, or a directory, by a path: only a plain file name is read
    '{"spans": [{"modality": "visual", "len": 8}], "embeddings_file": "DIR/calib_embeddings.bin", "row_offset": 0}',
    '{"spans": [{"modality": "visual", "len": 8}], "embeddings_file": "../NAME/calib_embeddings.bin", "row_offset": 0}',
    '{"spans": [{"modality": "visual", "len": 8}], "embeddings_file": "..", "row_offset": 0}',
    '{"spans": [{"modality": "visual", "len": 8}], "embeddings_file": "", "row_offset": 0}',
])
def test_malformed_record_names_file_and_line(tmp_path, line):
    seqs = generate_sequences(2, 8, make_specs(), seed=1)
    path = write_sequences(seqs, tmp_path, "calib")
    lines = path.read_text().splitlines()
    line = line.replace("DIR", str(tmp_path)).replace("NAME", tmp_path.name)
    path.write_text(lines[0] + "\n" + line + "\n")
    with pytest.raises(FormatError, match=f"{path}:2"):
        load_sequences(path)
