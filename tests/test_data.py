"""Sequence file IO and synthetic generators."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmprune.cli as cli
from mmprune.checkpoint import save_checkpoint
from mmprune.data import (ModalitySpec, generate_sequences, load_sequences,
                          make_noisy_modality_scenario, write_sequences)
from mmprune.errors import FormatError
from mmprune.model import CHUNK_TOKENS, init_synthetic
from mmprune.pruner import Calibration, PruneConfig, prune_model


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


def test_write_sequences_replaces_the_files_its_sequences_were_loaded_from(tmp_path):
    path = write_sequences(generate_sequences(3, 8, make_specs(), seed=2), tmp_path, "calib")
    before = {file.name: file.read_bytes() for file in tmp_path.iterdir()}

    def failing():
        yield from load_sequences(path)[:2]
        raise OSError("disk full")
    with pytest.raises(OSError, match="disk full"):
        write_sequences(failing(), tmp_path, "calib")
    assert {file.name: file.read_bytes() for file in tmp_path.iterdir()} == before
    write_sequences(load_sequences(path), tmp_path, "calib")  # reads the blob it replaces
    assert {file.name: file.read_bytes() for file in tmp_path.iterdir()} == before


def test_load_sequences_holds_one_copy_of_the_embeddings(tmp_path):
    seqs = make_noisy_modality_scenario(0, n_calib=16, n_eval=1).calib
    path = write_sequences(seqs, tmp_path, "calib")
    one_record = seqs[0].embeddings.nbytes
    tracemalloc.start()
    try:
        loaded = load_sequences(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the load reads one record's rows at a time and keeps none: the 16 records' rows are 16 of them
    assert kept <= one_record
    assert peak - kept <= 1.5 * one_record  # the rows read, plus their finiteness check
    assert not any(isinstance(value, np.ndarray) for seq in loaded for value in vars(seq).values())
    assert [(len(seq), seq.dim) for seq in loaded] == [(len(seq), seq.dim) for seq in seqs]


def test_loaded_sequences_read_their_rows_on_each_access(tmp_path):
    seqs = generate_sequences(3, 8, make_specs(), seed=4)
    loaded = load_sequences(write_sequences(seqs, tmp_path, "calib"))
    for seq, stored in zip(seqs, loaded):
        first, second = stored.embeddings, stored.embeddings
        assert first.tobytes() == second.tobytes() == seq.embeddings.tobytes()
        assert first.dtype == np.float32 and first.flags.c_contiguous and first.flags.writeable
        assert not np.shares_memory(first, second)


def rewrite_in_place(blob: Path, value: float, mtime_step_ns: int) -> None:
    """Rewrites the start of every row of `blob` with `value`, at its size, and sets its
    mtime `mtime_step_ns` past the old one."""
    stat = blob.stat()
    rows = np.fromfile(blob, "<f4").reshape(-1, 64)
    rows[:, :4] = value
    with open(blob, "r+b") as f:
        f.write(rows.tobytes())
    os.utime(blob, ns=(stat.st_atime_ns, stat.st_mtime_ns + mtime_step_ns))


@pytest.mark.parametrize("change,message", [
    (lambda blob: os.truncate(blob, blob.stat().st_size // 2), "changed since it was loaded"),
    (lambda blob: rewrite_in_place(blob, 0.5, 10**9), "changed since it was loaded"),
    # a rewrite within the file system's timestamp granularity keeps its mtime, and a
    # size-and-mtime check cannot see it; each read still checks the rows themselves
    (lambda blob: rewrite_in_place(blob, np.nan, 0), "non-finite"),
    # finite rows of the same size: the crc32 the load took of each record's rows
    (lambda blob: rewrite_in_place(blob, 0.5, 0), "changed since it was loaded"),
], ids=["truncated", "rewritten-in-place", "rewritten-keeping-its-mtime", "rewritten-finite-keeping-its-mtime"])
def test_a_blob_changed_after_the_load_is_a_format_error(tmp_path, change, message):
    scenario = make_noisy_modality_scenario(0, n_calib=2, n_eval=1)
    calib = load_sequences(write_sequences(scenario.calib, tmp_path, "calib"))
    blob = tmp_path / "calib_embeddings.bin"
    change(blob)
    with pytest.raises(FormatError, match=f"{tmp_path}.* {message}"):
        prune_model(scenario.model, calib, PruneConfig(method="wanda"))
    with pytest.raises(FormatError, match=f"{tmp_path}.* {message}"):
        calib[1].embeddings
    assert len(calib[1]) == 188 and calib[1].dim == 64  # read from the record, not the blob


def test_a_blob_truncated_with_its_mtime_restored_is_a_format_error(tmp_path):
    seqs = generate_sequences(3, 8, make_specs(), seed=5)
    loaded = load_sequences(write_sequences(seqs, tmp_path, "calib"))
    blob = tmp_path / "calib_embeddings.bin"
    stat = blob.stat()
    os.truncate(blob, stat.st_size - 4 * 8)  # the last record loses its last row
    os.utime(blob, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    for seq in loaded:
        with pytest.raises(FormatError, match="changed since it was loaded|changed while .* was read"):
            seq.embeddings


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_blob_reads_hold_no_file_descriptor(tmp_path):
    seqs = generate_sequences(100, 4, make_specs(), seed=6)
    path = write_sequences(seqs, tmp_path, "calib")
    before = len(os.listdir("/proc/self/fd"))
    loaded = load_sequences(path)
    assert [seq.embeddings.tobytes() for seq in loaded] == [seq.embeddings.tobytes() for seq in seqs]
    assert len(os.listdir("/proc/self/fd")) == before


def test_a_calibration_pass_holds_at_most_one_chunk_of_embeddings(tmp_path):
    scenario = make_noisy_modality_scenario(0, n_calib=16, n_eval=1)
    seqs = load_sequences(write_sequences(scenario.calib, tmp_path, "calib"))
    assert 2 * len(seqs[0]) > CHUNK_TOKENS  # so each noisy sample is a chunk of its own

    def one_pass(n):
        Calibration(scenario.model, seqs[:n]).compute("diversity", "full")
    one_pass(1)  # module-level buffers, such as the causal mask, are made once
    peaks = [traced_peak(lambda: one_pass(n))[1] for n in (4, 16)]
    # rows kept past their chunk would add 12 chunks of embeddings
    assert peaks[1] - peaks[0] <= seqs[0].embeddings.nbytes


def test_a_sequential_prune_holds_at_most_one_chunk_of_carried_states(tmp_path):
    scenario = make_noisy_modality_scenario(0, n_calib=16, n_eval=1)
    seqs = load_sequences(write_sequences(scenario.calib, tmp_path, "calib"))
    config = PruneConfig(method="wanda", sequential=True)
    prune_model(scenario.model, seqs[:1], config)  # module-level buffers, such as the causal mask, are made once
    peaks = [traced_peak(lambda: prune_model(scenario.model, seqs[:n], config))[1] for n in (4, 16)]
    # the carried states go through a scratch blob: kept in memory, 12 more would be 12 x 48 KB
    assert peaks[1] - peaks[0] <= seqs[0].embeddings.nbytes


def test_gen_synth_holds_at_most_one_calibration_sequence(tmp_path, monkeypatch):
    scenario = make_noisy_modality_scenario(0, n_calib=1, n_eval=1)
    seq, one_draw = traced_peak(lambda: next(scenario.draw_calib()))
    writes = {}  # n_calib -> (bytes held as the calibration write starts, its peak above that)

    def traced_write(seqs, directory, prefix):
        gc.collect()  # the parsers `main` built are cyclic garbage, collected at no fixed point
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        path = write_sequences(seqs, directory, prefix)
        if prefix == "calib":
            writes[n_calib] = (start, tracemalloc.get_traced_memory()[1] - start)
        return path
    monkeypatch.setattr(cli, "write_sequences", traced_write)
    for n_calib in (4, 16):
        out = tmp_path / str(n_calib)
        argv = ["gen-synth", "--scenario", "noisy-modality", "--n-calib", str(n_calib), "--n-eval", "1",
                "--out", str(out)]
        code, _ = traced_peak(lambda: cli.main(argv))
        assert code == 0 and len(load_sequences(out / "calib.jsonl")) == n_calib
    # nothing is drawn ahead of the write: 12 more sequences held would be 12 x 48 KB
    assert writes[16][0] - writes[4][0] <= seq.embeddings.nbytes
    # while a sequence is drawn, the one written before it is the only one alive
    assert writes[16][1] <= one_draw + 1.5 * seq.embeddings.nbytes


def test_truncated_blob_raises(tmp_path):
    seqs = generate_sequences(2, 8, make_specs(), seed=1)
    path = write_sequences(seqs, tmp_path, "calib")
    blob = tmp_path / "calib_embeddings.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(FormatError):
        load_sequences(path)


def test_an_empty_blob_gives_no_row_width(tmp_path):
    (tmp_path / "empty.bin").write_bytes(b"")
    path = tmp_path / "calib.jsonl"
    path.write_text(json.dumps({"spans": [{"modality": "visual", "len": 4}], "embeddings_file": "empty.bin",
                                "row_offset": 0}) + "\n")
    with pytest.raises(FormatError, match="cannot infer row width from 0 values over 4 rows"):
        load_sequences(path)  # not 4 rows of width 0


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
    # no tokens: no row width is read, so a huge one must not reach numpy
    pytest.param('{"spans": [], "embeddings_file": "calib_embeddings.bin", "row_offset": 0, "dim": 1%s}' % ("0" * 21),
                 id="no-tokens-huge-dim"),
    pytest.param('{"spans": [{"modality": "visual", "len": 0}], "embeddings_file": "calib_embeddings.bin", '
                 '"row_offset": 0}', id="zero-length-span"),
    pytest.param('[' * 100000, id="nested-too-deep"),  # past the JSON decoder's recursion limit
    pytest.param(b'{"spans": "\xff"}'.decode("latin-1"), id="not-utf-8"),  # as written below
])
def test_malformed_record_names_file_and_line(tmp_path, line):
    seqs = generate_sequences(2, 8, make_specs(), seed=1)
    path = write_sequences(seqs, tmp_path, "calib")
    lines = path.read_text().splitlines()
    line = line.replace("DIR", str(tmp_path)).replace("NAME", tmp_path.name)
    path.write_text(lines[0] + "\n" + line + "\n", encoding="latin-1")  # one byte per character
    with pytest.raises(FormatError, match=f"{path}:2"):
        load_sequences(path)


# blob names a fuzzed record may give: the real blob, one holding NaN, a missing file,
# a directory, and names that are not plain file names
BLOB_NAMES = ["calib_embeddings.bin", "nan_embeddings.bin", "absent.bin", "model", "", "..",
              "model/manifest.json"]
# text from a fixed alphabet: hypothesis then builds no Unicode table, which took about 2 s
# in a checkout without a `.hypothesis` cache
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.integers(), st.floats(),
                         st.text("az./\"\u00e9", max_size=4), st.sampled_from(BLOB_NAMES))
span_items = st.fixed_dictionaries({}, optional={
    "modality": st.one_of(st.sampled_from(["visual", "language"]), json_scalars),
    "len": st.one_of(st.integers(-1, 12), json_scalars)})
records = st.fixed_dictionaries({}, optional={
    "spans": st.one_of(st.lists(span_items, max_size=3), json_scalars),
    "embeddings_file": st.one_of(st.sampled_from(BLOB_NAMES), json_scalars),
    "row_offset": st.one_of(st.integers(-1, 20), json_scalars),
    "dim": st.one_of(st.integers(-1, 12), json_scalars),
    "note": json_scalars})
# records of the right shape, so that blob names, offsets, widths and rows are reached
shaped_records = st.fixed_dictionaries({
    "spans": st.lists(st.fixed_dictionaries({"modality": st.sampled_from(["visual", "language"]),
                                             "len": st.integers(0, 9)}), min_size=1, max_size=3),
    "embeddings_file": st.sampled_from(BLOB_NAMES[:3]),
    "row_offset": st.integers(0, 17)}, optional={"dim": st.one_of(st.just(8), st.none(), st.integers(0, 12))})
lines = st.one_of(records.map(json.dumps).map(str.encode), st.lists(json_scalars, max_size=2).map(json.dumps).map(str.encode),
                  st.binary(max_size=12))
# a file of shaped records, or of any lines
files = st.one_of(st.lists(shaped_records.map(json.dumps).map(str.encode), min_size=1, max_size=3),
                  st.lists(lines, min_size=1, max_size=3))

# JSON values of any shape an edit may put anywhere: scalars, short lists and small objects
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text("abk", max_size=2), inner, max_size=2)), max_leaves=4)
DROP = object()  # an edit that removes its key or list item
# whole files that no edit makes: too deeply nested for the parser, an int past
# Python's 4300-digit limit, bytes that are not UTF-8, and JSON of the wrong type
odd_files = st.one_of(st.binary(max_size=12), st.sampled_from(
    [b"[" * 100_000, b"1" * 5000, b'{"target": ' + b"9" * 5000 + b"}", b"\xff\xfe{}", b"{}", b"[]", b"null"]))


def _edit(document, path: tuple, value):
    """Sets the value at `path` (dict keys and list indices) of `document` in place, or
    drops it; an edit whose path no longer leads anywhere does nothing."""
    node = document
    for key in path[:-1]:
        if isinstance(node, dict):
            node = node.get(key)
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return
    last = path[-1]
    if isinstance(node, dict) and isinstance(last, str):
        node.pop(last, None) if value is DROP else node.update({last: value})
    elif isinstance(node, list) and isinstance(last, int) and last < len(node):
        if value is DROP:
            del node[last]
        else:
            node[last] = value


def edited_json(document: dict, paths: list[tuple], values) -> st.SearchStrategy[bytes]:
    """`document` as JSON after up to 3 edits, each of which sets one of `paths` to one of
    `values` or drops it; or, one time in 8, one of `odd_files`."""
    def edited(edits) -> bytes:
        copy = json.loads(json.dumps(document))
        for path, value in edits:
            _edit(copy, path, value)
        return json.dumps(copy).encode()
    edits = st.lists(st.tuples(st.sampled_from(paths), st.one_of(values, json_values, st.just(DROP))),
                     min_size=1, max_size=3)
    return st.integers(0, 7).flatmap(lambda i: edits.map(edited) if i else odd_files)


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A d_model 8 model, and two blobs of 2 x 8 rows of width 8: one finite, one NaN."""
    directory = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(init_synthetic(8, 2, 8, 1, seed=0), directory / "model")
    write_sequences(generate_sequences(2, 8, make_specs(), seed=1), directory, "calib")
    (directory / "nan_embeddings.bin").write_bytes(np.full(2 * 8 * 8, np.nan, "<f4").tobytes())
    return directory


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(content=files)
def test_fuzzed_sequence_records_fail_only_as_format_errors(fuzz_workspace, content):
    path = fuzz_workspace / "fuzzed.jsonl"
    path.write_bytes(b"\n".join(content) + b"\n")
    try:
        for seq in load_sequences(path):
            assert seq.embeddings.shape == (len(seq), seq.dim)  # each access reads and checks the rows
        return
    except FormatError:
        pass
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["prune", "--model", str(fuzz_workspace / "model"), "--calib", str(path),
                         "--method", "magnitude", "--out", str(fuzz_workspace / "out")])
    assert code == 1
    assert json.loads(err.getvalue())["error"] == "FormatError"
