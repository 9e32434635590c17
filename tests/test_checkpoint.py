"""Checkpoint round-trip and corruption handling."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmprune.checkpoint import MANIFEST_NAME, MASKS_BLOB, WEIGHTS_BLOB, load_checkpoint, save_checkpoint
from mmprune.errors import FormatError, MMPruneError
from mmprune.model import PROJECTION_KINDS, forward, init_synthetic
from tests.test_data import edited_json
from tests.test_model import rng_seq


def dir_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_round_trip_is_bit_exact(tmp_path):
    model = init_synthetic(8, 2, 12, 3, seed=13)
    save_checkpoint(model, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.d_model == model.d_model and loaded.seed == model.seed
    for la, lb in zip(model.iter_layers(), loaded.iter_layers()):
        assert la.weight.tobytes() == lb.weight.tobytes()
    for ba, bb in zip(model.blocks, loaded.blocks):
        assert ba.attn_norm_scale.tobytes() == bb.attn_norm_scale.tobytes()


def test_save_load_save_produces_identical_bytes(tmp_path):
    model = init_synthetic(8, 2, 12, 2, seed=3)
    save_checkpoint(model, tmp_path / "a")
    save_checkpoint(load_checkpoint(tmp_path / "a"), tmp_path / "b")
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_masked_model_round_trips_masks_and_zeros(tmp_path):
    model = init_synthetic(8, 2, 12, 2, seed=5)
    rng = np.random.default_rng(0)
    for layer in model.iter_layers():
        layer.mask = rng.random(layer.weight.shape) > 0.5
        layer.apply_mask()
    save_checkpoint(model, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    for la, lb in zip(model.iter_layers(), loaded.iter_layers()):
        np.testing.assert_array_equal(la.mask, lb.mask)
        assert la.weight.tobytes() == lb.weight.tobytes()
        assert (lb.weight[~lb.mask] == 0.0).all()
    # behaviour identical too
    seq = rng_seq(6, 8, seed=1)
    assert forward(model, seq).tobytes() == forward(loaded, seq).tobytes()


def test_a_save_over_a_masked_checkpoint_leaves_what_a_fresh_save_leaves(tmp_path):
    masked = init_synthetic(8, 2, 12, 1, seed=1)
    for layer in masked.iter_layers():
        layer.mask = np.zeros(layer.weight.shape, dtype=bool)
        layer.apply_mask()
    save_checkpoint(masked, tmp_path / "ckpt")
    assert (tmp_path / "ckpt" / MASKS_BLOB).exists()
    dense = init_synthetic(8, 2, 12, 1, seed=2)
    save_checkpoint(dense, tmp_path / "ckpt")
    save_checkpoint(dense, tmp_path / "fresh")
    assert dir_bytes(tmp_path / "ckpt") == dir_bytes(tmp_path / "fresh")  # no stale masks.bin
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert all(layer.mask is None for layer in loaded.iter_layers())
    for a, b in zip(dense.iter_layers(), loaded.iter_layers()):
        assert a.weight.tobytes() == b.weight.tobytes()


def test_load_holds_one_copy_of_the_weights(tmp_path):
    save_checkpoint(init_synthetic(64, 4, 128, 4, seed=2), tmp_path / "ckpt")
    tracemalloc.start()
    try:
        loaded = load_checkpoint(tmp_path / "ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = sum(layer.weight.nbytes for layer in loaded.iter_layers())
    assert peak <= 1.1 * weights  # the blob held whole as well would double it


def test_truncated_blob_raises_format_error(tmp_path):
    model = init_synthetic(8, 2, 12, 1, seed=1)
    save_checkpoint(model, tmp_path / "ckpt")
    blob = tmp_path / "ckpt" / WEIGHTS_BLOB
    blob.write_bytes(blob.read_bytes()[:-1])
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "ckpt")


def test_missing_manifest_raises_format_error(tmp_path):
    model = init_synthetic(8, 2, 12, 1, seed=1)
    save_checkpoint(model, tmp_path / "ckpt")
    (tmp_path / "ckpt" / MANIFEST_NAME).unlink()
    with pytest.raises(FormatError, match="manifest"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("content", [b"{not json", b"[" * 100_000, b"\xff{}", b"1" * 5000],
                         ids=["not-json", "nested-too-deep", "not-utf-8", "int-of-5000-digits"])
def test_corrupt_manifest_raises_format_error(tmp_path, content):
    model = init_synthetic(8, 2, 12, 1, seed=1)
    save_checkpoint(model, tmp_path / "ckpt")
    (tmp_path / "ckpt" / MANIFEST_NAME).write_bytes(content)
    with pytest.raises(FormatError, match=f"corrupt {tmp_path / 'ckpt' / MANIFEST_NAME}"):
        load_checkpoint(tmp_path / "ckpt")


def test_missing_blob_named_in_error(tmp_path):
    model = init_synthetic(8, 2, 12, 1, seed=1)
    save_checkpoint(model, tmp_path / "ckpt")
    (tmp_path / "ckpt" / WEIGHTS_BLOB).unlink()
    with pytest.raises(FormatError, match=WEIGHTS_BLOB):
        load_checkpoint(tmp_path / "ckpt")


def test_a_failed_manifest_write_leaves_the_old_checkpoint_whole(tmp_path, monkeypatch):
    old = init_synthetic(8, 2, 12, 2, seed=1)
    save_checkpoint(old, tmp_path / "ckpt")
    before = dir_bytes(tmp_path / "ckpt")
    new = init_synthetic(8, 2, 12, 2, seed=2)
    for layer in new.iter_layers():
        layer.mask = np.arange(layer.weight.size).reshape(layer.weight.shape) % 2 == 0
        layer.apply_mask()
    real_write_bytes = Path.write_bytes

    def failing_write_bytes(path, data):
        if MANIFEST_NAME in path.name:
            raise OSError("no space left on device")
        return real_write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", failing_write_bytes)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(new, tmp_path / "ckpt")
    assert dir_bytes(tmp_path / "ckpt") == before  # no file replaced, no temporary file left
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert all(layer.mask is None for layer in loaded.iter_layers())
    for a, b in zip(old.iter_layers(), loaded.iter_layers()):
        assert a.weight.tobytes() == b.weight.tobytes()
    monkeypatch.undo()
    save_checkpoint(new, tmp_path / "ckpt")  # a later save replaces every file
    save_checkpoint(new, tmp_path / "fresh")
    assert dir_bytes(tmp_path / "ckpt") == dir_bytes(tmp_path / "fresh")


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """A saved 1-block, d_model 8 model whose q layer is masked, and its manifest."""
    directory = tmp_path_factory.mktemp("fuzz_checkpoint")
    model = init_synthetic(8, 2, 8, 1, seed=0)
    layer = model.layer(0, "q")
    layer.mask = np.arange(layer.weight.size).reshape(layer.weight.shape) % 3 > 0
    layer.apply_mask()
    save_checkpoint(model, directory)
    return directory, json.loads((directory / MANIFEST_NAME).read_text())


RECORD_FIELDS = ("block", "kind", "name", "shape", "blob", "offset", "mask_blob", "mask_offset")
MANIFEST_PATHS = ([(key,) for key in ("format_version", "d_model", "n_heads", "d_ff", "n_blocks", "seed",
                                      "layers", "norm_scales")]
                  + [("layers", i, key) for i in range(len(PROJECTION_KINDS)) for key in RECORD_FIELDS]
                  + [("norm_scales", i, key) for i in range(2) for key in RECORD_FIELDS]
                  + [("layers", i, "shape", axis) for i in range(len(PROJECTION_KINDS)) for axis in (0, 1)])
# values near the valid ones, so that edits reach the blob reads and the model's checks
MANIFEST_VALUES = st.sampled_from([0, 1, 2, 4, 7, 8, 64, 2**40, 2**63, -1, 1.0, True, "q", "down", "attn",
                                   WEIGHTS_BLOB, MASKS_BLOB, MANIFEST_NAME, "..", [8, 8], [8], [0, 8], [],
                                   [2**40, 2**40], [2**32, 2**32, 0]])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_fuzzed_manifests_fail_only_as_mmprune_errors(fuzz_checkpoint, data):
    directory, manifest = fuzz_checkpoint
    (directory / MANIFEST_NAME).write_bytes(data.draw(edited_json(manifest, MANIFEST_PATHS, MANIFEST_VALUES)))
    try:
        load_checkpoint(directory)
    except MMPruneError:
        pass
