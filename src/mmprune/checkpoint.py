"""Checkpoint directory format: manifest.json + raw little-endian float32 blobs.

Layout:
  manifest.json  - dims, seed, per-layer records {block, kind, shape, blob, offset}
                   plus mask references and norm-scale records
  weights.bin    - all weights and norm scales, float32 LE, row-major
  masks.bin      - bit-packed keep-masks (np.packbits, big-endian bit order),
                   present only when at least one layer is masked

Offsets count elements (weights) or bytes (packed masks). Save/load round
trips are bit-exact, masks included. A weight that its mask drops must be
stored as zero. Saves are atomic per file: each file is written under a
temporary name, then moved into place, the blobs before the manifest; then
a blob the new manifest does not name is removed. A manifest's blob names
are plain file names in its directory.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .data import BlobReader
from .errors import FormatError, is_count
from .model import PROJECTION_KINDS, Block, LinearLayer, ToyModel

MANIFEST_NAME = "manifest.json"
WEIGHTS_BLOB = "weights.bin"
MASKS_BLOB = "masks.bin"
FORMAT_VERSION = 1


def save_checkpoint(model: ToyModel, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    weight_parts: list[np.ndarray] = []
    mask_parts: list[np.ndarray] = []
    layers = []
    norm_scales = []
    weight_offset = 0
    mask_offset = 0

    for block in model.blocks:
        for kind in PROJECTION_KINDS:
            layer = block.layers[kind]
            record = {
                "block": block.index,
                "kind": kind,
                "shape": list(layer.weight.shape),
                "blob": WEIGHTS_BLOB,
                "offset": weight_offset,
            }
            weight_parts.append(np.ascontiguousarray(layer.weight, dtype="<f4").ravel())
            weight_offset += layer.weight.size
            if layer.mask is not None:
                packed = np.packbits(layer.mask.ravel())
                record["mask_blob"] = MASKS_BLOB
                record["mask_offset"] = mask_offset
                mask_parts.append(packed)
                mask_offset += packed.size
            layers.append(record)
        for name, vec in (("attn", block.attn_norm_scale), ("ffn", block.ffn_norm_scale)):
            norm_scales.append({
                "block": block.index,
                "name": name,
                "shape": [int(vec.size)],
                "blob": WEIGHTS_BLOB,
                "offset": weight_offset,
            })
            weight_parts.append(np.ascontiguousarray(vec, dtype="<f4").ravel())
            weight_offset += vec.size

    manifest = {
        "format_version": FORMAT_VERSION,
        "d_model": model.d_model,
        "n_heads": model.n_heads,
        "d_ff": model.d_ff,
        "n_blocks": model.n_blocks,
        "seed": model.seed,
        "layers": layers,
        "norm_scales": norm_scales,
    }
    blobs = {WEIGHTS_BLOB: weight_parts}
    if mask_parts:
        blobs[MASKS_BLOB] = mask_parts
    temps = {name: directory / f".{name}.tmp" for name in [*blobs, MANIFEST_NAME]}
    try:  # a failed write leaves the old checkpoint whole, and no temporary file behind
        for name, parts in blobs.items():
            with open(temps[name], "wb") as f:  # part by part: no copy of the whole blob
                for part in parts:
                    f.write(part)
        temps[MANIFEST_NAME].write_bytes((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
        for name, temp in temps.items():
            os.replace(temp, directory / name)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
    for name in {WEIGHTS_BLOB, MASKS_BLOB} - blobs.keys():  # the manifest no longer names it
        (directory / name).unlink(missing_ok=True)
    return directory


def _record_problem(record, name_field: str) -> str | None:
    """What is wrong with one layer or norm-scale record, or None."""
    if not isinstance(record, dict):
        return "is not a JSON object"
    masked = "mask_blob" in record
    for key in ("block", "offset") + (("mask_offset",) if masked else ()):
        if not is_count(record.get(key)):
            return f"{key!r} must be a non-negative integer, got {record.get(key)!r}"
    for key in ("blob", name_field) + (("mask_blob",) if masked else ()):
        if not isinstance(record.get(key), str):
            return f"{key!r} must be a string, got {record.get(key)!r}"
    shape = record.get("shape")
    if not isinstance(shape, list) or not all(is_count(dim) for dim in shape):
        return f"'shape' must be a list of non-negative integers, got {shape!r}"
    return None


def load_checkpoint(directory: str | Path) -> ToyModel:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FormatError(f"missing {manifest_path}")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or nested too deep
        raise FormatError(f"corrupt {manifest_path}: {err}") from err

    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest must be a JSON object")
    for key in ("d_model", "n_heads", "d_ff", "n_blocks", "seed", "layers", "norm_scales"):
        if key not in manifest:
            raise FormatError(f"{manifest_path}: missing field {key!r}")
    for key, low in (("d_model", 1), ("n_heads", 1), ("d_ff", 1), ("n_blocks", 1), ("seed", 0)):
        if not is_count(manifest[key], low):
            raise FormatError(f"{manifest_path}: {key!r} must be an integer >= {low}, got {manifest[key]!r}")
    version = manifest.get("format_version")
    if not (is_count(version) and version == FORMAT_VERSION):
        raise FormatError(f"{manifest_path}: 'format_version' must be {FORMAT_VERSION}, got {version!r}")
    n_blocks = manifest["n_blocks"]
    for section, name_field, names in (("layers", "kind", PROJECTION_KINDS),
                                       ("norm_scales", "name", ("attn", "ffn"))):
        if not isinstance(manifest[section], list):
            raise FormatError(f"{manifest_path}: {section!r} must be a list")
        seen = set()
        for i, record in enumerate(manifest[section]):
            problem = _record_problem(record, name_field)
            if problem is None and section == "norm_scales" and record["shape"] != [manifest["d_model"]]:
                problem = f"'shape' must be [d_model] = [{manifest['d_model']}], got {record['shape']!r}"
            if problem is None:
                key = (record["block"], record[name_field])
                if key[0] >= n_blocks or key[1] not in names:
                    problem = f"(block, {name_field}) = {key!r} is outside {n_blocks} blocks x {names}"
                elif key in seen:
                    problem = f"repeats (block, {name_field}) = {key!r}"
                seen.add(key)
            if problem:
                raise FormatError(f"{manifest_path}: {section}[{i}] {problem}")
        if len(seen) < n_blocks * len(names):
            # Lazy, so a huge n_blocks stops just past the records instead of listing every key.
            gap = next((b, name) for b in range(n_blocks) for name in names if (b, name) not in seen)
            raise FormatError(f"{manifest_path}: {section} has no record for (block, {name_field}) = {gap!r}")

    blobs = BlobReader(directory)

    def read_f32(record, where: str) -> np.ndarray:
        shape = record["shape"]
        return blobs.read(record["blob"], where, "<f4", record["offset"], math.prod(shape)).reshape(shape)

    layer_map: dict[tuple[int, str], LinearLayer] = {}
    for i, record in enumerate(manifest["layers"]):
        where = f"{manifest_path}: layers[{i}]"
        weight = read_f32(record, where)
        layer = LinearLayer(weight, record["kind"], record["block"])
        if "mask_blob" in record:
            n_bits = weight.size
            packed = blobs.read(record["mask_blob"], where, "u1", record["mask_offset"], (n_bits + 7) // 8)
            layer.mask = np.unpackbits(packed, count=n_bits).astype(bool).reshape(weight.shape)
            if weight[~layer.mask].any():  # forward runs on the stored weights, not the mask
                raise FormatError(f"{where} has non-zero weights where its mask drops them")
        layer_map[(record["block"], record["kind"])] = layer

    scale_map: dict[tuple[int, str], np.ndarray] = {}
    for i, record in enumerate(manifest["norm_scales"]):
        scale_map[(record["block"], record["name"])] = read_f32(record, f"{manifest_path}: norm_scales[{i}]")

    blocks = []
    for b in range(manifest["n_blocks"]):
        layers = {kind: layer_map[(b, kind)] for kind in PROJECTION_KINDS}
        blocks.append(Block(b, layers, scale_map[(b, "attn")], scale_map[(b, "ffn")]))

    return ToyModel(blocks, manifest["n_heads"], manifest["d_model"], manifest["d_ff"], manifest["seed"])
