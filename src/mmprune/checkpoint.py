"""Checkpoint directory format: manifest.json + raw little-endian float32 blobs.

Layout:
  manifest.json  - dims, seed, per-layer records {block, kind, shape, blob, offset}
                   plus mask references and norm-scale records
  weights.bin    - all weights and norm scales, float32 LE, row-major
  masks.bin      - bit-packed keep-masks (np.packbits, big-endian bit order),
                   present only when at least one layer is masked

Offsets count elements (weights) or bytes (packed masks). Save/load round
trips are bit-exact, masks included.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

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
    (directory / WEIGHTS_BLOB).write_bytes(np.concatenate(weight_parts).tobytes())
    if mask_parts:
        (directory / MASKS_BLOB).write_bytes(np.concatenate(mask_parts).tobytes())
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return directory


def _read_f32(blob: np.ndarray, offset: int, shape: list[int], blob_name: str) -> np.ndarray:
    count = int(np.prod(shape))
    if offset < 0 or offset + count > blob.size:
        raise FormatError(f"{blob_name}: needed {count} float32 values at offset {offset}, blob has {blob.size}")
    return blob[offset:offset + count].reshape(shape).copy()


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
    except json.JSONDecodeError as err:
        raise FormatError(f"corrupt {manifest_path}: {err}") from err

    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest must be a JSON object")
    for key in ("d_model", "n_heads", "d_ff", "n_blocks", "seed", "layers", "norm_scales"):
        if key not in manifest:
            raise FormatError(f"{manifest_path}: missing field {key!r}")
    for key in ("d_model", "n_heads", "d_ff", "n_blocks"):
        if not is_count(manifest[key], 1):
            raise FormatError(f"{manifest_path}: {key!r} must be a positive integer, got {manifest[key]!r}")
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

    blobs: dict[str, np.ndarray] = {}
    raw_blobs: dict[str, bytes] = {}

    def blob_f32(name: str) -> np.ndarray:
        if name not in blobs:
            path = directory / name
            if not path.is_file():
                raise FormatError(f"missing blob {path}")
            data = path.read_bytes()
            if len(data) % 4 != 0:
                raise FormatError(f"{path}: size {len(data)} is not a multiple of 4 bytes")
            blobs[name] = np.frombuffer(data, dtype="<f4")
        return blobs[name]

    def blob_bytes(name: str) -> bytes:
        if name not in raw_blobs:
            path = directory / name
            if not path.is_file():
                raise FormatError(f"missing blob {path}")
            raw_blobs[name] = path.read_bytes()
        return raw_blobs[name]

    layer_map: dict[tuple[int, str], LinearLayer] = {}
    for record in manifest["layers"]:
        weight = _read_f32(blob_f32(record["blob"]), record["offset"], record["shape"], record["blob"])
        layer = LinearLayer(weight, record["kind"], record["block"])
        if "mask_blob" in record:
            data = blob_bytes(record["mask_blob"])
            n_bits = weight.size
            n_bytes = (n_bits + 7) // 8
            start = record["mask_offset"]
            if start < 0 or start + n_bytes > len(data):
                raise FormatError(f"{record['mask_blob']}: needed {n_bytes} bytes at offset {start}, blob has {len(data)}")
            packed = np.frombuffer(data[start:start + n_bytes], dtype=np.uint8)
            layer.mask = np.unpackbits(packed, count=n_bits).astype(bool).reshape(weight.shape)
        layer_map[(record["block"], record["kind"])] = layer

    scale_map: dict[tuple[int, str], np.ndarray] = {}
    for record in manifest["norm_scales"]:
        scale_map[(record["block"], record["name"])] = _read_f32(
            blob_f32(record["blob"]), record["offset"], record["shape"], record["blob"])

    blocks = []
    for b in range(manifest["n_blocks"]):
        layers = {kind: layer_map[(b, kind)] for kind in PROJECTION_KINDS}
        blocks.append(Block(b, layers, scale_map[(b, "attn")], scale_map[(b, "ffn")]))

    return ToyModel(blocks, manifest["n_heads"], manifest["d_model"], manifest["d_ff"], manifest["seed"])
