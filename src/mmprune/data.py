"""Sequence file IO and synthetic data/model generators.

On disk a dataset is a JSONL file plus one shared float32 blob:

    {"spans": [{"modality": "visual", "len": 9}, ...],
     "embeddings_file": "calib_embeddings.bin", "row_offset": 0, "dim": 64}

one record per sequence, rows little-endian float32, row-major. Modality
ids are assigned by order of first appearance in the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, is_count
from .model import ModalityId, Span, TokenSequence, ToyModel, init_synthetic

DEFAULT_MODALITY_NAMES = ("visual", "language", "audio")
# The noisy-modality scenario's channel layout: the signal lives on SIGNAL_CHANNELS
# channels, and each calibration draw boosts OUTLIER_CHANNELS of the others.
SIGNAL_CHANNELS = 16
OUTLIER_CHANNELS = 8


def write_sequences(seqs: list[TokenSequence], directory: str | Path, prefix: str) -> Path:
    """Write `<prefix>.jsonl` plus `<prefix>_embeddings.bin`; returns the JSONL path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob_name = f"{prefix}_embeddings.bin"
    jsonl_path = directory / f"{prefix}.jsonl"

    rows = []
    records = []
    row_offset = 0
    for seq in seqs:
        records.append({
            "spans": [{"modality": s.modality.name, "len": s.length} for s in seq.spans],
            "embeddings_file": blob_name,
            "row_offset": row_offset,
            "dim": seq.dim,
        })
        rows.append(np.ascontiguousarray(seq.embeddings, dtype="<f4"))
        row_offset += len(seq)

    (directory / blob_name).write_bytes(
        np.concatenate(rows).tobytes() if rows else b"")
    with open(jsonl_path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return jsonl_path


def _check_record(record, where: str) -> None:
    """Raises FormatError, prefixed with `where`, unless `record` fits the schema above."""
    if not isinstance(record, dict):
        raise FormatError(f"{where}: record must be a JSON object")
    for key in ("spans", "embeddings_file", "row_offset"):
        if key not in record:
            raise FormatError(f"{where}: missing field {key!r}")
    spans = record["spans"]
    if not isinstance(spans, list) or not all(
            isinstance(s, dict) and isinstance(s.get("modality"), str) and is_count(s.get("len"))
            for s in spans):
        raise FormatError(f"{where}: 'spans' must be a list of {{'modality': str, 'len': int >= 0}}")
    if not isinstance(record["embeddings_file"], str):
        raise FormatError(f"{where}: 'embeddings_file' must be a string")
    if not is_count(record["row_offset"]):
        raise FormatError(f"{where}: 'row_offset' must be a non-negative integer, got {record['row_offset']!r}")
    if record.get("dim") is not None and not is_count(record["dim"]):
        raise FormatError(f"{where}: 'dim' must be a non-negative integer, got {record['dim']!r}")


def load_sequences(jsonl_path: str | Path) -> list[TokenSequence]:
    jsonl_path = Path(jsonl_path)
    if not jsonl_path.is_file():
        raise FormatError(f"missing sequence file {jsonl_path}")
    directory = jsonl_path.parent

    modalities: dict[str, ModalityId] = {}

    def modality(name: str) -> ModalityId:
        if name not in modalities:
            modalities[name] = ModalityId(len(modalities), name)
        return modalities[name]

    blobs: dict[str, np.ndarray] = {}

    def blob(name: str) -> np.ndarray:
        if name not in blobs:
            path = directory / name
            if not path.is_file():
                raise FormatError(f"missing embeddings blob {path}")
            raw = path.read_bytes()
            if len(raw) % 4 != 0:
                raise FormatError(f"{path}: size {len(raw)} is not a multiple of 4 bytes")
            blobs[name] = np.frombuffer(raw, dtype="<f4")
        return blobs[name]

    records = []
    with open(jsonl_path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise FormatError(f"{jsonl_path}:{line_no}: bad JSON: {err}") from err
            _check_record(record, f"{jsonl_path}:{line_no}")
            records.append((line_no, record))

    # records may omit "dim"; infer it from total rows referenced per blob
    rows_per_blob: dict[str, int] = {}
    for _, record in records:
        n = sum(item["len"] for item in record["spans"])
        name = record["embeddings_file"]
        rows_per_blob[name] = max(rows_per_blob.get(name, 0), record["row_offset"] + n)

    def blob_dim(name: str) -> int:
        total_rows = rows_per_blob[name]
        data = blob(name)
        if total_rows == 0 or data.size % total_rows != 0:
            raise FormatError(f"{name}: cannot infer row width from {data.size} values "
                              f"over {total_rows} rows")
        return data.size // total_rows

    seqs = []
    for line_no, record in records:
        span_items = record["spans"]
        offset = record["row_offset"]
        data = blob(record["embeddings_file"])
        dim = record.get("dim") or blob_dim(record["embeddings_file"])
        n = sum(item["len"] for item in span_items)
        start = offset * dim
        stop = start + n * dim
        if stop > data.size:
            raise FormatError(
                f"{record['embeddings_file']}: sequence at line {line_no} needs rows "
                f"[{offset}, {offset + n}) of dim {dim}, blob has {data.size // dim} rows")
        embeddings = data[start:stop].reshape(n, dim).copy()
        spans = []
        cursor = 0
        for item in span_items:
            spans.append(Span(modality(item["modality"]), cursor, item["len"]))
            cursor += item["len"]
        seqs.append(TokenSequence(embeddings, spans))
    return seqs


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class ModalitySpec:
    """One modality's token distribution: `offset * mu + scale * N(0, I)`.

    `mu` is a fixed unit direction per modality (drawn from the dataset
    seed), so modalities form distinct clusters in embedding space.
    """

    name: str
    tokens: int
    scale: float = 1.0
    offset: float = 1.5


def default_modality_specs(n_modalities: int, tokens_per_modality: int) -> list[ModalitySpec]:
    names = list(DEFAULT_MODALITY_NAMES[:n_modalities])
    names += [f"mod{i}" for i in range(len(names), n_modalities)]
    return [ModalitySpec(name, tokens_per_modality) for name in names]


def generate_sequences(n_sequences: int, d_model: int, specs: list[ModalitySpec],
                       seed: int, domain: int = 0) -> list[TokenSequence]:
    """Seeded sequences with one span per spec. `domain` separates calibration
    from eval draws while keeping the per-modality cluster directions shared."""
    directions = {}
    for m, spec in enumerate(specs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1013, m]))
        mu = rng.standard_normal(d_model)
        directions[spec.name] = mu / np.linalg.norm(mu)

    mods = {spec.name: ModalityId(m, spec.name) for m, spec in enumerate(specs)}
    seqs = []
    for i in range(n_sequences):
        rng = np.random.default_rng(np.random.SeedSequence([seed, domain, i]))
        parts = []
        spans = []
        cursor = 0
        for spec in specs:
            tokens = spec.offset * directions[spec.name] + spec.scale * rng.standard_normal((spec.tokens, d_model))
            parts.append(tokens)
            spans.append(Span(mods[spec.name], cursor, spec.tokens))
            cursor += spec.tokens
        embeddings = np.concatenate(parts).astype(np.float32) if parts else np.zeros((0, d_model), np.float32)
        seqs.append(TokenSequence(embeddings, spans))
    return seqs


# ---------------------------------------------------------------------------
# adversarial scenario: one modality is high-magnitude calibration noise


@dataclass
class NoisyScenario:
    model: ToyModel
    calib: list[TokenSequence]
    eval: list[TokenSequence]


def _signal_tokens(rng: np.random.Generator, n_tokens: int, mu: np.ndarray,
                   basis: np.ndarray) -> np.ndarray:
    """4 * mu, plus a latent draw on the rows of `basis`, plus small isotropic jitter."""
    latent = rng.standard_normal((n_tokens, basis.shape[0]))
    return 4.0 * mu + latent @ basis + 0.05 * rng.standard_normal((n_tokens, mu.shape[0]))


def make_noisy_modality_scenario(
    seed: int,
    *,
    d_model: int = 64,
    n_heads: int = 4,
    d_ff: int = 128,
    n_blocks: int = 4,
    n_calib: int = 24,
    n_eval: int = 12,
    calib_variant: int = 0,
) -> NoisyScenario:
    """Construct the scenario where naive full-token activations go wrong.

    Calibration sequences carry a span of 160 high-magnitude noise tokens
    living on the channels the signal never uses, plus a span of 28
    structured signal tokens whose energy concentrates on 16 channels.
    Eval sequences contain only signal tokens (the noise span is empty), so
    the noise statistics are pure calibration pollution: whole-set channel
    norms point at the wrong channels. The model interleaves full-rank
    blocks with "weak" blocks (1 and 3) whose residual-reading projections
    mostly pick up the shared signal direction at a deliberately small
    output scale, so their output tokens are near-collinear (low
    diversity) and carry little information worth protecting from pruning.

    `calib_variant` redraws the calibration token content without touching
    the model, channel structure, or eval set.
    """
    if d_model < SIGNAL_CHANNELS + OUTLIER_CHANNELS:
        raise ConfigError(f"the noisy-modality scenario needs d_model >= {SIGNAL_CHANNELS + OUTLIER_CHANNELS} "
                          f"({SIGNAL_CHANNELS} signal and {OUTLIER_CHANNELS} outlier channels), got {d_model}")
    root = np.random.SeedSequence([seed, 90210])
    struct_rng = np.random.default_rng(root.spawn(1)[0])

    channels = struct_rng.permutation(d_model)[:SIGNAL_CHANNELS]
    complement = np.setdiff1d(np.arange(d_model), channels)
    mu = np.zeros(d_model)
    mu[channels] = struct_rng.standard_normal(SIGNAL_CHANNELS)
    mu /= np.linalg.norm(mu)
    basis = np.zeros((8, d_model))  # an 8-dim latent signal subspace, rows of norm 2.5
    basis[:, channels] = struct_rng.standard_normal((8, SIGNAL_CHANNELS))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    basis *= 2.5

    # mean response of an RMS-normed signal token along mu, from a seeded probe
    probe = _signal_tokens(np.random.default_rng(root.spawn(1)[0]), 256, mu, basis)
    normed = probe / np.sqrt(np.mean(np.square(probe), axis=1, keepdims=True) + 1e-6)
    mu_response = float(np.mean(normed @ mu))

    model = init_synthetic(d_model, n_heads, d_ff, n_blocks, seed=seed)
    strong_output_norm = np.sqrt(d_model / 3.0)
    for b in range(n_blocks):
        block = model.blocks[b]
        if b in (1, 3):
            for kind in ("q", "k", "v", "gate", "up"):
                layer = block.layers[kind]
                u = struct_rng.standard_normal(layer.out_features)
                u /= np.linalg.norm(u)
                align = 0.3 * strong_output_norm / mu_response
                layer.weight = (align * np.outer(u, mu)
                                + 0.05 * layer.weight.astype(np.float64)).astype(np.float32)
        else:
            # Sharpen attention so contexts keep the v-outputs' diversity
            # instead of averaging the whole sequence into one direction.
            # A shared mu-reading component in q and k makes signal-to-signal
            # logits large and positive (noise tokens live on the complement
            # channels, so their keys get none of it), keeping the final
            # query's attention mass on the signal span.
            u_qk = struct_rng.standard_normal(d_model)
            u_qk /= np.linalg.norm(u_qk)
            align_qk = 1.4 * np.outer(u_qk, mu)
            for kind in ("q", "k"):
                layer = block.layers[kind]
                layer.weight = (2.5 * layer.weight.astype(np.float64) + align_qk).astype(np.float32)

    noise_mod = ModalityId(0, "visual")
    signal_mod = ModalityId(1, "language")

    def build(n_sequences: int, domain, with_noise: bool) -> list[TokenSequence]:
        out = []
        for i in range(n_sequences):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 90210, *domain, i]))
            n_noise = 160 if with_noise else 0
            # each draw puts its outlier energy on a different channel subset,
            # so whole-set channel norms depend heavily on the calibration draw
            scales = np.ones(len(complement))
            scales[rng.choice(len(complement), size=OUTLIER_CHANNELS, replace=False)] = 5.0
            noise = np.zeros((n_noise, d_model))
            noise[:, complement] = 8.0 * scales * rng.standard_normal((n_noise, len(complement)))
            signal = _signal_tokens(rng, 28, mu, basis)
            embeddings = np.concatenate([noise, signal]).astype(np.float32)
            spans = [Span(noise_mod, 0, n_noise), Span(signal_mod, n_noise, 28)]
            out.append(TokenSequence(embeddings, spans))
        return out

    return NoisyScenario(
        model=model,
        calib=build(n_calib, domain=(0, calib_variant), with_noise=True),
        eval=build(n_eval, domain=(1,), with_noise=False),
    )
