"""Sequence file IO and synthetic data/model generators.

On disk a dataset is a JSONL file plus one shared float32 blob:

    {"spans": [{"modality": "visual", "len": 9}, ...],
     "embeddings_file": "calib_embeddings.bin", "row_offset": 0, "dim": 64}

one record per sequence, rows little-endian float32, row-major. The blob
is a plain file name in the JSONL file's directory. Modality ids are
assigned by order of first appearance in the file.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, NumericError, ShapeError, is_count
from .model import ModalityId, Span, TokenSequence, ToyModel, init_synthetic

DEFAULT_MODALITY_NAMES = ("visual", "language", "audio")
# The noisy-modality scenario's channel layout: the signal lives on SIGNAL_CHANNELS
# channels, and each calibration draw boosts OUTLIER_CHANNELS of the others.
SIGNAL_CHANNELS = 16
OUTLIER_CHANNELS = 8


def write_sequences(seqs: Iterable[TokenSequence], directory: str | Path, prefix: str) -> Path:
    """Write `<prefix>.jsonl` plus `<prefix>_embeddings.bin`, taking one sequence of
    `seqs` at a time; returns the JSONL path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob_path = directory / f"{prefix}_embeddings.bin"
    jsonl_path = directory / f"{prefix}.jsonl"
    temps = {path: path.with_name(f".{path.name}.tmp") for path in (blob_path, jsonl_path)}

    row_offset = 0
    # Sequences loaded from the files being replaced read them until the end, and a
    # failed write leaves them whole and no temporary file behind.
    try:
        with open(temps[blob_path], "wb") as blob, open(temps[jsonl_path], "w", encoding="utf-8") as f:
            for seq in seqs:
                record = {
                    "spans": [{"modality": s.modality.name, "len": s.length} for s in seq.spans],
                    "embeddings_file": blob_path.name,
                    "row_offset": row_offset,
                    "dim": seq.dim,
                }
                f.write(json.dumps(record, sort_keys=True) + "\n")
                blob.write(np.ascontiguousarray(seq.embeddings, dtype="<f4"))
                row_offset += len(seq)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
    return jsonl_path


class BlobReader:
    """Reads the blob files beside an input in `directory`. A blob name must be a plain
    file name, so an input reads only files in its own directory. A blob's size and
    mtime come from its file's stat at the first use of its name. Each read checks them
    again, so a blob that changed since is a FormatError, and takes only the values
    asked for into an array of its own, so a load holds one copy of what it reads."""

    def __init__(self, directory: Path):
        self.directory = directory
        self._files: dict[str, tuple[Path, tuple[int, int]]] = {}  # name -> (path, (bytes, mtime in ns))

    def size(self, name: str, where: str, dtype: str | np.dtype) -> int:
        """How many little-endian `dtype` values the blob `name` holds. A FormatError
        about the name itself starts with `where`."""
        if name not in self._files:
            if name in ("", ".", "..") or Path(name).name != name:
                raise FormatError(f"{where}: blob {name!r} must be a plain file name in {self.directory}")
            path = self.directory / name
            if not path.is_file():
                raise FormatError(f"missing blob {path}")
            stat = path.stat()
            self._files[name] = (path, (stat.st_size, stat.st_mtime_ns))
        path, (size, _) = self._files[name]
        itemsize = np.dtype(dtype).itemsize
        if size % itemsize:
            raise FormatError(f"{path}: size {size} is not a multiple of {itemsize} bytes")
        return size // itemsize

    def read(self, name: str, where: str, dtype: str, offset: int, count: int) -> np.ndarray:
        """`count` little-endian `dtype` values of the blob `name`, from value `offset` on."""
        dtype = np.dtype(dtype)
        values = self.size(name, where, dtype)
        if offset < 0 or offset + count > values:
            unit = "bytes" if dtype.itemsize == 1 else f"{dtype.name} values"
            raise FormatError(f"{where}: needs {count} {unit} of blob {name} at offset {offset}, it has {values}")
        path, stamp = self._files[name]
        data = np.empty(count, dtype)
        fd = os.open(path, os.O_RDONLY)  # opened per read, so a blob replaced at its path is seen
        try:
            stat = os.fstat(fd)
            if (stat.st_size, stat.st_mtime_ns) != stamp:
                raise FormatError(f"blob {path} changed since it was loaded: {where} cannot be read again")
            read = os.preadv(fd, [data], offset * dtype.itemsize)
        finally:
            os.close(fd)
        if read != data.nbytes:
            raise FormatError(f"{path} changed while {where} was read")
        return data


class BlobSequence(TokenSequence):
    """A TokenSequence whose rows stay in the blob of its loaded dataset. `len` and `dim`
    come from the rows given, which are checked and never kept; `embeddings` reads the
    rows through the BlobReader given on each access, checks them as a TokenSequence
    does, and compares their crc32 with the one taken at construction, so rows changed
    since are a FormatError even where the blob's size and mtime are not."""

    def __init__(self, embeddings: np.ndarray, spans: list[Span], blobs: BlobReader, name: str,
                 where: str, offset: int):
        self.spans = list(spans)
        self.where = where
        rows = self.checked(embeddings)  # the rows are checked here, never kept
        self._shape = n, dim = rows.shape
        self._crc = zlib.crc32(rows)
        self.blob = blobs.directory / name  # the path of the file the rows stay in
        self._read = partial(blobs.read, name, where, "<f4", offset * dim, n * dim)

    def checked(self, embeddings: np.ndarray) -> np.ndarray:
        """TokenSequence's checks, failing as a FormatError that names the record."""
        try:
            return super().checked(embeddings)
        except (ShapeError, NumericError) as err:
            raise FormatError(f"{self.where}: {err}") from err

    def __len__(self) -> int:
        return self._shape[0]

    @property
    def dim(self) -> int:
        return self._shape[1]

    @property
    def embeddings(self) -> np.ndarray:
        rows = self.checked(self._read().reshape(self._shape))
        if zlib.crc32(rows) != self._crc:
            raise FormatError(f"blob {self.blob} changed since it was loaded: {self.where} cannot be read again")
        return rows


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
    if not sum(s["len"] for s in spans):
        raise FormatError(f"{where}: 'spans' cover no tokens")
    if not isinstance(record["embeddings_file"], str):
        raise FormatError(f"{where}: 'embeddings_file' must be a string")
    if not is_count(record["row_offset"]):
        raise FormatError(f"{where}: 'row_offset' must be a non-negative integer, got {record['row_offset']!r}")
    if record.get("dim") is not None and not is_count(record["dim"]):
        raise FormatError(f"{where}: 'dim' must be a non-negative integer, got {record['dim']!r}")


def load_sequences(jsonl_path: str | Path) -> list[BlobSequence]:
    """The sequences of a JSONL file, each record checked and its rows read once, as
    BlobSequences that hold no rows: each pass over them reads the blob again."""
    jsonl_path = Path(jsonl_path)
    if not jsonl_path.is_file():
        raise FormatError(f"missing sequence file {jsonl_path}")
    modalities: dict[str, ModalityId] = {}

    def modality(name: str) -> ModalityId:
        if name not in modalities:
            modalities[name] = ModalityId(len(modalities), name)
        return modalities[name]

    records = []  # per record: (line number, spans, blob name, row offset, dim or None)
    with open(jsonl_path, "rb") as f:  # json decodes each line, so bad UTF-8 names its line
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or nested too deep
                raise FormatError(f"{jsonl_path}:{line_no}: bad JSON: {err}") from err
            _check_record(record, f"{jsonl_path}:{line_no}")
            spans = []
            cursor = 0
            for item in record["spans"]:
                spans.append(Span(modality(item["modality"]), cursor, item["len"]))
                cursor += item["len"]
            records.append((line_no, spans, record["embeddings_file"], record["row_offset"], record.get("dim")))

    # records may omit "dim"; infer it from total rows referenced per blob
    rows_per_blob: dict[str, int] = {}
    for _, spans, name, offset, _ in records:
        rows_per_blob[name] = max(rows_per_blob.get(name, 0), offset + sum(s.length for s in spans))

    blobs = BlobReader(jsonl_path.parent)
    seqs = []
    for line_no, spans, name, offset, dim in records:
        where = f"{jsonl_path}:{line_no}"
        values = blobs.size(name, where, "<f4")
        total_rows = rows_per_blob[name]
        if not dim and (values < total_rows or values % total_rows):  # a record covers >= 1 row
            raise FormatError(f"{name}: cannot infer row width from {values} values "
                              f"over {total_rows} rows")
        dim = dim or values // total_rows
        n = sum(s.length for s in spans)
        if (offset + n) * dim > values:
            raise FormatError(
                f"{name}: sequence at line {line_no} needs rows "
                f"[{offset}, {offset + n}) of dim {dim}, blob has {values // dim} rows")
        rows = blobs.read(name, where, "<f4", offset * dim, n * dim).reshape(n, dim)
        seqs.append(BlobSequence(rows, spans, blobs, name, where, offset))
        del rows  # before the next record's read: a load holds one record's rows
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
    """`draw_sequences` as a list."""
    return list(draw_sequences(n_sequences, d_model, specs, seed, domain))


def draw_sequences(n_sequences: int, d_model: int, specs: list[ModalitySpec],
                   seed: int, domain: int = 0) -> Iterator[TokenSequence]:
    """Seeded sequences with one span per spec, drawn one at a time. `domain` separates
    calibration from eval draws while keeping the per-modality cluster directions shared."""
    directions = {}
    for m, spec in enumerate(specs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1013, m]))
        mu = rng.standard_normal(d_model)
        directions[spec.name] = mu / np.linalg.norm(mu)

    mods = {spec.name: ModalityId(m, spec.name) for m, spec in enumerate(specs)}

    def one(i: int) -> TokenSequence:
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
        return TokenSequence(embeddings, spans)

    return map(one, range(n_sequences))  # a draw's temporaries end with `one`, before the next draw


# ---------------------------------------------------------------------------
# adversarial scenario: one modality is high-magnitude calibration noise


@dataclass
class NoisyScenario:
    """The scenario's model and data: `draw_calib()` and `draw_eval()` draw the sequences
    one at a time, and `calib` and `eval` list them, drawn on first use."""

    model: ToyModel
    draw_calib: Callable[[], Iterator[TokenSequence]]
    draw_eval: Callable[[], Iterator[TokenSequence]]

    @cached_property
    def calib(self) -> list[TokenSequence]:
        return list(self.draw_calib())

    @cached_property
    def eval(self) -> list[TokenSequence]:
        return list(self.draw_eval())


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
    outside = np.ones(d_model, dtype=bool)
    outside[channels] = False
    complement = np.flatnonzero(outside)  # the other channels, ascending
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

    def one(domain: tuple, with_noise: bool, i: int) -> TokenSequence:
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
        return TokenSequence(embeddings, spans)

    # `map` draws each sequence when it is reached; a draw's temporaries end with `one`
    return NoisyScenario(
        model=model,
        draw_calib=lambda: map(partial(one, (0, calib_variant), True), range(n_calib)),
        draw_eval=lambda: map(partial(one, (1,), False), range(n_eval)),
    )
