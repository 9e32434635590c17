"""Output-token diversity statistics and layer importance scores.

Diversity is the mean pairwise cosine distance among a layer's output
tokens: within one modality (intra), across two modalities (inter), or
over all tokens (the all-token ablation). A layer's importance is the
unweighted mean of all intra and pairwise inter terms, which for two
modalities reduces to (s_v + s_l + s_vl) / 3.

Pair means are exact and O(N * C), in closed form over unit rows u_i:

    intra(n rows) = 1 - (||sum u||^2 - sum ||u_i||^2) / (n (n - 1))
    inter(a, b)   = 1 - (sum_a u . sum_b u) / (n_a n_b)

clipped to [0, 2]. A zero row has a zero unit row (`unit_rows` floors
its norm), so it sits at distance 1 from every other row; subtracting
sum ||u_i||^2 rather than n keeps that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .model import Span

NORM_FLOOR = 1e-12
NORM_BLOCK_ELEMENTS = 2**15  # 256 KB of float64


def unit_rows(z) -> np.ndarray:
    """z's rows over their norms (floored at NORM_FLOOR), as one new float64 array,
    whatever z's type: an array, or nested lists of arrays, filled straight from them.
    The norms are `np.linalg.norm`'s, taken over blocks of rows of at most
    NORM_BLOCK_ELEMENTS values, so no temporary is larger than one block."""
    unit = np.array(z, dtype=np.float64)
    rows = unit.reshape(int(np.prod(unit.shape[:-1])), unit.shape[-1])
    step = max(1, NORM_BLOCK_ELEMENTS // max(1, rows.shape[1]))
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        block /= np.maximum(np.sqrt(np.add.reduce(np.square(block), axis=-1, keepdims=True)), NORM_FLOOR)
    return unit


def _row_sums(unit: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Over rows [start, stop) of each (N, C) matrix of a (..., N, C) stack: the sum of
    the rows (..., C) and the sum of their squared norms (...)."""
    rows = unit[..., start:stop, :]
    flat = rows.reshape(rows.shape[:-2] + (1, rows.shape[-2] * rows.shape[-1]))
    # one BLAS dot per matrix, as np.vdot(rows, rows) of one matrix computes it
    return rows.sum(axis=-2), (flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each vector of two (..., C) stacks, one BLAS dot each."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pair_mean(total: np.ndarray, sq_norms: np.ndarray, n: int) -> np.ndarray:
    """Mean cosine distance over unordered pairs i != j of each row set of n rows, from
    the `_row_sums` of its unit rows."""
    return np.minimum(np.maximum(1.0 - (_dots(total, total) - sq_norms) / (n * (n - 1)), 0.0), 2.0)


def _cross_mean(total_a: np.ndarray, n_a: int, total_b: np.ndarray, n_b: int) -> np.ndarray:
    """Mean cosine distance over the full cross product of each pair of row sets, from
    the row sums of their unit rows."""
    return np.minimum(np.maximum(1.0 - _dots(total_a, total_b) / (n_a * n_b), 0.0), 2.0)


def layer_importance(intra: dict[str, float], inter: dict[tuple[str, str], float],
                     layer: str = "this layer") -> float:
    """Unweighted mean of every present intra and inter diversity term."""
    terms = list(intra.values()) + list(inter.values())
    if not terms:
        raise DegenerateInputError(f"no diversity terms present for {layer}")
    return float(np.mean(terms))


def block_input_output_similarity(block_in: np.ndarray, block_out: np.ndarray) -> float:
    """Mean per-token cosine similarity between a block's input and output rows."""
    block_in = np.asarray(block_in, dtype=np.float64)
    block_out = np.asarray(block_out, dtype=np.float64)
    if block_in.shape != block_out.shape:
        raise ShapeError(f"block io shapes differ: {block_in.shape} vs {block_out.shape}")
    cos = np.einsum("ij,ij->i", unit_rows(block_in), unit_rows(block_out))
    return float(np.clip(cos, -1.0, 1.0).mean())


@dataclass
class DiversityStats:
    """Aggregated diversity terms for one layer.

    `importance` is the mean of the stored intra/inter terms; `all_token`
    backs the all-token ablation. Values are means over the calibration
    samples in which each term was computable.
    """

    intra: dict[str, float] = field(default_factory=dict)
    inter: dict[tuple[str, str], float] = field(default_factory=dict)
    importance: float = 0.0
    all_token: float = float("nan")


class DiversityAccumulator:
    """Streams layer outputs and averages diversity terms.

    Terms are computed per sample, then averaged over the samples where
    they exist (spans with fewer than 2 tokens, or empty spans for inter
    terms, are skipped for that sample). Each term's sum adds one value per
    sample, in the order the samples are added.
    """

    def __init__(self):
        self._sums: dict[tuple[int, str], dict] = {}

    def _entry(self, key) -> dict:
        return self._sums.setdefault(key, {"intra": {}, "inter": {}, "all": {}})

    def add(self, samples) -> None:
        """Adds a chunk's samples' `layer_outputs`: per run with one span layout, one stack
        per output shape. The first chunk registers the layers, so `finalize` keeps their order."""
        for spans, run in groupby(samples, key=lambda sample: sample.spans):
            run = list(run)
            by_shape: dict[tuple[int, ...], list] = {}
            for key, z in run[0].layer_outputs.items():
                self._entry(key)
                by_shape.setdefault(z.shape, []).append(key)
            for keys in by_shape.values():
                # nested lists, so that `unit_rows` makes the one float64 stack
                self.add_layer_sample(keys, [[sample.layer_outputs[key] for sample in run] for key in keys], spans)

    def add_layer_sample(self, keys, z, spans: list[Span]) -> None:
        """Adds the outputs z of layers `keys` on samples that share the span layout
        `spans`: an (L, S, N, C) stack, or L lists of S (N, C) arrays, holding layer
        keys[l] of S samples, in sample order. One sample's (N, C) outputs of one
        layer, under one key, are a stack of one."""
        unit = unit_rows(z)
        if unit.ndim == 2:
            keys, unit = [keys], unit[None, None]
        if unit.ndim != 4 or len(keys) != unit.shape[0] or not unit.shape[1]:
            raise ShapeError(f"{len(keys)} layer keys for an output stack of shape {unit.shape}")

        ids: dict[str, int] = {}
        sums: dict[str, tuple] = {}  # name -> (row sums (L, S, C), squared norms (L, S), rows)
        for span in spans:
            name = span.modality.name
            ids.setdefault(name, span.modality.id)
            part = (*_row_sums(unit, span.start, span.stop), span.length)
            sums[name] = tuple(a + b for a, b in zip(sums[name], part)) if name in sums else part
        order = sorted(ids, key=ids.get)

        terms: list[tuple[str, object, np.ndarray]] = []  # (field, name or pair, values (L, S))
        for name in order:
            total, sq_norms, n = sums[name]
            if n >= 2:
                terms.append(("intra", name, _pair_mean(total, sq_norms, n)))
        for i, name_a in enumerate(order):
            for name_b in order[i + 1:]:
                (total_a, _, n_a), (total_b, _, n_b) = sums[name_a], sums[name_b]
                if n_a and n_b:
                    terms.append(("inter", (name_a, name_b), _cross_mean(total_a, n_a, total_b, n_b)))
        n = unit.shape[2]
        if n >= 2:
            terms.append(("all", None, _pair_mean(*_row_sums(unit, 0, n), n)))

        terms = [(field_name, name, values.tolist()) for field_name, name, values in terms]
        for layer, key in enumerate(keys):
            entry = self._entry(key)
            for field_name, name, values in terms:
                s, c = entry[field_name].get(name, (0.0, 0))
                for value in values[layer]:
                    s += value
                    c += 1
                entry[field_name][name] = (s, c)

    def finalize(self) -> dict[tuple[int, str], DiversityStats]:
        out = {}
        for key, entry in self._sums.items():
            intra = {name: s / c for name, (s, c) in entry["intra"].items()}
            inter = {pair: s / c for pair, (s, c) in entry["inter"].items()}
            all_sum, all_count = entry["all"].get(None, (0.0, 0))
            stats = DiversityStats(
                intra=intra,
                inter=inter,
                importance=layer_importance(intra, inter, layer=f"layer {key[0]}:{key[1]}"),
                all_token=(all_sum / all_count) if all_count else float("nan"),
            )
            out[key] = stats
        return out
