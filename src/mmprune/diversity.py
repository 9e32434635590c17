"""Output-token diversity statistics and layer importance scores.

Diversity is the mean pairwise cosine distance among a layer's output
tokens: within one modality (intra), across two modalities (inter), or
over all tokens (the all-token ablation). A layer's importance is the
unweighted mean of all intra and pairwise inter terms, which for two
modalities reduces to (s_v + s_l + s_vl) / 3.

Pair means are exact and O(N * C), in closed form over unit rows u_i:

    intra(n rows) = 1 - (||sum u||^2 - sum ||u_i||^2) / (n (n - 1))
    inter(a, b)   = 1 - (sum_a u . sum_b u) / (n_a n_b)

clipped to [0, 2]. A zero row has a zero unit row (`_unit_rows` floors
its norm), so it sits at distance 1 from every other row; subtracting
sum ||u_i||^2 rather than n keeps that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .model import Span

NORM_FLOOR = 1e-12


def _unit_rows(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    return z / np.maximum(norms, NORM_FLOOR)


def _row_sums(unit: np.ndarray, idx: slice) -> tuple[np.ndarray, float, int]:
    """(sum of the rows, sum of their squared norms, row count) over unit[idx]."""
    rows = unit[idx]
    return rows.sum(axis=0), float(np.vdot(rows, rows)), len(rows)


def _pair_mean(sums: tuple[np.ndarray, float, int]) -> float:
    """Mean cosine distance over unordered pairs i != j of one row set, from its `_row_sums`."""
    total, sq_norms, n = sums
    return min(max(1.0 - float(total @ total - sq_norms) / (n * (n - 1)), 0.0), 2.0)


def _cross_mean(sums_a: tuple[np.ndarray, float, int], sums_b: tuple[np.ndarray, float, int]) -> float:
    """Mean cosine distance over the full cross product of two row sets, from their `_row_sums`."""
    return min(max(1.0 - float(sums_a[0] @ sums_b[0]) / (sums_a[2] * sums_b[2]), 0.0), 2.0)


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
    cos = np.einsum("ij,ij->i", _unit_rows(block_in), _unit_rows(block_out))
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
    """Streams per-sample layer outputs and averages diversity terms.

    Terms are computed per sample, then averaged over the samples where
    they exist (spans with fewer than 2 tokens, or empty spans for inter
    terms, are skipped for that sample).
    """

    def __init__(self):
        self._sums: dict[tuple[int, str], dict] = {}

    def add_layer_sample(self, key: tuple[int, str], z: np.ndarray, spans: list[Span]) -> None:
        entry = self._sums.setdefault(key, {"intra": {}, "inter": {}, "all": [0.0, 0]})
        unit = _unit_rows(z)

        ids: dict[str, int] = {}
        sums: dict[str, tuple[np.ndarray, float, int]] = {}
        for span in spans:
            name = span.modality.name
            ids.setdefault(name, span.modality.id)
            part = _row_sums(unit, slice(span.start, span.stop))
            sums[name] = tuple(a + b for a, b in zip(sums[name], part)) if name in sums else part
        order = sorted(ids, key=ids.get)

        for name in order:
            if sums[name][2] >= 2:
                value = _pair_mean(sums[name])
                s, c = entry["intra"].get(name, (0.0, 0))
                entry["intra"][name] = (s + value, c + 1)
        for i, name_a in enumerate(order):
            for name_b in order[i + 1:]:
                if sums[name_a][2] and sums[name_b][2]:
                    value = _cross_mean(sums[name_a], sums[name_b])
                    s, c = entry["inter"].get((name_a, name_b), (0.0, 0))
                    entry["inter"][(name_a, name_b)] = (s + value, c + 1)
        if z.shape[0] >= 2:
            value = _pair_mean(_row_sums(unit, slice(None)))
            entry["all"][0] += value
            entry["all"][1] += 1

    def finalize(self) -> dict[tuple[int, str], DiversityStats]:
        out = {}
        for key, entry in self._sums.items():
            intra = {name: s / c for name, (s, c) in entry["intra"].items()}
            inter = {pair: s / c for pair, (s, c) in entry["inter"].items()}
            all_sum, all_count = entry["all"]
            stats = DiversityStats(
                intra=intra,
                inter=inter,
                importance=layer_importance(intra, inter, layer=f"layer {key[0]}:{key[1]}"),
                all_token=(all_sum / all_count) if all_count else float("nan"),
            )
            out[key] = stats
        return out
