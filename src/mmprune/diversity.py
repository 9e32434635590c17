"""Output-token diversity statistics and layer importance scores.

Diversity is the mean pairwise cosine distance among a layer's output
tokens: within one modality (intra), across two modalities (inter), or
over all tokens (the all-token ablation). A layer's importance is the
unweighted mean of all intra and pairwise inter terms, which for two
modalities reduces to (s_v + s_l + s_vl) / 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InsufficientTokensError, ShapeError
from .model import PROJECTION_KINDS, Span

NORM_FLOOR = 1e-12


def _unit_rows(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    return z / np.maximum(norms, NORM_FLOOR)


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cos(u, v), in [0, 2]. Raises on zero-norm input.

    Computed as 0.5 * ||u_hat - v_hat||^2, which is algebraically the same
    and exactly 0.0 for identical inputs.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ShapeError(f"vectors must share a 1-D shape, got {u.shape} and {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateInputError("cosine distance of a zero-norm vector is undefined")
    return float(np.clip(0.5 * np.square(u / nu - v / nv).sum(), 0.0, 2.0))


def _pair_mean(unit: np.ndarray, idx: np.ndarray, max_pairs: int | None,
               rng: np.random.Generator | None) -> float:
    """Mean cosine distance over unordered pairs i != j within idx."""
    n = len(idx)
    rows = unit[idx]
    n_pairs = n * (n - 1) // 2
    if max_pairs is None or max_pairs >= n_pairs:
        gram = rows @ rows.T
        iu = np.triu_indices(n, k=1)
        return float(np.clip(1.0 - gram[iu], 0.0, 2.0).mean())
    if rng is None:
        raise ValueError("pair subsampling requires an rng")
    i = rng.integers(0, n, size=max_pairs)
    j = rng.integers(0, n - 1, size=max_pairs)
    j = np.where(j >= i, j + 1, j)  # uniform over ordered pairs i != j
    d = 1.0 - np.einsum("ij,ij->i", rows[i], rows[j])
    return float(np.clip(d, 0.0, 2.0).mean())


def intra_diversity(z: np.ndarray, indices: np.ndarray, max_pairs: int | None = None,
                    rng: np.random.Generator | None = None) -> float:
    indices = np.asarray(indices, dtype=int)
    if len(indices) < 2:
        raise InsufficientTokensError(f"intra diversity needs >= 2 tokens, got {len(indices)}")
    return _pair_mean(_unit_rows(z), indices, max_pairs, rng)


def _cross_mean(unit: np.ndarray, indices_a: np.ndarray, indices_b: np.ndarray,
                max_pairs: int | None, rng: np.random.Generator | None) -> float:
    """Mean cosine distance over the full cross product of two index sets."""
    n_pairs = len(indices_a) * len(indices_b)
    if max_pairs is None or max_pairs >= n_pairs:
        gram = unit[indices_a] @ unit[indices_b].T
        return float(np.clip(1.0 - gram, 0.0, 2.0).mean())
    if rng is None:
        raise ValueError("pair subsampling requires an rng")
    i = rng.integers(0, len(indices_a), size=max_pairs)
    j = rng.integers(0, len(indices_b), size=max_pairs)
    d = 1.0 - np.einsum("ij,ij->i", unit[indices_a[i]], unit[indices_b[j]])
    return float(np.clip(d, 0.0, 2.0).mean())


def inter_diversity(z: np.ndarray, indices_a: np.ndarray, indices_b: np.ndarray,
                    max_pairs: int | None = None, rng: np.random.Generator | None = None) -> float:
    indices_a = np.asarray(indices_a, dtype=int)
    indices_b = np.asarray(indices_b, dtype=int)
    if len(indices_a) == 0 or len(indices_b) == 0:
        raise InsufficientTokensError("inter diversity needs both spans non-empty")
    return _cross_mean(_unit_rows(z), indices_a, indices_b, max_pairs, rng)


def all_token_diversity(z: np.ndarray, max_pairs: int | None = None,
                        rng: np.random.Generator | None = None) -> float:
    z = np.asarray(z)
    if z.shape[0] < 2:
        raise InsufficientTokensError(f"all-token diversity needs >= 2 tokens, got {z.shape[0]}")
    return _pair_mean(_unit_rows(z), np.arange(z.shape[0]), max_pairs, rng)


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

    def __init__(self, max_pairs: int | None = None, seed: int = 0):
        self._sums: dict[tuple[int, str], dict] = {}
        self.max_pairs = max_pairs
        self._seed = seed
        self._sample_counter = 0

    def begin_sample(self) -> None:
        self._sample_counter += 1

    def add_layer_sample(self, key: tuple[int, str], z: np.ndarray, spans: list[Span]) -> None:
        entry = self._sums.setdefault(key, {"intra": {}, "inter": {}, "all": [0.0, 0]})
        rng = None
        if self.max_pairs is not None:
            rng = np.random.default_rng(
                np.random.SeedSequence([self._seed, self._sample_counter, key[0], _kind_code(key[1])]))
        unit = _unit_rows(z)

        by_mod: dict[str, list[np.ndarray]] = {}
        order: list[str] = []
        ids: dict[str, int] = {}
        for span in spans:
            name = span.modality.name
            if name not in by_mod:
                by_mod[name] = []
                order.append(name)
                ids[name] = span.modality.id
            if span.length:
                by_mod[name].append(span.indices())
        indices = {name: (np.concatenate(parts) if parts else np.empty(0, dtype=int))
                   for name, parts in by_mod.items()}
        order.sort(key=lambda name: ids[name])

        for name in order:
            idx = indices[name]
            if len(idx) >= 2:
                value = _pair_mean(unit, idx, self.max_pairs, rng)
                s, c = entry["intra"].get(name, (0.0, 0))
                entry["intra"][name] = (s + value, c + 1)
        for i, name_a in enumerate(order):
            for name_b in order[i + 1:]:
                ia, ib = indices[name_a], indices[name_b]
                if len(ia) and len(ib):
                    value = _cross_mean(unit, ia, ib, self.max_pairs, rng)
                    s, c = entry["inter"].get((name_a, name_b), (0.0, 0))
                    entry["inter"][(name_a, name_b)] = (s + value, c + 1)
        if z.shape[0] >= 2:
            value = _pair_mean(unit, np.arange(z.shape[0]), self.max_pairs, rng)
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


def _kind_code(kind: str) -> int:
    return PROJECTION_KINDS.index(kind)
