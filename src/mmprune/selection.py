"""Input-token selection for activation computation.

The adaptive pipeline seeds token contributions from the final query's
attention distribution, spreads contribution mass over each token's
nearest neighbors in output-token space, then greedily picks the highest
contribution while penalizing the picked token's neighbors. Selection
stops once the maximum mean discrepancy between the full token set and
the picked subset falls below a threshold. Full / random / above-mean
attention selection cover the ablation variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diversity import _unit_rows
from .errors import InsufficientTokensError, ShapeError

SELECTION_KINDS = ("full", "random", "attention", "amia")


def token_contributions(attention: np.ndarray) -> np.ndarray:
    """Attention distribution of the final query over all key positions."""
    attention = np.asarray(attention)
    if attention.ndim != 2 or attention.shape[0] != attention.shape[1]:
        raise ShapeError(f"attention must be square, got {attention.shape}")
    return attention[-1, :].astype(np.float64)


def pairwise_cosine_distances(z: np.ndarray) -> np.ndarray:
    """N x N cosine distances with an exact-zero diagonal."""
    unit = _unit_rows(z)
    d = unit @ unit.T
    np.subtract(1.0, d, out=d)
    np.clip(d, 0.0, 2.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def kernel_matrix(distances: np.ndarray, gamma: float) -> np.ndarray:
    kernel = -gamma * distances
    return np.exp(kernel, out=kernel)


@dataclass
class NeighborGraph:
    """k nearest neighbors per token (cosine distance, ties to lower index)."""

    neighbors: np.ndarray  # (N, k) int
    distances: np.ndarray  # (N, k)
    gamma: float
    k: int

    def __post_init__(self):
        self.weights = np.exp(-self.gamma * self.distances)

    @property
    def n_tokens(self) -> int:
        return self.neighbors.shape[0]

    def with_gamma(self, gamma: float) -> "NeighborGraph":
        return NeighborGraph(self.neighbors, self.distances, gamma, self.k)


def build_knn(z: np.ndarray, k: int = 3, gamma: float = 1.0,
              distances: np.ndarray | None = None) -> NeighborGraph:
    """k nearest neighbors per row, nearest first, in O(k * N^2).

    Each of k passes takes every row's argmin and masks it with inf.
    `argmin` returns the first minimum, so equal distances go to the lower
    index: the order of a stable argsort's first k columns.
    """
    n = np.asarray(z).shape[0]
    if n <= k:
        raise InsufficientTokensError(f"kNN graph needs more than k={k} tokens, got {n}")
    if distances is None:
        distances = pairwise_cosine_distances(z)
    ranked = distances.copy()
    np.fill_diagonal(ranked, np.inf)  # no self-neighbors
    rows = np.arange(n)
    order = np.empty((n, k), dtype=np.intp)
    for j in range(k):
        order[:, j] = ranked.argmin(axis=1)
        ranked[rows, order[:, j]] = np.inf
    return NeighborGraph(order, distances[rows[:, None], order], gamma, k)


def forward_update(a: np.ndarray, graph: NeighborGraph) -> np.ndarray:
    """One synchronous pass of neighbor reinforcement; reads only the input a."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (graph.n_tokens,):
        raise ShapeError(f"contributions length {a.shape} != token count {graph.n_tokens}")
    return a + (graph.weights * a[graph.neighbors]).sum(axis=1)


@dataclass
class SelectionResult:
    selected: np.ndarray          # pick order
    mmd_trace: list[float]
    threshold: float
    stopped_by: str               # "threshold" | "exhausted"


def reverse_select(contributions: np.ndarray, graph: NeighborGraph, kernel: np.ndarray,
                   threshold: float, min_count: int = 4) -> SelectionResult:
    """Greedy pick-and-penalize selection with an MMD stopping rule.

    Each step picks the highest remaining contribution (ties to the lowest
    index), subtracts `e_ij * a_i` from the picked token's graph neighbors,
    and recomputes MMD(all tokens, picked) from the full kernel. Stops when
    MMD < threshold (after min_count picks) or all tokens are picked.
    """
    a = np.asarray(contributions, dtype=np.float64).copy()
    n = graph.n_tokens
    if a.shape != (n,):
        raise ShapeError(f"contributions length {a.shape} != token count {n}")
    if kernel.shape != (n, n):
        raise ShapeError(f"kernel shape {kernel.shape} != ({n}, {n})")
    min_count = min(n, max(min_count, 1))

    total_mean = kernel.mean()
    cross_cols = np.zeros(n)      # per-token kernel sum to the picked set
    sum_selected = 0.0            # kernel sum over picked x picked
    sum_cross = 0.0               # kernel sum over all x picked
    picked: list[int] = []
    picked_mask = np.zeros(n, dtype=bool)
    trace: list[float] = []
    stopped_by = "exhausted"

    for t in range(1, n + 1):
        candidate = int(np.where(picked_mask, -np.inf, a).argmax())
        value = a[candidate]
        picked.append(candidate)
        picked_mask[candidate] = True
        neigh = graph.neighbors[candidate]
        a[neigh] -= graph.weights[candidate] * value

        column = kernel[:, candidate]
        sum_selected += 2.0 * cross_cols[candidate] + column[candidate]
        cross_cols += column
        sum_cross += column.sum()
        current = max(0.0, float(total_mean + sum_selected / t**2 - 2.0 * sum_cross / (n * t)))
        trace.append(current)

        if t >= min_count and current < threshold:
            stopped_by = "threshold"
            break

    return SelectionResult(np.array(picked, dtype=int), trace, threshold, stopped_by)


@dataclass(frozen=True)
class AmiaParams:
    k: int = 3
    gamma_forward: float = 1.0
    gamma_reverse: float = 0.2
    mmd_coefficient: float = 0.1

    @property
    def min_count(self) -> int:
        return max(self.k + 1, 4)


def select_amia(a: np.ndarray, z: np.ndarray, threshold: float,
                params: AmiaParams = AmiaParams()) -> SelectionResult:
    """Full adaptive pipeline over one layer's output tokens."""
    distances = pairwise_cosine_distances(z)
    graph_fwd = build_knn(z, params.k, params.gamma_forward, distances=distances)
    boosted = forward_update(a, graph_fwd)
    kernel = kernel_matrix(distances, params.gamma_reverse)
    graph_rev = graph_fwd.with_gamma(params.gamma_reverse)
    return reverse_select(boosted, graph_rev, kernel, threshold,
                          min_count=params.min_count)


def select_tokens(kind: str, a: np.ndarray | None, z: np.ndarray, *,
                  rng: np.random.Generator | None = None,
                  threshold: float = 0.0,
                  params: AmiaParams = AmiaParams(),
                  random_count: int = 100) -> tuple[np.ndarray, SelectionResult | None]:
    """Dispatch over SELECTION_KINDS; returns (indices, SelectionResult or None).

    `a` holds token contributions; outside amia only the row count of `z` matters.
    """
    n = np.asarray(z).shape[0]
    if kind == "full" or (kind == "amia" and n <= params.k):
        return np.arange(n), None  # amia: too few tokens for a kNN graph
    if kind == "random":
        if rng is None:
            raise ValueError("random selection requires an rng")
        return np.sort(rng.choice(n, size=min(random_count, n), replace=False)), None
    if kind == "attention":
        a = np.asarray(a, dtype=np.float64)
        chosen = np.where(a > a.mean())[0]
        # uniform contributions leave nothing above the mean; fall back to all tokens
        return (chosen if len(chosen) else np.arange(n)), None
    if kind == "amia":
        result = select_amia(a, z, threshold, params)
        return result.selected, result
    raise ValueError(f"unknown selection kind {kind!r}")
