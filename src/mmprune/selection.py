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


def _fill_diagonals(matrices: np.ndarray, value: float) -> None:
    """Writes `value` on the diagonal of each N x N matrix in a contiguous (..., N, N) array."""
    n = matrices.shape[-1]
    matrices.reshape(-1, n * n)[:, ::n + 1] = value


def pairwise_cosine_distances(z: np.ndarray) -> np.ndarray:
    """N x N cosine distances with an exact-zero diagonal, per layer of a (..., N, C) stack.

    Each layer's Gram matrix is one 2-D matmul, as for a single layer, so a layer's
    distances do not depend on the stack it is in. numpy computes `u @ u.T` as one
    triangle and mirrors it, so the distances are exactly symmetric.
    """
    unit = _unit_rows(z)
    n, c = unit.shape[-2:]
    d = np.empty(unit.shape[:-1] + (n,))
    for u, gram in zip(unit.reshape(-1, n, c), d.reshape(-1, n, n)):
        np.matmul(u, u.T, out=gram)
    np.subtract(1.0, d, out=d)
    np.clip(d, 0.0, 2.0, out=d)
    _fill_diagonals(d, 0.0)
    return d


def kernel_matrix(distances: np.ndarray, gamma: float) -> np.ndarray:
    kernel = -gamma * distances
    return np.exp(kernel, out=kernel)


@dataclass
class NeighborGraph:
    """k nearest neighbors per token (cosine distance, ties to lower index), per layer
    of a stack when the arrays have a leading layer axis."""

    neighbors: np.ndarray  # (..., N, k) int
    distances: np.ndarray  # (..., N, k)
    gamma: float
    k: int

    def __post_init__(self):
        self.weights = np.exp(-self.gamma * self.distances)

    @property
    def n_tokens(self) -> int:
        return self.neighbors.shape[-2]

    def with_gamma(self, gamma: float) -> "NeighborGraph":
        return NeighborGraph(self.neighbors, self.distances, gamma, self.k)


def build_knn(z: np.ndarray, k: int = 3, gamma: float = 1.0,
              distances: np.ndarray | None = None) -> NeighborGraph:
    """k nearest neighbors per row, nearest first, in O(k * N^2), per layer of a
    (..., N, C) stack.

    Each of k passes takes every row's argmin and masks it with inf.
    `argmin` returns the first minimum, so equal distances go to the lower
    index: the order of a stable argsort's first k columns. Given `distances`
    (from `pairwise_cosine_distances(z)`), the passes mask it in place: a caller
    that still needs it passes a copy.
    """
    n = np.asarray(z).shape[-2]
    if n <= k:
        raise InsufficientTokensError(f"kNN graph needs more than k={k} tokens, got {n}")
    if distances is None:
        distances = pairwise_cosine_distances(z)
    ranked = np.ascontiguousarray(distances).reshape(-1, n)  # one row per (layer, token)
    _fill_diagonals(ranked.reshape(-1, n, n), np.inf)  # no self-neighbors
    flat = ranked.reshape(-1)
    starts = np.arange(0, flat.size, n)  # where each row starts in `flat`
    order = np.empty((len(ranked), k), dtype=np.intp)
    nearest = np.empty((len(ranked), k))
    for j in range(k):
        order[:, j] = ranked.argmin(axis=1)
        picked = starts + order[:, j]
        nearest[:, j] = flat.take(picked)
        flat.put(picked, np.inf)
    shape = distances.shape[:-1] + (k,)
    return NeighborGraph(order.reshape(shape), nearest.reshape(shape), gamma, k)


def forward_update(a: np.ndarray, graph: NeighborGraph) -> np.ndarray:
    """One synchronous pass of neighbor reinforcement; reads only the input a."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != graph.neighbors.shape[:-1]:
        raise ShapeError(f"contributions shape {a.shape} != token shape {graph.neighbors.shape[:-1]}")
    n = graph.n_tokens
    layers = np.arange(0, a.size, n).reshape(a.shape[:-1] + (1, 1))  # where each layer starts in a.flat
    return a + (graph.weights * a.reshape(-1).take(graph.neighbors + layers)).sum(axis=-1)


@dataclass
class SelectionResult:
    selected: np.ndarray          # pick order
    mmd_trace: list[float]
    threshold: float
    stopped_by: str               # "threshold" | "exhausted"


def reverse_select(contributions: np.ndarray, graph: NeighborGraph, kernel: np.ndarray,
                   thresholds: list[float], min_count: int = 4) -> list[SelectionResult]:
    """Greedy pick-and-penalize selection with an MMD stopping rule, per layer of a stack.

    Each step picks the highest remaining contribution (ties to the lowest
    index), subtracts `e_ij * a_i` from the picked token's graph neighbors,
    and updates MMD(all tokens, picked) from the full kernel. A layer stops when
    its MMD < its threshold (after min_count picks) or all its tokens are picked.
    The kernel must be symmetric, as `kernel_matrix` of `pairwise_cosine_distances`
    is exactly: a picked token's kernel row stands for its column.

    Contributions (L, N), the graph's (L, N, k) arrays, the (L, N, N) kernel and L
    thresholds give one result per layer. A step's array work runs on all L layers
    at once; each running layer's MMD then takes a few float operations.
    """
    a = np.array(contributions, dtype=np.float64)  # a copy: picks penalize it in place
    if a.ndim != 2 or a.shape != graph.neighbors.shape[:-1]:
        raise ShapeError(f"contributions shape {a.shape} != token shape (L, N) {graph.neighbors.shape[:-1]}")
    n_layers, n = a.shape
    if kernel.shape != (n_layers, n, n):
        raise ShapeError(f"kernel shape {kernel.shape} != {(n_layers, n, n)}")
    if len(thresholds) != n_layers:
        raise ShapeError(f"{len(thresholds)} thresholds for {n_layers} layers")
    thresholds = [float(t) for t in thresholds]
    min_count = min(n, max(min_count, 1))

    base = np.arange(0, n_layers * n, n)  # token j of layer i is row i * n + j of the flat arrays
    flat = a.reshape(-1)
    neighbors = (graph.neighbors.reshape(n_layers, n, -1) + base[:, None, None]).reshape(n_layers * n, -1)
    weights = graph.weights.reshape(n_layers * n, -1)
    rows = kernel.reshape(n_layers * n, n)
    total_means = kernel.reshape(n_layers, n * n).mean(axis=1).tolist()
    cross = np.zeros((n_layers, n))   # per-token kernel sum to the picked set
    sum_selected = [0.0] * n_layers   # kernel sum over picked x picked
    sum_cross = [0.0] * n_layers      # kernel sum over all x picked
    traces: list[list[float]] = [[] for _ in range(n_layers)]
    stopped_by = ["exhausted"] * n_layers
    running = list(range(n_layers))
    picks = np.empty((n_layers, n), dtype=int)

    for t in range(1, n + 1):
        candidate = a.argmax(axis=1)
        picked = base + candidate
        value = flat.take(picked)
        flat.put(picked, -np.inf)  # never the maximum again
        penalty = weights.take(picked, axis=0)
        penalty *= value[:, None]
        flat[neighbors.take(picked, axis=0)] -= penalty
        picks[:, t - 1] = candidate

        row = rows.take(picked, axis=0)
        to_picked = cross.reshape(-1).take(picked).tolist()
        self_terms = row.reshape(-1).take(picked).tolist()
        cross += row
        row_sums = row.sum(axis=1).tolist()
        for i in running[:]:
            sum_selected[i] += 2.0 * to_picked[i] + self_terms[i]
            sum_cross[i] += row_sums[i]
            current = max(0.0, total_means[i] + sum_selected[i] / t**2 - 2.0 * sum_cross[i] / (n * t))
            traces[i].append(current)
            if t >= min_count and current < thresholds[i]:
                stopped_by[i] = "threshold"
                running.remove(i)
        if not running:
            break
    return [SelectionResult(picks[i, :len(trace)].copy(), trace, thresholds[i], stopped_by[i])
            for i, trace in enumerate(traces)]


@dataclass(frozen=True)
class AmiaParams:
    k: int = 3
    gamma_forward: float = 1.0
    gamma_reverse: float = 0.2
    mmd_coefficient: float = 0.1

    @property
    def min_count(self) -> int:
        return max(self.k + 1, 4)


def select_amia(a: np.ndarray, z: np.ndarray, thresholds: list[float],
                params: AmiaParams = AmiaParams()) -> list[SelectionResult]:
    """The full adaptive pipeline over a stack of L layers that share N and C:
    contributions a (L, N), output tokens z (L, N, C) and L thresholds. Returns one
    result per layer, the same whatever else the stack holds; the layers' N x N
    buffers are allocated once."""
    distances = pairwise_cosine_distances(z)
    kernel = kernel_matrix(distances, params.gamma_reverse)  # before build_knn masks distances
    graph_fwd = build_knn(z, params.k, params.gamma_forward, distances=distances)
    boosted = forward_update(a, graph_fwd)
    graph_rev = graph_fwd.with_gamma(params.gamma_reverse)
    return reverse_select(boosted, graph_rev, kernel, thresholds, min_count=params.min_count)


def select_tokens(kind: str, a: np.ndarray | None, z: np.ndarray, *,
                  rng: np.random.Generator | None = None, random_count: int = 100) -> np.ndarray:
    """Indices of the tokens a non-adaptive kind of SELECTION_KINDS keeps.

    `a` holds token contributions; only the row count of `z` matters. Adaptive
    selection (amia) runs per stack of layers through `select_amia`.
    """
    n = np.asarray(z).shape[0]
    if kind == "full":
        return np.arange(n)
    if kind == "random":
        if rng is None:
            raise ValueError("random selection requires an rng")
        return np.sort(rng.choice(n, size=min(random_count, n), replace=False))
    if kind == "attention":
        a = np.asarray(a, dtype=np.float64)
        chosen = np.where(a > a.mean())[0]
        # uniform contributions leave nothing above the mean; fall back to all tokens
        return chosen if len(chosen) else np.arange(n)
    raise ValueError(f"unknown selection kind {kind!r}")
