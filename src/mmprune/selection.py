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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .diversity import unit_rows
from .errors import InsufficientTokensError, ShapeError
from .model import PROJECTION_KINDS

# AMIA runs a sample's layers of one output shape (N, C) as one stack while L * N^2
# stays within this many elements: a 48-token plain sample's 20 (N, d_model) layers in
# one stack and its 8 (N, d_ff) layers in another. A calibration pass feeds a 188-token
# noisy sample one block at a time (the bound over 7 N^2 gives its block groups), so
# its stacks are each block's [q,k,v], [o,down] and [gate,up]. A stack holds one
# L x N x N float64 buffer, 1 MB at the bound: the distances, then the kernel in their
# place. At 2**16 a noisy stack held one layer, and the stacked pick loop's per-step
# array calls made noisy `tamp` about 10% slower than the one-layer scalar loop they
# replaced.
AMIA_STACK_ELEMENTS = 2**17


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
    unit = unit_rows(z)
    n, c = unit.shape[-2:]
    d = np.empty(unit.shape[:-1] + (n,))
    for u, gram in zip(unit.reshape(-1, n, c), d.reshape(-1, n, n)):
        np.matmul(u, u.T, out=gram)
    np.subtract(1.0, d, out=d)
    np.clip(d, 0.0, 2.0, out=d)
    _fill_diagonals(d, 0.0)
    return d


def build_knn(distances: np.ndarray, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbors per token, nearest first, in O(k * N^2), per layer of a
    contiguous (..., N, N) stack from `pairwise_cosine_distances`, which the passes mask
    in place: a caller that still needs it passes a copy. Returns the (..., N, k) neighbor
    indices and their distances.

    Each of k passes takes every row's argmin and masks it with inf.
    `argmin` returns the first minimum, so equal distances go to the lower
    index: the order of a stable argsort's first k columns.
    """
    n = distances.shape[-1]
    if n <= k:
        raise InsufficientTokensError(f"kNN graph needs more than k={k} tokens, got {n}")
    ranked = distances.reshape(-1, n)  # one row per (layer, token)
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
    return order.reshape(shape), nearest.reshape(shape)


def forward_update(a: np.ndarray, neighbors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One synchronous pass of neighbor reinforcement, `a_i + sum_j w_ij a_j` over each
    token's (..., N, k) neighbors; reads only the input a."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != neighbors.shape[:-1]:
        raise ShapeError(f"contributions shape {a.shape} != token shape {neighbors.shape[:-1]}")
    layers = np.arange(0, a.size, a.shape[-1]).reshape(a.shape[:-1] + (1, 1))  # where each layer starts in a.flat
    return a + (weights * a.reshape(-1).take(neighbors + layers)).sum(axis=-1)


@dataclass
class SelectionResult:
    selected: np.ndarray          # pick order
    mmd_trace: list[float]
    threshold: float
    stopped_by: str               # "threshold" | "exhausted"


def reverse_select(contributions: np.ndarray, neighbors: np.ndarray, kernel: np.ndarray,
                   thresholds: list[float], min_count: int = 4) -> list[SelectionResult]:
    """Greedy pick-and-penalize selection with an MMD stopping rule, per layer of a stack.

    Each step picks the highest remaining contribution (ties to the lowest
    index), subtracts `K_ij * a_i` from the picked token i's kNN neighbors j,
    and updates MMD(all tokens, picked) from the full kernel K. A layer stops when
    its MMD < its threshold (after min_count picks) or all its tokens are picked.
    The kernel must be symmetric, as `exp(-gamma * d)` of `pairwise_cosine_distances`
    is exactly: a picked token's kernel row stands for its column.

    Contributions (L, N), the (L, N, k) neighbor indices, the (L, N, N) kernel and L
    thresholds give one result per layer. A step's array work runs on all L layers
    at once; each running layer's MMD then takes a few float operations.
    """
    a = np.array(contributions, dtype=np.float64)  # a copy: picks penalize it in place
    if a.ndim != 2 or a.shape != neighbors.shape[:-1]:
        raise ShapeError(f"contributions shape {a.shape} != token shape (L, N) {neighbors.shape[:-1]}")
    n_layers, n = a.shape
    if kernel.shape != (n_layers, n, n):
        raise ShapeError(f"kernel shape {kernel.shape} != {(n_layers, n, n)}")
    if len(thresholds) != n_layers:
        raise ShapeError(f"{len(thresholds)} thresholds for {n_layers} layers")
    thresholds = [float(t) for t in thresholds]
    min_count = min(n, max(min_count, 1))

    base = np.arange(0, n_layers * n, n)  # token j of layer i is row i * n + j of the flat arrays
    flat = a.reshape(-1)
    weights = np.take_along_axis(kernel, neighbors, -1).reshape(n_layers * n, -1)  # the penalty e_ij = K_ij
    neighbors = (neighbors + base[:, None, None]).reshape(n_layers * n, -1)
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


def select_amia(a: np.ndarray, z: np.ndarray | list[np.ndarray], thresholds: list[float],
                params: AmiaParams = AmiaParams()) -> list[SelectionResult]:
    """The full adaptive pipeline over a stack of L layers that share N and C:
    contributions a (L, N), output tokens z (L, N, C) (an array, or a list of (N, C)
    arrays) and L thresholds. Returns one result per layer, the same whatever else the
    stack holds. The stack's one L x N x N float64 buffer holds the distances; once the
    kNN graph is read from it, its masked entries are restored and it becomes the kernel
    in place."""
    d = pairwise_cosine_distances(z)
    neighbors, nearest = build_knn(d, params.k)
    np.put_along_axis(d, neighbors, nearest, -1)  # undo build_knn's masking
    _fill_diagonals(d, 0.0)
    np.multiply(d, -params.gamma_reverse, out=d)
    np.exp(d, out=d)
    boosted = forward_update(a, neighbors, np.exp(-params.gamma_forward * nearest))
    return reverse_select(boosted, neighbors, d, thresholds, min_count=params.min_count)


def _layerwise(pick):
    """A `select` from `pick(sample, params, layer, n)`: the indices of n tokens kept."""
    return lambda sample, params, thresholds: {
        key: (pick(sample, params, key, len(x)), None) for key, x in sample.layer_inputs.items()}


def _pick_random(sample, params, layer, n: int) -> np.ndarray:
    """`random_count` tokens (all, if fewer), drawn under the seed, sample and layer."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [params.seed, 7701, sample.index, layer[0], PROJECTION_KINDS.index(layer[1])]))
    return np.sort(rng.choice(n, size=min(params.random_count, n), replace=False))


def _pick_above_mean(sample, params, layer, n: int) -> np.ndarray:
    """The tokens whose contribution exceeds the mean; all, where none does."""
    a = sample.contributions[layer[0]].astype(np.float64)
    chosen = np.where(a > a.mean())[0]
    return chosen if len(chosen) else np.arange(n)


def _select_adaptive(sample, params, thresholds) -> dict:
    """AMIA selections of one sample's layers, in layer order: a stack of layers of one
    output shape at a time, or all tokens where there are too few for a kNN graph."""
    amia, outputs = params.amia, sample.layer_outputs
    stacks: dict[tuple[int, ...], list] = {}
    for key, z in outputs.items():
        stacks.setdefault(z.shape, []).append(key)
    selected = dict.fromkeys(outputs)
    for (n, _), keys in stacks.items():
        if n <= amia.k:
            selected.update((key, (np.arange(n), None)) for key in keys)
            continue
        size = max(1, AMIA_STACK_ELEMENTS // (n * n))
        for i in range(0, len(keys), size):
            stack = keys[i:i + size]
            # looked up at call time, so a wrapper bound to the module name sees each call
            results = select_amia(np.stack([sample.contributions[block] for block, _ in stack]),
                                  [outputs[key] for key in stack],
                                  [thresholds[key] for key in stack], amia)
            selected.update((key, (result.selected, result)) for key, result in zip(stack, results))
    return selected


@dataclass(frozen=True)
class SelectionKind:
    """`select(sample, params, thresholds)` gives one sample's {layer: (indices,
    SelectionResult | None)}. `attention` and `amia` read `sample.contributions`, each
    block's final-query attention row in float32, which they take to float64 before any
    arithmetic; an `adaptive` kind reads the layer outputs and {layer: MMD threshold}s;
    `keeps_all`: all, in order."""

    select: Callable[..., dict]
    adaptive: bool = False
    keeps_all: bool = False


SELECTION_KINDS = {
    "full": SelectionKind(_layerwise(lambda sample, params, layer, n: np.arange(n)), keeps_all=True),
    "random": SelectionKind(_layerwise(_pick_random)),
    "attention": SelectionKind(_layerwise(_pick_above_mean)),
    "amia": SelectionKind(_select_adaptive, adaptive=True),
}
