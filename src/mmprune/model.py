"""Deterministic multimodal toy transformer: the pruning target.

The model is a stack of pre-norm blocks, each with a causal multi-head
attention module (q/k/v/o projections) and a SwiGLU feed-forward module
(gate/up/down projections), operating on pre-embedded token sequences
tagged with modality spans. All projection math runs in float32; there
are no biases and no positional encodings, so a forward pass is a pure
function of (weights, input).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

PROJECTION_KINDS = ("q", "k", "v", "o", "gate", "up", "down")
RMS_EPS = 1e-6


@dataclass(frozen=True)
class ModalityId:
    id: int
    name: str


@dataclass(frozen=True)
class Span:
    modality: ModalityId
    start: int
    length: int

    @property
    def stop(self) -> int:
        return self.start + self.length


class TokenSequence:
    """Pre-embedded tokens (N x C float32) with contiguous modality spans."""

    def __init__(self, embeddings: np.ndarray, spans: list[Span]):
        embeddings = np.asarray(embeddings, dtype=np.float32)
        if embeddings.ndim != 2 or embeddings.shape[0] < 1:
            raise ShapeError(f"embeddings must be a non-empty 2-D matrix, got shape {embeddings.shape}")
        if not np.isfinite(embeddings).all():
            raise NumericError("embeddings contain non-finite values")
        n = embeddings.shape[0]
        cursor = 0
        for span in spans:
            if span.length < 0:
                raise ShapeError(f"span for {span.modality.name} has negative length")
            if span.start != cursor:
                raise ShapeError(f"spans are not contiguous at index {cursor}")
            cursor = span.stop
        if cursor != n:
            raise ShapeError(f"spans cover [0, {cursor}) but the sequence has {n} tokens")
        self.embeddings = embeddings
        self.spans = list(spans)

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class LinearLayer:
    """One projection: Z = X @ W.T with an optional keep-mask over W."""

    weight: np.ndarray
    kind: str
    block_index: int
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in PROJECTION_KINDS:
            raise ConfigError(f"unknown projection kind {self.kind!r}")
        self.weight = np.asarray(self.weight, dtype=np.float32)
        if self.weight.ndim != 2:
            raise ShapeError(f"{self.name} weight must be 2-D")

    @property
    def name(self) -> str:
        return f"block{self.block_index}.{self.kind}"

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    def apply_mask(self) -> None:
        """Zero exactly the dropped entries. Idempotent; keeps kept weights bit-identical."""
        if self.mask is None:
            return
        if self.mask.shape != self.weight.shape:
            raise ShapeError(f"{self.name}: mask shape {self.mask.shape} != weight shape {self.weight.shape}")
        self.weight[~self.mask] = 0.0


@dataclass
class Block:
    """One transformer block: 7 projections plus two pre-norm scale vectors."""

    index: int
    layers: dict[str, LinearLayer]
    attn_norm_scale: np.ndarray
    ffn_norm_scale: np.ndarray

    def __post_init__(self):
        missing = [k for k in PROJECTION_KINDS if k not in self.layers]
        if missing:
            raise ConfigError(f"block {self.index} is missing projections: {missing}")
        self.attn_norm_scale = np.asarray(self.attn_norm_scale, dtype=np.float32)
        self.ffn_norm_scale = np.asarray(self.ffn_norm_scale, dtype=np.float32)


class ToyModel:
    def __init__(self, blocks: list[Block], n_heads: int, d_model: int, d_ff: int, seed: int):
        if d_model % n_heads != 0:
            raise ConfigError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        for block in blocks:
            shapes = {
                "q": (d_model, d_model), "k": (d_model, d_model),
                "v": (d_model, d_model), "o": (d_model, d_model),
                "gate": (d_ff, d_model), "up": (d_ff, d_model), "down": (d_model, d_ff),
            }
            for kind, shape in shapes.items():
                layer = block.layers[kind]
                if layer.weight.shape != shape:
                    raise ShapeError(f"{layer.name}: expected shape {shape}, got {layer.weight.shape}")
                if not np.isfinite(layer.weight).all():
                    raise NumericError(f"{layer.name}: weight contains non-finite values")
        self.blocks = blocks
        self.n_heads = n_heads
        self.d_model = d_model
        self.d_ff = d_ff
        self.seed = seed

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def iter_layers(self):
        for block in self.blocks:
            for kind in PROJECTION_KINDS:
                yield block.layers[kind]

    def layer(self, block_index: int, kind: str) -> LinearLayer:
        return self.blocks[block_index].layers[kind]

    def param_counts(self) -> dict[tuple[int, str], int]:
        return {(layer.block_index, layer.kind): layer.weight.size for layer in self.iter_layers()}

    def copy(self) -> "ToyModel":
        blocks = []
        for block in self.blocks:
            layers = {
                kind: LinearLayer(
                    weight=block.layers[kind].weight.copy(),
                    kind=kind,
                    block_index=block.index,
                    mask=None if block.layers[kind].mask is None else block.layers[kind].mask.copy(),
                )
                for kind in PROJECTION_KINDS
            }
            blocks.append(Block(block.index, layers, block.attn_norm_scale.copy(), block.ffn_norm_scale.copy()))
        return ToyModel(blocks, self.n_heads, self.d_model, self.d_ff, self.seed)


@dataclass(frozen=True)
class CaptureFlags:
    """What a forward pass records. `blocks=None` means every block."""

    inputs: bool = False
    outputs: bool = False
    attention: bool = False
    hiddens: bool = False
    blocks: frozenset[int] | None = None


@dataclass
class ActivationTrace:
    """Per-sequence capture: projection inputs/outputs, head-averaged attention, block-boundary hiddens."""

    spans: list[Span] = field(default_factory=list)
    layer_inputs: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    layer_outputs: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    attention: dict[int, np.ndarray] = field(default_factory=dict)
    hiddens: list[np.ndarray] = field(default_factory=list)


def _check_finite(x: np.ndarray, where: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite values at {where}")
    return x


def _rms_norm(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return (x / np.sqrt(ms + RMS_EPS)) * scale


def _causal_softmax(scores: np.ndarray) -> np.ndarray:
    # scores: (heads, N, N); entries above the diagonal must come out exactly 0.
    n = scores.shape[-1]
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    scores = np.where(mask, -np.inf, scores)
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    return weights / weights.sum(axis=-1, keepdims=True)


@np.errstate(over="ignore", invalid="ignore")  # overflow surfaces as a NumericError, not a warning
def forward(model: ToyModel, seq: TokenSequence, capture: CaptureFlags = CaptureFlags(),
            start: int = 0, stop: int | None = None, hidden: np.ndarray | None = None):
    """Run blocks [start, stop) (default: all) on one sequence from `hidden`, the state
    entering block `start` (default: the embeddings). Returns the state leaving the last
    block run (N x d_model float32) and an ActivationTrace with exactly the requested
    captures: attention post-softmax and head-averaged, `hiddens[j]` entering block
    start + j. Captured arrays are never written afterwards, so q/k/v share one input
    array and gate/up another; `hiddens[0]` is a copy, so a trace never aliases the input.
    """
    if seq.dim != model.d_model:
        raise ShapeError(f"sequence dim {seq.dim} != model d_model {model.d_model}")
    stop = model.n_blocks if stop is None else stop
    if not 0 <= start <= stop <= model.n_blocks:
        raise ConfigError(f"block range [{start}, {stop}) is outside [0, {model.n_blocks}]")
    x = seq.embeddings if hidden is None else hidden
    if x.shape != seq.embeddings.shape:
        raise ShapeError(f"hidden state shape {x.shape} != sequence shape {seq.embeddings.shape}")
    n, h, dh = len(seq), model.n_heads, model.head_dim
    trace = ActivationTrace(spans=list(seq.spans))
    if capture.hiddens:
        trace.hiddens.append(x.copy())

    for block in model.blocks[start:stop]:
        b = block.index
        record = capture.blocks is None or b in capture.blocks

        def project(kind: str, inp: np.ndarray) -> np.ndarray:
            layer = block.layers[kind]
            out = inp @ layer.weight.T
            _check_finite(out, layer.name)
            if record and capture.inputs:
                trace.layer_inputs[(b, kind)] = inp
            if record and capture.outputs:
                trace.layer_outputs[(b, kind)] = out
            return out

        attn_in = _rms_norm(x, block.attn_norm_scale)
        q = project("q", attn_in)
        k = project("k", attn_in)
        v = project("v", attn_in)

        # (heads, N, dh)
        qh = q.reshape(n, h, dh).transpose(1, 0, 2)
        kh = k.reshape(n, h, dh).transpose(1, 0, 2)
        vh = v.reshape(n, h, dh).transpose(1, 0, 2)
        scores = (qh @ kh.transpose(0, 2, 1)) / np.float32(np.sqrt(dh))
        probs = _causal_softmax(scores)
        _check_finite(probs, f"block{b}.attention")
        if record and capture.attention:
            trace.attention[b] = probs.mean(axis=0).astype(np.float32)

        context = (probs @ vh).transpose(1, 0, 2).reshape(n, model.d_model).astype(np.float32)
        x = x + project("o", context)

        ffn_in = _rms_norm(x, block.ffn_norm_scale)
        gate = project("gate", ffn_in)
        up = project("up", ffn_in)
        act = (gate / (1.0 + np.exp(-gate))) * up  # SiLU(gate) * up
        x = x + project("down", act.astype(np.float32))
        x = _check_finite(x.astype(np.float32), f"block{b}.residual")

        if capture.hiddens:
            trace.hiddens.append(x)

    return x, trace


def init_synthetic(d_model: int, n_heads: int, d_ff: int, n_blocks: int, seed: int) -> ToyModel:
    """Build a model with weights drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)).

    Draw order is fixed (block by block, q,k,v,o,gate,up,down) so a seed
    pins every weight.
    """
    if d_model % n_heads != 0:
        raise ConfigError(f"d_model={d_model} not divisible by n_heads={n_heads}")
    if n_blocks < 1 or d_ff < 1:
        raise ConfigError("n_blocks and d_ff must be positive")
    rng = np.random.default_rng(seed)

    blocks = []
    for b in range(n_blocks):
        layers = {}
        for kind in PROJECTION_KINDS:
            if kind == "down":
                out_dim, in_dim = d_model, d_ff
            elif kind in ("gate", "up"):
                out_dim, in_dim = d_ff, d_model
            else:
                out_dim, in_dim = d_model, d_model
            bound = 1.0 / np.sqrt(in_dim)
            weight = rng.uniform(-bound, bound, size=(out_dim, in_dim)).astype(np.float32)
            layers[kind] = LinearLayer(weight, kind, b)
        blocks.append(Block(
            index=b,
            layers=layers,
            attn_norm_scale=np.ones(d_model, dtype=np.float32),
            ffn_norm_scale=np.ones(d_model, dtype=np.float32),
        ))
    return ToyModel(blocks, n_heads, d_model, d_ff, seed)
