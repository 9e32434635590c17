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
        self.spans = list(spans)
        self.embeddings = self.checked(embeddings)

    def checked(self, embeddings: np.ndarray) -> np.ndarray:
        """`embeddings` as float32 if they are finite, non-empty N x C rows that the
        spans cover; else a ShapeError or NumericError."""
        embeddings = np.asarray(embeddings, dtype=np.float32)
        if embeddings.ndim != 2 or embeddings.shape[0] < 1:
            raise ShapeError(f"embeddings must be a non-empty 2-D matrix, got shape {embeddings.shape}")
        if not np.isfinite(embeddings).all():
            raise NumericError("embeddings contain non-finite values")
        n = embeddings.shape[0]
        cursor = 0
        for span in self.spans:
            if span.length < 0:
                raise ShapeError(f"span for {span.modality.name} has negative length")
            if span.start != cursor:
                raise ShapeError(f"spans are not contiguous at index {cursor}")
            cursor = span.stop
        if cursor != n:
            raise ShapeError(f"spans cover [0, {cursor}) but the sequence has {n} tokens")
        return embeddings

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

    def views(self, size: int) -> list["ToyModel"]:
        """The blocks in consecutive groups of `size` (the last may hold fewer), each group
        a model over the same Block objects, so a view sees the masks later set on them. A
        group of every block is the model itself."""
        if size >= self.n_blocks:
            return [self]
        return [ToyModel(self.blocks[i:i + size], self.n_heads, self.d_model, self.d_ff, self.seed)
                for i in range(0, self.n_blocks, size)]

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
    """What a forward pass records. No capture holds an N x N array."""

    inputs: bool = False
    outputs: bool = False
    span_mass: bool = False
    hiddens: bool = False
    final_query: bool = False


@dataclass
class ActivationTrace:
    """Per-sequence capture: projection inputs/outputs, per block the head-averaged attention's
    (n_spans, N) row sums over each span's keys and its final-query row, and block-boundary hiddens."""

    spans: list[Span] = field(default_factory=list)
    layer_inputs: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    layer_outputs: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    span_mass: dict[int, np.ndarray] = field(default_factory=dict)
    hiddens: list[np.ndarray] = field(default_factory=list)
    final_query: dict[int, np.ndarray] = field(default_factory=dict)


def _check_finite(x: np.ndarray, where: str, outputs: dict) -> np.ndarray:
    """`x` if finite; else a NumericError at the first non-finite of `outputs`, else at `where`."""
    if not np.isfinite(x).all():
        where = next((f"block{b}.{kind}" for (b, kind), out in outputs.items() if not np.isfinite(out).all()), where)
        raise NumericError(f"non-finite values at {where}")
    return x


def _rms_norm(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    out = x / np.sqrt(np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1] + RMS_EPS)  # np.mean's bits
    out *= scale
    return out


# 0 on and below the diagonal, -inf above it. Grown to the longest sequence seen and
# replaced, never written, so a shorter sequence's slice stays valid.
_causal_bias = np.zeros((0, 0), dtype=np.float32)


def _causal_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of `scores` (..., N, N), in place, with every entry
    above the diagonal exactly 0. Returns the (..., N, 1) row sums: the probabilities
    are finite exactly when the sums are, because each term lies in [0, 1] and the row
    maximum contributes 1. A score above the diagonal that overflowed to +inf or NaN
    makes its row's sum NaN. The row max, `np.fmax.reduce`'s, is exact, and a NaN row sums to NaN."""
    global _causal_bias
    n = scores.shape[-1]
    bias = _causal_bias
    if bias.shape[0] < n:  # filled row by row: no N x N temporary beside the bias
        bias = np.zeros((n, n), dtype=np.float32)
        for row in range(n - 1):
            bias[row, row + 1:] = -np.inf
        bias.flags.writeable = False
        _causal_bias = bias
    scores += bias[:n, :n]
    scores -= np.fmax.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    sums = scores.sum(axis=-1, keepdims=True)
    scores /= sums
    return sums


# A forward stacks consecutive equal-length sequences up to this many tokens: 2 plain
# (48-token) samples, 1 noisy calibration (188-token) sample, 4 noisy eval (28-token)
# ones. Per-call overhead dominates a forward at these sizes, but a chunk's activations
# stay alive together: at 192 tokens (4 plain samples) the `sweep-plain` benchmark's
# peak RSS rose from 47.3 to 50.9 MB, past its bound.
CHUNK_TOKENS = 128


class Chunk:
    """Sequences of one length that a forward runs as one (S, N, C) stack. Like a
    sequence's, its length is its token count."""

    def __init__(self, seqs: list[TokenSequence]):
        if not seqs:
            raise ConfigError("a chunk needs at least one sequence")
        for seq in seqs:
            if len(seq) != len(seqs[0]):
                raise ShapeError(f"a chunk holds sequences of {len(seqs[0])} and {len(seq)} tokens")
        self.seqs = list(seqs)

    def __len__(self) -> int:
        return len(self.seqs) * len(self.seqs[0])


def chunks(seqs: list[TokenSequence]):
    """Chunks of consecutive equal-length sequences, in order, each of at most
    CHUNK_TOKENS tokens or else a single sequence."""
    run: list[TokenSequence] = []
    for seq in seqs:
        if run and (len(seq) != len(run[0]) or (len(run) + 1) * len(seq) > CHUNK_TOKENS):
            yield Chunk(run)
            run = []
        run.append(seq)
    if run:
        yield Chunk(run)


def forward(model: ToyModel, seq: TokenSequence | Chunk, capture: CaptureFlags = CaptureFlags(),
            on_block=None):
    """Run every block of `model` on one sequence or on a Chunk, from the embeddings.
    A chunk's S sequences run as one (S, N, d_model) stack: the returned state is a
    stack, and one ActivationTrace per sequence is returned. One sequence runs as a
    chunk of one, with an N x d_model state and its one trace.

    Each trace holds exactly the requested captures: the post-softmax, head-averaged
    attention's per-span row sums (`span_mass`, the sample's own array) and final query's
    row, keyed by each block's `index` (so a one-block model holding block b records b),
    and `hiddens[j]` entering the model's j-th block. Each other captured array is a view
    of sample s in an array shared by the chunk and is never written afterwards, so q/k/v
    share one input array and gate/up another; `hiddens[0]` is a copy, so a trace never
    aliases the input. Every matmul and reduction works per sample and per row, so a
    sample's results do not depend on the chunk it runs in.

    With `on_block`, after each block, in order, the forward calls `on_block(outputs)`
    with that block's `{(b, kind): (S, N, C) projection output}`: the arrays the block
    made, never written afterwards, so a caller may keep them. The traces returned are
    those of a forward without it.
    """
    if isinstance(seq, Chunk):
        return _forward(model, seq, capture, on_block)
    state, traces = _forward(model, Chunk([seq]), capture, on_block)
    return state[0], traces[0]


@np.errstate(over="ignore", invalid="ignore")  # overflow surfaces as a NumericError, not a warning
def _forward(model: ToyModel, chunk: Chunk, capture: CaptureFlags, on_block):
    """`forward` on a chunk: an (S, N, d_model) state out, one trace per sequence.

    Per block, k's output, the attention row sums and the residual are checked finite. IEEE
    arithmetic carries any other non-finite output into the last two, whose failure names the
    first non-finite output in order: the error a check after every projection would raise."""
    seqs = chunk.seqs
    n, d = len(seqs[0]), model.d_model
    for seq in seqs:
        if seq.dim != d:
            raise ShapeError(f"sequence dim {seq.dim} != model d_model {d}")
    s, h, dh = len(seqs), model.n_heads, model.head_dim
    x = seqs[0].embeddings[None] if s == 1 else np.stack([seq.embeddings for seq in seqs])
    traces = [ActivationTrace(spans=list(seq.spans)) for seq in seqs]

    # per trace field, the last stacked array recorded and its per-sample views, so the
    # captures of q/k/v (and of gate/up) share one input view per sample
    views: dict[str, tuple] = {}

    def record(field: str, key, stacked: np.ndarray) -> None:
        if field not in views or views[field][0] is not stacked:
            views[field] = (stacked, list(stacked))
        for trace, one in zip(traces, views[field][1]):
            getattr(trace, field)[key] = one

    if capture.hiddens:
        for trace, one in zip(traces, x.copy()):
            trace.hiddens.append(one)
    scores = np.empty((s, h, n, n), dtype=np.float32)  # every block's attention; captures copy it

    for block in model.blocks:
        b = block.index
        # held to the block's end, for a failed check's rescan and for the callback
        outputs = {}

        def project(kind: str, inp: np.ndarray) -> np.ndarray:
            out = outputs[(b, kind)] = inp @ block.layers[kind].weight.T
            if capture.inputs:
                record("layer_inputs", (b, kind), inp)
            if capture.outputs:
                record("layer_outputs", (b, kind), out)
            return out

        attn_in = _rms_norm(x, block.attn_norm_scale)
        q = project("q", attn_in)
        # checked alone: a non-finite k may leave only -inf scores in rows that keep a finite one
        k = _check_finite(project("k", attn_in), f"block{b}.k", outputs)
        v = project("v", attn_in)

        # (S, heads, N, dh)
        qh = q.reshape(s, n, h, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(s, n, h, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(s, n, h, dh).transpose(0, 2, 1, 3)
        np.matmul(qh, kh.transpose(0, 1, 3, 2), out=scores)
        scores /= np.float32(np.sqrt(dh))
        _check_finite(_causal_softmax(scores), f"block{b}.attention", outputs)
        if capture.span_mass:  # the N x N head average is a temporary; only these sums stay
            for trace, attn in zip(traces, scores.mean(axis=1)):
                trace.span_mass[b] = np.stack([attn[:, span.start:span.stop].sum(axis=1) for span in trace.spans])
            del attn  # a view of the average: kept, it would live on beside the next block's
        if capture.final_query:  # the last row of the head average above, bitwise
            record("final_query", b, scores[:, :, -1, :].mean(axis=1))

        # the context stays a temporary: o's output, held for a rescan, takes its place
        x = x + project("o", (scores @ vh).transpose(0, 2, 1, 3).reshape(s, n, d).astype(np.float32, copy=False))

        ffn_in = _rms_norm(x, block.ffn_norm_scale)
        gate = project("gate", ffn_in)
        up = project("up", ffn_in)
        act = np.negative(gate)  # SiLU(gate) * up, in place: gate is captured, act is not
        np.exp(act, out=act)
        act += 1.0
        np.divide(gate, act, out=act)
        act *= up
        x += project("down", act.astype(np.float32, copy=False))  # in place: x + o is uncaptured
        _check_finite(x, f"block{b}.residual", outputs)

        if capture.hiddens:
            for trace, one in zip(traces, x):
                trace.hiddens.append(one)
        if on_block is not None:
            on_block(outputs)

    return x, traces


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
