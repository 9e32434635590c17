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


def projection_shape(kind: str, d_model: int, d_ff: int) -> tuple[int, int]:
    """The (out_features, in_features) weight shape of projection `kind`."""
    return {"gate": (d_ff, d_model), "up": (d_ff, d_model), "down": (d_model, d_ff)}.get(kind, (d_model, d_model))


class ToyModel:
    def __init__(self, blocks: list[Block], n_heads: int, d_model: int, d_ff: int, seed: int):
        if d_model % n_heads != 0:
            raise ConfigError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        for block in blocks:
            for kind in PROJECTION_KINDS:
                layer = block.layers[kind]
                shape = projection_shape(kind, d_model, d_ff)
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


@dataclass
class BlockRecord:
    """What a forward over S sequences of N tokens hands `on_block` after block `index`:
    each projection's (S, N, C) input and output under (index, kind), q/k/v sharing one
    input array and gate/up another; the (S, N, d_model) states entering and leaving the
    block (`hiddens`), arrays the forward makes anyway; the final query's head-averaged
    attention row (`final_query`, (S, N) float32); and, only if the forward is asked for
    `span_mass`, per sequence that attention's (n_spans, N) row sums over each span's
    keys, which take an (S, N, N) head average. None is N x N. The forward never writes
    any of them after handing them over, so a callback may keep them."""

    index: int
    inputs: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    outputs: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)
    hiddens: tuple[np.ndarray, ...] = ()
    final_query: np.ndarray | None = None
    span_mass: list[np.ndarray] | None = None


def _check_finite(x: np.ndarray, where: str, record: BlockRecord) -> np.ndarray:
    """`x` if finite; else a NumericError at the first non-finite output of `record`, or at
    the residual where gate's input (the normed x + o) is non-finite first; else at `where`."""
    if not np.isfinite(x).all():
        for (b, kind), out in record.outputs.items():
            if kind == "gate" and not np.isfinite(record.inputs[b, kind]).all():
                where = f"block{b}.residual"
                break
            if not np.isfinite(out).all():
                where = f"block{b}.{kind}"
                break
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


def forward(model: ToyModel, seq: TokenSequence | Chunk, span_mass: bool = False, on_block=None) -> np.ndarray:
    """The state after every block of `model` on one sequence or on a Chunk, from the
    embeddings. A chunk's S sequences run as one (S, N, d_model) stack and return its
    state stack; one sequence runs as a chunk of one and returns its N x d_model state.
    Every matmul and reduction works per sample and per row, so a sample's results do
    not depend on the chunk it runs in.

    `on_block`, if given, is called after each block, in order, with its BlockRecord,
    as (S, N, ...) stacks even for one sequence; its `span_mass` only if `span_mass`.
    The block's (S, heads, N, N) scores are freed before it, so whatever the callback
    runs does not sit beside them.
    """
    if isinstance(seq, Chunk):
        return _forward(model, seq, span_mass, on_block)
    return _forward(model, Chunk([seq]), span_mass, on_block)[0]


@np.errstate(over="ignore", invalid="ignore")  # overflow surfaces as a NumericError, not a warning
def _forward(model: ToyModel, chunk: Chunk, span_mass: bool, on_block):
    """`forward` on a chunk: an (S, N, d_model) state out.

    Per block, k's output, the attention row sums and the residual are checked finite. IEEE
    arithmetic carries any other non-finite output into the last two, whose failure names the
    first non-finite output in order, or the residual if x + o is non-finite before gate's:
    the error a check after every projection and after x + o would raise."""
    seqs = chunk.seqs
    n, d = len(seqs[0]), model.d_model
    for seq in seqs:
        if seq.dim != d:
            raise ShapeError(f"sequence dim {seq.dim} != model d_model {d}")
    s, h, dh = len(seqs), model.n_heads, model.head_dim
    x = np.stack([seq.embeddings for seq in seqs])  # a copy: no record aliases the input

    for block in model.blocks:
        b = block.index
        # held to the block's end, for a failed check's rescan and for the callback
        record = BlockRecord(b, hiddens=(x,))

        def project(kind: str, inp: np.ndarray) -> np.ndarray:
            record.inputs[(b, kind)] = inp
            out = record.outputs[(b, kind)] = inp @ block.layers[kind].weight.T
            return out

        attn_in = _rms_norm(x, block.attn_norm_scale)
        q = project("q", attn_in)
        # checked alone: a non-finite k may leave only -inf scores in rows that keep a finite one
        k = _check_finite(project("k", attn_in), f"block{b}.k", record)
        v = project("v", attn_in)

        # (S, heads, N, dh)
        qh = q.reshape(s, n, h, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(s, n, h, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(s, n, h, dh).transpose(0, 2, 1, 3)
        scores = np.matmul(qh, kh.transpose(0, 1, 3, 2))  # freed before the callback
        scores /= np.float32(np.sqrt(dh))
        _check_finite(_causal_softmax(scores), f"block{b}.attention", record)
        if span_mass:  # the N x N head average is a temporary; only these sums stay
            record.span_mass = [np.stack([attn[:, span.start:span.stop].sum(axis=1) for span in seq.spans])
                                for attn, seq in zip(scores.mean(axis=1), seqs)]
        record.final_query = scores[:, :, -1, :].mean(axis=1)  # the last row of that head average, bitwise
        context = (scores @ vh).transpose(0, 2, 1, 3).reshape(s, n, d).astype(np.float32, copy=False)
        del scores
        x = x + project("o", context)

        ffn_in = _rms_norm(x, block.ffn_norm_scale)
        gate = project("gate", ffn_in)
        up = project("up", ffn_in)
        act = np.negative(gate)  # SiLU(gate) * up, in place: gate is recorded, act is not
        np.exp(act, out=act)
        act += 1.0
        np.divide(gate, act, out=act)
        act *= up
        x += project("down", act.astype(np.float32, copy=False))  # in place: x + o is unrecorded
        _check_finite(x, f"block{b}.residual", record)

        record.hiddens += (x,)  # x + o is a new array, so the entering state is unwritten
        if on_block is not None:
            on_block(record)
    return x


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
            out_dim, in_dim = projection_shape(kind, d_model, d_ff)
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
