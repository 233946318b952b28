"""The insertion model: encoder, non-causal decoder, slot heads.

The decoder runs without a causal mask over [left-marker] + canvas +
[right-marker], and each adjacent pair of final-layer vectors is merged
into one slot representation, giving T+1 rows for a length-T canvas. Four
output-head variants turn the slot matrix into a distribution over
(content, location) insertion actions:

  * joint       -- one softmax over all (T+1) * |C| logits
  * factorized  -- p(l) from a learned location query, p(c|l) per slot
  * contextual vocabulary bias -- max-pooled slot context projected to a
    shared per-token bias added to every slot's logits
  * mixture of softmaxes -- K-component mixture replacing the single
    content softmax

Everything here is pure given the parameters. Batched calls take padded id
arrays (B, T) plus lengths, and their position-wise layers (the embedding
sum, the q/k/v/o projections, the FFN and residual plus layer norm) run on
the real token rows only: an (N, h) tensor of the N = sum(lengths) real
positions, in row-major order. Each attention call scatters its q/k/v rows
into zero-padded (B, T, h) slabs with a key mask and gathers the real output
rows back. When nothing is padded (every decode call) the row index and the
mask are None, the layers run on the (B, T, h) slab itself, and no row moves.

The decoder reads a source only through cross-attention, so `encode_batch`
returns just that: `(cross, src_mask)`, each decoder layer's cross-attention
(keys, values) slabs (B, S, h), projected from the encoder's real rows, and
the sources' key mask (None when no source is padded). `slot_matrix_batch`
takes the pair as given. `encode` returns it for one source, and a decode
loop hands it to every iteration, so the source side is computed once per
sentence. The pair is a plain value the caller holds; the model keeps no
state between calls.

Parameters live in `params`, keyed by dotted name (`dec0.self.wq`). The
forward reads them through sublayer records built once at init: per layer
a tuple of records, one per sublayer in `ENCODER_SUBLAYERS` or
`DECODER_SUBLAYERS` order, each a tuple of the very `Tensor` objects of
`params` in its fields' order (attention `ATTENTION`, FFN `FFN`, norm
`NORM`). So Adam's updates and `checkpoint.load`, which assign each
Tensor's `.data`, reach the forward, and no call formats a key. Each
sublayer's residual add is the `residual` operand of the `ad.layer_norm`
that follows it: `x = layer_norm(x, gain, bias, residual=sublayer(x))`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .canvas import TokenSeq
from .vocab import LEFT_MARK, PAD, RIGHT_MARK

NEG_INF = -1e9  # additive mask value; safe in float32

# a sublayer record's fields, in the order the forward unpacks them
ATTENTION = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
FFN = ("w1", "b1", "w2", "b2")
NORM = ("gain", "bias")
ENCODER_SUBLAYERS = (("attn", ATTENTION), ("ln1", NORM), ("ffn", FFN), ("ln2", NORM))
DECODER_SUBLAYERS = (
    ("self", ATTENTION), ("ln1", NORM), ("cross", ATTENTION), ("ln2", NORM), ("ffn", FFN), ("ln3", NORM)
)


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    num_layers: int = 2
    num_heads: int = 4
    d_ff: int = 256
    head_variant: str = "joint"
    use_contextual_bias: bool = False
    mos_components: int = 1
    max_positions: int = 64
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("d_model", "num_layers", "num_heads", "d_ff"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        if self.mos_components < 1:
            raise ValueError("mos_components must be >= 1")
        if self.head_variant not in ("joint", "factorized"):
            raise ValueError(f"unknown head_variant {self.head_variant!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def decoder_positions(n):
    """Decoder positions a length-n canvas takes: the canvas plus its two boundary markers."""
    return n + 2


def sinusoidal_positions(max_positions: int, d_model: int, dtype) -> np.ndarray:
    """Fixed sin/cos positional table of shape (max_positions, d_model)."""
    pos = np.arange(max_positions, dtype=np.float64)[:, None]
    i = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, i / d_model)
    table = np.zeros((max_positions, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : d_model // 2])
    return table.astype(dtype)


class InsertionModel:
    """Encoder-decoder with insertion-slot output heads."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(seed))
        # built once: the positions of each width T, table[:T], and the embedding scale
        table = sinusoidal_positions(config.max_positions, config.d_model, config.np_dtype)
        self._positions = [Tensor(table[:T]) for T in range(config.max_positions + 1)]
        self._scale = Tensor(np.asarray(math.sqrt(config.d_model), dtype=config.np_dtype))
        # per layer, its sublayer records (see the module docstring)
        self._encoder = [self._records(f"enc{i}", ENCODER_SUBLAYERS) for i in range(config.num_layers)]
        self._decoder = [self._records(f"dec{i}", DECODER_SUBLAYERS) for i in range(config.num_layers)]

    # -- parameters ---------------------------------------------------------

    def _add_param(self, name: str, value: np.ndarray) -> None:
        self.params[name] = Tensor(value.astype(self.config.np_dtype), requires_grad=True)

    def _glorot(self, rng, fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def _init_params(self, rng) -> None:
        cfg = self.config
        h, v = cfg.d_model, cfg.vocab_size
        self._add_param("embed", rng.normal(0.0, h**-0.5, size=(v, h)))

        def attn_block(prefix: str):
            for name in ("wq", "wk", "wv", "wo"):
                self._add_param(f"{prefix}.{name}", self._glorot(rng, h, h))
                self._add_param(f"{prefix}.b{name[1]}", np.zeros(h))

        def ffn_block(prefix: str):
            self._add_param(f"{prefix}.w1", self._glorot(rng, h, cfg.d_ff))
            self._add_param(f"{prefix}.b1", np.zeros(cfg.d_ff))
            self._add_param(f"{prefix}.w2", self._glorot(rng, cfg.d_ff, h))
            self._add_param(f"{prefix}.b2", np.zeros(h))

        def norm_block(prefix: str):
            self._add_param(f"{prefix}.gain", np.ones(h))
            self._add_param(f"{prefix}.bias", np.zeros(h))

        blocks = {ATTENTION: attn_block, FFN: ffn_block, NORM: norm_block}
        for stack, sublayers in (("enc", ENCODER_SUBLAYERS), ("dec", DECODER_SUBLAYERS)):
            for i in range(cfg.num_layers):
                for name, fields in sublayers:
                    blocks[fields](f"{stack}{i}.{name}")

        self._add_param("slot_merge.w", self._glorot(rng, 2 * h, h))
        self._add_param("slot_merge.b", np.zeros(h))
        self._add_param("out.w", self._glorot(rng, h, v))
        if cfg.head_variant == "factorized":
            self._add_param("out.loc_query", self._glorot(rng, h, 1))
        if cfg.use_contextual_bias:
            self._add_param("out.ctx_bias", self._glorot(rng, h, v))
        if cfg.mos_components > 1:
            for k in range(cfg.mos_components):
                self._add_param(f"out.mos{k}.w", self._glorot(rng, h, h))
                self._add_param(f"out.mos{k}.b", np.zeros(h))
            self._add_param("out.mos_prior", self._glorot(rng, h, cfg.mos_components))

    def _records(self, layer: str, sublayers: tuple[tuple[str, tuple[str, ...]], ...]) -> tuple:
        """A layer's sublayer records: per (name, fields) the tuple of Tensors `params[f"{layer}.{name}.{field}"]`."""
        return tuple(tuple(self.params[f"{layer}.{name}.{f}"] for f in fields) for name, fields in sublayers)

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- building blocks ----------------------------------------------------

    def _kv(self, attn: tuple[Tensor, ...], x: Tensor, layout: Layout) -> tuple[Tensor, Tensor]:
        """Keys and values of x's rows under an attention record, each as a (B, T, h) slab."""
        _, _, wk, bk, wv, bv, _, _ = attn
        return _pad(ad.affine(x, wk, bk), layout), _pad(ad.affine(x, wv, bv), layout)

    def _attn(
        self,
        attn: tuple[Tensor, ...],
        x: Tensor,
        layout: Layout,
        mask: np.ndarray | None,
        kv: tuple[Tensor, Tensor] | None = None,
    ) -> Tensor:
        """Attention of x's rows over kv, a (keys, values) pair of slabs; self-attention when kv is None."""
        wq, bq, _, _, _, _, wo, bo = attn
        q = ad.affine(x, wq, bq)
        k, v = self._kv(attn, x, layout) if kv is None else kv
        a = ad.attention(_pad(q, layout), k, v, num_heads=self.config.num_heads, mask=mask)
        return ad.affine(_unpad(a, layout), wo, bo)

    @staticmethod
    def _ffn(ffn: tuple[Tensor, ...], x: Tensor) -> Tensor:
        w1, b1, w2, b2 = ffn
        return ad.affine(ad.relu(ad.affine(x, w1, b1)), w2, b2)

    def _embed_positions(self, ids: np.ndarray, layout: Layout) -> Tensor:
        """Scaled token embeddings plus positions of the real rows of ids (B, T)."""
        rows = layout[0]
        T = ids.shape[-1]
        pe = self._positions[T]
        if rows is not None:
            ids, pe = ids.reshape(-1)[rows], Tensor(pe.data[rows % T])
        emb = ad.embedding(self.params["embed"], ids)
        return ad.add(ad.mul(emb, self._scale), pe)

    # -- encoder ------------------------------------------------------------

    def encode_batch(
        self, src: np.ndarray, src_len: np.ndarray
    ) -> tuple[list[tuple[Tensor, Tensor]], np.ndarray | None]:
        """What the decoder reads of padded sources (B, S): `(cross, src_mask)`.

        `cross` holds each decoder layer's cross-attention (keys, values),
        (B, S, h) slabs projected from the encoder output's real rows.
        `src_mask` is the key mask (B, 1, S), None when every src_len == S.
        """
        B, S = src.shape
        if S > self.config.max_positions:
            raise ValueError(f"source length {S} exceeds max_positions {self.config.max_positions}")
        layout, mask = _layout(src_len, S)
        x = self._embed_positions(src, layout)
        for attn, ln1, ffn, ln2 in self._encoder:
            x = ad.layer_norm(x, *ln1, residual=self._attn(attn, x, layout, mask))
            x = ad.layer_norm(x, *ln2, residual=self._ffn(ffn, x))
        return [self._kv(cross_attn, x, layout) for _, _, cross_attn, *_ in self._decoder], mask

    # -- decoder / slot matrix ----------------------------------------------

    def slot_matrix_batch(
        self,
        cross: list[tuple[Tensor, Tensor]],
        src_mask: np.ndarray | None,
        canvas: np.ndarray,
        canvas_len: np.ndarray,
    ) -> tuple[Tensor, np.ndarray]:
        """Slot representations for padded canvases (B, C).

        Decoder input is [left-marker] + canvas + [right-marker]; its
        self-attention is fully unmasked across real positions. `cross` and
        `src_mask` are what `encode_batch` returned. Returns H (B, C+1,
        d_model) and the boolean slot validity mask (B, C+1) (slot l is
        valid iff l <= canvas length).
        """
        B, C = canvas.shape
        width = decoder_positions(C)
        if width > self.config.max_positions:
            raise ValueError(
                f"canvas length {C} needs {width} decoder positions, exceeding max_positions "
                f"{self.config.max_positions}"
            )
        layout, key_mask = _layout(decoder_positions(canvas_len), width)
        ids = np.full((B, width), PAD, dtype=np.int64)
        ids[:, 0] = LEFT_MARK
        ids[:, 1 : C + 1] = canvas
        if key_mask is None:  # every canvas is C long
            ids[:, C + 1] = RIGHT_MARK
        else:
            ids[np.arange(B), canvas_len + 1] = RIGHT_MARK

        x = self._embed_positions(ids, layout)
        for (self_attn, ln1, cross_attn, ln2, ffn, ln3), kv in zip(self._decoder, cross, strict=True):
            x = ad.layer_norm(x, *ln1, residual=self._attn(self_attn, x, layout, key_mask))
            x = ad.layer_norm(x, *ln2, residual=self._attn(cross_attn, x, layout, src_mask, kv))
            x = ad.layer_norm(x, *ln3, residual=self._ffn(ffn, x))
        pairs = ad.adjacent_pairs(_pad(x, layout))  # (B, C+1, 2h)
        H = ad.affine(pairs, self.params["slot_merge.w"], self.params["slot_merge.b"])
        # slot l is valid iff l <= canvas_len, i.e. iff decoder position l + 1 is real
        slot_mask = np.ones((B, C + 1), dtype=bool) if key_mask is None else key_mask[:, 0, 1:]
        return H, slot_mask

    # -- output heads ---------------------------------------------------------

    def _context_vector(self, H: Tensor, slot_mask: np.ndarray) -> Tensor:
        """Max-pool H over valid slots: (B, S1, h) -> (B, h)."""
        return ad.max_over_axis(_gate_slots(H, slot_mask), axis=-2)

    def _content_logits(self, H: Tensor, bias: Tensor | None) -> list[Tensor]:
        """Per-mixture-component content logits (each (B, S1, V))."""
        cfg = self.config
        outs = []
        K = cfg.mos_components
        for k in range(K):
            z = H
            if K > 1:
                z = ad.tanh(ad.affine(H, self.params[f"out.mos{k}.w"], self.params[f"out.mos{k}.b"]))
            logits = ad.matmul(z, self.params["out.w"])
            if bias is not None:
                logits = ad.add(logits, ad.reshape(bias, (bias.shape[0], 1, bias.shape[1])))
            outs.append(logits)
        return outs

    def joint_log_probs_batch(self, H: Tensor, slot_mask: np.ndarray) -> Tensor:
        """Joint log p(c, l) of shape (B, C+1, V), normalized per item over valid slots."""
        cfg = self.config
        B, S1, _ = H.shape
        V = cfg.vocab_size
        bias = None
        g = None
        if cfg.use_contextual_bias or cfg.mos_components > 1:
            g = self._context_vector(H, slot_mask)
        if cfg.use_contextual_bias:
            bias = ad.matmul(ad.reshape(g, (B, 1, -1)), self.params["out.ctx_bias"])
            bias = ad.reshape(bias, (B, V))
        components = self._content_logits(H, bias)

        if cfg.head_variant == "joint":
            per_comp = []
            for logits in components:
                flat = ad.reshape(_gate_slots(logits, slot_mask), (B, S1 * V))
                per_comp.append(ad.reshape(ad.log_softmax(flat, axis=-1), (B, S1, V)))
            if cfg.mos_components == 1:
                return per_comp[0]
            prior = ad.matmul(ad.reshape(g, (B, 1, -1)), self.params["out.mos_prior"])  # (B, 1, K)
            return _mix(per_comp, ad.log_softmax(prior, axis=-1))

        # factorized: p(l) from the location query, p(c|l) per slot
        log_p_loc = self.location_log_probs_batch(H, slot_mask)
        per_comp = [ad.log_softmax(logits, axis=-1) for logits in components]
        if cfg.mos_components == 1:
            log_p_content = per_comp[0]
        else:
            prior = ad.matmul(H, self.params["out.mos_prior"])  # (B, S1, K)
            log_p_content = _mix(per_comp, ad.log_softmax(prior, axis=-1))
        return ad.add(ad.reshape(log_p_loc, (B, S1, 1)), log_p_content)

    def location_log_probs_batch(self, H: Tensor, slot_mask: np.ndarray) -> Tensor:
        """Factorized-head location distribution log p(l), shape (B, C+1)."""
        if self.config.head_variant != "factorized":
            raise ValueError("location distribution only exists for the factorized head")
        B, S1, _ = H.shape
        loc = ad.reshape(ad.matmul(H, self.params["out.loc_query"]), (B, S1))
        return ad.log_softmax(_gate_slots(loc, slot_mask), axis=-1)

    # -- single-sequence convenience (inference) ------------------------------

    def encode(self, x: TokenSeq):
        """Encode one source sequence; returns the `encode_batch` pair (cross, src_mask)."""
        return self.encode_batch(np.asarray([list(x)], dtype=np.int64), np.array([len(x)]))

    def log_probs(self, source, canvas: TokenSeq) -> np.ndarray:
        """Joint log p(c, l) for one canvas, given the pair `encode` returned: ndarray (T+1, vocab)."""
        ids = np.array([canvas], dtype=np.int64)  # (1, 0) for the empty canvas too
        H, slot_mask = self.slot_matrix_batch(*source, ids, np.array([len(canvas)]))
        return self.joint_log_probs_batch(H, slot_mask).data[0]


# A batch's row layout: (rows, (B, T)). rows holds the flat numbers b * T + t
# of the real positions of a (B, T) slab, and position-wise layers run on
# those rows only, an (N, h) tensor. rows is None when nothing is padded; the
# layers then run on the (B, T, h) slab itself and padding moves nothing.
Layout = tuple[np.ndarray | None, tuple[int, int]]


def _layout(lengths: np.ndarray, T: int) -> tuple[Layout, np.ndarray | None]:
    """Row layout and key mask (B, 1, T) of rows holding lengths[b] <= T real positions each."""
    if lengths.min() == T:
        return (None, (len(lengths), T)), None
    valid = np.arange(T)[None, :] < lengths[:, None]
    return (np.flatnonzero(valid), valid.shape), valid[:, None, :]


def _pad(x: Tensor, layout: Layout) -> Tensor:
    """Real rows (N, h) as a zero-padded (B, T, h) slab; x itself when nothing is padded."""
    rows, (B, T) = layout
    return x if rows is None else ad.scatter_rows(x, rows, (B, T, x.shape[-1]))


def _unpad(x: Tensor, layout: Layout) -> Tensor:
    """The real rows (N, h) of a (B, T, h) slab; x itself when nothing is padded."""
    rows = layout[0]
    return x if rows is None else ad.gather_rows(x, rows)


def _gate_slots(x: Tensor, slot_mask: np.ndarray) -> Tensor:
    """x (B, S1, ...) plus NEG_INF on invalid slots; x itself when every slot is valid."""
    if slot_mask.all():  # adding 0.0 changes no value
        return x
    gate = np.where(slot_mask, 0.0, NEG_INF).astype(x.dtype)
    return ad.add(x, Tensor(gate.reshape(slot_mask.shape + (1,) * (x.data.ndim - 2))))


def _mix(per_comp: list[Tensor], log_prior: Tensor) -> Tensor:
    """Mixture log sum_k pi_k p_k of K component log-probs (B, S1, V).

    `log_prior` is (B, P, K) with P = S1 (a prior per slot) or P = 1 (one
    per item); one gather moves its component axis first, to (K, B, P, 1).
    """
    B, P, K = log_prior.shape
    k = np.arange(K)[:, None, None, None]
    b = np.arange(B)[None, :, None, None]
    p = np.arange(P)[None, None, :, None]
    prior_first = ad.take(log_prior, (b, p, k))
    return ad.logsumexp(ad.add(ad.stack(per_comp, axis=0), prior_first), axis=0)


def conditional_log_probs(joint_logp: np.ndarray) -> np.ndarray:
    """Per-slot conditionals log p(c | l) from joint log-probs: each slot minus its logsumexp."""
    m = joint_logp.max(axis=-1, keepdims=True)
    e = joint_logp - m
    np.exp(e, out=e)
    lse = e.sum(axis=-1, keepdims=True)
    np.log(lse, out=lse)
    lse += m
    return joint_logp - lse
