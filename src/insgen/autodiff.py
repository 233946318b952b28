"""Minimal dense-tensor arithmetic with reverse-mode automatic differentiation.

Just enough machinery for a small encoder-decoder attention model: matmul,
softmax, layer norm, fused multi-head attention (its heads are strided
views; it copies only to make keys, values or scores key-major), embedding
lookups, gathers, row gathers and scatters between padded slabs and their
real rows, and reductions. Tensors wrap numpy arrays; a Tape records ops in
execution order (which is already topological) and replays them in reverse
to accumulate gradients.

A tape holds only what its backward reads. Each recorded node keeps its
backward closure and, per input, where that input's gradient goes: the
tape-local index of its producer node, the leaf Tensor itself, or None
when it needs no gradient. A closure captures the arrays, shapes and
dtypes its formula reads (an affine keeps its operand arrays, an add only
shapes, attention its weights and views of the scaled queries, keys and
values), never an input Tensor, and nothing holds an op's output but the
caller. So once the forward has returned, the tape's memory is the saved
arrays, not every intermediate. An output links to its producer through
`Tensor.node`; a node names its tape by serial number only, so tapes form
no reference cycles and free as soon as the last reference goes.

A tape's backward runs once: it takes each node off the tape as it
reaches it, so the saved arrays free while the backward proceeds, and a
second backward on that tape raises RuntimeError.

With no tape open an op does no tape work: it runs its forward, the
finite check (`set_finite_checks`), and returns. It builds no backward
closure, saves nothing, and skips what only a backward reads (the `exp`
in `log_softmax` and `logsumexp`, the argmax in `max_over_axis`). Its
output has the same bits as the same call on a tape, so a decode, which
opens no tape, pays only for its forward math. Each op keeps one path;
the untaped return sits in the op, past its forward.

Ops take Tensors and read their `.data`; nothing coerces an operand. A
constant enters an op in one of two ways: as `mul`'s second operand, which
becomes an array of its partner's dtype, or wrapped by the caller as an
explicit `Tensor`, whose dtype the caller then chooses.

Two precisions are supported: float64 for gradient checking, float32 for
training speed. No broadcasting beyond what the model needs.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "set_finite_checks",
    "matmul",
    "add",
    "affine",
    "sub",
    "neg",
    "mul",
    "relu",
    "tanh",
    "softmax",
    "log_softmax",
    "logsumexp",
    "layer_norm",
    "attention",
    "embedding",
    "adjacent_pairs",
    "max_over_axis",
    "take",
    "gather_rows",
    "scatter_rows",
    "tsum",
    "tmean",
    "reshape",
    "stack",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A dense array with an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node: _Node | None = None  # the op that made this tensor on a tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


_FINITE_CHECKS = False


def set_finite_checks(enabled: bool) -> None:
    """Toggle per-op NaN/Inf detection (on in tests, off in hot loops)."""
    global _FINITE_CHECKS
    _FINITE_CHECKS = enabled


class _Node:
    """One recorded op: its backward closure and where each input's gradient goes.

    `parents[i]` is the tape-local index of input i's producer, the input
    itself if it is a leaf of this tape, or None if it needs no gradient.
    `tape` is the serial number of the recording tape and `index` this
    node's place on it.
    """

    __slots__ = ("backward_fn", "parents", "tape", "index")

    def __init__(self, backward_fn, parents: list, tape: int, index: int):
        self.backward_fn = backward_fn
        self.parents = parents
        self.tape = tape
        self.index = index


class Tape:
    """Execution-ordered record of differentiable ops.

    Ops append themselves while a tape is active (``with Tape() as t:``).
    Because ops record at execution time the list is topologically sorted
    by construction; reverse traversal propagates gradients. A tensor made
    on another tape is a leaf of this one.
    """

    _serials = itertools.count()

    def __init__(self):
        self.nodes: list[_Node] = []
        self.serial = next(Tape._serials)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self


_TAPE_STACK: list[Tape] = []


def _parent(t: Tensor, serial: int):
    """Where t's gradient goes on tape `serial`: its producer's index, t itself as a leaf, or None."""
    if not t.requires_grad:
        return None
    node = t.node
    return node.index if node is not None and node.tape == serial else t


def _output(data: np.ndarray) -> Tensor:
    """The output Tensor of an op around the float array its forward just made.

    Runs the finite check (see `set_finite_checks`), then wraps the array
    without `Tensor.__init__`'s asarray/dtype pass: an op's forward already
    made a float array of its operands' dtype. Only a 0-d result, which
    numpy hands back as a scalar, becomes an array here.
    """
    if _FINITE_CHECKS and not np.all(np.isfinite(data)):
        raise FloatingPointError("op produced non-finite values")
    out = object.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.requires_grad = False
    out.node = None
    return out


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Put out's node on the open tape, unless no input needs a gradient.

    An op calls this only with a tape open; with none it has already
    returned its output.
    """
    tape = _TAPE_STACK[-1]
    serial, nodes = tape.serial, tape.nodes
    parents = [_parent(t, serial) for t in inputs]
    if parents.count(None) == len(parents):  # no input needs a gradient
        return out
    out.requires_grad = True
    out.node = _Node(backward_fn, parents, serial, len(nodes))
    nodes.append(out.node)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every leaf tensor on the tape.

    A tape's backward runs once: each node leaves the tape (its slot becomes
    None) as the loop reaches it, so its saved arrays free while the
    backward runs, and a second call raises RuntimeError. Leaf grads
    accumulate across tapes; callers zero them between steps. Never mutates
    intermediate grad buffers in place, so shared upstream arrays stay intact.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    last = loss.node
    if last is None or last.tape != tape.serial:
        if loss.requires_grad:
            loss.accumulate_grad(np.ones_like(loss.data))
        return
    grads: list[np.ndarray | None] = [None] * (last.index + 1)  # by node index
    grads[-1] = np.ones_like(loss.data)
    leaves: dict[Tensor, np.ndarray] = {}  # a Tensor hashes by identity
    for i in reversed(range(len(grads))):
        g_out, grads[i] = grads[i], None
        node, tape.nodes[i] = tape.nodes[i], None
        if g_out is None:
            continue
        if node is None:
            raise RuntimeError("backward already ran on this tape")
        for parent, g in zip(node.parents, node.backward_fn(g_out)):
            if g is None or parent is None:
                continue
            if type(parent) is int:
                acc = grads[parent]
                grads[parent] = g if acc is None else acc + g
            else:
                acc = leaves.get(parent)
                leaves[parent] = g if acc is None else acc + g
    for t, g in leaves.items():
        t.accumulate_grad(g)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (..., k) @ (k, n), as one GEMM over a's rows."""
    a_data, b_data = a.data, b.data
    a_shape = a_data.shape
    if a_data.ndim < 2 or b_data.ndim != 2:
        raise ShapeError(f"matmul needs (..., k) @ (k, n) operands, got {a_shape} and {b_data.shape}")
    if a_shape[-1] != b_data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a_shape} vs {b_data.shape}")
    k, n = b_data.shape
    out = _output((a_data.reshape(-1, k) @ b_data).reshape(a_shape[:-1] + (n,)))
    if not _TAPE_STACK:
        return out

    def bwd(g):
        g2 = g.reshape(-1, n)
        ga = (g2 @ b_data.T).reshape(a_shape)
        gb = a_data.reshape(-1, k).T @ g2
        return ga, gb

    return _record(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _output(a.data + b.data)
    if not _TAPE_STACK:
        return out
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record(out, (a, b), bwd)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for x (..., k), w (k, n), b (n,)."""
    x_data, w_data = x.data, w.data
    x_shape = x_data.shape
    if x_shape[-1] != w_data.shape[0]:
        raise ShapeError(f"affine inner dimensions disagree: {x_shape} vs {w_data.shape}")
    k, n = w_data.shape
    y = x_data.reshape(-1, k) @ w_data
    y += b.data
    out = _output(y.reshape(x_shape[:-1] + (n,)))
    if not _TAPE_STACK:
        return out

    def bwd(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ w_data.T).reshape(x_shape)
        gw = x_data.reshape(-1, k).T @ g2
        gb = np.add.reduce(g2, axis=0)
        return gx, gw, gb

    return _record(out, (x, w, b), bwd)


def neg(a: Tensor) -> Tensor:
    out = _output(-a.data)
    if not _TAPE_STACK:
        return out
    return _record(out, (a,), lambda g: (-g,))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise (broadcasting) product; a plain scalar/array b is a constant of a's dtype.

    An operand that needs no gradient gets none: its partner's array is
    neither saved nor multiplied in backward.
    """
    b = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.data.dtype))
    out = _output(a.data * b.data)
    if not _TAPE_STACK:
        return out
    a_shape, b_shape = a.data.shape, b.data.shape
    a_factor = b.data if a.requires_grad else None  # what a's gradient reads
    b_factor = a.data if b.requires_grad else None

    def bwd(g):
        return (
            None if a_factor is None else _unbroadcast(g * a_factor, a_shape),
            None if b_factor is None else _unbroadcast(g * b_factor, b_shape),
        )

    return _record(out, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0) elementwise, with +0.0 for every x <= 0; NaN propagates (it is not zeroed)."""
    y = np.maximum(a.data, 0)
    y += 0  # maximum(-0.0, 0) may be either zero, by platform; -0.0 + 0 is +0.0
    out = _output(y)
    if not _TAPE_STACK:
        return out
    # y > 0 exactly where x > 0; y is what the next op saves anyway, a mask would be one more array
    return _record(out, (a,), lambda g: (g * (y > 0),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = _output(y)
    if not _TAPE_STACK:
        return out
    return _record(out, (a,), lambda g: (g * (1.0 - y * y),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`: nonnegative, sums to one."""
    if a.data.shape[axis] == 0:
        raise ShapeError("softmax over an empty axis")
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _output(y)
    if not _TAPE_STACK:
        return out

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if a.data.shape[axis] == 0:
        raise ShapeError("log_softmax over an empty axis")
    m = a.data.max(axis=axis, keepdims=True)
    z = a.data - m
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    y = z - lse
    out = _output(y)
    if not _TAPE_STACK:
        return out
    p = np.exp(y)

    def bwd(g):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), bwd)


def logsumexp(a: Tensor, axis: int = 0) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    s = np.exp(a.data - m).sum(axis=axis)
    out = _output(np.squeeze(m, axis=axis) + np.log(s))
    if not _TAPE_STACK:
        return out
    p = np.exp(a.data - np.expand_dims(out.data, axis))

    def bwd(g):
        return (np.expand_dims(g, axis) * p,)

    return _record(out, (a,), bwd)


def _mean_last(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) by ndarray.mean's own steps, without its Python wrapper."""
    s = np.add.reduce(a, axis=-1, keepdims=True)
    np.true_divide(s, np.intp(a.shape[-1]), out=s, casting="unsafe")
    return s


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x_data = x.data
    mu = _mean_last(x_data)
    xhat = x_data - mu
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / x_data.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    gain_data = gain.data
    y = xhat * gain_data
    y += bias.data
    out = _output(y)
    if not _TAPE_STACK:
        return out

    def bwd(g):
        dxhat = g * gain_data
        dx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
        lead = tuple(range(g.ndim - 1))
        dgain = np.add.reduce(g * xhat, axis=lead)
        dbias = np.add.reduce(g, axis=lead)
        return dx, dgain, dbias

    return _record(out, (x, gain, bias), bwd)


def _key_major(x: np.ndarray) -> np.ndarray:
    """(..., Tk, n) -> a contiguous (..., n, Tk) copy."""
    return np.ascontiguousarray(x.swapaxes(-1, -2))


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    num_heads: int = 1,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Fused scaled-dot-product attention: softmax(QK^T / sqrt(d)) V per head.

    q: (B, Tq, h), k/v: (B, Tk, h) with h divisible by num_heads.
    mask, when given, is boolean with True marking visible keys and must
    broadcast to (B, Tq, Tk); with mask=None every position attends to
    every position.

    Heads are strided views, passed to BLAS as they are; w @ v and the
    backward's gq, gk, gv are written in place into new (B, T, h) arrays.
    Only k and v on a product's right (a transposed view rounds otherwise
    in float64 BLAS) and the scores for the exact row max are copied, key-major.
    """
    q_data, k_data, v_data = q.data, k.data, v.data
    q_shape, k_shape = q_data.shape, k_data.shape
    if q_data.ndim != 3 or q_shape[::2] != k_shape[::2] or k_shape != v_data.shape:  # (B, h) of q and k agree
        raise ShapeError(f"attention shapes disagree: q{q_shape} k{k_shape} v{v_data.shape}")
    B, Tq, h = q_shape
    if h % num_heads != 0:
        raise ShapeError(f"model width {h} not divisible by {num_heads} heads")
    d = h // num_heads
    Tk = k_shape[1]
    scale = q_data.dtype.type(1.0 / math.sqrt(d))

    def heads(x):  # (B, T, h) -> (B, heads, T, d), a strided view
        return x.reshape(B, -1, num_heads, d).transpose(0, 2, 1, 3)

    def product(a, b):  # a @ b per head, written in place into a new C-contiguous (B, T, h)
        x = np.empty((B, a.shape[-2], h), dtype=np.result_type(a, b))
        np.matmul(a, b, out=heads(x))
        return x

    qh, kh, vh = heads(q_data * scale), heads(k_data), heads(v_data)
    scores = qh @ _key_major(kh)
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.ndim != 3 or any(
            ms not in (1, full) for ms, full in zip(m.shape, (B, Tq, Tk))
        ):
            raise ShapeError(f"attention mask {m.shape} does not broadcast to {(B, Tq, Tk)}")
        dt = scores.dtype.type
        scores += np.where(m, dt(0), dt(-1e9))[:, None, :, :]
    # each row's max over a key-major copy: a contiguous reduction beats a strided one, and a max is exact in any order
    scores -= _key_major(scores.reshape(-1, Tk)).max(axis=0).reshape(scores.shape[:-1] + (1,))
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    w = scores
    out = _output(product(w, vh))
    if not _TAPE_STACK:
        return out

    def bwd(g):
        goh = heads(g)
        gw = goh @ _key_major(vh)
        gv = product(w.swapaxes(-1, -2), goh)
        gs = gw
        gs -= np.einsum("bhij,bhij->bhi", gw, w)[..., None]
        gs *= w
        gq = product(gs, kh)
        gq *= scale
        gk = product(gs.swapaxes(-1, -2), qh)  # qh holds the pre-scaled queries
        return gq, gk, gv

    return _record(out, (q, k, v), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup table[ids]; gradient scatter-adds into the table."""
    ids = np.asarray(ids)
    out = _output(table.data[ids])
    if not _TAPE_STACK:
        return out
    shape, dtype = table.data.shape, table.data.dtype

    def bwd(g):
        # segment-sum scatter (sort + reduceat); np.add.at is far slower
        gt = np.zeros(shape, dtype=dtype)
        flat_ids = ids.reshape(-1)
        g2 = g.reshape(-1, shape[-1])
        order = np.argsort(flat_ids, kind="stable")
        sorted_ids = flat_ids[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_ids)) + 1))
        gt[sorted_ids[starts]] = np.add.reduceat(g2[order], starts, axis=0)
        return (gt,)

    return _record(out, (table,), bwd)


def adjacent_pairs(x: Tensor) -> Tensor:
    """Concatenate each adjacent row pair: (..., T, h) -> (..., T-1, 2h)."""
    x_data = x.data
    shape, dtype = x_data.shape, x_data.dtype
    T, h = shape[-2], shape[-1]
    if T < 2:
        raise ShapeError("adjacent_pairs needs at least two rows")
    buf = np.empty(shape[:-2] + (T - 1, 2 * h), dtype=dtype)
    buf[..., :h] = x_data[..., :-1, :]
    buf[..., h:] = x_data[..., 1:, :]
    out = _output(buf)
    if not _TAPE_STACK:
        return out

    def bwd(g):
        gx = np.zeros(shape, dtype=dtype)
        gx[..., :-1, :] += g[..., :h]
        gx[..., 1:, :] += g[..., h:]
        return (gx,)

    return _record(out, (x,), bwd)


def max_over_axis(x: Tensor, axis: int) -> Tensor:
    """Elementwise max reduction; gradient routes to the (first) argmax."""
    out = _output(x.data.max(axis=axis))
    if not _TAPE_STACK:
        return out
    idx = x.data.argmax(axis=axis)
    shape, dtype, out_shape = x.data.shape, x.data.dtype, out.data.shape

    def bwd(g):
        gx = np.zeros(shape, dtype=dtype)
        ax = axis % len(shape)
        grid = np.indices(out_shape)
        index = list(grid)
        index.insert(ax, idx)
        gx[tuple(index)] = g
        return (gx,)

    return _record(out, (x,), bwd)


def take(x: Tensor, indices: tuple[np.ndarray, ...]) -> Tensor:
    """Advanced-index gather x[indices], shaped like the broadcast indices; gradient scatter-adds."""
    out = _output(x.data[indices])
    if not _TAPE_STACK:
        return out
    shape, dtype, size = x.data.shape, x.data.dtype, x.data.size

    def bwd(g):
        flat = np.ravel_multi_index(indices, shape).reshape(-1)
        gx = np.bincount(flat, weights=g.reshape(-1).astype(np.float64), minlength=size)
        return (gx.astype(dtype).reshape(shape),)

    return _record(out, (x,), bwd)


def gather_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Rows of x (..., h), numbered flat over the leading axes: (len(rows), h).

    `rows` must be distinct, so the gradient is one row scatter into zeros,
    the exact inverse of the gather (`scatter_rows` is the same pair of
    moves the other way round).
    """
    x_data = x.data
    h = x_data.shape[-1]
    out = _output(x_data.reshape(-1, h)[rows])
    if not _TAPE_STACK:
        return out
    shape, dtype, size = x_data.shape, x_data.dtype, x_data.size

    def bwd(g):
        gx = np.zeros((size // h, h), dtype=dtype)
        gx[rows] = g
        return (gx.reshape(shape),)

    return _record(out, (x,), bwd)


def scatter_rows(x: Tensor, rows: np.ndarray, shape: Sequence[int]) -> Tensor:
    """Zeros of `shape` (..., h) with the rows of x (N, h) at the distinct flat row numbers `rows`."""
    h = shape[-1]
    buf = np.zeros((math.prod(shape[:-1]), h), dtype=x.data.dtype)
    buf[rows] = x.data
    out = _output(buf.reshape(shape))
    if not _TAPE_STACK:
        return out
    return _record(out, (x,), lambda g: (g.reshape(-1, h)[rows],))


def tsum(x: Tensor) -> Tensor:
    out = _output(x.data.sum())
    if not _TAPE_STACK:
        return out
    shape, dtype = x.data.shape, x.data.dtype
    return _record(out, (x,), lambda g: (np.broadcast_to(g, shape).astype(dtype, copy=True),))


def tmean(x: Tensor) -> Tensor:
    out = _output(x.data.mean())
    if not _TAPE_STACK:
        return out
    n, shape, dtype = x.data.size, x.data.shape, x.data.dtype

    def bwd(g):
        return (np.broadcast_to(g / n, shape).astype(dtype, copy=True),)

    return _record(out, (x,), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    out = _output(x.data.reshape(shape))
    if not _TAPE_STACK:
        return out
    x_shape = x.data.shape
    return _record(out, (x,), lambda g: (g.reshape(x_shape),))


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = _output(np.stack([t.data for t in tensors], axis=axis))
    if not _TAPE_STACK:
        return out
    n = len(tensors)

    def bwd(g):
        pieces = np.moveaxis(g, axis, 0)
        return tuple(pieces[i] for i in range(n))

    return _record(out, tuple(tensors), bwd)
