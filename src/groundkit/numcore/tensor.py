"""Tape-based reverse-mode differentiation over dense numpy arrays.

Ops executed inside a ``with Graph():`` block record themselves on the tape;
``Graph.backward(loss)`` then replays the tape once in reverse, accumulating
gradients additively into ``Tensor.grad`` (so fan-out just works).  Outside a
graph the same ops run as plain numpy, which is what inference uses.

Ops work on batches: ``linear``, ``gather_dot`` and ``scatter_rows`` fold
leading axes into rows, and the softmaxes take a mask that hides padding.  An
encoder layer is built from three fused ops, ``self_attention``,
``add_layer_norm`` and ``feed_forward``: each records one tape node, keeps
its forward intermediates and runs a hand-written backward, so the
attention heads never appear on the tape.  At toy size a pass costs numpy
calls, not flops, so these ops make few and large ones: one product for the
three attention projections, LayerNorm's row means as a product with a
``1/d`` column, ``gather_dot``'s backward as one-hot products over the
pass's own rows, and buffers updated in place.  Their rounding is their
own, not that of the op-by-op chain they stand for; every run repeats it
bit for bit.
Every op checks its output for NaN/Inf and raises NumericError naming
itself ("non-finite value produced by linear").  Inside
``with deferred_checks():`` the ops skip that check: training and
``predict`` check a whole pass once, at its loss or its scores, and run a
failing pass again outside the block, so that the op making the first
non-finite value raises.  ``add_layer_norm`` checks its variance for
overflow in either mode.  ``located`` adds where an error came from to its
message.  ``Tensor(...)`` always checks the data it is given.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np


class NumericError(Exception):
    """Non-finite values or incompatible shapes in the numeric kernel."""


class Tensor:
    """A dense array plus its accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor init")
        self.data = arr
        self.grad: np.ndarray | None = None

    def zero_grad(self) -> None:
        self.grad = None


class Graph:
    """Recording context for one forward pass.

    The tape holds (output, backward_fn) pairs in creation order; backward
    walks it exactly once in reverse.  Nodes whose output never received a
    gradient are skipped, which makes unused branches (e.g. hidden layers the
    loss does not read) free.  Each node is dropped from the tape once it has
    run, together with its output's gradient and the arrays its backward
    function kept, so memory falls as backward proceeds; ``len(nodes)``
    still counts the recorded ops.
    """

    _stack: list["Graph"] = []

    def __init__(self) -> None:
        self.nodes: list[tuple[Tensor, Callable[[np.ndarray], None]] | None] = []

    def __enter__(self) -> "Graph":
        Graph._stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        Graph._stack.pop()

    @classmethod
    def current(cls) -> "Graph | None":
        return cls._stack[-1] if cls._stack else None

    def backward(self, loss: Tensor) -> None:
        if loss.data.shape != ():
            raise NumericError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        nodes = self.nodes
        for i in range(len(nodes) - 1, -1, -1):
            node = nodes[i]
            if node is None:
                continue
            nodes[i] = None
            out, back = node
            if out.grad is not None:
                back(out.grad)
                out.grad = None


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite value produced by {op}")


# open ``deferred_checks`` blocks; the ops check their outputs while it is 0
_deferred = 0


@contextmanager
def deferred_checks() -> Iterator[None]:
    """Skip the ops' finite checks inside the block.

    The caller checks what the block made (a pass's loss or scores) and,
    if that is non-finite, runs the block's work again outside it, so the
    op that made the first non-finite value raises.  Numpy's floating-point
    warnings are the caller's to silence.
    """
    global _deferred
    _deferred += 1
    try:
        yield
    finally:
        _deferred -= 1


def _check_op(arr: np.ndarray, op: str) -> None:
    if not _deferred:
        _check_finite(arr, op)


@contextmanager
def located(where: str | Callable[[], str]) -> Iterator[None]:
    """Re-raise a NumericError from the block with `` in <where>`` added,
    ``where`` naming the part of a model that ran, or a function that
    returns that name, called only when an error passes."""
    try:
        yield
    except NumericError as exc:
        raise NumericError(f"{exc} in {where() if callable(where) else where}") from None


def _out(data: np.ndarray, op: str, back: Callable[[np.ndarray], None]) -> Tensor:
    _check_op(data, op)
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    g = Graph.current()
    if g is not None:
        g.nodes.append((t, back))
    return t


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``: the first gradient is copied, so that the
    gradient is ``t``'s own, and later ones are added to it in place."""
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
    else:
        t.grad += g


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b`` for two tensors of the same shape."""
    if a.data.shape != b.data.shape:
        raise NumericError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return _out(a.data + b.data, "add", back)


def scale(a: Tensor, s: float) -> Tensor:
    return _out(a.data * s, "scale", lambda g: _accum(a, g * s))


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` over the last axis of ``x``, as one op.

    The leading axes of ``x`` fold into the rows of one matrix product, and
    no intermediate product stays on the tape.
    """
    w = weight.data
    if (w.ndim != 2 or x.data.shape[-1] != w.shape[0]
            or (bias is not None and bias.data.shape != w.shape[1:])):
        raise NumericError(f"linear shape mismatch: {x.data.shape} @ {w.shape}"
                           + ("" if bias is None else f" + {bias.data.shape}"))
    d_in, d_out = w.shape
    rows = x.data.reshape(-1, d_in)
    out = rows @ w
    if bias is not None:
        out += bias.data
    data = out.reshape(x.data.shape[:-1] + (d_out,))

    def back(g):
        g2 = g.reshape(-1, d_out)
        _accum(x, (g2 @ w.T).reshape(x.data.shape))
        _accum(weight, rows.T @ g2)
        if bias is not None:
            _accum(bias, g2.sum(axis=0))

    return _out(data, "linear", back)


# ---------------------------------------------------------------------------
# indexing


def gather_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def back(g):
        # np.add.at, not gather_dot's one-hot product: ``a`` is a vocabulary
        # table here, and a one-hot would grow with its rows times the tokens
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accum(a, ga)

    return _out(data, "gather_rows", back)


def scatter_rows(parts: Sequence[Tensor], indices: Sequence[int], shape: tuple) -> Tensor:
    """A zero array of ``shape`` holding the rows of ``parts``, taken in order:
    the ``i``-th of them lands at flat row ``indices[i]``, leading axes folded
    into rows as in ``linear``.  Indices must be distinct.
    """
    idx = np.asarray(indices, dtype=np.intp)
    d = shape[-1]
    if any(p.data.shape[-1:] != (d,) for p in parts):
        raise NumericError(f"scatter_rows: parts {[p.data.shape for p in parts]} into {shape}")
    sizes = [p.data.size // d for p in parts]
    if idx.shape != (sum(sizes),):
        raise NumericError(f"scatter_rows: {idx.shape[0]} indices for {sum(sizes)} rows")
    data = np.zeros(shape, dtype=parts[0].data.dtype)
    spans = np.split(idx, np.cumsum(sizes[:-1]))
    for p, span in zip(parts, spans):
        data.reshape(-1, d)[span] = p.data.reshape(-1, d)

    def back(g):
        for p, span in zip(parts, spans):
            _accum(p, g.reshape(-1, d)[span].reshape(p.data.shape))

    return _out(data, "scatter_rows", back)


def gather_dot(a: Tensor, b: Tensor, rows: Sequence[int],
               cols: Sequence[Sequence[int]]) -> Tensor:
    """``out[i, j] = a[rows[i]] . b[cols[i][j]]``: each gathered row of ``a``
    against its own set of gathered rows of ``b``, leading axes folded into
    rows as in ``linear``."""
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    d = a.data.shape[-1]
    if b.data.shape[-1] != d or r.ndim != 1 or c.ndim != 2 or c.shape[0] != r.shape[0]:
        raise NumericError(f"gather_dot mismatch: {a.data.shape} rows {r.shape} against "
                           f"{b.data.shape} rows {c.shape}")
    left = a.data.reshape(-1, d)[r]                   # [K, d]
    right = b.data.reshape(-1, d)[c]                  # [K, C, d]
    data = (right * left[:, None, :]).sum(axis=-1)    # [K, C]

    def back(g):
        # each source row's gradient is one product over the pass's own rows,
        # never a vocabulary: a's is a one-hot of ``rows`` [A, K] times each
        # link's gradient row, b's is ``g`` spread over ``cols`` and summed
        # per link [B, K] (bincount adds repeated rows) times the link rows
        k = np.arange(r.size)
        hot = np.zeros((a.data.size // d, r.size), a.data.dtype)
        hot[r, k] = 1
        _accum(a, (hot @ np.matmul(g[:, None, :], right)[:, 0]).reshape(a.data.shape))
        n_b = b.data.size // d
        spread = np.bincount((c * r.size + k[:, None]).reshape(-1), weights=g.reshape(-1),
                             minlength=n_b * r.size)
        _accum(b, (spread.reshape(n_b, r.size).astype(b.data.dtype, copy=False) @ left)
               .reshape(b.data.shape))

    return _out(data, "gather_dot", back)


# ---------------------------------------------------------------------------
# nonlinearities and reductions


def log_softmax(a: Tensor, mask: np.ndarray) -> Tensor:
    """Log-softmax along the last axis over the entries the broadcast ``mask`` keeps.

    Masked entries read 0 and receive no gradient.
    """
    x = np.where(mask, a.data, -np.inf)
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse
    probs = np.exp(data)
    data = np.where(mask, data, 0.0)

    def back(g):
        g = np.where(mask, g, 0.0)
        _accum(a, g - probs * g.sum(axis=-1, keepdims=True))

    return _out(data, "log_softmax", back)


def dot_const(a: Tensor, weights: np.ndarray) -> Tensor:
    """Weighted sum against a constant (non-differentiated) weight array."""
    w = np.asarray(weights, dtype=a.data.dtype)
    if w.shape != a.data.shape:
        raise NumericError(f"dot_const shape mismatch: {a.data.shape} vs {w.shape}")
    data = np.asarray((a.data * w).sum())

    def back(g):
        _accum(a, g * w)

    return _out(data, "dot_const", back)


# ---------------------------------------------------------------------------
# fused encoder blocks: one tape node each, with a hand-written backward.


def _check_shapes(op: str, *pairs: tuple[Tensor, tuple[int, ...]]) -> None:
    for t, shape in pairs:
        if t.data.shape != shape:
            raise NumericError(f"{op}: parameter shape {t.data.shape}, expected {shape}")


def self_attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor, bv: Tensor,
                   wo: Tensor, bo: Tensor, n_heads: int, mask: np.ndarray) -> Tensor:
    """Multi-head self-attention over ``x`` (``[B, L, d]``), as one op.

    Projects queries, keys (no bias) and values, splits them into
    ``n_heads`` heads, takes the softmax of the scaled dot products over the
    keys ``mask`` (``[B, L]``, True on real tokens) keeps, and projects the
    merged context.  A query row with no key to attend to fails the finite
    check as "softmax".  The three projections are one ``[d, 3d]`` product,
    and backward writes their gradients into one ``[N, 3d]`` buffer, so that
    ``x`` and the three weights each take one product.
    """
    if x.data.ndim != 3 or x.data.shape[2] % n_heads != 0:
        raise NumericError(f"self_attention input {x.data.shape} is not [B, L, d] "
                           f"with d divisible by {n_heads} heads")
    batch, length, d = x.data.shape
    if mask.shape != (batch, length):
        raise NumericError(f"self_attention mask shape {mask.shape} does not match "
                           f"input {x.data.shape[:2]}")
    _check_shapes("self_attention", (wq, (d, d)), (wk, (d, d)), (wv, (d, d)),
                  (wo, (d, d)), (bq, (d,)), (bv, (d,)), (bo, (d,)))
    dh = d // n_heads
    s = 1.0 / math.sqrt(dh)
    rows = x.data.reshape(-1, d)
    w_qkv = np.concatenate((wq.data, wk.data, wv.data), axis=1)         # [d, 3d]
    qkv = rows @ w_qkv
    qkv += np.concatenate((bq.data, np.zeros_like(bq.data), bv.data))
    _check_op(qkv, "linear")
    # [3, B, H, L, dh]: queries, keys and values, each a view of qkv
    q, k, v = qkv.reshape(batch, length, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    # the weights are held keys by queries, [B, H, L_k, L_q], so that the
    # softmax reduces over the second-last axis, where numpy is fast
    attn_t = k @ _swap_last(q)
    _check_op(attn_t, "matmul")
    attn_t *= s
    _check_op(attn_t, "scale")
    # 0 on the keys mask keeps, -inf on the rest; then the softmax in place
    attn_t += np.where(mask, 0.0, -np.inf).astype(attn_t.dtype)[:, None, :, None]
    attn_t -= np.maximum.reduce(attn_t, axis=-2, keepdims=True)
    np.exp(attn_t, out=attn_t)
    attn_t /= np.ones((1, length), attn_t.dtype) @ attn_t
    _check_op(attn_t, "softmax")
    context = _swap_last(attn_t) @ v                                      # [B, H, L, dh]
    _check_op(context, "matmul")
    merged = context.transpose(0, 2, 1, 3).reshape(-1, d)
    out = merged @ wo.data
    out += bo.data

    def back(g):
        g2 = g.reshape(-1, d)
        _accum(wo, merged.T @ g2)
        _accum(bo, np.add.reduce(g2, axis=0))
        g_context = (g2 @ wo.data.T).reshape(batch, length, n_heads, dh).transpose(0, 2, 1, 3)
        # the three heads' gradients, written into one [N, 3d] buffer
        g_qkv = np.empty(qkv.shape, qkv.dtype)
        g_q, g_k, g_v = g_qkv.reshape(batch, length, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
        np.matmul(attn_t, g_context, out=g_v)
        g_scores_t = v @ _swap_last(g_context)
        g_scores_t -= np.einsum("...kq,...kq->...q", g_scores_t, attn_t)[..., None, :]
        g_scores_t *= attn_t
        g_scores_t *= s
        np.matmul(_swap_last(g_scores_t), k, out=g_q)
        np.matmul(g_scores_t, q, out=g_k)
        _accum(x, (g_qkv @ w_qkv.T).reshape(x.data.shape))
        g_w = rows.T @ g_qkv
        g_b = np.add.reduce(g_qkv, axis=0)
        _accum(wq, g_w[:, :d])
        _accum(wk, g_w[:, d:2 * d])
        _accum(wv, g_w[:, 2 * d:])
        _accum(bq, g_b[:d])
        _accum(bv, g_b[2 * d:])

    return _out(out.reshape(batch, length, d), "linear", back)


LN_EPS = 1e-5


def add_layer_norm(a: Tensor, b: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``a + b``, normalized along the last axis, then the affine gain/bias, as one op.

    The rows are one ``[N, d]`` view: their means are one product with a
    ``1/d`` column and their sums of squares one ``einsum``, and backward
    works in place on buffers of its own.
    """
    if a.data.shape != b.data.shape:
        raise NumericError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise NumericError(f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} "
                           f"do not match feature dim {d}")
    total = a.data + b.data
    _check_op(total, "add")
    mean = np.full((d, 1), 1.0 / d, total.dtype)
    xhat = total.reshape(-1, d)
    xhat -= xhat @ mean
    var = np.einsum("ij,ij->i", xhat, xhat)[:, None]
    var /= d
    # an overflowing variance would make the row its bias, a finite output that
    # no later check sees; a NaN comes from upstream, for the replay to name
    if np.isinf(var).any():
        raise NumericError("non-finite value produced by layer_norm")
    var += LN_EPS
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def back(g):
        g2 = g.reshape(-1, d)
        _accum(gain, np.einsum("ij,ij->j", g2, xhat))
        _accum(bias, np.add.reduce(g2, axis=0))
        g_total = g2 * gain.data
        m2 = np.einsum("ij,ij->i", g_total, xhat)[:, None]
        m2 /= d
        g_total -= g_total @ mean
        g_total -= xhat * m2
        g_total *= inv
        g_total = g_total.reshape(a.data.shape)
        _accum(a, g_total)
        _accum(b, g_total)

    return _out(out.reshape(a.data.shape), "layer_norm", back)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` over the last axis, as one op.

    GELU is the tanh form, smooth everywhere, which keeps gradient checks
    clean, and finite wherever its input is, so it has no finite check of
    its own.  Its powers are written as products: numpy's ``**`` on float32
    arrays is two orders of magnitude slower than ``x * x``.
    """
    d = x.data.shape[-1]
    if w1.data.ndim != 2 or w1.data.shape[0] != d:
        raise NumericError(f"feed_forward shape mismatch: {x.data.shape} @ {w1.data.shape}")
    f = w1.data.shape[1]
    _check_shapes("feed_forward", (b1, (f,)), (w2, (f, d)), (b2, (d,)))
    rows = x.data.reshape(-1, d)
    h = rows @ w1.data
    h += b1.data
    _check_op(h, "linear")
    # t = tanh(c (h + a h^3)) and act = h (1 + t) / 2, in place
    t = h * h
    t *= h
    t *= _GELU_A
    t += h
    t *= _GELU_C
    np.tanh(t, out=t)
    act = t + 1.0
    act *= h
    act *= 0.5
    out = act @ w2.data
    out += b2.data

    def back(g):
        g2 = g.reshape(-1, d)
        _accum(w2, act.T @ g2)
        _accum(b2, np.add.reduce(g2, axis=0))
        # gelu'(h) = (1 + t) / 2 + h (1 - t^2) c (1 + 3 a h^2) / 2, in place
        g_h = t * t
        np.subtract(1.0, g_h, out=g_h)
        g_h *= h
        du = h * h
        du *= 3.0 * _GELU_A * _GELU_C
        du += _GELU_C
        g_h *= du
        g_h += t
        g_h += 1.0
        g_h *= 0.5
        g_h *= g2 @ w2.data.T
        _accum(x, (g_h @ w1.data.T).reshape(x.data.shape))
        _accum(w1, rows.T @ g_h)
        _accum(b1, np.add.reduce(g_h, axis=0))

    return _out(out.reshape(x.data.shape), "linear", back)
