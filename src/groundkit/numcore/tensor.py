"""Tape-based reverse-mode differentiation over dense numpy arrays.

Ops executed inside a ``with Graph():`` block record themselves on the tape;
``Graph.backward(loss)`` then replays the tape once in reverse, accumulating
gradients additively into ``Tensor.grad`` (so fan-out just works).  Outside a
graph the same ops run as plain numpy, which is what inference uses.

Ops work on batches: ``matmul`` takes stacked operands, ``linear`` folds
leading axes into one matrix product, ``reshape`` and
``transpose`` move attention heads into a batch axis, and the softmaxes take
a mask that hides padding.  Every op checks its output for NaN/Inf and
raises NumericError on the spot, so numerical blow-ups surface where they
happen instead of steps later.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class NumericError(Exception):
    """Non-finite values or incompatible shapes in the numeric kernel."""


class Tensor:
    """A dense array plus its accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor init")
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


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


def _out(data: np.ndarray, op: str, back: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(data, op)
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    g = Graph.current()
    if g is not None:
        g.nodes.append((t, back))
    return t


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
    else:
        t.grad = t.grad + g


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for two matrices or two stacks of them with the same leading axes."""
    x, w = a.data, b.data
    if (x.ndim < 2 or w.ndim != x.ndim or x.shape[:-2] != w.shape[:-2]
            or x.shape[-1] != w.shape[-2]):
        raise NumericError(f"matmul shape mismatch: {x.shape} @ {w.shape}")
    data = x @ w

    def back(g):
        _accum(a, g @ _swap_last(w))
        _accum(b, _swap_last(x) @ g)

    return _out(data, "matmul", back)


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


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    return _out(data, "reshape", lambda g: _accum(a, g.reshape(a.data.shape)))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the axes of ``a`` as ``np.transpose`` does."""
    inverse = tuple(np.argsort(axes))
    return _out(a.data.transpose(axes), "transpose",
                lambda g: _accum(a, g.transpose(inverse)))


# ---------------------------------------------------------------------------
# indexing


def gather_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def back(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        _accum(a, ga)

    return _out(data, "gather_rows", back)


def scatter_rows(a: Tensor, indices: Sequence[int], n_rows: int) -> Tensor:
    """``n_rows`` rows with ``out[indices[i]] = a[i]``; rows no index names stay zero.

    Indices must be distinct.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.shape != a.data.shape[:1]:
        raise NumericError(f"scatter_rows: {idx.shape[0]} indices for {a.data.shape[0]} rows")
    data = np.zeros((n_rows,) + a.data.shape[1:], dtype=a.data.dtype)
    data[idx] = a.data
    return _out(data, "scatter_rows", lambda g: _accum(a, g[idx]))


def take_per_row(a: Tensor, indices: Sequence[int]) -> Tensor:
    """out[i] = a[i, indices[i]]"""
    idx = np.asarray(indices, dtype=np.intp)
    if a.data.ndim != 2 or idx.shape[0] != a.data.shape[0]:
        raise NumericError(f"take_per_row mismatch: {a.data.shape} with {idx.shape[0]} indices")
    rows = np.arange(a.data.shape[0])
    data = a.data[rows, idx]

    def back(g):
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g
        _accum(a, ga)

    return _out(data, "take_per_row", back)


def gather_dot(a: Tensor, b: Tensor, rows: Sequence[int],
               cols: Sequence[Sequence[int]]) -> Tensor:
    """``out[i, j] = a[rows[i]] . b[cols[i][j]]``: each gathered row of ``a``
    against its own set of gathered rows of ``b``."""
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    if (a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]
            or r.ndim != 1 or c.ndim != 2 or c.shape[0] != r.shape[0]):
        raise NumericError(f"gather_dot mismatch: {a.data.shape} rows {r.shape} against "
                           f"{b.data.shape} rows {c.shape}")
    left = a.data[r]                                  # [K, d]
    right = b.data[c]                                 # [K, C, d]
    data = (right * left[:, None, :]).sum(axis=-1)    # [K, C]

    def back(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, r, (g[:, :, None] * right).sum(axis=1))
        gb = np.zeros_like(b.data)
        np.add.at(gb, c, g[:, :, None] * left[:, None, :])
        _accum(a, ga)
        _accum(b, gb)

    return _out(data, "gather_dot", back)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    data = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.data.shape[0] for p in parts]

    def back(g):
        off = 0
        for p, size in zip(parts, sizes):
            _accum(p, g[off:off + size])
            off += size

    return _out(data, "concat_rows", back)


# ---------------------------------------------------------------------------
# nonlinearities and reductions


def _masked(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return x if mask is None else np.where(mask, x, -np.inf)


def softmax(a: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Softmax along ``axis``; entries where the broadcast ``mask`` is False get 0.

    A row with no unmasked entry has no distribution and fails the finite check.
    """
    x = _masked(a.data, mask)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    data = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accum(a, data * (g - inner))

    return _out(data, "softmax", back)


def log_softmax(a: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Log-softmax along ``axis`` over the entries the broadcast ``mask`` keeps.

    Masked entries read 0 and receive no gradient.
    """
    x = _masked(a.data, mask)
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    probs = np.exp(data)
    if mask is not None:
        data = np.where(mask, data, 0.0)

    def back(g):
        if mask is not None:
            g = np.where(mask, g, 0.0)
        _accum(a, g - probs * g.sum(axis=axis, keepdims=True))

    return _out(data, "log_softmax", back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize along the last axis, then apply the affine gain/bias."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise NumericError(f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} "
                           f"do not match feature dim {d}")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    data = xhat * gain.data + bias.data

    def back(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (dxhat - m1 - xhat * m2))
        lead = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=lead))
        _accum(bias, g.sum(axis=lead))

    return _out(data, "layer_norm", back)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """tanh-form GELU; smooth everywhere, which keeps gradient checks clean.

    Powers are written as products: numpy's ``**`` on float32 arrays is
    two orders of magnitude slower than ``x * x``.
    """
    v = x.data
    t = np.tanh(_GELU_C * (v + _GELU_A * (v * v * v)))
    data = 0.5 * v * (1.0 + t)

    def back(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * (v * v))
        local = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du
        _accum(x, g * local)

    return _out(data, "gelu", back)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    norms = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True)) + eps
    data = x.data / norms

    def back(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accum(x, (g - data * inner) / norms)

    return _out(data, "l2_normalize_rows", back)


def dot_const(a: Tensor, weights: np.ndarray) -> Tensor:
    """Weighted sum against a constant (non-differentiated) weight array."""
    w = np.asarray(weights, dtype=a.data.dtype)
    if w.shape != a.data.shape:
        raise NumericError(f"dot_const shape mismatch: {a.data.shape} vs {w.shape}")
    data = np.asarray((a.data * w).sum())

    def back(g):
        _accum(a, g * w)

    return _out(data, "dot_const", back)
