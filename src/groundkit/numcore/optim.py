"""Adam with decoupled weight decay, fully deterministic.

``AdamState`` owns the flat parameter layout: every parameter, in
sorted-name order, is one slice of ``state.flat``, a buffer that forked
processes share, and each ``Tensor.data`` is its reshaped view of that
slice.  The moments are two more flat buffers of that layout, in the
parameters' one dtype.  A step takes the step's gradient in the same layout
and dtype, checks it, and updates ``state.flat`` in place with one set of
array ops.  Every op is elementwise, so the bytes equal a per-parameter
loop's, and two runs from equal state stay bitwise equal.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

import numpy as np

from .tensor import NumericError, Tensor

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


def shared_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in an anonymous ``mmap`` that forked processes share."""
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buffer, dtype, count=count).reshape(shape)


@dataclass
class AdamState:
    names: list[str]   # the parameters in sorted-name order
    ends: list[int]    # where each one's slice of ``flat`` ends
    flat: np.ndarray   # every parameter; each ``Tensor.data`` views its slice
    m: np.ndarray      # flat first moments, same layout
    v: np.ndarray      # flat second moments, same layout
    step: int = 0


def init_adam_state(params: Mapping[str, Tensor]) -> AdamState:
    """Zero moments for ``params``, which must share one dtype; moves every
    parameter into ``state.flat``."""
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) != 1:
        raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
    (dtype,) = dtypes
    names = sorted(params)
    ends = list(accumulate(params[name].data.size for name in names))
    flat = shared_array((ends[-1],), dtype)
    for name, start, end in zip(names, [0] + ends, ends):
        p = params[name]
        view = flat[start:end].reshape(p.data.shape)
        view[...] = p.data
        p.data = view
    return AdamState(names, ends, flat, m=np.zeros_like(flat), v=np.zeros_like(flat))


def optimizer_step(state: AdamState, grad: np.ndarray, lr: float,
                   weight_decay: float = 0.0) -> None:
    """One update of every parameter from ``grad``, the step's gradient in
    the layout of ``state.flat``.

    A gradient not of ``state.flat``'s shape and dtype, or a non-finite one
    (named by its parameter), is a NumericError raised before any state changes.
    """
    if grad.shape != state.flat.shape or grad.dtype != state.flat.dtype:
        raise NumericError(f"gradient of shape {grad.shape} and dtype {grad.dtype} for "
                           f"parameters of shape {state.flat.shape} and dtype {state.flat.dtype}")
    if not np.isfinite(grad).all():
        first = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericError(f"non-finite gradient for parameter "
                           f"{state.names[bisect_right(state.ends, first)]!r}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad * grad
    update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    if weight_decay:
        update = update + weight_decay * state.flat
    state.flat -= lr * update
