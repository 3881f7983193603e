"""Adam with decoupled weight decay, fully deterministic.

The moments of every parameter live in two flat buffers, laid out in
sorted-name order, in the parameters' one dtype.  A step gathers the
gradients into one buffer of that layout, updates it with one set of array
ops, and points each parameter at its reshaped slice of the result.  Every
op is elementwise, so the bytes equal a per-parameter loop's, and two runs
from equal state stay bitwise equal.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

import numpy as np

from .tensor import NumericError, Tensor

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray    # flat first moments, parameters in sorted-name order
    v: np.ndarray    # flat second moments, same layout
    step: int = 0


def init_adam_state(params: Mapping[str, Tensor]) -> AdamState:
    """Zero moments for ``params``, which must share one dtype."""
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) != 1:
        raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
    (dtype,) = dtypes
    size = sum(p.data.size for p in params.values())
    return AdamState(m=np.zeros(size, dtype), v=np.zeros(size, dtype))


def optimizer_step(params: Mapping[str, Tensor], state: AdamState, lr: float,
                   weight_decay: float = 0.0) -> None:
    """One update of every parameter; a missing gradient counts as zero.

    A non-finite gradient is a NumericError naming its parameter, raised
    before any parameter changes.
    """
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    names = sorted(params)
    dtype = state.m.dtype
    grads = []
    for name in names:
        p = params[name]
        g = p.grad
        if g is None:
            g = np.zeros(p.data.size, dtype)
        elif g.shape != p.data.shape:
            raise NumericError(f"gradient of shape {g.shape} for parameter {name!r} "
                               f"of shape {p.data.shape}")
        grads.append(g.reshape(-1))
    ends = list(accumulate(x.size for x in grads))
    g = np.concatenate(grads, dtype=dtype)
    if not np.isfinite(g).all():
        first = int(np.flatnonzero(~np.isfinite(g))[0])
        raise NumericError(f"non-finite gradient for parameter "
                           f"{names[bisect_right(ends, first)]!r}")
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    flat = np.concatenate([params[name].data.reshape(-1) for name in names], dtype=dtype)
    if weight_decay:
        update = update + weight_decay * flat
    flat = flat - lr * update
    for name, start, end in zip(names, [0] + ends, ends):
        p = params[name]
        p.data = flat[start:end].reshape(p.data.shape)
