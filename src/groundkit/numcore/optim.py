"""Adam with decoupled weight decay, fully deterministic.

Parameters are visited in sorted-name order and moments live in the same
dtype as the parameter, so two runs from equal state stay bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .tensor import NumericError, Tensor

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def init_adam_state(params: Mapping[str, Tensor]) -> AdamState:
    state = AdamState()
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def optimizer_step(params: Mapping[str, Tensor], state: AdamState, lr: float,
                   weight_decay: float = 0.0) -> None:
    """One in-place update; a missing gradient counts as zero."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for name in sorted(params):
        p = params[name]
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        else:
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            g = g.astype(p.data.dtype, copy=False)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data = p.data - lr * update
