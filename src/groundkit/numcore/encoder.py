"""Post-norm self-attention encoder built on the autodiff kernel.

One layer is: multi-head self-attention, residual, layer norm, position-wise
feed-forward (GELU), residual, layer norm.  It runs on a padded batch
``[B, L, d]``: the heads are split into a batch axis by reshape and
transpose, and a key-padding mask keeps every position from attending to
padding.  ``encode`` keeps the hidden state after every layer so downstream
losses can read intermediate layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .tensor import (
    NumericError,
    Tensor,
    add,
    gelu,
    layer_norm,
    linear,
    matmul,
    reshape,
    scale,
    softmax,
    transpose,
)

INIT_STD = 0.02
LN_EPS = 1e-5


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")


def init_encoder_params(config: EncoderConfig,
                        rng: np.random.Generator,
                        prefix: str = "enc",
                        dtype=np.float32) -> dict[str, Tensor]:
    """Seeded initialization: normal(0, 0.02) weights, zero biases, unit LN gain."""
    d, f = config.d_model, config.d_ff
    params: dict[str, Tensor] = {}

    def w(name, shape):
        params[name] = Tensor(rng.normal(0.0, INIT_STD, shape).astype(dtype))

    def zeros(name, shape):
        params[name] = Tensor(np.zeros(shape, dtype=dtype))

    def ones(name, shape):
        params[name] = Tensor(np.ones(shape, dtype=dtype))

    for i in range(config.n_layers):
        p = f"{prefix}.layer{i}"
        for mat in ("wq", "wk", "wv", "wo"):
            w(f"{p}.attn.{mat}", (d, d))
        # no key bias: softmax is invariant to a per-row shift, so a key
        # bias is a dead parameter (and breaks finite-difference checks)
        for vec in ("bq", "bv", "bo"):
            zeros(f"{p}.attn.{vec}", (d,))
        ones(f"{p}.ln1.gain", (d,))
        zeros(f"{p}.ln1.bias", (d,))
        w(f"{p}.ffn.w1", (d, f))
        zeros(f"{p}.ffn.b1", (f,))
        w(f"{p}.ffn.w2", (f, d))
        zeros(f"{p}.ffn.b2", (d,))
        ones(f"{p}.ln2.gain", (d,))
        zeros(f"{p}.ln2.bias", (d,))
    return params


def attention_layer(x: Tensor, params: Mapping[str, Tensor], prefix: str,
                    n_heads: int, mask: np.ndarray | None = None) -> Tensor:
    """One layer over ``x`` of shape ``[B, L, d]``.

    ``mask`` (``[B, L]``, True on real tokens) hides padding keys; padding
    queries still produce rows, which nothing downstream reads.
    """
    batch, length, d = x.data.shape
    if d % n_heads != 0:
        raise NumericError(f"width {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    inv_sqrt = 1.0 / math.sqrt(dh)

    def heads(t: Tensor, axes: tuple[int, ...]) -> Tensor:
        return transpose(reshape(t, (batch, length, n_heads, dh)), axes)

    q = heads(linear(x, params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.bq"]),
              (0, 2, 1, 3))                                   # [B, H, L, dh]
    k_t = heads(linear(x, params[f"{prefix}.attn.wk"]), (0, 2, 3, 1))  # [B, H, dh, L]
    v = heads(linear(x, params[f"{prefix}.attn.wv"], params[f"{prefix}.attn.bv"]),
              (0, 2, 1, 3))
    key_mask = None if mask is None else mask[:, None, None, :]
    attn = softmax(scale(matmul(q, k_t), inv_sqrt), axis=-1, mask=key_mask)
    merged = reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (batch, length, d))
    attn_out = linear(merged, params[f"{prefix}.attn.wo"], params[f"{prefix}.attn.bo"])

    h1 = layer_norm(add(x, attn_out),
                    params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"], eps=LN_EPS)
    ff = linear(gelu(linear(h1, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"])),
                params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])
    return layer_norm(add(h1, ff),
                      params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"], eps=LN_EPS)


def encode(x: Tensor, config: EncoderConfig, params: Mapping[str, Tensor],
           prefix: str = "enc", mask: np.ndarray | None = None) -> list[Tensor]:
    """Run all layers over ``x`` (``[B, L, d]``); returns the hidden state after each one.

    ``mask`` (``[B, L]`` booleans, True on real tokens) marks padding; without
    it every position is real.  ``hidden[-1]`` is the final output; counting
    layers from the last, layer ``l`` (1-based) is ``hidden[-l]``.
    """
    if x.data.ndim != 3 or x.data.shape[2] != config.d_model:
        raise NumericError(f"encoder input shape {x.data.shape} is not [B, L, "
                           f"{config.d_model}]")
    if mask is not None and mask.shape != x.data.shape[:2]:
        raise NumericError(f"padding mask shape {mask.shape} does not match input "
                           f"{x.data.shape[:2]}")
    hidden: list[Tensor] = []
    h = x
    for i in range(config.n_layers):
        h = attention_layer(h, params, f"{prefix}.layer{i}", config.n_heads, mask)
        hidden.append(h)
    return hidden


def layer_from_last(hidden: list[Tensor], l: int) -> Tensor:
    """Hidden state of the l-th layer counted from the last (l=1 is final)."""
    if not 1 <= l <= len(hidden):
        raise NumericError(f"layer-from-last index {l} outside 1..{len(hidden)}")
    return hidden[len(hidden) - l]
