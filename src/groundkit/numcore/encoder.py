"""Post-norm self-attention encoder built on the autodiff kernel.

One layer is four fused ops, four tape nodes: multi-head self-attention,
residual plus layer norm, position-wise feed-forward (GELU), residual plus
layer norm.  Each op runs a hand-written backward.  It runs on a padded
batch ``[B, L, d]``, and a key-padding mask keeps every position from
attending to padding.  ``encode`` keeps the hidden state after every layer
so downstream losses can read intermediate layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .tensor import (NumericError, Tensor, add_layer_norm, feed_forward, located,
                     self_attention)

INIT_STD = 0.02
# parameter names: "enc.layer<i>.<block>.<tensor>"
PREFIX = "enc"


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int

    def __post_init__(self) -> None:
        for name in ("d_model", "n_heads", "n_layers", "d_ff"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


def param_initializers(params: dict[str, Tensor], rng: np.random.Generator, dtype):
    """``w``, ``zeros`` and ``ones``: each adds a tensor ``name`` of ``shape`` to
    ``params``, normal(0, 0.02) drawn from ``rng``, zeros or ones."""
    def w(name, shape):
        params[name] = Tensor(rng.normal(0.0, INIT_STD, shape).astype(dtype))

    def zeros(name, shape):
        params[name] = Tensor(np.zeros(shape, dtype=dtype))

    def ones(name, shape):
        params[name] = Tensor(np.ones(shape, dtype=dtype))

    return w, zeros, ones


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator,
                        dtype=np.float32) -> dict[str, Tensor]:
    """Seeded initialization: normal(0, 0.02) weights, zero biases, unit LN gain."""
    d, f = config.d_model, config.d_ff
    params: dict[str, Tensor] = {}
    w, zeros, ones = param_initializers(params, rng, dtype)
    for i in range(config.n_layers):
        p = f"{PREFIX}.layer{i}"
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
                    n_heads: int, mask: np.ndarray) -> Tensor:
    """One layer over ``x`` of shape ``[B, L, d]``.

    ``mask`` (``[B, L]``, True on real tokens) hides padding keys; padding
    queries still produce rows, which nothing downstream reads.
    """
    def p(name: str) -> Tensor:
        return params[f"{prefix}.{name}"]

    attn_out = self_attention(x, p("attn.wq"), p("attn.bq"), p("attn.wk"), p("attn.wv"),
                              p("attn.bv"), p("attn.wo"), p("attn.bo"), n_heads, mask)
    h1 = add_layer_norm(x, attn_out, p("ln1.gain"), p("ln1.bias"))
    ff = feed_forward(h1, p("ffn.w1"), p("ffn.b1"), p("ffn.w2"), p("ffn.b2"))
    return add_layer_norm(h1, ff, p("ln2.gain"), p("ln2.bias"))


def encode(x: Tensor, config: EncoderConfig, params: Mapping[str, Tensor],
           mask: np.ndarray) -> list[Tensor]:
    """Run all layers over ``x`` (``[B, L, d]``); returns the hidden state after each one.

    ``mask`` (``[B, L]`` booleans, True on real tokens) marks padding.
    ``hidden[-1]`` is the final output; counting layers from the last, layer
    ``l`` (1-based) is ``hidden[-l]``.  A NumericError raised in layer ``i``
    names ``enc.layer<i>``; so does a shape error, which ``self_attention`` raises.
    """
    hidden: list[Tensor] = []
    h = x
    for i in range(config.n_layers):
        prefix = f"{PREFIX}.layer{i}"
        with located(prefix):
            h = attention_layer(h, params, prefix, config.n_heads, mask)
        hidden.append(h)
    return hidden


def layer_from_last(hidden: list[Tensor], l: int) -> Tensor:
    """Hidden state of the l-th layer counted from the last (l=1 is final)."""
    if not 1 <= l <= len(hidden):
        raise NumericError(f"layer-from-last index {l} outside 1..{len(hidden)}")
    return hidden[len(hidden) - l]
