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


# how a parameter starts: "normal" (drawn, std INIT_STD), "zeros" or "ones"
ParamTable = list[tuple[str, tuple[int, ...], str]]


def init_params(table: ParamTable, rng: np.random.Generator, dtype) -> dict[str, Tensor]:
    """One tensor per ``(name, shape, init)`` of ``table``, drawn from
    ``rng`` in table order."""
    params: dict[str, Tensor] = {}
    for name, shape, init in table:
        if init == "normal":
            data = rng.normal(0.0, INIT_STD, shape).astype(dtype)
        else:
            data = {"zeros": np.zeros, "ones": np.ones}[init](shape, dtype=dtype)
        params[name] = Tensor(data)
    return params


def encoder_param_table(config: EncoderConfig) -> ParamTable:
    """Name, shape and initialisation of every encoder parameter, in draw
    order: normal(0, 0.02) weights, zero biases, unit LN gains."""
    d, f = config.d_model, config.d_ff
    table: ParamTable = []
    for i in range(config.n_layers):
        p = f"{PREFIX}.layer{i}"
        table += [(f"{p}.attn.{mat}", (d, d), "normal") for mat in ("wq", "wk", "wv", "wo")]
        # no key bias: softmax is invariant to a per-row shift, so a key
        # bias is a dead parameter (and breaks finite-difference checks)
        table += [(f"{p}.attn.{vec}", (d,), "zeros") for vec in ("bq", "bv", "bo")]
        table += [(f"{p}.ln1.gain", (d,), "ones"), (f"{p}.ln1.bias", (d,), "zeros"),
                  (f"{p}.ffn.w1", (d, f), "normal"), (f"{p}.ffn.b1", (f,), "zeros"),
                  (f"{p}.ffn.w2", (f, d), "normal"), (f"{p}.ffn.b2", (d,), "zeros"),
                  (f"{p}.ln2.gain", (d,), "ones"), (f"{p}.ln2.bias", (d,), "zeros")]
    return table


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator,
                        dtype=np.float32) -> dict[str, Tensor]:
    """Seeded initialization of ``encoder_param_table(config)``."""
    return init_params(encoder_param_table(config), rng, dtype)


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
