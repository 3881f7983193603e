"""Minimal dense numeric kernel with reverse-mode differentiation."""

from .tensor import (
    Graph,
    NumericError,
    Tensor,
    add,
    add_layer_norm,
    deferred_checks,
    dot_const,
    feed_forward,
    gather_dot,
    gather_rows,
    linear,
    located,
    log_softmax,
    scale,
    scatter_rows,
    self_attention,
)
from .encoder import EncoderConfig, attention_layer, encode, init_encoder_params
from .optim import AdamState, init_adam_state, optimizer_step, shared_array
from .gradcheck import grad_check
from .checkpoint import CheckpointError, checkpoint_bytes, load_checkpoint

__all__ = [
    "AdamState", "CheckpointError", "EncoderConfig", "Graph", "NumericError",
    "Tensor", "add", "add_layer_norm", "attention_layer", "checkpoint_bytes",
    "deferred_checks", "dot_const", "encode", "feed_forward", "gather_dot", "gather_rows",
    "grad_check", "init_adam_state", "init_encoder_params", "linear", "load_checkpoint",
    "located", "log_softmax", "optimizer_step", "scale", "scatter_rows",
    "self_attention", "shared_array",
]
