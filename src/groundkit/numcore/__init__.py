"""Minimal dense numeric kernel with reverse-mode differentiation."""

from .tensor import (
    Graph,
    NumericError,
    Tensor,
    add,
    concat_rows,
    dot_const,
    gather_dot,
    gather_rows,
    gelu,
    l2_normalize_rows,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    reshape,
    scale,
    scatter_rows,
    softmax,
    take_per_row,
    transpose,
)
from .encoder import EncoderConfig, attention_layer, encode, init_encoder_params
from .optim import AdamState, init_adam_state, optimizer_step
from .gradcheck import grad_check
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "AdamState", "CheckpointError", "EncoderConfig", "Graph", "NumericError",
    "Tensor", "add", "attention_layer", "concat_rows", "dot_const", "encode",
    "gather_dot", "gather_rows", "gelu", "grad_check", "init_adam_state",
    "init_encoder_params", "l2_normalize_rows", "layer_norm", "linear",
    "load_checkpoint", "log_softmax", "matmul", "optimizer_step", "reshape",
    "save_checkpoint", "scale", "scatter_rows", "softmax", "take_per_row",
    "transpose",
]
