"""Context-object-aware grounding model: embedding, losses, inference, training."""

from .model import (DEFAULT_NEUTRAL_NAMES, SUB_BATCH, EncodedBatch, GroundingModel, ModelConfig,
                    PassInputs, Prepared, TrainSchedule, classification_logits,
                    forward_passes, loss_cls, loss_con, read_config, select_context_objects,
                    substitute_neutral_names)
from .train import TrainResult, build_vocab, make_batches, train

__all__ = [
    "DEFAULT_NEUTRAL_NAMES", "EncodedBatch",
    "GroundingModel", "ModelConfig", "PassInputs", "Prepared", "SUB_BATCH",
    "TrainResult", "TrainSchedule", "build_vocab", "classification_logits",
    "forward_passes", "loss_cls", "loss_con", "make_batches",
    "read_config", "select_context_objects", "substitute_neutral_names", "train",
]
