"""Save/load a trained model as a run directory.

A run directory holds ``model.ckpt`` (binary checkpoint), ``vocab.json``
(word-to-id map), ``config.cfg`` (the resolved model config), and whatever
logs the caller adds.  Loading validates tensor names and shapes against the
config before constructing the model.  Each file, the checkpoint included,
is written through ``core.replace_file`` (``<name>.tmp`` plus ``os.replace``),
so a failed save never leaves a partly written file behind.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .. import numcore as nc
from ..core import DataError, replace_file
from .model import GroundingModel, read_config

CHECKPOINT_NAME = "model.ckpt"
VOCAB_NAME = "vocab.json"
CONFIG_NAME = "config.cfg"


def save_model(model: GroundingModel, run_dir: str | Path) -> Path:
    run_dir = Path(run_dir)
    replace_file(run_dir / CHECKPOINT_NAME, nc.checkpoint_bytes(model.params))
    replace_file(run_dir / VOCAB_NAME,
                 json.dumps(model.vocab, sort_keys=True, indent=0).encode("utf-8"))
    model.config.to_file(run_dir / CONFIG_NAME)
    return run_dir / CHECKPOINT_NAME


def load_model(run_dir: str | Path) -> GroundingModel:
    run_dir = Path(run_dir)
    config_path = run_dir / CONFIG_NAME
    vocab_path = run_dir / VOCAB_NAME
    ckpt_path = run_dir / CHECKPOINT_NAME
    for path in (config_path, vocab_path, ckpt_path):
        if not path.exists():
            raise DataError(f"{path}: missing from run directory")
    config = read_config(config_path)[0]
    try:
        vocab = {str(k): int(v) for k, v in
                 json.loads(vocab_path.read_text(encoding="utf-8")).items()}
    except (json.JSONDecodeError, ValueError) as exc:
        raise DataError(f"{vocab_path}: bad vocabulary file ({exc})") from None
    template = GroundingModel.init(config, vocab, dtype=np.float32)
    loaded = nc.load_checkpoint(ckpt_path, expected_shapes={
        name: p.data.shape for name, p in template.params.items()})
    for name, arr in loaded.items():
        template.params[name].data = arr
    return template
