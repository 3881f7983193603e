"""Save/load a trained model as a run directory.

A run directory holds ``model.ckpt`` (binary checkpoint), ``vocab.json``
(word-to-id map), ``config.cfg`` (the resolved model config), and whatever
logs the caller adds.  Loading validates the vocabulary, then tensor names
and shapes against the config, before constructing the model.  Each file,
the checkpoint included, is written through ``core.replace_file``
(``<name>.tmp`` plus ``os.replace``), so a failed save never leaves a partly
written file behind.
"""

from __future__ import annotations

import json
from pathlib import Path

from .. import numcore as nc
from ..core import DataError, read_text, replace_file
from .model import UNK_TOKEN, GroundingModel, read_config

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


def _read_vocab(path: Path) -> dict[str, int]:
    """A ``vocab.json``: a JSON object mapping words to integer ids that are
    exactly ``0..n-1``, each once, with ``<unk>`` at 0.  Anything else,
    booleans as ids included, is a DataError naming the file."""
    try:
        vocab = json.loads(read_text(path))
    except ValueError as exc:
        raise DataError(f"{path}: bad vocabulary file ({exc})") from None
    if not isinstance(vocab, dict):
        problem = f"a JSON {type(vocab).__name__}, not an object of word ids"
    elif any(type(i) is not int for i in vocab.values()):
        word = next(w for w, i in vocab.items() if type(i) is not int)
        problem = f"{word!r} has the id {vocab[word]!r}, not an integer"
    elif sorted(vocab.values()) != list(range(len(vocab))):
        problem = f"the ids are not 0..{len(vocab) - 1}, each once"
    elif vocab.get(UNK_TOKEN) != 0:
        problem = f"{UNK_TOKEN!r} does not have the id 0"
    else:
        return vocab
    raise DataError(f"{path}: bad vocabulary file ({problem})")


def load_model(run_dir: str | Path) -> GroundingModel:
    run_dir = Path(run_dir)
    config_path = run_dir / CONFIG_NAME
    vocab_path = run_dir / VOCAB_NAME
    ckpt_path = run_dir / CHECKPOINT_NAME
    for path in (config_path, vocab_path, ckpt_path):
        if not path.exists():
            raise DataError(f"{path}: missing from run directory")
    config = read_config(config_path)[0]
    vocab = _read_vocab(vocab_path)
    table = GroundingModel.param_table(config, len(vocab))
    loaded = nc.load_checkpoint(ckpt_path, expected_shapes={
        name: shape for name, shape, _init in table})
    return GroundingModel(config, {name: nc.Tensor(loaded[name]) for name, _s, _i in table},
                          vocab)
