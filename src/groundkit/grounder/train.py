"""Deterministic training loop with token-budget batching.

Batches are formed by accumulating shuffled samples until the next one would
push the summed sequence length past the token budget (a batch always takes
at least one sample).  ``forward_passes`` cuts a batch into passes of
near-equal token counts, its samples sorted by sequence length, so each
pass pads to a near neighbour's length; each pass is one padded forward and
backward pass.  A pass backpropagates its mean loss weighted by its share of the
batch, so its gradients add up, in a fixed order, to those of the batch's
mean loss before the single optimizer step, and a seed pins the whole run.

Each sample is prepared once per ``train`` call, before step 0: its
``SampleLayout`` (neutral-name substitution, word ids, feature and location
rows) and, unless ``config.lam`` is 0, its contrastive sets are reused on
every visit, so a step only gathers the rows of its sub-batch.  An
unembeddable sample therefore fails before the first step.  The contrastive
weight comes from the config alone; ``dataclasses.replace(config, lam=...)``
sets another.

A pass runs forward and backward under ``nc.deferred_checks`` and is
checked once, at its loss, before ``backward``; ``optimizer_step`` checks
the step's flat gradient once.  A non-finite loss replays the pass with the
per-op checks on (``replay_pass``), so the NumericError names the op, the
part of the model, the step and the pass's sample ids.

A step's passes run in a ``workers.PassPool``, spread over forked processes
when more than one CPU is usable; their gradients are summed in pass order,
so the process count changes no byte of a run.  The parameters are views
of Adam's ``AdamState.flat``, which the workers share and each step updates
in place.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import numcore as nc
from ..core import DataError, Sample, Word
from . import workers
from .model import (DEFAULT_NEUTRAL_NAMES, UNK_TOKEN, GroundingModel, ModelConfig,
                    TrainSchedule, pass_count, sequence_length)

log = logging.getLogger(__name__)


@dataclass
class TrainResult:
    model: GroundingModel
    losses: list[float] = field(default_factory=list)


def build_vocab(samples: Sequence[Sample]) -> dict[str, int]:
    """Sorted corpus vocabulary plus the neutral-name pool; id 0 is <unk>."""
    words = set(DEFAULT_NEUTRAL_NAMES)
    for sample in samples:
        words.update(t.lower() for t in sample.tokens if isinstance(t, Word))
    vocab = {UNK_TOKEN: 0}
    for i, w in enumerate(sorted(words), start=1):
        vocab[w] = i
    return vocab


def make_batches(order: Sequence[int], lengths: Sequence[int],
                 token_budget: int) -> list[list[int]]:
    batches: list[list[int]] = []
    current: list[int] = []
    used = 0
    for idx in order:
        n = lengths[idx]
        if current and used + n > token_budget:
            batches.append(current)
            current = []
            used = 0
        current.append(idx)
        used += n
    if current:
        batches.append(current)
    return batches


def most_samples(lengths: Sequence[int], token_budget: int) -> int:
    """The most samples a batch ``make_batches`` forms can hold: a batch of
    two or more stays within the budget, so it holds no more samples than
    the shortest ones that fit in it."""
    fit = used = 0
    for n in sorted(lengths):
        used += n
        if used > token_budget:
            break
        fit += 1
    return max(1, fit)


def train(dataset: Sequence[Sample],
          config: ModelConfig,
          schedule: TrainSchedule,
          on_step: Callable[[int, float], None] | None = None) -> TrainResult:
    """Train a fresh model; deterministic given (dataset, config, schedule),
    whatever the number of processes its passes run in.  The returned
    parameters stay in Adam's shared ``mmap``: a process forked after
    ``train`` that writes them writes them for its parent too."""
    if not dataset:
        raise DataError("training needs a non-empty dataset")
    vocab = build_vocab(dataset)
    model = GroundingModel.init(config, vocab, dtype=np.float32)
    state = nc.init_adam_state(model.params)
    layouts = model.prepare(dataset, contrast=config.lam != 0.0)
    lengths = [sequence_length(layout) for layout in layouts]
    rng = np.random.default_rng(config.seed)
    most_passes = pass_count(most_samples(lengths, schedule.token_budget))

    losses: list[float] = []
    step = 0
    with workers.blas_held_to_one_thread() as held:
        processes = workers.process_count(most_passes) if held else 1
        with workers.PassPool(model, state, dataset, layouts, processes) as pool:
            while step < schedule.steps:
                order = rng.permutation(len(dataset))
                for batch in make_batches(order, lengths, schedule.token_budget):
                    total, grad = pool.run(step, batch)
                    with nc.located(f"step {step}"):
                        nc.optimizer_step(state, grad, lr=schedule.lr,
                                          weight_decay=schedule.weight_decay)
                    mean_loss = total / len(batch)
                    losses.append(mean_loss)
                    if on_step is not None:
                        on_step(step, mean_loss)
                    step += 1
                    if step >= schedule.steps:
                        break
    return TrainResult(model=model, losses=losses)
