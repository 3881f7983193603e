"""The gradient suite behind ``groundkit gradcheck``: central differences
against the tape's gradients of the three losses, on a small seeded batch
that pads unevenly."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import benchkit, numcore as nc
from ..core import DataError, PersonLink, Sample
from .model import GroundingModel, ModelConfig
from .train import build_vocab

GRADCHECK_THRESHOLD = 1e-4
GRADCHECK_ENTRIES = 8


def gradient_fixture(d_vis: int, seed: int = 0) -> list[Sample]:
    """Up to three seeded synthetic scenes that pad unevenly when batched.

    Person counts and object counts differ pairwise, and the last scene is
    rewritten to carry two links in a shorter text, so a batch of them
    exercises padding rows, both masks and per-sample link weights.  A
    ``d_vis`` too small for synthetic scenes is a DataError.
    """
    if d_vis < benchkit.MIN_D_VIS:
        raise DataError(f"the gradient check needs d_vis >= {benchkit.MIN_D_VIS}, "
                        f"the config has {d_vis}")
    pool = benchkit.synth_generate(benchkit.SynthConfig(
        n_samples=64, max_persons=4, d_vis=d_vis, context_rate=1.0, seed=seed))
    picked: list[Sample] = []
    for s in pool:
        if all(s.image.n_persons != p.image.n_persons
               and len(s.image.context_objects) != len(p.image.context_objects)
               for p in picked):
            picked.append(s)
        if len(picked) == 3:
            break
    last = picked[-1]
    gt = last.labels[1]
    picked[-1] = Sample(
        sample_id=last.sample_id, image=last.image,
        tokens=[PersonLink(1), "greets", PersonLink(2)],
        labels={1: gt, 2: (gt + 1) % last.image.n_persons},
        commonsense_type=last.commonsense_type)
    return picked


def run_gradient_suite(config: ModelConfig, seed: int = 0, epsilon: float = 1e-5) -> dict:
    """grad_check L_cls / L_con / L_cls + lambda L_con on a seeded padded batch.

    The model is checked in float64 at a rescaled parameter point (weights
    x10) so that gradient magnitudes are well clear of finite-difference
    noise; gradient correctness is point-independent.  The batch is
    ``gradient_fixture``, so the check covers padding and masking too.  A
    config with lambda 0 checks the total at lambda 1.  ``max_rel_error``
    holds each loss's worst relative error over the probed entries that
    central differences can resolve, ``below_noise`` the number of probed
    entries they cannot (``numcore.gradcheck.noise_bound``).
    """
    fixture = gradient_fixture(config.d_vis, seed)
    config = replace(config, lam=config.lam if config.lam > 0 else 1.0)
    model = GroundingModel.init(config, build_vocab(fixture), dtype=np.float64)
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data = p.data * 10.0
    layouts = model.prepare(fixture, contrast=True)
    losses = {"cls": lambda: model.loss_terms(layouts)[0],
              "con": lambda: model.loss_terms(layouts)[1],
              "total": lambda: model.batch_loss(layouts)}
    checks = {kind: nc.grad_check(build, model.params, epsilon=epsilon,
                                  max_entries_per_param=GRADCHECK_ENTRIES,
                                  rng=np.random.default_rng(seed + 17))
              for kind, build in losses.items()}
    return {"epsilon": epsilon, "seed": seed, "threshold": GRADCHECK_THRESHOLD,
            "max_rel_error": {kind: c.max_rel_error for kind, c in checks.items()},
            "below_noise": {kind: c.below_noise for kind, c in checks.items()}}
