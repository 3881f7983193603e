import os

import numpy as np
import pytest

from groundkit.core import (
    BoundingBox,
    CommonsenseType,
    ContextObject,
    ImageRecord,
    PersonBox,
    PersonLink,
    Sample,
    Word,
    stable_rng,
)
from groundkit.grounder import (GroundingModel, build_vocab, forward_passes, make_batches,
                                read_config, workers)

D_VIS = 8

# tests that force a process count for train's passes: where the BLAS
# thread count cannot be held to one, every run takes one process
needs_workers = pytest.mark.skipif(
    not hasattr(os, "fork") or workers._openblas_threads() is None,
    reason="no fork, or no OpenBLAS whose thread count can be held to one")


def make_person(index, x1, y1, x2, y2, rng=None, d_vis=D_VIS):
    rng = rng or np.random.default_rng(index)
    return PersonBox(index=index, box=BoundingBox(x1, y1, x2, y2),
                     feature=rng.normal(0, 1, d_vis).astype(np.float32))


def make_object(x1, y1, x2, y2, objectness=0.5, class_name="cup", seed=0, d_vis=D_VIS):
    rng = np.random.default_rng(seed)
    return ContextObject(box=BoundingBox(x1, y1, x2, y2),
                         feature=rng.normal(0, 1, d_vis).astype(np.float32),
                         objectness=objectness, class_name=class_name)


def make_sample(sample_id="s-0", n_persons=3, tokens=None, labels=None,
                ctype=CommonsenseType.OTHER, n_objects=1, width=800, height=200):
    rng = stable_rng(0, sample_id)
    persons = [make_person(i, 10 + 60 * i, 10, 60 + 60 * i, 120, rng=rng)
               for i in range(n_persons)]
    objects = [make_object(20 + 10 * (j % 70), 130 + 2 * (j // 70),
                           50 + 10 * (j % 70), 170 + 2 * (j // 70),
                           class_name="cup", seed=j) for j in range(n_objects)]
    if tokens is None:
        tokens = [PersonLink(1), Word("waves"), Word("happily")]
    if labels is None:
        labels = {1: 0}
    return Sample(sample_id=sample_id,
                  image=ImageRecord(image_id=f"img-{sample_id}", width=width,
                                    height=height, persons=persons,
                                    context_objects=objects),
                  tokens=list(tokens),
                  labels=dict(labels),
                  commonsense_type=ctype)


@pytest.fixture
def simple_sample():
    return make_sample()


def first_step_passes(samples, config_path, token_budget=None):
    """The sample indices of each pass of ``train``'s step 0 on ``samples``
    under the config file ``config_path``, or under it with ``token_budget``."""
    config, schedule = read_config(config_path)
    model = GroundingModel.init(config, build_vocab(samples), dtype=np.float32)
    lengths = model.prepare(samples, contrast=config.lam != 0.0).lengths
    order = np.random.default_rng(config.seed).permutation(len(samples))
    batch = make_batches(order, lengths.tolist(), token_budget or schedule.token_budget)[0]
    return [[batch[i] for i in positions] for positions in forward_passes(lengths[batch])]
