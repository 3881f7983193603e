"""Heuristic baselines, the accuracy metric, result tables, and synthetic scenes.

The synthetic generator places ground truth independently of box geometry,
so every geometry-only heuristic sits at chance (the mean of 1/N over the
set) while a model that reads the features and context objects can solve it.
Each box takes its coordinates from one ``rng.random`` block, mapped as
``Generator.uniform`` maps a draw, and a scene's person features come from
one ``normal`` block: the values, and so the dataset bytes, one scalar call
per value would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BoundingBox,
    CommonsenseType,
    ContextObject,
    DataError,
    ImageRecord,
    PersonBox,
    PersonLink,
    Prediction,
    Sample,
    stable_keys,
)

# ---------------------------------------------------------------------------
# heuristic baselines


def baseline_random(samples: Sequence[Sample], seed: int = 0) -> list[Prediction]:
    """Link ``i`` of a sample, in ``link_ids`` order, picks person ``key[i] %
    n_persons`` of its digest keys per (seed, sample_id) (``stable_keys``)."""
    keys = stable_keys(seed, [s.sample_id for s in samples],
                       max([16] + [len(s.link_ids) for s in samples])).tolist()
    return [Prediction({link: key[i] % s.image.n_persons for i, link in enumerate(s.link_ids)})
            for s, key in zip(samples, keys)]


def _assign_in_order(link_ids: Sequence[int], ordered_boxes: Sequence[int]) -> Prediction:
    # Links beyond the candidate count wrap around cyclically.
    return Prediction({
        link: ordered_boxes[i % len(ordered_boxes)] for i, link in enumerate(link_ids)
    })


def baseline_big_to_small(sample: Sample) -> Prediction:
    """Links in description order onto boxes sorted by decreasing area."""
    persons = sample.image.persons
    order = sorted(range(len(persons)), key=lambda i: (-persons[i].box.area, i))
    return _assign_in_order(sample.link_ids, order)


def baseline_left_to_right(sample: Sample, top_k_only: bool = False) -> Prediction:
    """Links onto boxes sorted by upper-left corner (x1, then y1, then index).

    With ``top_k_only`` the candidate set is first cut to the k largest boxes
    by area, where k is the number of links in the description.
    """
    persons = sample.image.persons
    candidates = list(range(len(persons)))
    link_ids = sample.link_ids
    if top_k_only:
        by_area = sorted(candidates, key=lambda i: (-persons[i].box.area, i))
        candidates = by_area[:max(1, min(len(link_ids), len(candidates)))]
    candidates.sort(key=lambda i: (persons[i].box.x1, persons[i].box.y1, i))
    return _assign_in_order(link_ids, candidates)


# the deterministic baselines, one sample at a time; they draw nothing
_HEURISTICS = {
    "big_to_small": baseline_big_to_small,
    "left_to_right": baseline_left_to_right,
    "left_to_right_biggest": lambda sample: baseline_left_to_right(sample, top_k_only=True),
}
BASELINES = ("random", *_HEURISTICS)


def run_baseline(name: str, samples: Sequence[Sample], seed: int = 0) -> list[Prediction]:
    """Baseline ``name``'s predictions in input order; only ``random`` reads ``seed``."""
    if name == "random":
        return baseline_random(samples, seed)
    if name not in _HEURISTICS:
        raise DataError(f"unknown baseline {name!r}; choose from {sorted(BASELINES)}")
    return [_HEURISTICS[name](s) for s in samples]


# ---------------------------------------------------------------------------
# evaluation


def _bucket(correct: int, total: int) -> dict:
    return {"correct": correct, "total": total, "accuracy": correct / total if total else None}


def evaluate(predictions: Sequence[Prediction], samples: Sequence[Sample]) -> dict:
    """Link-level accuracy with commonsense-type and person-count breakdowns.

    The report is ``{"overall": bucket, "by_type": {type: bucket}, "by_n":
    {str(n_persons): bucket}}``, each bucket ``{"correct", "total",
    "accuracy"}``; the accuracy of an empty bucket is None.
    """
    if len(predictions) != len(samples):
        raise DataError(f"{len(predictions)} predictions for {len(samples)} samples")
    overall = [0, 0]
    by_type: dict[str, list[int]] = {}
    by_n: dict[int, list[int]] = {}
    for pred, sample in zip(predictions, samples):
        choices = pred.chosen
        tallies = (overall, by_type.setdefault(sample.commonsense_type.value, [0, 0]),
                   by_n.setdefault(sample.image.n_persons, [0, 0]))
        for link_id, gt in sample.labels.items():
            if link_id not in choices:
                raise DataError(f"{sample.sample_id}: no prediction for link {link_id}")
            hit = int(choices[link_id] == gt)
            for tally in tallies:
                tally[0] += hit
                tally[1] += 1
    return {"overall": _bucket(*overall),
            "by_type": {t: _bucket(*c) for t, c in sorted(by_type.items())},
            "by_n": {str(n): _bucket(*c) for n, c in sorted(by_n.items())}}


def expected_chance(samples: Sequence[Sample]) -> float:
    """Link-weighted mean of 1/N: accuracy of any geometry-blind assignment."""
    num = sum(len(s.labels) / s.image.n_persons for s in samples)
    den = sum(len(s.labels) for s in samples)
    return num / den


# ---------------------------------------------------------------------------
# result tables


def render_table(name: str, report: dict) -> str:
    """Aligned text table of one ``evaluate`` report, in a row labelled ``name``."""
    type_names = sorted(report["by_type"])
    headers = ["model", "accuracy", "correct", "total"] + [f"acc[{t}]" for t in type_names]
    overall = report["overall"]
    accuracies = [overall["accuracy"]] + [report["by_type"][t]["accuracy"] for t in type_names]
    cells = ["-" if acc is None else f"{acc:.4f}" for acc in accuracies]
    row = [name, cells[0], str(overall["correct"]), str(overall["total"])] + cells[1:]
    widths = [max(len(h), len(c)) for h, c in zip(headers, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return "\n".join([fmt.format(*headers), fmt.format(*["-" * w for w in widths]),
                      fmt.format(*row)])


# ---------------------------------------------------------------------------
# synthetic scenes


ATTRIBUTES = ("red", "blue", "green", "yellow", "purple", "orange", "silver", "golden")
OBJECT_CLASSES = ("dog", "cup", "guitar", "ball", "book", "hat", "bag", "phone")

# feature layout: [0] person flag, [1:1+A] attribute one-hot,
# [1+A:1+A+C] object-class one-hot, remainder noise-only
_ATTR_OFFSET = 1
_CLASS_OFFSET = _ATTR_OFFSET + len(ATTRIBUTES)
MIN_D_VIS = _CLASS_OFFSET + len(OBJECT_CLASSES)

# the image canvas, in pixels
WIDTH, HEIGHT = 640, 480
# standard deviation of the feature noise
NOISE = 0.05
# pooled-ROI behavior: an object overlapping a person leaves a faint class
# imprint of this size on that person's feature vector (crops overlap)
IMPRINT = 0.4


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int
    max_persons: int = 5
    d_vis: int = 32
    context_rate: float = 0.5
    seed: int = 0
    # the share of scenes that get the imprint; imprint_rate < 1 leaves some
    # scenes readable only through the object tokens
    imprint_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 2 <= self.max_persons <= 10:
            raise ValueError("max_persons must lie in [2, 10]")
        if self.d_vis < MIN_D_VIS:
            raise ValueError(f"d_vis must be >= {MIN_D_VIS}")
        if not 0.0 <= self.context_rate <= 1.0:
            raise ValueError("context_rate must lie in [0, 1]")
        if not 0.0 <= self.imprint_rate <= 1.0:
            raise ValueError("imprint_rate must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _uniform(u: float, low: float, high: float) -> float:
    """``rng.uniform(low, high)`` of its unit draw ``u = rng.random()``, as numpy
    computes it, so ``rng.random(k)`` yields what ``k`` scalar calls would."""
    return low + (high - low) * u


def _disjoint(x1: float, y1: float, x2: float, y2: float, others: Sequence[BoundingBox]) -> bool:
    # the intervals of boxes of positive size are apart on some axis exactly
    # when ``iou`` is 0.0 (an edge-touching pair included)
    return all(o.x2 <= x1 or x2 <= o.x1 or o.y2 <= y1 or y2 <= o.y1 for o in others)


def _place_persons(rng: np.random.Generator, n: int) -> list[BoundingBox]:
    """``n`` pairwise disjoint boxes.  A box that finds no free spot in 200
    draws means the earlier boxes jammed the canvas, so the scene's placement
    starts over (at most 100 times) with the generator where it stands."""
    for _restart in range(100):
        boxes: list[BoundingBox] = []
        for _ in range(n):
            for _attempt in range(200):
                u_w, u_h, u_x, u_y = rng.random(4).tolist()
                w = _uniform(u_w, 80, 150)
                h = _uniform(u_h, 100, 180)
                x1 = _uniform(u_x, 0, WIDTH - w)
                y1 = _uniform(u_y, 0, HEIGHT - h)
                if _disjoint(x1, y1, x1 + w, y1 + h, boxes):
                    boxes.append(BoundingBox(x1, y1, x1 + w, y1 + h))
                    break
            else:
                break
        else:
            return boxes
    raise DataError(f"could not place {n} disjoint person boxes in 100 restarts")


def _inner_box(rng: np.random.Generator, outer: BoundingBox) -> BoundingBox:
    # A concentric sub-box with area ratio s^2 in (T1, ~0.72]; being fully
    # inside the (disjoint) person box keeps IoU with every other person at 0.
    u_s, u_x, u_y = rng.random(3).tolist()
    s = _uniform(u_s, 0.65, 0.85)
    w = outer.width * s
    h = outer.height * s
    cx = outer.x1 + outer.width / 2 + _uniform(u_x, -0.05, 0.05) * outer.width
    cy = outer.y1 + outer.height / 2 + _uniform(u_y, -0.05, 0.05) * outer.height
    x1 = min(max(cx - w / 2, outer.x1), outer.x2 - w)
    y1 = min(max(cy - h / 2, outer.y1), outer.y2 - h)
    return BoundingBox(x1, y1, x1 + w, y1 + h)


def _background_box(rng: np.random.Generator) -> BoundingBox:
    # Small enough that IoU against any person box stays below the selection
    # threshold (decoys are scene clutter, not context tied to a person).
    u_w, u_h, u_x, u_y = rng.random(4).tolist()
    w = _uniform(u_w, 24, 40)
    h = _uniform(u_h, 24, 40)
    x1 = _uniform(u_x, 0, WIDTH - w)
    y1 = _uniform(u_y, 0, HEIGHT - h)
    return BoundingBox(x1, y1, x1 + w, y1 + h)


def _object_feature(rng: np.random.Generator, cfg: SynthConfig, class_idx: int) -> np.ndarray:
    vec = rng.normal(0.0, NOISE, cfg.d_vis)
    vec[_CLASS_OFFSET + class_idx] += 1.0
    return vec.astype(np.float32)


def synth_generate(config: SynthConfig) -> list[Sample]:
    """Deterministic synthetic grounding scenes.

    Attribute scenes: the target person's color attribute is unique in the
    image and is named in the description.  Context scenes: the description
    names an object class; the single object of that class sits inside the
    target person's box (IoU above T1 with the target, 0 with everyone
    else), and person features are uninformative about the answer.
    """
    rng = np.random.default_rng(config.seed)
    samples: list[Sample] = []
    for i in range(config.n_samples):
        # scalar ``integers`` calls stay scalar: a sized call fills from buffered
        # 32-bit draws, consuming the stream differently, and moves every byte
        n = int(rng.integers(2, config.max_persons + 1))
        boxes = _place_persons(rng, n)
        gt = int(rng.integers(n))
        context_driven = bool(rng.random() < config.context_rate)

        if context_driven:
            attr_ids = [int(a) for a in rng.integers(0, len(ATTRIBUTES), n)]
        else:
            gt_attr = int(rng.integers(len(ATTRIBUTES)))
            rest = [a for a in range(len(ATTRIBUTES)) if a != gt_attr]
            # ``rng.integers`` draws the index ``rng.choice`` would, at a fifth of its cost
            attr_ids = [rest[int(rng.integers(len(rest)))] for _ in range(n)]
            attr_ids[gt] = gt_attr
        # one normal block consumes the stream as n calls of d_vis values would
        features = rng.normal(0.0, NOISE, (n, config.d_vis))
        features[:, 0] += 1.0
        features[np.arange(n), [_ATTR_OFFSET + a for a in attr_ids]] += 1.0
        features = features.astype(np.float32)
        persons = [PersonBox(index=j, box=boxes[j], feature=features[j]) for j in range(n)]

        objects: list[ContextObject] = []
        cue_class = None
        if context_driven:
            cue_class = int(rng.integers(len(OBJECT_CLASSES)))
            objects.append(ContextObject(
                box=_inner_box(rng, boxes[gt]),
                feature=_object_feature(rng, config, cue_class),
                objectness=_uniform(rng.random(), 0.2, 1.0),
                class_name=OBJECT_CLASSES[cue_class]))
        n_decoys = int(rng.integers(1, 4))
        for _ in range(n_decoys):
            # decoys never reuse the cue class, so the described object
            # stays unique and the answer unambiguous
            allowed = [c for c in range(len(OBJECT_CLASSES)) if c != cue_class]
            cls_idx = allowed[int(rng.integers(len(allowed)))]
            objects.append(ContextObject(
                box=_background_box(rng),
                feature=_object_feature(rng, config, cls_idx),
                objectness=_uniform(rng.random(), 0.2, 1.0),
                class_name=OBJECT_CLASSES[cls_idx]))

        # region crops overlap, so an object whose IoU with a person exceeds T1
        # bleeds a faint trace of its class into that person's pooled feature.
        # Only the cue object can: it lies inside the target person at an area
        # ratio of at least 0.65**2 = 0.42, while a decoy (at most 40 x 40) has
        # an IoU of at most 1600 / 8000 = 0.2 with a person (at least 80 x 100).
        # Every scene draws, imprinted or not.
        imprint = float(rng.random()) < config.imprint_rate
        if imprint and context_driven:
            persons[gt].feature[_CLASS_OFFSET + cue_class] += IMPRINT

        if context_driven:
            tokens = [PersonLink(1), "next", "to", "the", OBJECT_CLASSES[cue_class],
                      "feels", "upset"]
            ctype = CommonsenseType.SPATIAL
        else:
            tokens = [PersonLink(1), "who", "is", ATTRIBUTES[attr_ids[gt]], "will", "leave"]
            ctype = CommonsenseType.ATTRIBUTE

        samples.append(Sample(
            sample_id=f"synth-{i:06d}",
            image=ImageRecord(image_id=f"img-{i:06d}", width=WIDTH,
                              height=HEIGHT, persons=persons,
                              context_objects=objects),
            tokens=tokens,
            labels={1: gt},
            commonsense_type=ctype,
        ))
    return samples
