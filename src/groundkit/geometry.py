"""Axis-aligned box arithmetic: areas, IoU, and the normalized location rows.

Boxes are treated as real-valued half-open intervals, so ``area = (x2-x1) *
(y2-y1)`` with no pixel off-by-one conventions, ``iou(b, b) == 1.0`` exactly,
and an edge-touching intersection has IoU 0.
"""

from __future__ import annotations

import numpy as np

from .core import BoundingBox

# A context object belongs to a person when its IoU with that person exceeds
# T1 while its IoU with every other person stays below T2.
T1 = 0.3
T2 = 0.1


def intersection_area(a: BoundingBox, b: BoundingBox) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint boxes."""
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    union = a.area + b.area - inter
    return inter / union


def location_feature(boxes, width, height) -> np.ndarray:
    """``[n, 7]`` rows [x1/W, y1/H, x2/W, y2/H, w/W, h/H, (w*h)/(W*H)] for ``[n, 4]`` boxes.

    ``width`` and ``height`` are each row's image size, ``[n]`` or scalars;
    all inputs are read as float64.  Each box must lie inside its image
    (``ImageRecord.validate`` checks that), so every entry lands in [0, 1].
    """
    x1, y1, x2, y2 = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    width = np.asarray(width, dtype=np.float64)
    height = np.asarray(height, dtype=np.float64)
    w_n = (x2 - x1) / width
    h_n = (y2 - y1) / height
    return np.stack([x1 / width, y1 / height, x2 / width, y2 / height,
                     w_n, h_n, w_n * h_n], axis=1)
