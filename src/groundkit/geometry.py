"""Axis-aligned box arithmetic: areas, IoU, and the normalized location vector.

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


def location_feature(box: BoundingBox, width: float, height: float) -> np.ndarray:
    """7-vector [x1/W, y1/H, x2/W, y2/H, w/W, h/H, (w*h)/(W*H)] for a box.

    The box must lie inside the W x H image (``ImageRecord.validate`` checks
    that); all entries then land in [0, 1] and the width/height/area entries
    are derived from the normalized corners.
    """
    w_n = box.width / width
    h_n = box.height / height
    return np.array([box.x1 / width, box.y1 / height,
                     box.x2 / width, box.y2 / height,
                     w_n, h_n, w_n * h_n], dtype=np.float64)
