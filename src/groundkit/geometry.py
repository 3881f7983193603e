"""Axis-aligned box arithmetic: areas, IoU (per box pair and over arrays), and
the normalized location rows.

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


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint boxes."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = 0.0 if iw <= 0.0 or ih <= 0.0 else iw * ih
    return 0.0 if inter == 0.0 else inter / (a.area + b.area - inter)


def iou_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of float64 ``[..., 4]`` box rows that broadcast together, bit for
    bit: the same operations in the same order (integer coordinates below
    2**26 keep every area exact), 0.0 where the boxes do not overlap."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])) - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=inter != 0.0)


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
