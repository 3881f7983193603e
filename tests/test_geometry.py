import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundkit.core import BoundingBox
from groundkit.geometry import intersection_area, iou, location_feature


def box(x1, y1, x2, y2):
    return BoundingBox(x1, y1, x2, y2)


def location_row(b, width, height):
    """``location_feature`` of the one box ``b``."""
    return location_feature([[b.x1, b.y1, b.x2, b.y2]], width, height)[0]


def per_box_location(b, width, height):
    """The location vector of one box in Python arithmetic, entry by entry."""
    w_n = (b.x2 - b.x1) / width
    h_n = (b.y2 - b.y1) / height
    return [b.x1 / width, b.y1 / height, b.x2 / width, b.y2 / height, w_n, h_n, w_n * h_n]


def random_box(rng, span=100.0):
    x1, y1 = rng.uniform(0, span, 2)
    w, h = rng.uniform(0.5, span, 2)
    return BoundingBox(x1, y1, x1 + w, y1 + h)


class TestIou:
    def test_identity(self):
        b = box(3, 4, 10, 20)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 1, 1), box(2, 2, 3, 3)) == 0.0

    def test_partial_overlap_matches_area_arithmetic(self):
        # oracle: a=[0,0,2,2], b=[1,0,3,2] -> intersection 1x2=2, union 4+4-2=6
        a, b = box(0, 0, 2, 2), box(1, 0, 3, 2)
        assert intersection_area(a, b) == 2.0
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_edge_touching_is_zero(self):
        assert iou(box(0, 0, 1, 1), box(1, 0, 2, 1)) == 0.0

    def test_symmetry_range_identity_bulk(self):
        # >= 1000 random pairs: symmetry, range, translation invariance
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            dx, dy = rng.uniform(0, 50, 2)
            ta = BoundingBox(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
            tb = BoundingBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
            assert iou(ta, tb) == pytest.approx(v, abs=1e-12)

    def test_containment_monotonicity_bulk(self):
        # a inside b inside c  =>  iou(a,b) >= iou(a,c)
        rng = np.random.default_rng(43)
        for _ in range(1000):
            a = random_box(rng, span=20.0)
            pad1 = rng.uniform(0.1, 10, 2)
            pad2 = pad1 + rng.uniform(0.1, 10, 2)
            b = BoundingBox(a.x1, a.y1, a.x2 + pad1[0], a.y2 + pad1[1])
            c = BoundingBox(a.x1, a.y1, a.x2 + pad2[0], a.y2 + pad2[1])
            assert iou(a, b) >= iou(a, c)

    @given(x1=st.floats(0, 50), y1=st.floats(0, 50),
           w=st.floats(0.5, 50), h=st.floats(0.5, 50))
    @settings(max_examples=200)
    def test_self_iou_is_one(self, x1, y1, w, h):
        b = BoundingBox(x1, y1, x1 + w, y1 + h)
        assert iou(b, b) == 1.0


class TestLocationFeature:
    def test_known_values(self):
        feat = location_row(box(10, 20, 30, 60), 100, 100)
        np.testing.assert_allclose(feat, [0.1, 0.2, 0.3, 0.6, 0.2, 0.4, 0.08],
                                   atol=1e-12)

    def test_full_image_box(self):
        feat = location_row(box(0, 0, 640, 480), 640, 480)
        np.testing.assert_allclose(feat, [0, 0, 1, 1, 1, 1, 1], atol=1e-12)

    def test_internal_consistency_bulk(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            w_img, h_img = rng.uniform(50, 500, 2)
            x1 = rng.uniform(0, w_img * 0.5)
            y1 = rng.uniform(0, h_img * 0.5)
            b = BoundingBox(x1, y1, rng.uniform(x1 + 0.1, w_img), rng.uniform(y1 + 0.1, h_img))
            f = location_row(b, w_img, h_img)
            assert np.all((f >= 0) & (f <= 1))
            assert abs(f[4] - (f[2] - f[0])) < 1e-9
            assert abs(f[5] - (f[3] - f[1])) < 1e-9
            assert f[6] == f[4] * f[5]

    def assert_rows_match_per_box(self, boxes, sizes):
        got = location_feature([[b.x1, b.y1, b.x2, b.y2] for b in boxes],
                               [w for w, _h in sizes], [h for _w, h in sizes])
        want = np.array([per_box_location(b, w, h) for b, (w, h) in zip(boxes, sizes)])
        assert got.dtype == np.float64 and got.shape == (len(boxes), 7)
        assert got.tobytes() == want.tobytes()

    def test_random_float_boxes_match_the_per_box_formula_bitwise(self):
        rng = np.random.default_rng(45)
        boxes, sizes = [], []
        for _ in range(1000):
            w_img, h_img = rng.uniform(1, 5000, 2)
            x1, y1 = rng.uniform(0, w_img * 0.9), rng.uniform(0, h_img * 0.9)
            boxes.append(BoundingBox(float(x1), float(y1), float(rng.uniform(x1, w_img)),
                                     float(rng.uniform(y1, h_img))))
            sizes.append((float(w_img), float(h_img)))
        self.assert_rows_match_per_box(boxes, sizes)

    def test_integer_boxes_below_2_53_match_the_per_box_formula_bitwise(self):
        # Python divides two ints exactly rounded; below 2**53 so does float64
        rng = np.random.default_rng(46)
        boxes, sizes = [], []
        for top in (10**3, 10**9, 2**53 - 1):
            for _ in range(300):
                w_img, h_img = (int(v) for v in rng.integers(2, top, 2, endpoint=True))
                x1, y1 = int(rng.integers(0, w_img - 1)), int(rng.integers(0, h_img - 1))
                boxes.append(BoundingBox(x1, y1, int(rng.integers(x1 + 1, w_img, endpoint=True)),
                                         int(rng.integers(y1 + 1, h_img, endpoint=True))))
                sizes.append((w_img, h_img))
        self.assert_rows_match_per_box(boxes, sizes)

    def test_boxes_on_the_image_edge_match_the_per_box_formula_bitwise(self):
        boxes = [box(0, 0, 640, 480), box(0.5, 0, 640, 1.25), box(639, 479, 640, 480),
                 box(0, 0, 1e-300, 480), box(0.1, 0.2, 2**53 - 1, 0.7)]
        sizes = [(640, 480), (640, 480), (640, 480), (640, 480), (2**53 - 1, 0.7)]
        self.assert_rows_match_per_box(boxes, sizes)
        edge = location_feature([[b.x1, b.y1, b.x2, b.y2] for b in boxes[:3]], 640, 480)
        assert edge[0].tolist() == [0, 0, 1, 1, 1, 1, 1]
        assert (edge[:, 2] == 1.0).all() and edge[2, 3] == 1.0

    def test_no_boxes_make_no_rows(self):
        assert location_feature([], [], []).shape == (0, 7)
