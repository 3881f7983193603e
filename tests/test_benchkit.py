import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundkit.benchkit import (
    ATTRIBUTES,
    HEIGHT,
    IMPRINT,
    OBJECT_CLASSES,
    WIDTH,
    SynthConfig,
    _ATTR_OFFSET,
    _CLASS_OFFSET,
    _disjoint,
    _place_persons,
    _uniform,
    baseline_big_to_small,
    baseline_left_to_right,
    baseline_random,
    evaluate,
    expected_chance,
    render_table,
    run_baseline,
    synth_generate,
)
from groundkit.core import (
    BoundingBox,
    CommonsenseType,
    DataError,
    ImageRecord,
    PersonBox,
    PersonLink,
    Prediction,
    Word,
    filter_sample,
    image_features,
    sample_to_json,
    stable_keys,
)
from groundkit.geometry import T1, iou
from groundkit.grounder.model import select_context_objects

from conftest import chi_square_p, make_sample


def sample_with_boxes(boxes, link_ids=(1,), labels=None, sample_id="b-0"):
    persons = [PersonBox(index=i, box=BoundingBox(*b),
                         feature=np.zeros(4, dtype=np.float32))
               for i, b in enumerate(boxes)]
    tokens = []
    for lid in link_ids:
        tokens += [PersonLink(lid), Word("waves")]
    from groundkit.core import Sample
    return Sample(sample_id=sample_id,
                  image=ImageRecord(image_id=sample_id, width=1000, height=1000,
                                    persons=persons),
                  tokens=tokens,
                  labels=labels or {lid: 0 for lid in link_ids},
                  commonsense_type=CommonsenseType.OTHER)


class TestHeuristics:
    def test_big_to_small_by_area(self):
        # areas 100, 400, 50 with two links -> 400-box then 100-box
        s = sample_with_boxes([(0, 0, 10, 10), (20, 0, 40, 20), (50, 0, 55, 10)],
                              link_ids=(1, 2), labels={1: 0, 2: 1})
        a = baseline_big_to_small(s)
        assert a.chosen == {1: 1, 2: 0}

    def test_equal_areas_tiebreak_lower_index(self):
        s = sample_with_boxes([(0, 0, 10, 10), (20, 0, 30, 10)], link_ids=(1,))
        assert baseline_big_to_small(s).chosen == {1: 0}

    def test_wrap_when_links_exceed_candidates(self):
        s = sample_with_boxes([(0, 0, 10, 10), (20, 0, 40, 20)],
                              link_ids=(1, 2, 3), labels={1: 0, 2: 1, 3: 0})
        a = baseline_big_to_small(s)
        assert a.chosen == {1: 1, 2: 0, 3: 1}   # third link wraps to the largest

    def test_left_to_right_by_upper_left(self):
        s = sample_with_boxes([(30, 0, 40, 10), (10, 0, 20, 10), (20, 0, 29, 10)],
                              link_ids=(1, 2, 3), labels={1: 0, 2: 1, 3: 2})
        a = baseline_left_to_right(s)
        assert a.chosen == {1: 1, 2: 2, 3: 0}

    def test_top_k_biggest_single_link(self):
        # areas 9, 100, 4: with one link only the area-100 box is a candidate
        s = sample_with_boxes([(0, 0, 3, 3), (500, 0, 510, 10), (900, 0, 902, 2)])
        a = baseline_left_to_right(s, top_k_only=True)
        assert a.chosen == {1: 1}

    def test_random_seeded_and_uniform(self):
        samples = [sample_with_boxes([(0, 0, 10, 10), (20, 0, 30, 10)],
                                     sample_id=f"r-{i}") for i in range(10000)]
        a1 = baseline_random(samples, seed=5)
        a2 = baseline_random(samples, seed=5)
        assert all(x.chosen == y.chosen for x, y in zip(a1, a2))
        hits = np.mean([a.chosen[1] == 0 for a in a1])
        assert abs(hits - 0.5) < 0.02   # 4 sigma ~ 0.02 at n=10k

    @pytest.mark.parametrize("n", range(2, 11))
    def test_random_picks_at_each_link_rank_are_uniform(self, n):
        # at a fixed seed, the first and the second link's picks over 2,400
        # samples of n persons spread evenly over the persons
        samples = [sample_with_boxes([(10 * i, 0, 10 * i + 5, 5) for i in range(n)],
                                     link_ids=(4, 1), sample_id=f"u-{i}") for i in range(2400)]
        picks = [(a.chosen[4], a.chosen[1]) for a in baseline_random(samples, seed=11)]
        for rank in (0, 1):
            counts = np.bincount([p[rank] for p in picks], minlength=n)
            assert len(counts) == n
            assert chi_square_p(counts) > 1e-4

    def test_random_pick_is_the_links_key_mod_the_person_count(self):
        # link i in text order reads key i; a call asks for at least 16 keys
        s = sample_with_boxes([(0, 0, 10, 10), (20, 0, 30, 10), (40, 0, 50, 10)],
                              link_ids=(9, 3), labels={9: 0, 3: 1}, sample_id="k-0")
        keys = stable_keys(2, ["k-0"], 16)[0]
        assert baseline_random([s], seed=2)[0].chosen == {9: keys[0] % 3, 3: keys[1] % 3}
        assert baseline_random([], seed=2) == []

    def test_unknown_baseline_name(self):
        with pytest.raises(DataError, match="unknown baseline"):
            run_baseline("nope", [])


class TestEvaluate:
    def test_all_correct(self):
        samples = [make_sample(f"e-{i}") for i in range(4)]
        preds = [Prediction(dict(s.labels)) for s in samples]
        assert evaluate(preds, samples)["overall"]["accuracy"] == 1.0

    def test_three_of_four_links(self):
        samples = [make_sample("e-a", tokens=[PersonLink(1), Word("and"), Word("also"),
                                              PersonLink(2)], labels={1: 0, 2: 1}),
                   make_sample("e-b"), make_sample("e-c")]
        preds = [Prediction({1: 0, 2: 1}), Prediction({1: 0}), Prediction({1: 2})]
        report = evaluate(preds, samples)
        assert report["overall"]["total"] == 4
        assert report["overall"]["correct"] == 3
        assert report["overall"]["accuracy"] == 0.75

    def test_per_type_buckets_match_construction(self):
        samples = [make_sample("t-1", ctype=CommonsenseType.CAUSAL),
                   make_sample("t-2", ctype=CommonsenseType.CAUSAL),
                   make_sample("t-3", ctype=CommonsenseType.MENTAL)]
        preds = [Prediction({1: 0}), Prediction({1: 1}), Prediction({1: 0})]
        report = evaluate(preds, samples)
        assert report["by_type"]["causal"]["correct"] == 1
        assert report["by_type"]["causal"]["total"] == 2
        assert report["by_type"]["mental"]["accuracy"] == 1.0

    def test_by_n_buckets(self):
        samples = [make_sample("n-1", n_persons=2), make_sample("n-2", n_persons=5)]
        preds = [Prediction({1: 0}), Prediction({1: 0})]
        report = evaluate(preds, samples)
        assert set(report["by_n"]) == {"2", "5"}

    def test_overall_is_weighted_mean_of_types(self):
        samples = [make_sample(f"w-{i}", ctype=t) for i, t in
                   enumerate([CommonsenseType.CAUSAL] * 3 + [CommonsenseType.SPATIAL] * 2)]
        rng = np.random.default_rng(0)
        preds = [Prediction({1: int(rng.integers(3))}) for _ in samples]
        report = evaluate(preds, samples)
        weighted = sum(b["correct"] for b in report["by_type"].values())
        assert weighted == report["overall"]["correct"]

    def test_missing_prediction_names_sample(self):
        samples = [make_sample("miss-1")]
        with pytest.raises(DataError, match="miss-1"):
            evaluate([Prediction({9: 0})], samples)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            evaluate([], [make_sample("x")])


class TestSynth:
    def test_deterministic(self):
        cfg = SynthConfig(n_samples=50, seed=9)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert len(a) == len(b) == 50
        for x, y in zip(a, b):
            assert x.sample_id == y.sample_id
            assert x.tokens == y.tokens
            assert x.labels == y.labels
            for px, py in zip(x.image.persons, y.image.persons):
                assert px.box == py.box
                assert px.feature.tobytes() == py.feature.tobytes()

    def test_all_samples_pass_filters_and_invariants(self):
        for sample in synth_generate(SynthConfig(n_samples=80, seed=3)):
            sample.validate(strict=True)
            assert filter_sample(sample) is None

    def test_attribute_subset_bayes_decodable(self):
        # reading the attribute one-hot directly solves every attribute sample
        samples = synth_generate(SynthConfig(n_samples=200, seed=4))
        attr_samples = [s for s in samples
                        if s.commonsense_type == CommonsenseType.ATTRIBUTE]
        assert attr_samples
        for s in attr_samples:
            word = s.tokens[3]
            dim = _ATTR_OFFSET + ATTRIBUTES.index(word)
            decoded = int(np.argmax([p.feature[dim] for p in s.image.persons]))
            assert decoded == s.labels[1]

    def test_context_samples_have_a_qualifying_object(self):
        cfg = SynthConfig(n_samples=200, seed=5)
        samples = synth_generate(cfg)
        spatial = [s for s in samples if s.commonsense_type == CommonsenseType.SPATIAL]
        assert spatial
        for s in spatial:
            [(objects, _weights)] = select_context_objects(s)
            assert len(objects) >= 1
            # the described class appears among the qualifying objects
            cue = s.tokens[4]
            classes = {s.image.context_objects[i].class_name for i in objects}
            assert cue in classes

    def test_ground_truth_independent_of_geometry(self):
        # heuristics sit at chance over a large set
        samples = synth_generate(SynthConfig(n_samples=2000, seed=6))
        chance = expected_chance(samples)
        for name in ("big_to_small", "left_to_right", "left_to_right_biggest"):
            report = evaluate(run_baseline(name, samples), samples)
            assert abs(report["overall"]["accuracy"] - chance) < 0.05

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_samples=1, max_persons=1)
        with pytest.raises(ValueError):
            SynthConfig(n_samples=1, d_vis=4)
        for rate in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="imprint_rate must lie in"):
                SynthConfig(n_samples=1, imprint_rate=rate)


def reference_imprint(samples):
    """The pairwise imprint ``synth_generate`` replaced: each (object, person)
    pair of a scene whose IoU exceeds T1 adds ``IMPRINT`` to the person's entry
    of the object's class, in (object, person) order."""
    for sample in samples:
        for obj in sample.image.context_objects:
            column = _CLASS_OFFSET + OBJECT_CLASSES.index(obj.class_name)
            for person in sample.image.persons:
                if iou(obj.box, person.box) > T1:
                    person.feature[column] += IMPRINT
    return samples


def scene_bytes(sample):
    return (json.dumps(sample_to_json(sample)).encode()
            + b"".join(row.tobytes() for row in image_features(sample.image)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("max_persons", [2, 5, 10])
@pytest.mark.parametrize("context_rate", [0.0, 0.5, 1.0])
def test_imprint_is_the_pairwise_imprint(seed, max_persons, context_rate):
    # every scene draws its imprint, so the scenes at any rate are those at
    # rate 0, each with or without the pairwise imprint, byte for byte
    def scenes(imprint_rate):
        return synth_generate(SynthConfig(n_samples=100, seed=seed, max_persons=max_persons,
                                          context_rate=context_rate,
                                          imprint_rate=imprint_rate))
    plain = [scene_bytes(s) for s in scenes(0.0)]
    imprinted = [scene_bytes(s) for s in reference_imprint(scenes(0.0))]
    assert [scene_bytes(s) for s in scenes(1.0)] == imprinted
    half = [scene_bytes(s) for s in scenes(0.5)]
    assert all(h in (p, i) for h, p, i in zip(half, plain, imprinted))
    if context_rate:
        assert any(h == i != p for h, p, i in zip(half, plain, imprinted))
        assert any(h == p != i for h, p, i in zip(half, plain, imprinted))


def reference_place_persons(rng, n):
    """The scalar placement ``_place_persons`` must match: four ``rng.uniform``
    calls per attempt and ``iou(...) == 0.0``; also returns its restart count."""
    for restarts in range(100):
        boxes = []
        for _ in range(n):
            for _attempt in range(200):
                w = float(rng.uniform(80, 150))
                h = float(rng.uniform(100, 180))
                x1 = float(rng.uniform(0, WIDTH - w))
                y1 = float(rng.uniform(0, HEIGHT - h))
                box = BoundingBox(x1, y1, x1 + w, y1 + h)
                if all(iou(box, other) == 0.0 for other in boxes):
                    boxes.append(box)
                    break
            else:
                break
        else:
            return boxes, restarts
    raise AssertionError(f"no placement of {n} boxes")


# synth's fixed (low, high) pairs, then each box side with the canvas extent
# that bounds its corner: the corner draws uniform(0, extent - side)
FIXED_RANGES = [(80, 150), (100, 180), (24, 40), (0.65, 0.85), (-0.05, 0.05), (0.2, 1.0)]
SIDE_RANGES = [((80, 150), WIDTH), ((100, 180), HEIGHT), ((24, 40), WIDTH), ((24, 40), HEIGHT)]


class TestSynthDraws:
    @pytest.mark.parametrize("seed", range(10))
    def test_block_mapping_is_generator_uniform(self, seed):
        ref, block = np.random.default_rng(seed), np.random.default_rng(seed)
        want, got = [], []
        for _ in range(500):
            for low, high in FIXED_RANGES:
                want.append(float(ref.uniform(low, high)))
                got.append(_uniform(block.random(), low, high))
            for (low, high), extent in SIDE_RANGES:
                side = float(ref.uniform(low, high))
                want += [side, float(ref.uniform(0, extent - side))]
                side = _uniform(block.random(), low, high)
                got += [side, _uniform(block.random(), 0, extent - side)]
        assert got == want, ("numpy's Generator.uniform no longer computes low + (high - low)"
                             " * random(): synth's block draws would move dataset bytes")

    @pytest.mark.parametrize("n", range(2, 11))
    def test_placement_is_the_scalar_reference(self, n):
        restarts = 0
        for seed in range(3):
            ref, block = np.random.default_rng(seed), np.random.default_rng(seed)
            for _scene in range(30):
                want, taken = reference_place_persons(ref, n)
                restarts += taken
                assert _place_persons(block, n) == want
                assert block.bit_generator.state == ref.bit_generator.state
        # crowded scenes jam the canvas and start their placement over
        assert (restarts > 0) == (n >= 9)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_interval_disjointness_is_zero_iou(self, data):
        draw = data.draw
        coord = st.one_of(st.integers(-1000, 1000).map(float), st.floats(-1000, 1000))
        # sides of 1e-3 and more: no intersection area underflows to 0.0
        size = st.one_of(st.integers(1, 500).map(float), st.floats(1e-3, 500))

        def interval(lo, hi, relation):
            """An interval standing in ``relation`` to [lo, hi]."""
            s, below = draw(size), draw(st.booleans())
            if relation == "same":
                return lo, hi
            if relation == "inside":
                k1, k2 = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2,
                                              unique=True)))
                return lo + (hi - lo) * k1 / 8, lo + (hi - lo) * k2 / 8
            if relation == "overlap":
                cut = lo + (hi - lo) * draw(st.integers(1, 7)) / 8
                return (lo - s, cut) if below else (cut, hi + s)
            gap = draw(size) if relation == "apart" else 0.0
            return (lo - gap - s, lo - gap) if below else (hi + gap, hi + gap + s)

        x, y, w, h = draw(coord), draw(coord), draw(size), draw(size)
        a = BoundingBox(x, y, x + w, y + h)
        relations = ["apart", "touch", "overlap", "inside", "same"]
        rx, ry = draw(st.sampled_from(relations)), draw(st.sampled_from(relations))
        (bx1, bx2), (by1, by2) = interval(a.x1, a.x2, rx), interval(a.y1, a.y2, ry)
        b = BoundingBox(bx1, by1, bx2, by2)
        apart = {"apart", "touch"} & {rx, ry} != set()
        assert _disjoint(b.x1, b.y1, b.x2, b.y2, [a]) == (iou(b, a) == 0.0) == apart
        assert _disjoint(a.x1, a.y1, a.x2, a.y2, [b]) == (iou(a, b) == 0.0) == apart


class TestRenderTable:
    def _report(self, correct, total):
        samples = [make_sample(f"rt-{i}") for i in range(total)]
        preds = [Prediction({1: 0 if i < correct else 2}) for i in range(total)]
        return evaluate(preds, samples)

    def test_single_row(self):
        lines = render_table("model", self._report(3, 4)).splitlines()
        assert len(lines) == 3
        assert "model" in lines[2] and "0.7500" in lines[2]
