import errno
import logging
import math
import os
import re
import signal
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groundkit import benchkit, numcore as nc
from groundkit.core import (
    BoundingBox,
    CommonsenseType,
    DataError,
    ImageRecord,
    PersonLink,
    Sample,
    Word,
    stable_rng,
)
from groundkit.grounder import (
    GroundingModel,
    ModelConfig,
    TrainSchedule,
    build_vocab,
    make_batches,
    read_config,
    substitute_neutral_names,
    train,
)
from groundkit.grounder import model as model_module, workers
from groundkit.grounder.gradients import gradient_fixture, run_gradient_suite
from groundkit.grounder.io import (CHECKPOINT_NAME, CONFIG_NAME, VOCAB_NAME, load_model,
                                  save_model)
from groundkit.geometry import T1
from groundkit.grounder.model import (
    DEFAULT_NEUTRAL_NAMES,
    SUB_BATCH,
    ContrastSets,
    EncodedBatch,
    PassInputs,
    Prepared,
    classification_logits,
    forward_passes,
    loss_cls,
    loss_con,
    pass_count,
    select_context_objects,
)

from conftest import (first_step_passes, make_object, make_person, make_sample,
                      needs_workers)
from test_geometry import location_row

TOY_CFG = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"


def toy_config(**kw):
    base = dict(d_model=16, n_heads=2, n_layers=2, d_ff=32, d_vis=8,
                contrast_layer=2, tau=1.0, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def toy_model(samples, **kw):
    config = toy_config(**kw)
    return GroundingModel.init(config, build_vocab(samples), dtype=np.float64), config


class TestNameSubstitution:
    def test_deterministic_per_seed_and_sample(self):
        d = [PersonLink(1), Word("waves")]
        a = substitute_neutral_names(d, stable_rng(3, "s-1"), "s-1")
        b = substitute_neutral_names(d, stable_rng(3, "s-1"), "s-1")
        c = substitute_neutral_names(d, stable_rng(4, "s-1"), "s-1")
        assert a == b
        assert a[0][0] in DEFAULT_NEUTRAL_NAMES
        assert a != c or a[0] != c[0]  # another seed draws another name (almost surely)

    def test_distinct_names_without_replacement(self):
        d = [PersonLink(1), Word("meets"), PersonLink(2), Word("near"), PersonLink(3)]
        words, positions = substitute_neutral_names(d, stable_rng(0, "x"), "x")
        names = [words[positions[i]] for i in (1, 2, 3)]
        assert len(set(names)) == 3
        assert sorted(positions) == [1, 2, 3]
        assert positions[1] == 0 and positions[2] == 2 and positions[3] == 4

    def test_repeated_link_reuses_name_and_first_position(self):
        d = [PersonLink(1), Word("wins"), Word("so"), PersonLink(1), Word("smiles")]
        words, positions = substitute_neutral_names(d, stable_rng(0, "x"), "x")
        assert words[0] == words[3]
        assert positions == {1: 0}

    def test_zero_links_identity(self):
        d = [Word("Nothing"), Word("HAPPENS")]
        words, positions = substitute_neutral_names(d, stable_rng(0, "x"), "x")
        assert words == ["nothing", "happens"]
        assert positions == {}

    def test_pool_exhausted(self, monkeypatch):
        monkeypatch.setattr(model_module, "DEFAULT_NEUTRAL_NAMES", ("amy", "bob"))
        d = [PersonLink(i) for i in range(3)]
        with pytest.raises(DataError, match="pool"):
            substitute_neutral_names(d, stable_rng(0, "x"), "x")

    def test_every_pool_name_is_one_lowercase_word(self):
        # a substituted link is one text token, which ``link_positions`` points at
        assert len(set(DEFAULT_NEUTRAL_NAMES)) == len(DEFAULT_NEUTRAL_NAMES)
        for name in DEFAULT_NEUTRAL_NAMES:
            assert name.split() == [name] and name == name.lower() and name.isalpha()


def scene_with_objects(objs, n_persons=3, labels=None):
    """Persons at x = 0..100, 110..210, 220..320; objects as given."""
    persons = [make_person(i, 110 * i, 0, 110 * i + 100, 100) for i in range(n_persons)]
    image = ImageRecord(image_id="img", width=400, height=120, persons=persons,
                        context_objects=objs)
    return Sample(sample_id="scene", image=image,
                  tokens=[PersonLink(1), Word("waves")],
                  labels=labels or {1: 0},
                  commonsense_type=CommonsenseType.OTHER)


class TestSelectContextObjects:
    def test_qualifying_object_included(self):
        # IoU(obj, gt) = 0.5 > 0.3, IoU(obj, others) = 0 < 0.1
        obj = make_object(0, 0, 100, 50, class_name="cup")
        [(objects, weights)] = select_context_objects(scene_with_objects([obj]))
        assert objects == [0]
        np.testing.assert_allclose(weights, [0.5])

    def test_straddling_object_excluded(self):
        # overlaps the gt person (IoU 0.40) but also person 1 (IoU 0.24)
        obj = make_object(40, 0, 150, 100, class_name="bag")
        sample = scene_with_objects([obj])
        gt_iou = 60 * 100 / (100 * 100 + 110 * 100 - 60 * 100)
        assert gt_iou > T1
        [(objects, _weights)] = select_context_objects(sample)
        assert objects == []

    def test_no_qualifying_objects_degenerate(self):
        [(objects, weights)] = select_context_objects(scene_with_objects([]))
        assert objects == []
        assert weights == []

    def test_monotonic_in_thresholds(self, monkeypatch):
        rng = np.random.default_rng(5)
        objs = [make_object(x, y, x + 60, y + 60, seed=i)
                for i, (x, y) in enumerate(rng.uniform(0, 300, (12, 2)))]
        sample = scene_with_objects(objs)
        sizes = {}
        for t1 in (0.1, 0.2, 0.4):
            for t2 in (0.05, 0.2, 0.5):
                monkeypatch.setattr(model_module, "T1", t1)
                monkeypatch.setattr(model_module, "T2", t2)
                [(objects, _weights)] = select_context_objects(sample)
                sizes[(t1, t2)] = len(objects)
        for t2 in (0.05, 0.2, 0.5):
            assert sizes[(0.1, t2)] >= sizes[(0.2, t2)] >= sizes[(0.4, t2)]
        for t1 in (0.1, 0.2, 0.4):
            assert sizes[(t1, 0.5)] >= sizes[(t1, 0.2)] >= sizes[(t1, 0.05)]


def mean_loss_cls(q, labels):
    """``loss_cls`` over every column, each row weighted 1/K."""
    return loss_cls(q, labels, np.ones(q.data.shape, dtype=bool),
                    [1.0 / len(labels)] * len(labels))


class TestLossCls:
    def test_singleton_softmax_is_zero(self):
        q = nc.Tensor(np.array([[3.7]]))
        assert float(mean_loss_cls(q, [0]).data) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_two_way_is_ln2(self):
        q = nc.Tensor(np.array([[1.0, 1.0]]))
        assert float(mean_loss_cls(q, [0]).data) == pytest.approx(math.log(2), abs=1e-9)

    def test_two_row_closed_form(self):
        # rows [2,0] label 0 and [0,1] label 1:
        # (ln(1+e^-2) + ln(1+e^-1)) / 2 = 0.2200948...
        q = nc.Tensor(np.array([[2.0, 0.0], [0.0, 1.0]]))
        expected = (math.log(1 + math.exp(-2)) + math.log(1 + math.exp(-1))) / 2
        assert expected == pytest.approx(0.2200948, abs=1e-6)
        assert float(mean_loss_cls(q, [0, 1]).data) == pytest.approx(expected, abs=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = nc.Tensor(rng.normal(0, 3, (3, 5)))
            labels = rng.integers(0, 5, 3).tolist()
            assert float(mean_loss_cls(q, labels).data) >= 0.0

    def test_masked_padding_columns_change_nothing(self):
        # row 1 has two candidates; its padded third column must not count
        q = np.array([[2.0, 0.0, 0.5], [0.0, 1.0, 9.0]])
        mask = np.array([[True, True, True], [True, True, False]])
        weights = [0.25, 0.75]
        loss = loss_cls(nc.Tensor(q), [0, 1], mask=mask, weights=weights)
        row0 = float(mean_loss_cls(nc.Tensor(q[:1]), [0]).data)
        row1 = float(mean_loss_cls(nc.Tensor(q[1:, :2]), [1]).data)
        assert float(loss.data) == pytest.approx(0.25 * row0 + 0.75 * row1, abs=1e-12)


def fake_sample(link_positions, n_text=0, n_persons=0, length=None, sets=None):
    """One sample's description for ``fake_prepared``: ``n_text`` words, then
    ``n_persons`` persons, then regions up to ``length`` tokens (``n_text +
    n_persons`` by default), with no feature rows.  ``sets`` holds one
    ``(anchor, candidates, IoU weights of the positives)`` per link, in
    positions."""
    return dict(link_positions=link_positions, n_text=n_text, n_persons=n_persons,
                length=n_text + n_persons if length is None else length, sets=sets)


def fake_prepared(*samples):
    """``Prepared`` columns of ``fake_sample`` descriptions, laid out by hand:
    zero word ids and regions, every label 0."""
    def starts(counts):
        return np.cumsum(counts, dtype=np.intp) - counts

    text_len = np.array([x["n_text"] for x in samples], dtype=np.intp)
    lengths = np.array([x["length"] for x in samples], dtype=np.intp)
    n_links = np.array([len(x["link_positions"]) for x in samples], dtype=np.intp)
    links = [(link, x["link_positions"][link]) for x in samples
             for link in sorted(x["link_positions"])]
    sets = None
    if samples[0]["sets"] is not None:
        rows = [row for x in samples for row in x["sets"]]
        counts = np.array([len(c) for _a, c, _w in rows], dtype=np.intp)
        sets = ContrastSets(
            anchors=np.array([a for a, _c, _w in rows], dtype=np.intp),
            n_positives=np.array([len(w) for _a, _c, w in rows], dtype=np.intp),
            starts=starts(counts), counts=counts,
            candidates=np.array([p for _a, c, _w in rows for p in c], dtype=np.intp),
            weights=np.array([v for _a, c, w in rows
                              for v in list(w) + [0.0] * (len(c) - len(w))]))
    n_regions = lengths - text_len
    return Prepared(
        text_start=starts(text_len), text_len=text_len, lengths=lengths,
        n_persons=np.array([x["n_persons"] for x in samples], dtype=np.intp),
        region_start=starts(n_regions), link_start=starts(n_links), n_links=n_links,
        word_ids=np.zeros(text_len.sum(), dtype=np.intp),
        features=np.zeros((n_regions.sum(), 1)), locations=np.zeros((n_regions.sum(), 7)),
        link_ids=np.array([link for link, _p in links], dtype=np.intp),
        link_positions=np.array([p for _link, p in links], dtype=np.intp),
        labels=np.zeros(len(links), dtype=np.intp), sets=sets)


def fake_encoded(feats, *samples):
    """One pass over ``fake_sample`` descriptions whose every hidden layer is
    ``feats`` (``[B, L, d]``, or ``[L, d]`` for one sample)."""
    inputs = fake_prepared(*samples).gather()
    t = nc.Tensor(np.asarray(feats, dtype=np.float64).reshape(inputs.mask.shape + (-1,)))
    return EncodedBatch(sequence=t, inputs=inputs, hidden=[t])


def person_positions(prepared):
    return [list(range(t, t + n)) for t, n in zip(prepared.text_len, prepared.n_persons)]


def object_positions(prepared):
    return [list(range(t + n, length)) for t, n, length
            in zip(prepared.text_len, prepared.n_persons, prepared.lengths)]


def sets_of(prepared, i=0):
    """Sample ``i``'s ``(anchor, candidates, IoU weights of the positives)``
    per link, read from the columns."""
    s = prepared.sets
    return [(int(s.anchors[k]), s.candidates[s.starts[k]:s.starts[k] + s.counts[k]],
             s.weights[s.starts[k]:s.starts[k] + s.n_positives[k]])
            for k in range(prepared.link_start[i], prepared.link_start[i] + prepared.n_links[i])]


def ragged_loss(feats, anchors, candidates, weights, tau):
    """``loss_con`` on one feature state ``feats``, with per-link lists of
    flat candidate rows and of coefficients, padded as a pass's inputs are."""
    counts = np.array([len(c) for c in candidates])
    mask = np.arange(counts.max()) < counts[:, None]
    cols = np.zeros(mask.shape, dtype=np.intp)
    cols[mask] = np.concatenate(candidates)
    coef = np.zeros(mask.shape)
    coef[np.arange(counts.max()) < np.array([len(w) for w in weights])[:, None]] = \
        np.concatenate(weights)
    inputs = SimpleNamespace(anchors=np.array(anchors), candidates=cols, candidate_mask=mask,
                             coef=coef)
    return loss_con(EncodedBatch(sequence=feats, inputs=inputs, hidden=[feats]), tau, 1)


class TestLossCon:
    # ``ragged_loss`` takes the coefficients of the log-softmax terms (0 for
    # negatives); a pass's inputs derive them from the IoU weights.  A
    # sample's sets hold positions: (link token, positives then negatives,
    # IoU weights of the positives)

    def test_uniform_similarities_ln4(self):
        # P = {gt} weight 1, |N| = 3, all similarities equal -> ln 4
        feats = np.ones((5, 4))
        loss = ragged_loss(nc.Tensor(feats), [0], [[1, 2, 3, 4]],
                           [[1.0, 0.0, 0.0, 0.0]], tau=1.0)
        assert float(loss.data) == pytest.approx(math.log(4), abs=1e-9)

    def test_one_positive_one_negative_closed_form(self):
        # s_p = 1, s_n = 0, tau = 1 -> ln(1 + e^-1)
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 7.3]])
        feats[2] = [0.0, 0.0]
        loss = ragged_loss(nc.Tensor(feats), [0], [[1, 2]], [[1.0, 0.0]], tau=1.0)
        assert float(loss.data) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)
        assert float(loss.data) == pytest.approx(0.313262, abs=1e-6)

    def test_weighted_positives_closed_form(self):
        # P = {gt (IoU 1), c (IoU 0.6)}, all sims equal, |N| = 2
        # -> ((1 + 0.6)/2) * ln 4 = 0.8 * ln 4
        # persons at 1, 3, 4, the gt person's object at 2
        encoded = fake_encoded(np.ones((5, 3)), fake_sample(
            {1: 0}, length=5, sets=[(0, [1, 2, 3, 4], [1.0, 0.6])]))
        loss = loss_con(encoded, tau=1.0, contrast_layer=1)
        assert float(loss.data) == pytest.approx(0.8 * math.log(4), abs=1e-9)
        assert float(loss.data) == pytest.approx(1.109035, abs=1e-6)

    def test_tau_to_infinity_limit(self):
        # every log-softmax term goes to -ln(|P| + |N|)
        rng = np.random.default_rng(2)
        feats = rng.normal(0, 0.05, (6, 8))
        weights = np.array([1.0, 0.7, 0.4])
        # persons at 1, 4, 5, the gt person's objects at 2, 3
        encoded = fake_encoded(feats, fake_sample({1: 0}, length=6,
                                                  sets=[(0, [1, 2, 3, 4, 5], weights)]))
        loss = loss_con(encoded, tau=1e6, contrast_layer=1)
        expected = weights.sum() / 3 * math.log(5)
        assert float(loss.data) == pytest.approx(expected, abs=1e-6)

    def test_mean_over_links_then_over_samples(self):
        # all real rows equal, tau = 1: a link's term is mean(IoU weights) *
        # ln(|P| + |N|)
        #   sample 0, link 1: weights [1, 0.6], |N| = 2 -> 0.8 ln 4
        #   sample 0, link 2: weights [1],      |N| = 1 -> ln 2
        #   sample 1, link 1: weights [1, 0.5, 0.3], |N| = 2 -> 0.6 ln 5
        # sample 0: persons at 2, 3, 4, an object at 5; sample 1: persons at
        # 1, 2, 3, objects at 4, 5
        encoded = fake_encoded(
            np.ones((2, 6, 3)),
            fake_sample({1: 0, 2: 1}, n_text=2, n_persons=3, length=6,
                        sets=[(0, [2, 5, 3, 4], [1.0, 0.6]), (1, [3, 2], [1.0])]),
            fake_sample({1: 0}, n_text=1, n_persons=3, length=6,
                        sets=[(0, [3, 4, 5, 1, 2], [1.0, 0.5, 0.3])]))
        loss = loss_con(encoded, tau=1.0, contrast_layer=1)
        expected = ((0.8 * math.log(4) + math.log(2)) / 2 + 0.6 * math.log(5)) / 2
        assert float(loss.data) == pytest.approx(expected, abs=1e-9)
        assert float(loss.data) == pytest.approx(0.933377, abs=1e-6)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
    def test_temperature_must_be_positive(self, tau):
        feats = np.ones((3, 2))
        with pytest.raises(nc.NumericError, match="temperature"):
            ragged_loss(nc.Tensor(feats), [0], [[1, 2]], [[1.0, 0.0]], tau=tau)

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            feats = rng.normal(0, 2, (6, 4))
            loss = ragged_loss(
                nc.Tensor(feats), [0], [[1, 2, 3, 4, 5]],
                [[0.5, rng.uniform(0, 1) / 2, 0.0, 0.0, 0.0]],
                tau=float(rng.uniform(0.1, 5)))
            assert float(loss.data) >= 0.0

    def test_ragged_links_sum_their_terms(self):
        # two links with 4 and 2 candidates in one call: the short one is
        # padded, and the padding must not change its term
        rng = np.random.default_rng(4)
        feats = nc.Tensor(rng.normal(0, 1, (7, 4)))
        both = ragged_loss(feats, [0, 5], [[1, 2, 3, 4], [6, 1]],
                           [[0.5, 0.2, 0.0, 0.0], [1.0, 0.0]], tau=0.5)
        first = ragged_loss(feats, [0], [[1, 2, 3, 4]], [[0.5, 0.2, 0.0, 0.0]], tau=0.5)
        second = ragged_loss(feats, [5], [[6, 1]], [[1.0, 0.0]], tau=0.5)
        assert float(both.data) == pytest.approx(float(first.data) + float(second.data),
                                                 abs=1e-12)


class TestClassificationLogits:
    def test_shape_and_zero_weights(self):
        feats = np.random.default_rng(0).normal(0, 1, (6, 4))
        es = fake_encoded(feats, fake_sample({1: 0, 2: 1}, n_text=2, n_persons=3, length=6))
        q, mask = classification_logits(es, nc.Tensor(np.zeros((4, 4))),
                                         nc.Tensor(np.eye(4)))
        assert q.data.shape == (2, 3)
        assert mask.all()
        np.testing.assert_array_equal(q.data, np.zeros((2, 3)))

    def test_identity_weights_orthonormal_features(self):
        feats = np.zeros((5, 4))
        feats[0, 1] = 1.0   # link feature = e1
        feats[2, 0] = 1.0   # person 0 -> e0
        feats[3, 1] = 1.0   # person 1 -> e1 (matches the link)
        feats[4, 2] = 1.0   # person 2 -> e2
        es = fake_encoded(feats, fake_sample({1: 0}, n_text=2, n_persons=3))
        q, _mask = classification_logits(es, nc.Tensor(np.eye(4)), nc.Tensor(np.eye(4)))
        np.testing.assert_allclose(q.data, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_padded_batch_reads_each_sample_at_its_offset():
    # three samples of different text lengths, person counts and candidate
    # counts in one padded pass, every row (padding included) random: a link
    # or candidate read at another sample's offset gets other features
    samples = [
        # 2 text, persons at 2-4, an object at 5
        fake_sample({1: 0, 2: 1}, n_text=2, n_persons=3, length=6,
                    sets=[(0, [2, 5, 3, 4], [1.0, 0.6]), (1, [3, 2, 4], [1.0])]),
        # 4 text, persons at 4-5
        fake_sample({1: 2}, n_text=4, n_persons=2, length=6, sets=[(2, [5, 4], [1.0])]),
        # 1 text, persons at 1-4, objects at 5, 6
        fake_sample({3: 0}, n_text=1, n_persons=4, length=7,
                    sets=[(0, [2, 5, 6, 1, 3, 4], [1.0, 0.5, 0.3])]),
    ]
    lengths = [6, 6, 7]
    rng = np.random.default_rng(5)
    feats = rng.normal(0, 1, (3, 7, 4))
    w1, w2 = (nc.Tensor(rng.normal(0, 1, (4, 4))) for _ in range(2))
    batch = fake_encoded(feats, *samples)
    assert batch.inputs.mask.tolist() == (np.arange(7) < np.array(lengths)[:, None]).tolist()
    q, mask = classification_logits(batch, w1, w2)
    alone = [fake_encoded(feats[b, :n], sample)
             for b, (sample, n) in enumerate(zip(samples, lengths))]
    expected = [classification_logits(one, w1, w2)[0].data for one in alone]
    assert batch.inputs.link_sample.tolist() == [0, 0, 1, 2]
    for k, (b, row) in enumerate(((0, 0), (0, 1), (1, 0), (2, 0))):
        n = samples[b]["n_persons"]
        assert mask[k].tolist() == [True] * n + [False] * (4 - n)
        np.testing.assert_allclose(q.data[k, :n], expected[b][row], rtol=1e-12)
    # the batch loss is the mean over samples of each sample's own loss
    per_sample = [float(loss_con(one, tau=0.5, contrast_layer=1).data) for one in alone]
    assert float(loss_con(batch, tau=0.5, contrast_layer=1).data) == pytest.approx(
        sum(per_sample) / 3, rel=1e-12)


class TestModelForward:
    def test_sequence_layout(self):
        sample = make_sample("m-1", n_persons=3, n_objects=2)
        model, config = toy_model([sample])
        prepared = model.prepare([sample])
        encoded = model.embed(prepared.gather())
        n_text = int(prepared.text_len[0])
        assert encoded.sequence.data.shape == (1, n_text + 3 + 2, config.d_model)
        assert person_positions(prepared) == [[n_text, n_text + 1, n_text + 2]]
        assert object_positions(prepared) == [[n_text + 3, n_text + 4]]

    def test_no_context_objects_excluded_from_sequence(self):
        sample = make_sample("m-2", n_persons=3, n_objects=2)
        model, config = toy_model([sample], use_context_objects=False)
        prepared = model.prepare([sample])
        encoded = model.embed(prepared.gather())
        assert object_positions(prepared) == [[]]
        assert encoded.sequence.data.shape[1] == prepared.text_len[0] + 3

    @pytest.mark.parametrize("shape", [(7,), (8, 1)])
    def test_prepare_refuses_a_feature_row_of_another_shape(self, shape):
        # the records check no rows: a row built in memory meets its first check here
        sample = make_sample("m-4", n_persons=2)
        model, _ = toy_model([sample])
        sample.image.persons[1].feature = np.zeros(shape, np.float32)
        with pytest.raises(DataError, match=re.escape(
                f"m-4: feature row of shape {shape}, expected d_vis=8")):
            model.prepare([sample])

    def test_hundred_context_objects_all_included(self):
        sample = make_sample("m-3", n_persons=2, n_objects=100)
        model, _ = toy_model([sample])
        prepared = model.prepare([sample])
        model.embed(prepared.gather())
        assert len(object_positions(prepared)[0]) == 100

    def test_contrastive_sets_hold_sequence_positions(self):
        # persons follow the text, the qualifying object (IoU 0.5 with the
        # gt person) follows the persons; without objects in the sequence the
        # gt person is the only positive
        sample = scene_with_objects([make_object(0, 0, 100, 50)])
        for use_objects, positives, weights in ((True, [0, 3], [1.0, 0.5]),
                                                (False, [0], [1.0])):
            model, _config = toy_model([sample], use_context_objects=use_objects)
            prepared = model.prepare([sample], contrast=True)
            n_text = prepared.text_len[0]
            [(anchor, candidates, iou_weights)] = sets_of(prepared)
            assert prepared.link_ids.tolist() == [1]
            assert anchor == prepared.link_positions[0]
            assert candidates.dtype == np.intp
            assert candidates.tolist() == [n_text + j for j in positives + [1, 2]]
            np.testing.assert_allclose(iou_weights, weights)

    def test_contrastive_sets_follow_each_links_ground_truth(self):
        # link 1 is person 0 and link 2 is person 2; object 0 sits on person 0
        # (IoU 0.5) and object 1 on person 2 (IoU 0.8), each clear of the rest
        sample = replace(
            scene_with_objects([make_object(0, 0, 100, 50), make_object(220, 0, 320, 80)]),
            tokens=[PersonLink(1), Word("and"), PersonLink(2), Word("wave")],
            labels={1: 0, 2: 2})
        assert select_context_objects(sample) == [([0], [0.5]), ([1], [0.8])]
        for use_objects, expected in (
                (True, [([0, 3, 1, 2], [1.0, 0.5]), ([2, 4, 0, 1], [1.0, 0.8])]),
                (False, [([0, 1, 2], [1.0]), ([2, 0, 1], [1.0])])):
            model, _config = toy_model([sample], use_context_objects=use_objects)
            prepared = model.prepare([sample], contrast=True)
            n_text = prepared.text_len[0]
            link_positions = dict(zip(prepared.link_ids.tolist(),
                                      prepared.link_positions.tolist()))
            assert [anchor for anchor, _c, _w in sets_of(prepared)] == [
                link_positions[1], link_positions[2]]
            for (_anchor, candidates, iou_weights), (positions, weights) in zip(
                    sets_of(prepared), expected, strict=True):
                assert candidates.tolist() == [n_text + j for j in positions]
                assert iou_weights.dtype == np.float64
                assert iou_weights.tolist() == weights

    def test_lambda_zero_equals_cls_loss(self):
        sample = make_sample("m-4")
        model, config = toy_model([sample], lam=0.0)
        with nc.Graph():
            total = model.batch_loss(model.prepare([sample]).gather())
        encoded = model.forward(model.prepare([sample]).gather())
        q, mask = classification_logits(encoded, model.params["cls.w1"], model.params["cls.w2"])
        labels = [sample.labels[l] for l in encoded.inputs.link_ids.tolist()]
        cls = loss_cls(q, labels, mask=mask, weights=[1.0 / len(labels)] * len(labels))
        assert float(total.data) == float(cls.data)

    def test_loss_total_is_sum_of_parts(self):
        sample = make_sample("m-5")
        model, config = toy_model([sample])
        assert config.lam == 1.0
        inputs = model.prepare([sample], contrast=True).gather()
        total = model.batch_loss(inputs)
        encoded = model.forward(inputs)
        q, mask = classification_logits(encoded, model.params["cls.w1"], model.params["cls.w2"])
        labels = [sample.labels[l] for l in encoded.inputs.link_ids.tolist()]
        cls = loss_cls(q, labels, mask=mask, weights=[1.0 / len(labels)] * len(labels))
        con = loss_con(encoded, config.tau, config.contrast_layer)
        assert float(total.data) == pytest.approx(float(cls.data) + float(con.data),
                                                  abs=1e-9)

    def test_toy_pass_records_26_tape_nodes(self):
        # embed 7 (two gathers, two linears, two layer norms, one scatter), 4
        # per encoder layer, then 11: the classifier's two linears, gather-dot,
        # log-softmax and dot, the contrastive gather-dot, scale, log-softmax
        # and dot, and the weighted sum's scale and add
        from groundkit import benchkit
        samples = benchkit.synth_generate(benchkit.SynthConfig(n_samples=16, seed=5))
        config = read_config(TOY_CFG)[0]
        model = GroundingModel.init(config, build_vocab(samples))
        with nc.Graph() as g:
            model.batch_loss(model.prepare(samples, contrast=True).gather())
        assert len(g.nodes) == 7 + 4 * config.n_layers + 11 == 26

    def test_predict_argmax_and_permutation_consistency(self):
        sample = make_sample("m-6", n_persons=4, labels={1: 2})
        model, config = toy_model([sample])
        pred = model.predict([sample])[0]
        assert set(pred.scores) == {1}
        assert pred.chosen[1] == int(np.argmax(pred.scores[1]))

        # permuting the candidate order permutes scores and the chosen index
        perm = [2, 0, 3, 1]
        persons = [sample.image.persons[j] for j in perm]
        for new_idx, p in enumerate(persons):
            p.index = new_idx
        image = ImageRecord(image_id="img-p", width=sample.image.width,
                            height=sample.image.height, persons=persons,
                            context_objects=sample.image.context_objects)
        permuted = Sample(sample_id=sample.sample_id, image=image,
                          tokens=sample.tokens,
                          labels={1: perm.index(2)},
                          commonsense_type=sample.commonsense_type)
        pred_p = model.predict([permuted])[0]
        np.testing.assert_allclose(pred_p.scores[1], pred.scores[1][perm], atol=1e-8)
        assert perm[pred_p.chosen[1]] == pred.chosen[1]

    @pytest.mark.parametrize("classifier", ["trained", "zero"])
    def test_predict_chooses_each_links_first_maximum(self, classifier):
        # persons 2 to 5 per sample, so most passes pad their score columns;
        # a zero classifier ties every score at 0, where the lowest index wins
        samples = benchkit.synth_generate(benchkit.SynthConfig(n_samples=40, seed=3))
        model = GroundingModel.init(read_config(TOY_CFG)[0], build_vocab(samples))
        if classifier == "zero":
            model.params["cls.w1"].data[...] = 0.0
        predictions = model.predict(samples)
        assert [sorted(p.chosen) for p in predictions] == [sorted(s.link_ids) for s in samples]
        for pred, sample in zip(predictions, samples):
            for link, scores in pred.scores.items():
                assert len(scores) == sample.image.n_persons
                assert pred.chosen[link] == int(np.argmax(scores))
                if classifier == "zero":
                    assert pred.chosen[link] == 0


# the configurations whose gradients must check out: the full loss, the
# classification loss alone, objects dropped from the input
GRADIENT_VARIANTS = {
    "full": {},
    "lambda0": {"lam": 0.0},
    "no_context_objects": {"use_context_objects": False},
}


def rescaled_model(samples, **kw):
    """float64 toy model with weights x10, so gradients clear finite-difference noise."""
    model, config = toy_model(samples, d_vis=24, **kw)
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data = p.data * 10.0
    return model, config


class TestGradientsThroughModel:
    # one padded batch of scenes that differ in text length, person count,
    # object count and link count
    fixture = gradient_fixture(d_vis=24, seed=12)

    def test_fixture_pads_unevenly(self):
        lengths = {len(s.tokens) for s in self.fixture}
        persons = {s.image.n_persons for s in self.fixture}
        objects = {len(s.image.context_objects) for s in self.fixture}
        assert len(self.fixture) >= 3
        assert len(lengths) > 1 and len(persons) == 3 and len(objects) == 3
        assert max(len(s.labels) for s in self.fixture) == 2

    def test_full_loss_gradient_matches_finite_differences(self):
        model, _config = rescaled_model(self.fixture)
        inputs = model.prepare(self.fixture, contrast=True).gather()
        err = nc.grad_check(lambda: model.batch_loss(inputs), model.params,
                            epsilon=1e-5, max_entries_per_param=10,
                            rng=np.random.default_rng(0)).max_rel_error
        assert err < 1e-4

    @pytest.mark.parametrize("variant", sorted(GRADIENT_VARIANTS))
    def test_gradient_suite_per_variant(self, variant):
        report = run_gradient_suite(toy_config(d_vis=24, **GRADIENT_VARIANTS[variant]))
        assert set(report["max_rel_error"]) == {"cls", "con", "total"}
        for kind, err in report["max_rel_error"].items():
            assert err < 1e-4, kind


@st.composite
def tiny_configs(draw):
    """Small model configs: 1, 2 or 4 heads of width 1 to 4, up to 3 layers."""
    n_heads = draw(st.sampled_from([1, 2, 4]))
    n_layers = draw(st.integers(1, 3))
    return ModelConfig(
        d_model=n_heads * draw(st.integers(1 if n_heads > 1 else 2, 4)), n_heads=n_heads,
        n_layers=n_layers, d_ff=draw(st.integers(1, 16)), d_vis=benchkit.MIN_D_VIS,
        contrast_layer=draw(st.integers(1, n_layers)), tau=draw(st.floats(0.05, 2.0)),
        lam=draw(st.floats(0.0, 2.0)), use_context_objects=draw(st.booleans()),
        seed=draw(st.integers(0, 3)))


# each example runs the whole gradient suite, about half a second
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=tiny_configs())
def test_gradient_suite_passes_on_tiny_configs(config):
    report = run_gradient_suite(config)
    assert max(report["max_rel_error"].values()) < report["threshold"], config


class TestBatching:
    def _model(self, samples):
        config = toy_config(d_vis=24)
        return GroundingModel.init(config, build_vocab(samples), dtype=np.float32)

    def test_scores_alone_and_in_padded_batch_agree(self):
        # enough samples for two forward passes, so the split is covered
        # too; float64 keeps the rounding of the two summation orders far
        # below the tolerance, which anything leaking through padding is not
        from groundkit import benchkit
        samples = gradient_fixture(d_vis=24, seed=3) + benchkit.synth_generate(
            benchkit.SynthConfig(n_samples=2 * SUB_BATCH, max_persons=6, d_vis=24, seed=4))
        model, _config = rescaled_model(samples)
        batched = model.predict(samples)
        assert len(batched) == len(samples)
        for sample, pred in zip(samples, batched):
            alone = model.predict([sample])[0]
            assert set(alone.scores) == set(pred.scores) == set(sample.labels)
            for link, vec in alone.scores.items():
                assert vec.shape == (sample.image.n_persons,)
                np.testing.assert_allclose(pred.scores[link], vec, rtol=0, atol=1e-6)
            assert pred.chosen == alone.chosen

    # one pass below 1.5 SUB_BATCH samples, two from there
    @pytest.mark.parametrize("n, n_passes", [
        (SUB_BATCH // 4, 1), (3 * SUB_BATCH // 2 - 1, 1), (3 * SUB_BATCH // 2, 2),
        (4 * SUB_BATCH + 1, 4)])
    def test_forward_passes_sort_and_cut_evenly(self, n, n_passes):
        from groundkit import benchkit
        samples = benchkit.synth_generate(
            benchkit.SynthConfig(n_samples=n, max_persons=6, d_vis=24, seed=6))
        lengths = self._model(samples).prepare(samples).lengths
        passes = forward_passes(lengths)
        assert len(passes) == n_passes
        assert_even_token_cut(passes, lengths.tolist())
        assert forward_passes([]) == []

    def test_predict_returns_input_order(self):
        from groundkit import benchkit
        samples = benchkit.synth_generate(
            benchkit.SynthConfig(n_samples=2 * SUB_BATCH + 5, max_persons=6, d_vis=24, seed=7))
        model = self._model(samples)
        forward = model.predict(samples)
        backward = model.predict(samples[::-1])[::-1]
        for a, b in zip(forward, backward, strict=True):
            assert a.chosen == b.chosen
            assert set(a.scores) == set(b.scores)
            for link, vec in a.scores.items():
                np.testing.assert_allclose(b.scores[link], vec, rtol=1e-5, atol=1e-6)

    def test_predict_of_no_samples_runs_no_pass(self, monkeypatch):
        model = self._model([make_sample("e-0")])
        monkeypatch.setattr(model, "forward", lambda inputs: pytest.fail("forward ran"))
        assert model.predict([]) == []

    def test_batch_loss_is_mean_of_single_losses(self):
        samples = gradient_fixture(d_vis=24, seed=5)
        model = self._model(samples)
        batch = float(model.batch_loss(model.prepare(samples, contrast=True).gather()).data)
        singles = [float(model.batch_loss(model.prepare([s], contrast=True).gather()).data)
                   for s in samples]
        assert batch == pytest.approx(sum(singles) / len(singles), rel=1e-5)


def assert_even_token_cut(passes, lengths):
    """``passes`` cut all of ``lengths``' positions, sorted by ``(length,
    position)``, into ``pass_count`` non-empty passes, each within one
    longest length of an equal share of the tokens."""
    n, k = len(lengths), len(passes)
    assert k == pass_count(n) and all(len(positions) for positions in passes)
    assert [i for positions in passes for i in positions] == \
           sorted(range(n), key=lambda i: (lengths[i], i))
    total, longest = sum(lengths), max(lengths)
    for positions in passes:
        assert abs(k * sum(lengths[i] for i in positions) - total) <= k * longest


# ``long`` puts a few sequences, up to many times a pass's share of the
# tokens, at the end of the sort, where no cut can balance them
@settings(max_examples=200, deadline=None)
@given(short=st.integers(1, 6 * SUB_BATCH).flatmap(
           lambda n: st.lists(st.integers(1, 40), min_size=n, max_size=n)),
       long=st.lists(st.integers(41, 100_000), max_size=4))
def test_forward_passes_cut_at_equal_token_counts(short, long):
    lengths = short + long
    assert_even_token_cut(forward_passes(np.array(lengths)), lengths)


class TestPreparedLayouts:
    def test_each_sample_prepared_once_per_train_call(self, monkeypatch):
        calls = Counter()
        for name in ("substitute_neutral_names", "select_context_objects"):
            def counted(*args, _real=getattr(model_module, name), _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)
            monkeypatch.setattr(model_module, name, counted)
        samples = [make_sample(f"c-{i}", n_persons=2 + i % 3) for i in range(6)]
        for steps in (1, 5):
            calls.clear()
            # about two samples per step, so five steps revisit samples
            result = train(samples, toy_config(d_vis=8),
                           TrainSchedule(steps=steps, lr=1e-3, token_budget=16))
            assert len(result.losses) == steps
            assert calls == {"substitute_neutral_names": 6, "select_context_objects": 6}

    def test_forward_backward_leaves_each_layout_unchanged(self):
        samples = gradient_fixture(d_vis=24, seed=3)
        config = toy_config(d_vis=24)
        model = GroundingModel.init(config, build_vocab(samples), dtype=np.float32)
        prepared = model.prepare(samples, contrast=True)
        with nc.Graph() as graph:
            loss = model.batch_loss(prepared.gather())
            graph.backward(loss)
        # the used columns must still equal freshly prepared ones
        fresh = model.prepare(samples, contrast=True)
        assert float(loss.data) == float(model.batch_loss(fresh.gather()).data)
        used, new = model.embed(prepared.gather()), model.embed(fresh.gather())
        assert used.sequence.data.tobytes() == new.sequence.data.tobytes()
        assert used.inputs.mask.tobytes() == new.inputs.mask.tobytes()
        assert (prepared.link_positions.tolist(), person_positions(prepared),
                object_positions(prepared)) == \
               (fresh.link_positions.tolist(), person_positions(fresh),
                object_positions(fresh))
        assert prepared.word_ids.tolist() == fresh.word_ids.tolist()
        for name in ContrastSets.__dataclass_fields__:
            assert getattr(prepared.sets, name).tobytes() == getattr(fresh.sets, name).tobytes()

    def test_contrastive_loss_needs_prepared_sets(self):
        samples = [make_sample("n-0")]
        model, _config = toy_model(samples)
        with pytest.raises(ValueError, match="contrast=True"):
            model.batch_loss(model.prepare(samples).gather())
        assert model.loss_terms(model.prepare(samples).gather())[1] is None
        model, _config = toy_model(samples, lam=0.0)
        model.batch_loss(model.prepare(samples).gather())

    def test_too_long_text_fails_before_first_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(nc, "optimizer_step", lambda *a, **kw: steps.append(kw))
        samples = [make_sample(f"l-{i}") for i in range(6)]
        samples.append(make_sample("l-long", tokens=[PersonLink(1)] + [Word("very")] * 64))
        with pytest.raises(DataError, match="l-long: 65 text tokens exceed max_text_len 64"):
            train(samples, toy_config(d_vis=8),
                  TrainSchedule(steps=5, lr=1e-3, token_budget=16))
        assert steps == []


class TestRegionBlock:
    # prepare lays out the regions of all its samples in one feature block
    # and one location_feature call; each sample's rows start at its offset

    @staticmethod
    def samples():
        return [make_sample(f"r-{i}", n_persons=2 + i % 3, n_objects=i % 4,
                            width=300 + 100 * i, height=200 + 7 * i) for i in range(5)]

    def test_a_bad_row_names_the_first_sample_that_holds_one(self):
        samples = self.samples()
        model, _ = toy_model(samples)
        samples[2].image.context_objects[1].feature = np.zeros(9, np.float32)
        samples[3].image.persons[0].feature = np.zeros(7, np.float32)
        with pytest.raises(DataError) as raised:
            model.prepare(samples)
        assert str(raised.value) == "r-2: feature row of shape (9,), expected d_vis=8"

    def test_prepare_of_no_samples_is_empty(self):
        model, _ = toy_model(self.samples())
        for contrast in (False, True):
            assert len(model.prepare([], contrast=contrast).lengths) == 0

    @pytest.mark.parametrize("use_objects", [True, False])
    def test_layouts_hold_views_of_one_block_of_their_regions(self, use_objects):
        samples = self.samples()
        model, _ = toy_model(samples, use_context_objects=use_objects)
        prepared = model.prepare(samples)
        block = prepared.features
        for i, sample in enumerate(samples):
            image = sample.image
            regions = image.persons + (image.context_objects if use_objects else [])
            mine = slice(prepared.region_start[i], prepared.region_start[i] + len(regions))
            assert prepared.lengths[i] - prepared.text_len[i] == len(regions)
            assert prepared.locations[mine].shape == (len(regions), 7)
            rows = np.array([r.feature for r in regions], dtype=np.float64)  # the model's dtype
            assert block[mine].tobytes() == rows.tobytes()
            want = [location_row(r.box, image.width, image.height) for r in regions]
            assert prepared.locations[mine].tobytes() == np.array(want).tobytes()
        n_regions = sum(s.image.n_persons + use_objects * len(s.image.context_objects)
                        for s in samples)
        assert block.shape == (n_regions, 8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_carry_the_parameters_dtype(self, dtype):
        samples = gradient_fixture(d_vis=24, seed=5)  # the gradient suite's batch
        model = GroundingModel.init(toy_config(d_vis=24), build_vocab(samples), dtype=dtype)
        prepared = model.prepare(samples, contrast=True)
        assert prepared.features.dtype == prepared.locations.dtype == dtype
        assert model.embed(model.prepare(samples).gather()).sequence.data.dtype == dtype


def link_order_sample(d_vis=8):
    """A scene whose text names link 2 before link 1, so that text order (the
    contrastive sets') and link-id order (the classifier's) differ; an object
    sits on link 2's person (persons as in ``scene_with_objects``)."""
    persons = [make_person(i, 110 * i, 0, 110 * i + 100, 100, d_vis=d_vis) for i in range(3)]
    image = ImageRecord(image_id="img-link-order", width=400, height=120, persons=persons,
                        context_objects=[make_object(220, 0, 320, 80, d_vis=d_vis)])
    return Sample(sample_id="link-order", image=image,
                  tokens=[PersonLink(2), Word("thanks"), PersonLink(1), Word("twice")],
                  labels={1: 0, 2: 2}, commonsense_type=CommonsenseType.OTHER)


def reference_inputs(model, samples, contrast):
    """One pass's inputs over ``samples``, in that order, built sample by
    sample and link by link as the model once built them from per-sample
    layouts."""
    cfg = model.config
    B = len(samples)
    laid = []
    for s in samples:
        words, positions = substitute_neutral_names(s.tokens, stable_rng(cfg.seed, s.sample_id),
                                                    s.sample_id)
        regions = s.image.persons + (s.image.context_objects if cfg.use_context_objects
                                     else [])
        laid.append((words, positions, regions))
    L = max(len(words) + len(regions) for words, _p, regions in laid)
    N = max(s.image.n_persons for s in samples)
    mask = np.zeros((B, L), dtype=bool)
    word_ids, text_positions, text_rows, region_rows, features, locations = [], [], [], [], [], []
    link_sample, link_ids, link_rows, person_rows, person_mask, labels, link_weights = \
        [], [], [], [], [], [], []
    anchors, candidates, coef = [], [], []
    for b, (s, (words, positions, regions)) in enumerate(zip(samples, laid)):
        n_text, n = len(words), s.image.n_persons
        mask[b, :n_text + len(regions)] = True
        for p, word in enumerate(words):
            word_ids.append(model.vocab.get(word, 0))
            text_positions.append(p)
            text_rows.append(b * L + p)
        for j, region in enumerate(regions):
            region_rows.append(b * L + n_text + j)
            features.append(region.feature)
            locations.append(location_row(region.box, s.image.width, s.image.height))
        for link in sorted(positions):
            link_sample.append(b)
            link_ids.append(link)
            link_rows.append(b * L + positions[link])
            person_rows.append([b * L + n_text + j if j < n else 0 for j in range(N)])
            person_mask.append([j < n for j in range(N)])
            labels.append(s.labels[link])
            link_weights.append(1.0 / (B * len(positions)))
        if contrast:
            for link, (objects, ious) in zip(s.link_ids, select_context_objects(s)):
                kept = objects if cfg.use_context_objects else []
                gt = s.labels[link]
                order = [gt] + [n + c for c in kept] + [j for j in range(n) if j != gt]
                iou_weights = np.array([1.0] + ious[:len(kept)])
                anchors.append(b * L + positions[link])
                candidates.append([b * L + n_text + j for j in order])
                coef.append(iou_weights * (1.0 / (len(iou_weights) * len(s.link_ids) * B)))
    if contrast:
        C = max(len(c) for c in candidates)
        candidate_mask = np.array([[k < len(c) for k in range(C)] for c in candidates])
        candidates = np.array([c + [0] * (C - len(c)) for c in candidates], dtype=np.intp)
        coef = np.array([list(w) + [0.0] * (C - len(w)) for w in coef])
    dtype = model.params["embed.feat.w"].data.dtype
    return PassInputs(
        mask=mask, word_ids=np.array(word_ids, dtype=np.intp),
        text_positions=np.array(text_positions, dtype=np.intp),
        token_rows=np.array(text_rows + region_rows, dtype=np.intp),
        features=np.array(features, dtype=dtype), locations=np.array(locations, dtype=dtype),
        link_sample=np.array(link_sample, dtype=np.intp),
        link_ids=np.array(link_ids, dtype=np.intp), link_rows=np.array(link_rows, dtype=np.intp),
        person_rows=np.array(person_rows, dtype=np.intp), person_mask=np.array(person_mask),
        labels=np.array(labels, dtype=np.intp), link_weights=np.array(link_weights),
        anchors=np.array(anchors, dtype=np.intp) if contrast else None,
        candidates=candidates if contrast else None,
        candidate_mask=candidate_mask if contrast else None, coef=coef if contrast else None)


class TestColumnGathers:
    # a pass gathers all its inputs from the prepared columns with array
    # operations; a per-sample reference must give the same arrays, bit for bit

    @staticmethod
    def samples():
        return gradient_fixture(d_vis=24, seed=12) + [link_order_sample(d_vis=24)]

    def assert_same_inputs(self, model, samples, order, contrast):
        prepared = model.prepare(samples, contrast=contrast)
        got = prepared.gather(order)
        want = reference_inputs(model, [samples[i] for i in order], contrast)
        for name in PassInputs.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None, name
                continue
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("contrast", [True, False])
    @pytest.mark.parametrize("use_objects", [True, False])
    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 1, 0], [2], [3]])
    def test_columns_gather_what_a_per_sample_reference_builds(self, contrast, use_objects,
                                                               order):
        samples = self.samples()
        model, _config = toy_model(samples, d_vis=24, use_context_objects=use_objects)
        self.assert_same_inputs(model, samples, order, contrast)

    def test_the_two_link_orders(self):
        # the classifier's rows run by link id, the contrastive sets by text
        sample = link_order_sample()
        assert sample.link_ids == [2, 1]
        model, _config = toy_model([sample])
        inputs = model.prepare([sample], contrast=True).gather()
        assert inputs.link_ids.tolist() == [1, 2]
        assert inputs.labels.tolist() == [0, 2]
        # link 2's name is the first word, link 1's the third
        assert inputs.link_rows.tolist() == [2, 0]
        assert inputs.anchors.tolist() == [0, 2]
        n_text = 4
        assert inputs.candidates[0].tolist() == [n_text + 2, n_text + 3, n_text + 0, n_text + 1]
        assert inputs.candidate_mask[1].tolist() == [True, True, True, False]
        assert inputs.coef[1, 0] == 1.0 / (1 * 2 * 1)


class TestTrainingLoop:
    def test_build_vocab_sorted_with_unk(self):
        samples = [make_sample("v-1", tokens=[PersonLink(1), Word("Zebra"), Word("apple")])]
        vocab = build_vocab(samples)
        assert vocab["<unk>"] == 0
        assert list(vocab) == sorted(vocab, key=vocab.get)
        assert {"zebra", "apple", "mary", "james"} <= set(vocab)

    def test_token_budget_batching(self):
        lengths = [40] * 10
        batches = make_batches(list(range(10)), lengths, token_budget=100)
        assert [len(b) for b in batches] == [2, 2, 2, 2, 2]
        # a single oversize sample still forms a batch
        batches = make_batches([0], [500], token_budget=100)
        assert batches == [[0]]

    def test_budget_matches_expected_batch_size(self):
        # ~40-token samples with a 4000-token budget -> ~100 per batch
        lengths = [40] * 300
        batches = make_batches(list(range(300)), lengths, token_budget=4000)
        assert all(len(b) == 100 for b in batches)

    def test_deterministic_training_bitwise(self):
        samples = [make_sample(f"t-{i}", n_persons=2 + i % 2) for i in range(6)]
        config = toy_config(d_vis=8)
        sched = TrainSchedule(steps=4, lr=1e-3, token_budget=200, weight_decay=0.01)
        r1 = train(samples, config, sched)
        r2 = train(samples, config, sched)
        assert r1.losses == r2.losses
        for name in r1.model.params:
            assert r1.model.params[name].data.tobytes() == \
                   r2.model.params[name].data.tobytes()

    @staticmethod
    def _one_step_peak(n_samples):
        """tracemalloc's peak over one toy-config step on one batch of ``n_samples``."""
        from groundkit import benchkit
        samples = benchkit.synth_generate(benchkit.SynthConfig(n_samples=n_samples, seed=5))
        config = read_config(TOY_CFG)[0]
        sched = TrainSchedule(steps=1, lr=5e-4, token_budget=100_000)
        # a process's first fork imports this; imported inside the traced
        # step it would count toward the peak of the first caller only
        import multiprocessing.connection  # noqa: F401
        tracemalloc.start()
        try:
            result = train(samples, config, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.losses) == 1
        return peak

    def test_step_memory_peak_under_4mb(self):
        # one optimizer step on a 64-sample batch of the toy config: the
        # sub-batched tape, freed as backward runs, keeps the peak small
        assert self._one_step_peak(64) < 4 * 2**20

    def test_largest_pass_memory_peak_under_6mb(self):
        # the most samples forward_passes leaves in one pass: 5.2 MB measured
        # with numpy 2.4, at SUB_BATCH 32
        n = 3 * SUB_BATCH // 2 - 1
        assert pass_count(n) == 1 < pass_count(n + 1)
        assert self._one_step_peak(n) < 6 * 2**20

    def test_step_gradient_is_that_of_the_batch_mean_loss(self, monkeypatch):
        self.check_step_gradient(monkeypatch)

    @needs_workers
    def test_step_gradient_of_passes_in_two_processes(self, monkeypatch):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        self.check_step_gradient(monkeypatch)

    @staticmethod
    def check_step_gradient(monkeypatch):
        # one batch that forward_passes cuts into two passes: the gradients
        # they accumulate are those of one pass over the batch
        samples = benchkit.synth_generate(
            benchkit.SynthConfig(n_samples=2 * SUB_BATCH, seed=5))
        config = read_config(TOY_CFG)[0]
        grads = {}
        monkeypatch.setattr(nc, "optimizer_step", lambda state, grad, **kw: grads.update(
            {name: grad[start:end].copy()
             for name, start, end in zip(state.names, [0] + state.ends, state.ends)}))
        train(samples, config, TrainSchedule(steps=1, lr=5e-4, token_budget=100_000))

        model = GroundingModel.init(config, build_vocab(samples), dtype=np.float32)
        prepared = model.prepare(samples, contrast=True)
        assert len(forward_passes(prepared.lengths)) == 2
        with nc.Graph() as graph:
            graph.backward(model.batch_loss(prepared.gather()))
        assert grads.keys() == model.params.keys()
        for name, p in model.params.items():
            np.testing.assert_allclose(grads[name], p.grad.reshape(-1), rtol=1e-4,
                                       atol=1e-6, err_msg=name)

    def test_overfit_single_sample(self):
        sample = make_sample("o-1", n_persons=3)
        config = toy_config(d_vis=8)
        sched = TrainSchedule(steps=200, lr=3e-3, token_budget=64, weight_decay=0.0)
        result = train([sample], replace(config, lam=0.0), sched)
        assert result.losses[-1] < result.losses[0]
        assert result.losses[-1] < 0.1


class TestNumericFailures:
    """A pass is checked once, at its loss or its scores; a failing pass runs
    again with the per-op checks on, and the error names the op, the part of
    the model, the training step and the pass's samples."""

    @staticmethod
    def _samples(n=8):
        return [make_sample(f"f-{i}", n_persons=2 + i % 3) for i in range(n)]

    @staticmethod
    def _passes(message):
        """The sample ids a NumericError names."""
        return message.split("pass over samples ", 1)[1].split(", ")

    def test_nan_feature_row_names_step_sample_and_embed(self):
        samples = self._samples()
        samples[6].image.persons[1].feature[3] = np.nan       # past the reader
        steps = []
        with pytest.raises(nc.NumericError) as info:
            train(samples, toy_config(d_vis=8), TrainSchedule(steps=8, lr=1e-3, token_budget=16),
                  on_step=lambda step, loss: steps.append(step))
        assert steps, "the poisoned sample should not be in the first step"
        message = str(info.value)
        assert message.startswith("non-finite value produced by tensor init in embed in "
                                  f"step {len(steps)}, pass over samples ")
        assert "f-6" in self._passes(message)

    @pytest.mark.parametrize("name, op", [("enc.layer0.attn.wq", "linear"),
                                          ("enc.layer1.ln1.gain", "layer_norm"),
                                          ("enc.layer1.ffn.w2", "linear")])
    def test_nan_encoder_parameter_names_layer_and_op(self, monkeypatch, name, op):
        init = GroundingModel.init

        def poisoned(config, vocab, dtype):
            model = init(config, vocab, dtype=dtype)
            model.params[name].data.flat[0] = np.nan
            return model

        monkeypatch.setattr(GroundingModel, "init", staticmethod(poisoned))
        samples = self._samples()
        with pytest.raises(nc.NumericError) as info:
            train(samples, toy_config(d_vis=8), TrainSchedule(steps=2, lr=1e-3))
        layer = name.rsplit(".", 2)[0]
        assert str(info.value).startswith(
            f"non-finite value produced by {op} in {layer} in step 0, pass over samples ")
        assert sorted(self._passes(str(info.value))) == sorted(s.sample_id for s in samples)

    def test_non_finite_gradient_names_parameter_and_step(self, monkeypatch):
        step = nc.optimizer_step
        calls = []

        def poisoned(state, grad, **kw):
            calls.append(None)
            if len(calls) == 3:
                i = state.names.index("cls.w1")
                grad[([0] + state.ends)[i]:state.ends[i]] = np.inf
            step(state, grad, **kw)

        monkeypatch.setattr(nc, "optimizer_step", poisoned)
        with pytest.raises(nc.NumericError,
                           match=r"^non-finite gradient for parameter 'cls\.w1' in step 2$"):
            train(self._samples(), toy_config(d_vis=8),
                  TrainSchedule(steps=4, lr=1e-3, token_budget=16))

    def test_predict_names_the_pass_of_a_poisoned_sample(self):
        samples = self._samples(2 * SUB_BATCH)
        model, _config = toy_model(samples)
        passes = [[samples[i].sample_id for i in positions]
                  for positions in forward_passes(model.prepare(samples).lengths)]
        assert len(passes) == 2
        samples[17].image.context_objects[0].feature[0] = np.inf
        with pytest.raises(nc.NumericError) as info:
            model.predict(samples)
        assert str(info.value).startswith(
            "non-finite value produced by tensor init in embed in the pass over samples ")
        assert self._passes(str(info.value)) == next(p for p in passes if "f-17" in p)

    @pytest.mark.parametrize("name, op, where", [
        ("embed.word", "gather_rows", "embed"),
        ("enc.layer1.attn.wv", "linear", "enc.layer1"),
        ("cls.w2", "linear", "classification_logits")])
    def test_predict_replays_a_non_finite_pass(self, name, op, where):
        samples = self._samples()
        model, _config = toy_model(samples)
        model.params[name].data[...] = np.nan
        with pytest.raises(nc.NumericError) as info:
            model.predict(samples)
        assert str(info.value).startswith(
            f"non-finite value produced by {op} in {where} in the pass over samples ")
        assert sorted(self._passes(str(info.value))) == sorted(s.sample_id for s in samples)

    def test_deferred_checks_change_no_value(self):
        samples = gradient_fixture(d_vis=24, seed=3)
        model = GroundingModel.init(toy_config(d_vis=24), build_vocab(samples), np.float32)
        inputs = model.prepare(samples, contrast=True).gather()
        checked = model.batch_loss(inputs).data
        with nc.deferred_checks():
            deferred = model.batch_loss(inputs).data
        assert deferred.tobytes() == checked.tobytes()


# a budget that takes every sample into one step, so that the 4 SUB_BATCH - 8
# samples of the pool tests make four passes a step
FOUR_PASS_BUDGET = 100_000


@needs_workers
class TestPassWorkers:
    """A step's passes run in forked workers; the process count changes no
    byte of a run and no error message, and no worker outlives ``train``."""

    @staticmethod
    def run(monkeypatch, processes, samples, steps=3, on_step=None, forks=None,
            token_budget=FOUR_PASS_BUDGET):
        monkeypatch.setattr(workers, "usable_cpus", lambda: processes)
        forks = [] if forks is None else forks
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
        config, schedule = read_config(TOY_CFG)
        try:
            return train(samples, config,
                         replace(schedule, steps=steps, token_budget=token_budget),
                         on_step=on_step)
        finally:
            assert len(forks) == processes - 1
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def samples():
        samples = benchkit.synth_generate(
            benchkit.SynthConfig(n_samples=4 * SUB_BATCH - 8, seed=3))
        assert len(first_step_passes(samples, TOY_CFG, FOUR_PASS_BUDGET)) == 4
        return samples

    def test_one_two_and_three_processes_train_the_same_bytes(self, monkeypatch):
        samples = self.samples()
        runs = [self.run(monkeypatch, n, samples) for n in (1, 2, 3)]
        for result in runs[1:]:
            assert result.losses == runs[0].losses
            assert nc.checkpoint_bytes(result.model.params) == \
                   nc.checkpoint_bytes(runs[0].model.params)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_no_parameter_keeps_a_gradient_after_train(self, monkeypatch, processes):
        result = self.run(monkeypatch, processes, self.samples(), steps=2)
        assert all(p.grad is None for p in result.model.params.values())

    # two passes of step 0 fail.  (0, 1): the calling process's first pass
    # fails first.  (1, 2): with two processes the first runs in the worker
    # and the second here, with three each in its own worker.  (2, 3): with
    # two processes pass 3 is the worker's second pass, run after a go-ahead,
    # and pass 2 the calling process's second
    @pytest.mark.parametrize("failing", [(0, 1), (1, 2), (2, 3)], ids=["0-1", "1-2", "2-3"])
    def test_lowest_failing_pass_names_the_error_in_any_process(self, monkeypatch, failing):
        samples = self.samples()
        passes = first_step_passes(samples, TOY_CFG, FOUR_PASS_BUDGET)
        for i in failing:
            samples[passes[i][0]].image.persons[0].feature[5] = 3e38
        messages = []
        for n in (1, 2, 3):
            with pytest.raises(nc.NumericError) as info:
                self.run(monkeypatch, n, samples)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == messages[2]
        prefix = "non-finite value produced by layer_norm in embed in step 0, pass over samples "
        assert messages[0] == prefix + ", ".join(samples[i].sample_id
                                                 for i in passes[failing[0]])

    @pytest.mark.parametrize("token_budget", [None, FOUR_PASS_BUDGET], ids=["toy", "four-pass"])
    def test_the_pool_holds_one_gradient_slot_per_process(self, monkeypatch, token_budget):
        # the toy budget's steps have two passes, FOUR_PASS_BUDGET's four
        samples = self.samples()
        config, schedule = read_config(TOY_CFG)
        token_budget = token_budget or schedule.token_budget
        shapes, shared_array = [], nc.shared_array
        monkeypatch.setattr(nc, "shared_array",
                            lambda shape, dtype: shapes.append(shape) or shared_array(shape, dtype))
        result = self.run(monkeypatch, 2, samples, steps=1, token_budget=token_budget)
        assert shapes == [(2, sum(p.data.size for p in result.model.params.values()))]

    @staticmethod
    def assert_same_run(result, alone):
        assert result.losses == alone.losses
        assert nc.checkpoint_bytes(result.model.params) == \
               nc.checkpoint_bytes(alone.model.params)

    @staticmethod
    def warnings(caplog):
        return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]

    def test_a_killed_worker_leaves_its_passes_here_and_every_byte(self, monkeypatch,
                                                                   caplog):
        samples = self.samples()
        alone = self.run(monkeypatch, 1, samples)
        pids = []

        def kill_rank_1(step, loss):
            # after step 0, so that the next step's message meets a dead
            # worker; waitid leaves the child for the pool to reap
            if step == 0:
                os.kill(pids[0], signal.SIGKILL)
                os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)

        # four passes over three processes: the third still runs in its worker
        result = self.run(monkeypatch, 3, samples, on_step=kill_rank_1, forks=pids)
        self.assert_same_run(result, alone)
        assert self.warnings(caplog) == [
            f"pass worker {pids[0]} exited: its passes run in this process"]

    def test_a_worker_lost_in_a_pass_leaves_it_here_and_every_byte(self, monkeypatch,
                                                                   caplog):
        samples = self.samples()
        alone = self.run(monkeypatch, 1, samples)
        main, pass_ = os.getpid(), workers.PassPool._pass

        def dies_in_step_1(pool, step, *args):
            if step == 1 and os.getpid() != main:
                os._exit(9)
            return pass_(pool, step, *args)

        monkeypatch.setattr(workers.PassPool, "_pass", dies_in_step_1)
        pids = []
        result = self.run(monkeypatch, 2, samples, forks=pids)
        self.assert_same_run(result, alone)
        assert self.warnings(caplog) == [
            f"pass worker {pids[0]} exited: its passes run in this process"]

    @pytest.mark.parametrize("forks", [0, 1])
    def test_a_failed_fork_leaves_its_passes_here_and_every_byte(self, monkeypatch, caplog,
                                                                 forks):
        samples = self.samples()
        alone = self.run(monkeypatch, 1, samples)
        fork, calls = os.fork, []

        def fork_until_out_of_processes():
            calls.append(None)
            if len(calls) > forks:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", fork_until_out_of_processes)
        config, schedule = read_config(TOY_CFG)
        result = train(samples, config,
                       replace(schedule, steps=3, token_budget=FOUR_PASS_BUDGET))
        self.assert_same_run(result, alone)
        assert len(calls) == forks + 1
        assert self.warnings(caplog) == [
            f"cannot fork a pass worker ([Errno {errno.EAGAIN}] Resource temporarily "
            "unavailable): "
            f"the passes of {2 - forks} of 2 workers run in this process"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_blas_runs_one_thread_in_train_and_its_count_is_restored(self):
        get, put = workers._openblas_threads()
        before = get()
        seen = []
        samples = benchkit.synth_generate(benchkit.SynthConfig(n_samples=40, seed=3))
        config, schedule = read_config(TOY_CFG)
        try:
            put(2)
            train(samples, config, replace(schedule, steps=2),
                  on_step=lambda step, loss: seen.append(get()))
            assert seen == [1, 1] and get() == 2
        finally:
            put(before)


class TestPersistence:
    def test_save_load_roundtrip_preserves_predictions(self, tmp_path):
        samples = [make_sample(f"p-{i}") for i in range(3)]
        config = toy_config(d_vis=8)
        sched = TrainSchedule(steps=3, lr=1e-3, token_budget=200)
        result = train(samples, config, sched)
        save_model(result.model, tmp_path / "run")
        reloaded = load_model(tmp_path / "run")
        for s in samples:
            a = result.model.predict([s])[0]
            b = reloaded.predict([s])[0]
            assert a.chosen == b.chosen
            for link in a.scores:
                np.testing.assert_allclose(a.scores[link], b.scores[link], atol=1e-6)

    def test_checkpoint_bitwise_roundtrip(self, tmp_path):
        samples = [make_sample("c-0")]
        config = toy_config(d_vis=8)
        result = train(samples, config, TrainSchedule(steps=2, lr=1e-3))
        p1 = save_model(result.model, tmp_path / "a")
        reloaded = load_model(tmp_path / "a")
        p2 = save_model(reloaded, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("failing, stage", [
        pytest.param(name, "replace", id=name)
        for name in (CHECKPOINT_NAME, VOCAB_NAME, CONFIG_NAME)
    ] + [pytest.param(name, "write", id=f"{name}-write")
         for name in (CHECKPOINT_NAME, VOCAB_NAME)])
    def test_failed_replace_leaves_earlier_files(self, tmp_path, monkeypatch, failing, stage):
        # ``stage`` is where the save of ``failing`` breaks: moving the
        # finished temp file into place, or writing the temp file itself
        config = toy_config(d_vis=8)
        sched = TrainSchedule(steps=1, lr=1e-3)
        first = train([make_sample("f-0")], config, sched).model
        second = train([make_sample("f-1", tokens=[PersonLink(1), Word("sits")])],
                       replace(config, seed=1), sched).model
        names = (CHECKPOINT_NAME, VOCAB_NAME, CONFIG_NAME)
        save_model(second, tmp_path / "new")
        new = {name: (tmp_path / "new" / name).read_bytes() for name in names}
        save_model(first, tmp_path / "run")
        old = {name: (tmp_path / "run" / name).read_bytes() for name in names}
        assert all(old[name] != new[name] for name in names)

        real_replace, real_write = os.replace, Path.write_bytes
        tmp_name = failing + ".tmp"

        def flaky_replace(src, dst):
            if Path(dst).name == failing:
                raise OSError(f"no space left for {failing}")
            real_replace(src, dst)

        def half_write(path, data):
            # a partial temp file, then a full disk
            if path.name == tmp_name:
                real_write(path, data[:8])
                raise OSError(f"no space left for {failing}")
            return real_write(path, data)

        if stage == "replace":
            monkeypatch.setattr(os, "replace", flaky_replace)
        else:
            monkeypatch.setattr(Path, "write_bytes", half_write)
        with pytest.raises(OSError):
            save_model(second, tmp_path / "run")
        assert (tmp_path / "run" / failing).read_bytes() == old[failing]
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() in (old[name], new[name])
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(names)

    def test_config_file_feeds_both_dataclasses(self, tmp_path):
        config, schedule = read_config(TOY_CFG)
        assert (config.d_model, config.lam, config.use_context_objects) == (32, 1.0, True)
        assert (schedule.steps, schedule.lr, schedule.token_budget) == (400, 5e-4, 800)
        path = tmp_path / "m.cfg"
        path.write_text("steps = 7\n")  # keys left out keep defaults
        assert read_config(path) == (ModelConfig(), TrainSchedule(steps=7))

    def test_config_file_roundtrip(self, tmp_path):
        config = toy_config(tau=0.5, lam=2.0, use_context_objects=False)
        path = tmp_path / "m.cfg"
        config.to_file(path)
        assert read_config(path)[0] == config

    def test_repeated_key_names_its_second_line(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("lambda = 1.0\n# comment\nsteps = 7\nlambda = 2.0\n")
        with pytest.raises(DataError, match=r"m\.cfg:4: config key 'lambda' repeated "
                                             r"\(first on line 1\)"):
            read_config(path)

    def test_retired_similarity_key(self, tmp_path):
        # run directories written before cosine similarity was retired say
        # "normalize_similarity = False"; they load as if the line were absent
        path = tmp_path / "m.cfg"
        for value in ("false", "False"):
            path.write_text(TOY_CFG.read_text() + f"normalize_similarity = {value}\n")
            assert read_config(path) == read_config(TOY_CFG)
        path.write_text(TOY_CFG.read_text() + "normalize_similarity = true\n")
        with pytest.raises(DataError, match="normalize_similarity = true is no longer"):
            read_config(path)
