import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groundkit.core import (
    FEATURE_MAGIC,
    CommonsenseType,
    DataError,
    DatasetHeader,
    ImageRecord,
    ObjectLink,
    PersonLink,
    Sample,
    Word,
    dataset_stats,
    feature_path,
    has_tied_links,
    person_link_ids,
    read_dataset,
    read_feature_file,
    read_header,
    _seed_words,
    stable_hash,
    stable_rng,
    stable_rngs,
    token_from_json,
    token_to_json,
    write_dataset,
)
from groundkit.rulekit import QAPair, read_qa_corpus, write_qa_corpus

from conftest import make_person, make_sample

TESTS = Path(__file__).resolve().parent


def make_qa(sample_id, n_persons=3):
    image = make_sample(sample_id, n_persons=n_persons).image
    return QAPair(sample_id=sample_id, image=image,
                  question=[Word("why"), Word("is"), PersonLink(1), Word("here"), Word("?")],
                  answers=[[Word(w)] for w in ("rain", "no", "maybe", "never")],
                  correct_index=0, labels={1: 0})


# record kind -> (make a record with this id, write records to a path, read a path)
KINDS = {
    "dataset": (make_sample, write_dataset, read_dataset),
    "qa": (make_qa, write_qa_corpus, read_qa_corpus),
}


# ids of unequal byte length (3, 4 and 4 bytes in UTF-8), one of them not ASCII
MIXED_IDS = ("s-0", "s-10", "é-2")


def write_kind(kind, path, ids=("s-0",)):
    make, write, _read = KINDS[kind]
    write([make(i) for i in ids], path)
    return path


def read_kind(kind, path):
    return KINDS[kind][2](path)


# breaches of the region rules, the default header's included: (the region
# edited -- the first person, the first context object or the image --, the
# fields changed, the error it raises).  The first person's box is
# (10, 10, 60, 120), the first object's (20, 130, 50, 170), the image 800 x 200.
REGION_BREACHES = {
    "low_objectness": ("object", {"objectness": 0.05},
                       "objectness 0.05 below declared threshold 0.2"),
    "objectness_above_one": ("object", {"objectness": 1.5}, "objectness 1.5 outside [0, 1]"),
    "empty_class_name": ("object", {"class_name": ""}, "context object needs a class name"),
    "box_past_edge": ("person", {"x2": 900}, "box x2=900 exceeds image width 800"),
    "degenerate_x": ("person", {"x2": 10}, "degenerate box: x2 <= x1 (10, 10)"),
    "degenerate_y": ("person", {"y2": 10}, "degenerate box: y2 <= y1 (10, 10)"),
    "nan_coordinate": ("person", {"x1": math.nan},
                       "non-finite box coordinate in (nan, 10, 60, 120)"),
    "infinite_coordinate": ("person", {"x2": math.inf},
                            "non-finite box coordinate in (10, 10, inf, 120)"),
    "minus_infinite_coordinate": ("person", {"y1": -math.inf},
                                  "non-finite box coordinate in (10, -inf, 60, 120)"),
    "negative_x1": ("person", {"x1": -1}, "negative box coordinate in (-1, 10, 60, 120)"),
    "negative_y1": ("person", {"y1": -0.5}, "negative box coordinate in (10, -0.5, 60, 120)"),
    "integer_past_the_float_range": ("person", {"x2": 10**400},
                                     "box x2 is an integer past the float range"),
    "object_past_right_edge": ("object", {"x2": 801}, "box x2=801 exceeds image width 800"),
    "object_past_bottom_edge": ("object", {"y2": 201}, "box y2=201 exceeds image height 200"),
    "object_degenerate_x": ("object", {"x1": 50}, "degenerate box: x2 <= x1 (50, 50)"),
    "object_degenerate_y": ("object", {"y2": 120}, "degenerate box: y2 <= y1 (130, 120)"),
    "object_negative_x1": ("object", {"x1": -3}, "negative box coordinate in (-3, 130, 50, 170)"),
    "object_negative_y1": ("object", {"y1": -2.5},
                           "negative box coordinate in (20, -2.5, 50, 170)"),
    "zero_width": ("image", {"width": 0}, "non-positive image size"),
    "negative_height": ("image", {"height": -5}, "non-positive image size"),
    "width_past_the_float_range": ("image", {"width": 10**400},
                                   "image size past the float range"),
    "height_past_the_float_range": ("image", {"height": 10**400},
                                    "image size past the float range"),
}


def breach_json(image, region, edit):
    """Apply a ``REGION_BREACHES`` edit to an image's JSON object."""
    {"person": image["persons"][0], "object": image["context_objects"][0],
     "image": image}[region].update(edit)


def breach_record(image, region, edit):
    """Apply a ``REGION_BREACHES`` edit to an ``ImageRecord``."""
    target = {"person": image.persons[0], "object": image.context_objects[0],
              "image": image}[region]
    for name, value in edit.items():
        if name in ("x1", "y1", "x2", "y2"):
            target.box = replace(target.box, **{name: value})
        else:
            setattr(target, name, value)


def rewrite_rows(path, edit):
    """Re-encode the ``.cgf`` rows of ``path`` after ``edit(rows)``."""
    d_vis, table = read_feature_file(feature_path(path))
    rows = edit([(sid, o, vec) for sid, per in table.items() for o, vec in per.items()])
    blob = FEATURE_MAGIC + struct.pack("<I", d_vis)
    for sid, ordinal, vec in rows:
        raw = sid.encode("utf-8")
        blob += struct.pack("<I", len(raw)) + raw + struct.pack("<I", ordinal) + vec.tobytes()
    feature_path(path).write_bytes(blob)


def test_fixture_features_independent_of_hash_seed():
    # the shared test scenes must be the same scenes under every PYTHONHASHSEED
    code = ("import sys; from conftest import make_sample; "
            "s = make_sample('c-0', n_objects=2); "
            "sys.stdout.write(b''.join(r.feature.tobytes() for r in "
            "s.image.persons + s.image.context_objects).hex())")
    path = os.pathsep.join([str(TESTS), str(TESTS.parent / "src"),
                            os.environ.get("PYTHONPATH", "")])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": path,
                                            "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert outs[0] and outs[0] == outs[1]


class TestTypes:
    def test_stable_hash_is_the_sha256_prefix_stable_rng_seeds_from(self):
        # the digest feeds the neutral names and the dataset splits: its
        # bytes must not move
        expected = int.from_bytes(hashlib.sha256(b"3:s-0").digest()[:8], "little")
        assert stable_hash(3, "s-0") == expected
        assert (stable_rng(3, "s-0").integers(2**62, size=4).tolist()
                == np.random.default_rng(expected).integers(2**62, size=4).tolist())

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**40])
    def test_stable_rngs_draw_what_stable_rng_draws(self, seed):
        # each generator, reseeded in place, draws what a freshly built one
        # does, for every draw the package takes from one
        tags = [f"s-{i}" for i in range(2000)] + ["", "päivä", "x" * 300]
        for tag, rng in zip(tags, stable_rngs(seed, tags), strict=True):
            reference = np.random.default_rng(stable_hash(seed, tag))
            assert rng.permutation(16).tolist() == reference.permutation(16).tolist()
            assert rng.integers(10) == reference.integers(10)
            assert rng.random() == reference.random()

    @pytest.mark.parametrize("h", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_seed_words_are_seed_sequence_state(self, h):
        # one-word (below 2**32) and two-word entropy, and both ends of the range
        expected = np.random.SeedSequence(h).generate_state(4, np.uint64)
        got = _seed_words(np.array([h, h], dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [expected.tolist()] * 2

    def test_stable_rngs_of_no_tags_yield_nothing(self):
        assert list(stable_rngs(0, [])) == []

    def test_word_must_be_nonempty(self):
        # a word is its string; the codec refuses the empty one both ways
        assert Word("waves") == token_from_json("waves") == token_to_json("waves") == "waves"
        for codec in (token_from_json, token_to_json):
            with pytest.raises(DataError, match="^empty word token$"):
                codec("")

    def test_description_link_ids_distinct_in_order(self):
        tokens = [PersonLink(3), Word("and"), Word("then"), PersonLink(1),
                  Word("met"), PersonLink(3)]
        assert person_link_ids(tokens) == [3, 1]
        assert make_sample(tokens=tokens, labels={3: 0, 1: 1}).link_ids == [3, 1]

    def test_tied_links_detection(self):
        tied = [PersonLink(1), Word("and"), PersonLink(2), Word("dance")]
        loose = [PersonLink(1), Word("and"), Word("then"), PersonLink(2)]
        assert has_tied_links(tied)
        assert not has_tied_links(loose)

    def test_label_out_of_range_rejected(self):
        sample = make_sample(labels={1: 5}, n_persons=3)
        with pytest.raises(DataError, match="label out of range"):
            sample.validate()

    def test_object_link_rejected_in_finished_sample(self):
        sample = make_sample(tokens=[PersonLink(1), Word("holds"), ObjectLink(4, "cup")])
        with pytest.raises(DataError, match="object links"):
            sample.validate(strict=True)
        sample.validate(strict=False)  # lenient mode lets it through

    def test_strict_refuses_what_the_filter_drops(self):
        for sample, reason in (
                (make_sample("many", n_persons=11), "too_many_persons"),
                (make_sample("one", n_persons=1), "single_candidate"),
                (make_sample("none", tokens=[Word("hi")], labels={}), "no_person_link"),
                (make_sample("tied", tokens=[PersonLink(1), Word("and"), PersonLink(2)],
                             labels={1: 0, 2: 1}), "tied_links")):
            with pytest.raises(DataError, match=rf"{sample.sample_id}: .*\({reason}\)"):
                sample.validate(strict=True)
            sample.validate(strict=False)

    def test_box_outside_image_names_coordinate(self):
        for x2, y2, coord in ((810, 120, "x2"), (60, 210, "y2")):
            image = ImageRecord(image_id="img", width=800, height=200,
                                persons=[make_person(0, 10, 10, x2, y2)])
            with pytest.raises(DataError, match=f"box {coord}="):
                image.validate(DatasetHeader(d_vis=8))


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        samples = [make_sample(f"s-{i}", n_persons=2 + i % 3) for i in range(5)]
        path = tmp_path / "data.jsonl"
        write_dataset(samples, path)
        loaded = read_dataset(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.sample_id == b.sample_id
            assert a.tokens == b.tokens
            assert a.labels == b.labels
            assert a.commonsense_type == b.commonsense_type
            assert a.image.width == b.image.width
            for pa, pb in zip(a.image.persons, b.image.persons):
                assert pa.box == pb.box
                assert pa.feature.tobytes() == pb.feature.tobytes()
            for oa, ob in zip(a.image.context_objects, b.image.context_objects):
                assert oa.box == ob.box
                assert oa.class_name == ob.class_name
                assert oa.feature.tobytes() == ob.feature.tobytes()

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_file_level_bitwise_roundtrip(self, kind, tmp_path):
        _make, write, read = KINDS[kind]
        p1, p2 = write_kind(kind, tmp_path / "a.jsonl", ids=MIXED_IDS), tmp_path / "b.jsonl"
        write(read(p1), p2, header=read_header(p1))
        assert p1.read_bytes() == p2.read_bytes()
        assert feature_path(p1).read_bytes() == feature_path(p2).read_bytes()

    def test_empty_dataset_roundtrips(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset([], path)
        assert read_dataset(path) == []

    def test_invalid_sample_refused_before_write(self, tmp_path):
        bad = make_sample(labels={1: 9}, n_persons=2)
        path = tmp_path / "bad.jsonl"
        with pytest.raises(DataError):
            write_dataset([bad], path)
        assert not path.exists()
        # a wrong-length feature row in the last QA record leaves no file either
        corpus = [make_qa(f"q-{i}") for i in range(4)]
        corpus[-1].image.persons[1].feature = np.zeros(5, np.float32)
        qa_path = tmp_path / "qa.jsonl"
        with pytest.raises(DataError, match="d_vis"):
            write_qa_corpus(corpus, qa_path)
        assert list(tmp_path.iterdir()) == []

    def test_order_preserved(self, tmp_path):
        samples = [make_sample(f"s-{i}") for i in (3, 1, 2)]
        path = tmp_path / "d.jsonl"
        write_dataset(samples, path)
        assert [s.sample_id for s in read_dataset(path)] == ["s-3", "s-1", "s-2"]


class TestReadErrors:
    """Checks the container makes for every record kind; each test runs both."""

    def test_malformed_line_names_line_number(self, tmp_path):
        for kind in KINDS:
            path = write_kind(kind, tmp_path / f"{kind}.jsonl")
            text = path.read_text().splitlines()
            text.insert(1, "{not json")
            path.write_text("\n".join(text) + "\n")
            with pytest.raises(DataError, match=r":2:"):
                read_kind(kind, path)

    def test_missing_feature_file(self, tmp_path):
        for kind in KINDS:
            path = write_kind(kind, tmp_path / f"{kind}.jsonl")
            feature_path(path).unlink()
            with pytest.raises(DataError, match="feature file missing"):
                read_kind(kind, path)

    def test_dimension_mismatch_detected(self, tmp_path):
        for kind in KINDS:
            path = write_kind(kind, tmp_path / f"{kind}.jsonl")
            # rewrite the header to claim a different d_vis
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            header["d_vis"] = 64
            lines[0] = json.dumps(header, separators=(",", ":"))
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DataError, match="d_vis"):
                read_kind(kind, path)

    def test_unknown_format_version_rejected(self, tmp_path):
        for kind in KINDS:
            path = write_kind(kind, tmp_path / f"{kind}.jsonl")
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            header["format_version"] = 99
            lines[0] = json.dumps(header, separators=(",", ":"))
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DataError, match=r":1: unsupported format_version 99"):
                read_kind(kind, path)

    def test_corrupt_feature_magic_rejected(self, tmp_path):
        for kind in KINDS:
            path = write_kind(kind, tmp_path / f"{kind}.jsonl")
            fpath = feature_path(path)
            blob = bytearray(fpath.read_bytes())
            blob[:4] = b"XXXX"
            fpath.write_bytes(bytes(blob))
            with pytest.raises(DataError, match="magic"):
                read_kind(kind, path)

    def test_label_out_of_range_on_read(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset([make_sample("s-0")], path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["labels"] = {"1": 7}
        lines[1] = json.dumps(obj, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="label out of range"):
            read_dataset(path)


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestContainerIntegrity:
    def test_duplicate_sample_id_rejected(self, kind, tmp_path):
        path = write_kind(kind, tmp_path / "c.jsonl", ids=("s-0", "s-1"))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(DataError, match=r":4: duplicate sample_id 's-0'"):
            read_kind(kind, path)

    def test_duplicate_feature_row_rejected(self, kind, tmp_path):
        path = write_kind(kind, tmp_path / "c.jsonl")
        rewrite_rows(path, lambda rows: rows + rows[:1])
        with pytest.raises(DataError, match=r"duplicate feature row \('s-0', 0\)"):
            read_kind(kind, path)

    def test_orphan_feature_rows_rejected(self, kind, tmp_path):
        path = write_kind(kind, tmp_path / "c.jsonl")
        rewrite_rows(path, lambda rows: rows + [("ghost", 0, rows[0][2])])
        with pytest.raises(DataError, match="'ghost'.* no record"):
            read_kind(kind, path)

    def test_missing_ordinal_rejected(self, kind, tmp_path):
        path = write_kind(kind, tmp_path / "c.jsonl")
        rewrite_rows(path, lambda rows: rows[1:])
        with pytest.raises(DataError, match=r"c.jsonl:2: feature ordinals for s-0"):
            read_kind(kind, path)

    def test_reordered_rows_read_to_the_same_records(self, kind, tmp_path):
        # rows reversed within each record and interleaved across records
        path = write_kind(kind, tmp_path / "c.jsonl", ids=MIXED_IDS)
        canonical = feature_path(path).read_bytes()
        rewrite_rows(path, lambda rows: sorted(rows, key=lambda row: (-row[1], row[0])))
        assert feature_path(path).read_bytes() != canonical
        again = tmp_path / "again.jsonl"
        KINDS[kind][1](read_kind(kind, path), again, header=read_header(path))
        assert again.read_bytes() == path.read_bytes()
        assert feature_path(again).read_bytes() == canonical

    @pytest.mark.parametrize("cut", ["values", "header"])
    def test_truncated_feature_file_rejected(self, kind, cut, tmp_path):
        path = write_kind(kind, tmp_path / "c.jsonl", ids=("s-0", "s-1"))
        blob = feature_path(path).read_bytes()
        last_row = len(blob) - (4 + len(b"s-1") + 4 + 4 * read_header(path).d_vis)
        # inside the last row's values, or inside its ordinal field
        end = {"values": len(blob) - 5, "header": last_row + 9}[cut]
        feature_path(path).write_bytes(blob[:end])
        with pytest.raises(DataError, match=r"c\.cgf: corrupt feature file"):
            read_kind(kind, path)

    def test_duplicate_sample_id_refused_on_write(self, kind, tmp_path):
        with pytest.raises(DataError, match="duplicate sample_id"):
            write_kind(kind, tmp_path / "c.jsonl", ids=("s-0", "s-0"))
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_feature_rejected_on_read(self, kind, tmp_path):
        path = write_kind(kind, tmp_path / "c.jsonl", ids=("s-0", "s-1"))
        for bad in (np.nan, np.inf, -np.inf):
            def poison(rows):
                sid, ordinal, vec = rows[-1]
                vec = vec.copy()
                vec[-1] = bad
                return rows[:-1] + [(sid, ordinal, vec)]
            rewrite_rows(path, poison)
            with pytest.raises(DataError, match=r"non-finite feature value in row \('s-1', "):
                read_kind(kind, path)
            write_kind(kind, path, ids=("s-0", "s-1"))

    def test_non_finite_feature_refused_on_write(self, kind, tmp_path):
        make, write, _read = KINDS[kind]
        records = [make(i) for i in ("s-0", "s-1")]
        records[1].image.persons[2].feature[0] = np.nan
        with pytest.raises(DataError, match=r"non-finite feature value in row \('s-1', 2\)"):
            write(records, tmp_path / "c.jsonl")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("breach", sorted(REGION_BREACHES))
    def test_header_rules_refused_on_read(self, kind, breach, tmp_path):
        region, edit, message = REGION_BREACHES[breach]
        path = write_kind(kind, tmp_path / "c.jsonl", ids=("s-0", "s-1"))
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        breach_json(obj["image"], region, edit)
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"c\.jsonl:3: img-s-1: {re.escape(message)}$"):
            read_kind(kind, path)

    @pytest.mark.parametrize("breach", sorted(REGION_BREACHES))
    def test_header_rules_refused_on_write(self, kind, breach, tmp_path):
        region, edit, message = REGION_BREACHES[breach]
        make, write, _read = KINDS[kind]
        records = [make(i) for i in ("s-0", "s-1")]
        breach_record(records[1].image, region, edit)
        with pytest.raises(DataError, match=rf"^img-s-1: {re.escape(message)}$"):
            write(records, tmp_path / "c.jsonl")
        assert list(tmp_path.iterdir()) == []


def edit_record(path, lineno, edit):
    """Rewrite line ``lineno`` of ``path`` (a record) after ``edit(obj)``."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[lineno - 1])
    edit(obj)
    lines[lineno - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestIntegerFields:
    """An integer field holds a JSON integer; a float, a string or a boolean is
    refused naming ``file:line``, never read as another number."""

    def assert_refused(self, kind, tmp_path, edit, message):
        path = write_kind(kind, tmp_path / "c.jsonl", ids=("s-0", "s-1"))
        edit_record(path, 3, edit)
        with pytest.raises(DataError, match=rf"c\.jsonl:3: {re.escape(message)}$"):
            read_kind(kind, path)

    @pytest.mark.parametrize("value", [1.9, 0.7, 4.7, 1.0, True, "1"])
    def test_label_value(self, kind, value, tmp_path):
        self.assert_refused(kind, tmp_path, lambda obj: obj.update(labels={"1": value}),
                            f"label of link 1 is {value!r}, not an integer")

    @pytest.mark.parametrize("key", [" 1", "0_1", "01", "+1", "1 "])
    def test_label_key(self, kind, key, tmp_path):
        self.assert_refused(kind, tmp_path, lambda obj: obj.update(labels={key: 0}),
                            f"label keys [{key!r}] are not all decimal link ids")

    @pytest.mark.parametrize("link", ["person", "object"])
    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_link_id(self, kind, link, value, tmp_path):
        def edit(obj):
            tokens = obj["tokens"] if kind == "dataset" else obj["question"]
            tokens[tokens.index({"person": 1})] = {link: value, "class": "cup"}
        self.assert_refused(kind, tmp_path, edit, f"{link} link is {value!r}, not an integer")

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("value", [640.7, 640.0, "640", True])
    def test_image_size(self, kind, field, value, tmp_path):
        self.assert_refused(kind, tmp_path, lambda obj: obj["image"].update({field: value}),
                            f"{field} is {value!r}, not an integer")

    @pytest.mark.parametrize("field", ["width", "label"])
    def test_refused_on_write(self, kind, field, tmp_path):
        # what a writer writes, the reader reads: a float is refused before any file
        make, write, _read = KINDS[kind]
        records = [make(i) for i in ("s-0", "s-1")]
        if field == "width":
            records[1].image.width = 800.0
        else:
            records[1].labels[1] = 0.0
        message = {"width": "width is 800.0", "label": "label of link 1 is 0.0"}[field]
        with pytest.raises(DataError, match=f"^{message}, not an integer$"):
            write(records, tmp_path / "c.jsonl")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [1.5, 1.0, True, "1"])
def test_correct_index_must_be_an_integer(value, tmp_path):
    path = write_kind("qa", tmp_path / "c.jsonl", ids=("s-0", "s-1"))
    edit_record(path, 3, lambda obj: obj.update(correct_index=value))
    message = f"correct_index is {value!r}, not an integer"
    with pytest.raises(DataError, match=rf"c\.jsonl:3: {re.escape(message)}$"):
        read_qa_corpus(path)
    qa = make_qa("s-2")
    qa.correct_index = value
    with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
        write_qa_corpus([qa], tmp_path / "w.jsonl")
    assert not (tmp_path / "w.jsonl").exists()


class TestEmptyWord:
    """The token codec refuses an empty word on read and on write."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_refused_on_read(self, kind, tmp_path):
        path = write_kind(kind, tmp_path / "c.jsonl", ids=("s-0", "s-1"))
        # a dataset description's second token, or a QA record's third answer
        edit = {"dataset": lambda obj: obj["tokens"].__setitem__(1, ""),
                "qa": lambda obj: obj["answers"][2].__setitem__(0, "")}[kind]
        edit_record(path, 3, edit)
        with pytest.raises(DataError, match=r"c\.jsonl:3: empty word token$"):
            read_kind(kind, path)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_refused_on_write(self, kind, tmp_path):
        make, write, _read = KINDS[kind]
        records = [make(i) for i in ("s-0", "s-1")]
        if kind == "dataset":
            records[1] = replace(records[1], tokens=[PersonLink(1), Word("")])
        else:
            records[1].answers[2] = [Word("")]
        with pytest.raises(DataError, match="^empty word token$"):
            write(records, tmp_path / "c.jsonl")
        assert list(tmp_path.iterdir()) == []


def test_qa_record_without_regions_loads(tmp_path):
    """QA corpora legally hold images with no person: no rows, no error."""
    empty = make_qa("q-empty", n_persons=0)
    empty.image.context_objects.clear()
    path = tmp_path / "qa.jsonl"
    write_qa_corpus([empty, make_qa("q-1")], path, header=DatasetHeader(d_vis=8))
    loaded = read_qa_corpus(path)
    assert [qa.image.n_persons for qa in loaded] == [0, 3]


# any JSON value, including huge integers, NaN and infinities
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=6)


def mutate(data, value):
    """Replace or delete one value at a drawn path inside ``value``, or all of it."""
    if not isinstance(value, (dict, list)) or not value or data.draw(st.integers(0, 7)) == 0:
        return data.draw(JSON_VALUES)
    node = value
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and data.draw(st.integers(0, 3)) == 0:
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES)
        return value


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(KINDS)), data=st.data())
def test_mutated_container_loads_or_raises_data_error(kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_kind(kind, Path(tmp) / "c.jsonl", ids=("s-0", "s-1"))
        lines = path.read_text().splitlines()
        for _ in range(data.draw(st.integers(0, 2))):
            target = data.draw(st.integers(0, len(lines) - 1))
            lines[target] = json.dumps(mutate(data, json.loads(lines[target])))
        path.write_text("\n".join(lines) + "\n")
        blob = bytearray(feature_path(path).read_bytes())
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(1, 255)), max_size=3))
        for offset, bits in flips:
            blob[offset] ^= bits
        if data.draw(st.booleans()):
            del blob[data.draw(st.integers(0, len(blob))):]
        feature_path(path).write_bytes(bytes(blob))
        try:
            read_kind(kind, path)
        except DataError:
            pass


class TestStats:
    def test_mean_persons(self):
        samples = [make_sample("a", n_persons=3), make_sample("b", n_persons=5)]
        stats = dataset_stats(samples)
        assert stats["mean_persons_per_image"] == 4.0
        assert stats["n_samples"] == 2
        assert stats["n_images"] == 2
        assert stats["n_links"] == 2

    def test_empty_input(self):
        stats = dataset_stats([])
        assert stats["n_samples"] == 0
        assert stats["mean_tokens"] is None
        assert stats["mean_persons_per_image"] is None
        assert stats["type_histogram"] == {}

    def test_histogram_matches_construction(self):
        types = [CommonsenseType.CAUSAL] * 4 + [CommonsenseType.MENTAL] * 3 + \
                [CommonsenseType.SPATIAL] * 3
        samples = [make_sample(f"s-{i}", ctype=t) for i, t in enumerate(types)]
        stats = dataset_stats(samples)
        assert stats["type_histogram"] == {"causal": 4, "mental": 3, "spatial": 3}

    def test_permutation_invariant(self):
        samples = [make_sample(f"s-{i}", n_persons=2 + i % 4) for i in range(8)]
        a = dataset_stats(samples)
        b = dataset_stats(list(reversed(samples)))
        assert a == b
