"""Domain types, dataset invariants, and the on-disk format of both record kinds.

Datasets (``Sample``) and QA corpora (``QAPair``) share one container of two files:

- ``<name>.jsonl`` -- UTF-8 JSON lines.  Line 1 is a header object: the
  integer ``format_version`` and exactly the fields of ``DatasetHeader``;
  every following line is one record (a sample, or a QA pair) with a unique
  ``sample_id``.  The header's ``d_vis`` and cap are integers, the cap at
  least 0, and its threshold a number in [0, 1], on read and on write.
- ``<name>.cgf`` -- the companion binary feature file (little-endian).
  Layout: magic ``CGF1``, ``u32 d_vis``, then per region in file order:
  ``u32`` byte length of sample_id, sample_id bytes, ``u32`` region ordinal,
  ``d_vis`` float32 values.  Region ordinals enumerate persons first, then
  context objects, in their stored order, and must run 0..n-1 per record;
  every row belongs to a record, and every value is finite.  Rows may come in
  any order; the reader checks them as whole arrays, and the records hold
  views of the rows of one read-only ``[rows, d_vis]`` float32 array.

``write_container``/``read_container`` own this format and run
``ImageRecord.validate``, the one owner of the region rules, on every record:
each region lies inside its image (``0 <= x1 < x2 <= width``, likewise in y),
a context object also has ``threshold <= objectness <= 1`` and a class name,
and an image holds at most the header's cap of objects.  The region types
check nothing, and each record kind only encodes, decodes and checks its own
JSON object.  Feature vectors are float32 and round-trip bitwise; an integer,
number or string field of the JSON side holds that JSON kind and is never
coerced from another (``json_value``), and a word token is a non-empty string.
All records are read-only after load, and their feature rows cannot be
written.  The per-record checks run on every record read or written, so they
format their messages only on failure.  Seeded per-sample choices read digests
of ``f"{seed}:{tag}"``, not ``hash()``: ``stable_hash`` (the splits) and
``stable_keys`` (the neutral names and the random baseline's picks).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar, Union

import numpy as np

FORMAT_VERSION = 1
FEATURE_MAGIC = b"CGF1"
DEFAULT_OBJECTNESS_THRESHOLD = 0.2
DEFAULT_MAX_CONTEXT_OBJECTS = 100

MIN_PERSONS = 2
MAX_PERSONS = 10

# a record kind: a sample or a QA pair, each with its ``sample_id`` and ``image``
R = TypeVar("R")
V = TypeVar("V")

_FLOAT_MAX = sys.float_info.max
# the u32 fields of the .cgf: id lengths, ordinals and d_vis
_U32 = struct.Struct("<I")


class DataError(Exception):
    """Malformed files, invariant violations, or inconsistent records."""


def _require(cond: bool, message: str, *args: object) -> None:
    if not cond:
        raise DataError(message % args if args else message)


def stable_hash(seed: int, tag: str) -> int:
    """64-bit digest of (seed, tag), e.g. a sample id; independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stable_keys(seed: int, tags: Sequence[str], k: int) -> np.ndarray:
    """``[len(tags), k]`` uint32 keys, row ``i`` the first ``4 * k`` bytes (little
    endian) of the SHAKE-256 digest of ``f"{seed}:{tags[i]}"``: a tag's first
    keys depend neither on ``k``, nor on the other tags, nor on PYTHONHASHSEED."""
    blob = b"".join([hashlib.shake_256(f"{seed}:{tag}".encode("utf-8")).digest(4 * k)
                     for tag in tags])
    return np.frombuffer(blob, dtype="<u4").reshape(len(tags), k)


# ---------------------------------------------------------------------------
# geometry-bearing records


@dataclass(slots=True)
class BoundingBox:
    """Axis-aligned box in pixel space; coordinates are half-open reals."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(slots=True)
class PersonBox:
    """A candidate person region: its box plus the precomputed feature row."""

    index: int
    box: BoundingBox
    feature: np.ndarray


@dataclass(slots=True)
class ContextObject:
    """An extra detected region with objectness score and detector class."""

    box: BoundingBox
    feature: np.ndarray
    objectness: float
    class_name: str


@dataclass
class ImageRecord:
    image_id: str
    width: int
    height: int
    persons: list[PersonBox]
    context_objects: list[ContextObject] = field(default_factory=list)

    @property
    def n_persons(self) -> int:
        return len(self.persons)

    def validate(self, header: "DatasetHeader") -> None:
        """Hold the image and its regions to the region rules, ``header``'s
        included.  Each region passes one chained comparison, which NaN, an
        infinity and an integer past the float range all fail; the messages
        are worded by ``_region_error`` and only when that test fails."""
        image_id, width, height = self.image_id, self.width, self.height
        if not (0 < width <= _FLOAT_MAX and 0 < height <= _FLOAT_MAX):
            _require(width > 0 and height > 0, "%s: non-positive image size", image_id)
            raise DataError(f"{image_id}: image size past the float range")
        for pos, person in enumerate(self.persons):
            b = person.box
            if not (person.index == pos
                    and 0 <= b.x1 < b.x2 <= width and 0 <= b.y1 < b.y2 <= height):
                _require(person.index == pos,
                         "%s: person indices not consecutive at position %s", image_id, pos)
                raise _region_error(self, b)
        # the container holds every header to a threshold in [0, 1]
        threshold = header.objectness_threshold
        for obj in self.context_objects:
            b = obj.box
            if not (0 <= b.x1 < b.x2 <= width and 0 <= b.y1 < b.y2 <= height
                    and threshold <= obj.objectness <= 1 and obj.class_name):
                raise _region_error(self, b, obj, threshold)
        if len(self.context_objects) > header.max_context_objects:
            raise DataError(f"{image_id}: {len(self.context_objects)} context objects "
                            f"exceed declared cap {header.max_context_objects}")


def _region_error(image: ImageRecord, box: BoundingBox, obj: ContextObject | None = None,
                  threshold: float = 0.0) -> DataError:
    """The first region rule that ``box`` (and ``obj``) breaks in ``image``."""
    owner, coords = image.image_id, (box.x1, box.y1, box.x2, box.y2)
    for name, value in zip(("x1", "y1", "x2", "y2"), coords):
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            if isinstance(value, int):  # named, not printed: it has hundreds of digits
                return DataError(f"{owner}: box {name} is an integer past the float range")
            return DataError(f"{owner}: non-finite box coordinate in {coords}")
    if min(coords) < 0:
        return DataError(f"{owner}: negative box coordinate in {coords}")
    if not box.x2 > box.x1:
        return DataError(f"{owner}: degenerate box: x2 <= x1 ({box.x1}, {box.x2})")
    if not box.y2 > box.y1:
        return DataError(f"{owner}: degenerate box: y2 <= y1 ({box.y1}, {box.y2})")
    if not box.x2 <= image.width:
        return DataError(f"{owner}: box x2={box.x2} exceeds image width {image.width}")
    if not box.y2 <= image.height:
        return DataError(f"{owner}: box y2={box.y2} exceeds image height {image.height}")
    if not 0 <= obj.objectness <= 1:
        return DataError(f"{owner}: objectness {obj.objectness} outside [0, 1]")
    if not obj.objectness >= threshold:
        return DataError(f"{owner}: objectness {obj.objectness} below declared "
                         f"threshold {threshold}")
    return DataError(f"{owner}: context object needs a class name")


# ---------------------------------------------------------------------------
# text tokens


# a word token is its text; the name reads ``isinstance(t, Word)`` as "is a word"
Word = str


@dataclass(frozen=True)
class PersonLink:
    link_id: int


@dataclass(frozen=True)
class ObjectLink:
    """Raw object-region mention; only legal in pre-pipeline records."""

    region_id: int
    class_name: str


Token = Union[Word, PersonLink, ObjectLink]


def person_link_ids(tokens: Sequence[Token]) -> list[int]:
    """Distinct person-link ids in order of first appearance."""
    return list(dict.fromkeys(t.link_id for t in tokens if isinstance(t, PersonLink)))


def has_tied_links(tokens: Sequence[Token]) -> bool:
    """True when two person links are joined by a bare "and"/"or".

    Such links are syntactically exchangeable, which makes the grounding
    labels ambiguous, so finished samples must not contain the pattern.
    """
    return any(isinstance(a, PersonLink) and isinstance(c, PersonLink)
               and isinstance(b, Word) and b.lower() in ("and", "or")
               for a, b, c in zip(tokens, tokens[1:], tokens[2:]))


class CommonsenseType(str, Enum):
    CAUSAL = "causal"
    ACTIVITY = "activity"
    TEMPORAL = "temporal"
    MENTAL = "mental"
    SPATIAL = "spatial"
    ATTRIBUTE = "attribute"
    OTHER = "other"


@dataclass
class Sample:
    sample_id: str
    image: ImageRecord
    tokens: list[Token]
    labels: dict[int, int]       # person-link id -> ground-truth person index
    commonsense_type: CommonsenseType
    # ``person_link_ids(tokens)``, computed once, as nothing replaces or
    # changes ``tokens`` after construction
    link_ids: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.link_ids = person_link_ids(self.tokens)

    def validate(self, strict: bool = True) -> None:
        """Check structural invariants; with ``strict`` also that the sample is
        finished: no object links left, and ``filter_sample`` keeps it.

        Structural problems (no person, label out of range, missing labels)
        always raise.  The finished-sample conditions only raise in strict
        mode, so that pre-filter material can still be moved through the
        pipeline.  The image and its feature rows are the container's to check.
        """
        sid, n = self.sample_id, self.image.n_persons
        if not n:
            raise DataError(f"{self.image.image_id}: image has no person boxes")
        link_ids = self.link_ids
        if self.labels.keys() != set(link_ids):
            raise DataError(f"{sid}: labels {sorted(self.labels)} do not match "
                            f"description links {link_ids}")
        for link_id, idx in self.labels.items():
            if not 0 <= idx < n:
                raise DataError(f"{sid}: label out of range (link {link_id} -> {idx}, N={n})")
        if strict:
            if any(isinstance(t, ObjectLink) for t in self.tokens):
                raise DataError(f"{sid}: finished sample still contains object links")
            reason = filter_sample(self)
            if reason is not None:
                raise DataError(f"{sid}: dropped by filter_sample ({reason.value})")


@dataclass
class QAPair:
    sample_id: str
    image: ImageRecord
    question: list[Token]
    answers: list[list[Token]]
    correct_index: int
    labels: dict[int, int]

    def __post_init__(self) -> None:
        if len(self.answers) != 4:
            raise DataError(f"{self.sample_id}: expected 4 answers, got {len(self.answers)}")
        if not 0 <= self.correct_index < 4:
            raise DataError(f"{self.sample_id}: correct_index {self.correct_index} invalid")
        if not self.question:
            raise DataError(f"{self.sample_id}: empty question")

    @property
    def correct_answer(self) -> list[Token]:
        return self.answers[self.correct_index]


class DropReason(str, Enum):
    NO_PERSON_LINK = "no_person_link"
    NO_CANDIDATE = "no_candidate"
    SINGLE_CANDIDATE = "single_candidate"
    TOO_MANY_PERSONS = "too_many_persons"
    TIED_LINKS = "tied_links"


def filter_sample(sample: Sample) -> DropReason | None:
    """First triggered drop reason, in fixed order; None (keep) when none fires."""
    n = sample.image.n_persons
    if not sample.link_ids:
        return DropReason.NO_PERSON_LINK
    if n < 1:
        return DropReason.NO_CANDIDATE
    if n < MIN_PERSONS:
        return DropReason.SINGLE_CANDIDATE
    if n > MAX_PERSONS:
        return DropReason.TOO_MANY_PERSONS
    if has_tied_links(sample.tokens):
        return DropReason.TIED_LINKS
    return None


@dataclass
class Prediction:
    """One chosen person index per link id, plus the per-link score vectors
    over the N candidate persons it was read from (empty for a heuristic)."""

    chosen: dict[int, int]
    scores: dict[int, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# serialization


@dataclass(frozen=True)
class DatasetHeader:
    """The header's fields as written; the defaults are for writers only."""

    d_vis: int
    objectness_threshold: float = DEFAULT_OBJECTNESS_THRESHOLD
    max_context_objects: int = DEFAULT_MAX_CONTEXT_OBJECTS


def feature_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".cgf")


def token_to_json(token: Token) -> object:
    if isinstance(token, Word):
        _require(token != "", "empty word token")
        return token
    if isinstance(token, PersonLink):
        return {"person": json_value(token.link_id, int, "person link")}
    return {"object": json_value(token.region_id, int, "object link"),
            "class": json_value(token.class_name, str, "object link class")}


def token_from_json(obj: object) -> Token:
    if isinstance(obj, str):
        _require(obj != "", "empty word token")
        return obj
    if isinstance(obj, dict):
        if "person" in obj:
            return PersonLink(json_value(obj["person"], int, "person link"))
        if "object" in obj:
            return ObjectLink(json_value(obj["object"], int, "object link"),
                              json_value(obj["class"], str, "object link class"))
    raise DataError(f"unrecognized token {obj!r}")


def tokens_from_json(objs: list) -> list[Token]:
    """A token list: a non-empty string is its own word, anything else goes
    through ``token_from_json``, which decodes links and refuses the rest."""
    return [t if type(t) is str and t else token_from_json(t) for t in objs]


def json_value(value: object, kind: type[V], what: str) -> V:
    """``value`` if it holds the JSON kind ``kind``: ``int`` an integer,
    ``float`` a number (an integer or a float), ``str`` a string.  A bool is
    none of them; anything else is a DataError naming ``what``."""
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    name = {int: "an integer", float: "a number", str: "a string"}[kind]
    raise DataError(f"{what} is {value!r}, not {name}")


def labels_to_json(labels: Mapping[int, int]) -> dict[str, int]:
    """``labels`` by link id as a JSON object: decimal keys, integer values."""
    return {str(json_value(k, int, "label key")): json_value(v, int, f"label of link {k}")
            for k, v in sorted(labels.items())}


def labels_from_json(obj: dict) -> dict[int, int]:
    """The inverse of ``labels_to_json``: a key must be ``str(int(k))``.  A
    value's message is worded only when it is not an integer."""
    labels = {int(k): v if type(v) is int else json_value(v, int, f"label of link {k}")
              for k, v in obj.items()}
    if [str(k) for k in labels] != list(obj):
        raise DataError(f"label keys {list(obj)} are not all decimal link ids")
    return labels


def image_to_json(image: ImageRecord) -> dict:
    return {
        "image_id": json_value(image.image_id, str, "image_id"),
        "width": json_value(image.width, int, "width"),
        "height": json_value(image.height, int, "height"),
        "persons": [
            {"x1": p.box.x1, "y1": p.box.y1, "x2": p.box.x2, "y2": p.box.y2}
            for p in image.persons
        ],
        "context_objects": [
            {"x1": o.box.x1, "y1": o.box.y1, "x2": o.box.x2, "y2": o.box.y2,
             "objectness": json_value(o.objectness, float, "objectness"),
             "class_name": json_value(o.class_name, str, "class_name")}
            for o in image.context_objects
        ],
    }


def image_from_json(obj: dict, features: list[np.ndarray]) -> ImageRecord:
    """The image of ``obj``, its regions holding ``features`` in ordinal order.
    A field's kind message is worded (``json_value``) only when the field
    fails its kind test, so the first field in order to fail is named."""
    persons_raw = obj["persons"]
    objects_raw = obj["context_objects"]
    n_regions = len(persons_raw) + len(objects_raw)
    if len(features) != n_regions:
        raise DataError(f"{n_regions} regions but {len(features)} feature rows")
    persons = [PersonBox(i, BoundingBox(b["x1"], b["y1"], b["x2"], b["y2"]), features[i])
               for i, b in enumerate(persons_raw)]
    objects = [
        ContextObject(BoundingBox(b["x1"], b["y1"], b["x2"], b["y2"]),
                      features[len(persons_raw) + j],
                      v if type(v := b["objectness"]) in (float, int)
                      else json_value(v, float, "objectness"),
                      v if type(v := b["class_name"]) is str else json_value(v, str, "class_name"))
        for j, b in enumerate(objects_raw)
    ]
    return ImageRecord(
        image_id=v if type(v := obj["image_id"]) is str else json_value(v, str, "image_id"),
        width=v if type(v := obj["width"]) is int else json_value(v, int, "width"),
        height=v if type(v := obj["height"]) is int else json_value(v, int, "height"),
        persons=persons, context_objects=objects)


def image_features(image: ImageRecord) -> list[np.ndarray]:
    """Feature rows in region-ordinal order: persons first, then objects."""
    return [p.feature for p in image.persons] + [o.feature for o in image.context_objects]


def sample_to_json(sample: Sample) -> dict:
    return {
        "sample_id": sample.sample_id,
        "image": image_to_json(sample.image),
        "tokens": [token_to_json(t) for t in sample.tokens],
        "labels": labels_to_json(sample.labels),
        "commonsense_type": sample.commonsense_type.value,
    }


_COMMONSENSE_TYPES = {t.value: t for t in CommonsenseType}


def _commonsense_type(value: object) -> CommonsenseType:
    # a miss calls CommonsenseType(value), whose ValueError words the error
    return (type(value) is str and _COMMONSENSE_TYPES.get(value)) or CommonsenseType(value)


def sample_from_json(obj: dict, features: list[np.ndarray]) -> Sample:
    return Sample(sample_id=obj["sample_id"], image=image_from_json(obj["image"], features),
                  tokens=tokens_from_json(obj["tokens"]),
                  labels=labels_from_json(obj["labels"]),
                  commonsense_type=_commonsense_type(obj["commonsense_type"]))


def qa_to_json(qa: QAPair) -> dict:
    return {
        "sample_id": qa.sample_id,
        "image": image_to_json(qa.image),
        "question": [token_to_json(t) for t in qa.question],
        "answers": [[token_to_json(t) for t in ans] for ans in qa.answers],
        "correct_index": json_value(qa.correct_index, int, "correct_index"),
        "labels": labels_to_json(qa.labels),
    }


def qa_from_json(obj: dict, features: list[np.ndarray]) -> QAPair:
    """One QA record; images may hold any person count, the filters judge that."""
    return QAPair(sample_id=obj["sample_id"], image=image_from_json(obj["image"], features),
                  question=tokens_from_json(obj["question"]),
                  answers=[tokens_from_json(ans) for ans in obj["answers"]],
                  correct_index=json_value(obj["correct_index"], int, "correct_index"),
                  labels=labels_from_json(obj["labels"]))


# one compact encoder for every line, not one per line
_json_line = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def read_text(path: str | Path) -> str:
    """A text file's content; a file that is not UTF-8 is a DataError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc.reason})") from None


def replace_file(path: str | Path, data: bytes | bytearray) -> None:
    """Write through ``<name>.tmp`` plus ``os.replace``, so ``path`` never holds
    a partial write: it keeps its old content until the new one is complete.
    Missing parent directories are created.  On failure the temp file is
    removed and the error re-raised."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _require_finite(where: str | Path, keys: Sequence[tuple[str, int]],
                    values: np.ndarray) -> None:
    """Refuse non-finite values in the feature rows ``values``, naming the first
    row that holds one by its ``(sample_id, ordinal)`` in ``keys``; valid input
    costs one check over all rows."""
    if np.isfinite(values).all():
        return
    sid, ordinal = keys[int(np.argmin(np.isfinite(values).all(axis=1)))]
    raise DataError(f"{where}: non-finite feature value in row ({sid!r}, {ordinal})")


def write_container(path: str | Path, records: Sequence[R], encode: Callable[[R], dict],
                    header: DatasetHeader | None = None) -> None:
    """Write ``records`` (samples or QA pairs) as the ``.jsonl`` lines
    ``encode`` makes of them plus their images' ``.cgf`` feature rows.

    Without ``header`` the default thresholds apply, with ``d_vis`` taken
    from the first feature row.  Every record's image is checked against the
    header and every row encoded before either file is written, so a refused
    input leaves no partial output behind.
    """
    path = Path(path)
    if header is None:
        first = next((row for r in records for row in image_features(r.image)), ())
        header = DatasetHeader(d_vis=len(first))
    _check_header(header, f"{path}:1")
    lines = [_json_line({"format_version": FORMAT_VERSION, **asdict(header)})]
    pack = _U32.pack
    parts: list[bytes | np.ndarray] = [FEATURE_MAGIC, pack(header.d_vis)]
    vecs: list[np.ndarray] = []
    seen: set[str] = set()
    for record in records:
        sample_id = record.sample_id
        _require(sample_id not in seen, "%s: duplicate sample_id %r", path, sample_id)
        seen.add(sample_id)
        record.image.validate(header)
        lines.append(_json_line(encode(record)))
        sid = sample_id.encode("utf-8")
        sid_head = pack(len(sid)) + sid
        for ordinal, vec in enumerate(image_features(record.image)):
            vec = np.ascontiguousarray(vec, dtype="<f4")
            if vec.shape != (header.d_vis,):
                raise DataError(f"{sample_id}: feature row of shape {vec.shape}, "
                                f"expected d_vis={header.d_vis}")
            vecs.append(vec)
            parts += (sid_head, pack(ordinal), vec)
    values = np.array(vecs)
    if not np.isfinite(values).all():
        keys = [(r.sample_id, o) for r in records for o in range(len(image_features(r.image)))]
        _require_finite(path, keys, values)
    replace_file(path, ("\n".join(lines) + "\n").encode("utf-8"))
    replace_file(feature_path(path), b"".join(parts))


def read_feature_file(path: str | Path) -> tuple[int, dict[str, list | dict[int, np.ndarray]]]:
    """Return (d_vis, {sample_id: its float32 vectors}), samples in order of
    first appearance: their list in ordinal order when the ordinals are
    ``0..n-1``, in any file order, else ``{ordinal: vector}``; ``len`` is the
    row count.  The vectors are row views of one read-only ``[rows, d_vis]``
    array, a strided view of the file when the file is one run.

    One loop splits the rows into runs whose ids have one byte length, each
    measured in growing windows of a strided view of its length fields; then
    every column is read and checked for the whole file at once.  A cut or
    corrupt row is named first, then the first repeated (id, ordinal), then
    the first non-finite row, each in file order.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise DataError(f"{path}: bad feature-file magic {blob[:4]!r}")
    unpack, end = _U32.unpack_from, len(blob)
    try:
        (d_vis,) = unpack(blob, 4)
    except struct.error as exc:
        raise DataError(f"{path}: corrupt feature file ({exc})") from None
    size, off, n, runs = 4 * d_vis, 8, 0, []   # (base, stride, rows): row i at base + i * stride
    u32 = np.ndarray((end - 3,), "<u4", blob, 0, (1,))   # the u32 at every byte
    while off + 4 <= end:
        stride = 8 + int(u32[off]) + size
        if not (count := (end - off) // stride):   # no whole row left: the last is cut
            break
        k, w = 1, 16   # rows in the run so far, and the window's end
        while k < count:
            other = u32[off + k * stride:off + w * stride:stride] != u32[off]
            j = int(other.argmax())
            if other[j]:
                k += j
                break
            k, w = min(w, count), 8 * w
        runs.append((off - n * stride, stride, k))
        off, n = off + k * stride, n + k
    bases, strides, counts = np.array(runs, dtype=np.int64).reshape(-1, 3).T
    row_stride = np.repeat(strides, counts)
    starts = np.repeat(bases, counts) + np.arange(n) * row_stride
    lengths = row_stride - (8 + size)
    # a row starts a new id where its run starts or its id differs from the row
    # before (length field and id compared as one fixed-width string, NULs kept)
    change = np.empty(n, dtype=bool)
    for stride in set(strides.tolist()):
        rows, width = np.flatnonzero(row_stride == stride), stride - 4 - size
        heads = np.ndarray((end + 1 - width,), f"S{width}", blob, 0, (1,))[starts[rows]]
        change[rows[1:]] = heads[1:] != heads[:-1]
    change[np.cumsum(counts) - counts] = True
    first_rows = np.flatnonzero(change)
    index: dict[str, int] = {}   # sample id -> its number
    try:
        numbers = [index.setdefault(blob[a + 4:a + 4 + m].decode("utf-8"), len(index))
                   for a, m in zip(starts[first_rows].tolist(), lengths[first_rows].tolist())]
        if off < end:   # a cut last row: its id length, ordinal and id, in that order
            sid_end = off + 4 + unpack(blob, off)[0]
            unpack(blob, sid_end)
            blob[off + 4:sid_end].decode("utf-8")
            raise DataError(f"{path}: corrupt feature file (the last row holds "
                            f"{end - sid_end - 4} of {size} value bytes)")
    except (struct.error, ValueError) as exc:
        raise DataError(f"{path}: corrupt feature file ({exc})") from None
    sids, ordinals = list(index), u32[starts + 4 + lengths]
    sample = np.array(numbers, dtype=np.int64)[np.cumsum(change) - 1]
    key = sample << 32 | ordinals
    order = np.argsort(key, kind="stable")
    key = key[order]   # by sample, ordinal, then row
    repeated = order[1:][key[1:] == key[:-1]]
    if repeated.size:
        i = int(repeated.min())
        raise DataError(f"{path}: duplicate feature row ({sids[sample[i]]!r}, {ordinals[i]})")
    at = starts + 8 + lengths
    values = (np.ndarray((n, d_vis), "<f4", blob, int(at[0]), (runs[0][1], 4)) if len(runs) == 1
              else np.ndarray((max(0, end + 1 - size), d_vis), "<f4", blob, 0, (1, 4))[at])
    values.flags.writeable = False
    if not np.isfinite(values).all():
        _require_finite(path, [(sids[s], o) for s, o in zip(sample.tolist(), ordinals.tolist())],
                        values)
    views = np.fromiter(values, dtype=object, count=n)[order].tolist()   # in key order
    sizes = np.bincount(sample)   # rows per sample
    bounds = [0, *sizes.cumsum().tolist()]
    table = {sid: views[a:b] for sid, a, b in zip(sids, bounds, bounds[1:])}
    # a sample with a gap in its ordinals keeps them, for read_container's message
    for i in np.flatnonzero(key[sizes.cumsum() - 1] & 0xFFFFFFFF != sizes - 1).tolist():
        a, b = bounds[i], bounds[i + 1]
        table[sids[i]] = dict(zip((key[a:b] & 0xFFFFFFFF).tolist(), views[a:b]))
    return d_vis, table


def read_container(path: str | Path, decode: Callable[[dict, list[np.ndarray]], R]) -> list[R]:
    """Read a container, building each record with ``decode(obj, features)``.

    The container checks what every record kind shares: the header, the
    ``d_vis`` match, unique sample ids, consecutive feature ordinals per
    record (``read_feature_file`` gives such a record its list of rows, any
    other one a dict), each record's image against the header and no feature
    rows without a record.  ``decode`` builds and checks one record; the errors
    malformed JSON values raise in it (KeyError, TypeError, ValueError and
    kin) become a DataError naming ``file:line``, as does a refused image.
    Every message is formatted only on failure.
    """
    path = Path(path)
    _require(path.exists(), "%s: no such file", path)
    fpath = feature_path(path)
    _require(fpath.exists(), "%s: companion feature file missing", fpath)
    feat_d_vis, table = read_feature_file(fpath)

    records: list[R] = []
    seen: set[str] = set()
    header: DatasetHeader | None = None
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if header is None:
                header = _parse_header(line, f"{path}:{lineno}")
                _require(header.d_vis == feat_d_vis,
                         "%s: header d_vis %s != feature file d_vis %s",
                         path, header.d_vis, feat_d_vis)
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed JSON ({exc})") from None
            # json.loads makes exact dicts and strs: a valid line makes no call
            if type(obj) is not dict:
                raise DataError(f"{path}:{lineno}: record is not a JSON object")
            sid = obj.get("sample_id")
            if type(sid) is not str:
                raise DataError(f"{path}:{lineno}: sample_id missing or not a string")
            if sid in seen:
                raise DataError(f"{path}:{lineno}: duplicate sample_id {sid!r}")
            seen.add(sid)
            features = table.pop(sid, [])
            if type(features) is dict:
                raise DataError(f"{path}:{lineno}: feature ordinals for {sid} are not consecutive")
            try:
                record = decode(obj, features)
                record.image.validate(header)
                records.append(record)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: missing field {exc}") from None
            except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed record ({exc})") from None
    _require(header is not None, "%s: empty file, missing header", path)
    _require(not table, "%s: feature rows for %s have no record", fpath, sorted(table)[:3])
    return records


def read_header(path: str | Path) -> DatasetHeader:
    with open(path, "rb") as fh:
        return _parse_header(fh.readline(), f"{path}:1")


def _parse_header(line: bytes, where: str) -> DatasetHeader:
    """``DatasetHeader(**fields)`` of the JSON object on ``line``, its integer
    ``format_version`` popped; a field it leaves out is not defaulted."""
    try:
        fields = json.loads(line)
        version = fields.pop("format_version")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{where}: bad dataset header ({exc})") from None
    names = DatasetHeader.__dataclass_fields__
    for name in names:
        _require(name in fields, "%s: bad dataset header (%r)", where, name)
    _require(len(fields) == len(names), "%s: unknown header keys %s",
             where, sorted(fields.keys() - names))
    json_value(version, int, f"{where}: format_version")
    _require(version == FORMAT_VERSION,
             f"{where}: unsupported format_version {version} (expected {FORMAT_VERSION})")
    header = DatasetHeader(**fields)
    _check_header(header, where)
    return header


def _check_header(header: DatasetHeader, where: str) -> None:
    """Refuse a ``d_vis`` or cap that is not a JSON integer, a threshold that is not
    a number or lies outside [0, 1] (NaN included) or a negative cap, naming the field."""
    json_value(header.d_vis, int, f"{where}: d_vis")
    threshold = json_value(header.objectness_threshold, float, f"{where}: objectness_threshold")
    cap = json_value(header.max_context_objects, int, f"{where}: max_context_objects")
    _require(0 <= threshold <= 1,
             "%s: objectness_threshold %s outside [0, 1]", where, threshold)
    _require(cap >= 0, "%s: max_context_objects %s is negative", where, cap)


def write_dataset(samples: Sequence[Sample], path: str | Path,
                  header: DatasetHeader | None = None) -> None:
    """Write samples plus their companion feature file.

    Every sample is validated before anything touches the disk; an invalid
    input therefore leaves no partial output behind.
    """
    for sample in samples:
        sample.validate()
    write_container(path, samples, sample_to_json, header)


def read_dataset(path: str | Path, strict: bool = True) -> list[Sample]:
    """Load a dataset; raises DataError naming the offending line or sample.

    ``strict=False`` skips the pipeline-filter invariants so that pre-filter
    material can be loaded for the ``filter`` stage; structural invariants
    (boxes, labels in range, feature dimensions) are always enforced.
    """
    def decode(obj: dict, features: list[np.ndarray]) -> Sample:
        sample = sample_from_json(obj, features)
        sample.validate(strict=strict)
        return sample

    return read_container(path, decode)


def write_qa_corpus(corpus: Sequence[QAPair], path: str | Path,
                    header: DatasetHeader | None = None) -> None:
    write_container(path, corpus, qa_to_json, header)


def read_qa_corpus(path: str | Path) -> list[QAPair]:
    return read_container(path, qa_from_json)


# ---------------------------------------------------------------------------
# statistics


def dataset_stats(samples: Sequence[Sample]) -> dict:
    """Corpus-level counts as a JSON-ready dict; permutation-invariant over the
    sample list.  Means over no samples are None."""
    hist = Counter(s.commonsense_type.value for s in samples)
    images: dict[str, int] = {}
    for s in samples:
        images.setdefault(s.image.image_id, s.image.n_persons)
    n_links = sum(len(s.labels) for s in samples)
    n = len(samples)
    return {
        "n_samples": n,
        "n_images": len(images),
        "n_links": n_links,
        "mean_tokens": (sum(len(s.tokens) for s in samples) / n) if n else None,
        "mean_persons_per_image": (sum(images.values()) / len(images)) if images else None,
        "mean_links_per_description": (n_links / n) if n else None,
        "type_histogram": dict(sorted(hist.items())),
    }
