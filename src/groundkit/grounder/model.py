"""The grounding model.

Input layout per sample is one flat sequence: substituted text tokens first,
then one token per candidate person, then one per context object.  Person
links are replaced by neutral first names drawn deterministically per
(sample_id, seed); each link is represented by the word token of its
substituted name.  Region tokens are LN(feature projection + location
projection) and carry no position embedding; text tokens are
LN(word embedding + position embedding).

Scoring is bilinear between final-layer link features and final-layer person
features; the auxiliary contrastive objective reads an earlier hidden layer
and pulls a link toward its ground-truth person plus that person's
IoU-selected context objects, away from the other persons, with the positive
terms weighted by IoU against the ground-truth box.

Samples run in batches: their sequences are zero-padded to a common length
``L`` into one ``[B, L, d]`` tensor, a key-padding mask keeps attention off
the padding, and the losses gather link, person and context-object rows by
flat index (``b * L`` plus the position within sample ``b``, added to whole
arrays of positions), so one forward and one backward pass serve the batch.

Everything about a sample that no parameter touches (the vocabulary ids of
its substituted words, its region feature and location rows and, for
training, its contrastive sets) is a ``SampleLayout``, made by
``GroundingModel.prepare``, which lays out all regions of its call in one
array pass.  The batch entry points (``embed``, ``forward``, ``loss_terms``,
``batch_loss``) take layouts only: training prepares each sample once and
reuses its layout on every visit.  ``predict`` takes samples
and prepares them all once.  Training and ``predict`` both run their layouts
in the passes ``forward_passes`` cuts: sorted by sequence length, near-equal
in tokens, about ``SUB_BATCH`` samples each.  The per-sample entry points take
one sample and run a batch of one.  The contrastive weight is ``config.lam``.

Training and ``predict`` run a pass under ``nc.deferred_checks`` and check
only its loss or scores; ``replay_pass`` runs a failing pass again with the
per-op checks on.  ``forward``, ``link_scores`` and ``loss_terms`` name the
part of the model a NumericError came from (``embed``,
``classification_logits``, ``loss_cls``, ``loss_con``; ``encode`` names
``enc.layer<i>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, NoReturn, Sequence, get_type_hints

import numpy as np

from .. import numcore as nc
from ..core import (ContextObject, DataError, PersonBox, PersonLink, Prediction, Sample,
                    Token, Word, person_link_ids, read_text, replace_file, stable_rng)
from ..geometry import T1, T2, iou, location_feature
from ..numcore.encoder import (EncoderConfig, ParamTable, encoder_param_table,
                               init_params, layer_from_last)

UNK_TOKEN = "<unk>"

# one lowercase word each, so that a substituted link is one text token
DEFAULT_NEUTRAL_NAMES = (
    "james", "mary", "john", "patricia", "robert", "jennifer", "michael",
    "linda", "david", "elizabeth", "william", "barbara", "richard", "susan",
    "joseph", "jessica",
)
# text tokens a sample may hold: the rows of the position embedding
MAX_TEXT_LEN = 64


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 4
    d_ff: int = 256
    d_vis: int = 32
    tau: float = 0.07
    lam: float = 1.0
    contrast_layer: int = 3
    seed: int = 0
    use_context_objects: bool = True

    def __post_init__(self) -> None:
        # written as "not 0 < x < inf" so that NaN is refused too
        if not 0 < self.tau < np.inf:
            raise ValueError("temperature must be positive and finite")
        if not 0 <= self.lam < np.inf:
            raise ValueError("contrastive weight must be >= 0 and finite")
        self.encoder  # refuses sizes below 1 and heads that do not divide d_model
        if self.d_vis < 1:
            raise ValueError("d_vis must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 1 <= self.contrast_layer <= self.n_layers:
            raise ValueError(f"contrast_layer {self.contrast_layer} outside "
                             f"1..{self.n_layers}")

    @property
    def encoder(self) -> EncoderConfig:
        return EncoderConfig(d_model=self.d_model, n_heads=self.n_heads,
                             n_layers=self.n_layers, d_ff=self.d_ff)

    def to_file(self, path: str | Path) -> None:
        """Write the fields as ``key = value`` lines, sorted by key, through a temp file."""
        values = {_FILE_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        lines = [f"{key} = {value}" for key, value in sorted(values.items())]
        replace_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


@dataclass(frozen=True)
class TrainSchedule:
    steps: int = 300
    lr: float = 6e-5
    token_budget: int = 4000
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        # written as "not ..." so that NaN is refused too
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 < self.lr < np.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.token_budget < 1:
            raise ValueError("token budget must be >= 1")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("weight decay must be >= 0 and finite")


# ---------------------------------------------------------------------------
# config files: flat ``key = value`` lines, '#' starts a comment.  The keys are
# the fields of ModelConfig and TrainSchedule; each value is parsed by its
# field's type.

# field name -> file key, where the two differ
_FILE_KEYS = {"lam": "lambda"}


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_PARSERS = {int: int, float: float, bool: _parse_bool}

# retired keys: the parser, the one value that still loads (every config.cfg
# written before the key's retirement holds it) and why no other does
_RETIRED_KEYS = {
    "normalize_similarity": (_parse_bool, False, "similarities are dot products"),
    "neutral_names": (str, ",".join(DEFAULT_NEUTRAL_NAMES), "the name pool is fixed"),
    "max_text_len": (int, MAX_TEXT_LEN, f"texts hold at most {MAX_TEXT_LEN} tokens"),
    "t1": (float, T1, f"the IoU thresholds are fixed at {T1} and {T2}"),
    "t2": (float, T2, f"the IoU thresholds are fixed at {T1} and {T2}"),
}


def read_config(path: str | Path) -> tuple[ModelConfig, TrainSchedule]:
    """Read one config file into a ModelConfig and a TrainSchedule.

    Fields the file leaves out keep their defaults.  An unknown or repeated
    key, a value its field's type cannot parse, or an invalid config is a
    DataError.  A retired key is skipped when it holds the one value it still
    loads with and is a DataError otherwise.
    """
    schema = {}
    for cls in (ModelConfig, TrainSchedule):
        types = get_type_hints(cls)
        for f in fields(cls):
            schema[_FILE_KEYS.get(f.name, f.name)] = (cls, f.name, _PARSERS[types[f.name]])
    kwargs: dict[type, dict[str, object]] = {ModelConfig: {}, TrainSchedule: {}}
    seen: dict[str, int] = {}   # key -> the line it was first on
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise DataError(f"{where}: expected 'key = value'")
        if key in seen:
            raise DataError(f"{where}: config key {key!r} repeated (first on line {seen[key]})")
        seen[key] = lineno
        if key in _RETIRED_KEYS:
            parse, kept, reason = _RETIRED_KEYS[key]
            try:
                loads = parse(value) == kept
            except ValueError:
                loads = False
            if not loads:
                raise DataError(f"{where}: {key} = {value} is no longer supported ({reason})")
            continue
        if key not in schema:
            raise DataError(f"{where}: unknown config key {key!r}")
        cls, name, parse = schema[key]
        try:
            kwargs[cls][name] = parse(value)
        except ValueError as exc:
            raise DataError(f"{where}: bad value for {key!r} ({exc})") from None
    try:
        return ModelConfig(**kwargs[ModelConfig]), TrainSchedule(**kwargs[TrainSchedule])
    except ValueError as exc:
        raise DataError(f"{path}: invalid config ({exc})") from None


# ---------------------------------------------------------------------------
# neutral-name substitution


def substitute_neutral_names(tokens: Sequence[Token], seed: int,
                             sample_id: str) -> tuple[list[str], dict[int, int]]:
    """Replace person links with distinct names from ``DEFAULT_NEUTRAL_NAMES``,
    one word each.

    Returns the lowercase word list and a map from link id to the position of
    its substituted name.  The draw is without replacement and deterministic
    per (sample_id, seed); a repeated link id reuses its name, and its map
    entry points at the first occurrence.
    """
    link_ids = person_link_ids(tokens)
    if len(link_ids) > len(DEFAULT_NEUTRAL_NAMES):
        raise DataError(f"{sample_id}: {len(link_ids)} links exceed "
                        f"name pool of {len(DEFAULT_NEUTRAL_NAMES)}")
    rng = stable_rng(seed, sample_id)
    order = rng.permutation(len(DEFAULT_NEUTRAL_NAMES))
    assigned = {link: DEFAULT_NEUTRAL_NAMES[order[i]] for i, link in enumerate(link_ids)}

    words: list[str] = []
    positions: dict[int, int] = {}
    for token in tokens:
        if isinstance(token, PersonLink):
            if token.link_id not in positions:
                positions[token.link_id] = len(words)
            words.append(assigned[token.link_id])
        elif isinstance(token, Word):
            words.append(token.lower())
        else:
            raise DataError(f"{sample_id}: object link present at embed time")
    return words, positions


# ---------------------------------------------------------------------------
# encoded batch and contrastive sets

# Samples per forward/backward pass, in training and in inference, before
# ``forward_passes`` cuts at equal token counts.  A pass pays a fixed cost
# per numpy call, whatever its size, so fewer, larger passes are faster; but
# a pass keeps every activation of its batch until backward, so its memory
# grows with its tokens.  At 32 the toy config's step (about 63 samples) is
# two passes of equal cost, one per CPU of a two-CPU machine.
SUB_BATCH = 32


@dataclass
class EncodedBatch:
    """Samples embedded as one padded ``[B, L, d]`` sequence (and optionally encoded).

    Row ``b`` holds sample ``b``, laid out by ``layouts[b]`` (text, then
    persons, then objects) from position 0; the positions after it are zero
    padding, False in ``mask``.  Positions count within a sample: position
    ``p`` of sample ``b`` is flat row ``offsets()[b] + p`` of a ``[B, L, d]`` state.
    """

    sequence: nc.Tensor
    mask: np.ndarray
    layouts: Sequence[SampleLayout]
    hidden: list[nc.Tensor] = field(default_factory=list)

    def offsets(self) -> np.ndarray:
        return np.arange(len(self.layouts)) * self.mask.shape[1]

    def links(self) -> list[tuple[int, int]]:
        """``(sample index, link id)`` of every link, by sample, then by link id."""
        return [(b, link) for b, layout in enumerate(self.layouts)
                for link in sorted(layout.link_positions)]


def select_context_objects(sample: Sample) -> list[tuple[list[int], list[float]]]:
    """One ``(objects, ious)`` per link, in ``sample.link_ids`` order: the
    indices of the context objects tied to the link's ground-truth person and
    each one's IoU with that person's box.

    An object qualifies when its IoU with the GT person box exceeds ``T1``
    while its best IoU against every other person box stays below ``T2``.
    """
    persons = sample.image.persons
    per_link = []
    for link_id in sample.link_ids:
        gt = sample.labels[link_id]
        objects, weights = [], []
        for idx, obj in enumerate(sample.image.context_objects):
            overlap_gt = iou(obj.box, persons[gt].box)
            if overlap_gt <= T1:
                continue
            if max((iou(obj.box, p.box) for p in persons if p.index != gt),
                   default=0.0) >= T2:
                continue
            objects.append(idx)
            weights.append(overlap_gt)
        per_link.append((objects, weights))
    return per_link


@dataclass(frozen=True, slots=True)
class SampleLayout:
    """One sample's parameter-free model inputs, prepared once and reused.

    ``features`` and ``locations`` hold one row per region in sequence order
    (persons, then the context objects the config keeps), in the parameters'
    dtype: each is the sample's view of the one block that ``prepare`` made
    for all the samples of its call.  ``sets`` is None unless the layout was
    prepared for the contrastive loss; then it holds one ``(anchor,
    candidates, weights)`` per link, in sequence positions: the link's token,
    an ``intp`` array of its positives (the ground-truth person, then its
    context objects in the sequence) followed by the other persons in index
    order, and the positives' float64 weights: 1 for the ground-truth person,
    then each object's IoU with its box.
    """

    link_positions: dict[int, int]
    labels: dict[int, int]
    word_ids: np.ndarray         # [T] vocabulary ids of the substituted words
    n_persons: int
    features: np.ndarray         # [R, d_vis]
    locations: np.ndarray        # [R, 7]
    sets: list[tuple[int, np.ndarray, np.ndarray]] | None = None

    @property
    def persons(self) -> range:
        """Sequence positions of the candidate persons, right after the text."""
        return range(len(self.word_ids), len(self.word_ids) + self.n_persons)


def _feature_block(samples: Sequence[Sample],
                   regions: Sequence[Sequence[PersonBox | ContextObject]],
                   d_vis: int, dtype) -> np.ndarray:
    """The feature rows of ``regions`` (one list per sample) as one
    ``[R, d_vis]`` array of ``dtype``.  A row of another shape is a DataError
    naming the first such row's sample."""
    rows = [r.feature for rs in regions for r in rs]
    try:
        block = np.array(rows, dtype=dtype)
    except ValueError:  # rows of different shapes
        block = None
    if block is None or block.shape != (len(rows), d_vis):
        for sample, rs in zip(samples, regions):
            for r in rs:
                if np.shape(r.feature) != (d_vis,):
                    raise DataError(f"{sample.sample_id}: feature row of shape "
                                    f"{np.shape(r.feature)}, expected d_vis={d_vis}")
        # every row has d_vis entries: there are no rows, or a value is no
        # number and this raises its ValueError
        block = np.array(rows, dtype=dtype).reshape(len(rows), d_vis)
    return block


def sequence_length(layout: SampleLayout) -> int:
    """Tokens the sample takes in the input sequence: text, then regions."""
    return len(layout.word_ids) + len(layout.features)


def pass_count(n: int) -> int:
    """The passes ``forward_passes`` cuts ``n >= 1`` layouts into, about one
    per ``SUB_BATCH`` layouts; it never falls as ``n`` grows."""
    return max(1, round(n / SUB_BATCH))


def forward_passes(layouts: Sequence[SampleLayout]) -> list[list[int]]:
    """Positions in ``layouts`` of each forward pass, shortest sequences first.

    The positions are sorted by ``(sequence_length, position)``, so each
    pass pads to a near neighbour's length, and cut into ``pass_count(n)``
    non-empty passes of near-equal tokens: cut ``j`` follows the first
    position at which the running sum of ``sequence_length`` reaches ``j/k``
    of the total, so each pass's tokens lie within one longest sequence of
    the total over ``k``.  Short sequences come first, so the first passes
    hold the most samples; a batch of one pass holds at most about 1.5
    ``SUB_BATCH``.  The cut depends on the layouts alone.  No layouts make
    no pass.
    """
    if not layouts:
        return []
    lengths = [sequence_length(layout) for layout in layouts]
    order = sorted(range(len(layouts)), key=lambda i: (lengths[i], i))
    n, k = len(order), pass_count(len(order))
    sums = np.cumsum([lengths[i] for i in order])
    # cut j: after the sample at which the running sum reaches j/k of the
    # tokens, but early enough to leave each later pass a sample
    cuts = [0] + [min(int(np.searchsorted(k * sums, j * sums[-1])) + 1, n - k + j)
                  for j in range(1, k)] + [n]
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def replay_pass(run: Callable[[], object]) -> NoReturn:
    """Run a pass whose output check failed again, outside
    ``nc.deferred_checks``, so that the op making its first non-finite value
    raises its NumericError."""
    run()
    raise nc.NumericError("non-finite pass output that no op made")


# ---------------------------------------------------------------------------
# losses


def loss_cls(q: nc.Tensor, labels: Sequence[int], mask: np.ndarray,
             weights: Sequence[float]) -> nc.Tensor:
    """Weighted cross-entropy of each logit row against its labeled column.

    ``mask`` hides padding columns; ``weights`` holds one coefficient per row.
    """
    if q.data.ndim != 2 or not labels or len(labels) != q.data.shape[0]:
        raise nc.NumericError(f"logits {q.data.shape} do not match {len(labels)} labels")
    coef = np.zeros(q.data.shape)
    coef[np.arange(len(labels)), labels] = weights
    return nc.dot_const(nc.log_softmax(q, mask=mask), -coef)


def contrastive_loss_from_features(feats: nc.Tensor,
                                   anchors: Sequence[int],
                                   candidates: Sequence[Sequence[int]],
                                   weights: Sequence[Sequence[float]],
                                   tau: float) -> nc.Tensor:
    """Contrastive terms of several links on one ``[..., d]`` feature state.

    Link ``i`` compares flat row ``anchors[i]`` with its rows ``candidates[i]``
    (positives and negatives alike) by dot product over ``tau``.  The
    log-softmax over its candidates is read at the first ones with the
    coefficients ``weights[i]`` and at the rest with 0, and the weighted sum
    over all links is negated.  Candidate lists may differ in length.
    """
    if not 0 < tau < np.inf:
        raise nc.NumericError(f"temperature must be positive and finite, got {tau}")
    n_cols = np.array([len(c) for c in candidates])
    columns = np.arange(n_cols.max())
    mask = columns < n_cols[:, None]
    cols = np.zeros(mask.shape, dtype=np.intp)
    cols[mask] = np.concatenate(candidates)
    coef = np.zeros(mask.shape)
    coef[columns < np.array([len(w) for w in weights])[:, None]] = np.concatenate(weights)
    sims = nc.gather_dot(feats, feats, anchors, cols)
    logp = nc.log_softmax(nc.scale(sims, 1.0 / tau), mask=mask)
    return nc.dot_const(logp, -coef)


def loss_con(encoded: EncodedBatch, tau: float, contrast_layer: int) -> nc.Tensor:
    """IoU-weighted context contrastive loss over the layouts' ``sets``: the
    mean over each sample's links, then over the samples.

    A link's positives (its ground-truth person, then its context objects)
    share the link's part of the mean by their IoU weights.
    """
    feats = layer_from_last(encoded.hidden, contrast_layer)
    anchors: list[int] = []
    candidates: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for offset, layout in zip(encoded.offsets(), encoded.layouts):
        for anchor, positions, iou_weights in layout.sets:
            share = 1.0 / (len(iou_weights) * len(layout.sets) * len(encoded.layouts))
            anchors.append(offset + anchor)
            candidates.append(offset + positions)
            weights.append(iou_weights * share)
    return contrastive_loss_from_features(feats, anchors, candidates, weights, tau)


def classification_logits(encoded: EncodedBatch, w1: nc.Tensor,
                          w2: nc.Tensor) -> tuple[nc.Tensor, np.ndarray]:
    """``[K, N_max]`` bilinear scores of every link token against its sample's persons.

    Rows follow ``encoded.links()``.  The returned mask is False on the
    columns past a sample's person count, whose scores mean nothing.
    Context objects never enter the classifier.
    """
    final = encoded.hidden[-1]
    links = encoded.links()
    layouts = encoded.layouts
    sample = [b for b, _link in links]
    offsets = encoded.offsets()[sample]
    rows = offsets + [layouts[b].link_positions[link] for b, link in links]
    first = offsets + np.array([x.persons.start for x in layouts])[sample]
    n_persons = np.array([x.n_persons for x in layouts])[sample]
    mask = np.arange(n_persons.max()) < n_persons[:, None]
    cols = np.where(mask, first[:, None] + np.arange(mask.shape[1]), 0)
    return nc.gather_dot(nc.linear(final, w1), nc.linear(final, w2), rows, cols), mask


# ---------------------------------------------------------------------------
# the model


class GroundingModel:
    """Parameters plus vocabulary for the grounding network."""

    def __init__(self, config: ModelConfig, params: dict[str, nc.Tensor],
                 vocab: dict[str, int]):
        self.config = config
        self.params = params
        self.vocab = vocab

    # -- construction ------------------------------------------------------

    @staticmethod
    def param_table(config: ModelConfig, vocab_size: int) -> ParamTable:
        """Name, shape and initialisation of every parameter, in draw order."""
        d = config.d_model
        return encoder_param_table(config.encoder) + [
            ("embed.word", (vocab_size, d), "normal"),
            ("embed.pos", (MAX_TEXT_LEN, d), "normal"),
            ("embed.feat.w", (config.d_vis, d), "normal"),
            ("embed.feat.b", (d,), "zeros"),
            ("embed.loc.w", (7, d), "normal"),
            ("embed.loc.b", (d,), "zeros"),
            ("embed.text_ln.gain", (d,), "ones"),
            ("embed.text_ln.bias", (d,), "zeros"),
            ("embed.region_ln.gain", (d,), "ones"),
            ("embed.region_ln.bias", (d,), "zeros"),
            ("cls.w1", (d, d), "normal"),
            ("cls.w2", (d, d), "normal"),
        ]

    @classmethod
    def init(cls, config: ModelConfig, vocab: Mapping[str, int],
             dtype=np.float32) -> "GroundingModel":
        params = init_params(cls.param_table(config, len(vocab)),
                             np.random.default_rng(config.seed), dtype)
        return cls(config, params, dict(vocab))

    # -- forward -----------------------------------------------------------

    def prepare(self, samples: Sequence[Sample], contrast: bool = False) -> list[SampleLayout]:
        """Each sample's ``SampleLayout``, with its contrastive sets if ``contrast``.

        A feature row whose length is not ``d_vis``, then a text longer than
        ``MAX_TEXT_LEN``, is a DataError naming the first sample holding one.
        """
        cfg = self.config
        dtype = self.params["embed.feat.w"].data.dtype
        unk = self.vocab.get(UNK_TOKEN, 0)
        regions = [s.image.persons + s.image.context_objects if cfg.use_context_objects
                   else s.image.persons for s in samples]
        features = _feature_block(samples, regions, cfg.d_vis, dtype)
        # one row per region: its box, then its image's width and height
        rows = np.array([(b.x1, b.y1, b.x2, b.y2, s.image.width, s.image.height)
                         for s, rs in zip(samples, regions) for b in (r.box for r in rs)],
                        dtype=np.float64).reshape(-1, 6)
        locations = location_feature(rows[:, :4], rows[:, 4], rows[:, 5]).astype(dtype)
        layouts, stop = [], 0
        for sample, rs in zip(samples, regions):
            words, link_positions = substitute_neutral_names(
                sample.tokens, cfg.seed, sample.sample_id)
            if len(words) > MAX_TEXT_LEN:
                raise DataError(f"{sample.sample_id}: {len(words)} text tokens exceed "
                                f"max_text_len {MAX_TEXT_LEN}")
            start, stop = stop, stop + len(rs)
            sets = None
            if contrast:
                sets = []
                persons = range(len(words), len(words) + sample.image.n_persons)
                for link_id, (objects, weights) in zip(sample.link_ids,
                                                       select_context_objects(sample)):
                    # objects absent from the input sequence have no position,
                    # so the positives shrink to the ground-truth person alone
                    kept = objects if cfg.use_context_objects else []
                    gt = persons[sample.labels[link_id]]
                    sets.append((link_positions[link_id],
                                 np.array([gt] + [persons.stop + c for c in kept]
                                          + [p for p in persons if p != gt], dtype=np.intp),
                                 np.array([1.0] + weights[:len(kept)], dtype=np.float64)))
            layouts.append(SampleLayout(
                link_positions=link_positions, labels=sample.labels,
                word_ids=np.array([self.vocab.get(w, unk) for w in words], dtype=np.intp),
                n_persons=sample.image.n_persons, features=features[start:stop],
                locations=locations[start:stop], sets=sets))
        return layouts

    def embed(self, layouts: Sequence[SampleLayout]) -> EncodedBatch:
        """Embed ``layouts`` into one zero-padded ``[B, L, d]`` sequence."""
        p = self.params
        lengths = [sequence_length(layout) for layout in layouts]
        width = max(lengths)
        # the real positions of each row, then those of its text: the rest are regions
        mask = np.arange(width) < np.array(lengths)[:, None]
        is_text = np.arange(width) < np.array([len(x.word_ids) for x in layouts])[:, None]

        text = nc.add_layer_norm(
            nc.gather_rows(p["embed.word"], np.concatenate([x.word_ids for x in layouts])),
            nc.gather_rows(p["embed.pos"], np.nonzero(is_text)[1]),
            p["embed.text_ln.gain"], p["embed.text_ln.bias"])
        region = nc.add_layer_norm(
            nc.linear(nc.Tensor(np.concatenate([x.features for x in layouts])),
                      p["embed.feat.w"], p["embed.feat.b"]),
            nc.linear(nc.Tensor(np.concatenate([x.locations for x in layouts])),
                      p["embed.loc.w"], p["embed.loc.b"]),
            p["embed.region_ln.gain"], p["embed.region_ln.bias"])
        sequence = nc.scatter_rows(
            [text, region], np.concatenate([np.flatnonzero(is_text),
                                            np.flatnonzero(mask & ~is_text)]),
            (len(layouts), width, self.config.d_model))
        return EncodedBatch(sequence=sequence, mask=mask, layouts=layouts)

    def forward(self, layouts: Sequence[SampleLayout]) -> EncodedBatch:
        with nc.located("embed"):
            encoded = self.embed(layouts)
        encoded.hidden = nc.encode(encoded.sequence, self.config.encoder, self.params,
                                   mask=encoded.mask)
        return encoded

    def link_scores(self, encoded: EncodedBatch) -> tuple[nc.Tensor, np.ndarray]:
        """``classification_logits`` of ``encoded`` under the model's classifier."""
        with nc.located("classification_logits"):
            return classification_logits(encoded, self.params["cls.w1"], self.params["cls.w2"])

    # -- losses / inference -------------------------------------------------

    def loss_terms(self, layouts: Sequence[SampleLayout]
                   ) -> tuple[nc.Tensor, nc.Tensor | None]:
        """Batch means of ``L_cls`` and, when the layouts carry contrastive
        sets (``prepare(..., contrast=True)``), of ``L_con``; else None.

        Each sample's terms are means over its own links, so every sample
        weighs the same whatever its link count.  A batch mixing layouts with
        and without sets is a ValueError.
        """
        cfg = self.config
        contrast = layouts[0].sets is not None
        if any((layout.sets is not None) != contrast for layout in layouts):
            raise ValueError("layouts mix prepare(..., contrast=True) and contrast=False")
        encoded = self.forward(layouts)
        q, mask = self.link_scores(encoded)
        links = encoded.links()
        labels = [layouts[b].labels[link] for b, link in links]
        weights = [1.0 / (len(layouts) * len(layouts[b].link_positions)) for b, _ in links]
        with nc.located("loss_cls"):
            cls_term = loss_cls(q, labels, mask=mask, weights=weights)
        if not contrast:
            return cls_term, None
        with nc.located("loss_con"):
            return cls_term, loss_con(encoded, cfg.tau, cfg.contrast_layer)

    def batch_loss(self, layouts: Sequence[SampleLayout]) -> nc.Tensor:
        """Mean over ``layouts`` of ``L_cls + lam * L_con`` (``lam`` from the
        config), from one forward pass.  With ``lam`` not 0 the layouts must
        carry their contrastive sets."""
        lam = self.config.lam
        cls_term, con_term = self.loss_terms(layouts)
        if lam == 0.0:
            return cls_term
        if con_term is None:
            raise ValueError("the contrastive loss needs layouts prepared with contrast=True")
        return nc.add(cls_term, nc.scale(con_term, lam))

    def predict(self, samples: Sequence[Sample]) -> list[Prediction]:
        """Predictions in input order.

        The samples are prepared once and run in ``forward_passes`` order:
        each pass pads to its longest sample only, and padding never reaches
        a real position's scores.  A pass runs under ``nc.deferred_checks``
        and its ``[K, N]`` scores are checked once; if they are not finite,
        ``replay_pass`` runs it again with the per-op checks on, and the
        NumericError names the op, the part of the model it ran in and the
        pass's sample ids.
        """
        layouts = self.prepare(samples)
        scores: list[dict[int, np.ndarray]] = [{} for _ in layouts]
        with np.errstate(all="ignore"):
            for positions in forward_passes(layouts):
                chunk = [layouts[i] for i in positions]
                ids = ", ".join(samples[i].sample_id for i in positions)
                with nc.located(f"the pass over samples {ids}"):
                    with nc.deferred_checks():
                        encoded = self.forward(chunk)
                        q, _mask = self.link_scores(encoded)
                    if not np.isfinite(q.data).all():
                        replay_pass(lambda: self.link_scores(self.forward(chunk)))
                for k, (b, link) in enumerate(encoded.links()):
                    scores[positions[b]][link] = q.data[k, :chunk[b].n_persons].copy()
        return [Prediction.from_scores(s) for s in scores]

    # batches of one: no caller in this package uses them; they stay because
    # bench/tracing.py patches them, until the tracer moves to the batched methods

    def embed_sample(self, sample: Sample) -> EncodedBatch:
        return self.embed(self.prepare([sample]))

    def sample_loss(self, sample: Sample) -> nc.Tensor:
        return self.batch_loss(self.prepare([sample], contrast=self.config.lam != 0.0))

    def predict_sample(self, sample: Sample) -> Prediction:
        return self.predict([sample])[0]
