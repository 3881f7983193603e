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

A pass's samples are zero-padded to a common length ``L`` into one ``[B, L,
d]`` tensor, a key-padding mask keeps attention off the padding, and the
losses read link, person and object rows by flat index (``b * L`` plus the
position within sample ``b``), so one forward and one backward pass serve it.

``GroundingModel.prepare`` lays out, once, everything about its samples that
no parameter touches (word ids, region rows, link rows and, for training,
contrastive sets) as the flat columns of one ``Prepared``; ``Prepared.gather``
builds a pass's ``PassInputs`` from them with a fixed number of array
operations, whatever its sample count.  ``embed``, ``forward``, ``loss_terms``
and ``batch_loss`` take ``PassInputs``.  Training and ``predict`` run the
passes ``forward_passes`` cuts from the prepared lengths: sorted by length,
near-equal in tokens, about ``SUB_BATCH`` samples each.  The per-sample entry
points run a pass of one.  The contrastive weight is ``config.lam``.

Training and ``predict`` run a pass under ``nc.deferred_checks`` and check
only its loss or scores; ``replay_pass`` runs a failing pass again with the
per-op checks on.  ``forward``, ``link_scores`` and ``loss_terms`` name the
part of the model a NumericError came from (``embed``,
``classification_logits``, ``loss_cls``, ``loss_con``; ``encode`` names
``enc.layer<i>``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, NoReturn, Sequence, get_type_hints

import numpy as np

from .. import numcore as nc
from ..core import (ContextObject, DataError, PersonBox, PersonLink, Prediction, Sample,
                    Token, Word, person_link_ids, read_text, replace_file, stable_rngs)
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


@functools.cache
def _config_schema() -> dict[str, tuple[type, str, Callable[[str], object]]]:
    """File key -> (dataclass, field name, value parser), built once per process."""
    schema = {}
    for cls in (ModelConfig, TrainSchedule):
        types = get_type_hints(cls)
        for f in fields(cls):
            schema[_FILE_KEYS.get(f.name, f.name)] = (cls, f.name, _PARSERS[types[f.name]])
    return schema


def read_config(path: str | Path) -> tuple[ModelConfig, TrainSchedule]:
    """Read one config file into a ModelConfig and a TrainSchedule.

    Fields the file leaves out keep their defaults.  An unknown or repeated
    key, a value its field's type cannot parse, or an invalid config is a
    DataError.  A retired key is skipped when it holds the one value it still
    loads with and is a DataError otherwise.
    """
    schema = _config_schema()
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


def substitute_neutral_names(tokens: Sequence[Token], rng: np.random.Generator,
                             sample_id: str) -> tuple[list[str], dict[int, int]]:
    """Replace person links with distinct names from ``DEFAULT_NEUTRAL_NAMES``,
    one word each.

    Returns the lowercase word list and a map from link id to the position of
    its substituted name.  The names are the first of one permutation of the
    pool drawn from ``rng``, which ``prepare`` seeds per (seed, sample_id)
    (``stable_rngs``); a repeated link id reuses its name, and its map entry
    points at the first occurrence.  ``sample_id`` names the sample in errors.
    """
    link_ids = person_link_ids(tokens)
    if len(link_ids) > len(DEFAULT_NEUTRAL_NAMES):
        raise DataError(f"{sample_id}: {len(link_ids)} links exceed "
                        f"name pool of {len(DEFAULT_NEUTRAL_NAMES)}")
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
# prepared columns and a pass's inputs

# Samples per forward/backward pass, in training and in inference, before
# ``forward_passes`` cuts at equal token counts.  A pass pays a fixed cost
# per numpy call, whatever its size, so fewer, larger passes are faster; but
# a pass keeps every activation of its batch until backward, so its memory
# grows with its tokens.  At 32 the toy config's step (about 63 samples) is
# two passes of equal cost, one per CPU of a two-CPU machine.
SUB_BATCH = 32


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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(start, start + count)`` over the pairs."""
    first = np.repeat(starts + counts - np.cumsum(counts), counts)
    return first + np.arange(first.size)


@dataclass(frozen=True)
class ContrastSets:
    """A ``Prepared`` set's contrastive sets, one row per link, by sample, then
    in ``sample.link_ids`` (text) order.  Row ``k``'s candidates are
    ``candidates[starts[k]:][:counts[k]]``: the ground-truth person, its
    objects in the sequence, then the other persons.  Beside them run the
    float64 ``weights``: 1, the objects' IoUs with its box, then 0."""

    anchors: np.ndarray       # [K] position of the link token
    n_positives: np.ndarray   # [K]
    starts: np.ndarray        # [K]
    counts: np.ndarray        # [K]
    candidates: np.ndarray    # [C]
    weights: np.ndarray       # [C]


@dataclass(frozen=True)
class PassInputs:
    """One pass's parameter-free inputs, gathered from a ``Prepared``.  Row
    ``b`` holds the pass's ``b``-th sample from position 0, then padding,
    False in ``mask``; its position ``p`` is flat row ``b * L + p``.  Link
    rows run by row, then by link id; contrastive rows by row, then in text
    order, and are None unless the samples were prepared with ``contrast``."""

    mask: np.ndarray             # [B, L]
    word_ids: np.ndarray         # [T] the text tokens' vocabulary ids, row by row
    text_positions: np.ndarray   # [T] each one's position: its position-embedding row
    token_rows: np.ndarray       # [T + R] flat rows of the text, then of the region tokens
    features: np.ndarray         # [R, d_vis]
    locations: np.ndarray        # [R, 7]
    link_sample: np.ndarray      # [K] the row of each link
    link_ids: np.ndarray         # [K]
    link_rows: np.ndarray        # [K] flat row of the link token
    person_rows: np.ndarray      # [K, N] flat rows of the row's persons, 0 past them
    person_mask: np.ndarray      # [K, N] True on the row's persons
    labels: np.ndarray           # [K]
    link_weights: np.ndarray     # [K] float64: 1 / (B * the row's link count)
    anchors: np.ndarray | None          # [S] flat row of each set's link token
    candidates: np.ndarray | None       # [S, C] flat rows of its candidates, 0 past them
    candidate_mask: np.ndarray | None   # [S, C]
    coef: np.ndarray | None             # [S, C] float64: IoU weight * 1/(positives*links*B)


@dataclass(frozen=True)
class Prepared:
    """One ``prepare`` call's inputs as columns.  Sample ``i`` is ``lengths[i]``
    tokens: ``text_len[i]`` words (ids from ``word_ids[text_start[i]]``), then
    ``n_persons[i]`` persons and the objects the config keeps (rows from
    ``region_start[i]`` of the blocks ``features`` and ``locations``, in the
    parameters' dtype).  Its links are the ``n_links[i]`` rows from
    ``link_start[i]`` of the link columns, by link id, and of ``sets``."""

    text_start: np.ndarray      # [n]
    text_len: np.ndarray        # [n]
    lengths: np.ndarray         # [n]
    n_persons: np.ndarray       # [n]
    region_start: np.ndarray    # [n]
    link_start: np.ndarray      # [n]
    n_links: np.ndarray         # [n]
    word_ids: np.ndarray        # [T]
    features: np.ndarray        # [R, d_vis]
    locations: np.ndarray       # [R, 7]
    link_ids: np.ndarray        # [K]
    link_positions: np.ndarray  # [K] position of the link token
    labels: np.ndarray          # [K] the ground-truth person's index
    sets: ContrastSets | None

    def gather(self, samples: Sequence[int] | None = None) -> PassInputs:
        """The inputs of a pass over ``samples`` (positions here; all, in
        order, if None), in a fixed number of array operations."""
        idx = np.arange(len(self.lengths)) if samples is None else np.asarray(samples, np.intp)
        n = len(idx)
        text_len = self.text_len[idx]
        columns = np.arange(self.lengths[idx].max())
        mask = columns < self.lengths[idx][:, None]
        is_text = columns < text_len[:, None]
        offsets = np.arange(n) * len(columns)
        tb, tp = np.nonzero(is_text)
        rb, rp = np.nonzero(mask & ~is_text)
        regions = (self.region_start[idx] - text_len)[rb] + rp
        n_links = self.n_links[idx]
        links = _ranges(self.link_start[idx], n_links)
        lb = np.repeat(np.arange(n), n_links)
        n_persons = self.n_persons[idx][lb]
        persons = np.arange(n_persons.max(initial=0))
        person_mask = persons < n_persons[:, None]
        person_rows = np.where(person_mask, (offsets[lb] + text_len[lb])[:, None] + persons, 0)
        anchors = candidates = candidate_mask = coef = None
        if (sets := self.sets) is not None:
            counts = sets.counts[links]
            flat = _ranges(sets.starts[links], counts)
            candidate_mask = np.arange(counts.max(initial=0)) < counts[:, None]
            candidates = np.zeros(candidate_mask.shape, dtype=np.intp)
            candidates[candidate_mask] = sets.candidates[flat] + np.repeat(offsets[lb], counts)
            coef = np.zeros(candidate_mask.shape)
            coef[candidate_mask] = sets.weights[flat] * np.repeat(
                1.0 / (sets.n_positives[links] * n_links[lb] * n), counts)
            anchors = offsets[lb] + sets.anchors[links]
        return PassInputs(
            mask=mask, word_ids=self.word_ids[self.text_start[idx][tb] + tp], text_positions=tp,
            token_rows=np.concatenate([offsets[tb] + tp, offsets[rb] + rp]),
            features=self.features[regions], locations=self.locations[regions],
            link_sample=lb, link_ids=self.link_ids[links],
            link_rows=offsets[lb] + self.link_positions[links], person_rows=person_rows,
            person_mask=person_mask, labels=self.labels[links],
            link_weights=1.0 / (n * n_links[lb]), anchors=anchors, candidates=candidates,
            candidate_mask=candidate_mask, coef=coef)


@dataclass
class EncodedBatch:
    """A pass's inputs embedded as one padded ``[B, L, d]`` sequence, then encoded."""

    sequence: nc.Tensor
    inputs: PassInputs
    hidden: list[nc.Tensor] = field(default_factory=list)


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


def pass_count(n: int) -> int:
    """The passes ``forward_passes`` cuts ``n >= 1`` samples into, about one
    per ``SUB_BATCH`` samples; it never falls as ``n`` grows."""
    return max(1, round(n / SUB_BATCH))


def forward_passes(lengths: np.ndarray) -> list[np.ndarray]:
    """Positions in ``lengths`` (samples' sequence lengths) of each forward
    pass, shortest first: sorted by ``(length, position)``, so each pass pads
    to a near neighbour's length, and cut into ``pass_count(n)`` non-empty
    passes: cut ``j`` follows the first position at which the running sum of
    lengths reaches ``j/k`` of the total, so each pass's tokens lie within one
    longest sequence of the total over ``k``; a batch of one pass holds at
    most about 1.5 ``SUB_BATCH``.  No lengths make no pass."""
    n = len(lengths)
    if not n:
        return []
    order = np.argsort(lengths, kind="stable")
    k = pass_count(n)
    sums = np.cumsum(np.asarray(lengths)[order])
    # cut j: after the sample at which the running sum reaches j/k of the
    # tokens, but early enough to leave each later pass a sample
    j = np.arange(1, k)
    cuts = [0] + np.minimum(np.searchsorted(k * sums, j * sums[-1]) + 1, n - k + j).tolist() + [n]
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
    if q.data.ndim != 2 or len(labels) == 0 or len(labels) != q.data.shape[0]:
        raise nc.NumericError(f"logits {q.data.shape} do not match {len(labels)} labels")
    coef = np.zeros(q.data.shape)
    coef[np.arange(len(labels)), labels] = weights
    return nc.dot_const(nc.log_softmax(q, mask=mask), -coef)


def loss_con(encoded: EncodedBatch, tau: float, contrast_layer: int) -> nc.Tensor:
    """IoU-weighted context contrastive loss over the pass's sets: the mean
    over each sample's links, then over the samples.  Each link token is
    compared with its candidates by dot product over ``tau`` on the
    ``contrast_layer`` state, and the log-softmax over them is read with the
    coefficients ``coef``: the positives (the ground-truth person, then its
    objects) share the link's part of the mean by IoU, the others weigh 0."""
    if not 0 < tau < np.inf:
        raise nc.NumericError(f"temperature must be positive and finite, got {tau}")
    feats, x = layer_from_last(encoded.hidden, contrast_layer), encoded.inputs
    sims = nc.gather_dot(feats, feats, x.anchors, x.candidates)
    return nc.dot_const(nc.log_softmax(nc.scale(sims, 1.0 / tau), mask=x.candidate_mask), -x.coef)


def classification_logits(encoded: EncodedBatch, w1: nc.Tensor,
                          w2: nc.Tensor) -> tuple[nc.Tensor, np.ndarray]:
    """``[K, N_max]`` bilinear scores of every link token against its sample's persons.

    Rows follow the pass's link rows.  The returned mask is False on the
    columns past a sample's person count, whose scores mean nothing.
    Context objects never enter the classifier.
    """
    final, x = encoded.hidden[-1], encoded.inputs
    return (nc.gather_dot(nc.linear(final, w1), nc.linear(final, w2), x.link_rows,
                          x.person_rows), x.person_mask)


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

    def prepare(self, samples: Sequence[Sample], contrast: bool = False) -> Prepared:
        """The columns of ``samples``, with their contrastive sets if ``contrast``.

        A feature row whose length is not ``d_vis``, then a text longer than
        ``MAX_TEXT_LEN``, is a DataError naming the first sample holding one.
        """
        cfg = self.config
        dtype = self.params["embed.feat.w"].data.dtype
        vocab, unk = self.vocab, self.vocab.get(UNK_TOKEN, 0)
        regions = [s.image.persons + s.image.context_objects if cfg.use_context_objects
                   else s.image.persons for s in samples]
        features = _feature_block(samples, regions, cfg.d_vis, dtype)
        # one row per region: its box, then its image's width and height
        rows = np.array([(b.x1, b.y1, b.x2, b.y2, s.image.width, s.image.height)
                         for s, rs in zip(samples, regions) for b in (r.box for r in rs)],
                        dtype=np.float64).reshape(-1, 6)
        locations = location_feature(rows[:, :4], rows[:, 4], rows[:, 5]).astype(dtype)
        word_ids: list[int] = []
        text_len, n_links, links, set_rows, candidates, weights = [], [], [], [], [], []
        for sample, rng in zip(samples, stable_rngs(cfg.seed, [s.sample_id for s in samples])):
            words, positions = substitute_neutral_names(sample.tokens, rng, sample.sample_id)
            if len(words) > MAX_TEXT_LEN:
                raise DataError(f"{sample.sample_id}: {len(words)} text tokens exceed "
                                f"max_text_len {MAX_TEXT_LEN}")
            word_ids += [vocab.get(w, unk) for w in words]
            text_len.append(len(words))
            n_links.append(len(positions))
            links += [(link, positions[link], sample.labels[link]) for link in sorted(positions)]
            if not contrast:
                continue
            persons = range(len(words), len(words) + sample.image.n_persons)
            for link_id, (objects, ious) in zip(sample.link_ids, select_context_objects(sample)):
                # objects absent from the input sequence have no position,
                # so the positives shrink to the ground-truth person alone
                kept = objects if cfg.use_context_objects else []
                gt = persons[sample.labels[link_id]]
                # the link token, its positives and its candidates
                set_rows.append((positions[link_id], 1 + len(kept), len(kept) + len(persons)))
                candidates += [gt, *(persons.stop + c for c in kept),
                               *(p for p in persons if p != gt)]
                weights += [1.0] + ious[:len(kept)] + [0.0] * (len(persons) - 1)
        text_len, n_links = np.array(text_len, dtype=np.intp), np.array(n_links, dtype=np.intp)
        n_regions = np.array([len(rs) for rs in regions], dtype=np.intp)
        link_ids, link_positions, labels = np.array(links, dtype=np.intp).reshape(-1, 3).T
        sets = None
        if contrast:
            anchors, n_positives, counts = np.array(set_rows, dtype=np.intp).reshape(-1, 3).T
            sets = ContrastSets(anchors, n_positives, np.cumsum(counts) - counts, counts,
                                np.array(candidates, dtype=np.intp),
                                np.array(weights, dtype=np.float64))
        return Prepared(   # each start is the sum of the counts before it
            text_start=np.cumsum(text_len) - text_len, text_len=text_len,
            lengths=text_len + n_regions,
            n_persons=np.array([s.image.n_persons for s in samples], dtype=np.intp),
            region_start=np.cumsum(n_regions) - n_regions,
            link_start=np.cumsum(n_links) - n_links, n_links=n_links,
            word_ids=np.array(word_ids, dtype=np.intp), features=features,
            locations=locations, link_ids=link_ids, link_positions=link_positions,
            labels=labels, sets=sets)

    def embed(self, inputs: PassInputs) -> EncodedBatch:
        """Embed a pass's inputs into one zero-padded ``[B, L, d]`` sequence."""
        p = self.params
        text = nc.add_layer_norm(
            nc.gather_rows(p["embed.word"], inputs.word_ids),
            nc.gather_rows(p["embed.pos"], inputs.text_positions),
            p["embed.text_ln.gain"], p["embed.text_ln.bias"])
        region = nc.add_layer_norm(
            nc.linear(nc.Tensor(inputs.features), p["embed.feat.w"], p["embed.feat.b"]),
            nc.linear(nc.Tensor(inputs.locations), p["embed.loc.w"], p["embed.loc.b"]),
            p["embed.region_ln.gain"], p["embed.region_ln.bias"])
        sequence = nc.scatter_rows([text, region], inputs.token_rows,
                                   inputs.mask.shape + (self.config.d_model,))
        return EncodedBatch(sequence=sequence, inputs=inputs)

    def forward(self, inputs: PassInputs) -> EncodedBatch:
        with nc.located("embed"):
            encoded = self.embed(inputs)
        encoded.hidden = nc.encode(encoded.sequence, self.config.encoder, self.params,
                                   mask=inputs.mask)
        return encoded

    def link_scores(self, encoded: EncodedBatch) -> tuple[nc.Tensor, np.ndarray]:
        """``classification_logits`` of ``encoded`` under the model's classifier."""
        with nc.located("classification_logits"):
            return classification_logits(encoded, self.params["cls.w1"], self.params["cls.w2"])

    # -- losses / inference -------------------------------------------------

    def loss_terms(self, inputs: PassInputs) -> tuple[nc.Tensor, nc.Tensor | None]:
        """Batch means of ``L_cls`` and, when the inputs carry contrastive
        sets (``prepare(..., contrast=True)``), of ``L_con``; else None.

        Each sample's terms are means over its own links, so every sample
        weighs the same whatever its link count.
        """
        cfg = self.config
        encoded = self.forward(inputs)
        q, mask = self.link_scores(encoded)
        with nc.located("loss_cls"):
            cls_term = loss_cls(q, inputs.labels, mask=mask, weights=inputs.link_weights)
        if inputs.anchors is None:
            return cls_term, None
        with nc.located("loss_con"):
            return cls_term, loss_con(encoded, cfg.tau, cfg.contrast_layer)

    def batch_loss(self, inputs: PassInputs) -> nc.Tensor:
        """Mean over the pass's samples of ``L_cls + lam * L_con`` (``lam``
        from the config), from one forward pass.  With ``lam`` not 0 the
        samples must have been prepared with their contrastive sets."""
        lam = self.config.lam
        cls_term, con_term = self.loss_terms(inputs)
        if lam == 0.0:
            return cls_term
        if con_term is None:
            raise ValueError("the contrastive loss needs samples prepared with contrast=True")
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
        prepared = self.prepare(samples)
        predictions = [Prediction({}) for _ in samples]
        with np.errstate(all="ignore"):
            for positions in forward_passes(prepared.lengths):
                inputs = prepared.gather(positions)
                with nc.located(lambda: "the pass over samples " + ", ".join(
                        samples[i].sample_id for i in positions)):
                    with nc.deferred_checks():
                        q, mask = self.link_scores(self.forward(inputs))
                    if not np.isfinite(q.data).all():
                        replay_pass(lambda: self.link_scores(self.forward(inputs)))
                # argmax takes the first maximum, the lowest index, and a
                # padding column never wins
                chosen = np.where(mask, q.data, -np.inf).argmax(axis=1).tolist()
                rows = positions[inputs.link_sample].tolist()
                for k, (i, link, n) in enumerate(zip(rows, inputs.link_ids.tolist(),
                                                     mask.sum(axis=1).tolist())):
                    predictions[i].chosen[link] = chosen[k]
                    predictions[i].scores[link] = q.data[k, :n].copy()
        return predictions

    # batches of one: no caller in this package uses them; they stay because
    # bench/tracing.py patches them, until the tracer moves to the batched methods

    def embed_sample(self, sample: Sample) -> EncodedBatch:
        return self.embed(self.prepare([sample]).gather())

    def sample_loss(self, sample: Sample) -> nc.Tensor:
        return self.batch_loss(self.prepare([sample], contrast=self.config.lam != 0.0).gather())

    def predict_sample(self, sample: Sample) -> Prediction:
        return self.predict([sample])[0]
