"""Seeded QA corpus for the ``build`` workload.

Every question comes from a form with a known outcome, so the corpus carries
its own answer key: the question type the rule matcher should report, or
that no rule matches, and the drop reason the filters should give, or that
the sample is kept.  The mix covers:

- one form for each of the 15 default rules;
- questions no rule matches;
- object-link tokens in questions and answers;
- tied ``PERSONa and PERSONb`` links;
- person counts of 0, 1 and 11..14, so that every ``DropReason`` fires.

``why_did_person`` can never win: ``did`` is an auxiliary verb, so
``why_person`` (priority 90) matches every question that ``why_did_person``
(priority 89) matches.  Its form is kept, and its answer key says
``why_person``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from groundkit.core import (
    BoundingBox,
    ContextObject,
    DatasetHeader,
    ImageRecord,
    ObjectLink,
    PersonBox,
    PersonLink,
    Word,
)
from groundkit.rulekit import QAPair

D_VIS = 32
WIDTH, HEIGHT = 640, 480
CLASSES = ("dog", "cup", "guitar", "ball", "book", "hat", "bag", "phone")
DISTRACTORS = ("yes", "no one knows", "it is raining", "a red car",
               "to buy bread", "nothing at all", "because of the noise")

# (form id, rule that should win, question, correct answer).  In the
# templates, P and Q are person links 1 and 2, and O is an object link.
KEPT_FORMS = (
    ("why_person", "why_person", "why is P holding O ?", "it is raining"),
    ("why_did_person", "why_person", "why did P leave the room ?", "the phone rang"),
    ("what_doing", "what_doing", "what is P doing ?", "P is pouring the O"),
    ("what_feeling", "what_feeling", "what is P feeling ?", "nervous"),
    ("what_happen_next", "what_happen_next", "what will happen next ?", "P will sit down"),
    ("what_will_do", "what_will_do", "what will P do next ?", "pick up the O"),
    ("what_person", "what_person", "what is P holding ?", "a O"),
    ("what_generic", "what_generic", "what is on the table ?", "the O of P"),
    ("whose_generic", "whose_generic", "whose O is this ?", "it belongs to P"),
    ("how_feeling", "how_feeling", "how is P feeling ?", "tired"),
    ("how_person", "how_person", "how did P get here ?", "by car"),
    ("where_person", "where_person", "where is P going ?", "to the kitchen"),
    ("where_generic", "where_generic", "where is the O ?", "next to P"),
    ("who_aux", "who_aux", "who is holding the O ?", "P"),
    ("which_generic", "which_generic", "which person is closest to the O ?", "P"),
)
NO_LINK_FORMS = (
    ("what_generic", "what is on the table ?", "a O"),
    ("what_happen_next", "what will happen next ?", "it will rain"),
)
TIED_FORMS = (
    ("what_happen_next", "what will happen next ?", "P and Q will leave"),
    ("where_generic", "where is the O ?", "between P or Q"),
    ("who_aux", "who is holding the O ?", "P and Q"),
)
UNMATCHED_FORMS = ("is P happy ?", "P waves at the O .", "when will P leave ?")

# Share of each outcome in the corpus; the rest (72%) is kept.  These shares,
# the uniform draw over the forms of each outcome and the person-count ranges
# are chosen for coverage, not measured on any real corpus: at 400 pairs per
# corpus, 4% gives each drop reason about 16 pairs, so every reason fires in
# every corpus, and unmatched questions get twice that.  Throughput on
# ``build`` depends on this mix (an unmatched question tries every rule; a
# dropped pair is neither split nor written), so it is unverified traffic.
OUTCOME_SHARES = (
    ("no_person_link", 0.04),
    ("no_candidate", 0.04),
    ("single_candidate", 0.04),
    ("too_many_persons", 0.04),
    ("tied_links", 0.04),
    ("unmatched", 0.08),
)


@dataclass
class AnswerKey:
    """What the pipeline should report for the corpus."""

    total: int
    per_question_type: dict[str, int]
    drops: dict[str, int]
    unmatched_ids: list[str]
    kept: int
    forms: dict[str, int]


def _tokens(template: str, objects: list[ContextObject]) -> list:
    out = []
    for word in template.split():
        if word == "P":
            out.append(PersonLink(1))
        elif word == "Q":
            out.append(PersonLink(2))
        elif word == "O":
            out.append(ObjectLink(0, objects[0].class_name))
        else:
            out.append(Word(word))
    return out


def _box(rng: np.random.Generator, w_range, h_range) -> BoundingBox:
    w = float(rng.uniform(*w_range))
    h = float(rng.uniform(*h_range))
    x1 = float(rng.uniform(0, WIDTH - w))
    y1 = float(rng.uniform(0, HEIGHT - h))
    return BoundingBox(x1, y1, x1 + w, y1 + h)


def _image(rng: np.random.Generator, i: int, n_persons: int) -> ImageRecord:
    persons = [PersonBox(index=j, box=_box(rng, (40, 120), (60, 200)),
                         feature=rng.normal(0.0, 1.0, D_VIS).astype(np.float32))
               for j in range(n_persons)]
    objects = [ContextObject(box=_box(rng, (16, 80), (16, 80)),
                             feature=rng.normal(0.0, 1.0, D_VIS).astype(np.float32),
                             objectness=float(rng.uniform(0.2, 1.0)),
                             class_name=CLASSES[int(rng.integers(len(CLASSES)))])
               for _ in range(int(rng.integers(1, 5)))]
    return ImageRecord(image_id=f"qimg-{i:06d}", width=WIDTH, height=HEIGHT,
                       persons=persons, context_objects=objects)


def generate(n: int, seed: int) -> tuple[list[QAPair], AnswerKey, DatasetHeader]:
    """``n`` QA pairs drawn from ``seed``, with the pipeline's expected report."""
    rng = np.random.default_rng(seed)
    outcomes = [name for name, _ in OUTCOME_SHARES] + ["kept"]
    shares = [share for _, share in OUTCOME_SHARES]
    probs = shares + [1.0 - sum(shares)]
    corpus: list[QAPair] = []
    qtypes: Counter = Counter()
    drops: Counter = Counter()
    forms: Counter = Counter()
    unmatched: list[str] = []
    for i in range(n):
        sid = f"qa-{i:06d}"
        outcome = outcomes[int(rng.choice(len(outcomes), p=probs))]
        n_persons = {"no_candidate": 0, "single_candidate": 1,
                     "too_many_persons": int(rng.integers(11, 15))}.get(
                         outcome, int(rng.integers(2, 11)))
        image = _image(rng, i, n_persons)
        if outcome == "unmatched":
            form = "unmatched"
            question = UNMATCHED_FORMS[int(rng.integers(len(UNMATCHED_FORMS)))]
            answer, rule = "yes", None
        elif outcome == "no_person_link":
            rule, question, answer = NO_LINK_FORMS[int(rng.integers(len(NO_LINK_FORMS)))]
            form = f"{rule}:no_link"
        elif outcome == "tied_links":
            rule, question, answer = TIED_FORMS[int(rng.integers(len(TIED_FORMS)))]
            form = f"{rule}:tied"
        else:
            form, rule, question, answer = KEPT_FORMS[int(rng.integers(len(KEPT_FORMS)))]
        forms[form] += 1
        if rule is None:
            unmatched.append(sid)
        else:
            qtypes[rule.split("_")[0]] += 1   # every rule id starts with its question word
            if outcome != "kept":
                drops[outcome] += 1

        # labels point at distinct persons; with fewer than two persons the
        # sample is dropped before its labels are checked
        picks = rng.permutation(max(n_persons, 2))[:2]
        labels = {1: int(picks[0]), 2: int(picks[1])}
        correct = int(rng.integers(4))
        answers = [_tokens(DISTRACTORS[int(k)], image.context_objects)
                   for k in rng.choice(len(DISTRACTORS), 4, replace=False)]
        answers[correct] = _tokens(answer, image.context_objects)
        corpus.append(QAPair(sample_id=sid, image=image,
                             question=_tokens(question, image.context_objects),
                             answers=answers, correct_index=correct, labels=labels))
    key = AnswerKey(total=n, per_question_type=dict(sorted(qtypes.items())),
                    drops=dict(sorted(drops.items())), unmatched_ids=unmatched,
                    kept=n - len(unmatched) - sum(drops.values()),
                    forms=dict(sorted(forms.items())))
    return corpus, key, DatasetHeader(d_vis=D_VIS)
