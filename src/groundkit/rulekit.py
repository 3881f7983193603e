"""Dataset construction: declarative QA-to-statement rewriting plus filters.

Rules are written in a small text DSL, one rule per block::

    rule why_person priority 90 type causal
    match: why <AUX> <PERSON> <REST...> ?
    emit: <PERSON> <AUX> <REST...> because <ANSWER>

Pattern atoms: a bare word matches that literal (case-insensitive);
``<PERSON>`` matches one person-link token; ``<AUX>`` matches an auxiliary
verb from a closed list; ``<REST...>`` greedily captures a span of one or
more tokens.  A digit suffix (``<REST2...>``, ``<PERSON2>``) names a second
capture of the same kind.  Templates splice captured atoms by name plus
``<ANSWER>``, the full correct-answer token list.

Matching tries rules in descending priority (file order breaks ties) and
the first match wins, so a rule set is a deterministic function.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

# ``QAPair`` and the QA corpus I/O are core's, and importable from here too
from .core import (
    CommonsenseType,
    DataError,
    ObjectLink,
    PersonLink,
    QAPair,
    Sample,
    Token,
    Word,
    filter_sample,
    person_link_ids,
    read_qa_corpus,
    read_text,
    stable_hash,
    write_qa_corpus,
)

AUX_WORDS = ("is", "are", "was", "were", "will", "would", "does", "did", "can", "could")
INTERROGATIVES = ("what", "whose", "how", "where", "who", "which", "why")


# ---------------------------------------------------------------------------
# rule representation and the DSL


@dataclass(frozen=True)
class PatternAtom:
    kind: str                  # "word" | "person" | "aux" | "rest"
    name: str                  # capture name, or the literal for words


@dataclass(frozen=True)
class TemplateItem:
    kind: str                  # "word" | "ref" | "answer"
    value: str


@dataclass(frozen=True)
class Rule:
    rule_id: str
    priority: int
    commonsense_type: CommonsenseType
    pattern: tuple[PatternAtom, ...]
    template: tuple[TemplateItem, ...]

    @property
    def question_type(self) -> str:
        first = self.pattern[0]
        if first.kind == "word" and first.name in INTERROGATIVES:
            return first.name
        return "other"


@dataclass
class RuleSet:
    rules: list[Rule]

    def __post_init__(self) -> None:
        ids = [r.rule_id for r in self.rules]
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise DataError(f"duplicate rule ids: {sorted(dupes)}")
        # descending priority; the sort is stable, so file order breaks ties
        self.ordered = tuple(sorted(self.rules, key=lambda r: -r.priority))


_ATOM_RE = re.compile(r"<([A-Z]+)(\d*)(\.\.\.)?>$")


def _parse_pattern_atom(text: str, where: str) -> PatternAtom:
    m = _ATOM_RE.match(text)
    if not m:
        return PatternAtom("word", text.lower())
    base, suffix, dots = m.groups()
    name = base + suffix
    if base == "PERSON" and not dots:
        return PatternAtom("person", name)
    if base == "AUX" and not dots:
        return PatternAtom("aux", name)
    if base == "REST" and dots:
        return PatternAtom("rest", name)
    raise DataError(f"{where}: unknown pattern atom {text!r}")


def _parse_template_item(text: str, captures: set[str], where: str) -> TemplateItem:
    m = _ATOM_RE.match(text)
    if not m:
        return TemplateItem("word", text)
    base, suffix, dots = m.groups()
    name = base + suffix
    if base == "ANSWER" and not dots:
        return TemplateItem("answer", "ANSWER")
    if name in captures:
        return TemplateItem("ref", name)
    raise DataError(f"{where}: template placeholder <{name}> names no captured atom")


def parse_rules(text: str, origin: str = "<rules>") -> RuleSet:
    rules: list[Rule] = []
    header: Optional[tuple[str, int, CommonsenseType]] = None
    pattern: Optional[tuple[PatternAtom, ...]] = None
    header_re = re.compile(r"^rule\s+(\S+)\s+priority\s+(-?\d+)\s+type\s+(\S+)$")

    def finish(lineno: int) -> None:
        nonlocal header, pattern
        if header is None:
            return
        if pattern is None:
            raise DataError(f"{origin}:{lineno}: rule {header[0]!r} has no match: line")
        raise DataError(f"{origin}:{lineno}: rule {header[0]!r} has no emit: line")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{origin}:{lineno}"
        if line.startswith("rule "):
            finish(lineno)
            m = header_re.match(line)
            if not m:
                raise DataError(f"{where}: expected 'rule <id> priority <n> type <type>'")
            rid, prio, tname = m.groups()
            try:
                ctype = CommonsenseType(tname.lower())
            except ValueError:
                raise DataError(f"{where}: unknown commonsense type {tname!r}") from None
            header = (rid, int(prio), ctype)
            pattern = None
        elif line.startswith("match:"):
            if header is None:
                raise DataError(f"{where}: match: before any rule header")
            atoms = tuple(_parse_pattern_atom(t, where) for t in line[6:].split())
            if not atoms:
                raise DataError(f"{where}: empty pattern")
            pattern = atoms
        elif line.startswith("emit:"):
            if header is None or pattern is None:
                raise DataError(f"{where}: emit: before rule header and match:")
            captures = {a.name for a in pattern if a.kind != "word"}
            template = tuple(_parse_template_item(t, captures, where)
                             for t in line[5:].split())
            rules.append(Rule(rule_id=header[0], priority=header[1],
                              commonsense_type=header[2], pattern=pattern,
                              template=template))
            header = None
            pattern = None
        else:
            raise DataError(f"{where}: unrecognized line {line!r}")
    finish(len(text.splitlines()) + 1)
    return RuleSet(rules)


def load_rules(path: str | Path) -> RuleSet:
    return parse_rules(read_text(path), origin=str(path))


DEFAULT_RULES_TEXT = """\
# Default question-to-statement rewrite rules.  More specific patterns carry
# higher priority; the generic catch-alls sit at the bottom.

rule why_person priority 90 type causal
match: why <AUX> <PERSON> <REST...> ?
emit: <PERSON> <AUX> <REST...> because <ANSWER>

rule what_doing priority 85 type activity
match: what <AUX> <PERSON> doing ?
emit: <ANSWER>

rule what_feeling priority 84 type mental
match: what <AUX> <PERSON> feeling ?
emit: <PERSON> <AUX> feeling <ANSWER>

rule what_happen_next priority 83 type temporal
match: what will happen <REST...> ?
emit: <ANSWER>

rule what_will_do priority 82 type temporal
match: what will <PERSON> do <REST...> ?
emit: <PERSON> will <ANSWER>

rule what_person priority 70 type activity
match: what <AUX> <PERSON> <REST...> ?
emit: <PERSON> <AUX> <REST...> <ANSWER>

rule what_generic priority 40 type other
match: what <REST...> ?
emit: <ANSWER>

rule whose_generic priority 65 type attribute
match: whose <REST...> ?
emit: <ANSWER>

rule how_feeling priority 75 type mental
match: how <AUX> <PERSON> feeling ?
emit: <PERSON> <AUX> feeling <ANSWER>

rule how_person priority 62 type other
match: how <AUX> <PERSON> <REST...> ?
emit: <PERSON> <AUX> <REST...> <ANSWER>

rule where_person priority 72 type spatial
match: where <AUX> <PERSON> <REST...> ?
emit: <PERSON> <AUX> <REST...> <ANSWER>

rule where_generic priority 58 type spatial
match: where <AUX> <REST...> ?
emit: <REST...> <AUX> <ANSWER>

rule who_aux priority 68 type other
match: who <AUX> <REST...> ?
emit: <ANSWER> <AUX> <REST...>

rule which_generic priority 55 type attribute
match: which <REST...> ?
emit: <ANSWER>
"""


def default_rules() -> RuleSet:
    return parse_rules(DEFAULT_RULES_TEXT, origin="<default-rules>")


# ---------------------------------------------------------------------------
# matching and transformation


def _atom_matches(atom: PatternAtom, token: Token) -> bool:
    if atom.kind == "word":
        return isinstance(token, Word) and token.lower() == atom.name
    if atom.kind == "person":
        return isinstance(token, PersonLink)
    if atom.kind == "aux":
        return isinstance(token, Word) and token.lower() in AUX_WORDS
    raise AssertionError(atom.kind)


# capture name -> the tokens it matched
Captures = dict[str, list[Token]]


def match_pattern(pattern: Sequence[PatternAtom],
                  tokens: Sequence[Token]) -> Optional[Captures]:
    """Backtracking matcher; wildcards are greedy (longest span first)."""

    def rec(pi: int, ti: int, captures: Captures):
        if pi == len(pattern):
            return captures if ti == len(tokens) else None
        atom = pattern[pi]
        if atom.kind == "rest":
            # longest span first, at least one token
            for end in range(len(tokens), ti, -1):
                captures[atom.name] = list(tokens[ti:end])
                result = rec(pi + 1, end, captures)
                if result is not None:
                    return result
            captures.pop(atom.name, None)
            return None
        if ti < len(tokens) and _atom_matches(atom, tokens[ti]):
            if atom.kind != "word":
                captures[atom.name] = [tokens[ti]]
            return rec(pi + 1, ti + 1, captures)
        return None

    return rec(0, 0, {})


def match_rule(qa: QAPair, rules: RuleSet) -> Optional[tuple[Rule, Captures]]:
    """The highest-priority rule whose pattern matches the question, with its captures."""
    for rule in rules.ordered:
        captures = match_pattern(rule.pattern, qa.question)
        if captures is not None:
            return rule, captures
    return None


def transform(qa: QAPair, rule: Rule, captures: Captures) -> list[Token]:
    """Rewrite the question plus correct answer into a statement, splicing the
    ``captures`` of ``rule``'s match against the question."""
    out: list[Token] = []
    for item in rule.template:
        if item.kind == "word":
            out.append(item.value)
        elif item.kind == "answer":
            out.extend(qa.correct_answer)
        else:
            if item.value not in captures:
                raise DataError(f"{qa.sample_id}: unbound placeholder <{item.value}> "
                                f"in rule {rule.rule_id!r}")
            out.extend(captures[item.value])
    return out


def replace_object_links(tokens: Sequence[Token]) -> list[Token]:
    """Turn every object-region link into its detector class name."""
    for token in tokens:
        if isinstance(token, ObjectLink) and not token.class_name:
            raise DataError(f"object link {token.region_id} has no class name")
    return [t.class_name if isinstance(t, ObjectLink) else t for t in tokens]


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class SplitSpec:
    train: float = 0.8
    validation: float = 0.1
    test: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        # written as "not ..." so that NaN is refused too
        total = self.train + self.validation + self.test
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"split fractions sum to {total}, expected 1")
        if not min(self.train, self.validation, self.test) >= 0:
            raise ValueError("split fractions must be non-negative")


def _split_of(sample_id: str, spec: SplitSpec) -> str:
    u = stable_hash(spec.seed, sample_id) / 2.0 ** 64
    if u < spec.train:
        return "train"
    if u < spec.train + spec.validation:
        return "validation"
    return "test"


@dataclass
class PipelineReport:
    total: int = 0
    matched: int = 0
    unmatched_ids: list[str] = field(default_factory=list)
    per_question_type: dict[str, int] = field(default_factory=dict)
    drops: dict[str, int] = field(default_factory=dict)
    drop_ids: dict[str, str] = field(default_factory=dict)
    kept: int = 0
    split_sizes: dict[str, int] = field(default_factory=dict)


@dataclass
class PipelineResult:
    train: list[Sample]
    validation: list[Sample]
    test: list[Sample]
    report: PipelineReport


def run_pipeline(corpus: Sequence[QAPair], rules: RuleSet,
                 split: SplitSpec) -> PipelineResult:
    """match -> transform -> object-link replacement -> filter -> tag -> split.

    Pure function of (corpus, rules, split seed): samples land in splits by a
    seeded hash of their id and each split is emitted in sample-id order.
    """
    report = PipelineReport(total=len(corpus))
    splits: dict[str, list[Sample]] = {"train": [], "validation": [], "test": []}
    for qa in corpus:
        match = match_rule(qa, rules)
        if match is None:
            report.unmatched_ids.append(qa.sample_id)
            continue
        rule, captures = match
        report.matched += 1
        qtype = rule.question_type
        report.per_question_type[qtype] = report.per_question_type.get(qtype, 0) + 1

        tokens = replace_object_links(transform(qa, rule, captures))
        labels = {}
        for link_id in person_link_ids(tokens):
            if link_id not in qa.labels:
                raise DataError(f"{qa.sample_id}: no grounding label for link {link_id}")
            labels[link_id] = qa.labels[link_id]
        sample = Sample(sample_id=qa.sample_id, image=qa.image,
                        tokens=tokens, labels=labels,
                        commonsense_type=rule.commonsense_type)
        reason = filter_sample(sample)
        if reason is not None:
            report.drop_ids[qa.sample_id] = reason.value
            continue
        # the filters just kept it and no object link is left, so only the
        # structural checks (labels against the persons) can still refuse it
        sample.validate(strict=False)
        report.kept += 1
        splits[_split_of(qa.sample_id, split)].append(sample)
    report.drops = dict(Counter(report.drop_ids.values()))
    for name, bucket in splits.items():
        bucket.sort(key=lambda s: s.sample_id)
        report.split_sizes[name] = len(bucket)
    return PipelineResult(train=splits["train"], validation=splits["validation"],
                          test=splits["test"], report=report)
