import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groundkit.core import (
    BoundingBox,
    CommonsenseType,
    DataError,
    DropReason,
    ImageRecord,
    ObjectLink,
    PersonBox,
    PersonLink,
    Sample,
    Word,
    filter_sample,
)
from groundkit import rulekit
from groundkit.rulekit import (
    QAPair,
    Rule,
    SplitSpec,
    TemplateItem,
    DEFAULT_RULES_TEXT,
    default_rules,
    match_pattern,
    match_rule,
    parse_rules,
    read_qa_corpus,
    replace_object_links,
    run_pipeline,
    transform,
    write_qa_corpus,
)

from conftest import make_person, make_sample


def words(text):
    return [Word(w) for w in text.split()]


def tok(text):
    """Mixed tokenizer for fixtures: PERSONn -> link, OBJn:name -> object link."""
    out = []
    for piece in text.split():
        if piece.startswith("PERSON") and piece[6:].isdigit():
            out.append(PersonLink(int(piece[6:])))
        elif piece.startswith("OBJ") and ":" in piece:
            head, name = piece.split(":", 1)
            out.append(ObjectLink(int(head[3:]), name))
        else:
            out.append(Word(piece))
    return out


def make_image(n_persons=3, d_vis=8):
    rng = np.random.default_rng(n_persons)
    persons = [PersonBox(index=i, box=BoundingBox(10 + 70 * i, 10, 60 + 70 * i, 120),
                         feature=rng.normal(0, 1, d_vis).astype(np.float32))
               for i in range(n_persons)]
    return ImageRecord(image_id=f"img{n_persons}", width=800, height=200, persons=persons)


def make_qa(sample_id, question, answer, n_persons=3, labels=None,
            wrong=("no", "maybe", "never")):
    answers = [tok(answer)] + [words(w) for w in wrong]
    return QAPair(sample_id=sample_id, image=make_image(n_persons),
                  question=tok(question), answers=answers, correct_index=0,
                  labels=labels if labels is not None else {1: 0, 2: 1, 3: 2})


class TestDsl:
    def test_default_rules_parse(self):
        rules = default_rules()
        assert len(rules.rules) == 14
        assert len({r.rule_id for r in rules.rules}) == 14

    def test_every_default_rule_wins_on_its_own_question(self):
        # a rule that loses even on the question its own pattern spells out is
        # shadowed by a higher-priority rule and can never fire
        fill = {"person": "PERSON1", "aux": "is", "rest": "x"}
        rules = default_rules()
        losers = []
        for rule in rules.rules:
            question = " ".join(fill.get(a.kind, a.name) for a in rule.pattern)
            winner, _ = match_rule(make_qa("w", question, "yes"), rules)
            if winner.rule_id != rule.rule_id:
                losers.append((rule.rule_id, question, winner.rule_id))
        assert losers == []

    def test_duplicate_ids_rejected(self):
        text = """\
rule a priority 1 type other
match: what <REST...> ?
emit: <ANSWER>

rule a priority 2 type other
match: who <REST...> ?
emit: <ANSWER>
"""
        with pytest.raises(DataError, match="duplicate"):
            parse_rules(text)

    def test_unbound_template_placeholder_rejected(self):
        text = """\
rule a priority 1 type other
match: what <REST...> ?
emit: <PERSON> <ANSWER>
"""
        with pytest.raises(DataError, match="names no captured atom"):
            parse_rules(text)

    def test_unknown_atom_rejected(self):
        text = """\
rule a priority 1 type other
match: what <BLAH> ?
emit: <ANSWER>
"""
        with pytest.raises(DataError, match="unknown pattern atom"):
            parse_rules(text)

    def test_two_named_wildcards(self):
        text = """\
rule swap priority 1 type other
match: who <REST...> with <REST2...> ?
emit: <ANSWER> <REST...> with <REST2...>
"""
        rules = parse_rules(text)
        qa = make_qa("q", "who is dancing with the dog ?", "PERSON2")
        rule, captures = match_rule(qa, rules)
        assert rule.rule_id == "swap"
        out = transform(qa, rule, captures)
        assert out == tok("PERSON2 is dancing with the dog")


class TestMatching:
    def test_why_question_matches(self):
        qa = make_qa("q1", "why is PERSON1 smiling ?", "PERSON1 just won")
        rule, captures = match_rule(qa, default_rules())
        assert rule.rule_id == "why_person"
        assert captures == {"AUX": words("is"), "PERSON": [PersonLink(1)],
                            "REST": words("smiling")}

    def test_no_interrogative_no_match(self):
        qa = make_qa("q2", "hmm ok ?", "yes")
        assert match_rule(qa, default_rules()) is None

    def test_priority_order_wins(self):
        text = """\
rule low priority 5 type other
match: what <REST...> ?
emit: <ANSWER>

rule high priority 9 type other
match: what <REST...> ?
emit: <ANSWER>
"""
        qa = make_qa("q3", "what is happening ?", "a party")
        assert match_rule(qa, parse_rules(text))[0].rule_id == "high"

    def test_match_is_pure(self):
        qa = make_qa("q4", "why is PERSON1 smiling ?", "PERSON1 just won")
        rules = default_rules()
        assert match_rule(qa, rules) == match_rule(qa, rules)

    def test_match_leaves_no_cyclic_garbage(self):
        # hits, misses and backtracking <REST...> spans alike: a match that
        # left a reference cycle would hand the collector work per rule tried
        questions = [tok(q) for q in ("why is PERSON1 smiling at PERSON2 ?",
                                      "what will happen next ?", "hmm ok ?", "")]
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for rule in default_rules().ordered:
                for question in questions:
                    match_pattern(rule.pattern, question)
            found = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert found == 0


def full_walk(qa, rules):
    """``match_rule`` without the first-word index: every rule, by priority."""
    for rule in rules.ordered:
        captures = match_pattern(rule.pattern, qa.question)
        if captures is not None:
            return rule, captures
    return None


# a user rule set whose highest-priority rule starts with no literal word
LINK_FIRST_RULES = """\
rule person_first priority 99 type activity
match: <PERSON> <REST...> ?
emit: <PERSON> <REST...> <ANSWER>

rule aux_first priority 50 type other
match: <AUX> <PERSON> <REST...> ?
emit: <PERSON> <AUX> <REST...> <ANSWER>

rule why_any priority 40 type causal
match: WHY <REST...> ?
emit: <REST...> because <ANSWER>

rule rest_any priority 1 type other
match: <REST...> ?
emit: <ANSWER>
"""


class TestFirstWordIndex:
    QUESTIONS = ("why is PERSON1 smiling ?", "Why is PERSON1 smiling ?",
                 "PERSON1 is smiling ?", "is PERSON2 smiling ?", "WHAT is PERSON1 doing ?",
                 "what will happen next ?", "where is the cup ?", "hmm ok ?", "?",
                 "OBJ3:cup is here ?")

    def corpus(self):
        return fixture_corpus() + [make_qa(f"i-{i}", q, "PERSON1 won")
                                   for i, q in enumerate(self.QUESTIONS)]

    @pytest.mark.parametrize("text", [DEFAULT_RULES_TEXT, LINK_FIRST_RULES],
                             ids=["default", "link-first"])
    def test_index_picks_what_a_full_walk_picks(self, text):
        rules = parse_rules(text)
        results = [match_rule(qa, rules) for qa in self.corpus()]
        assert results == [full_walk(qa, rules) for qa in self.corpus()]
        assert None in results and len({r[0].rule_id for r in results if r}) > 2

    def test_a_link_first_rule_is_tried_for_every_question(self):
        rules = parse_rules(LINK_FIRST_RULES)
        unindexed = ("person_first", "aux_first", "rest_any")
        assert [r.rule_id for r in rules.by_first_word[None]] == list(unindexed)
        assert [r.rule_id for r in rules.by_first_word["why"]] == [
            "person_first", "aux_first", "why_any", "rest_any"]
        assert match_rule(make_qa("p", "PERSON1 is smiling ?", "yes"),
                          rules)[0].rule_id == "person_first"

    def test_a_question_tries_only_the_rules_of_its_first_word(self, monkeypatch):
        tried = []
        monkeypatch.setattr(rulekit, "match_pattern",
                            lambda pattern, tokens: tried.append(pattern) or
                            match_pattern(pattern, tokens))
        rules = default_rules()
        assert match_rule(make_qa("w", "why is PERSON1 smiling ?", "yes"),
                          rules)[0].rule_id == "why_person"
        assert match_rule(make_qa("h", "hmm ok ?", "yes"), rules) is None
        assert tried == [rules.by_first_word["why"][0].pattern]


class TestTransform:
    def test_why_rule_statement(self):
        qa = make_qa("t1", "why is PERSON1 smiling ?", "PERSON1 just won")
        rules = default_rules()
        out = transform(qa, *match_rule(qa, rules))
        assert out == tok("PERSON1 is smiling because PERSON1 just won")

    def test_what_doing_statement(self):
        qa = make_qa("t2", "what is PERSON2 doing ?", "PERSON2 is reading")
        rules = default_rules()
        out = transform(qa, *match_rule(qa, rules))
        assert out == tok("PERSON2 is reading")

    def test_where_statement(self):
        qa = make_qa("t3", "where will PERSON1 go ?", "to the kitchen")
        rules = default_rules()
        out = transform(qa, *match_rule(qa, rules))
        assert out == tok("PERSON1 will go to the kitchen")

    def test_unbound_placeholder_at_transform_time(self):
        # bypass the parser's protection by constructing the rule directly
        qa = make_qa("t4", "what is happening ?", "a party")
        base, captures = match_rule(qa, default_rules())
        assert base.rule_id == "what_generic"
        bad = Rule(rule_id="bad", priority=1, commonsense_type=base.commonsense_type,
                   pattern=base.pattern,
                   template=(TemplateItem("ref", "PERSON"),))
        with pytest.raises(DataError, match="unbound placeholder"):
            transform(qa, bad, match_pattern(bad.pattern, qa.question))


class TestReplaceObjectLinks:
    def test_replacement(self):
        out = replace_object_links(tok("PERSON1 holds OBJ5:cup"))
        assert out == tok("PERSON1 holds cup")

    def test_no_object_links_unchanged(self):
        tokens = tok("PERSON1 waves at PERSON2")
        assert replace_object_links(tokens) == tokens

    def test_two_links_order_preserved(self):
        out = replace_object_links(tok("OBJ1:cup on OBJ2:table now"))
        assert out == tok("cup on table now")

    def test_idempotent_and_length_preserving(self):
        tokens = tok("PERSON1 holds OBJ5:cup near OBJ6:table")
        once = replace_object_links(tokens)
        assert replace_object_links(once) == once
        assert len(once) == len(tokens)

    def test_empty_class_name_rejected(self):
        with pytest.raises(DataError):
            replace_object_links([ObjectLink(3, "")])


class TestFilters:
    def test_too_many_persons(self):
        s = make_sample("f1", n_persons=11)
        assert filter_sample(s) == DropReason.TOO_MANY_PERSONS

    def test_single_candidate(self):
        s = make_sample("f2", n_persons=1)
        assert filter_sample(s) == DropReason.SINGLE_CANDIDATE

    def test_tied_links(self):
        s = make_sample("f3", tokens=tok("PERSON1 and PERSON2 are dancing"),
                        labels={1: 0, 2: 1})
        assert filter_sample(s) == DropReason.TIED_LINKS

    def test_no_person_link(self):
        s = make_sample("f4", tokens=words("nobody here"), labels={})
        assert filter_sample(s) == DropReason.NO_PERSON_LINK

    def test_keep(self):
        s = make_sample("f5", n_persons=4)
        assert filter_sample(s) is None

    def test_reason_order_no_link_first(self):
        s = make_sample("f6", n_persons=11, tokens=words("nothing links"), labels={})
        assert filter_sample(s) == DropReason.NO_PERSON_LINK


class TestClassify:
    def test_shipped_mapping(self):
        rules = {rule.rule_id: rule for rule in default_rules().rules}
        assert rules["why_person"].commonsense_type == CommonsenseType.CAUSAL
        assert rules["what_doing"].commonsense_type == CommonsenseType.ACTIVITY


class TestCoverage:
    # the pipeline report's match tallies
    def test_fraction_counts(self):
        corpus = [make_qa(f"c{i}", "why is PERSON1 smiling ?", "PERSON1 won")
                  for i in range(9)]
        corpus.append(make_qa("c9", "hmm ok ?", "yes"))
        report = run_pipeline(corpus, default_rules(), SplitSpec()).report
        assert (report.total, report.matched) == (10, 9)
        assert report.unmatched_ids == ["c9"]
        assert report.per_question_type == {"why": 9}

    def test_all_match(self):
        corpus = [make_qa("a", "what is PERSON1 doing ?", "PERSON1 is reading")]
        report = run_pipeline(corpus, default_rules(), SplitSpec()).report
        assert report.total == report.matched == 1


def fixture_corpus():
    """20 QA pairs: 14 match the default rules, 2 of those fail filters."""
    corpus = []
    for i in range(12):
        corpus.append(make_qa(f"ok-{i:02d}", "why is PERSON1 smiling ?",
                              "PERSON1 just won", n_persons=2 + i % 3,
                              labels={1: (2 + i % 3) - 1}))
    # matched but dropped: too many persons in the image
    corpus.append(make_qa("drop-many", "why is PERSON1 smiling ?", "PERSON1 won",
                          n_persons=11, labels={1: 10}))
    # matched but dropped: tied person links in the rewritten statement
    corpus.append(make_qa("drop-tied", "who is dancing ?", "PERSON1 and PERSON2",
                          n_persons=3, labels={1: 0, 2: 1}))
    for i in range(6):
        corpus.append(make_qa(f"um-{i}", "please pass the salt ?", "sure",
                              n_persons=2, labels={1: 0}))
    return corpus


class TestPipeline:
    def test_fixture_counts(self):
        result = run_pipeline(fixture_corpus(), default_rules(), SplitSpec(seed=1))
        report = result.report
        assert report.total == 20
        assert report.matched == 14
        assert len(report.unmatched_ids) == 6
        assert report.kept == 12
        assert report.drops == {"too_many_persons": 1, "tied_links": 1}
        assert report.drop_ids == {"drop-many": "too_many_persons",
                                   "drop-tied": "tied_links"}
        emitted = result.train + result.validation + result.test
        assert len(emitted) == 12
        for s in emitted:
            s.validate(strict=True)

    def test_empty_corpus(self):
        result = run_pipeline([], default_rules(), SplitSpec())
        assert (result.train, result.validation, result.test) == ([], [], [])
        assert result.report.total == 0

    def test_splits_disjoint_union_is_kept(self):
        result = run_pipeline(fixture_corpus(), default_rules(), SplitSpec(seed=3))
        ids = [s.sample_id for s in result.train + result.validation + result.test]
        assert len(ids) == len(set(ids)) == result.report.kept

    def test_split_stable_under_corpus_reordering(self):
        corpus = fixture_corpus()
        r1 = run_pipeline(corpus, default_rules(), SplitSpec(seed=5))
        r2 = run_pipeline(list(reversed(corpus)), default_rules(), SplitSpec(seed=5))
        assert [s.sample_id for s in r1.train] == [s.sample_id for s in r2.train]
        assert [s.sample_id for s in r1.test] == [s.sample_id for s in r2.test]

    def test_missing_label_propagates_sample_id(self):
        qa = make_qa("nolabel", "why is PERSON1 smiling ?", "PERSON1 won",
                     labels={9: 0})
        with pytest.raises(DataError, match="nolabel"):
            run_pipeline([qa], default_rules(), SplitSpec())

    def test_split_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)

    def test_commonsense_tag_assigned_from_rule(self):
        result = run_pipeline(fixture_corpus(), default_rules(), SplitSpec(seed=1))
        for s in result.train + result.validation + result.test:
            assert s.commonsense_type == CommonsenseType.CAUSAL


class TestQaCorpusIo:
    def test_roundtrip(self, tmp_path):
        corpus = fixture_corpus()[:4]
        path = tmp_path / "qa.jsonl"
        write_qa_corpus(corpus, path)
        loaded = read_qa_corpus(path)
        assert len(loaded) == 4
        for a, b in zip(corpus, loaded):
            assert a.sample_id == b.sample_id
            assert a.question == b.question
            assert a.answers == b.answers
            assert a.correct_index == b.correct_index
            assert a.labels == b.labels
            for pa, pb in zip(a.image.persons, b.image.persons):
                assert pa.feature.tobytes() == pb.feature.tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_qa_corpus(tmp_path / "nope.jsonl")


# rule-file fragments, so that mutations also build lines the parser accepts
RULE_WORDS = st.sampled_from(["rule", "priority", "type", "match:", "emit:", "<PERSON>",
                              "<AUX>", "<REST...>", "<ANSWER>", "<PERSON2>", "causal",
                              "-7", "90", "#", "?", "\n", " "])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_rules_text_parses_or_raises_data_error(data):
    text = DEFAULT_RULES_TEXT
    for _ in range(data.draw(st.integers(1, 4))):
        start = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(start, min(len(text), start + 40)))
        insert = data.draw(st.text(max_size=8) | RULE_WORDS)
        text = text[:start] + insert + text[end:]
    try:
        parse_rules(text)
    except DataError:
        pass

