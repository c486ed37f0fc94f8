import itertools
import json
import re

import pytest

from conftest import entity, make_alignment, predicate
from factlink.corpus import (
    Alignment,
    OieTriple,
    SentenceFactPair,
    align,
    alignment_from_record,
    alignment_record,
    augment_aliases,
    oie_text,
    oie_uid,
    read_alignments,
    read_oie_file,
    read_pairs_file,
    remove_leakage,
    write_alignments,
)
from factlink.errors import DataError
from factlink.io import iter_jsonl, read_jsonl, write_jsonl
from factlink.kg import KgFact, build_store, load_kg
from factlink.ookg import OokgThresholds, thresholds_from_record, thresholds_record


def triple(s, r, o, sentence=None):
    return OieTriple(subject=s, relation=r, object=o, sentence=sentence)


PLAYED_FOR_FACT = KgFact("Q41421", "P54", "Q128109")


class TestAlign:
    def test_exact_label_match_aligns(self, jordan_store):
        oies = {
            "s1": [triple("Michael Jordan", "played for", "Chicago Bulls")],
        }
        pairs = [
            SentenceFactPair(
                sentence_id="s1",
                sentence="Michael Jordan played for Chicago Bulls.",
                fact=PLAYED_FOR_FACT,
            )
        ]
        result = align(oies, pairs, jordan_store)
        assert len(result) == 1
        assert result[0].fact == PLAYED_FOR_FACT
        assert result[0].oie.subject == "Michael Jordan"
        assert result[0].augmented is False
        # provenance sentence attached from the pair
        assert result[0].oie.sentence == "Michael Jordan played for Chicago Bulls."

    def test_relation_text_is_not_checked(self, jordan_store):
        # only subject/object text matters; a nonsense relation still aligns
        # (the documented precision limit of distant supervision)
        oies = {"s1": [triple("Michael Jordan", "April in", "Brooklyn")]}
        pairs = [
            SentenceFactPair(
                sentence_id="s1",
                sentence="Michael Jordan (born in Brooklyn) ...",
                fact=KgFact("Q41421", "P19", "Q18419"),
            )
        ]
        result = align(oies, pairs, jordan_store)
        assert len(result) == 1

    def test_near_match_fails(self, jordan_store):
        oies = {"s1": [triple("M. Jordan", "played for", "Chicago Bulls")]}
        pairs = [
            SentenceFactPair(sentence_id="s1", sentence="...", fact=PLAYED_FOR_FACT)
        ]
        assert align(oies, pairs, jordan_store) == []

    def test_gold_mention_takes_priority_over_label(self, jordan_store):
        oies = {"s1": [triple("M.J.", "played for", "the Bulls")]}
        pairs = [
            SentenceFactPair(
                sentence_id="s1",
                sentence="M.J. played for the Bulls.",
                fact=PLAYED_FOR_FACT,
                subject_surface="M.J.",
                object_surface="the Bulls",
            )
        ]
        assert len(align(oies, pairs, jordan_store)) == 1

    def test_multiple_distinct_oies_all_align(self, jordan_store):
        oies = {
            "s1": [
                triple("Michael Jordan", "played for", "Chicago Bulls"),
                triple("Michael Jordan", "was a member of", "Chicago Bulls"),
            ]
        }
        pairs = [
            SentenceFactPair(sentence_id="s1", sentence="...", fact=PLAYED_FOR_FACT)
        ]
        assert len(align(oies, pairs, jordan_store)) == 2

    def test_exact_duplicates_collapse(self, jordan_store):
        oies = {
            "s1": [
                triple("Michael Jordan", "played for", "Chicago Bulls"),
                triple("Michael Jordan", "played for", "Chicago Bulls"),
            ]
        }
        pairs = [
            SentenceFactPair(sentence_id="s1", sentence="...", fact=PLAYED_FOR_FACT)
        ]
        assert len(align(oies, pairs, jordan_store)) == 1

    def test_synthetic_world_perfect_precision_and_recall(self):
        # brute-force oracle over a world where every label is unique
        entries = [entity(f"e{i}", f"uniquename{i}") for i in range(8)]
        entries.append(predicate("P1", "rel"))
        facts = [KgFact(f"e{i}", "P1", f"e{i+1}") for i in range(7)]
        store = build_store(entries)
        oies = {}
        pairs = []
        for i, fact in enumerate(facts):
            sid = f"s{i}"
            s_label = store.entry(fact.subject_id).label
            o_label = store.entry(fact.object_id).label
            oies[sid] = [
                triple(s_label, "relates to", o_label),
                triple("somebody", "does", "something"),  # noise
            ]
            pairs.append(SentenceFactPair(sentence_id=sid, sentence=f"{s_label} ...", fact=fact))
        result = align(oies, pairs, store)
        produced = {(a.oie.subject, a.oie.object, a.fact.ids) for a in result}
        expected = {
            (store.entry(f.subject_id).label, store.entry(f.object_id).label, f.ids)
            for f in facts
        }
        assert produced == expected

    def test_deterministic_order(self, jordan_store):
        oies = {
            "s1": [
                triple("Michael Jordan", "was a member of", "Chicago Bulls"),
                triple("Michael Jordan", "played for", "Chicago Bulls"),
            ]
        }
        pairs = [
            SentenceFactPair(sentence_id="s1", sentence="...", fact=PLAYED_FOR_FACT)
        ]
        first = align(oies, pairs, jordan_store)
        second = align(dict(reversed(list(oies.items()))), pairs, jordan_store)
        assert first == second


class TestAugmentAliases:
    def test_cartesian_count(self, jordan_store):
        # subject aliases restricted to 2 for the worked example
        entries = [
            entity("Q41421", "Michael Jordan", aliases=("Air Jordan", "M.J.")),
            entity("Q128109", "Chicago Bulls", aliases=("The Bulls",)),
            predicate("P54", "member of sports team"),
        ]
        store = build_store(entries)
        original = make_alignment(
            "Michael Jordan", "played for", "Chicago Bulls", PLAYED_FOR_FACT
        )
        result = augment_aliases([original], store)
        augmented = [a for a in result if a.augmented]
        assert len(augmented) == 3 * 2 - 1 == 5
        produced = {(a.oie.subject, a.oie.object) for a in augmented}
        assert ("Air Jordan", "Chicago Bulls") in produced
        assert ("M.J.", "The Bulls") in produced
        assert ("Michael Jordan", "Chicago Bulls") not in produced
        assert original in result
        assert all(a.oie.relation == "played for" for a in result)

    def test_no_aliases_no_augmentation(self):
        entries = [
            entity("Q1", "Alpha"),
            entity("Q2", "Beta"),
            predicate("P1", "rel"),
        ]
        fact = KgFact("Q1", "P1", "Q2")
        store = build_store(entries)
        result = augment_aliases([make_alignment("Alpha", "r", "Beta", fact)], store)
        assert len(result) == 1

    def test_single_subject_alias(self):
        entries = [
            entity("Q1", "Alpha", aliases=("A.",)),
            entity("Q2", "Beta"),
            predicate("P1", "rel"),
        ]
        fact = KgFact("Q1", "P1", "Q2")
        store = build_store(entries)
        result = augment_aliases([make_alignment("Alpha", "r", "Beta", fact)], store)
        assert len([a for a in result if a.augmented]) == 2 * 1 - 1 == 1

    def test_count_formula_property(self):
        for n_subject, n_object in itertools.product(range(4), range(4)):
            entries = [
                entity("Q1", "Alpha", aliases=tuple(f"A{i}" for i in range(n_subject))),
                entity("Q2", "Beta", aliases=tuple(f"B{i}" for i in range(n_object))),
                predicate("P1", "rel"),
            ]
            fact = KgFact("Q1", "P1", "Q2")
            store = build_store(entries)
            result = augment_aliases([make_alignment("Alpha", "r", "Beta", fact)], store)
            expected = (1 + n_subject) * (1 + n_object) - 1
            assert len([a for a in result if a.augmented]) == expected

    def test_rejects_already_augmented_input(self, jordan_store):
        augmented = make_alignment("X", "r", "Y", PLAYED_FOR_FACT, augmented=True)
        with pytest.raises(ValueError):
            augment_aliases([augmented], jordan_store)


class TestRemoveLeakage:
    def test_identical_alignment_removed(self):
        a = make_alignment("Alpha", "r", "Beta", KgFact("Q1", "P1", "Q2"))
        assert remove_leakage([a], [a]) == []

    def test_same_fact_different_surface_retained(self):
        fact = KgFact("Q1", "P1", "Q2")
        train = [make_alignment("Alpha", "r", "Beta", fact)]
        test = [make_alignment("A.", "r", "Beta", fact)]
        # oracle: set difference on (normalized oie, fact) pairs
        assert remove_leakage(train, test) == train

    def test_disjoint_sets_unchanged(self):
        train = [make_alignment("Alpha", "r", "Beta", KgFact("Q1", "P1", "Q2"))]
        test = [make_alignment("Gamma", "r", "Delta", KgFact("Q3", "P1", "Q4"))]
        assert remove_leakage(train, test) == train

    def test_result_disjoint_from_test_property(self):
        facts = [KgFact(f"Q{i}", "P1", f"Q{i+1}") for i in range(6)]
        train = [
            make_alignment(f"S{i % 4}", "r", f"O{i % 3}", facts[i % len(facts)])
            for i in range(12)
        ]
        test = train[::2]
        cleaned = remove_leakage(train, test)
        test_keys = {(a.oie.slots, a.fact.ids) for a in test}
        assert all((a.oie.slots, a.fact.ids) not in test_keys for a in cleaned)


class TestOieText:
    def test_plain_rendering(self):
        t = triple("M. Jordan", "grew up in", "Wilmington")
        assert oie_text(t) == "<SUBJ> M. Jordan <REL> grew up in <OBJ> Wilmington"

    def test_context_rendering(self):
        t = triple("M. Jordan", "grew up in", "Wilmington", sentence="He grew up there.")
        assert oie_text(t, with_context=True) == (
            "<SUBJ> M. Jordan <REL> grew up in <OBJ> Wilmington <SENT> He grew up there."
        )

    def test_missing_context(self):
        message = "triple ('a', 'b', 'c') has no provenance sentence"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            oie_text(triple("a", "b", "c"), with_context=True)

    def test_injective_on_marker_free_triples(self):
        triples = [
            triple("a b", "c", "d"),
            triple("a", "b c", "d"),
            triple("a", "b", "c d"),
            triple("a b c", "d", "e"),
        ]
        rendered = {oie_text(t) for t in triples}
        assert len(rendered) == len(triples)

    def test_marker_tokens_rejected_at_construction(self):
        message = "OIE subject contains reserved token '<REL>': 'a <REL> b'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            triple("a <REL> b", "c", "d")

    def test_empty_slot_rejected(self):
        with pytest.raises(ValueError):
            triple("  ", "r", "o")


class TestFileFormats:
    def test_oie_and_pairs_round_trip(self, tmp_path, jordan_store):
        oie_path = tmp_path / "oie.jsonl"
        pairs_path = tmp_path / "pairs.jsonl"
        write_jsonl(
            oie_path,
            [
                {
                    "sentence_id": "s1",
                    "subject": "Michael Jordan",
                    "relation": "played for",
                    "object": "Chicago Bulls",
                    "extractor": "toy",
                }
            ],
        )
        write_jsonl(
            pairs_path,
            [
                {
                    "sentence_id": "s1",
                    "sentence": "Michael Jordan played for Chicago Bulls.",
                    "subject": "Q41421",
                    "predicate": "P54",
                    "object": "Q128109",
                }
            ],
        )
        oies = read_oie_file(oie_path)
        pairs = read_pairs_file(pairs_path, jordan_store)
        result = align(oies, pairs, jordan_store)
        assert len(result) == 1
        assert result[0].oie.extractor == "toy"

    def test_pairs_unknown_id(self, tmp_path, jordan_store):
        pairs_path = tmp_path / "pairs.jsonl"
        write_jsonl(
            pairs_path,
            [
                {
                    "sentence_id": "s1",
                    "sentence": "...",
                    "subject": "Q404",
                    "predicate": "P54",
                    "object": "Q128109",
                }
            ],
        )
        with pytest.raises(DataError, match="^line 1: pair fact references unknown id 'Q404'$"):
            read_pairs_file(pairs_path, jordan_store)

    @pytest.mark.parametrize("slot,entry_id", [
        ("subject", "P54"), ("predicate", "Q18419"), ("object", "P19"),
    ])
    def test_pairs_entry_of_the_wrong_kind(self, tmp_path, jordan_store, slot, entry_id):
        record = {"sentence_id": "s1", "sentence": "...",
                  "subject": "Q41421", "predicate": "P54", "object": "Q128109"}
        pairs_path = tmp_path / "pairs.jsonl"
        write_jsonl(pairs_path, [record, {**record, slot: entry_id}])
        with pytest.raises(DataError, match=f"^line 2: pair fact uses {entry_id!r}"):
            read_pairs_file(pairs_path, jordan_store)

    def test_alignment_file_round_trip(self, tmp_path, jordan_store):
        alignments = [
            make_alignment("A", "r", "B", PLAYED_FOR_FACT, sentence="A r B."),
            make_alignment("A.", "r", "B", PLAYED_FOR_FACT, augmented=True),
        ]
        path = tmp_path / "alignments.jsonl"
        write_alignments(path, alignments)
        assert read_alignments(path, jordan_store) == alignments

    @pytest.mark.parametrize("slot,entry_id,message", [
        ("subject_id", "P54", "uses 'P54' as entity but it is a predicate"),
        ("predicate_id", "Q18419", "uses 'Q18419' as predicate but it is a entity"),
        ("object_id", "Q404", "references unknown id 'Q404'"),
    ])
    def test_alignment_fact_checked_against_the_store(
        self, tmp_path, jordan_store, slot, entry_id, message
    ):
        record = alignment_record(make_alignment("A", "r", "B", PLAYED_FOR_FACT))
        path = tmp_path / "alignments.jsonl"
        write_jsonl(path, [record, {**record, slot: entry_id}], header={"tool_version": "x"})
        with pytest.raises(DataError, match=f"^line 3: alignment fact {message}$"):
            read_alignments(path, jordan_store)

    @pytest.mark.parametrize("sentence", [5, ["A r B."], {"text": "A r B."}])
    def test_sentence_must_be_a_string_or_null(self, tmp_path, jordan_store, sentence):
        oie = {"sentence_id": "s1", "subject": "A", "relation": "r", "object": "B"}
        oie_path = tmp_path / "oie.jsonl"
        write_jsonl(oie_path, [{**oie, "sentence": None}, {**oie, "sentence": sentence}])
        expected = re.escape(f"line 2: sentence must be a string or null, got {sentence!r}")
        with pytest.raises(DataError, match=f"^{expected}$"):
            read_oie_file(oie_path)
        record = alignment_record(make_alignment("A", "r", "B", PLAYED_FOR_FACT))
        alignments_path = tmp_path / "alignments.jsonl"
        write_jsonl(alignments_path, [record, {**record, "sentence": sentence}])
        with pytest.raises(DataError, match=f"^{expected}$"):
            read_alignments(alignments_path, jordan_store)

    def test_blank_alignment_slot_names_line(self, tmp_path, jordan_store):
        record = alignment_record(make_alignment("A", "r", "B", PLAYED_FOR_FACT))
        path = tmp_path / "alignments.jsonl"
        write_jsonl(path, [record, {**record, "subject": "  "}])
        with pytest.raises(DataError, match="^line 2: OIE subject must be non-empty$"):
            read_alignments(path, jordan_store)

    def test_augmented_is_a_json_boolean_false_when_absent(self):
        record = alignment_record(make_alignment("A", "r", "B", PLAYED_FOR_FACT))
        for value in (True, False):
            assert alignment_from_record({**record, "augmented": value}).augmented is value
        del record["augmented"]
        assert alignment_from_record(record).augmented is False

    def test_record_round_trip_preserves_fields(self):
        a = Alignment(
            oie=OieTriple("A", "r", "B", sentence="s", extractor="x"),
            fact=KgFact("Q1", "P1", "Q2"),
            augmented=True,
        )
        assert alignment_from_record(alignment_record(a)) == a


def _read_entries(path, store):
    facts = path.with_name("facts.jsonl")
    write_jsonl(facts, [])
    return load_kg(path, facts)


def _read_facts(path, store):
    entries = path.with_name("entries.jsonl")
    write_jsonl(entries, [
        {"id": "Q41421", "kind": "entity", "label": "Michael Jordan"},
        {"id": "Q128109", "kind": "entity", "label": "Chicago Bulls"},
        {"id": "P54", "kind": "predicate", "label": "member of sports team"},
    ])
    return load_kg(entries, path)


def _read_thresholds(path, store):
    """The first record of a thresholds file, as ``detect`` reads it."""
    return thresholds_from_record(read_jsonl(path)[0], path)


# Each line-record kind: (its reader over a path in tmp_path, a valid record,
# the word its messages name it by, its required fields, and its optional
# typed fields as (field, wrong value, message after "line 2: ")).
RECORD_KINDS = {
    "entry": (
        _read_entries,
        {"id": "Q2", "kind": "entity", "label": "Bob", "description": "a player",
         "aliases": ["Bobby"]},
        "entry", ("id", "kind", "label"),
        [("kind", "person", "entry kind must be 'entity' or 'predicate', got 'person'"),
         ("label", None, "entry label must be a string, got None"),
         ("label", "Bad <SUBJ> label",
          "entry Q2 label contains reserved token '<SUBJ>': 'Bad <SUBJ> label'"),
         ("description", 5, "entry description must be a string or null, got 5"),
         ("aliases", "Bob", "entry aliases must be a list of strings, got 'Bob'"),
         ("description", "\ud800", "field 'description' holds a lone surrogate")],
    ),
    "fact": (
        _read_facts,
        {"subject": "Q41421", "predicate": "P54", "object": "Q128109"},
        "fact", ("subject", "predicate", "object"), [],
    ),
    "oie": (
        lambda path, store: read_oie_file(path),
        {"sentence_id": "s1", "subject": "A", "relation": "r", "object": "B",
         "sentence": "A r B.", "extractor": "toy"},
        "OIE", ("sentence_id", "subject", "relation", "object"),
        [("subject", None, "OIE subject must be a string, got None"),
         ("relation", ["r"], "OIE relation must be a string, got ['r']"),
         ("object", 5, "OIE object must be a string, got 5"),
         ("subject", "x <REL> y", "OIE subject contains reserved token '<REL>': 'x <REL> y'"),
         ("relation", "\ud800", "field 'relation' holds a lone surrogate"),
         ("sentence", ["A r B."], "sentence must be a string or null, got ['A r B.']"),
         ("extractor", ["x"], "extractor must be a string or null, got ['x']")],
    ),
    "pair": (
        read_pairs_file,
        {"sentence_id": "s1", "sentence": "A r B.", "subject": "Q41421", "predicate": "P54",
         "object": "Q128109", "subject_mention": "A", "object_mention": "B"},
        "pair", ("sentence_id", "sentence", "subject", "predicate", "object"),
        [("sentence", None, "pair sentence must be a string, got None"),
         ("subject_mention", 5, "pair subject_mention must be a string or null, got 5"),
         ("object_mention", {"text": "B"},
          "pair object_mention must be a string or null, got {'text': 'B'}")],
    ),
    "alignment": (
        read_alignments,
        {**alignment_record(make_alignment("A", "r", "B", PLAYED_FOR_FACT, sentence="A r B.")),
         "extractor": "toy"},
        "alignment",
        ("subject", "relation", "object", "subject_id", "predicate_id", "object_id"),
        [("subject", None, "OIE subject must be a string, got None"),
         ("relation", 5, "OIE relation must be a string, got 5"),
         ("object", {"id": "B"}, "OIE object must be a string, got {'id': 'B'}"),
         ("sentence", 5, "sentence must be a string or null, got 5"),
         ("extractor", ["x"], "extractor must be a string or null, got ['x']"),
         ("augmented", "false", "alignment augmented must be a boolean, got 'false'"),
         ("augmented", 1, "alignment augmented must be a boolean, got 1"),
         ("augmented", None, "alignment augmented must be a boolean, got None")],
    ),
}


def _message_cases():
    for kind, (_, valid, noun, required, typed) in RECORD_KINDS.items():
        for field in required:
            broken = {key: value for key, value in valid.items() if key != field}
            yield pytest.param(kind, broken, f"{noun} record missing field {field!r}",
                               id=f"{kind}-without-{field}")
        for field, value, message in typed:
            yield pytest.param(kind, {**valid, field: value}, message,
                               id=f"{kind}-{field}-{type(value).__name__}")


def _write_records(path, kind, second):
    """A two-line file of ``kind``: a valid record, then ``second``, with
    non-ASCII text as JSON escapes (a lone surrogate has no UTF-8 form)."""
    valid = RECORD_KINDS[kind][1]
    first = {**valid, "id": "Q1", "label": "Ann", "aliases": []} if kind == "entry" else valid
    path.write_text("".join(json.dumps(record) + "\n" for record in (first, second)), "utf-8")


class TestRecordMessages:
    @pytest.mark.parametrize("kind", sorted(RECORD_KINDS))
    def test_valid_records_read(self, kind, tmp_path, jordan_store):
        read, valid = RECORD_KINDS[kind][:2]
        _write_records(tmp_path / "records.jsonl", kind, valid)
        read(tmp_path / "records.jsonl", jordan_store)

    @pytest.mark.parametrize("kind,broken,message", list(_message_cases()))
    def test_message_names_the_line(self, kind, broken, message, tmp_path, jordan_store):
        """A malformed second line: one DataError, its message pinned in
        full."""
        _write_records(tmp_path / "records.jsonl", kind, broken)
        with pytest.raises(DataError) as raised:
            RECORD_KINDS[kind][0](tmp_path / "records.jsonl", jordan_store)
        assert str(raised.value) == f"line 2: {message}"
        assert raised.value.line_number == 2

    @pytest.mark.parametrize("lines_before", [1, 400])
    @pytest.mark.parametrize("kind", ["entry", "thresholds"])
    def test_byte_not_utf8_names_its_line(self, kind, lines_before, tmp_path, jordan_store):
        """A byte that UTF-8 cannot decode: one DataError naming its line and
        column, also past the first chunk, which the decoder reads ahead of
        the lines yielded."""
        if kind == "entry":
            records = [{**RECORD_KINDS["entry"][1], "id": f"Q{i}"} for i in range(lines_before + 1)]
            read = _read_entries
        else:
            records = [thresholds_record(OokgThresholds())] * (lines_before + 1)
            read = _read_thresholds
        lines = [json.dumps(record).encode("utf-8") for record in records]
        lines[-1] = b"{\xff" + lines[-1][1:]
        (tmp_path / "records.jsonl").write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError) as raised:
            read(tmp_path / "records.jsonl", jordan_store)
        assert str(raised.value) == f"line {lines_before + 1}: byte 0xff at column 2 is not UTF-8"


class TestIterJsonl:
    """Each stripped line is one JSON object; every message is pinned."""

    @pytest.mark.parametrize("text,line_number,message", [
        ('{"a": 1}\n{"a": 1} {"b": 2}\n', 2,
         "invalid JSON: Extra data: line 1 column 10 (char 9)"),
        ('{"a": 1}}\n', 1, "invalid JSON: Extra data: line 1 column 9 (char 8)"),
        ('{"id": "Q1",\n "label": "x"}\n', 1, "invalid JSON: Expecting property name "
         "enclosed in double quotes: line 1 column 13 (char 12)"),
        ('{"a": 1}\n\n[1, 2]\n', 3, "record is not an object"),
        ('"text"\n', 1, "record is not an object"),
        ('\ufeff{"a": 1}\n', 1, "invalid JSON: Unexpected UTF-8 BOM "
         "(decode using utf-8-sig): line 1 column 1 (char 0)"),
        ('{"a": 1}\n\ufeff{"b": 2}\n', 2, "invalid JSON: Unexpected UTF-8 BOM "
         "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ], ids=["extra-data", "extra-brace", "split-record", "list", "string", "bom", "bom-line-2"])
    def test_message_and_line(self, text, line_number, message, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as raised:
            list(iter_jsonl(path))
        assert str(raised.value) == f"line {line_number}: {message}"
        assert raised.value.line_number == line_number

    def test_only_a_first_line_header_is_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"tool_version": "0.1", "seed": 1}\n {"a": [1, {"b": null}]}\t\n'
                        '\n{"tool_version": "0.2"}\n', encoding="utf-8")
        assert list(iter_jsonl(path)) == [(2, {"a": [1, {"b": None}]}),
                                          (4, {"tool_version": "0.2"})]


class TestUids:
    def test_uid_ignores_extractor(self):
        a = OieTriple("A", "r", "B", extractor="x")
        b = OieTriple("A", "r", "B", extractor="y")
        assert oie_uid(a) == oie_uid(b)

    def test_uid_depends_on_sentence(self):
        a = OieTriple("A", "r", "B", sentence="one")
        b = OieTriple("A", "r", "B", sentence="two")
        assert oie_uid(a) != oie_uid(b)
