import random

import pytest

import factlink.kg as kg
from conftest import entity, make_alignment, predicate
from factlink.errors import (
    DanglingFactError,
    DuplicateIdError,
    MalformedRecordError,
    ReservedTokenError,
    UnknownIdError,
)
from factlink.io import write_jsonl
from factlink.kg import (
    EntryKind,
    KgFact,
    build_store,
    load_kg,
    lookup_surface,
    restrict_to_benchmark,
)


def write_kg_files(tmp_path, entries, facts):
    tmp_path.mkdir(parents=True, exist_ok=True)
    entries_path = tmp_path / "entries.jsonl"
    facts_path = tmp_path / "facts.jsonl"
    write_jsonl(entries_path, entries)
    write_jsonl(facts_path, facts)
    return entries_path, facts_path


def load_filtered(tmp_path, entries, facts, min_count):
    """``load_kg`` at ``min_count`` over files holding the KgEntry and
    KgFact objects given."""
    paths = write_kg_files(
        tmp_path,
        [{"id": e.id, "kind": e.kind.value, "label": e.label, "description": e.description,
          "aliases": list(e.aliases)} for e in entries],
        [{"subject": f.subject_id, "predicate": f.predicate_id, "object": f.object_id}
         for f in facts],
    )
    return load_kg(*paths, min_count=min_count)


def frequencies(store, facts):
    """How many distinct facts over the store's entries each entry is in."""
    counts = {}
    for ids in {f.ids for f in facts if set(f.ids) <= set(store.entries)}:
        for entry_id in set(ids):
            counts[entry_id] = counts.get(entry_id, 0) + 1
    return counts


JORDAN_ENTRY = {
    "id": "Q41421",
    "kind": "entity",
    "label": "Michael Jordan",
    "description": "American basketball player and businessman",
    "aliases": ["Air Jordan", "M.J.", "His Airness"],
}
TEAM_ENTRY = {"id": "Q128109", "kind": "entity", "label": "Chicago Bulls"}
PLAYS_FOR = {"id": "P54", "kind": "predicate", "label": "member of sports team"}


class TestLoadKg:
    def test_entry_loads_and_is_retrievable(self, tmp_path):
        entries_path, facts_path = write_kg_files(
            tmp_path,
            [JORDAN_ENTRY, TEAM_ENTRY, PLAYS_FOR],
            [{"subject": "Q41421", "predicate": "P54", "object": "Q128109"}],
        )
        store = load_kg(entries_path, facts_path)
        entry = store.entry("Q41421")
        assert entry.label == "Michael Jordan"
        assert entry.kind is EntryKind.ENTITY
        assert entry.aliases == ("Air Jordan", "M.J.", "His Airness")
        assert list(store.entries) == ["Q41421", "Q128109", "P54"]
        assert not hasattr(store, "facts")

    def test_empty_facts_stream(self, tmp_path):
        entries_path, facts_path = write_kg_files(tmp_path, [JORDAN_ENTRY], [])
        assert list(load_kg(entries_path, facts_path).entries) == ["Q41421"]
        assert load_kg(entries_path, facts_path, min_count=1).entries == {}

    def test_negative_min_count_rejected(self, tmp_path):
        entries_path, facts_path = write_kg_files(tmp_path, [JORDAN_ENTRY], [])
        with pytest.raises(ValueError, match="min_count"):
            load_kg(entries_path, facts_path, min_count=-1)

    def test_each_fact_validated_once(self, tmp_path, monkeypatch):
        fact = {"subject": "Q41421", "predicate": "P54", "object": "Q128109"}
        entries_path, facts_path = write_kg_files(
            tmp_path, [JORDAN_ENTRY, TEAM_ENTRY, PLAYS_FOR], [fact, fact]
        )
        validated = []
        validate = kg._validate_fact

        def counting(fact, *args, **kwargs):
            validated.append(fact)
            return validate(fact, *args, **kwargs)

        monkeypatch.setattr(kg, "_validate_fact", counting)
        store = load_kg(entries_path, facts_path)
        assert validated == []  # a valid line is checked by id kind, building no KgFact
        rebuilt = build_store(store.entries.values())
        assert store.surface_index == rebuilt.surface_index
        # the repeated line is one fact: each entry is in one distinct fact
        assert len(load_kg(entries_path, facts_path, min_count=1).entries) == 3
        assert load_kg(entries_path, facts_path, min_count=2).entries == {}
        # a line that check rejects goes through _validate_fact, once
        write_jsonl(facts_path, [fact, {**fact, "object": "Q999999"}, fact])
        with pytest.raises(DanglingFactError, match="line 2"):
            load_kg(entries_path, facts_path)
        assert validated == [KgFact("Q41421", "P54", "Q999999")]

    @pytest.mark.parametrize("record", [
        {"subject": "Q41421", "predicate": "P54", "object": "Q128109"},
        {"subject": 7, "predicate": "P54", "object": "Q128109"},  # str() makes it an id
        {"subject": "Q41421", "predicate": "P54", "object": "Q999999"},
        {"subject": "Q41421", "predicate": "Q128109", "object": "P54"},
        {"subject": "Q41421", "predicate": "P54"},
        {"predicate": "P54"},
        {"subject": ["Q41421"], "predicate": "P54", "object": "Q128109"},
        {"subject": {"id": 1}, "predicate": "P54", "object": "Q128109"},
        {"subject": None, "predicate": "P54", "object": "Q128109"},
    ], ids=["valid", "int-id", "unknown", "kinds", "no-object", "two-missing", "list-id",
            "dict-id", "null-id"])
    def test_fact_line_outcome_matches_the_parse_and_validate_path(self, tmp_path, record):
        """The id-kind check accepts exactly the lines that ``_parse_fact``
        and ``_validate_fact`` accept, with the same error and facts."""
        entries = [JORDAN_ENTRY, TEAM_ENTRY, PLAYS_FOR, {"id": "7", "kind": "entity", "label": "7"}]
        entries_path, facts_path = write_kg_files(tmp_path, entries, [record, record])
        try:
            fact = kg._parse_fact(record, 1)
            kg._validate_fact(fact, {e["id"]: kg._parse_entry(e, 0) for e in entries}, "line 1: ")
            expected = None
        except (MalformedRecordError, DanglingFactError) as exc:
            expected = (type(exc), str(exc))
        if expected is None:
            kept = load_kg(entries_path, facts_path, min_count=1).entries
            assert set(kept) == set(fact.ids)
        else:
            with pytest.raises(expected[0]) as raised:
                load_kg(entries_path, facts_path, min_count=1)
            assert str(raised.value) == expected[1]

    def test_dangling_fact_reference_names_line(self, tmp_path):
        entries_path, facts_path = write_kg_files(
            tmp_path,
            [JORDAN_ENTRY, TEAM_ENTRY, PLAYS_FOR],
            [
                {"subject": "Q41421", "predicate": "P54", "object": "Q128109"},
                {"subject": "Q41421", "predicate": "P54", "object": "Q999999"},
            ],
        )
        with pytest.raises(DanglingFactError, match="line 2.*Q999999"):
            load_kg(entries_path, facts_path)

    def test_duplicate_id_rejected(self, tmp_path):
        entries_path, facts_path = write_kg_files(tmp_path, [JORDAN_ENTRY, JORDAN_ENTRY], [])
        with pytest.raises(DuplicateIdError, match="Q41421"):
            load_kg(entries_path, facts_path)

    def test_malformed_record_names_line(self, tmp_path):
        entries_path, facts_path = write_kg_files(
            tmp_path, [TEAM_ENTRY, {"id": "X1", "kind": "entity"}], []
        )
        with pytest.raises(MalformedRecordError, match="line 2"):
            load_kg(entries_path, facts_path)

    @pytest.mark.parametrize("field,value", [
        ("aliases", 5), ("aliases", [5]), ("aliases", "Bob"), ("aliases", {"Bob": 1}),
        ("description", 5), ("description", ["a player"]),
    ])
    def test_field_of_the_wrong_type_names_line(self, tmp_path, field, value):
        entries_path, facts_path = write_kg_files(
            tmp_path, [TEAM_ENTRY, {**JORDAN_ENTRY, field: value}], []
        )
        with pytest.raises(MalformedRecordError, match=f"line 2: entry {field} must be"):
            load_kg(entries_path, facts_path)

    def test_kind_must_match_fact_position(self, tmp_path):
        entries_path, facts_path = write_kg_files(
            tmp_path,
            [JORDAN_ENTRY, TEAM_ENTRY, PLAYS_FOR],
            [{"subject": "Q41421", "predicate": "Q128109", "object": "P54"}],
        )
        with pytest.raises(DanglingFactError):
            load_kg(entries_path, facts_path)


class TestEntryInvariants:
    def test_label_not_repeated_in_aliases(self):
        with pytest.raises(ValueError, match="label repeated"):
            entity("Q1", "Bulls", aliases=("Bulls",))

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ValueError, match="duplicate alias"):
            entity("Q1", "Bulls", aliases=("B", "B"))

    def test_marker_token_rejected_in_label(self):
        with pytest.raises(ReservedTokenError):
            entity("Q1", "Bulls <DESC> team")


def clique_world(extra_entities=()):
    """Entries and facts of a complete graph over six core entities (each
    participates in exactly 5 facts) plus optional extras wired to a few
    core members."""
    core = [f"e{i}" for i in range(6)]
    entries = [entity(eid, f"Core {eid}") for eid in core]
    entries.append(predicate("P1", "linked to"))
    facts = [
        KgFact(core[i], "P1", core[j])
        for i in range(6)
        for j in range(i + 1, 6)
    ]
    for eid, degree in extra_entities:
        entries.append(entity(eid, f"Extra {eid}"))
        facts.extend(KgFact(core[i], "P1", eid) for i in range(degree))
    return entries, facts


class TestFilterByFrequency:
    """``load_kg``'s ``min_count`` filter over written files."""

    def test_below_threshold_removed(self, tmp_path):
        filtered = load_filtered(tmp_path, *clique_world(extra_entities=[("y", 4)]), 5)
        assert "y" not in filtered.entries

    def test_at_threshold_retained(self, tmp_path):
        filtered = load_filtered(tmp_path, *clique_world(), 5)
        assert set(filtered.entries) == {"e0", "e1", "e2", "e3", "e4", "e5", "P1"}

    def test_min_count_one_keeps_fact_covered_store(self, tmp_path):
        entries, facts = clique_world(extra_entities=[("y", 2)])
        filtered = load_filtered(tmp_path, entries, facts, 1)
        assert list(filtered.entries) == [e.id for e in entries]

    def test_min_count_one_drops_entries_in_no_fact(self, tmp_path):
        entries, facts = clique_world()
        entries += [entity("lone", "Lone"), predicate("P2", "unused")]
        assert len(load_filtered(tmp_path / "off", entries, facts, 0).entries) == 9
        filtered = load_filtered(tmp_path / "on", entries, facts, 1)
        assert set(filtered.entries) == {"e0", "e1", "e2", "e3", "e4", "e5", "P1"}

    def test_cascading_removal_reaches_fixpoint(self, tmp_path):
        # chain: removing the tail entity orphans the only fact keeping the
        # middle entity alive, and so on.
        entries = [
            entity("a", "A"),
            entity("b", "B"),
            entity("c", "C"),
            predicate("P1", "next"),
        ]
        facts = [KgFact("a", "P1", "b"), KgFact("b", "P1", "c"), KgFact("c", "P1", "a")]
        # every entry has frequency 2, P1 has 3; min_count 3 keeps only P1's
        # count but P1 loses all facts once entities go, so the store empties
        assert load_filtered(tmp_path, entries, facts, 3).entries == {}

    def test_fixpoint_property_random_stores(self, tmp_path):
        rng = random.Random(7)
        for store_number in range(25):
            n_entities = rng.randint(2, 12)
            entries = [entity(f"e{i}", f"Entity {i}") for i in range(n_entities)]
            entries.append(predicate("P1", "rel"))
            facts = []
            for _ in range(rng.randint(0, 25)):
                s = rng.randrange(n_entities)
                o = rng.randrange(n_entities)
                facts.append(KgFact(f"e{s}", "P1", f"e{o}"))
            min_count = rng.randint(1, 4)
            directory = tmp_path / str(store_number)
            filtered = load_filtered(directory / "all", entries, facts, min_count)
            counts = frequencies(filtered, facts)
            assert all(counts.get(eid, 0) >= min_count for eid in filtered.entries)
            # idempotent at the fixpoint
            kept = [e for e in entries if e.id in filtered.entries]
            kept_facts = [f for f in facts if set(f.ids) <= set(filtered.entries)]
            again = load_filtered(directory / "kept", kept, kept_facts, min_count)
            assert list(again.entries) == list(filtered.entries)


JORDAN_FACTS = [
    KgFact("Q41421", "P54", "Q128109"),
    KgFact("Q41421", "P19", "Q18419"),
    KgFact("Q3308205", "P19", "Q659400"),
]


class TestRestrictToBenchmark:
    def test_exact_entry_set(self, jordan_store):
        fact = KgFact("Q41421", "P54", "Q128109")
        alignments = [make_alignment("Michael Jordan", "played for", "Chicago Bulls", fact)]
        brkg = restrict_to_benchmark(jordan_store, alignments)
        # brute-force oracle: union of fact-entry ids over the alignments
        expected = set()
        for a in alignments:
            expected.update(a.fact.ids)
        assert set(brkg.entries) == expected == {"Q41421", "P54", "Q128109"}
        assert len(brkg.entity_ids()) == 2
        assert len(brkg.predicate_ids()) == 1

    def test_empty_alignments(self, jordan_store):
        brkg = restrict_to_benchmark(jordan_store, [])
        assert brkg.entries == {}

    def test_full_coverage_identity(self, jordan_store):
        alignments = [
            make_alignment("s", "r", "o", fact) for fact in reversed(JORDAN_FACTS)
        ]
        brkg = restrict_to_benchmark(jordan_store, alignments)
        assert list(brkg.entries) == list(jordan_store.entries)  # in store order

    def test_unknown_id_raises(self, jordan_store):
        alignments = [make_alignment("s", "r", "o", KgFact("Q1", "P54", "Q128109"))]
        with pytest.raises(UnknownIdError, match="Q1"):
            restrict_to_benchmark(jordan_store, alignments)


class TestLookupSurface:
    def test_polysemous_surface(self, jordan_store):
        assert lookup_surface(jordan_store, "Michael Jordan") == {"Q41421", "Q3308205"}

    def test_alias_lookup(self, jordan_store):
        assert lookup_surface(jordan_store, "M.J.") == {"Q41421"}
        assert lookup_surface(jordan_store, "The Bulls") == {"Q128109"}

    def test_unseen_surface(self, jordan_store):
        assert lookup_surface(jordan_store, "LeBron James") == frozenset()

    def test_label_always_resolves_to_entry(self, jordan_store):
        for eid in jordan_store.entity_ids():
            entry = jordan_store.entry(eid)
            assert eid in lookup_surface(jordan_store, entry.label)

    def test_case_folding_flag(self):
        store = build_store([entity("Q1", "Bulls")], case_fold=True)
        assert lookup_surface(store, "BULLS") == {"Q1"}
        strict = build_store([entity("Q1", "Bulls")])
        assert lookup_surface(strict, "BULLS") == frozenset()
        with pytest.raises(TypeError):  # case_fold is keyword-only
            build_store([entity("Q1", "Bulls")], [])

    def test_nfc_normalization(self):
        # decomposed e + combining acute equals the precomposed form
        store = build_store([entity("Q1", "Hétu")])
        assert lookup_surface(store, "Hétu") == {"Q1"}


class TestStoreInvariants:
    def test_every_fact_resolves(self, tmp_path):
        """A KG loads exactly when each fact's ids are entries, whether or
        not the frequency filter applies."""
        rng = random.Random(11)
        for store_number in range(20):
            n = rng.randint(1, 8)
            entries = [entity(f"e{i}", f"Entity {i}") for i in range(n)]
            entries.append(predicate("P1", "rel"))
            facts = [  # e{n} is no entry
                KgFact(f"e{rng.randrange(n + 1)}", "P1", f"e{rng.randrange(n)}")
                for _ in range(rng.randint(0, 10))
            ]
            resolves = all(fact.subject_id != f"e{n}" for fact in facts)
            directory = tmp_path / str(store_number)
            for min_count in (0, 2):
                if resolves:
                    load_filtered(directory / str(min_count), entries, facts, min_count)
                else:
                    with pytest.raises(DanglingFactError, match=f"e{n}"):
                        load_filtered(directory / str(min_count), entries, facts, min_count)

    def test_surface_index_covers_exactly_labels_and_aliases(self, jordan_store):
        expected = set()
        for eid in jordan_store.entity_ids():
            entry = jordan_store.entry(eid)
            expected.add(entry.label)
            expected.update(entry.aliases)
        assert set(jordan_store.surface_index) == expected
