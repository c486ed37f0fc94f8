import random

from conftest import entity, make_alignment, predicate
from factlink.kg import KgFact, build_store
from factlink.splits import InductiveMode, SplitKind, SplitSpec, build_split, compute_stats

TRANSDUCTIVE, INDUCTIVE, POLYSEMOUS, OUT_OF_KG = SplitKind
EMPTY_STORE = build_store([])


def split(kind, test, train, store=EMPTY_STORE, mode=InductiveMode.ANY_ENTITY_UNSEEN):
    return build_split(SplitSpec(kind, mode), test, train, store)


def fifty_fact_world(seed=3):
    """Deterministic world with ~50 test facts spanning all four facets.

    Entities e0..e19 and predicates p0..p3 are 'seen' (used by training
    facts); u0..u9 and q0..q1 are unseen. Entities t0/t1 share a label.
    """
    rng = random.Random(seed)
    entries = [entity(f"e{i}", f"seen entity {i}") for i in range(20)]
    entries += [entity(f"u{i}", f"unseen entity {i}") for i in range(10)]
    entries += [entity("t0", "Twin Name", "the first twin")]
    entries += [entity("t1", "Twin Name", "the second twin")]
    entries += [predicate(f"p{i}", f"seen predicate {i}") for i in range(4)]
    entries += [predicate(f"q{i}", f"unseen predicate {i}") for i in range(2)]

    train_facts = []
    for _ in range(40):
        s, o = rng.sample(range(20), 2)
        train_facts.append(KgFact(f"e{s}", f"p{rng.randrange(4)}", f"e{o}"))
    train_facts.append(KgFact("t0", "p0", "e0"))  # twins are seen entities

    test_facts = []
    for _ in range(20):  # transductive candidates: seen parts, new triples
        s, o = rng.sample(range(20), 2)
        test_facts.append(KgFact(f"e{s}", f"p{rng.randrange(4)}", f"e{o}"))
    for i in range(10):  # one unseen entity
        test_facts.append(KgFact(f"u{i}", f"p{i % 4}", f"e{i}"))
    for i in range(8):  # both entities unseen, predicate seen
        test_facts.append(KgFact(f"u{i}", f"p{i % 4}", f"u{(i + 1) % 10}"))
    for i in range(6):  # fully unseen: out-of-KG candidates
        test_facts.append(KgFact(f"u{i}", f"q{i % 2}", f"u{(i + 3) % 10}"))
    test_facts.append(KgFact("t0", "p1", "e5"))  # polysemous subject
    test_facts.append(KgFact("e3", "p1", "t1"))  # polysemous object

    store = build_store(entries)

    def oie_for(fact):
        return (
            store.entry(fact.subject_id).label,
            "relates to",
            store.entry(fact.object_id).label,
        )

    train = [make_alignment(*oie_for(f), f) for f in dict.fromkeys(train_facts)]
    test = [make_alignment(*oie_for(f), f) for f in dict.fromkeys(test_facts)]
    # drop test facts that duplicate training triples (keeps intent crisp)
    train_ids = {f.ids for f in train_facts}
    test = [a for a in test if a.fact.ids not in train_ids]
    return store, train, test


class TestTransductive:
    def test_components_seen_triple_unseen_included(self):
        store, train, test = fifty_fact_world()
        result = split(TRANSDUCTIVE, test, train)
        seen_entities = {a.fact.subject_id for a in train} | {a.fact.object_id for a in train}
        seen_predicates = {a.fact.predicate_id for a in train}
        train_triples = {a.fact.ids for a in train}
        for a in result.alignments:
            assert a.fact.subject_id in seen_entities
            assert a.fact.object_id in seen_entities
            assert a.fact.predicate_id in seen_predicates
            assert a.fact.ids not in train_triples
        assert result.stats.samples > 0

    def test_training_triple_excluded(self):
        store, train, test = fifty_fact_world()
        polluted = test + [train[0]]
        result = split(TRANSDUCTIVE, polluted, train)
        assert train[0] not in result.alignments

    def test_unseen_entity_excluded(self):
        store, train, test = fifty_fact_world()
        result = split(TRANSDUCTIVE, test, train)
        assert all(
            not a.fact.subject_id.startswith("u") and not a.fact.object_id.startswith("u")
            for a in result.alignments
        )


class TestInductive:
    def test_any_mode_requires_one_unseen(self):
        store, train, test = fifty_fact_world()
        result = split(INDUCTIVE, test, train, mode=InductiveMode.ANY_ENTITY_UNSEEN)
        seen = {a.fact.subject_id for a in train} | {a.fact.object_id for a in train}
        assert result.stats.samples > 0
        for a in result.alignments:
            assert a.fact.subject_id not in seen or a.fact.object_id not in seen

    def test_both_seen_excluded_both_unseen_included(self):
        train = [make_alignment("A", "r", "B", KgFact("Q1", "P1", "Q2"))]
        seen_fact = make_alignment("A", "r", "B", KgFact("Q2", "P1", "Q1"))
        unseen_fact = make_alignment("X", "r", "Y", KgFact("Q8", "P1", "Q9"))
        for mode in InductiveMode:
            result = split(INDUCTIVE, [seen_fact, unseen_fact], train, mode=mode)
            assert seen_fact not in result.alignments
            assert unseen_fact in result.alignments

    def test_all_mode_is_stricter(self):
        store, train, test = fifty_fact_world()
        any_result = split(INDUCTIVE, test, train, mode=InductiveMode.ANY_ENTITY_UNSEEN)
        all_result = split(INDUCTIVE, test, train, mode=InductiveMode.ALL_ENTITIES_UNSEEN)
        assert set(all_result.alignments) <= set(any_result.alignments)
        assert all_result.stats.samples < any_result.stats.samples


class TestPolysemous:
    def test_shared_label_included(self):
        store, train, test = fifty_fact_world()
        result = split(POLYSEMOUS, test, train, store)
        subjects = {a.fact.subject_id for a in result.alignments}
        objects = {a.fact.object_id for a in result.alignments}
        assert "t0" in subjects
        assert "t1" in objects

    def test_unique_surfaces_excluded(self):
        store, train, test = fifty_fact_world()
        result = split(POLYSEMOUS, test, train, store)
        for a in result.alignments:
            assert "t0" in a.fact.ids or "t1" in a.fact.ids

    def test_object_polysemy_alone_qualifies(self, jordan_store):
        fact = KgFact("Q128109", "P54", "Q3308205")
        a = make_alignment("Chicago Bulls", "hired", "Michael Jordan", fact)
        result = split(POLYSEMOUS, [a], [], jordan_store)
        assert list(result.alignments) == [a]


class TestOokg:
    def test_fully_unseen_included(self):
        store, train, test = fifty_fact_world()
        result = split(OUT_OF_KG, test, train)
        assert result.stats.samples == 6
        for a in result.alignments:
            assert a.fact.predicate_id.startswith("q")

    def test_seen_predicate_excluded(self):
        store, train, test = fifty_fact_world()
        result = split(OUT_OF_KG, test, train)
        seen_predicates = {a.fact.predicate_id for a in train}
        assert all(a.fact.predicate_id not in seen_predicates for a in result.alignments)

    def test_empty_train_includes_everything(self):
        store, train, test = fifty_fact_world()
        result = split(OUT_OF_KG, test, [])
        assert list(result.alignments) == test


class TestFacetRelations:
    def test_transductive_disjoint_from_inductive_any(self):
        store, train, test = fifty_fact_world()
        trans = set(split(TRANSDUCTIVE, test, train).alignments)
        ind = set(split(INDUCTIVE, test, train, mode=InductiveMode.ANY_ENTITY_UNSEEN).alignments)
        assert trans.isdisjoint(ind)

    def test_ookg_subset_of_inductive_all(self):
        store, train, test = fifty_fact_world()
        ookg = set(split(OUT_OF_KG, test, train).alignments)
        ind_all = set(
            split(INDUCTIVE, test, train, mode=InductiveMode.ALL_ENTITIES_UNSEEN).alignments
        )
        assert ookg <= ind_all

    def test_stats_match_independent_recount(self):
        store, train, test = fifty_fact_world()
        for result in (
            split(TRANSDUCTIVE, test, train),
            split(INDUCTIVE, test, train),
            split(POLYSEMOUS, test, train, store),
            split(OUT_OF_KG, test, train),
        ):
            entities = set()
            predicates = set()
            facts = set()
            for a in result.alignments:
                entities |= {a.fact.subject_id, a.fact.object_id}
                predicates.add(a.fact.predicate_id)
                facts.add(a.fact.ids)
            assert result.stats.samples == len(result.alignments)
            assert result.stats.unique_entities == len(entities)
            assert result.stats.unique_predicates == len(predicates)
            assert result.stats.unique_facts == len(facts)

    def test_deterministic(self):
        store, train, test = fifty_fact_world()
        for spec in (
            SplitSpec(SplitKind.TRANSDUCTIVE),
            SplitSpec(SplitKind.INDUCTIVE),
            SplitSpec(SplitKind.INDUCTIVE, InductiveMode.ALL_ENTITIES_UNSEEN),
            SplitSpec(SplitKind.POLYSEMOUS),
            SplitSpec(SplitKind.OUT_OF_KG),
        ):
            a = build_split(spec, test, train, store)
            b = build_split(spec, test, train, store)
            assert a == b

    def test_stats_record_column_names(self):
        stats = compute_stats([])
        assert list(stats.to_record()) == [
            "# Total Samples",
            "# Unique Entities",
            "# Unique Predicates",
            "# Unique Facts",
        ]
