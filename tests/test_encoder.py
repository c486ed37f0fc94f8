from collections import Counter
from itertools import chain
import re

import numpy as np
import pytest

import factlink.encoder as encoder_module
import factlink.preranker as preranker
from conftest import entity, make_alignment, predicate
from factlink.corpus import OieTriple, oie_text
from factlink.encoder import (
    EncoderConfig,
    FeatureHasher,
    ReferenceEncoder,
    _hash_feature,
    _N_RESERVED,
    _token_buckets,
    encode_batch,
    init_params,
)
from factlink.kg import KgFact, build_store
from factlink.preranker import IndexKind
from factlink.errors import DataError, NumericError
from factlink.text import MARKER_TOKENS

CONFIG = EncoderConfig(dim=16, hidden=8, buckets=512)
# served and trained vectors agree with the per-text reference forward up
# to float64 summation order
FORWARD_TOL = 1e-12


@pytest.fixture(scope="module")
def encoder():
    return ReferenceEncoder(init_params(CONFIG, seed=5))


def triple(s="Michael Jordan", r="played for", o="Chicago Bulls", sentence=None):
    return OieTriple(subject=s, relation=r, object=o, sentence=sentence)


class TestFeaturize:
    """``FeatureHasher.compile``: a text's bucket ids, in order, with repeats."""

    def test_hand_enumerated_trigrams(self):
        # "Bulls" decomposes into one word feature and five boundary-marked
        # trigrams: ^bu bul ull lls ls$
        expected_features = ["w:bulls", "t:^bu", "t:bul", "t:ull", "t:lls", "t:ls$"]
        space = CONFIG.buckets - _N_RESERVED
        expected = tuple(_N_RESERVED + _hash_feature(f, space) for f in expected_features)
        assert FeatureHasher(CONFIG.buckets).compile("Bulls") == expected

    def test_empty_string(self):
        assert FeatureHasher(CONFIG.buckets).compile("") == ()

    def test_marker_maps_to_dedicated_bucket(self):
        for i, token in enumerate(MARKER_TOKENS):
            assert FeatureHasher(CONFIG.buckets).compile(token) == (i,)

    def test_lowercasing(self):
        hasher = FeatureHasher(CONFIG.buckets)
        assert hasher.compile("BULLS") == hasher.compile("bulls")

    def test_multiset_counts_repeats(self):
        hasher = FeatureHasher(CONFIG.buckets)
        once = Counter(hasher.compile("Bulls"))
        twice = Counter(hasher.compile("Bulls Bulls"))
        assert twice == Counter({k: 2 * v for k, v in once.items()})

    def test_short_words(self):
        # one-char word: one word feature plus one trigram ^a$
        assert len(FeatureHasher(CONFIG.buckets).compile("a")) == 2

    @pytest.mark.parametrize("order", [1, -1])
    def test_memoized_compile_matches_fresh_featurize(self, order):
        """The hasher's token memo is keyed by the raw token: a marker and
        its case variants, which are hashed as words, stay apart."""
        texts = ["", "  ", "<SUBJ> Bulls <subj> bulls <Subj> BULLS Bulls", "a a a b",
                 "<mask> <MASK> <Mask> mask", "Chicago Bulls <REL> played for <OBJ> the Bulls",
                 "<DESC> <desc> <FACT> fact bulls"]
        space = CONFIG.buckets - _N_RESERVED
        hasher = FeatureHasher(CONFIG.buckets)
        for text in texts[::order]:
            fresh = [_token_buckets(token, space) for token in text.split()]  # no memo
            assert hasher.compile(text) == tuple(chain.from_iterable(fresh))

    def test_bucket_count_must_exceed_the_markers(self):
        with pytest.raises(ValueError, match="^bucket count must exceed"):
            FeatureHasher(_N_RESERVED)


class TestSlotEmbed:
    def test_three_unit_vectors(self, encoder):
        embeddings = encoder.slot_embed(triple())
        assert len(embeddings) == 3
        for e in embeddings:
            assert e.shape == (CONFIG.dim,)
            assert abs(np.linalg.norm(e) - 1.0) < 1e-6
            assert abs(float(e @ e) - 1.0) < 1e-6

    def test_context_sensitivity_of_shared_subject(self, encoder):
        a = encoder.slot_embed(triple("Michael Jordan", "played for", "Chicago Bulls"))
        b = encoder.slot_embed(triple("Michael Jordan", "wrote", "a textbook"))
        assert not np.allclose(a[0], b[0])

    def test_deterministic_bitwise(self):
        params = init_params(CONFIG, seed=9)
        a = ReferenceEncoder(params).slot_embed(triple())
        b = ReferenceEncoder(params).slot_embed(triple())
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_sentence_changes_embeddings_only_with_context(self, encoder):
        plain = triple()
        with_sentence = triple(sentence="Michael Jordan played for Chicago Bulls.")
        assert np.array_equal(
            encoder.slot_embed(plain)[0], encoder.slot_embed(with_sentence)[0]
        )
        contextual = encoder.slot_embed(with_sentence, with_context=True)
        assert not np.allclose(encoder.slot_embed(with_sentence)[0], contextual[0])

    def test_missing_context_propagates(self, encoder):
        with pytest.raises(DataError, match=r"^triple \(.*\) has no provenance sentence$"):
            encoder.slot_embed(triple(), with_context=True)

    def test_relation_feeds_subject_only_through_triple_half(self):
        params = init_params(CONFIG, seed=5)
        a = triple("Michael Jordan", "played for", "Chicago Bulls")
        b = triple("Michael Jordan", "coached", "Chicago Bulls")
        full = ReferenceEncoder(params)
        assert not np.allclose(full.slot_embed(a)[0], full.slot_embed(b)[0])
        # zero the triple half of the slot projection: the subject embedding
        # must become relation-invariant
        restricted_params = params.copy()
        restricted_params.slot_projection[CONFIG.hidden :, :] = 0.0
        restricted = ReferenceEncoder(restricted_params)
        assert np.array_equal(restricted.slot_embed(a)[0], restricted.slot_embed(b)[0])


class TestEntryEmbed:
    def test_unit_norm(self, encoder):
        e = entity("Q41421", "Michael Jordan", "American basketball player")
        embedding = encoder.entry_embed(e)
        assert abs(np.linalg.norm(embedding) - 1.0) < 1e-6

    def test_masking_changes_embedding_when_description_present(self, encoder):
        e = entity("Q41421", "Michael Jordan", "American basketball player")
        assert not np.allclose(
            encoder.entry_embed(e, mask_description=False),
            encoder.entry_embed(e, mask_description=True),
        )

    def test_descriptionless_masking_is_identity(self, encoder):
        e = entity("Q9", "Bulls")
        assert np.array_equal(
            encoder.entry_embed(e, mask_description=False),
            encoder.entry_embed(e, mask_description=True),
        )


# ---------------------------------------------------------------------------
# One forward: serving and training against a per-text reference


def dense_stream(config, seed):
    """``init_params``' draws written out densely: the whole (buckets,
    hidden) table, then the slot and entry projections, from one stream."""
    rng = np.random.default_rng(seed)
    table_bound = 1.0 / np.sqrt(config.hidden)
    proj_bound = 1.0 / np.sqrt(2 * config.hidden)
    table = rng.uniform(-table_bound, table_bound, size=(config.buckets, config.hidden))
    projections = [rng.uniform(-proj_bound, proj_bound, size=(2 * config.hidden, config.dim))
                   for _ in range(2)]
    return table, *projections


def reference_segment(params, text):
    """Mean of the rows of one text's features, a repeated feature once per
    occurrence, in the dense init table: the reference forward never reads
    the params' own table."""
    ids = list(FeatureHasher(params.buckets).compile(text))
    if not ids:
        return np.zeros(params.hidden)
    config = EncoderConfig(dim=params.dim, hidden=params.hidden, buckets=params.buckets)
    return dense_stream(config, params.rng_seed)[0][ids].mean(axis=0)


def unit(vector):
    return vector / np.linalg.norm(vector)


def reference_slots(params, oie, with_context=False):
    triple_segment = reference_segment(params, oie_text(oie, with_context))
    return [
        unit(np.concatenate([reference_segment(params, text), triple_segment])
             @ params.slot_projection)
        for text in oie.slots
    ]


def reference_entry(params, entry, mask_description=False):
    if mask_description or entry.description is None:
        description_segment = np.zeros(params.hidden)
    else:
        description_segment = reference_segment(params, entry.description)
    return unit(
        np.concatenate([reference_segment(params, entry.label), description_segment])
        @ params.entry_projection
    )


def embed_entries(encoder, entries, mask_description=False):
    """(id, float64 vector) per entry, one ``entry_embeds`` per 64-entry
    chunk: the store path that ``build_index`` stacked before
    ``embed_index`` built indices chunk by chunk."""
    embedded = []
    for start in range(0, len(entries), preranker._EMBED_CHUNK):
        chunk = entries[start : start + preranker._EMBED_CHUNK]
        embedded.extend(zip((e.id for e in chunk), encoder.entry_embeds(chunk, mask_description)))
    return embedded


def forward_world(n_entities=150):
    """More entities than one store-embedding chunk; every third has no
    description."""
    entries = [
        entity(f"Q{i}", f"Person {i} Harbor",
               None if i % 3 == 0 else f"sailor number {i} of the north")
        for i in range(n_entities)
    ] + [
        predicate("P1", "works with", "professional relation"),
        predicate("P2", "lives near"),
    ]
    facts = [KgFact(f"Q{i}", f"P{1 + i % 2}", f"Q{i + 1}") for i in range(n_entities - 1)]
    store = build_store(entries)
    alignments = [
        make_alignment(f"Person {i} Harbor", ("works with", "lives near")[i % 2],
                       f"Person {i + 1} Harbor", fact, sentence=f"Sentence number {i}.")
        for i, fact in enumerate(facts)
    ]
    return store, alignments


class TestSparseTable:
    def test_init_holds_no_rows_and_draws_the_projections(self):
        params = init_params(CONFIG, seed=7)
        _, slot, entry = dense_stream(CONFIG, 7)
        assert params.feature_table.shape == (0, CONFIG.hidden)
        assert params.table_ids.dtype == np.int64 and len(params.table_ids) == 0
        assert np.array_equal(params.slot_projection, slot)
        assert np.array_equal(params.entry_projection, entry)

    def test_every_row_is_the_dense_init_row(self):
        params = init_params(CONFIG, seed=7)
        table = dense_stream(CONFIG, 7)[0]
        # repeated, unsorted ids in runs and singletons, drawn in two calls
        first = np.array([300, 5, 6, 7, 5, 511, 0, 299])
        positions = params.rows_of(first)  # before reading the table it grows
        assert np.array_equal(params.feature_table[positions], table[first])
        assert np.array_equal(params.table_ids, np.unique(first))
        positions = params.rows_of(np.arange(CONFIG.buckets))
        assert np.array_equal(positions, np.arange(CONFIG.buckets))
        assert np.array_equal(params.feature_table, table)

    def test_held_rows_are_kept(self):
        params = init_params(CONFIG, seed=7)
        learned = params.rows_of(np.array([3, 9]))
        params.feature_table[learned] += 1.0
        params.rows_of(np.array([1, 4, 10]))
        table = dense_stream(CONFIG, 7)[0]
        assert params.table_ids.tolist() == [1, 3, 4, 9, 10]
        assert np.array_equal(params.feature_table[[1, 3]], table[[3, 9]] + 1.0)
        assert np.array_equal(params.feature_table[[0, 2, 4]], table[[1, 4, 10]])


class TestOneForward:
    def test_entries_match_reference(self):
        params = init_params(CONFIG, seed=3)
        encoder = ReferenceEncoder(params)
        entries = [
            entity("Q1", "Michael Jordan", "American basketball player"),
            entity("Q2", "Bulls"),
            predicate("P1", "member of sports team", "team the subject plays for"),
        ]
        for e in entries:
            for masked in (False, True):
                np.testing.assert_allclose(
                    encoder.entry_embed(e, masked), reference_entry(params, e, masked),
                    rtol=0, atol=FORWARD_TOL,
                )
        np.testing.assert_allclose(
            ReferenceEncoder(params).entry_embeds(entries, mask_description=True),
            [reference_entry(params, e, True) for e in entries],
            rtol=0, atol=FORWARD_TOL,
        )

    def test_slots_match_reference(self):
        params = init_params(CONFIG, seed=3)
        encoder = ReferenceEncoder(params)
        plain = triple()
        with_sentence = triple(sentence="Michael Jordan played for Chicago Bulls.")
        for oie, with_context in ((plain, False), (with_sentence, False),
                                  (with_sentence, True)):
            got = encoder.slot_embed(oie, with_context)
            for g, want in zip(got, reference_slots(params, oie, with_context)):
                np.testing.assert_allclose(g, want, rtol=0, atol=FORWARD_TOL)

    def test_store_larger_than_one_chunk(self):
        params = init_params(CONFIG, seed=4)
        store, _ = forward_world()
        entries = [store.entry(i) for i in store.entity_ids()]
        assert len(entries) > 2 * preranker._EMBED_CHUNK
        embedded = embed_entries(ReferenceEncoder(params), entries)
        assert [i for i, _ in embedded] == [e.id for e in entries]
        for (_, vector), e in zip(embedded, entries):
            np.testing.assert_allclose(
                vector, reference_entry(params, e), rtol=0, atol=FORWARD_TOL
            )

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_chunked_index_is_bitwise_the_stacked_build(self, n):
        params = init_params(CONFIG, seed=8)
        store, _ = forward_world(n_entities=130)
        entries = [store.entry(i) for i in store.entity_ids()][:n]
        for masked in (False, True):
            built = preranker.embed_index(
                ReferenceEncoder(params.copy()), entries, IndexKind.ENTITIES, masked
            )
            stacked = preranker.build_index(
                embed_entries(ReferenceEncoder(params.copy()), entries, masked), IndexKind.ENTITIES
            )
            assert built.ids == stacked.ids == tuple(e.id for e in entries)
            assert built.kind is stacked.kind
            assert built.matrix.dtype == stacked.matrix.dtype == np.float32
            assert built.matrix.shape == stacked.matrix.shape
            assert built.matrix.tobytes() == stacked.matrix.tobytes()

    def test_chunked_index_rejects_what_the_stacked_build_rejects(self):
        params = init_params(CONFIG, seed=8)
        zeroed = params.copy()
        zeroed.entry_projection[:] = 0.0  # every entry vector is zero
        store, _ = forward_world(n_entities=70)
        entries = [store.entry(i) for i in store.entity_ids()]

        def chunked(params, entries):
            return preranker.embed_index(ReferenceEncoder(params), entries, IndexKind.ENTITIES)

        def stacked(params, entries):
            embedded = embed_entries(ReferenceEncoder(params), entries)
            return preranker.build_index(embedded, IndexKind.ENTITIES)

        for build in (chunked, stacked):
            with pytest.raises(DataError, match="^duplicate id 'Q3' in index$"):
                build(params, entries + [entries[3]])  # the repeat is past the first chunk
            with pytest.raises(NumericError):
                build(zeroed, entries)

    def test_store_builds_do_not_depend_on_call_history(self):
        store, _ = forward_world()
        params = init_params(CONFIG, seed=6)
        initial = params.copy()
        used = ReferenceEncoder(params)
        preranker.build_store_indices(used, forward_world(n_entities=90)[0])
        entries = [store.entry(i) for i in store.entity_ids()]
        for e in entries[::7]:
            used.entry_embed(e)
            used.entry_embed(e, mask_description=True)
        for masked in (False, True):
            chunk = entries[:preranker._EMBED_CHUNK]
            assert np.array_equal(
                used.entry_embeds(chunk, masked),
                ReferenceEncoder(initial.copy()).entry_embeds(chunk, masked),
            )
            built = preranker.build_store_indices(used, store, masked)
            fresh = preranker.build_store_indices(ReferenceEncoder(initial.copy()), store, masked)
            for got, want in zip(built, fresh, strict=True):
                assert got.ids == want.ids
                assert got.matrix.tobytes() == want.matrix.tobytes()

    def test_trainer_forward_matches_serving(self, monkeypatch):
        store, alignments = forward_world(n_entities=40)
        config = preranker.PrerankTrainConfig(
            epochs=1, batch_size=16, global_neg_entities=8, global_neg_predicates=1, seed=2,
        )
        batches = []

        def recording(params, hasher, slot_texts, entry_texts):
            forward = encode_batch(params, hasher, slot_texts, entry_texts)
            batches.append((slot_texts, entry_texts, forward))
            return forward

        encode_batch = preranker.encode_batch
        monkeypatch.setattr(preranker, "encode_batch", recording)
        preranker.train_preranker(alignments, store, config, CONFIG, with_context=True)
        # the first batch ran on the initial params
        slot_texts, entry_texts, forward = batches[0]
        served = ReferenceEncoder(init_params(CONFIG, config.seed))
        by_texts = {(*a.oie.slots, oie_text(a.oie, True)): a.oie for a in alignments}
        b = len(slot_texts)
        for row, texts in enumerate(slot_texts):
            embeddings = served.slot_embed(by_texts[texts], with_context=True)
            for slot in range(3):
                np.testing.assert_allclose(
                    forward.slot_vectors[slot * b + row], embeddings[slot],
                    rtol=0, atol=FORWARD_TOL,
                )
        entries = {(e.label, e.description or ""): e for e in store.entries.values()}
        trained = np.stack([served.entry_embed(entries[texts]) for texts in entry_texts])
        np.testing.assert_allclose(forward.entry_vectors, trained, rtol=0, atol=FORWARD_TOL)


class TestSlotEmbeds:
    """``slot_embeds``: the one slot-embedding path, 64 triples per forward."""

    @staticmethod
    def counting(monkeypatch):
        """Each slot forward's triple count, recorded through ``encode_batch``."""
        sizes = []
        forward = encoder_module.encode_batch

        def recording(params, hasher, slot_texts, entry_texts):
            if slot_texts:
                sizes.append(len(slot_texts))
            return forward(params, hasher, slot_texts, entry_texts)

        monkeypatch.setattr(encoder_module, "encode_batch", recording)
        return sizes

    @staticmethod
    def triples(n):
        return [triple(f"Person {i} Harbor", ("works with", "lives near")[i % 2],
                       f"Town {i // 3}", sentence=f"Sentence number {i}.") for i in range(n)]

    @pytest.mark.parametrize("with_context", [False, True])
    def test_matches_one_triple_at_a_time(self, with_context):
        params = init_params(CONFIG, seed=11)
        triples = self.triples(130)
        chunked = ReferenceEncoder(params).slot_embeds(triples, with_context)
        assert len(chunked) == len(triples)
        for oie, got in zip(triples, chunked):
            alone = ReferenceEncoder(params).slot_embed(oie, with_context)
            for g, want in zip(got, alone, strict=True):
                np.testing.assert_allclose(g, want, rtol=0, atol=1e-15)

    def test_input_order_repeats_and_context_keys(self, monkeypatch):
        params = init_params(CONFIG, seed=11)
        a, b, c = self.triples(3)
        alone = {oie: ReferenceEncoder(params).slot_embed(oie) for oie in (a, b, c)}
        sizes = self.counting(monkeypatch)
        served = ReferenceEncoder(params)
        got = served.slot_embeds([b, a, b, c, a], with_context=False)
        assert sizes == [3]  # each distinct triple once
        assert got[0] is got[2] and got[1] is got[4]
        for oie, vectors in zip([b, a, c], [got[0], got[1], got[3]]):
            assert all(np.array_equal(x, y) for x, y in zip(vectors, alone[oie], strict=True))
        again = served.slot_embeds([a, c])  # cached: no forward
        assert again[0] is got[1] and again[1] is got[3]
        contextual = served.slot_embeds([a, b], with_context=True)
        assert sizes == [3, 2]
        assert not np.allclose(contextual[0][0], got[1][0])
        assert served.slot_embed(a, with_context=True) is contextual[0]
        assert sizes == [3, 2]

    def test_no_triples(self, monkeypatch):
        sizes = self.counting(monkeypatch)
        assert ReferenceEncoder(init_params(CONFIG, seed=11)).slot_embeds([], True) == []
        assert sizes == []

    def test_missing_sentence_names_the_first_failing_triple(self):
        first, second = triple("D", "e", "F"), triple()
        served = ReferenceEncoder(init_params(CONFIG, seed=11))
        with pytest.raises(DataError, match=f"^triple {re.escape(repr(first.slots))} has no "):
            served.slot_embeds([*self.triples(70), first, second], with_context=True)

    def test_link_embeds_64_triples_per_forward(self, monkeypatch):
        params = init_params(CONFIG, seed=11)
        store, alignments = forward_world(n_entities=20)
        indices = preranker.build_store_indices(ReferenceEncoder(params), store)
        triples = self.triples(130)
        sizes = self.counting(monkeypatch)
        results = preranker.link(ReferenceEncoder(params), *indices, triples + triples[:5], k=2)
        assert sizes == [64, 64, 2]
        assert len(results) == 135 and results[130] == results[0]


class TestSegmentSums:
    """``encode_batch``'s per-text weighted sums and their backward against
    an ``np.add.at`` oracle over each text's compiled bucket ids, every
    occurrence weighted one over its text's feature count."""

    SLOT_TEXTS = [
        ("Alice Harbor", "works with", "Harbor Town", "Alice Harbor works with Harbor Town"),
        ("Harbor Town", "lies near", "Alice Harbor", "Harbor Town lies near Alice Harbor"),
    ]
    # the first entry's description is featureless
    ENTRY_TEXTS = [("Alice Harbor", ""), ("Harbor Town", "a town by the harbor")]

    def oracle(self):
        params, hasher = init_params(CONFIG, 3), FeatureHasher(CONFIG.buckets)
        params.rows_of(np.arange(CONFIG.buckets))  # hold rows no text touches, such as <SUBJ>'s
        forward = encode_batch(params, hasher, self.SLOT_TEXTS, self.ENTRY_TEXTS)
        texts = [t[part] for part in range(4) for t in self.SLOT_TEXTS] + [
            t[part] for part in range(2) for t in self.ENTRY_TEXTS
        ]
        compiled = [hasher.compile(text) for text in texts]
        # every row is held, so rows_of draws nothing
        positions = params.rows_of(np.array([i for ids in compiled for i in ids]))
        weights = np.array([1 / len(ids) for ids in compiled for _ in ids])
        texts_of = np.repeat(np.arange(len(texts)), [len(ids) for ids in compiled])
        assert any(len(set(ids)) < len(ids) for ids in compiled)  # a bucket repeats in a text
        assert len(np.unique(positions)) < len(positions)  # buckets repeat across texts
        return params, forward, texts, positions, weights, texts_of

    def test_forward_matches_add_at(self):
        params, forward, texts, positions, weights, texts_of = self.oracle()
        segments = np.zeros((len(texts), CONFIG.hidden))
        np.add.at(segments, texts_of, weights[:, None] * params.feature_table[positions])
        b, m = len(self.SLOT_TEXTS), len(self.ENTRY_TEXTS)
        assert not forward.entry_inputs[0, CONFIG.hidden :].any()  # the featureless description
        slots, triples, labels, descriptions = np.split(segments, [3 * b, 4 * b, 4 * b + m])
        np.testing.assert_allclose(
            forward.slot_inputs, np.hstack([slots, np.tile(triples, (3, 1))]),
            rtol=0, atol=FORWARD_TOL,
        )
        np.testing.assert_allclose(
            forward.entry_inputs, np.hstack([labels, descriptions]), rtol=0, atol=FORWARD_TOL
        )

    def test_each_weight_is_a_count_over_the_feature_count(self):
        """Bitwise: a cell is its bucket's count in the text divided once by
        the text's feature count, not a sum or a product of shares."""
        params, hasher = init_params(CONFIG, 3), FeatureHasher(CONFIG.buckets)
        # "a" has 2 features and "bcd" 4: 3 / 10 is not 3 * (1 / 10) in floats
        entry_texts = [("a a a bcd", ""), *self.ENTRY_TEXTS]
        forward = encode_batch(params, hasher, (), entry_texts)
        texts = [t[part] for part in range(2) for t in entry_texts]
        column = {row: j for j, row in enumerate(forward.rows)}
        expected = np.zeros_like(forward.weights)
        for i, text in enumerate(texts):
            positions = params.rows_of(np.array(hasher.compile(text), dtype=np.int64))
            for position, count in Counter(positions.tolist()).items():
                expected[i, column[position]] = count / len(positions)
        assert 3 / 10 != 3 * (1 / 10) and np.array_equal(forward.weights, expected)

    def test_backward_matches_add_at(self):
        params, forward, texts, positions, weights, texts_of = self.oracle()
        assert np.array_equal(forward.rows, np.unique(positions))
        featureless = texts.index("")
        assert not forward.weights[featureless].any()
        d_segments = np.random.default_rng(0).standard_normal((len(texts), CONFIG.hidden))
        d_segments[featureless] = 1e6  # a featureless text reaches no row
        d_table = np.zeros_like(params.feature_table)
        np.add.at(d_table, positions, weights[:, None] * d_segments[texts_of])
        np.testing.assert_allclose(
            forward.weights.T @ d_segments, d_table[forward.rows], rtol=0, atol=FORWARD_TOL
        )
