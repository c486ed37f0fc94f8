import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import entity, make_alignment, predicate
from factlink.corpus import OieTriple
from factlink.encoder import EncoderConfig, ReferenceEncoder, init_params, load_params, save_params
from factlink.errors import DataError
from factlink.io import read_jsonl
from factlink.kg import KgFact, build_store
from factlink.ookg import QkvParams, load_qkv_params, save_qkv_params
from factlink.preranker import (
    IndexKind,
    PrerankTrainConfig,
    SlotLinkResult,
    build_index,
    build_store_indices,
    train_preranker,
)
from factlink.reranker import (
    CandidateFact,
    CrossScorerParams,
    RerankTrainConfig,
    bce_grad,
    bce_loss,
    build_neighbor_lists,
    enumerate_candidates,
    init_cross_params,
    load_cross_params,
    rerank,
    sample_hard_negative,
    save_cross_params,
    store_neighbor_lists,
    train_reranker,
    write_neighbor_lists,
    _sigmoid,
    _slot_features,
)

SMALL_ENCODER = EncoderConfig(dim=16, hidden=8, buckets=1024)


def slot_result(k):
    return SlotLinkResult(
        subject=tuple((f"S{i}", 1.0 - 0.1 * i) for i in range(k)),
        relation=tuple((f"P{i}", 1.0 - 0.1 * i) for i in range(k)),
        object=tuple((f"O{i}", 1.0 - 0.1 * i) for i in range(k)),
    )


class TestEnumerateCandidates:
    @pytest.mark.parametrize("k,expected", [(1, 1), (2, 8), (3, 27)])
    def test_cube_counts(self, k, expected):
        assert len(enumerate_candidates(slot_result(k))) == expected

    def test_k1_is_preranker_link(self):
        result = slot_result(1)
        (candidate,) = enumerate_candidates(result)
        assert candidate.to_fact() == result.linked_fact

    def test_rank_lexicographic_order(self):
        candidates = enumerate_candidates(slot_result(2))
        ids = [c.ids for c in candidates]  # each slot's ids sort as its ranks
        assert ids == sorted(ids)

    def test_size_is_product_of_lengths(self):
        result = SlotLinkResult(
            subject=(("S0", 0.9), ("S1", 0.8), ("S2", 0.7)),
            relation=(("P0", 0.9),),
            object=(("O0", 0.9), ("O1", 0.8)),
        )
        assert len(enumerate_candidates(result)) == 3 * 1 * 2


def mini_world(n_entities=24, n_facts=48, seed=0):
    rng = np.random.default_rng(seed)
    first = ["Alice", "Bruno", "Cora", "Dylan", "Eve", "Femi", "Gus", "Hana"]
    last = ["Harbor", "Quartz", "Meadow", "Frost", "Cinder", "Reed"]
    roles = ["sailor", "miner", "farmer", "skater", "smith", "scribe"]
    entries = [
        entity(
            f"Q{i}",
            f"{first[i % len(first)]} {last[i // len(first)]}",
            f"{roles[i % len(roles)]} of district {i}",
        )
        for i in range(n_entities)
    ]
    entries += [
        predicate("P1", "works with", "professional relation"),
        predicate("P2", "lives near", "geographic relation"),
    ]
    facts = []
    while len(facts) < n_facts:
        s, o = rng.choice(n_entities, size=2, replace=False)
        fact = KgFact(f"Q{s}", f"P{1 + int(rng.integers(2))}", f"Q{o}")
        if fact not in facts:
            facts.append(fact)
    store = build_store(entries)
    relation_surface = {"P1": "works with", "P2": "lives near"}
    alignments = [
        make_alignment(
            store.entry(f.subject_id).label,
            relation_surface[f.predicate_id],
            store.entry(f.object_id).label,
            f,
        )
        for f in facts
    ]
    return store, alignments


@pytest.fixture(scope="module")
def mini_encoder():
    store, alignments = mini_world()
    config = PrerankTrainConfig(
        epochs=30, learning_rate=0.4, batch_size=8, seed=1,
        global_neg_entities=12, global_neg_predicates=2,
    )
    params, _ = train_preranker(alignments, store, config, SMALL_ENCODER)
    return ReferenceEncoder(params)


def fact_features(encoder, indices, triple, fact):
    """Reference whole-fact features: the subject, relation and object
    ``_slot_features`` blocks of one OIE/fact pair, entries read from the
    (entity, predicate) ``indices``."""
    slot_embeddings = encoder.slot_embed(triple)
    return np.concatenate([
        _slot_features(slot_embedding, indices[slot == 1].vectors([entry_id]))[0]
        for slot, (slot_embedding, entry_id) in enumerate(zip(slot_embeddings, fact.ids))
    ])


def fact_score(params, encoder, indices, triple, fact):
    """Reference whole-fact score: the sigmoid of the logistic model over
    ``fact_features``, one fact at a time."""
    features = fact_features(encoder, indices, triple, fact)
    return _sigmoid(float(params.weights @ features) + params.bias)


def rerank_scores(params, encoder, indices, triple, facts):
    """``rerank``'s score of each fact, in order."""
    candidates = [CandidateFact(*fact.ids) for fact in facts]
    return rerank(params, encoder, indices, triple, candidates)[1]


class TestScoreFact:
    """Whole-fact scores as ``rerank`` gives them, and the features they
    sum over."""

    def test_zero_params_score_exactly_half(self, mini_encoder):
        store, alignments = mini_world()
        indices = build_store_indices(mini_encoder, store)
        params = init_cross_params(SMALL_ENCODER.dim)
        facts = [a.fact for a in alignments]
        for a in alignments:
            assert set(rerank_scores(params, mini_encoder, indices, a.oie, facts)) == {0.5}

    def test_score_in_open_unit_interval(self, mini_encoder):
        store, alignments = mini_world()
        indices = build_store_indices(mini_encoder, store)
        rng = np.random.default_rng(0)
        params = CrossScorerParams(
            weights=rng.standard_normal(6 * SMALL_ENCODER.dim + 9) * 5, bias=0.3
        )
        facts = [a.fact for a in alignments]
        for a in alignments:
            scores = rerank_scores(params, mini_encoder, indices, a.oie, facts)
            assert all(0.0 < s < 1.0 for s in scores)

    def test_deterministic(self, mini_encoder):
        store, alignments = mini_world()
        indices = build_store_indices(mini_encoder, store)
        params = init_cross_params(SMALL_ENCODER.dim)
        params.weights[:] = 0.01
        a = alignments[0]
        facts = [a.fact for a in alignments]
        assert rerank_scores(params, mini_encoder, indices, a.oie, facts) == rerank_scores(
            params, mini_encoder, indices, a.oie, facts
        )

    def test_feature_vector_length(self, mini_encoder):
        store, alignments = mini_world()
        a = alignments[0]
        features = fact_features(
            mini_encoder, build_store_indices(mini_encoder, store), a.oie, a.fact
        )
        assert features.shape == (6 * SMALL_ENCODER.dim + 9,)
        assert features.shape == init_cross_params(SMALL_ENCODER.dim).weights.shape

    def test_masking_changes_features(self, mini_encoder):
        store, alignments = mini_world()
        a = alignments[0]
        plain = fact_features(
            mini_encoder, build_store_indices(mini_encoder, store, mask_description=False),
            a.oie, a.fact,
        )
        masked = fact_features(
            mini_encoder, build_store_indices(mini_encoder, store, mask_description=True),
            a.oie, a.fact,
        )
        assert not np.allclose(plain, masked)


class TestBce:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        step = 1e-6
        for _ in range(20):
            logit = float(rng.uniform(-4, 4))
            label = float(rng.integers(0, 2))
            grad = bce_grad(logit, label)
            fd = (bce_loss(logit + step, label) - bce_loss(logit - step, label)) / (2 * step)
            assert grad == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_loss_values(self):
        assert bce_loss(0.0, 1.0) == pytest.approx(math.log(2), rel=1e-12)
        assert bce_loss(50.0, 1.0) == pytest.approx(0.0, abs=1e-12)


class TestHardNegatives:
    def test_neighbor_list_size_one_deterministic(self):
        neighbors = {"Q1": ("Q2",), "P1": ("P2",), "Q3": ("Q4",)}
        fact = KgFact("Q1", "P1", "Q3")
        rng = np.random.default_rng(0)
        for _ in range(20):
            corrupted = sample_hard_negative(fact, neighbors, rng)
            assert corrupted != fact
            diffs = sum(a != b for a, b in zip(corrupted.ids, fact.ids))
            assert diffs == 1

    def test_slot_choice_uniform(self):
        neighbors = {"Q1": ("Qx",), "P1": ("Px",), "Q3": ("Qy",)}
        fact = KgFact("Q1", "P1", "Q3")
        rng = np.random.default_rng(1)
        draws = 10_000
        counts = [0, 0, 0]
        for _ in range(draws):
            corrupted = sample_hard_negative(fact, neighbors, rng)
            for i, (a, b) in enumerate(zip(corrupted.ids, fact.ids)):
                if a != b:
                    counts[i] += 1
        p = 1 / 3
        sigma = math.sqrt(draws * p * (1 - p))
        for count in counts:
            assert abs(count - draws * p) <= 3 * sigma

    def test_corrupted_never_equals_gold(self, mini_encoder):
        store, alignments = mini_world()
        entity_index, predicate_index = build_store_indices(mini_encoder, store)
        neighbors = build_neighbor_lists(entity_index, pool=10)
        neighbors.update(build_neighbor_lists(predicate_index, pool=10))
        rng = np.random.default_rng(2)
        for a in alignments:
            for _ in range(50):
                assert sample_hard_negative(a.fact, neighbors, rng) != a.fact

    def test_neighbor_lists_exclude_self_and_cap_pool(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((30, 8))
        index = build_index(
            [(f"Q{i:02d}", vectors[i]) for i in range(30)], IndexKind.ENTITIES
        )
        neighbors = build_neighbor_lists(index, pool=10)
        for eid, ns in neighbors.items():
            assert eid not in ns
            assert len(ns) == 10

    def test_neighbor_lists_match_sorted_oracle_with_ties(self):
        # 30 rows repeating 5 distinct +-1 vectors: normalized rows hold
        # +-1/4, so every similarity is exact and duplicated rows tie
        # exactly; groups of about 6 make pool 10 cut through a tie group
        rng = np.random.default_rng(6)
        signs = rng.choice((-1.0, 1.0), size=(5, 16))
        ids = [f"Q{i:02d}" for i in range(30)]
        rng.shuffle(ids)
        index = build_index(
            list(zip(ids, signs[rng.integers(5, size=30)])), IndexKind.ENTITIES
        )
        sims = index.matrix @ index.matrix.T
        oracle = {
            index.ids[i]: tuple(sorted(
                (index.ids[j] for j in range(30) if j != i),
                key=lambda eid: (-sims[i, index.row(eid)], eid),
            )[:10])
            for i in range(30)
        }
        assert build_neighbor_lists(index, pool=10) == oracle

    def test_neighbor_lists_round_trip(self, tmp_path):
        neighbors = {"Q1": ("Q2", "Q3"), "P1": ("P2",)}
        path = tmp_path / "neighbors.jsonl"
        write_neighbor_lists(path, neighbors)
        assert {r["id"]: tuple(r["neighbors"]) for r in read_jsonl(path)} == neighbors


class TestRerank:
    def test_single_candidate_returned(self, mini_encoder):
        store, alignments = mini_world()
        params = init_cross_params(SMALL_ENCODER.dim)
        (candidate,) = enumerate_candidates(slot_result_from(store, alignments[0].fact))
        indices = build_store_indices(mini_encoder, store)
        best, scores = rerank(params, mini_encoder, indices, alignments[0].oie, [candidate])
        assert best == candidate
        assert scores == [0.5]

    def test_tie_keeps_first_max(self, mini_encoder):
        store, alignments = mini_world()
        params = init_cross_params(SMALL_ENCODER.dim)  # all scores 0.5
        candidates = enumerate_candidates(
            slot_result_from(store, alignments[0].fact, alignments[1].fact)
        )
        indices = build_store_indices(mini_encoder, store)
        best, scores = rerank(params, mini_encoder, indices, alignments[0].oie, candidates)
        assert best == candidates[0]
        assert len(set(scores)) == 1


def random_index_pair(rng, dim, n_entities=8, n_predicates=5):
    """Entity and predicate indices over seeded random rows; rows E1 and E2
    are equal."""
    entity_rows = rng.standard_normal((n_entities, dim))
    entity_rows[2] = entity_rows[1]
    return (
        build_index([(f"E{i}", row) for i, row in enumerate(entity_rows)], IndexKind.ENTITIES),
        build_index([(f"P{i}", rng.standard_normal(dim)) for i in range(n_predicates)],
                    IndexKind.PREDICATES),
    )


def first_argmax(scores):
    return max(range(len(scores)), key=lambda i: (scores[i], -i))


class TestRerankPerSlot:
    """``rerank`` scores each slot's entries once; it must pick what scoring
    every candidate whole with ``fact_score`` picks."""

    ENCODER = ReferenceEncoder(init_params(SMALL_ENCODER, seed=2))

    def check(self, params, indices, triple, candidates):
        best, scores = rerank(params, self.ENCODER, indices, triple, candidates)
        brute = [fact_score(params, self.ENCODER, indices, triple, c) for c in candidates]
        np.testing.assert_allclose(scores, brute, rtol=0, atol=1e-12)
        assert best == candidates[first_argmax(brute)]
        return best, scores

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_brute_force_product(self, k):
        rng = np.random.default_rng(k)
        indices = random_index_pair(rng, SMALL_ENCODER.dim)
        triple = OieTriple("Alice Harbor", "works with", "Bruno Quartz")
        for _ in range(5):
            params = CrossScorerParams(
                weights=rng.standard_normal(6 * SMALL_ENCODER.dim + 9), bias=float(rng.normal())
            )
            result = SlotLinkResult(*(
                tuple((index.ids[row], 0.0) for row in rng.permutation(len(index))[:k])
                for index in (indices[0], indices[1], indices[0])
            ))
            self.check(params, indices, triple, enumerate_candidates(result))

    def test_equal_rows_tie_to_the_earliest_candidate(self):
        rng = np.random.default_rng(5)
        indices = random_index_pair(rng, SMALL_ENCODER.dim)
        triple = OieTriple("Cora Meadow", "lives near", "Dylan Frost")
        params = CrossScorerParams(
            weights=rng.standard_normal(6 * SMALL_ENCODER.dim + 9), bias=0.1
        )
        for subjects in (("E2", "E1"), ("E1", "E2")):
            result = SlotLinkResult(
                subject=tuple((s, 0.0) for s in subjects),
                relation=(("P0", 0.0), ("P3", 0.0)),
                object=(("E4", 0.0), ("E0", 0.0), ("E5", 0.0)),
            )
            candidates = enumerate_candidates(result)
            best, scores = self.check(params, indices, triple, candidates)
            assert best.subject_id == subjects[0]
            assert scores[:6] == scores[6:]  # subject rows are equal: exact ties

    def test_candidate_list_that_is_not_a_product(self):
        rng = np.random.default_rng(6)
        indices = random_index_pair(rng, SMALL_ENCODER.dim)
        triple = OieTriple("Eve Cinder", "works with", "Alice Harbor")
        result = SlotLinkResult(*(
            tuple((entry_id, 0.0) for entry_id in index.ids[:4])
            for index in (indices[0], indices[1], indices[0])
        ))
        product = enumerate_candidates(result)
        for _ in range(5):
            params = CrossScorerParams(
                weights=rng.standard_normal(6 * SMALL_ENCODER.dim + 9), bias=0.0
            )
            picked = [product[i] for i in rng.choice(len(product), size=9, replace=False)]
            self.check(params, indices, triple, picked)


def slot_result_from(store, *facts):
    return SlotLinkResult(
        subject=tuple((f.subject_id, 1.0) for f in facts),
        relation=tuple((f.predicate_id, 1.0) for f in facts),
        object=tuple((f.object_id, 1.0) for f in facts),
    )


def train_with_neighbors(alignments, encoder, store, config):
    indices = build_store_indices(encoder, store)
    neighbors = store_neighbor_lists(indices, config.hard_negative_pool)
    masked = build_store_indices(encoder, store, mask_description=True)
    return train_reranker(alignments, encoder, indices, config, neighbors, masked)


class TestTrainReranker:
    def test_loss_decreases(self, mini_encoder):
        store, alignments = mini_world()
        config = RerankTrainConfig(epochs=8, learning_rate=0.5, seed=0)
        _, trace = train_with_neighbors(alignments, mini_encoder, store, config)
        assert trace[-1]["mean_loss"] < trace[0]["mean_loss"]

    def test_gold_scores_above_corruptions_held_out(self, mini_encoder):
        store, alignments = mini_world()
        held_out = alignments[::5]
        train = [a for a in alignments if a not in held_out]
        config = RerankTrainConfig(epochs=30, learning_rate=0.5, seed=1)
        params, _ = train_with_neighbors(train, mini_encoder, store, config)
        indices = entity_index, predicate_index = build_store_indices(mini_encoder, store)
        neighbors = build_neighbor_lists(entity_index, pool=3)
        neighbors.update(build_neighbor_lists(predicate_index, pool=3))
        rng = np.random.default_rng(2)
        wins = total = 0
        for a in held_out:
            corrupted = [sample_hard_negative(a.fact, neighbors, rng) for _ in range(10)]
            gold_score, *scores = rerank_scores(
                params, mini_encoder, indices, a.oie, [a.fact, *corrupted]
            )
            wins += sum(gold_score > score for score in scores)
            total += len(scores)
        assert wins / total >= 0.9

    def test_positives_only_collapses_to_one(self, mini_encoder):
        store, alignments = mini_world()
        held_out = alignments[::5]
        train = [a for a in alignments if a not in held_out]
        config = RerankTrainConfig(
            epochs=40, learning_rate=0.5, negatives_per_positive=0, seed=3
        )
        params, _ = train_with_neighbors(train, mini_encoder, store, config)
        indices = build_store_indices(mini_encoder, store)
        scores = [
            rerank_scores(params, mini_encoder, indices, a.oie, [a.fact])[0] for a in held_out
        ]
        assert float(np.mean(scores)) > 0.9

    def test_fact_id_of_the_wrong_kind_rejected(self, mini_encoder):
        store, alignments = mini_world()
        a = alignments[0]
        wrong_kind = dataclasses.replace(a, fact=KgFact(a.fact.predicate_id, *a.fact.ids[1:]))
        config = RerankTrainConfig(epochs=1, seed=0)
        with pytest.raises(DataError, match=re.escape(f"id {a.fact.predicate_id!r} not in index")):
            train_with_neighbors([wrong_kind], mini_encoder, store, config)

    def test_empty_training_set_rejected(self, mini_encoder):
        store, _ = mini_world()
        with pytest.raises(DataError, match="^no training alignments$"):
            train_with_neighbors([], mini_encoder, store, RerankTrainConfig(epochs=1))

    def test_seeded_reproducible(self, mini_encoder):
        store, alignments = mini_world()
        config = RerankTrainConfig(epochs=3, learning_rate=0.3, seed=7)
        params_a, trace_a = train_with_neighbors(alignments, mini_encoder, store, config)
        params_b, trace_b = train_with_neighbors(alignments, mini_encoder, store, config)
        assert trace_a == trace_b
        assert np.array_equal(params_a.weights, params_b.weights)
        assert params_a.bias == params_b.bias


def reference_train_reranker(alignments, encoder, indices, config, neighbor_lists,
                             masked_indices, with_context=False):
    """The per-alignment trainer: each alignment's pairs drawn, embedded and
    featurized on their own, then stepped one pair at a time."""
    params = init_cross_params(encoder.dim, config.seed)
    rng = np.random.default_rng(config.seed)
    lr, wd = config.learning_rate, config.weight_decay
    labels = [1.0] + [0.0] * config.negatives_per_positive
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(alignments))
        epoch_loss = 0.0
        for i in order:
            alignment = alignments[i]
            facts = [alignment.fact] + [
                sample_hard_negative(alignment.fact, neighbor_lists, rng) for _ in labels[1:]
            ]
            masked = rng.random(len(facts))[:, None] < config.description_mask_prob
            slot_embeddings = encoder.slot_embed(alignment.oie, with_context)
            blocks = []
            for slot, ids in enumerate(zip(*(fact.ids for fact in facts))):
                entries = np.where(masked, masked_indices[slot == 1].vectors(ids),
                                   indices[slot == 1].vectors(ids))
                blocks.append(_slot_features(slot_embeddings[slot], entries))
            for features, label in zip(np.concatenate(blocks, axis=1), labels):
                logit = float(params.weights @ features) + params.bias
                epoch_loss += bce_loss(logit, label)
                d_logit = bce_grad(logit, label)
                params.weights -= lr * (d_logit * features + wd * params.weights)
                params.bias -= lr * d_logit
        trace.append({"epoch": epoch, "mean_loss": epoch_loss / (len(order) * len(labels))})
    return params, trace


def with_sentences(alignments, missing=()):
    """The alignments with a provenance sentence each, except at ``missing``."""
    return [
        dataclasses.replace(a, oie=dataclasses.replace(
            a.oie, sentence=None if i in missing else f"Record {i}."))
        for i, a in enumerate(alignments)
    ]


class TestTrainRerankerChunks:
    """``train_reranker`` featurizes 16 alignments at a time; given the same
    slot vectors, its params and trace equal the per-alignment loop's bit
    for bit."""

    @pytest.mark.parametrize("n_alignments", [1, 16, 37, 48])
    @pytest.mark.parametrize("mask_prob, negatives, with_context",
                             [(0.5, 3, False), (1.0, 2, True), (0.0, 0, False)])
    def test_bitwise_the_per_alignment_loop(
        self, mini_encoder, n_alignments, mask_prob, negatives, with_context
    ):
        store, alignments = mini_world()
        alignments = with_sentences(alignments)[:n_alignments]
        indices = build_store_indices(mini_encoder, store)
        masked = build_store_indices(mini_encoder, store, mask_description=True)
        neighbors = store_neighbor_lists(indices, 4)
        config = RerankTrainConfig(epochs=2, learning_rate=0.3, weight_decay=1e-2, seed=5,
                                   description_mask_prob=mask_prob,
                                   negatives_per_positive=negatives)
        # both read the slot vectors that the chunked trainer embeds
        encoder = ReferenceEncoder(mini_encoder.params)
        params, trace = train_reranker(
            alignments, encoder, indices, config, neighbors, masked, with_context)
        expected, expected_trace = reference_train_reranker(
            alignments, encoder, indices, config, neighbors, masked, with_context)
        assert params.weights.tobytes() == expected.weights.tobytes()
        assert params.bias == expected.bias
        assert trace == expected_trace

    @pytest.mark.parametrize("sentence_at, neighbors_at",
                             [(3, 3), (3, 5), (5, 3), (17, 20), (20, 17), (0, 40), (40, 0)])
    def test_first_failure_is_the_per_alignment_loops(
        self, mini_encoder, sentence_at, neighbors_at
    ):
        """A missing sentence and a subject without neighbors, each at one
        epoch position: in different 16-alignment chunks they fail in the
        order the per-alignment loop meets them; in one chunk, which embeds
        its triples before it draws, the missing sentence fails first."""
        store, alignments = mini_world()
        lonely = alignments[0].fact.subject_id
        others = [a for a in alignments if lonely not in a.fact.ids]
        config = RerankTrainConfig(epochs=1, learning_rate=0.3, negatives_per_positive=30, seed=4)
        order = np.random.default_rng(config.seed).permutation(len(others) + 1)
        others.insert(order[neighbors_at], alignments[0])  # the one alignment with `lonely`
        alignments = with_sentences(others, missing=(order[sentence_at],))
        indices = build_store_indices(mini_encoder, store)
        neighbors = {**store_neighbor_lists(indices, 4), lonely: ()}
        errors = []
        for train in (train_reranker, reference_train_reranker):
            with pytest.raises(DataError) as raised:
                train(alignments, ReferenceEncoder(mini_encoder.params), indices, config,
                      neighbors, indices, True)
            errors.append(str(raised.value))
        if sentence_at // 16 == neighbors_at // 16:
            missing = alignments[order[sentence_at]].oie
            assert errors[0] == f"triple {missing.slots!r} has no provenance sentence"
        else:
            assert errors[0] == errors[1]


PROVENANCE = {"tool_version": "0.1.0", "config_hash": "0123456789abcdef", "seed": 7}


def encoder_case():
    params = init_params(EncoderConfig(dim=4, hidden=3, buckets=16), seed=11)
    params.rows_of(np.array([2, 3, 9]))

    def state(loaded):
        params, tau = loaded
        blocks = (params.table_ids, params.feature_table, params.slot_projection,
                  params.entry_projection)
        return blocks, {"seed": params.rng_seed, "buckets": params.buckets,
                        "hidden": params.hidden, "tau": tau}

    return (lambda path: save_params(params, path, tau=0.07, header=PROVENANCE),
            lambda path: state(load_params(path)), state((params, 0.07)))


def reranker_case():
    rng = np.random.default_rng(4)
    params = CrossScorerParams(  # float32-representable, as the file stores them
        weights=rng.standard_normal(6 * 16 + 9).astype(np.float32).astype(np.float64),
        bias=float(np.float32(0.25)),
        seed=5,
    )

    def state(params):
        return (params.weights,), {"seed": params.seed, "bias": params.bias}

    return (lambda path: save_cross_params(params, path, header=PROVENANCE),
            lambda path: state(load_cross_params(path, 16)), state(params))


def qkv_case():
    params = QkvParams(*np.random.default_rng(6).standard_normal((3, 5, 5)), scale=1.5, bias=-0.3)

    def state(params):
        return (params.q_proj, params.k_proj, params.v_proj), {
            "scale": params.scale, "bias": params.bias}

    return (lambda path: save_qkv_params(params, path, header=PROVENANCE),
            lambda path: state(load_qkv_params(path, 5)), state(params))


class TestPersistence:
    """Encoder, re-ranker and QKV params share one file format."""

    @pytest.mark.parametrize(
        "case", [encoder_case, reranker_case, qkv_case], ids=["encoder", "reranker", "qkv"]
    )
    def test_round_trip(self, case, tmp_path):
        save, load, (blocks, scalars) = case()
        path = tmp_path / "model.params"
        save(path)
        loaded_blocks, loaded_scalars = load(path)
        for loaded, block in zip(loaded_blocks, blocks, strict=True):
            assert loaded.dtype == block.dtype and loaded.shape == block.shape
            assert loaded.tobytes() == block.tobytes()
        assert loaded_scalars == scalars
        data = path.read_bytes()
        header_line = data.split(b"\n", 1)[0]
        assert PROVENANCE.items() <= json.loads(header_line).items()
        # cut inside and at the edges of the header line and of each record
        cuts = {0, len(header_line), len(header_line) + 1, len(data) - 1}
        cuts |= set(np.linspace(1, len(data) - 2, 40).astype(int).tolist())
        for size in sorted(cuts):
            path.write_bytes(data[:size])
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
                load(path)
