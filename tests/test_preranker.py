import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import factlink.preranker as preranker
from conftest import entity, make_alignment, predicate
from factlink.encoder import (
    EncoderConfig,
    ReferenceEncoder,
    init_params,
    load_params,
    save_params,
)
from factlink.errors import DataError
from factlink.kg import KgFact, build_store
from factlink.preranker import (
    IndexKind,
    PrerankTrainConfig,
    build_index,
    build_store_indices,
    link,
    load_index,
    sample_negatives,
    save_index,
    topk,
    train_preranker,
    _rowwise_infonce,
)

SMALL_ENCODER = EncoderConfig(dim=16, hidden=8, buckets=1024)


def random_unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def distinct_case(rng, n):
    """n random rows and a random unit query."""
    return rng.standard_normal((n, 24)), random_unit(rng, 24)


def tied_case(rng, n):
    """n rows repeating 8 distinct +-1 vectors, and a +-1 query. Normalized
    rows hold +-1/4, so every score is a multiple of 1/4 computed exactly:
    duplicated rows tie exactly, and most k cut through a tie group."""
    signs = rng.choice((-1.0, 1.0), size=(9, 16))
    return signs[rng.integers(8, size=n)], signs[8]


def row_infonce(sims, positive, tau):
    """``_rowwise_infonce`` over the one row ``sims`` whose positive is
    column ``positive``: (d_loss/d_sims row, loss, d_loss/d_tau)."""
    d_sims, loss, d_tau = _rowwise_infonce(np.array([sims], dtype=float), np.array([positive]), tau)
    return d_sims[0], loss, d_tau


class TestInfonceLoss:
    def test_zero_negatives_is_zero(self):
        assert row_infonce([0.73], 0, tau=0.07)[1] == 0.0

    def test_single_equal_negative_is_ln2(self):
        for tau in (0.01, 0.07, 1.0, 5.0):
            assert row_infonce([0.4, 0.4], 0, tau)[1] == pytest.approx(math.log(2), rel=1e-12)

    def test_derived_oracle_value(self):
        # frozen from a 50-digit evaluation of the direct formula
        expected = 0.000011029831322790957176
        got = row_infonce([0.1, 0.9, -0.2], 1, tau=0.07)[1]
        assert got == pytest.approx(expected, rel=1e-10)
        # independent oracle: direct formula without the log-sum-exp trick
        import mpmath as mp

        mp.mp.dps = 40
        tau = mp.mpf("0.07")
        num = mp.e ** (mp.mpf("0.9") / tau)
        den = num + mp.e ** (mp.mpf("0.1") / tau) + mp.e ** (mp.mpf("-0.2") / tau)
        assert got == pytest.approx(float(-mp.log(num / den)), rel=1e-10)

    def test_permutation_invariance(self):
        # the positive moves with its column
        rng = np.random.default_rng(0)
        sims = np.concatenate(([0.5], rng.uniform(-1, 1, size=9)))
        base = row_infonce(sims, 0, 0.07)[1]
        for _ in range(5):
            order = rng.permutation(len(sims))
            got = row_infonce(sims[order], list(order).index(0), 0.07)[1]
            assert got == pytest.approx(base, rel=1e-12)

    def test_large_logits_stable(self):
        assert np.isfinite(row_infonce([1.0, 0.999], 0, tau=1e-4)[1])

    def test_invalid_temperature(self):
        # training takes its temperature from the config, which rejects <= 0
        for field in ("temperature_init", "temperature_min"):
            for tau in (0.0, -0.07):
                with pytest.raises(ValueError, match="temperature"):
                    PrerankTrainConfig(**{field: tau})


class TestInfonceGrad:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        step = 1e-6
        for _ in range(20):
            sims = rng.uniform(-1, 1, size=rng.integers(2, 9))
            positive = int(rng.integers(len(sims)))
            tau = float(rng.uniform(0.03, 1.5))
            d_sims, _, d_tau = row_infonce(sims, positive, tau)

            def fd(f, x):
                return (f(x + step) - f(x - step)) / (2 * step)

            for j in range(len(sims)):
                def loss_at(x, j=j):
                    shifted = sims.copy()
                    shifted[j] = x
                    return row_infonce(shifted, positive, tau)[1]

                assert d_sims[j] == pytest.approx(fd(loss_at, sims[j]), rel=1e-4, abs=1e-9)
            fd_tau = fd(lambda x: row_infonce(sims, positive, x)[1], tau)
            assert d_tau == pytest.approx(fd_tau, rel=1e-4, abs=1e-9)

    def test_rowwise_matches_central_finite_differences(self):
        # the batched form the trainer runs, with positives off column 0
        rng = np.random.default_rng(7)
        sims = rng.uniform(-1, 1, size=(4, 5))
        positives = np.array([3, 1, 4, 2])
        tau, step = 0.2, 1e-6
        d_sims, _, d_tau = _rowwise_infonce(sims, positives, tau)

        def loss(s, t=tau):
            return _rowwise_infonce(s, positives, t)[1]

        fd_sims = np.zeros_like(sims)
        for cell in np.ndindex(sims.shape):
            bump = np.zeros_like(sims)
            bump[cell] = step
            fd_sims[cell] = (loss(sims + bump) - loss(sims - bump)) / (2 * step)
        np.testing.assert_allclose(d_sims, fd_sims, rtol=1e-4, atol=1e-9)
        fd_tau = (loss(sims, tau + step) - loss(sims, tau - step)) / (2 * step)
        assert d_tau == pytest.approx(fd_tau, rel=1e-4, abs=1e-9)


class TestIndex:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        embeddings = [(f"Q{i}", random_unit(rng, 24)) for i in range(3)]
        index = build_index(embeddings, IndexKind.ENTITIES)
        path = tmp_path / "entities.flix"
        save_index(index, path)
        loaded = load_index(path, IndexKind.ENTITIES)
        assert loaded.ids == index.ids
        assert loaded.kind is IndexKind.ENTITIES
        assert np.array_equal(loaded.matrix, index.matrix)
        # a second save produces identical bytes
        path2 = tmp_path / "again.flix"
        save_index(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_save_writes_the_matrix_without_a_copy(self, tmp_path):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((2000, 200)).astype(np.float32)
        index = preranker.EmbeddingIndex(ids=tuple(f"Q{i}" for i in range(2000)),
                                         matrix=matrix, kind=IndexKind.ENTITIES)
        tracemalloc.start()
        try:
            save_index(index, tmp_path / "e.flix")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix.nbytes / 2

    @pytest.mark.parametrize("layout", ["float32", "float64", "column-slice"])
    def test_save_writes_the_documented_layout(self, layout, tmp_path):
        rng = np.random.default_rng(9)
        wide = rng.standard_normal((3, 10))
        matrix = {"float32": wide[:, :5].astype(np.float32),
                  "float64": wide[:, :5].copy(),
                  "column-slice": wide.astype(np.float32)[:, ::2]}[layout]
        ids = ("Q1", "Qé", "Q10")
        save_index(preranker.EmbeddingIndex(ids=ids, matrix=matrix, kind=IndexKind.PREDICATES),
                   tmp_path / "p.flix")
        expected = b"FLIX" + struct.pack("<IBQI", 1, IndexKind.PREDICATES.value, 3, 5)
        for entry_id in ids:
            raw = entry_id.encode("utf-8")
            expected += struct.pack("<I", len(raw)) + raw
        expected += matrix.astype("<f4").tobytes()
        assert (tmp_path / "p.flix").read_bytes() == expected

    def test_duplicate_id(self):
        rng = np.random.default_rng(2)
        pairs = [("Q1", random_unit(rng, 8)), ("Q1", random_unit(rng, 8))]
        with pytest.raises(DataError, match="^duplicate id 'Q1' in index$"):
            build_index(pairs, IndexKind.ENTITIES)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, 1e30, 2.0, 0.0])
    def test_row_off_the_unit_sphere_names_it(self, scale, tmp_path):
        # under the CLI's float policy: the check itself must not raise
        rng = np.random.default_rng(7)
        index = build_index([(f"Q{i}", random_unit(rng, 8)) for i in range(3)], IndexKind.ENTITIES)
        index.matrix[1] *= scale
        save_index(index, tmp_path / "e.flix")
        with np.errstate(all="raise"), pytest.raises(
            DataError, match=r"e\.flix: row 1 \('Q1'\) is not a finite unit vector; run index$"
        ):
            load_index(tmp_path / "e.flix", IndexKind.ENTITIES)

    def test_empty_index_queries(self):
        index = build_index([], IndexKind.PREDICATES)
        assert topk(index, np.zeros((2, 4)), k=5) == [[], []]

    def test_identity_query_scores_one(self):
        rng = np.random.default_rng(3)
        embeddings = [(f"Q{i}", random_unit(rng, 16)) for i in range(10)]
        index = build_index(embeddings, IndexKind.ENTITIES)
        top_id, score = topk(index, embeddings[4][1][None], k=1)[0][0]
        assert top_id == "Q4"
        assert score == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_query_id_order(self):
        dim = 8
        basis = [(f"Q{i}", np.eye(dim)[i]) for i in range(4)]
        index = build_index(basis, IndexKind.ENTITIES)
        query = np.zeros(dim)
        query[7] = 1.0
        (results,) = topk(index, query[None], k=4)
        assert [r[0] for r in results] == ["Q0", "Q1", "Q2", "Q3"]
        assert all(abs(score) < 1e-6 for _, score in results)

    def test_k_larger_than_index(self):
        rng = np.random.default_rng(4)
        index = build_index([(f"Q{i}", random_unit(rng, 8)) for i in range(3)], IndexKind.ENTITIES)
        assert len(topk(index, random_unit(rng, 8)[None], k=50)[0]) == 3

    @pytest.mark.parametrize("draw", [distinct_case, tied_case], ids=["distinct", "tied"])
    def test_row_subset_is_build_index_of_the_subset(self, draw):
        # the out-of-KG "removed" scenario serves a row subset of the full
        # store index; it must be bitwise the index built from those rows
        rng = np.random.default_rng(6)
        for n in (1, 7, 300):
            ids = [f"Q{i:03d}" for i in range(n)]
            rng.shuffle(ids)
            matrix, query = draw(rng, n)
            matrix = matrix * rng.uniform(0.1, 10.0, size=(n, 1))  # unnormalized rows
            pairs = list(zip(ids, matrix))
            full = build_index(pairs, IndexKind.PREDICATES)
            last = np.arange(n) == n - 1  # keeps each subset below non-empty
            for keep in ((rng.random(n) < 0.5) | last, np.ones(n, bool), last):
                subset = full.subset(keep)
                built = build_index([p for p, kept in zip(pairs, keep) if kept],
                                    IndexKind.PREDICATES)
                assert subset.ids == built.ids and subset.kind is built.kind
                assert subset.matrix.dtype == np.float32
                assert np.array_equal(subset.matrix, built.matrix)
                for k in (1, 3, n + 1):
                    assert topk(subset, query[None], k) == topk(built, query[None], k)
            empty = full.subset(np.zeros(n, bool))
            assert empty.ids == () and len(empty) == 0
            assert topk(empty, query[None], 5) == [[]]

    @pytest.mark.parametrize("draw", [distinct_case, tied_case], ids=["distinct", "tied"])
    def test_matches_brute_force_oracle(self, draw):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = 1000 if trial < 3 else 120  # a few full-size, the rest fast
            ids = [f"Q{i:04d}" for i in range(n)]
            rng.shuffle(ids)
            matrix, query = draw(rng, n)
            index = build_index(list(zip(ids, matrix)), IndexKind.ENTITIES)
            scores = index.matrix @ query.astype(np.float32)
            oracle = sorted(zip(index.ids, scores.tolist()), key=lambda p: (-p[1], p[0]))
            for k in (1, 5, 50, n, n + 1):
                (got,) = topk(index, query[None], k)
                assert got == oracle[: min(k, n)]


def dyadic_case(rng, n, m):
    """n unit rows with 16 entries of +-1/4 among 24, rows 0-2 repeated
    under other ids, and m queries of multiples of 1/64: every score is
    computed exactly in float32, so exact ties are planted and any product
    order gives the oracle's scores."""
    matrix = np.zeros((n, 24))
    for row in matrix:
        row[rng.choice(24, size=16, replace=False)] = rng.choice((-1.0, 1.0), size=16)
    matrix[n - min(3, n - 1):] = matrix[: min(3, n - 1)]  # repeated vectors tie exactly
    queries = rng.integers(-64, 65, size=(m, 24)) / 64
    queries[m // 2 :: 7] = queries[0]  # repeated queries rank alike
    return matrix, queries


class TestBatchedTopk:
    @pytest.mark.parametrize("n,m", [(1, 3), (7, 65), (120, 150), (1000, 64)])
    def test_each_row_matches_brute_force(self, n, m):
        rng = np.random.default_rng(n + m)
        ids = [f"Q{i:04d}" for i in range(n)]
        rng.shuffle(ids)
        matrix, queries = dyadic_case(rng, n, m)
        index = build_index(list(zip(ids, matrix)), IndexKind.ENTITIES)
        scores = queries @ index.matrix.T.astype(np.float64)  # exact: dyadic values
        for k in (1, 5, 50, n, n + 1):
            got = topk(index, queries, k)
            assert len(got) == m
            for row, ranked in zip(scores, got):
                oracle = sorted(zip(index.ids, row.tolist()), key=lambda p: (-p[1], p[0]))
                assert ranked == oracle[: min(k, n)]

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_keep_ranks_as_the_row_subset(self, n):
        rng = np.random.default_rng(n)
        ids = [f"Q{i:03d}" for i in range(n)]
        rng.shuffle(ids)
        matrix, queries = dyadic_case(rng, n, 5)
        full = build_index(list(zip(ids, matrix)), IndexKind.PREDICATES)
        for mask in (rng.random(n) < 0.5, np.ones(n, bool), np.zeros(n, bool),
                     np.arange(n) == n - 1):
            keep = np.flatnonzero(mask)
            subset = full.subset(mask)
            for k in (1, 3, len(keep), len(keep) + 1, n + 5):
                if k < 1:
                    continue
                want = topk(subset, queries, k)
                got = [full.ranked(scores, k, keep) for scores in full.score_rows(queries)]
                assert got == want
                assert all(len(ranked) == min(k, len(keep)) for ranked in got)
        empty = build_index([], IndexKind.PREDICATES)
        assert empty.ranked(np.zeros(0, np.float32), 3, np.zeros(0, np.intp)) == []
        assert empty._top_rows(np.zeros(0, np.float32), 3).size == 0

    def test_one_row_is_bitwise_the_matvec(self):
        rng = np.random.default_rng(9)
        for n, dim in ((1000, 16), (176, 200), (5, 3)):
            ids = [f"Q{i:04d}" for i in range(n)]
            index = build_index(list(zip(ids, rng.standard_normal((n, dim)))),
                                IndexKind.ENTITIES)
            query = random_unit(rng, dim)
            matvec = index.matrix @ query.astype(np.float32)
            (scores,) = index.score_rows(query[None])
            assert scores.tobytes() == matvec.tobytes()
            (ranked,) = topk(index, query[None], 10)
            assert [score for _, score in ranked] == [
                float(matvec[index.row(entry_id)]) for entry_id, _ in ranked
            ]

    def test_one_score_block_is_alive_at_a_time(self):
        rng = np.random.default_rng(10)
        n = 20_000
        index = build_index([(f"Q{i}", row) for i, row in enumerate(rng.standard_normal((n, 8)))],
                            IndexKind.ENTITIES)
        queries = rng.standard_normal((300, 8))
        block_bytes = 64 * n * 4
        tracemalloc.start()
        try:
            topk(index, queries, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block_bytes < peak < 1.5 * block_bytes

    def test_k_below_one_rejected(self):
        index = build_index([("Q1", np.ones(4))], IndexKind.ENTITIES)
        with pytest.raises(ValueError, match="k must be"):
            topk(index, np.ones((2, 4)), 0)
        with pytest.raises(ValueError, match="k must be"):
            topk(build_index([], IndexKind.ENTITIES), np.ones((2, 4)), 0)


class TestSampleNegatives:
    def test_no_duplicates(self):
        ids = [f"Q{i}" for i in range(50)]
        rng = np.random.default_rng(6)
        for _ in range(200):
            sample = sample_negatives(ids, 10, rng)
            assert set(sample) <= set(ids)
            assert len(sample) == len(set(sample)) == 10

    def test_uniform_distribution(self):
        ids = [f"Q{i}" for i in range(50)]
        rng = np.random.default_rng(7)
        draws = 100_000
        counts = {i: 0 for i in ids}
        for _ in range(draws // 5):
            for chosen in sample_negatives(ids, 5, rng):
                counts[chosen] += 1
        p = 1 / 50
        expected = draws * p
        sigma = math.sqrt(draws * p * (1 - p))
        for count in counts.values():
            assert abs(count - expected) <= 3 * sigma

    def test_count_capped_at_pool(self):
        sample = sample_negatives(["a", "b", "c"], 99, np.random.default_rng(8))
        assert sorted(sample) == ["a", "b", "c"]


def tiny_world():
    """Five entities and two predicates whose surfaces match labels."""
    entries = [
        entity("Q1", "Alice Harbor", "sailor of the north"),
        entity("Q2", "Bruno Quartz", "miner of the east"),
        entity("Q3", "Cora Meadow", "farmer of the west"),
        entity("Q4", "Dylan Frost", "skater of the south"),
        entity("Q5", "Eve Cinder", "smith of the city"),
        predicate("P1", "works with", "professional relation"),
        predicate("P2", "lives near", "geographic relation"),
    ]
    facts = [
        KgFact("Q1", "P1", "Q2"),
        KgFact("Q2", "P2", "Q3"),
        KgFact("Q3", "P1", "Q4"),
        KgFact("Q4", "P2", "Q5"),
        KgFact("Q5", "P1", "Q1"),
        KgFact("Q1", "P2", "Q4"),
    ]
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


class TestLink:
    def test_trained_toy_links_gold(self):
        store, alignments = tiny_world()
        config = PrerankTrainConfig(
            epochs=60, learning_rate=0.5, batch_size=3, seed=0,
            global_neg_entities=8, global_neg_predicates=4,
        )
        params, trace = train_preranker(alignments, store, config, SMALL_ENCODER)
        encoder = ReferenceEncoder(params)
        entity_index, predicate_index = build_store_indices(encoder, store)
        results = link(encoder, entity_index, predicate_index, [a.oie for a in alignments], k=2)
        assert len(results) == len(alignments)
        for a, result in zip(alignments, results):
            assert len(result.subject) == len(result.relation) == len(result.object) == 2
            assert result.linked_fact == a.fact

    def test_k_truncated_to_index_size(self):
        store, alignments = tiny_world()
        encoder = ReferenceEncoder(init_params(SMALL_ENCODER, 0))
        entity_index, predicate_index = build_store_indices(encoder, store)
        (result,) = link(encoder, entity_index, predicate_index, [alignments[0].oie], k=99)
        assert len(result.subject) == 5
        assert len(result.relation) == 2

    def test_deterministic(self):
        store, alignments = tiny_world()
        encoder = ReferenceEncoder(init_params(SMALL_ENCODER, 1))
        entity_index, predicate_index = build_store_indices(encoder, store)
        triples = [alignment.oie for alignment in alignments]
        a = link(encoder, entity_index, predicate_index, triples, k=3)
        b = link(encoder, entity_index, predicate_index, triples, k=3)
        assert a == b


class TestTrainPreranker:
    def test_each_forward_is_released_before_the_next_is_built(self, monkeypatch):
        """Two batches' dense weights are never alive at once."""
        store, alignments = tiny_world()
        config = PrerankTrainConfig(
            epochs=2, batch_size=2, seed=0, global_neg_entities=4, global_neg_predicates=2
        )
        built, alive_at_build = [], []

        def tracking(*args):
            alive_at_build.append(sum(ref() is not None for ref in built))
            forward = encode_batch(*args)
            built.append(weakref.ref(forward))
            return forward

        encode_batch = preranker.encode_batch
        monkeypatch.setattr(preranker, "encode_batch", tracking)
        train_preranker(alignments, store, config, SMALL_ENCODER)
        assert len(alive_at_build) == 6 and not any(alive_at_build)

    def test_loss_decreases(self):
        store, alignments = tiny_world()
        config = PrerankTrainConfig(
            epochs=20, learning_rate=0.3, batch_size=3, seed=3,
            global_neg_entities=8, global_neg_predicates=4,
        )
        _, trace = train_preranker(alignments, store, config, SMALL_ENCODER)
        assert trace[-1]["mean_loss"] < trace[0]["mean_loss"]

    def test_no_negatives_loss_is_zero(self):
        store, alignments = tiny_world()
        config = PrerankTrainConfig(
            epochs=3, batch_size=1, global_neg_entities=0, global_neg_predicates=0, seed=0
        )
        _, trace = train_preranker(alignments, store, config, SMALL_ENCODER)
        assert all(step["mean_loss"] == 0.0 for step in trace)

    def test_seeded_training_bitwise_reproducible(self):
        store, alignments = tiny_world()
        config = PrerankTrainConfig(
            epochs=4, learning_rate=0.2, batch_size=2, seed=11,
            global_neg_entities=4, global_neg_predicates=2,
        )
        params_a, trace_a = train_preranker(alignments, store, config, SMALL_ENCODER)
        params_b, trace_b = train_preranker(alignments, store, config, SMALL_ENCODER)
        assert trace_a == trace_b
        assert np.array_equal(params_a.feature_table, params_b.feature_table)
        assert np.array_equal(params_a.slot_projection, params_b.slot_projection)
        assert np.array_equal(params_a.entry_projection, params_b.entry_projection)

    def test_resume_from_saved_params_is_bitwise_in_memory_resume(self, tmp_path):
        store, alignments = tiny_world()
        config = PrerankTrainConfig(
            epochs=2, learning_rate=0.2, batch_size=2, seed=11,
            global_neg_entities=4, global_neg_predicates=2,
        )
        params, trace = train_preranker(alignments, store, config, SMALL_ENCODER)
        assert 0 < len(params.table_ids) < SMALL_ENCODER.buckets
        save_params(params, tmp_path / "preranker.params", tau=trace[-1]["tau"])
        loaded, tau = load_params(tmp_path / "preranker.params")
        assert tau == trace[-1]["tau"]
        resume = PrerankTrainConfig(
            epochs=2, learning_rate=0.2, batch_size=3, seed=12,
            global_neg_entities=5, global_neg_predicates=2,
        )
        from_file = train_preranker(alignments, store, resume, SMALL_ENCODER, loaded, tau)
        in_memory = train_preranker(alignments, store, resume, SMALL_ENCODER, params, tau)
        assert from_file[1] == in_memory[1]
        for name in ("table_ids", "feature_table", "slot_projection", "entry_projection"):
            assert np.array_equal(getattr(from_file[0], name), getattr(in_memory[0], name))

    def test_empty_training_set(self):
        store, _ = tiny_world()
        with pytest.raises(DataError, match="^no training alignments$"):
            train_preranker([], store, PrerankTrainConfig(), SMALL_ENCODER)

    def test_batch_loss_matches_scalar_infonce(self):
        # one batch of the whole set: recompute the loss from embeddings,
        # one example's row at a time, as an independent check of the
        # trainer's batched path
        store, alignments = tiny_world()
        config = PrerankTrainConfig(
            epochs=1, learning_rate=1e-9, weight_decay=0.0, batch_size=len(alignments),
            global_neg_entities=0, global_neg_predicates=0, seed=5,
        )
        params, trace = train_preranker(alignments, store, config, SMALL_ENCODER)
        # the first-epoch loss is recorded before any update, so recompute
        # it from an independently re-initialized encoder
        encoder = ReferenceEncoder(init_params(SMALL_ENCODER, config.seed))
        tau = config.temperature_init
        losses = []
        order = np.random.default_rng(config.seed).permutation(len(alignments))
        batch = [alignments[i] for i in order]
        for slot_index, slot_of in (
            (0, lambda f: f.subject_id),
            (1, lambda f: f.predicate_id),
            (2, lambda f: f.object_id),
        ):
            pool = list(dict.fromkeys(slot_of(a.fact) for a in batch))
            for a in batch:
                query = encoder.slot_embed(a.oie)[slot_index]
                sims = [float(query @ encoder.entry_embed(store.entry(eid))) for eid in pool]
                losses.append(row_infonce(sims, pool.index(slot_of(a.fact)), tau)[1])
        assert trace[0]["mean_loss"] == pytest.approx(float(np.mean(losses)), rel=1e-9)

    def test_whole_model_gradient_matches_central_finite_differences(self):
        # one batch without weight decay: the SGD step moves every parameter
        # by -lr * gradient, so (before - after) / lr is the trainer's own
        # gradient of the batch loss, which the trace records before the step
        store, alignments = tiny_world()
        encoder_config = EncoderConfig(dim=4, hidden=3, buckets=16)
        lr = 1e-7
        config = PrerankTrainConfig(
            epochs=1, learning_rate=lr, weight_decay=0.0, batch_size=len(alignments),
            global_neg_entities=2, global_neg_predicates=1, temperature_min=1e-3, seed=4,
        )
        initial = init_params(encoder_config, 2)
        initial.rows_of(np.arange(encoder_config.buckets))  # perturb all 48 table entries
        assert initial.feature_table.shape == (16, 3)
        blocks = ("feature_table", "slot_projection", "entry_projection")

        def flatten(params, tau):
            return np.concatenate([getattr(params, b).ravel() for b in blocks] + [[np.log(tau)]])

        def train(x):
            params, i = initial.copy(), 0
            for block in blocks:
                array = getattr(params, block)
                array[...] = x[i : i + array.size].reshape(array.shape)
                i += array.size
            return train_preranker(
                alignments, store, config, encoder_config,
                initial_params=params, initial_tau=float(np.exp(x[-1])),
            )

        x = flatten(initial, 0.3)
        stepped, trace = train(x)
        analytic = (x - flatten(stepped, trace[0]["tau"])) / lr
        h = 1e-5

        def loss(x):
            return train(x)[1][0]["mean_loss"]

        numeric = np.array([(loss(x + h * e) - loss(x - h * e)) / (2 * h) for e in np.eye(x.size)])
        assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(numeric).max()
