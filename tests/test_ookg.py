import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import entity, make_alignment, predicate
from factlink.encoder import EncoderConfig, ReferenceEncoder
from factlink.errors import DataError, EmptyKeySetError, MalformedRecordError, UnknownIdError
from factlink.kg import KgFact, build_store, restrict_to_benchmark
from factlink.ookg import (
    ConfidenceDetector,
    ConstantDetector,
    Decision,
    EntropyDetector,
    OokgThresholds,
    QkvParams,
    QkvTrainConfig,
    QkvDetector,
    RandomDetector,
    TOP_SUPPORT,
    _qkv_backward,
    _qkv_forward,
    _threshold_decision,
    calibrate_all_thresholds,
    calibrate_threshold,
    detection_accuracy,
    entropy,
    ookg_evaluate,
    qkv_score,
    thresholds_from_record,
    thresholds_record,
    topk_softmax,
    train_qkv,
)
from factlink.preranker import (
    IndexKind, PrerankTrainConfig, build_index, build_store_indices, topk, train_preranker,
)
from factlink.reranker import bce_grad, bce_loss

SMALL_ENCODER = EncoderConfig(dim=16, hidden=8, buckets=1024)


class TestTopkSoftmax:
    def test_uniform_for_equal_sims(self):
        probs = topk_softmax([0.3] * 5)
        np.testing.assert_allclose(probs, [0.2] * 5, atol=1e-12)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_dominant_similarity(self):
        # e^10 / (e^10 + 4) = 0.99982: the dominant entry takes almost all mass
        probs = topk_softmax([10.0, 0.0, 0.0, 0.0, 0.0])
        assert probs[0] > 0.999

    def test_derived_oracle(self):
        # frozen from a 50-digit direct evaluation
        expected = [
            0.28676372630237704,
            0.23478228159099343,
            0.19222347421636085,
            0.15737926980442715,
            0.12885124808584153,
        ]
        np.testing.assert_allclose(
            topk_softmax([0.9, 0.7, 0.5, 0.3, 0.1]), expected, rtol=1e-12
        )

    def test_shift_invariance(self):
        sims = [0.9, 0.1, -0.4, 0.2, 0.05]
        np.testing.assert_allclose(
            topk_softmax(sims), topk_softmax([s + 123.0 for s in sims]), atol=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptyKeySetError):
            topk_softmax([])


def confidence_decision(probs, slot):
    """The confidence detector's decision for a slot whose top support has
    probabilities ``probs``, at the default thresholds."""
    top1 = float(np.max(probs))
    return _threshold_decision(top1, OokgThresholds().confidence[slot], "below")


def entropy_decision(h, slot):
    return _threshold_decision(h, OokgThresholds().entropy[slot], "above")


class TestHeuristicDetectors:
    def test_confidence_uniform_is_out(self):
        probs = topk_softmax([0.5] * 5)  # top-1 = 0.2 < 0.235
        assert confidence_decision(probs, 0) is Decision.OUT_OF_KG

    def test_confidence_high_is_in(self):
        assert confidence_decision([0.9, 0.05, 0.03, 0.01, 0.01], 0) is Decision.IN_KG

    def test_confidence_boundary_is_in(self):
        probs = [0.235, 0.22, 0.21, 0.18, 0.155]
        assert confidence_decision(probs, 0) is Decision.IN_KG
        assert confidence_decision(probs, 2) is Decision.IN_KG
        # relation threshold is 0.260, so the same probs are out-of-KG there
        assert confidence_decision(probs, 1) is Decision.OUT_OF_KG

    def test_entropy_uniform_is_ln5(self):
        h = entropy([0.2] * 5)
        assert h == pytest.approx(math.log(5), abs=1e-9)

    def test_entropy_one_hot_is_zero(self):
        assert entropy([1.0, 0.0, 0.0, 0.0, 0.0]) == 0.0

    def test_entropy_derived_oracle(self):
        # frozen from a 50-digit direct evaluation
        assert entropy([0.4, 0.3, 0.15, 0.1, 0.05]) == pytest.approx(
            1.3923212547574291, rel=1e-12
        )

    def test_entropy_bounds_and_maximum(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 9):
            for _ in range(50):
                p = rng.dirichlet(np.ones(n))
                h = entropy(p)
                assert -1e-12 <= h <= math.log(n) + 1e-12
            assert entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log(n), abs=1e-12)

    def test_entropy_detect_thresholds(self):
        uniform_h = entropy([0.2] * 5)  # ~1.6094 > 1.60
        assert entropy_decision(uniform_h, 0) is Decision.OUT_OF_KG
        assert entropy_decision(entropy([1.0, 0.0, 0.0, 0.0, 0.0]), 0) is Decision.IN_KG
        assert entropy_decision(1.60, 0) is Decision.IN_KG  # boundary -> in
        # relation threshold is 1.58, so the same entropy is out-of-KG there
        assert entropy_decision(1.59, 1) is Decision.OUT_OF_KG
        assert entropy_decision(1.59, 2) is Decision.IN_KG

    @pytest.mark.parametrize("out_when", ["below", "above"])
    def test_decisions_count_to_calibration_accuracy(self, out_when):
        rng = np.random.default_rng(4)
        stats = rng.integers(0, 6, size=300) / 5  # many statistics exactly at a threshold
        labels = rng.random(300) < 0.4
        labels[:2] = (True, False)
        for threshold in [*np.unique(stats).tolist(), -0.1, 0.5, 1.1]:
            out = np.array([_threshold_decision(s, threshold, out_when) is Decision.OUT_OF_KG
                            for s in stats.tolist()])
            hits_out, hits_in = int(out[labels].sum()), int((~out[~labels]).sum())
            expected = (hits_out / labels.sum() + hits_in / (~labels).sum()) / 2
            assert detection_accuracy(stats, labels, threshold, out_when) == expected

    def test_default_threshold_values(self):
        thresholds = OokgThresholds()
        assert thresholds.confidence == (0.235, 0.260, 0.235)
        assert thresholds.entropy == (1.60, 1.58, 1.60)
        assert thresholds.attention == 0.3

    @pytest.mark.parametrize("change", [
        {"confidence": [0.25]},  # one value where each slot needs one
        {"entropy": [1.6, 1.6, 1.6, 1.6]},
        {"confidence": [0.25, 1.5, 0.25]},
        {"entropy": [1.6, -0.1, 1.6]},
        {"attention": "high"},
        {"attention": 0.3},  # a bare value: the record lists one per slot
        {"attention": [0.3, 0.3]},
        {"attention": [0.3, 0.4, 0.3]},
        {"attention": [5, 5, 5]},
        {"attention": [0.0, 0.0, 0.0]},
    ])
    def test_malformed_record_rejected(self, change):
        record = thresholds_record(OokgThresholds())
        assert thresholds_from_record(record) == OokgThresholds()
        with pytest.raises(MalformedRecordError):
            thresholds_from_record({**record, **change})

    @pytest.mark.parametrize("attention", [0.0, 1.0, -0.2, 5.0, float("nan")])
    def test_attention_outside_unit_interval_rejected(self, attention):
        with pytest.raises(ValueError, match="attention"):
            OokgThresholds(attention=attention)

    @pytest.mark.parametrize("change", [
        {"grid_size": 0}, {"attention_threshold": 5.0}, {"attention_threshold": 0.0},
    ])
    def test_train_config_rejects_threshold_settings(self, change):
        assert QkvTrainConfig().attention_threshold == OokgThresholds().attention
        with pytest.raises(ValueError):
            QkvTrainConfig(**change)


class TestQkvScore:
    def test_identity_with_self_key(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal(16)
        q /= np.linalg.norm(q)
        params = QkvParams.identity(16)
        # frozen from sigmoid(1) at 20 digits
        assert qkv_score(params, q, [q]) == pytest.approx(0.7310585786300049, rel=1e-12)

    def test_identity_with_orthogonal_keys(self):
        params = QkvParams.identity(4)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        keys = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])]
        assert qkv_score(params, q, keys) == pytest.approx(0.5, abs=1e-12)

    def test_score_in_unit_interval(self):
        rng = np.random.default_rng(2)
        params = QkvParams.identity(8)
        params.scale = 3.0
        params.bias = -0.5
        for _ in range(20):
            q = rng.standard_normal(8)
            q /= np.linalg.norm(q)
            keys = rng.standard_normal((6, 8))
            s = qkv_score(params, q, keys)
            assert 0.0 < s < 1.0

    def test_empty_keys_rejected(self):
        with pytest.raises(EmptyKeySetError):
            qkv_score(QkvParams.identity(4), np.ones(4), [])

    def test_identity_params_depend_only_on_cosines(self):
        # rotating query and keys together preserves all pairwise cosines,
        # so the identity-initialized head must yield the same score
        rng = np.random.default_rng(3)
        d = 12
        params = QkvParams.identity(d)
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        keys = rng.standard_normal((5, d))
        rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
        original = qkv_score(params, q, keys)
        rotated = qkv_score(params, rotation @ q, keys @ rotation.T)
        assert rotated == pytest.approx(original, rel=1e-9)


class TestQkvGradient:
    """The trainer's backward against central differences of the BCE loss,
    at tiny dims with random non-identity params."""

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_backward_matches_central_differences(self, label):
        rng = np.random.default_rng(11)
        d, m = 4, 5
        params = QkvParams(
            q_proj=rng.normal(size=(d, d)), k_proj=rng.normal(size=(d, d)),
            v_proj=rng.normal(size=(d, d)), scale=0.7, bias=-0.2,
        )
        query, keys = rng.normal(size=d), rng.normal(size=(m, d))

        def loss(p):
            return bce_loss(_qkv_forward(p, query, keys)["logit"], label)

        state = _qkv_forward(params, query, keys)
        factors, d_scale, d_bias = _qkv_backward(
            params, query, keys, state, bce_grad(state["logit"], label)
        )
        eps = 1e-6
        for name, (left, right) in factors.items():
            weights = getattr(params, name)
            numeric = np.empty_like(weights)
            for idx in np.ndindex(weights.shape):
                saved = weights[idx]
                weights[idx] = saved + eps
                up = loss(params)
                weights[idx] = saved - eps
                down = loss(params)
                weights[idx] = saved
                numeric[idx] = (up - down) / (2 * eps)
            assert np.abs(numeric).max() > 1e-3, name  # not a vacuous comparison
            np.testing.assert_allclose(np.outer(left, right), numeric, rtol=1e-6, atol=1e-9)
        for name, analytic in (("scale", d_scale), ("bias", d_bias)):
            value = getattr(params, name)
            up = loss(dataclasses.replace(params, **{name: value + eps}))
            down = loss(dataclasses.replace(params, **{name: value - eps}))
            assert analytic == pytest.approx((up - down) / (2 * eps), rel=1e-6, abs=1e-9)


def calibration_world(n_entities=30, n_predicates=6, n_alignments=60, seed=0):
    rng = np.random.default_rng(seed)
    first = ["Arden", "Briar", "Calla", "Dorian", "Elowen", "Fen"]
    last = ["Voss", "Hale", "Iris", "Juno", "Kestrel"]
    entries = [
        entity(
            f"Q{i}",
            f"{first[i % len(first)]} {last[i % len(last)]} {i}",
            f"person number {i} of the register",
        )
        for i in range(n_entities)
    ]
    verbs = ["mentors", "hires", "visits", "funds", "guides", "audits"]
    entries += [
        predicate(f"P{j}", f"{verbs[j % len(verbs)]} counterpart {j}")
        for j in range(n_predicates)
    ]
    facts = []
    for _ in range(n_alignments):
        s, o = rng.choice(n_entities, size=2, replace=False)
        facts.append(KgFact(f"Q{s}", f"P{rng.integers(n_predicates)}", f"Q{o}"))
    facts = list(dict.fromkeys(facts))
    store = build_store(entries)
    alignments = [
        make_alignment(
            store.entry(f.subject_id).label,
            store.entry(f.predicate_id).label,
            store.entry(f.object_id).label,
            f,
        )
        for f in facts
    ]
    return store, alignments


@pytest.fixture(scope="module")
def calibration_setup():
    store, alignments = calibration_world()
    config = PrerankTrainConfig(
        epochs=25, learning_rate=0.4, batch_size=8, seed=0,
        global_neg_entities=16, global_neg_predicates=6,
    )
    params, _ = train_preranker(alignments, store, config, SMALL_ENCODER)
    return store, alignments, ReferenceEncoder(params)


def reference_train_qkv(alignments, encoder, store, indices, config, with_context=False):
    """The straightforward per-example trainer: object-array inventories,
    one index-row lookup per sampled id, every key projected, d x d gradients."""
    params = QkvParams.identity(encoder.dim)
    rng = np.random.default_rng(config.seed)
    entity_ids = np.array(store.entity_ids(), dtype=object)
    predicate_ids = np.array(store.predicate_ids(), dtype=object)
    sqrt_d = np.sqrt(params.dim)
    lr, wd = config.learning_rate, config.weight_decay
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(alignments))
        epoch_loss, n_examples = 0.0, 0
        for i in order:
            alignment = alignments[i]
            queries = encoder.slot_embed(alignment.oie, with_context)
            gold_ids = alignment.fact.ids
            for slot in range(3):
                inventory = predicate_ids if slot == 1 else entity_ids
                keep_gold = bool(rng.random() >= config.gold_drop_prob)
                others = inventory[inventory != gold_ids[slot]]
                fill = min(config.subset_size - (1 if keep_gold else 0), len(others))
                chosen = others[rng.choice(len(others), size=fill, replace=False)]
                subset = ([gold_ids[slot]] if keep_gold else []) + list(chosen)
                index = indices[slot == 1]
                keys = index.matrix[[index.row(eid) for eid in subset]].astype(np.float64)
                label = 1.0 if keep_gold else 0.0
                query = queries[slot]

                q_projected = params.q_proj @ query
                k_projected = keys @ params.k_proj.T
                a = topk_softmax((k_projected @ q_projected) / sqrt_d)
                mean_key = a @ keys
                inner = float(query @ (params.v_proj @ mean_key))
                logit = params.scale * inner + params.bias
                epoch_loss += bce_loss(logit, label)
                n_examples += 1

                d_logit = bce_grad(logit, label)
                d_context = (d_logit * params.scale) * query
                d_v = np.outer(d_context, mean_key)
                d_attention = keys @ (params.v_proj.T @ d_context)
                d_logits = a * (d_attention - float(a @ d_attention))
                d_q = np.outer((k_projected.T @ d_logits) / sqrt_d, query)
                d_k = (np.outer(d_logits, q_projected) / sqrt_d).T @ keys
                params.q_proj -= lr * (d_q + wd * params.q_proj)
                params.k_proj -= lr * (d_k + wd * params.k_proj)
                params.v_proj -= lr * (d_v + wd * params.v_proj)
                params.scale -= lr * (d_logit * inner)
                params.bias -= lr * d_logit
        trace.append({"epoch": epoch, "mean_loss": epoch_loss / n_examples})
    return params, trace


class TestTrainQkv:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("gold_drop_prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(  # 10 > the 6 predicates: fill capped
        "subset_size, with_context", [(4, False), (10, False), (10, True)],
        ids=["4", "10", "10-context"],
    )
    def test_matches_reference_loop(
        self, calibration_setup, weight_decay, gold_drop_prob, subset_size, with_context
    ):
        store, alignments, encoder = calibration_setup
        if with_context:
            alignments = [
                dataclasses.replace(a, oie=dataclasses.replace(a.oie, sentence=f"Record {i}."))
                for i, a in enumerate(alignments)
            ]
        indices = build_store_indices(encoder, store)
        config = QkvTrainConfig(
            epochs=2, learning_rate=0.05, weight_decay=weight_decay,
            subset_size=subset_size, gold_drop_prob=gold_drop_prob, seed=2,
        )
        params, trace = train_qkv(alignments, encoder, indices, config, with_context)
        expected, expected_trace = reference_train_qkv(
            alignments, encoder, store, indices, config, with_context
        )
        for name in ("q_proj", "k_proj", "v_proj"):
            np.testing.assert_allclose(
                getattr(params, name), getattr(expected, name), rtol=0, atol=1e-12
            )
        assert params.scale == pytest.approx(expected.scale, rel=0, abs=1e-12)
        assert params.bias == pytest.approx(expected.bias, rel=0, abs=1e-12)
        assert [t["epoch"] for t in trace] == [t["epoch"] for t in expected_trace]
        for got, want in zip(trace, expected_trace):
            assert got["mean_loss"] == pytest.approx(want["mean_loss"], rel=1e-12, abs=0)

    def test_loss_decreases(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        config = QkvTrainConfig(epochs=6, learning_rate=0.05, subset_size=12, seed=0)
        _, trace = train_qkv(alignments, encoder, build_store_indices(encoder, store), config)
        assert trace[-1]["mean_loss"] < trace[0]["mean_loss"]

    def test_seeded_reproducible(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        config = QkvTrainConfig(epochs=2, learning_rate=0.05, subset_size=8, seed=3)
        indices = build_store_indices(encoder, store)
        a, trace_a = train_qkv(alignments, encoder, indices, config)
        b, trace_b = train_qkv(alignments, encoder, indices, config)
        assert trace_a == trace_b
        assert np.array_equal(a.q_proj, b.q_proj)
        assert np.array_equal(a.k_proj, b.k_proj)
        assert np.array_equal(a.v_proj, b.v_proj)
        assert (a.scale, a.bias) == (b.scale, b.bias)

    def test_gold_missing_from_its_index_rejected(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        entity_index, _ = build_store_indices(encoder, store)
        gold = alignments[0].fact.predicate_id
        config = QkvTrainConfig(epochs=1, learning_rate=0.05, subset_size=4, seed=0)
        # the relation slot reads the entity index, which lacks its predicate
        with pytest.raises(UnknownIdError, match=re.escape(repr(gold))):
            train_qkv(alignments[:1], encoder, (entity_index, entity_index), config)

    def test_gold_always_kept_single_key_reduces_to_identity_case(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        gold = store.entry(alignments[0].fact.subject_id)
        query = encoder.slot_embed(alignments[0].oie)[0]
        key = encoder.entry_embed(gold)
        # keys = {gold embedding}: attention collapses to it, so the score is
        # sigmoid(query . key) under identity params
        expected = 1.0 / (1.0 + math.exp(-float(query @ key)))
        assert qkv_score(QkvParams.identity(encoder.dim), query, [key]) == pytest.approx(
            expected, rel=1e-12
        )

    def test_trained_detector_beats_chance_on_held_out_entity_slots(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        held_out = alignments[::4]
        train = [a for a in alignments if a not in held_out]
        config = QkvTrainConfig(epochs=10, learning_rate=0.05, subset_size=12, seed=1)
        params, _ = train_qkv(train, encoder, build_store_indices(encoder, store), config)
        from factlink.ookg import QkvDetector

        detector = QkvDetector(params, OokgThresholds(attention=0.5), key_pool=12)
        report = ookg_evaluate(
            detector, held_out, build_store_indices(encoder, store), encoder
        )
        assert report.slot_accuracy[0] > 0.5
        assert report.slot_accuracy[2] > 0.5


def _loop_detection_accuracy(stats, labels, threshold, out_when):
    """The reference: one threshold, one comparison per statistic."""
    decided_out = stats < threshold if out_when == "below" else stats > threshold
    return float(np.mean([float((decided_out[labels == cls] == cls).mean())
                          for cls in (True, False)]))


def _loop_calibrate_threshold(stats, labels, out_when, grid_size):
    """The reference: score the grid one point at a time, keeping the
    first best."""
    grid = np.linspace(stats.min(), stats.max(), grid_size)
    best_threshold, best_accuracy = float(grid[0]), -1.0
    for candidate in grid:
        accuracy = _loop_detection_accuracy(stats, labels, float(candidate), out_when)
        if accuracy > best_accuracy:
            best_accuracy, best_threshold = accuracy, float(candidate)
    return best_threshold


class TestCalibrateThreshold:
    @pytest.mark.parametrize("out_when", ["below", "above"])
    @pytest.mark.parametrize("grid_size", [1, 2, 7, 200])
    def test_matches_the_per_point_loop(self, grid_size, out_when):
        rng = np.random.default_rng(grid_size)
        for case in range(40):
            n = int(rng.integers(2, 300))
            # few distinct values give ties among statistics and among grid scores
            stats = rng.integers(0, 1 + case % 8, size=n) / 7 if case % 2 else rng.normal(size=n)
            labels = rng.random(n) < rng.uniform(0.1, 0.9)
            labels[:2] = (True, False)
            expected = _loop_calibrate_threshold(stats, labels, out_when, grid_size)
            got = calibrate_threshold(stats, labels, out_when, grid_size)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            grid = np.linspace(stats.min(), stats.max(), grid_size)
            scores = detection_accuracy(stats, labels, grid, out_when)
            assert scores.tolist() == [
                _loop_detection_accuracy(stats, labels, t, out_when) for t in grid
            ]

    def test_perfectly_separable(self):
        stats = [0.1, 0.15, 0.2, 0.8, 0.85, 0.9]
        labels = [True, True, True, False, False, False]  # low stat = out
        threshold = calibrate_threshold(stats, labels, out_when="below")
        assert detection_accuracy(stats, labels, threshold, "below") == 1.0

    def test_independent_labels_near_chance(self):
        rng = np.random.default_rng(5)
        stats = rng.uniform(0, 1, size=4000)
        labels = rng.integers(0, 2, size=4000).astype(bool)
        threshold = calibrate_threshold(stats, labels, out_when="above")
        accuracy = detection_accuracy(stats, labels, threshold, "above")
        assert 0.45 <= accuracy <= 0.58

    def test_single_candidate_grid(self):
        stats = [0.2, 0.4, 0.9]
        labels = [True, False, False]
        assert calibrate_threshold(stats, labels, "below", grid_size=1) == 0.2

    def test_beats_degenerate_thresholds(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            stats = rng.normal(0, 1, size=100)
            labels = rng.integers(0, 2, size=100).astype(bool)
            threshold = calibrate_threshold(stats, labels, "above")
            calibrated = detection_accuracy(stats, labels, threshold, "above")
            always_in = detection_accuracy(stats, labels, stats.max() + 1, "above")
            always_out = detection_accuracy(stats, labels, stats.min() - 1, "above")
            assert calibrated >= always_in
            assert calibrated >= always_out

    def test_requires_both_classes(self):
        with pytest.raises(DataError):
            detection_accuracy([0.1, 0.2], [True, True], 0.5, "below")


class TestEvaluateProtocol:
    def test_always_in_kg_is_exactly_half(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        report = ookg_evaluate(
            ConstantDetector(Decision.IN_KG), alignments, build_store_indices(encoder, store),
            encoder,
        )
        assert report.slot_accuracy == (0.5, 0.5, 0.5)

    def test_oracle_detector_is_perfect(self, calibration_setup):
        store, alignments, encoder = calibration_setup

        class OracleDetector:
            depth = 10**6  # every row the scenario ranks

            def decide(self, query, index, ranked, slot, gold_id):
                present = gold_id in {entry_id for entry_id, _ in ranked}
                return (Decision.IN_KG if present else Decision.OUT_OF_KG), float(present)

        report = ookg_evaluate(
            OracleDetector(), alignments, build_store_indices(encoder, store), encoder
        )
        assert report.slot_accuracy == (1.0, 1.0, 1.0)
        assert report.fact_accuracy == 1.0

    def test_fair_coin_fact_accuracy_near_one_eighth(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        # repeat the alignment list to reach >= 2000 paired trials
        repeated = (alignments * (1000 // len(alignments) + 1))[:1000]
        report = ookg_evaluate(
            RandomDetector(seed=13), repeated, build_store_indices(encoder, store), encoder
        )
        assert report.trials_per_scenario == 1000
        assert abs(report.fact_accuracy - 0.125) <= 0.02

    def test_records_schema(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        report = ookg_evaluate(
            EntropyDetector(), alignments[:3], build_store_indices(encoder, store), encoder,
            collect_records=True,
        )
        assert len(report.records) == 2 * 3 * 3
        record = report.records[0]
        assert set(record) == {"alignment_id", "slot", "scenario", "decision", "statistic"}

    def test_gold_missing_from_indices_rejected(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        entity_index, predicate_index = build_store_indices(encoder, store)
        gold = alignments[0].fact.object_id
        without = entity_index.subset([entry_id != gold for entry_id in entity_index.ids])
        with pytest.raises(UnknownIdError, match=re.escape(repr(gold))):
            ookg_evaluate(
                ConstantDetector(Decision.IN_KG), alignments[:1], (without, predicate_index),
                encoder,
            )

    def test_gold_of_the_wrong_kind_rejected(self, calibration_setup):
        # a predicate id as subject is in the union of both indices' ids, but
        # the subject slot is scored against the entity index, which lacks it
        store, alignments, encoder = calibration_setup
        wrong_kind = [
            dataclasses.replace(a, fact=KgFact(a.fact.predicate_id, *a.fact.ids[1:]))
            for a in alignments[:5]
        ]
        gold = wrong_kind[0].fact.subject_id
        with pytest.raises(UnknownIdError, match=re.escape(repr(gold))):
            ookg_evaluate(
                ConstantDetector(Decision.IN_KG), wrong_kind, build_store_indices(encoder, store),
                encoder,
            )

    def test_empty_store_variant_decides_out(self):
        # even when an entropy threshold equals the fallback ln TOP_SUPPORT
        max_entropy = float(np.log(TOP_SUPPORT))
        thresholds = OokgThresholds(entropy=(max_entropy,) * 3)
        empty = build_index([], IndexKind.ENTITIES)
        query = np.ones(4) / 2
        assert ConfidenceDetector(thresholds).decide(query, empty, [], 0, "Q1") == (
            Decision.OUT_OF_KG, 0.0
        )
        assert EntropyDetector(thresholds).decide(query, empty, [], 0, "Q1") == (
            Decision.OUT_OF_KG, max_entropy
        )

    def test_heuristic_detectors_run(self, calibration_setup):
        store, alignments, encoder = calibration_setup
        for detector in (ConfidenceDetector(), EntropyDetector()):
            report = ookg_evaluate(
                detector, alignments[:10], build_store_indices(encoder, store), encoder
            )
            assert 0.0 <= report.fact_accuracy <= 1.0


def subset_variants(alignments, indices):
    """The store variants of the protocol as row-subset copies: the indices
    as given, and each one's ``subset`` without the batch's gold rows."""
    gold = {entry_id for alignment in alignments for entry_id in alignment.fact.ids}
    removed = tuple(index.subset([i not in gold for i in index.ids]) for index in indices)
    return {"imputed": indices, "removed": removed}


def reference_decisions(detector, alignments, indices, encoder):
    """(scenario, slot, decision, statistic) per trial, each slot's ranked
    list a one-query ``topk`` over its scenario's row-subset variant."""
    trials = []
    for scenario, variant in subset_variants(alignments, indices).items():
        for alignment in alignments:
            queries = encoder.slot_embed(alignment.oie)
            for slot in range(3):
                index = variant[slot == 1]
                ranked = (None if detector.depth is None
                          else topk(index, queries[slot][None], detector.depth)[0])
                decision, statistic = detector.decide(
                    queries[slot], index, ranked, slot, alignment.fact.ids[slot]
                )
                trials.append((scenario, slot, decision.value, statistic))
    return trials


def reference_calibration(alignments, indices, encoder, grid_size):
    """Thresholds and ranges from support statistics over the row-subset
    variants, each labelled out-of-KG when its gold id is not in the variant."""
    samples = [[], [], []]
    for variant in subset_variants(alignments, indices).values():
        for alignment in alignments:
            queries = encoder.slot_embed(alignment.oie)
            for slot, gold_id in enumerate(alignment.fact.ids):
                index = variant[slot == 1]
                sims = [score for _, score in topk(index, queries[slot][None], TOP_SUPPORT)[0]]
                top1, h = 0.0, math.log(TOP_SUPPORT)
                if sims:
                    probs = topk_softmax(sims)
                    top1, h = probs.max(), entropy(probs)
                samples[slot].append((top1, h, gold_id not in index))
    confidence, entropies, ranges = [], [], {}
    for slot, slot_samples in enumerate(samples):
        top1, h, is_out = (np.array(column) for column in zip(*slot_samples))
        confidence.append(calibrate_threshold(top1, is_out, "below", grid_size))
        entropies.append(
            min(calibrate_threshold(h, is_out, "above", grid_size), math.log(TOP_SUPPORT))
        )
        ranges[f"confidence[{slot}]"] = [top1.min(), top1.max()]
        ranges[f"entropy[{slot}]"] = [h.min(), h.max()]
    return np.clip(confidence, 1e-9, 1 - 1e-9), entropies, ranges


class TestRankedScenarios:
    """One score row per query, masked for the removed scenario, decides
    and calibrates as the row-subset copies did."""

    @pytest.fixture(scope="class", params=["partial", "all-gold"])
    def world(self, request, calibration_setup):
        store, alignments, encoder = calibration_setup
        batch = alignments[:8]
        if request.param == "all-gold":  # every row is gold: the removed variants are empty
            store = restrict_to_benchmark(store, batch)
        indices = build_store_indices(encoder, store)
        removed = subset_variants(batch, indices)["removed"]
        assert (len(removed[0]) == 0) == (request.param == "all-gold")
        return batch, indices, encoder

    @pytest.mark.parametrize("make", [
        lambda dim: ConfidenceDetector(),
        lambda dim: EntropyDetector(),
        lambda dim: QkvDetector(QkvParams.identity(dim), OokgThresholds(attention=0.6), 6),
        lambda dim: RandomDetector(seed=3),
        lambda dim: ConstantDetector(Decision.IN_KG),
    ], ids=["confidence", "entropy", "qkv", "random", "always-in"])
    def test_decisions_match_the_row_subset_protocol(self, world, make):
        batch, indices, encoder = world
        report = ookg_evaluate(make(encoder.dim), batch, indices, encoder, collect_records=True)
        expected = reference_decisions(make(encoder.dim), batch, indices, encoder)
        got = [(r["scenario"], ("subject", "relation", "object").index(r["slot"]),
                r["decision"], r["statistic"]) for r in report.records]
        assert [trial[:3] for trial in got] == [trial[:3] for trial in expected]
        np.testing.assert_allclose([trial[3] for trial in got],
                                   [trial[3] for trial in expected], rtol=0, atol=1e-6)

    def test_calibration_matches_the_row_subset_protocol(self, world):
        batch, indices, encoder = world
        thresholds, meta = calibrate_all_thresholds(batch, indices, encoder, grid_size=50)
        confidence, entropies, ranges = reference_calibration(batch, indices, encoder, 50)
        np.testing.assert_allclose(thresholds.confidence, confidence, rtol=0, atol=1e-6)
        np.testing.assert_allclose(thresholds.entropy, entropies, rtol=0, atol=1e-6)
        assert set(meta["statistic_ranges"]) == set(ranges)
        for key, bounds in ranges.items():
            np.testing.assert_allclose(meta["statistic_ranges"][key], bounds, rtol=0, atol=1e-6)
