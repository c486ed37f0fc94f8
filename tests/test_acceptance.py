"""Acceptance suite: every criterion prints one pass/fail line.

The directional criteria train on the deterministic 200-entity toy world
(three seeds, 30 epochs each) and compare pooled accuracies with a margin
of one combined standard error.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from conftest import entity, make_alignment, predicate
from factlink.cli import main as cli_main
from factlink.encoder import EncoderConfig, ReferenceEncoder, init_params
from factlink.evalkit import evaluate_linker, frequency_baseline, random_baseline, sem
from factlink.kg import KgFact, build_store
from factlink.ookg import (
    ConstantDetector,
    Decision,
    EntropyDetector,
    RandomDetector,
    entropy,
    ookg_evaluate,
)
from factlink.preranker import (
    IndexKind,
    PrerankTrainConfig,
    build_index,
    build_store_indices,
    link,
    load_index,
    save_index,
    topk,
    train_preranker,
    _rowwise_infonce,
)
from factlink.reranker import (
    RerankTrainConfig,
    SlotLinkResult,
    bce_grad,
    bce_loss,
    enumerate_candidates,
    init_cross_params,
    rerank,
    store_neighbor_lists,
    train_reranker,
)
from factlink.corpus import augment_aliases, remove_leakage
from factlink.splits import InductiveMode, SplitKind, SplitSpec, build_split
from test_splits import fifty_fact_world
from toyworld import build_toy_world, write_input_files


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Numeric oracles


class TestCriterion1NumericOracles:
    def test_numeric_oracles(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20)
        step = 1e-6
        worst = 0.0
        for case in range(20):
            # one row, then pools of up to 4 rows: the trainer's batched
            # form, with positives anywhere in the pool
            rows, cols = 1 + case % 4, int(rng.integers(1, 9))
            sims = rng.uniform(-1, 1, size=(rows, cols))
            positives = rng.integers(cols, size=rows)
            tau = float(rng.uniform(0.03, 1.5))
            d_sims, _, d_tau = _rowwise_infonce(sims, positives, tau)

            def loss(s, t=tau):
                return _rowwise_infonce(s, positives, t)[1]

            pairs = [(d_tau, loss(sims, tau + step), loss(sims, tau - step))]
            for cell in np.ndindex(sims.shape):
                bump = np.zeros_like(sims)
                bump[cell] = step
                pairs.append((d_sims[cell], loss(sims + bump), loss(sims - bump)))
            for analytic, plus, minus in pairs:
                fd = (plus - minus) / (2 * step)
                worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-9))
        for _ in range(20):
            logit = float(rng.uniform(-4, 4))
            label = float(rng.integers(0, 2))
            fd = (bce_loss(logit + step, label) - bce_loss(logit - step, label)) / (2 * step)
            worst = max(worst, abs(bce_grad(logit, label) - fd) / max(abs(fd), 1e-9))
        check("criterion 1a", worst < 1e-4,
              f"InfoNCE and BCE gradients vs central differences, worst rel err {worst:.2e}")

        entropy_error = abs(entropy([0.2] * 5) - math.log(5))
        check("criterion 1b", entropy_error < 1e-9,
              f"entropy(uniform_5) vs ln 5, |err| = {entropy_error:.2e}")

        zero_scorer = init_cross_params(dim=8)
        world = build_store(
            [entity("Q1", "Alpha", "first"), entity("Q2", "Beta", "second"),
             predicate("P1", "rel")]
        )
        encoder = ReferenceEncoder(init_params(EncoderConfig(dim=8, hidden=4, buckets=256), 0))
        indices = build_store_indices(encoder, world)
        oie = make_alignment("Alpha", "rel", "Beta", KgFact("Q1", "P1", "Q2")).oie
        candidates = enumerate_candidates(link(encoder, *indices, [oie], k=2)[0])
        _, scores = rerank(zero_scorer, encoder, indices, oie, candidates)
        check("criterion 1c", set(scores) == {0.5},
              f"zero cross scorer's rerank scores {len(scores)} candidates exactly {set(scores)}")

        elapsed = time.perf_counter() - start
        check("criterion 1 runtime", elapsed < 1.0, f"{elapsed:.3f}s < 1s")


# ---------------------------------------------------------------------------
# 2. Retrieval exactness


class TestCriterion2RetrievalExactness:
    def test_retrieval_exactness(self, tmp_path):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        mismatches = 0
        for trial in range(100):
            n, dim = 1000, 16
            ids = [f"Q{i:04d}" for i in range(n)]
            rng.shuffle(ids)
            index = build_index(
                list(zip(ids, rng.standard_normal((n, dim)))), IndexKind.ENTITIES
            )
            query = rng.standard_normal(dim)
            query /= np.linalg.norm(query)
            scores = index.matrix @ query.astype(np.float32)
            oracle = sorted(zip(index.ids, scores.tolist()), key=lambda p: (-p[1], p[0]))
            for k in (1, 5, 50):
                if topk(index, query[None], k)[0] != oracle[:k]:
                    mismatches += 1
        check("criterion 2a", mismatches == 0,
              f"topk vs brute-force argsort oracle, {mismatches} mismatches in 300 queries")

        index = build_index(
            [(f"Q{i}", rng.standard_normal(24)) for i in range(64)], IndexKind.PREDICATES
        )
        path_a, path_b = tmp_path / "a.flix", tmp_path / "b.flix"
        save_index(index, path_a)
        save_index(load_index(path_a, IndexKind.PREDICATES), path_b)
        check("criterion 2b", path_a.read_bytes() == path_b.read_bytes(),
              "index file round-trips bit-exactly")

        elapsed = time.perf_counter() - start
        check("criterion 2 runtime", elapsed < 10.0, f"{elapsed:.2f}s < 10s")


# ---------------------------------------------------------------------------
# 3. Pipeline counts


class TestCriterion3PipelineCounts:
    def test_pipeline_counts(self):
        entries = [
            entity("Q1", "Alpha", aliases=("A1", "A2", "A3")),
            entity("Q2", "Beta", aliases=("B1", "B2")),
            predicate("P1", "rel"),
        ]
        fact = KgFact("Q1", "P1", "Q2")
        store = build_store(entries)
        original = make_alignment("Alpha", "rel", "Beta", fact)
        augmented = [a for a in augment_aliases([original], store) if a.augmented]
        expected = (1 + 3) * (1 + 2) - 1
        check("criterion 3a", len(augmented) == expected,
              f"alias augmentation yields {len(augmented)} == (1+3)(1+2)-1 = {expected}")

        def result_for(k):
            pairs = tuple((f"E{i}", 1.0 - i / 10) for i in range(k))
            return SlotLinkResult(subject=pairs, relation=pairs, object=pairs)

        n2 = len(enumerate_candidates(result_for(2)))
        n3 = len(enumerate_candidates(result_for(3)))
        check("criterion 3b", (n2, n3) == (8, 27),
              f"candidate enumeration yields {n2} at k=2 and {n3} at k=3")

        train = [
            make_alignment(f"S{i % 3}", "r", f"O{i % 2}", fact) for i in range(10)
        ]
        test = train[::3]
        cleaned = remove_leakage(train, test)
        overlap = {(a.oie.slots, a.fact.ids) for a in cleaned} & {
            (a.oie.slots, a.fact.ids) for a in test
        }
        check("criterion 3c", not overlap,
              f"remove_leakage leaves train ∩ test = {len(overlap)} pairs")


# ---------------------------------------------------------------------------
# 4. Split semantics


class TestCriterion4SplitSemantics:
    def test_split_semantics(self):
        store, train, test = fifty_fact_world()
        trans, ind_any, poly, ookg = (
            build_split(SplitSpec(kind), test, train, store) for kind in SplitKind
        )
        ind_all = build_split(
            SplitSpec(SplitKind.INDUCTIVE, InductiveMode.ALL_ENTITIES_UNSEEN), test, train, store
        )

        disjoint = set(trans.alignments).isdisjoint(ind_any.alignments)
        check("criterion 4a", disjoint, "transductive ∩ inductive(any) = ∅")

        subset = set(ookg.alignments) <= set(ind_all.alignments)
        check("criterion 4b", subset, "out-of-KG ⊆ inductive(all)")

        ok = True
        for result in (trans, ind_any, ind_all, ookg, poly):
            entities, predicates, facts = set(), set(), set()
            for a in result.alignments:
                entities |= {a.fact.subject_id, a.fact.object_id}
                predicates.add(a.fact.predicate_id)
                facts.add(a.fact.ids)
            ok &= result.stats.samples == len(result.alignments)
            ok &= result.stats.unique_entities == len(entities)
            ok &= result.stats.unique_predicates == len(predicates)
            ok &= result.stats.unique_facts == len(facts)
        check("criterion 4c", ok, "stats sidecars match independent recounts")


# ---------------------------------------------------------------------------
# 5-7. Toy-world training: directional reproduction, baselines, detection


SEEDS = (0, 1, 2)


def _seed_run(seed):
    start = time.perf_counter()
    world = build_toy_world(seed=seed)
    splits = {
        name: build_split(SplitSpec(kind), world.test, world.train, world.brkg).alignments
        for name, kind in zip(("trans", "ind", "poly", "ookg"), SplitKind)
    }
    base = dict(epochs=30, learning_rate=0.5, batch_size=64, seed=seed,
                temperature_init=0.12, temperature_min=0.12)
    plain_params, _ = train_preranker(world.train, world.store, PrerankTrainConfig(**base))
    ctx_params, _ = train_preranker(
        world.train, world.store, PrerankTrainConfig(**base), with_context=True
    )
    plain = ReferenceEncoder(plain_params)
    ctx = ReferenceEncoder(ctx_params)
    rerank_config = RerankTrainConfig(epochs=10, learning_rate=0.5, seed=seed)
    ctx_indices = build_store_indices(ctx, world.store)
    scorer, _ = train_reranker(
        world.train, ctx, ctx_indices, rerank_config,
        store_neighbor_lists(ctx_indices, rerank_config.hard_negative_pool),
        build_store_indices(ctx, world.store, mask_description=True), with_context=True,
    )

    def linker(encoder, store, with_context=False, rerank_k=None):
        indices = entity_index, predicate_index = build_store_indices(encoder, store)

        def fn(triple):
            if rerank_k:
                (result,) = link(encoder, entity_index, predicate_index, [triple],
                                 rerank_k, with_context)
                best, _ = rerank(scorer, encoder, indices, triple,
                                 enumerate_candidates(result), with_context)
                return best.to_fact()
            return link(encoder, entity_index, predicate_index, [triple],
                        1, with_context)[0].linked_fact

        return fn

    run = {
        "trans_brkg": evaluate_linker(linker(plain, world.brkg), splits["trans"]),
        "ind_brkg": evaluate_linker(linker(plain, world.brkg), splits["ind"]),
        "ind_large": evaluate_linker(linker(plain, world.store), splits["ind"]),
        "poly_plain": evaluate_linker(linker(plain, world.brkg), splits["poly"]),
        "poly_ctx": evaluate_linker(linker(ctx, world.brkg, with_context=True), splits["poly"]),
        "poly_stack": evaluate_linker(
            linker(ctx, world.brkg, with_context=True, rerank_k=3), splits["poly"]
        ),
        "freq": evaluate_linker(frequency_baseline(world.train), splits["trans"]),
        "rand": evaluate_linker(
            random_baseline(world.store, seed=seed + 100), splits["trans"]
        ),
    }
    modal = max(
        {a.fact.predicate_id for a in world.train},
        key=lambda p: sum(a.fact.predicate_id == p for a in world.train),
    )
    run["modal_test_freq"] = float(
        np.mean([a.fact.predicate_id == modal for a in splits["trans"]])
    )
    run["n_entities"] = len(world.store.entity_ids())
    store_indices = build_store_indices(plain, world.store)
    run["entropy"] = ookg_evaluate(EntropyDetector(), splits["ookg"], store_indices, plain)
    run["always_in"] = ookg_evaluate(
        ConstantDetector(Decision.IN_KG), splits["ookg"], store_indices, plain
    )
    run["coin"] = ookg_evaluate(
        RandomDetector(seed=seed + 7), (splits["trans"] * 3)[:1000], store_indices, plain
    )
    run["elapsed"] = time.perf_counter() - start
    return run


@pytest.fixture(scope="module")
def toy_runs():
    return [_seed_run(seed) for seed in SEEDS]


def pooled(runs, key, metric="fact"):
    hits = sum(r[key].accuracy[metric] * r[key].n for r in runs)
    n = sum(r[key].n for r in runs)
    p = hits / n
    return p, sem(p, n)


class TestCriterion5DirectionalReproduction:
    def test_runtime_budget(self, toy_runs):
        slowest = max(r["elapsed"] for r in toy_runs)
        check("criterion 5 runtime", slowest < 300.0,
              f"slowest seed block {slowest:.0f}s < 300s on one core")

    def test_transductive_floor(self, toy_runs):
        p, p_sem = pooled(toy_runs, "trans_brkg")
        check("criterion 5a", p - p_sem > 0.80,
              f"transductive fact accuracy {p:.3f} ± {p_sem:.3f} ≥ 0.80 with margin")

    def test_transductive_above_inductive(self, toy_runs):
        p_trans, sem_trans = pooled(toy_runs, "trans_brkg")
        p_ind, sem_ind = pooled(toy_runs, "ind_brkg")
        margin = p_trans - p_ind
        combined = math.hypot(sem_trans, sem_ind)
        check("criterion 5b", margin > combined,
              f"transductive {p_trans:.3f} > inductive {p_ind:.3f} (margin {margin:.3f} > {combined:.3f})")

    def test_context_helps_polysemous(self, toy_runs):
        p_ctx, sem_ctx = pooled(toy_runs, "poly_ctx")
        p_plain, sem_plain = pooled(toy_runs, "poly_plain")
        margin = p_ctx - p_plain
        combined = math.hypot(sem_ctx, sem_plain)
        check("criterion 5c", margin > combined,
              f"with-context {p_ctx:.3f} ≥ no-context {p_plain:.3f} (margin {margin:.3f} > {combined:.3f})")

    def test_reranked_stack_beats_preranker(self, toy_runs):
        p_stack, sem_stack = pooled(toy_runs, "poly_stack")
        p_plain, sem_plain = pooled(toy_runs, "poly_plain")
        margin = p_stack - p_plain
        combined = math.hypot(sem_stack, sem_plain)
        check("criterion 5d", margin > combined,
              f"pre-rank+re-rank {p_stack:.3f} ≥ pre-rank {p_plain:.3f} (margin {margin:.3f} > {combined:.3f})")

    def test_large_store_harder(self, toy_runs):
        p_brkg, sem_brkg = pooled(toy_runs, "ind_brkg")
        p_large, sem_large = pooled(toy_runs, "ind_large")
        margin = p_brkg - p_large
        combined = math.hypot(sem_brkg, sem_large)
        check("criterion 5e", margin > combined,
              f"Large {p_large:.3f} ≤ BRKG {p_brkg:.3f} (margin {margin:.3f} > {combined:.3f})")


class TestCriterion6Baselines:
    def test_random_linker_near_zero(self, toy_runs):
        ok = True
        details = []
        for run in toy_runs:
            expected = 1.0 / run["n_entities"]
            for metric in ("subject", "object"):
                accuracy = run["rand"].accuracy[metric]
                bound = 3 * sem(expected, run["rand"].n) + 1e-9
                ok &= abs(accuracy - expected) <= bound
                details.append(f"{metric}={accuracy:.4f}")
        check("criterion 6a", ok,
              f"random linker within 3σ of 1/|E|=0.005 ({', '.join(details[:2])}, ...)")

    def test_frequency_linker_tracks_modal_frequency(self, toy_runs):
        ok = True
        details = []
        for run in toy_runs:
            accuracy = run["freq"].accuracy["relation"]
            ok &= abs(accuracy - run["modal_test_freq"]) <= 0.02
            details.append(f"{accuracy:.3f} vs {run['modal_test_freq']:.3f}")
        check("criterion 6b", ok,
              f"frequency linker relation accuracy within 2 points of modal test frequency ({details[0]})")


class TestCriterion7OutOfKgProtocol:
    def test_fair_coin_near_eighth(self, toy_runs):
        trials = sum(2 * r["coin"].trials_per_scenario for r in toy_runs)
        accuracy = float(np.mean([r["coin"].fact_accuracy for r in toy_runs]))
        ok = trials >= 2000 and abs(accuracy - 0.125) <= 0.02
        check("criterion 7a", ok,
              f"fair coin fact accuracy {accuracy:.4f} = 12.5% ± 2% over {trials} paired trials")

    def test_always_in_kg_exactly_half(self, toy_runs):
        ok = all(r["always_in"].slot_accuracy == (0.5, 0.5, 0.5) for r in toy_runs)
        check("criterion 7b", ok, "always-in-KG detector slot accuracy exactly 0.5")

    def test_entropy_detector_beats_coin_on_entities(self, toy_runs):
        subject = float(np.mean([r["entropy"].slot_accuracy[0] for r in toy_runs]))
        obj = float(np.mean([r["entropy"].slot_accuracy[2] for r in toy_runs]))
        relation = float(np.mean([r["entropy"].slot_accuracy[1] for r in toy_runs]))
        ok = subject >= 0.55 and obj >= 0.55
        check("criterion 7c", ok,
              f"entropy detector entity slots {subject:.3f}/{obj:.3f} ≥ 0.55 "
              f"(relation {relation:.3f} near 0.5 is expected and acceptable)")


# ---------------------------------------------------------------------------
# 8. CLI determinism


class TestCriterion8CliDeterminism:
    def test_cli_rerun_identical_hashes(self, tmp_path):
        world = build_toy_world(seed=11)
        write_input_files(world, tmp_path)
        config = {
            "kg_entries": str(tmp_path / "kg_entries.jsonl"),
            "kg_facts": str(tmp_path / "kg_facts.jsonl"),
            "train_oie": str(tmp_path / "train_oie.jsonl"),
            "train_pairs": str(tmp_path / "train_pairs.jsonl"),
            "test_oie": str(tmp_path / "test_oie.jsonl"),
            "test_pairs": str(tmp_path / "test_pairs.jsonl"),
            "link_oie": str(tmp_path / "test_oie.jsonl"),
            "out_dir": str(tmp_path / "out"),
            "seed": 3,
            "encoder": {"dim": 32, "hidden": 16, "buckets": 4096},
            "preranker": {"epochs": 1, "learning_rate": 0.3, "batch_size": 32,
                          "global_neg_entities": 8, "global_neg_predicates": 4},
            "reranker": {"epochs": 1, "learning_rate": 0.3, "negatives_per_positive": 2},
            "ookg": {"epochs": 1, "learning_rate": 0.05, "subset_size": 8},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        stages = (
            ["build-benchmark"], ["train-preranker"], ["train-reranker"],
            ["train-ookg"], ["index"], ["link"],
            ["evaluate", "--facet", "transductive"],
            ["evaluate", "--facet", "polysemous", "--use-reranker", "--rerank-k", "2"],
            ["detect", "--detector", "entropy"],
        )
        digests = []
        for _ in range(2):
            for argv in stages:
                assert cli_main(["--config", str(config_path), *argv]) == 0
            out = tmp_path / "out"
            digests.append(
                {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.iterdir()) if p.is_file()}
            )
        check("criterion 8", digests[0] == digests[1],
              f"all {len(digests[0])} artifact hashes identical across reruns")
