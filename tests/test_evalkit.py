import numpy as np
import pytest

from conftest import entity, make_alignment, predicate
from factlink.errors import DataError
from factlink.evalkit import (
    EvalReport,
    METRICS,
    evaluate_linker,
    format_table,
    frequency_baseline,
    random_baseline,
    report_records,
    score_linking,
    sem,
)
from factlink.kg import KgFact, build_store


def fact(s, p, o):
    return KgFact(s, p, o)


class TestScoreLinking:
    def test_all_correct(self):
        gold = [fact("Q1", "P1", "Q2"), fact("Q3", "P2", "Q4")]
        report = score_linking(list(gold), gold)
        assert report.accuracy == {m: 1.0 for m in METRICS}
        assert report.sem == {m: 0.0 for m in METRICS}

    def test_wrong_subject_counts_other_slots(self):
        gold = [fact("Q1", "P1", "Q2")]
        predicted = [fact("Q9", "P1", "Q2")]
        report = score_linking(predicted, gold)
        assert report.accuracy["subject"] == 0.0
        assert report.accuracy["relation"] == 1.0
        assert report.accuracy["object"] == 1.0
        assert report.accuracy["fact"] == 0.0

    def test_sem_closed_form(self):
        assert sem(0.5, 100) == pytest.approx(0.05, abs=1e-12)

    def test_sem_zero_iff_degenerate(self):
        assert sem(0.0, 10) == 0.0
        assert sem(1.0, 10) == 0.0
        assert sem(0.3, 10) > 0.0

    def test_fact_accuracy_bounded_by_slot_accuracies(self):
        rng = np.random.default_rng(0)
        ids = [f"Q{i}" for i in range(4)]
        preds = [f"P{i}" for i in range(3)]
        for _ in range(20):
            n = int(rng.integers(1, 30))
            gold = [
                fact(ids[rng.integers(4)], preds[rng.integers(3)], ids[rng.integers(4)])
                for _ in range(n)
            ]
            predicted = [
                fact(ids[rng.integers(4)], preds[rng.integers(3)], ids[rng.integers(4)])
                for _ in range(n)
            ]
            report = score_linking(predicted, gold)
            assert report.accuracy["fact"] <= min(
                report.accuracy[m] for m in ("subject", "relation", "object")
            )

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="^nothing to score$"):
            score_linking([], [])


class TestEmitReport:
    def make_report(self):
        return EvalReport(
            split="transductive", store="BRKG", n=200,
            accuracy={"subject": 0.868, "relation": 0.935, "object": 0.957, "fact": 0.791},
            sem={"subject": 0.001, "relation": 0.001, "object": 0.0, "fact": 0.001},
        )

    def test_table_header_order(self):
        table = format_table(self.make_report())
        assert "Subject  Relation  Object  Fact" in table
        assert "86.8" in table and "79.1" in table

    def test_empty_report_rejected(self):
        with pytest.raises(DataError, match="^empty report$"):
            EvalReport(
                split="", store="", n=0,
                accuracy={m: 0.0 for m in METRICS}, sem={m: 0.0 for m in METRICS},
            )

    def test_record_schema(self):
        records = report_records(self.make_report())
        assert [r["metric"] for r in records] == list(METRICS)
        assert all(
            set(r) == {"split", "store", "metric", "value", "sem", "n"} for r in records
        )


def baseline_world(predicate_counts, n_entities=40, seed=0):
    """Training alignments whose predicate frequencies follow the given
    counts; subjects/objects drawn uniformly from a larger inventory."""
    rng = np.random.default_rng(seed)
    entries = [entity(f"Q{i}", f"entity number {i}") for i in range(n_entities)]
    entries += [predicate(f"P{j}", f"predicate {j}") for j in range(len(predicate_counts))]
    alignments = []
    for j, count in enumerate(predicate_counts):
        for _ in range(count):
            s, o = rng.choice(n_entities, size=2, replace=False)
            alignments.append(
                make_alignment(
                    f"surface {s}", "rel", f"surface {o}", fact(f"Q{s}", f"P{j}", f"Q{o}")
                )
            )
    store = build_store(entries)
    return store, alignments


class TestFrequencyBaseline:
    def test_relation_accuracy_tracks_modal_test_frequency(self):
        # modal predicate covers 8/15 = 53.3% of both train and test
        store, train = baseline_world([8, 4, 3], seed=1)
        _, test = baseline_world([8, 4, 3], seed=2)
        linker = frequency_baseline(train)
        report = evaluate_linker(linker, test)
        assert report.accuracy["relation"] == pytest.approx(8 / 15, abs=1e-12)

    def test_uniform_predicates_near_one_over_m(self):
        m = 5
        store, train = baseline_world([20] * m, seed=3)
        _, test = baseline_world([20] * m, seed=4)
        linker = frequency_baseline(train)
        report = evaluate_linker(linker, test)
        assert report.accuracy["relation"] == pytest.approx(1 / m, abs=1e-12)

    def test_subject_accuracy_near_zero_for_large_inventory(self):
        store, train = baseline_world([30], n_entities=60, seed=5)
        _, test = baseline_world([30], n_entities=60, seed=6)
        report = evaluate_linker(frequency_baseline(train), test)
        assert report.accuracy["subject"] <= 0.1

    def test_tie_breaks_to_smallest_id(self):
        train = [
            make_alignment("a", "r", "b", fact("Q2", "P2", "Q2")),
            make_alignment("a", "r", "b", fact("Q1", "P1", "Q1")),
        ]
        linked = frequency_baseline(train)(train[0].oie)
        assert linked == fact("Q1", "P1", "Q1")


class TestRandomBaseline:
    def test_single_entry_store_always_correct(self):
        entries = [entity("Q1", "only entity"), predicate("P1", "only predicate")]
        store = build_store(entries)
        test = [make_alignment("only entity", "only predicate", "only entity", fact("Q1", "P1", "Q1"))]
        report = evaluate_linker(random_baseline(store, seed=0), test)
        assert report.accuracy == {m: 1.0 for m in METRICS}

    def test_subject_accuracy_matches_inverse_inventory(self):
        store, test = baseline_world([40], n_entities=20, seed=7)
        report = evaluate_linker(random_baseline(store, seed=8), test * 50)
        expected = 1 / 20
        n = report.n
        assert abs(report.accuracy["subject"] - expected) <= 3 * sem(expected, n) + 1e-9

    def test_deterministic_given_seed(self):
        store, test = baseline_world([10], seed=9)
        a = evaluate_linker(random_baseline(store, seed=1), test)
        b = evaluate_linker(random_baseline(store, seed=1), test)
        assert a == b
