"""Linking metrics, the frequency/random baselines and report rendering.

A fact scores a hit only when all three of its slots are linked correctly;
binary hit rates carry the closed-form standard error of the mean.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import Alignment, OieTriple
from .errors import DataError
from .kg import KgFact, KgStore

METRICS = ("subject", "relation", "object", "fact")

Linker = Callable[[OieTriple], KgFact]


def sem(p: float, n: int) -> float:
    """Standard error of the mean of a binary hit rate."""
    return math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class EvalReport:
    split: str
    store: str
    n: int
    accuracy: Mapping[str, float]
    sem: Mapping[str, float]

    def __post_init__(self):
        if self.n == 0:
            raise DataError("empty report")
        missing = set(METRICS) - set(self.accuracy)
        if missing:
            raise ValueError(f"report missing metrics {sorted(missing)}")


def score_linking(
    predictions: Sequence[KgFact],
    gold: Sequence[KgFact],
    split: str = "",
    store: str = "",
) -> EvalReport:
    """Per-slot accuracy plus whole-fact accuracy with standard errors."""
    if len(predictions) != len(gold):
        raise DataError("predictions and gold must have equal length")
    n = len(gold)
    if n == 0:
        raise DataError("nothing to score")
    hits = Counter()
    for predicted, actual in zip(predictions, gold):
        subject_ok = predicted.subject_id == actual.subject_id
        relation_ok = predicted.predicate_id == actual.predicate_id
        object_ok = predicted.object_id == actual.object_id
        hits["subject"] += subject_ok
        hits["relation"] += relation_ok
        hits["object"] += object_ok
        hits["fact"] += subject_ok and relation_ok and object_ok
    accuracy = {metric: hits[metric] / n for metric in METRICS}
    return EvalReport(
        split=split,
        store=store,
        n=n,
        accuracy=accuracy,
        sem={metric: sem(accuracy[metric], n) for metric in METRICS},
    )


def evaluate_linker(
    linker: Linker,
    alignments: Sequence[Alignment],
    split: str = "",
    store: str = "",
) -> EvalReport:
    """Link every alignment's OIE and score against its gold fact."""
    predictions = [linker(a.oie) for a in alignments]
    return score_linking(predictions, [a.fact for a in alignments], split, store)


# ---------------------------------------------------------------------------
# Baselines


def frequency_baseline(train: Sequence[Alignment]) -> Linker:
    """Constant linker: the most frequent training subject entity, predicate
    and object entity (ties broken by smallest id)."""
    if not train:
        raise DataError("frequency baseline needs training alignments")

    def modal(counts: Counter) -> str:
        return min(counts, key=lambda eid: (-counts[eid], eid))

    fact = KgFact(
        subject_id=modal(Counter(a.fact.subject_id for a in train)),
        predicate_id=modal(Counter(a.fact.predicate_id for a in train)),
        object_id=modal(Counter(a.fact.object_id for a in train)),
    )

    def link(_triple: OieTriple) -> KgFact:
        return fact

    return link


def random_baseline(store: KgStore, seed: int = 0) -> Linker:
    """Per-call uniform sample of one entity, one predicate, one entity."""
    entity_ids = store.entity_ids()
    predicate_ids = store.predicate_ids()
    if not entity_ids or not predicate_ids:
        raise DataError("random baseline needs entities and predicates")
    rng = np.random.default_rng(seed)

    def link(_triple: OieTriple) -> KgFact:
        return KgFact(
            subject_id=entity_ids[rng.integers(len(entity_ids))],
            predicate_id=predicate_ids[rng.integers(len(predicate_ids))],
            object_id=entity_ids[rng.integers(len(entity_ids))],
        )

    return link


# ---------------------------------------------------------------------------
# Reports


def report_records(report: EvalReport) -> list[dict]:
    """Full-precision one-record-per-metric form."""
    return [
        {
            "split": report.split,
            "store": report.store,
            "metric": metric,
            "value": report.accuracy[metric],
            "sem": report.sem[metric],
            "n": report.n,
        }
        for metric in METRICS
    ]


def format_table(report: EvalReport) -> str:
    """Fixed-column table: accuracies as percentages at one decimal."""
    header = "Subject  Relation  Object  Fact"
    cells = [
        f"{100 * report.accuracy[m]:.1f} ±{100 * report.sem[m]:.1f}" for m in METRICS
    ]
    context = f"split={report.split or '-'} store={report.store or '-'} n={report.n}"
    return "\n".join([context, header, "  ".join(cells)])
