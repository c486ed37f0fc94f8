"""Partition aligned test data into the four evaluation facets:
transductive, inductive, polysemous and out-of-KG."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .corpus import Alignment
from .kg import KgStore, lookup_surface


class SplitKind(enum.Enum):
    TRANSDUCTIVE = "transductive"
    INDUCTIVE = "inductive"
    POLYSEMOUS = "polysemous"
    OUT_OF_KG = "out-of-kg"


class InductiveMode(enum.Enum):
    ANY_ENTITY_UNSEEN = "any-entity-unseen"
    ALL_ENTITIES_UNSEEN = "all-entities-unseen"


@dataclass(frozen=True)
class SplitSpec:
    kind: SplitKind
    inductive_mode: InductiveMode = InductiveMode.ANY_ENTITY_UNSEEN


@dataclass(frozen=True)
class SplitStats:
    samples: int
    unique_entities: int
    unique_predicates: int
    unique_facts: int

    def to_record(self) -> dict:
        return {
            "# Total Samples": self.samples,
            "# Unique Entities": self.unique_entities,
            "# Unique Predicates": self.unique_predicates,
            "# Unique Facts": self.unique_facts,
        }


@dataclass(frozen=True)
class SplitResult:
    kind: SplitKind
    alignments: tuple[Alignment, ...]
    stats: SplitStats


def compute_stats(alignments: Sequence[Alignment]) -> SplitStats:
    entities, predicates, facts = _seen_sets(alignments)
    return SplitStats(
        samples=len(alignments),
        unique_entities=len(entities),
        unique_predicates=len(predicates),
        unique_facts=len(facts),
    )


def _result(kind: SplitKind, alignments: Sequence[Alignment]) -> SplitResult:
    kept = tuple(alignments)
    return SplitResult(kind=kind, alignments=kept, stats=compute_stats(kept))


def _seen_sets(train: Sequence[Alignment]) -> tuple[set[str], set[str], set[tuple[str, str, str]]]:
    entities: set[str] = set()
    predicates: set[str] = set()
    facts: set[tuple[str, str, str]] = set()
    for alignment in train:
        fact = alignment.fact
        entities.add(fact.subject_id)
        entities.add(fact.object_id)
        predicates.add(fact.predicate_id)
        facts.add(fact.ids)
    return entities, predicates, facts


def transductive_split(
    test: Sequence[Alignment], train: Sequence[Alignment]
) -> SplitResult:
    """Test alignments whose fact components were all seen in training
    facts but whose whole triple was not."""
    seen_entities, seen_predicates, seen_facts = _seen_sets(train)
    kept = [
        a
        for a in test
        if a.fact.subject_id in seen_entities
        and a.fact.object_id in seen_entities
        and a.fact.predicate_id in seen_predicates
        and a.fact.ids not in seen_facts
    ]
    return _result(SplitKind.TRANSDUCTIVE, kept)


def inductive_split(
    test: Sequence[Alignment],
    train: Sequence[Alignment],
    mode: InductiveMode = InductiveMode.ANY_ENTITY_UNSEEN,
) -> SplitResult:
    """Test alignments whose fact contains entities unseen in any training
    fact; predicate seen-ness is not constrained."""
    seen_entities, _, _ = _seen_sets(train)
    if mode is InductiveMode.ANY_ENTITY_UNSEEN:
        kept = [
            a
            for a in test
            if a.fact.subject_id not in seen_entities
            or a.fact.object_id not in seen_entities
        ]
    else:
        kept = [
            a
            for a in test
            if a.fact.subject_id not in seen_entities
            and a.fact.object_id not in seen_entities
        ]
    return _result(SplitKind.INDUCTIVE, kept)


def polysemous_split(test: Sequence[Alignment], store: KgStore) -> SplitResult:
    """Test alignments whose OIE subject or object surface resolves to two
    or more entities of the evaluation-time store."""
    kept = [
        a
        for a in test
        if len(lookup_surface(store, a.oie.subject)) >= 2
        or len(lookup_surface(store, a.oie.object)) >= 2
    ]
    return _result(SplitKind.POLYSEMOUS, kept)


def ookg_split(test: Sequence[Alignment], train: Sequence[Alignment]) -> SplitResult:
    """Test alignments whose subject entity, object entity and predicate
    are all absent from training facts."""
    seen_entities, seen_predicates, _ = _seen_sets(train)
    kept = [
        a
        for a in test
        if a.fact.subject_id not in seen_entities
        and a.fact.object_id not in seen_entities
        and a.fact.predicate_id not in seen_predicates
    ]
    return _result(SplitKind.OUT_OF_KG, kept)


def build_split(
    spec: SplitSpec,
    test: Sequence[Alignment],
    train: Sequence[Alignment],
    store: KgStore,
) -> SplitResult:
    if spec.kind is SplitKind.TRANSDUCTIVE:
        return transductive_split(test, train)
    if spec.kind is SplitKind.INDUCTIVE:
        return inductive_split(test, train, spec.inductive_mode)
    if spec.kind is SplitKind.POLYSEMOUS:
        return polysemous_split(test, store)
    return ookg_split(test, train)
