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


def build_split(
    spec: SplitSpec,
    test: Sequence[Alignment],
    train: Sequence[Alignment],
    store: KgStore,
) -> SplitResult:
    """The test alignments, in test order, that meet the rule of
    ``spec.kind``, where seen means in some training fact:

    - transductive: both entities and the predicate seen, the triple not;
    - inductive: at least one entity unseen (any-entity-unseen) or both
      (all-entities-unseen), whatever the predicate;
    - polysemous: the OIE subject or object surface names two or more
      entities of ``store``;
    - out-of-KG: both entities and the predicate unseen.
    """
    entities, predicates, facts = _seen_sets(train)
    least = 2 if spec.inductive_mode is InductiveMode.ALL_ENTITIES_UNSEEN else 1

    def unseen_entities(a: Alignment) -> int:
        return (a.fact.subject_id not in entities) + (a.fact.object_id not in entities)

    def polysemous(surface: str) -> bool:
        return len(lookup_surface(store, surface)) >= 2

    rules = {
        SplitKind.TRANSDUCTIVE: lambda a: (
            unseen_entities(a) == 0 and a.fact.predicate_id in predicates
            and a.fact.ids not in facts
        ),
        SplitKind.INDUCTIVE: lambda a: unseen_entities(a) >= least,
        SplitKind.POLYSEMOUS: lambda a: polysemous(a.oie.subject) or polysemous(a.oie.object),
        SplitKind.OUT_OF_KG: lambda a: (
            unseen_entities(a) == 2 and a.fact.predicate_id not in predicates
        ),
    }
    kept = tuple(filter(rules[spec.kind], test))
    return SplitResult(kept, compute_stats(kept))
