"""Reference knowledge graph: entries, fact validation, surface lookup and
frequency filtering. The store is its entries: ``load_kg`` reads the facts
only to validate them and to filter by frequency. The store is immutable
after construction and safe to share across concurrent readers.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from .corpus import Alignment

from .errors import (
    DanglingFactError,
    DuplicateIdError,
    MalformedRecordError,
    UnknownIdError,
)
from .io import iter_jsonl
from .text import check_no_markers, normalize_surface


class EntryKind(enum.Enum):
    ENTITY = "entity"
    PREDICATE = "predicate"


@dataclass(frozen=True)
class KgEntry:
    """One canonical KG concept: an entity or a predicate."""

    id: str
    kind: EntryKind
    label: str
    description: str | None = None
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("entry id must be non-empty")
        if not self.label.strip():
            raise ValueError(f"entry {self.id}: label must be non-empty")
        check_no_markers(self.label, f"entry {self.id} label")
        if self.description is not None:
            check_no_markers(self.description, f"entry {self.id} description")
        seen = set()
        for alias in self.aliases:
            check_no_markers(alias, f"entry {self.id} alias")
            if alias == self.label:
                raise ValueError(f"entry {self.id}: label repeated in aliases")
            if alias in seen:
                raise ValueError(f"entry {self.id}: duplicate alias {alias!r}")
            seen.add(alias)
        object.__setattr__(self, "aliases", tuple(self.aliases))


@dataclass(frozen=True, order=True)
class KgFact:
    """Canonical (subject, predicate, object) triple over entry ids."""

    subject_id: str
    predicate_id: str
    object_id: str

    @property
    def ids(self) -> tuple[str, str, str]:
        return (self.subject_id, self.predicate_id, self.object_id)


@dataclass(frozen=True)
class KgStore:
    """Validated, immutable collection of KG entries."""

    entries: Mapping[str, KgEntry]
    case_fold: bool = False

    @cached_property
    def surface_index(self) -> Mapping[str, frozenset[str]]:
        """Every normalized entity label and alias mapped to the set of
        entity ids carrying it; built on first use (only splits read it)."""
        surface: dict[str, set[str]] = {}
        for entry in self.entries.values():
            if entry.kind is EntryKind.ENTITY:
                for form in (entry.label, *entry.aliases):
                    surface.setdefault(normalize_surface(form, self.case_fold), set()).add(entry.id)
        return {k: frozenset(v) for k, v in surface.items()}

    def entry(self, entry_id: str) -> KgEntry:
        try:
            return self.entries[entry_id]
        except KeyError:
            raise UnknownIdError(f"unknown entry id {entry_id!r}") from None

    def entity_ids(self) -> list[str]:
        return [e.id for e in self.entries.values() if e.kind is EntryKind.ENTITY]

    def predicate_ids(self) -> list[str]:
        return [e.id for e in self.entries.values() if e.kind is EntryKind.PREDICATE]

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self.entries


_FACT_KINDS = (EntryKind.ENTITY, EntryKind.PREDICATE, EntryKind.ENTITY)


def _validate_fact(fact: KgFact, entries: Mapping[str, KgEntry], where: str = "") -> None:
    for entry_id, want in zip(fact.ids, _FACT_KINDS):
        entry = entries.get(entry_id)
        if entry is None:
            raise DanglingFactError(f"{where}fact references unknown id {entry_id!r}")
        if entry.kind is not want:
            raise DanglingFactError(
                f"{where}fact uses {entry_id!r} as {want.value} but it is a {entry.kind.value}"
            )


def build_store(entries: Iterable[KgEntry], *, case_fold: bool = False) -> KgStore:
    """Assemble a store from already-parsed entries with distinct ids."""
    entry_map: dict[str, KgEntry] = {}
    for entry in entries:
        if entry.id in entry_map:
            raise DuplicateIdError(f"duplicate entry id {entry.id!r}")
        entry_map[entry.id] = entry
    return KgStore(entry_map, case_fold)


_KINDS = {kind.value: kind for kind in EntryKind}


def _parse_entry(record: dict, line_number: int) -> KgEntry:
    for required in ("id", "kind", "label"):
        if required not in record:
            raise MalformedRecordError(f"entry record missing field {required!r}", line_number)
    kind_raw = record["kind"]
    kind = _KINDS.get(kind_raw) if isinstance(kind_raw, str) else None
    if kind is None:
        raise MalformedRecordError(
            f"entry kind must be 'entity' or 'predicate', got {kind_raw!r}", line_number
        )
    description = record.get("description")
    if description is not None and not isinstance(description, str):
        raise MalformedRecordError(
            f"entry description must be a string or null, got {description!r}", line_number
        )
    aliases = record.get("aliases")
    if aliases is None:
        aliases = ()
    elif not (isinstance(aliases, list) and all(isinstance(a, str) for a in aliases)):
        raise MalformedRecordError(
            f"entry aliases must be a list of strings, got {aliases!r}", line_number
        )
    try:
        return KgEntry(str(record["id"]), kind, str(record["label"]), description, tuple(aliases))
    except ValueError as exc:
        raise MalformedRecordError(str(exc), line_number) from exc


def _parse_fact(record: dict, line_number: int) -> KgFact:
    for required in ("subject", "predicate", "object"):
        if required not in record:
            raise MalformedRecordError(f"fact record missing field {required!r}", line_number)
    return KgFact(str(record["subject"]), str(record["predicate"]), str(record["object"]))


def load_kg(
    entries_path: str | Path,
    facts_path: str | Path,
    case_fold: bool = False,
    min_count: int = 0,
) -> KgStore:
    """Load a store from line-delimited entry and fact files.

    Entry records: {id, kind: "entity"|"predicate", label, description?,
    aliases?}, the description a string or null and the aliases a list of
    strings. Fact records: {subject, predicate, object}, each id an entry of
    its slot's kind. Errors name the offending line. ``min_count`` 0 keeps
    every entry; n >= 1 drops the entries in fewer than n distinct facts,
    to a fixpoint. The facts are read for these two uses only.
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    entry_map: dict[str, KgEntry] = {}
    seen_ids: dict[str, int] = {}
    for line_number, record in iter_jsonl(entries_path):
        entry = _parse_entry(record, line_number)
        if entry.id in seen_ids:
            raise DuplicateIdError(
                f"line {line_number}: duplicate entry id {entry.id!r} "
                f"(first seen on line {seen_ids[entry.id]})"
            )
        seen_ids[entry.id] = line_number
        entry_map[entry.id] = entry

    facts: set[tuple[str, str, str]] = set()  # held only for the filter
    kind_of = {entry_id: entry.kind for entry_id, entry in entry_map.items()}
    for line_number, record in iter_jsonl(facts_path):
        try:  # the common valid line, checked without building a KgFact
            ids = (record["subject"], record["predicate"], record["object"])
            valid = tuple(map(kind_of.get, ids)) == _FACT_KINDS
        except (KeyError, TypeError):  # a missing field or an unhashable id
            valid = False
        if not valid:  # raises, or accepts ids that only str() makes valid
            fact = _parse_fact(record, line_number)
            _validate_fact(fact, entry_map, where=f"line {line_number}: ")
            ids = fact.ids
        if min_count:
            facts.add(ids)

    if min_count:
        entry_map = _frequent_entries(entry_map, facts, min_count)
    return KgStore(entry_map, case_fold)


def _frequent_entries(
    entries: dict[str, KgEntry], facts: set[tuple[str, str, str]], min_count: int
) -> dict[str, KgEntry]:
    """The entries in at least ``min_count`` distinct facts over kept
    entries. An entry counts a fact once; removing an entry orphans its
    facts, which can push others below the threshold, so removal iterates
    to a fixpoint."""
    members = [set(ids) for ids in facts]
    keep = set(entries)
    while True:
        members = [ids for ids in members if ids <= keep]
        counts = Counter(entry_id for ids in members for entry_id in ids)
        frequent = {entry_id for entry_id in keep if counts[entry_id] >= min_count}
        if len(frequent) == len(keep):
            return {entry_id: e for entry_id, e in entries.items() if entry_id in keep}
        keep = frequent


def restrict_to_benchmark(store: KgStore, alignments: "list[Alignment]") -> KgStore:
    """Benchmark-restricted store: the entries referenced by at least one
    alignment's fact, in store order."""
    referenced: set[str] = set()
    for alignment in alignments:
        for entry_id in alignment.fact.ids:
            if entry_id not in store.entries:
                raise UnknownIdError(f"alignment references unknown id {entry_id!r}")
            referenced.add(entry_id)
    entries = {eid: e for eid, e in store.entries.items() if eid in referenced}
    return KgStore(entries, store.case_fold)


def lookup_surface(store: KgStore, surface: str) -> frozenset[str]:
    """Entity ids whose label or alias equals the normalized surface."""
    return store.surface_index.get(
        normalize_surface(surface, store.case_fold), frozenset()
    )
