"""OIE triples, distant-supervision alignment against KG facts, alias
augmentation, leakage removal and encoder input rendering."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataError
from .io import iter_jsonl, optional_str, require_fields, required_str, write_jsonl
from .kg import KgFact, KgStore, _validate_fact
from .text import (
    OBJ_TOKEN,
    REL_TOKEN,
    SENT_TOKEN,
    SUBJ_TOKEN,
    check_no_markers,
    normalize_surface,
)


@dataclass(frozen=True)
class OieTriple:
    """Surface-form (subject; relation; object) extraction."""

    subject: str
    relation: str
    object: str
    sentence: str | None = None
    extractor: str | None = None

    def __post_init__(self):
        for name, value in (
            ("subject", self.subject),
            ("relation", self.relation),
            ("object", self.object),
        ):
            if not value.strip():
                raise ValueError(f"OIE {name} must be non-empty")
            check_no_markers(value, f"OIE {name}")

    @property
    def slots(self) -> tuple[str, str, str]:
        return (self.subject, self.relation, self.object)


@dataclass(frozen=True)
class SentenceFactPair:
    """One dataset instance: a sentence and a KG fact it entails.

    ``subject_surface``/``object_surface`` are gold mention strings when the
    dataset provides them; otherwise alignment falls back to entry labels.
    """

    sentence_id: str
    sentence: str
    fact: KgFact
    subject_surface: str | None = None
    object_surface: str | None = None


@dataclass(frozen=True)
class Alignment:
    """An OIE triple paired with the KG fact it expresses."""

    oie: OieTriple
    fact: KgFact
    augmented: bool = False


def oie_uid(triple: OieTriple) -> str:
    """Stable content-derived id for an OIE triple, the first part of
    ``alignment_uid``; extractor tags do not affect it."""
    payload = "\x1f".join(
        (triple.subject, triple.relation, triple.object, triple.sentence or "")
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


def alignment_uid(alignment: Alignment) -> str:
    """Stable content-derived id for an alignment record."""
    payload = "\x1f".join(
        (
            oie_uid(alignment.oie),
            *alignment.fact.ids,
            "aug" if alignment.augmented else "orig",
        )
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


def _match_target(
    store: KgStore, entity_id: str, gold_surface: str | None
) -> str:
    if gold_surface is not None:
        return gold_surface
    return store.entry(entity_id).label


def _normalized_slots(triple: OieTriple, case_fold: bool) -> tuple[str, str, str]:
    return (
        normalize_surface(triple.subject, case_fold),
        normalize_surface(triple.relation, case_fold),
        normalize_surface(triple.object, case_fold),
    )


def align(
    oies: Mapping[str, Sequence[OieTriple]],
    pairs: Sequence[SentenceFactPair],
    store: KgStore,
) -> list[Alignment]:
    """Distant-supervision alignment: pair an OIE with a fact whenever the
    OIE subject and object exactly match the fact's subject and object
    surfaces (gold mention when available, else the canonical label). The
    relation is assumed to express the predicate; unmatched OIEs are dropped.

    Exact-duplicate OIEs within a sentence are collapsed first; distinct
    OIEs matching the same fact all produce alignments.
    """
    case_fold = store.case_fold
    pairs_by_sentence: dict[str, list[SentenceFactPair]] = {}
    for pair in pairs:
        pairs_by_sentence.setdefault(pair.sentence_id, []).append(pair)

    out: list[Alignment] = []
    for sentence_id in sorted(pairs_by_sentence):
        sentence_pairs = pairs_by_sentence[sentence_id]
        triples = oies.get(sentence_id, ())
        unique: dict[tuple[str, str, str], OieTriple] = {}
        for triple in triples:
            unique.setdefault(_normalized_slots(triple, case_fold), triple)
        for pair in sentence_pairs:
            subject_target = normalize_surface(
                _match_target(store, pair.fact.subject_id, pair.subject_surface),
                case_fold,
            )
            object_target = normalize_surface(
                _match_target(store, pair.fact.object_id, pair.object_surface),
                case_fold,
            )
            for (subj, _rel, obj), triple in unique.items():
                if subj == subject_target and obj == object_target:
                    if triple.sentence is None:
                        triple = replace(triple, sentence=pair.sentence)
                    out.append(Alignment(oie=triple, fact=pair.fact))

    out.sort(
        key=lambda a: (
            a.oie.sentence or "",
            a.fact.ids,
            a.oie.slots,
        )
    )
    return out


def augment_aliases(alignments: Sequence[Alignment], store: KgStore) -> list[Alignment]:
    """Create alias-substituted variants of each alignment.

    For subject surface set S = {original} ∪ subject-entity aliases and
    object surface set O likewise, emits one augmented alignment per
    (s, o) in S×O except the original pair. Originals are preserved and
    come first; the relation string never changes.
    """
    out: list[Alignment] = []
    for alignment in alignments:
        if alignment.augmented:
            raise ValueError("augment_aliases expects unaugmented alignments")
        out.append(alignment)
        subject_entry = store.entry(alignment.fact.subject_id)
        object_entry = store.entry(alignment.fact.object_id)
        subject_forms = list(
            dict.fromkeys((alignment.oie.subject, *subject_entry.aliases))
        )
        object_forms = list(
            dict.fromkeys((alignment.oie.object, *object_entry.aliases))
        )
        for subject in subject_forms:
            for obj in object_forms:
                if subject == alignment.oie.subject and obj == alignment.oie.object:
                    continue
                out.append(
                    Alignment(
                        oie=replace(alignment.oie, subject=subject, object=obj),
                        fact=alignment.fact,
                        augmented=True,
                    )
                )
    return out


def _leakage_key(alignment: Alignment, case_fold: bool) -> tuple:
    return (_normalized_slots(alignment.oie, case_fold), alignment.fact.ids)


def remove_leakage(
    train: Sequence[Alignment],
    test: Sequence[Alignment],
    case_fold: bool = False,
) -> list[Alignment]:
    """Drop training alignments whose (normalized OIE, fact) pair occurs in
    the test portion."""
    test_keys = {_leakage_key(a, case_fold) for a in test}
    return [a for a in train if _leakage_key(a, case_fold) not in test_keys]


def oie_text(triple: OieTriple, with_context: bool = False) -> str:
    """Render an OIE triple for the encoder, optionally appending its
    provenance sentence."""
    rendered = (
        f"{SUBJ_TOKEN} {triple.subject} {REL_TOKEN} {triple.relation} "
        f"{OBJ_TOKEN} {triple.object}"
    )
    if with_context:
        if triple.sentence is None:
            raise DataError(f"triple {triple.slots!r} has no provenance sentence")
        rendered += f" {SENT_TOKEN} {triple.sentence}"
    return rendered


def check_training_set(alignments: Sequence[Alignment], store: KgStore, role: str) -> None:
    """A trainer's input check: at least one alignment, every fact id an
    entry of the store of its slot's kind."""
    if not alignments:
        raise DataError(f"no {role} alignments")
    for alignment in alignments:
        _validate_fact(alignment.fact, store.entries, what="alignment fact")


# ---------------------------------------------------------------------------
# File formats


def _oie_triple(record: dict, line_number: int) -> OieTriple:
    """The triple of a record holding its three string slots, an optional
    sentence and an optional extractor tag, each a string or null."""
    slots = [required_str(record, name, line_number, "OIE")
             for name in ("subject", "relation", "object")]
    sentence = optional_str(record, "sentence", line_number)
    extractor = optional_str(record, "extractor", line_number)
    try:
        return OieTriple(*slots, sentence, extractor)
    except (ValueError, DataError) as exc:  # a blank slot or a marker
        raise DataError(str(exc), line_number) from exc


def read_oie_file(path: str | Path) -> dict[str, list[OieTriple]]:
    """OIE records {sentence_id, subject, relation, object, sentence?,
    extractor?} grouped by sentence id; each slot is a string, a sentence
    or extractor a string or null."""
    grouped: dict[str, list[OieTriple]] = {}
    for line_number, record in iter_jsonl(path):
        require_fields(record, ("sentence_id", "subject", "relation", "object"), line_number, "OIE")
        grouped.setdefault(str(record["sentence_id"]), []).append(_oie_triple(record, line_number))
    return grouped


def read_pairs_file(path: str | Path, store: KgStore) -> list[SentenceFactPair]:
    """Pair records {sentence_id, sentence, subject, predicate, object,
    subject_mention?, object_mention?}; the sentence is a string, a mention
    a string or null, and each fact's ids must name store entries of their
    slot's kind."""
    pairs: list[SentenceFactPair] = []
    for line_number, record in iter_jsonl(path):
        require_fields(
            record, ("sentence_id", "sentence", "subject", "predicate", "object"), line_number,
            "pair",
        )
        subject_surface = optional_str(record, "subject_mention", line_number, "pair")
        object_surface = optional_str(record, "object_mention", line_number, "pair")
        fact = KgFact(str(record["subject"]), str(record["predicate"]), str(record["object"]))
        _validate_fact(fact, store.entries, line_number, "pair fact")
        pairs.append(
            SentenceFactPair(
                sentence_id=str(record["sentence_id"]),
                sentence=required_str(record, "sentence", line_number, "pair"),
                fact=fact,
                subject_surface=subject_surface,
                object_surface=object_surface,
            )
        )
    return pairs


def alignment_record(alignment: Alignment) -> dict:
    record = {
        "subject": alignment.oie.subject,
        "relation": alignment.oie.relation,
        "object": alignment.oie.object,
        "subject_id": alignment.fact.subject_id,
        "predicate_id": alignment.fact.predicate_id,
        "object_id": alignment.fact.object_id,
        "augmented": alignment.augmented,
    }
    if alignment.oie.sentence is not None:
        record["sentence"] = alignment.oie.sentence
    if alignment.oie.extractor is not None:
        record["extractor"] = alignment.oie.extractor
    return record


def alignment_from_record(record: dict, line_number: int = 0) -> Alignment:
    """An alignment record's alignment; ``augmented`` is a boolean, false
    when absent."""
    require_fields(
        record, ("subject", "relation", "object", "subject_id", "predicate_id", "object_id"),
        line_number, "alignment",
    )
    oie = _oie_triple(record, line_number)
    augmented = record.get("augmented", False)
    if not isinstance(augmented, bool):
        raise DataError(f"alignment augmented must be a boolean, got {augmented!r}", line_number)
    fact = KgFact(str(record["subject_id"]), str(record["predicate_id"]), str(record["object_id"]))
    return Alignment(oie, fact, augmented)


def write_alignments(
    path: str | Path, alignments: Iterable[Alignment], header: dict | None = None
) -> None:
    write_jsonl(path, (alignment_record(a) for a in alignments), header=header)


def read_alignments(path: str | Path, store: KgStore) -> list[Alignment]:
    """Alignment records; each fact's ids must name store entries of their
    slot's kind."""
    alignments = []
    for line_number, record in iter_jsonl(path):
        alignment = alignment_from_record(record, line_number)
        _validate_fact(alignment.fact, store.entries, line_number, "alignment fact")
        alignments.append(alignment)
    return alignments
