"""Seeded input generator for the benchmark workloads.

A frozen, scalable copy of the toy world used by the test suite: at the
default ``Scale`` and a given seed it emits exactly the records the test
suite's toy world emits, so editing the tests never changes a workload.
Larger scales grow the core world and append *filler* entities: KG-only
persons with facts among themselves that no OIE triple mentions, so they
enlarge the store that retrieval scans without enlarging the benchmark.

When the toy word lists cannot supply enough unique labels (720 name
combinations, 400 nicknames), every name pool switches to a generated
syllable vocabulary that does not depend on the seed.

The generator needs only numpy; the program under test sees the files
that ``write_inputs`` writes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIRST = (
    "Marcus Elena Tobias Ingrid Casper Maren Felix Oriana Dmitri Lucia "
    "Anders Paloma Viktor Saskia Ruben Adela Nikolai Bianca Stefan Odessa "
    "Matthias Corinne Leopold Annika Gregor Selma Emeric Dagny Florin Petra"
).split()
LAST = (
    "Hale Voss Kestrel Marlowe Ashford Quill Barrow Fenwick Garland Holt "
    "Iverson Juniper Krane Larkspur Mercer Norwood Oakes Pemberton Rourke Sable "
    "Thorne Underhill Vance Whitlock"
).split()
NICK_ADJ = (
    "Silver Crimson Amber Cobalt Ivory Jade Onyx Scarlet Golden Azure "
    "Umber Violet Copper Slate Coral Quiet Frosty Ember Misty Raven"
).split()
NICK_NOUN = (
    "Falcon Badger Heron Lynx Otter Magpie Viper Stag Wren Mole "
    "Pike Crane Vole Swift Hawk Newt Boar Finch Seal Hare"
).split()
ROLES = (
    "archivist brewer cartographer diver engraver falconer glassblower "
    "herbalist illustrator jeweler keeper lutenist mason navigator"
).split()
DOMAINS = (
    "harbor orchard quarry foundry observatory vineyard lighthouse granary "
    "atelier apiary sawmill tannery brickworks distillery printworks chandlery "
    "ropewalk cooperage smokehouse malthouse boatyard limekiln fullery weavery"
).split()
PLACES = (
    "riverside hillside crossroads headland moorland lowland uplands terrace "
    "esplanade causeway paddock commons fairground wharfside greenway bypass"
).split()
VERBS = (
    "works with,mentors,trades with,visits,funds,advises,hosts,audits,"
    "hires,consults,supplies,studies under,escorts,sponsors,debates,"
    "interviews,tutors,collaborates with,negotiates with,commissions"
).split(",")

N_SEEN_PREDICATES = 17
N_OOKG_PREDICATES = 3
N_REGULAR = 68
N_TRAINED_HOMONYM_PAIRS = 8
N_INDUCTIVE_UNSEEN = 20
N_OOKG_UNSEEN = 16
N_DISTRACTORS = 24
N_INDUCTIVE_FACTS = 50
N_INDUCTIVE_BOTH_FACTS = 25
N_OOKG_FACTS = 45

_ONSETS = "b d f g h k l m n p r s t v z br dr gr kr pl st tr sh".split()
_VOWELS = "a e i o u ai ea ou".split()
_CODAS = ("", "n", "r", "l", "s", "th", "ck")


@dataclass(frozen=True)
class Scale:
    """Sizes a workload may change. The defaults are the toy world."""

    twin_pairs: int = 12
    train_facts: int = 450
    transductive_facts: int = 130
    fillers: int = 0  # KG-only persons, never mentioned by an OIE triple
    filler_facts: int = 2  # facts per filler, among fillers

    def person_labels(self) -> int:
        return (
            self.twin_pairs + N_REGULAR - N_TRAINED_HOMONYM_PAIRS
            + N_INDUCTIVE_UNSEEN + N_OOKG_UNSEEN + N_DISTRACTORS + self.fillers
        )

    def nicknames(self) -> int:
        return 2 * self.twin_pairs + N_REGULAR + N_INDUCTIVE_UNSEEN


TOY = Scale()


@dataclass(frozen=True)
class Vocabulary:
    first: list[str]
    last: list[str]
    nick_adj: list[str]
    nick_noun: list[str]
    domains: list[str]


def _generated_words(count: int) -> list[str]:
    """``count`` distinct pronounceable words in a seed-independent order."""
    words = [
        a + b + c + d + e
        for a, b, c, d, e in itertools.product(_ONSETS, _VOWELS, _ONSETS, _VOWELS, _CODAS)
    ]
    if count > len(words):
        raise ValueError(f"vocabulary holds {len(words)} words, {count} requested")
    order = np.random.default_rng(20231023).permutation(len(words))
    return [words[i] for i in order[:count]]


def vocabulary(scale: Scale) -> Vocabulary:
    """Toy word lists when the scale's unique labels and nicknames use at
    most a third of their combinations, else generated pools of which they
    use at most a quarter."""
    domains_needed = 2 * scale.twin_pairs
    fits = (
        3 * scale.person_labels() <= len(FIRST) * len(LAST)
        and 3 * scale.nicknames() <= len(NICK_ADJ) * len(NICK_NOUN)
        and domains_needed <= len(DOMAINS)
    )
    if fits:
        return Vocabulary(FIRST, LAST, NICK_ADJ, NICK_NOUN, DOMAINS)
    names = math.ceil(math.sqrt(4 * scale.person_labels()))
    nicks = math.ceil(math.sqrt(4 * scale.nicknames()))
    words = _generated_words(2 * names + 2 * nicks + domains_needed)
    cut = np.cumsum([names, names, nicks, nicks])
    return Vocabulary(
        first=[w.capitalize() for w in words[: cut[0]]],
        last=[w.capitalize() for w in words[cut[0] : cut[1]]],
        nick_adj=[w.capitalize() for w in words[cut[1] : cut[2]]],
        nick_noun=[w.capitalize() for w in words[cut[2] : cut[3]]],
        domains=words[cut[3] :],
    )


def _pick_unique(rng, pool_a, pool_b, taken):
    while True:
        combo = (pool_a[int(rng.integers(len(pool_a)))], pool_b[int(rng.integers(len(pool_b)))])
        if combo not in taken:
            taken.add(combo)
            return combo


def generate(seed: int, scale: Scale = TOY) -> dict[str, list[dict]]:
    """Raw input records keyed by file name (kg_entries, kg_facts,
    train_oie, train_pairs, test_oie, test_pairs)."""
    vocab = vocabulary(scale)
    rng = np.random.default_rng(seed)
    taken_labels: set = set()
    taken_nicks: set = set()
    entries: list[dict] = []
    n_domains = 2 * scale.twin_pairs

    def person(eid, label_pair, description, with_alias=True):
        aliases = []
        if with_alias:
            adjective, noun = _pick_unique(rng, vocab.nick_adj, vocab.nick_noun, taken_nicks)
            aliases = [f"the {adjective} {noun}"]
        entries.append({"id": eid, "kind": "entity", "label": " ".join(label_pair),
                        "description": description, "aliases": aliases})

    # twins: two persons per shared label, each with its own domain
    twin_ids, twin_domain = [], {}
    for pair in range(scale.twin_pairs):
        label_pair = _pick_unique(rng, vocab.first, vocab.last, taken_labels)
        for side in range(2):
            eid = f"T{pair}{'ab'[side]}"
            domain = vocab.domains[2 * pair + side]
            role = ROLES[int(rng.integers(len(ROLES)))]
            person(eid, label_pair, f"{role} of the {domain} circle")
            twin_ids.append(eid)
            twin_domain[eid] = domain

    # guilds: two per domain, labels and aliases keep the domain word
    guild_ids, guilds_of = [], {}
    for d, domain in enumerate(vocab.domains[:n_domains]):
        ids = []
        for k, (label_kind, alias_kind) in enumerate(
            ((" guild", " collective"), (" society", " assembly"))
        ):
            eid = f"G{d}{'ab'[k]}"
            entries.append({"id": eid, "kind": "entity", "label": domain.capitalize() + label_kind,
                            "description": f"association of the {domain} trade",
                            "aliases": [f"the {domain}{alias_kind}"]})
            ids.append(eid)
        guild_ids.extend(ids)
        guilds_of[domain] = ids

    person_domain = dict(twin_domain)
    last_label_pair = {}

    def domained_person(eid, with_alias=True, label_from=None):
        if label_from is None:
            label_pair = _pick_unique(rng, vocab.first, vocab.last, taken_labels)
        else:
            label_pair = last_label_pair[label_from]
        role = ROLES[int(rng.integers(len(ROLES)))]
        domain = vocab.domains[int(rng.integers(n_domains))]
        person(eid, label_pair, f"{role} of the {domain} circle", with_alias)
        person_domain[eid] = domain
        last_label_pair[eid] = label_pair
        return eid

    # the first regular pairs share labels (trained homonyms)
    regular_ids = []
    for i in range(N_REGULAR):
        pair_twin = i % 2 == 1 and i < 2 * N_TRAINED_HOMONYM_PAIRS
        regular_ids.append(
            domained_person(f"R{i}", label_from=f"R{i-1}" if pair_twin else None)
        )
    inductive_ids = [domained_person(f"U{i}") for i in range(N_INDUCTIVE_UNSEEN)]
    ookg_ids = [domained_person(f"X{i}", with_alias=False) for i in range(N_OOKG_UNSEEN)]

    # distractors collide with the inductive-unseen entities: two thirds
    # duplicate an unseen label outright, the rest share a surname
    n_homonyms = 2 * N_DISTRACTORS // 3
    unseen_entries = entries[-N_INDUCTIVE_UNSEEN - N_OOKG_UNSEEN : -N_OOKG_UNSEEN]
    for i in range(N_DISTRACTORS):
        other_domain = vocab.domains[int(rng.integers(n_domains))]
        if i < n_homonyms:
            anchor = unseen_entries[i % N_INDUCTIVE_UNSEEN]
            role = anchor["description"].split()[0]
            person(f"D{i}", tuple(anchor["label"].split()),
                   f"{role} of the {other_domain} circle", with_alias=False)
            continue
        anchor = unseen_entries[int(rng.integers(N_INDUCTIVE_UNSEEN))]
        surname = anchor["label"].split()[1]
        first = vocab.first[int(rng.integers(len(vocab.first)))]
        while (first, surname) in taken_labels:
            first = vocab.first[int(rng.integers(len(vocab.first)))]
        taken_labels.add((first, surname))
        person(f"D{i}", (first, surname), anchor["description"], with_alias=False)

    predicate_entries = []
    predicate_ids = []
    for j in range(N_SEEN_PREDICATES + N_OOKG_PREDICATES):
        verb = VERBS[j % len(VERBS)]
        description = f"relation where one party {verb.split()[0]} another"
        predicate_entries.append({"id": f"P{j}", "kind": "predicate", "label": verb,
                                  "description": description, "aliases": []})
        predicate_ids.append(f"P{j}")
    entries.extend(predicate_entries)
    seen_predicates = predicate_ids[:N_SEEN_PREDICATES]
    ookg_predicates = predicate_ids[N_SEEN_PREDICATES:]

    # skewed predicate distribution: the modal predicate dominates training
    predicate_weights = np.array(
        [0.45] + [0.55 / (N_SEEN_PREDICATES - 1)] * (N_SEEN_PREDICATES - 1)
    )

    def draw_predicate():
        return seen_predicates[int(rng.choice(N_SEEN_PREDICATES, p=predicate_weights))]

    entry_by_id = {e["id"]: e for e in entries}

    def cue_for(eid):
        if eid in twin_domain:
            return f"of the {twin_domain[eid]} circle"
        return entry_by_id[eid]["description"]

    facts_seen: set = set()
    oie_records: dict[str, list[dict]] = {"train": [], "test": []}
    pair_records: dict[str, list[dict]] = {"train": [], "test": []}
    counters = {"train": 0, "test": 0}

    def emit(portion, subject_id, predicate_id, object_id):
        fact_key = (subject_id, predicate_id, object_id)
        if subject_id == object_id or fact_key in facts_seen:
            return False
        facts_seen.add(fact_key)
        counters[portion] += 1
        sid = f"{portion}-{counters[portion]}"
        subject_surface = entry_by_id[subject_id]["label"]
        object_surface = entry_by_id[object_id]["label"]
        verb = entry_by_id[predicate_id]["label"]
        sentence = f"{subject_surface}, {cue_for(subject_id)}, {verb} {object_surface}."
        oie_records[portion].append(
            {"sentence_id": sid, "subject": subject_surface, "relation": verb,
             "object": object_surface, "extractor": "toy"}
        )
        pair_records[portion].append(
            {"sentence_id": sid, "sentence": sentence, "subject": subject_id,
             "predicate": predicate_id, "object": object_id}
        )
        return True

    def random_regular():
        return regular_ids[int(rng.integers(N_REGULAR))]

    def object_for(subject_id):
        draw = rng.random()
        if draw < 0.4:
            own = guilds_of[person_domain[subject_id]]
            return own[int(rng.integers(len(own)))]
        if draw < 0.55:
            return guild_ids[int(rng.integers(len(guild_ids)))]
        return random_regular()

    # training facts: twins never see their own guilds in training
    for eid in twin_ids:
        emitted = 0
        while emitted < 6:
            emitted += emit("train", eid, draw_predicate(), random_regular())
    emitted = 0
    while emitted < scale.train_facts:
        subject = random_regular()
        emitted += emit("train", subject, draw_predicate(), object_for(subject))

    # transductive: unseen combinations of seen entities
    emitted = 0
    while emitted < scale.transductive_facts:
        subject = random_regular()
        emitted += emit("test", subject, draw_predicate(), object_for(subject))
    # polysemous: new facts per twin, guild objects carrying the domain cue
    for eid in twin_ids:
        own_guilds = guilds_of[twin_domain[eid]]
        emitted = 0
        while emitted < 3:
            emitted += emit("test", eid, draw_predicate(),
                            own_guilds[int(rng.integers(len(own_guilds)))])
    for pair in range(0, scale.twin_pairs, 2):
        emit("test", random_regular(), draw_predicate(), twin_ids[2 * pair])
    # inductive: at least one unseen entity; some with both sides unseen
    emitted = 0
    while emitted < N_INDUCTIVE_FACTS:
        u = inductive_ids[int(rng.integers(N_INDUCTIVE_UNSEEN))]
        if rng.random() < 0.5:
            subject, obj = u, object_for(u)
        else:
            subject, obj = random_regular(), u
        emitted += emit("test", subject, draw_predicate(), obj)
    emitted = 0
    while emitted < N_INDUCTIVE_BOTH_FACTS:
        u, v = rng.choice(N_INDUCTIVE_UNSEEN, size=2, replace=False)
        emitted += emit("test", inductive_ids[u], draw_predicate(), inductive_ids[v])
    # out-of-KG: fully unseen subject, object and predicate
    emitted = 0
    while emitted < N_OOKG_FACTS:
        u, v = rng.choice(N_OOKG_UNSEEN, size=2, replace=False)
        pid = ookg_predicates[int(rng.integers(N_OOKG_PREDICATES))]
        emitted += emit("test", ookg_ids[u], pid, ookg_ids[v])

    # fillers: KG-only persons and facts, drawn after everything above so
    # the core world does not depend on how many there are
    filler_ids = []
    for i in range(scale.fillers):
        label_pair = _pick_unique(rng, vocab.first, vocab.last, taken_labels)
        role = ROLES[int(rng.integers(len(ROLES)))]
        place = PLACES[int(rng.integers(len(PLACES)))]
        entries.append({"id": f"F{i}", "kind": "entity", "label": " ".join(label_pair),
                        "description": f"{role} from the {place}", "aliases": []})
        filler_ids.append(f"F{i}")
    if len(filler_ids) > 1:
        for subject_id in filler_ids:
            emitted = 0
            while emitted < scale.filler_facts:
                object_id = filler_ids[int(rng.integers(len(filler_ids)))]
                key = (subject_id, draw_predicate(), object_id)
                if subject_id != object_id and key not in facts_seen:
                    facts_seen.add(key)
                    emitted += 1

    return {
        "kg_entries": entries,
        "kg_facts": [
            {"subject": s, "predicate": p, "object": o} for s, p, o in sorted(facts_seen)
        ],
        "train_oie": oie_records["train"],
        "train_pairs": pair_records["train"],
        "test_oie": oie_records["test"],
        "test_pairs": pair_records["test"],
    }


def write_inputs(files: dict[str, list[dict]], directory: Path) -> dict[str, Path]:
    """One JSONL file per record list; returns the paths by name."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, records in files.items():
        path = directory / f"{name}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        paths[name] = path
    return paths
