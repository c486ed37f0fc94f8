"""Deterministic desk-scale benchmark world for training and acceptance
tests.

Layout of the 200-entity, 20-predicate store:

* 12 twin pairs share a person label (polysemous surfaces). Each twin
  belongs to one domain (harbor, orchard, ...): its description names the
  domain, its sentences carry the domain cue, and most of its facts point
  at that domain's guild entities, whose labels contain the domain word.
  Re-ranking and context can therefore disambiguate twins through the
  lexical agreement between triple context and entry description.
* 48 guilds (two per domain) and 68 regular persons complete the training
  graph; regular persons use a separate place-word pool so domain words
  stay twin-specific.
* 20 inductive-unseen and 16 out-of-KG-unseen persons appear only in test
  facts; the out-of-KG ones pair with 3 reserved predicates and carry no
  aliases (detection mirrors the unaugmented regime).
* 24 distractors are never referenced by alignments and exist only in the
  Large store: 8 duplicate a regular person's label outright, 16 share a
  surname.

Every other person entity carries one globally unique nickname alias with
low lexical overlap with its label; guild aliases keep their domain word.
"""

from dataclasses import dataclass

import numpy as np

from factlink.corpus import (
    Alignment,
    OieTriple,
    SentenceFactPair,
    align,
    augment_aliases,
    remove_leakage,
)
from factlink.io import write_jsonl
from factlink.kg import EntryKind, KgEntry, KgFact, KgStore, build_store, restrict_to_benchmark

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

N_TWIN_PAIRS = 12
N_GUILDS_PER_DOMAIN = 2
N_REGULAR = 68
N_TRAINED_HOMONYM_PAIRS = 8
N_INDUCTIVE_UNSEEN = 20
N_OOKG_UNSEEN = 16
N_DISTRACTORS = 24
N_SEEN_PREDICATES = 17
N_OOKG_PREDICATES = 3


@dataclass
class ToyWorld:
    store: KgStore  # the Large store
    brkg: KgStore  # restricted to entries referenced by the benchmark
    train: list[Alignment]  # aligned + alias-augmented + leakage-removed
    test: list[Alignment]  # aligned + alias-augmented
    files: dict  # raw record lists keyed by artifact name


def _pick_unique(rng, pool_a, pool_b, taken):
    while True:
        combo = (pool_a[int(rng.integers(len(pool_a)))], pool_b[int(rng.integers(len(pool_b)))])
        if combo not in taken:
            taken.add(combo)
            return combo


def build_toy_world(seed: int = 0) -> ToyWorld:
    rng = np.random.default_rng(seed)
    taken_labels: set = set()
    taken_nicks: set = set()
    entries: list[KgEntry] = []

    def person(eid, label_pair, description, with_alias=True):
        aliases = ()
        if with_alias:
            adjective, noun = _pick_unique(rng, NICK_ADJ, NICK_NOUN, taken_nicks)
            aliases = (f"the {adjective} {noun}",)
        entries.append(
            KgEntry(id=eid, kind=EntryKind.ENTITY, label=" ".join(label_pair),
                    description=description, aliases=aliases)
        )

    # twins: two persons per shared label, each with its own domain
    twin_ids, twin_domain = [], {}
    n_twins = 2 * N_TWIN_PAIRS
    for pair in range(N_TWIN_PAIRS):
        label_pair = _pick_unique(rng, FIRST, LAST, taken_labels)
        for side in range(2):
            eid = f"T{pair}{'ab'[side]}"
            domain = DOMAINS[2 * pair + side]
            role = ROLES[int(rng.integers(len(ROLES)))]
            person(eid, label_pair, f"{role} of the {domain} circle")
            twin_ids.append(eid)
            twin_domain[eid] = domain

    # guilds: two per domain, labels and aliases keep the domain word
    guild_ids, guilds_of = [], {}
    for d, domain in enumerate(DOMAINS[: 2 * N_TWIN_PAIRS]):
        ids = []
        for k, (label_kind, alias_kind) in enumerate(
            ((" guild", " collective"), (" society", " assembly"))
        ):
            eid = f"G{d}{'ab'[k]}"
            entries.append(
                KgEntry(
                    id=eid,
                    kind=EntryKind.ENTITY,
                    label=domain.capitalize() + label_kind,
                    description=f"association of the {domain} trade",
                    aliases=(f"the {domain}{alias_kind}",),
                )
            )
            ids.append(eid)
        guild_ids.extend(ids)
        guilds_of[domain] = ids

    # every person belongs to a domain circle; their facts favor their own
    # domain's guilds, so "context domain agrees with entry description"
    # is a corpus-wide pattern, not a twin-only quirk
    person_domain = dict(twin_domain)
    last_label_pair = {}

    def domained_person(eid, with_alias=True, label_from=None):
        if label_from is None:
            label_pair = _pick_unique(rng, FIRST, LAST, taken_labels)
        else:
            label_pair = last_label_pair[label_from]
        role = ROLES[int(rng.integers(len(ROLES)))]
        domain = DOMAINS[int(rng.integers(2 * N_TWIN_PAIRS))]
        person(eid, label_pair, f"{role} of the {domain} circle", with_alias)
        person_domain[eid] = domain
        last_label_pair[eid] = label_pair
        return eid

    # the first N_TRAINED_HOMONYM_PAIRS regular pairs share labels: the
    # contrastive loss is forced to separate them through domain context,
    # which aligns context and description directions corpus-wide
    regular_ids = []
    for i in range(N_REGULAR):
        pair_twin = i % 2 == 1 and i < 2 * N_TRAINED_HOMONYM_PAIRS
        regular_ids.append(
            domained_person(f"R{i}", label_from=f"R{i-1}" if pair_twin else None)
        )
    inductive_ids = [domained_person(f"U{i}") for i in range(N_INDUCTIVE_UNSEEN)]
    # out-of-KG entities carry no aliases: their detection split mirrors the
    # unaugmented regime, where add/remove detection is actually attainable
    ookg_ids = [
        domained_person(f"X{i}", with_alias=False) for i in range(N_OOKG_UNSEEN)
    ]

    # distractors are never aligned, so only the Large store has them; they
    # collide with the inductive-unseen entities, whose untrained gold
    # entries can actually lose the competition: half duplicate an unseen
    # label outright (homonyms), the rest share a surname
    n_homonyms = 2 * N_DISTRACTORS // 3
    unseen_entries = entries[-N_INDUCTIVE_UNSEEN - N_OOKG_UNSEEN : -N_OOKG_UNSEEN]
    for i in range(N_DISTRACTORS):
        other_domain = DOMAINS[int(rng.integers(2 * N_TWIN_PAIRS))]
        if i < n_homonyms:
            anchor = unseen_entries[i % N_INDUCTIVE_UNSEEN]
            role = anchor.description.split()[0]  # same role word: near-twin
            person(f"D{i}", tuple(anchor.label.split()),
                   f"{role} of the {other_domain} circle", with_alias=False)
            continue
        anchor = unseen_entries[int(rng.integers(N_INDUCTIVE_UNSEEN))]
        surname = anchor.label.split()[1]
        first = FIRST[int(rng.integers(len(FIRST)))]
        while (first, surname) in taken_labels:
            first = FIRST[int(rng.integers(len(FIRST)))]
        taken_labels.add((first, surname))
        person(f"D{i}", (first, surname), anchor.description, with_alias=False)

    predicate_ids = []
    for j in range(N_SEEN_PREDICATES + N_OOKG_PREDICATES):
        verb = VERBS[j % len(VERBS)]
        entries.append(
            KgEntry(id=f"P{j}", kind=EntryKind.PREDICATE, label=verb,
                    description=f"relation where one party {verb.split()[0]} another")
        )
        predicate_ids.append(f"P{j}")
    seen_predicates = predicate_ids[:N_SEEN_PREDICATES]
    ookg_predicates = predicate_ids[N_SEEN_PREDICATES:]

    # skewed predicate distribution: the modal predicate dominates training
    predicate_weights = np.array(
        [0.45] + [0.55 / (N_SEEN_PREDICATES - 1)] * (N_SEEN_PREDICATES - 1)
    )

    def draw_predicate():
        return seen_predicates[int(rng.choice(N_SEEN_PREDICATES, p=predicate_weights))]

    entry_by_id = {e.id: e for e in entries}

    def cue_for(eid):
        if eid in twin_domain:
            return f"of the {twin_domain[eid]} circle"
        return entry_by_id[eid].description

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
        subject_surface = entry_by_id[subject_id].label
        object_surface = entry_by_id[object_id].label
        verb = entry_by_id[predicate_id].label
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
        # facts lean toward the subject's own domain guilds
        draw = rng.random()
        if draw < 0.4:
            own = guilds_of[person_domain[subject_id]]
            return own[int(rng.integers(len(own)))]
        if draw < 0.55:
            return guild_ids[int(rng.integers(len(guild_ids)))]
        return random_regular()

    # --- training facts: twins never see their own guilds in training, so
    # single-vector retrieval cannot memorize the twin-domain cue; the
    # corpus-wide domain pattern is carried by the regular persons
    for eid in twin_ids:
        emitted = 0
        while emitted < 6:
            emitted += emit("train", eid, draw_predicate(), random_regular())
    emitted = 0
    while emitted < 450:
        subject = random_regular()
        emitted += emit("train", subject, draw_predicate(), object_for(subject))

    # --- test facts
    # transductive: unseen combinations of seen entities
    emitted = 0
    while emitted < 130:
        subject = random_regular()
        emitted += emit("test", subject, draw_predicate(), object_for(subject))
    # polysemous: new facts per twin, guild objects carrying the domain cue
    for eid in twin_ids:
        own_guilds = guilds_of[twin_domain[eid]]
        emitted = 0
        while emitted < 3:
            emitted += emit("test", eid, draw_predicate(),
                            own_guilds[int(rng.integers(len(own_guilds)))])
    for pair in range(0, N_TWIN_PAIRS, 2):  # a few object-side twin mentions
        emit("test", random_regular(), draw_predicate(), twin_ids[2 * pair])
    # inductive: at least one unseen entity; a third with both sides unseen
    emitted = 0
    while emitted < 50:
        u = inductive_ids[int(rng.integers(N_INDUCTIVE_UNSEEN))]
        if rng.random() < 0.5:
            subject, obj = u, object_for(u)
        else:
            subject, obj = random_regular(), u
        emitted += emit("test", subject, draw_predicate(), obj)
    emitted = 0
    while emitted < 25:
        u, v = rng.choice(N_INDUCTIVE_UNSEEN, size=2, replace=False)
        emitted += emit("test", inductive_ids[u], draw_predicate(), inductive_ids[v])
    # out-of-KG: fully unseen subject, object and predicate
    emitted = 0
    while emitted < 45:
        u, v = rng.choice(N_OOKG_UNSEEN, size=2, replace=False)
        pid = ookg_predicates[int(rng.integers(N_OOKG_PREDICATES))]
        emitted += emit("test", ookg_ids[u], pid, ookg_ids[v])

    store_facts = sorted(KgFact(*key) for key in facts_seen)
    store = build_store(entries)

    files = {
        "kg_entries": [
            {"id": e.id, "kind": e.kind.value, "label": e.label,
             "description": e.description, "aliases": list(e.aliases)}
            for e in entries
        ],
        "kg_facts": [
            {"subject": f.subject_id, "predicate": f.predicate_id, "object": f.object_id}
            for f in store_facts
        ],
        "train_oie": oie_records["train"],
        "train_pairs": pair_records["train"],
        "test_oie": oie_records["test"],
        "test_pairs": pair_records["test"],
    }

    train, test = _run_pipeline(store, files)
    brkg = restrict_to_benchmark(store, train + test)
    return ToyWorld(store=store, brkg=brkg, train=train, test=test, files=files)


def _run_pipeline(store, files):
    """The benchmark construction pipeline over the raw records."""

    def parse(portion):
        grouped: dict[str, list[OieTriple]] = {}
        for record in files[f"{portion}_oie"]:
            grouped.setdefault(record["sentence_id"], []).append(
                OieTriple(subject=record["subject"], relation=record["relation"],
                          object=record["object"], extractor=record.get("extractor"))
            )
        pairs = [
            SentenceFactPair(
                sentence_id=record["sentence_id"], sentence=record["sentence"],
                fact=KgFact(record["subject"], record["predicate"], record["object"]),
            )
            for record in files[f"{portion}_pairs"]
        ]
        return grouped, pairs

    train_oies, train_pairs = parse("train")
    test_oies, test_pairs = parse("test")
    train = augment_aliases(align(train_oies, train_pairs, store), store)
    test = augment_aliases(align(test_oies, test_pairs, store), store)
    train = remove_leakage(train, test)
    return train, test


def write_input_files(world: ToyWorld, directory) -> dict:
    """Materialize the raw record lists as the CLI's input files."""
    paths = {}
    for name, records in world.files.items():
        path = directory / f"{name}.jsonl"
        write_jsonl(path, records)
        paths[name] = path
    return paths
