"""Command-line pipeline: benchmark construction, training, indexing,
linking, evaluation and out-of-KG detection.

Configuration lives in one JSON document (``--config`` or the
FACTLINK_CONFIG environment variable); any key is overridable with
``--set section.key=value``, flags win over the file, and a command's
flag sets its config key (``link --k`` is ``link_k``). Every artifact file
carries a {tool_version, config_hash, seed} header; re-running a stage
with an identical resolved config reproduces identical bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import align, augment_aliases, read_alignments, read_oie_file, read_pairs_file, remove_leakage, write_alignments
from .encoder import EncoderConfig, ReferenceEncoder, load_params, save_params
from .errors import DataError, NumericError
from .evalkit import (
    evaluate_linker,
    format_table,
    frequency_baseline,
    random_baseline,
    report_records,
)
from .io import canonical_json, read_jsonl, reading_artifact, unencodable_key, write_jsonl
from .kg import load_kg, restrict_to_benchmark
from .ookg import (
    ConfidenceDetector,
    ConstantDetector,
    Decision,
    EntropyDetector,
    OokgThresholds,
    QkvDetector,
    QkvTrainConfig,
    RandomDetector,
    calibrate_all_thresholds,
    load_qkv_params,
    ookg_evaluate,
    save_qkv_params,
    thresholds_from_record,
    thresholds_record,
    train_qkv,
)
from .preranker import (
    IndexKind,
    PrerankTrainConfig,
    build_store_indices,
    link,
    load_index,
    save_index,
    train_preranker,
)
from .reranker import (
    RerankTrainConfig,
    enumerate_candidates,
    load_cross_params,
    rerank,
    save_cross_params,
    store_neighbor_lists,
    train_reranker,
    write_neighbor_lists,
)
from .rng import stream_seed
from .splits import InductiveMode, SplitKind, SplitSpec, build_split

log = logging.getLogger("factlink")

FACETS = tuple(kind.value for kind in SplitKind)

DETECTORS = ("confidence", "entropy", "qkv", "random", "always-in")

DEFAULT_CONFIG = {
    "seed": 0,
    "out_dir": "out",
    "case_fold": False,
    "kg_min_count": 0,
    "augment": True,
    "inductive_mode": "any-entity-unseen",
    "store_variant": "brkg",
    "encoder": dataclasses.asdict(EncoderConfig()),
    "preranker": {},
    "reranker": {},
    "ookg": {},
    "rerank_k": 3,
    "with_context": False,
    "detector": "entropy",
    "link_k": 1,
}

PATH_KEYS = (
    "kg_entries", "kg_facts", "train_oie", "test_oie", "link_oie", "train_pairs", "test_pairs",
    "train_alignments", "test_alignments", "calibration_alignments", "facet_alignments",
    "preranker_params", "reranker_params", "qkv_params", "thresholds",
)
# the top-level keys without a default are the path-valued ones and qkv_key_pool
KNOWN_KEYS = frozenset(DEFAULT_CONFIG) | {*PATH_KEYS, "qkv_key_pool"}

# path key -> (its default file under out_dir, what the file holds, the stage that writes it)
INPUTS = {
    "train_alignments": ("alignments.jsonl", "training alignments", "build-benchmark"),
    "calibration_alignments": ("alignments.jsonl", "calibration alignments", "build-benchmark"),
    "facet_alignments": ("split-{facet}.jsonl", "split file", "build-benchmark or split"),
    "preranker_params": ("preranker.params", "encoder params", "train-preranker"),
    "reranker_params": ("reranker.params", "reranker params", "train-reranker"),
    "qkv_params": ("qkv.params", "qkv params", "train-ookg"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def _positive_int(value, name: str) -> int:
    if type(value) is not int or value < 1:
        raise UsageError(f"{name} must be a positive integer, got {value!r}")
    return value


def load_config(
    path: str | None, overrides: list[str], out_dir: str | None = None, seed: int | None = None
) -> dict:
    """The default config, updated by the file at ``path`` (else
    ``$FACTLINK_CONFIG``), the ``--set`` overrides, then ``out_dir`` and
    ``seed`` when given; an unknown or ill-kinded top-level key, or a lone
    surrogate in one, is a usage error."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    path = path or os.environ.get("FACTLINK_CONFIG")
    if path:
        if not Path(path).exists():
            raise DataError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except ValueError as exc:  # undecodable bytes or malformed JSON
                raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        _deep_update(config, document)
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = config
        *parents, leaf = dotted.split(".")
        for parent in parents:
            target = target.setdefault(parent, {})
            if not isinstance(target, dict):
                raise UsageError(f"--set {dotted}: {parent!r} is not a JSON object")
        target[leaf] = value
    if out_dir:
        config["out_dir"] = out_dir
    if seed is not None:
        config["seed"] = seed
    for key in config:
        if key not in KNOWN_KEYS:
            raise UsageError(f"unknown config key {key!r}")
    for key, choices in (
        ("inductive_mode", [mode.value for mode in InductiveMode]),
        ("store_variant", ["brkg", "large"]),
        ("detector", list(DETECTORS)),
    ):
        if config[key] not in choices:
            raise UsageError(f"{key} must be one of {choices}, got {config[key]!r}")
    for key, kind in (
        ("seed", int), ("kg_min_count", int), ("out_dir", str),
        ("case_fold", bool), ("augment", bool), ("with_context", bool),
    ):
        if type(config[key]) is not kind:
            raise UsageError(f"{key} must be a {kind.__name__}, got {config[key]!r}")
    if not -2**63 <= config["seed"] < 2**63:  # stream_seed keys on its 8 bytes
        raise UsageError(f"seed must fit in a signed 64-bit integer, got {config['seed']!r}")
    if config["kg_min_count"] < 0:
        raise UsageError(f"kg_min_count must be >= 0, got {config['kg_min_count']!r}")
    if not config["out_dir"]:
        raise UsageError("out_dir must not be empty")
    for key in ("link_k", "rerank_k", "qkv_key_pool"):
        if key in config:
            _positive_int(config[key], key)
    for key in PATH_KEYS:  # null means unset
        value = config.get(key)
        if value is not None and (type(value) is not str or not value):
            raise UsageError(f"{key} must be a non-empty path string, got {value!r}")
    if (key := unencodable_key(config)) is not None:  # config_hash encodes it as UTF-8
        raise UsageError(f"config key {key!r} holds a lone surrogate")
    return config


def _fold_flags(config: dict, args) -> dict:
    """``config`` with the command's flags in their config keys, so that an
    artifact header hashes the values its stage ran with."""
    if getattr(args, "k", None) is not None:
        config["link_k"] = _positive_int(args.k, "--k")
    if getattr(args, "rerank_k", None) is not None:
        config["rerank_k"] = _positive_int(args.rerank_k, "--rerank-k")
    if getattr(args, "detector", None) is not None:
        config["detector"] = args.detector
    return config


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


def artifact_header(config: dict) -> dict:
    return {
        "tool_version": __version__,
        "config_hash": config_hash(config),
        "seed": config["seed"],
    }


def _path_value(config: dict, key: str) -> Path | None:
    """Config ``key`` as a path, None when unset (``load_config`` checked it)."""
    value = config.get(key)
    return None if value is None else Path(value)


def _require_paths(config: dict, *keys: str) -> list[Path]:
    paths = []
    for key in keys:
        path = _path_value(config, key)
        if path is None:
            raise DataError(f"config key {key!r} is required for this command")
        if not path.exists():
            raise DataError(f"input path for {key!r} does not exist: {path}")
        paths.append(path)
    return paths


def _input_path(config: dict, key: str, facet: str | None = None) -> Path:
    """Config ``key``, else its ``INPUTS`` default under ``out_dir``; a
    missing file is a data error naming the path and the stage that writes it."""
    name, what, producer = INPUTS[key]
    path = _path_value(config, key) or Path(config["out_dir"]) / name.format(facet=facet)
    if not path.exists():
        raise DataError(f"{what} not found: {path} (run {producer} first)")
    return path


def _input_alignments(config: dict, key: str, store, facet: str | None = None):
    return read_alignments(_input_path(config, key, facet), store)


def _out_dir(config: dict) -> Path:
    out = Path(config["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_store(config: dict):
    entries_path, facts_path = _require_paths(config, "kg_entries", "kg_facts")
    return load_kg(entries_path, facts_path, config["case_fold"], config["kg_min_count"])


def _store_variant(config: dict, store, alignments):
    if config["store_variant"] == "large":
        return store, "Large"
    return restrict_to_benchmark(store, alignments), "BRKG"


def _benchmark_alignments(config: dict, store, portion: str):
    oie_path, pairs_path = _require_paths(config, f"{portion}_oie", f"{portion}_pairs")
    oies = read_oie_file(oie_path)
    pairs = read_pairs_file(pairs_path, store)
    alignments = align(oies, pairs, store)
    if config["augment"]:
        alignments = augment_aliases(alignments, store)
    return alignments


def _section(config: dict, name: str, cls, **fixed):
    """``cls`` from config section ``name`` and the values ``fixed`` that the
    stage derives from the top level. A key among ``fixed``, an unknown key,
    a wrong type or a value ``cls`` rejects is a usage error."""
    section = config[name]
    if not isinstance(section, dict):
        raise UsageError(f"config section {name!r} must be a JSON object")
    known = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, value in section.items():
        if key in fixed:
            raise UsageError(f"config section {name!r}: {key} is set only at the top level")
        if key not in known:
            raise UsageError(f"config section {name!r}: unknown key {key!r}")
        kind = type(known[key])  # an int stands in for a float
        if type(value) is not kind and (kind, type(value)) != (float, int):
            raise UsageError(f"config section {name!r}: {key} must be a {kind.__name__}, "
                             f"got {value!r}")
    try:
        return cls(**section, **fixed)
    except ValueError as exc:
        raise UsageError(f"config section {name!r}: {exc}") from None


def _load_encoder(config: dict) -> ReferenceEncoder:
    params, _tau = load_params(_input_path(config, "preranker_params"))
    return ReferenceEncoder(params)


def _inputs_digest(config: dict, encoder: ReferenceEncoder) -> str:
    """sha256 of what the store vectors are built from: the feature-table
    shape, its held ids and rows, both projections and the KG entries.
    Take it before the encoder embeds anything: embedding draws rows."""
    params = encoder.params
    digest = hashlib.sha256(repr((params.buckets, params.hidden)).encode("utf-8"))
    for array in (params.table_ids, params.feature_table,
                  params.slot_projection, params.entry_projection):
        digest.update(array.tobytes())
    digest.update(_require_paths(config, "kg_entries")[0].read_bytes())
    return digest.hexdigest()


def _store_indices(config: dict, encoder: ReferenceEncoder, store) -> tuple:
    """Entity and predicate indices of ``store``: the FLIX files that
    ``index`` wrote, as loaded or as row subsets, when they hold all its
    entries, else embedded. FLIX files built from other inputs, or that
    ``load_index`` rejects (such as one holding the other slot's kind), are
    a data error."""
    paths = [Path(config["out_dir"]) / f"{name}.flix" for name in ("entities", "predicates")]
    wanted = (tuple(store.entity_ids()), tuple(store.predicate_ids()))
    if all(path.exists() for path in paths):
        digest = _inputs_digest(config, encoder)
        for meta in (path.with_suffix(".flix.meta.json") for path in paths):
            with reading_artifact(meta):
                recorded = json.loads(meta.read_text("utf-8")) if meta.exists() else {}
                if recorded.get("inputs_sha256") != digest:
                    raise DataError(f"{meta}: built from other params or KG entries; run index")
        indices = tuple(map(load_index, paths, IndexKind))
        indices = tuple(index if index.ids == ids else index.subset(np.isin(index.ids, ids))
                        for index, ids in zip(indices, wanted))
        if all(index.ids == ids for index, ids in zip(indices, wanted)):
            return indices
    return build_store_indices(encoder, store)


# ---------------------------------------------------------------------------
# Subcommands


def _write_facet(config: dict, header: dict, facet: str, test, train, polysemy_store) -> dict:
    """Write ``facet``'s split file under ``out_dir``; its stats record."""
    spec = SplitSpec(SplitKind(facet), InductiveMode(config["inductive_mode"]))
    result = build_split(spec, test, train, polysemy_store)
    write_alignments(Path(config["out_dir"]) / f"split-{facet}.jsonl", result.alignments,
                     header=header)
    return {"split": facet, **result.stats.to_record()}


def cmd_build_benchmark(config: dict, args, header: dict) -> int:
    store = _load_store(config)
    out = _out_dir(config)

    train = _benchmark_alignments(config, store, "train")
    test = _benchmark_alignments(config, store, "test")
    train = remove_leakage(train, test, case_fold=config["case_fold"])
    write_alignments(out / "alignments.jsonl", train, header=header)

    polysemy_store, _tag = _store_variant(config, store, train + test)
    stats_records = [_write_facet(config, header, facet, test, train, polysemy_store)
                     for facet in FACETS]
    write_jsonl(out / "stats.jsonl", stats_records, header=header)
    log.info("benchmark written to %s (train=%d, test=%d)", out, len(train), len(test))
    print(f"alignments: {len(train)} train, {len(test)} test; splits: "
          + ", ".join(f"{r['split']}={r['# Total Samples']}" for r in stats_records))
    return 0


def cmd_split(config: dict, args, header: dict) -> int:
    store = _load_store(config)
    out = _out_dir(config)
    train_path, test_path = _require_paths(config, "train_alignments", "test_alignments")
    train = read_alignments(train_path, store)
    test = read_alignments(test_path, store)
    polysemy_store, _tag = _store_variant(config, store, train + test)
    record = _write_facet(config, header, args.facet, test, train, polysemy_store)
    write_jsonl(out / f"split-{args.facet}.stats.jsonl", [record], header=header)
    print(f"{args.facet}: {record['# Total Samples']} alignments")
    return 0


def cmd_train_preranker(config: dict, args, header: dict) -> int:
    train_config = _section(
        config, "preranker", PrerankTrainConfig, seed=stream_seed(config["seed"], "negatives")
    )
    encoder_config = _section(config, "encoder", EncoderConfig)
    store = _load_store(config)
    alignments = _input_alignments(config, "train_alignments", store)
    out = _out_dir(config)
    params_path = out / "preranker.params"

    initial_params = initial_tau = None
    if args.resume:
        if not params_path.exists():
            raise DataError(f"cannot resume: {params_path} does not exist")
        initial_params, initial_tau = load_params(params_path)
        held = (initial_params.dim, initial_params.hidden, initial_params.buckets)
        wanted = dataclasses.astuple(encoder_config)
        if held != wanted:
            raise DataError(f"cannot resume: {params_path} was trained at encoder (dim, hidden, "
                            f"buckets) {held}, not {wanted}")

    params, trace = train_preranker(
        alignments, store, train_config, encoder_config,
        initial_params=initial_params, initial_tau=initial_tau,
        with_context=config["with_context"],
    )
    save_params(params, params_path, tau=trace[-1]["tau"], header=header)
    held = len(params.table_ids)
    log.info("feature table: %d of %d rows learned (%.2f%%)",
             held, params.buckets, 100 * held / params.buckets)
    write_jsonl(out / "preranker.trace.jsonl", trace, header=header)
    print(f"final loss {trace[-1]['mean_loss']:.6f} tau {trace[-1]['tau']:.4f}")
    return 0


def cmd_train_reranker(config: dict, args, header: dict) -> int:
    train_config = _section(
        config, "reranker", RerankTrainConfig, seed=stream_seed(config["seed"], "corruption")
    )
    store = _load_store(config)
    alignments = _input_alignments(config, "train_alignments", store)
    encoder = _load_encoder(config)
    out = _out_dir(config)

    indices = build_store_indices(encoder, store)
    neighbors = store_neighbor_lists(indices, train_config.hard_negative_pool)
    masked = build_store_indices(encoder, store, mask_description=True)
    params, trace = train_reranker(
        alignments, encoder, indices, train_config, neighbors, masked, config["with_context"]
    )
    save_cross_params(params, out / "reranker.params", header=header)
    write_jsonl(out / "reranker.trace.jsonl", trace, header=header)
    write_neighbor_lists(out / "neighbors.jsonl", neighbors, header=header)
    print(f"final loss {trace[-1]['mean_loss']:.6f}")
    return 0


def cmd_train_ookg(config: dict, args, header: dict) -> int:
    train_config = _section(
        config, "ookg", QkvTrainConfig, seed=stream_seed(config["seed"], "calibration")
    )
    store = _load_store(config)
    alignments = _input_alignments(config, "calibration_alignments", store)
    encoder = _load_encoder(config)
    out = _out_dir(config)
    indices = build_store_indices(encoder, store)

    params, trace = train_qkv(alignments, encoder, indices, train_config, config["with_context"])
    # calibrate before writing anything, so a failure leaves the previous files
    if train_config.calibrate_thresholds:
        thresholds, grid_meta = calibrate_all_thresholds(
            alignments, indices, encoder, attention=train_config.attention_threshold,
            grid_size=train_config.grid_size, with_context=config["with_context"],
        )
    else:
        thresholds = OokgThresholds(attention=train_config.attention_threshold)
        grid_meta = {"grid_size": train_config.grid_size, "calibrated": False}
    save_qkv_params(params, out / "qkv.params", header=header)
    write_jsonl(out / "qkv.trace.jsonl", trace, header=header)
    write_jsonl(out / "thresholds.jsonl", [thresholds_record(thresholds, grid_meta)], header=header)
    print(f"final loss {trace[-1]['mean_loss']:.6f}")
    return 0


def _index_store(config: dict, store):
    """The store ``index`` writes and ``link`` serves: BRKG over the training
    alignments and every split file present, or the whole KG under ``large``."""
    if config["store_variant"] == "large":
        return store
    referenced = _input_alignments(config, "train_alignments", store)
    for facet in FACETS:  # the benchmark covers the test facets too
        split_path = Path(config["out_dir"]) / f"split-{facet}.jsonl"
        if split_path.exists():
            referenced = referenced + read_alignments(split_path, store)
    return restrict_to_benchmark(store, referenced)


def cmd_index(config: dict, args, header: dict) -> int:
    store = _index_store(config, _load_store(config))
    encoder = _load_encoder(config)
    out = _out_dir(config)
    meta = {**header, "inputs_sha256": _inputs_digest(config, encoder)}
    entity_index, predicate_index = build_store_indices(encoder, store)
    for index, name in ((entity_index, "entities"), (predicate_index, "predicates")):
        save_index(index, out / f"{name}.flix")
        (out / f"{name}.flix.meta.json").write_text(canonical_json(meta) + "\n", "utf-8")
    print(f"indexed {len(entity_index)} entities, {len(predicate_index)} predicates")
    return 0


def cmd_link(config: dict, args, header: dict) -> int:
    store = _index_store(config, _load_store(config))
    encoder = _load_encoder(config)
    (oie_path,) = _require_paths(config, "link_oie")
    oies = read_oie_file(oie_path)
    out = _out_dir(config)
    entity_index, predicate_index = _store_indices(config, encoder, store)
    k = config["link_k"]
    triples = [(sentence_id, triple)
               for sentence_id in sorted(oies) for triple in oies[sentence_id]]
    results = link(encoder, entity_index, predicate_index, [triple for _, triple in triples], k,
                   config["with_context"])
    records = (
        {
            "sentence_id": sentence_id,
            "subject": triple.subject,
            "relation": triple.relation,
            "object": triple.object,
            "subject_candidates": [[i, s] for i, s in result.subject],
            "relation_candidates": [[i, s] for i, s in result.relation],
            "object_candidates": [[i, s] for i, s in result.object],
        }
        for (sentence_id, triple), result in zip(triples, results)
    )
    write_jsonl(out / "links.jsonl", records, header=header)
    print(f"linked {sum(len(v) for v in oies.values())} OIE triples at k={k}")
    return 0


def cmd_evaluate(config: dict, args, header: dict) -> int:
    if args.rerank_k is not None and not args.use_reranker:
        raise UsageError("--rerank-k needs --use-reranker")
    if args.use_reranker and args.linker != "preranker":
        raise UsageError(f"--use-reranker needs the preranker linker, not {args.linker!r}")
    store = _load_store(config)
    test = _input_alignments(config, "facet_alignments", store, args.facet)
    if not test:
        raise DataError(f"facet {args.facet!r} is empty")
    train = _input_alignments(config, "train_alignments", store)
    eval_store, store_tag = _store_variant(config, store, train + test)
    with_context = config["with_context"]

    if args.linker == "frequency":
        linker = frequency_baseline(train)
    elif args.linker == "random":
        linker = random_baseline(eval_store, seed=stream_seed(config["seed"], "baseline"))
    else:
        encoder = _load_encoder(config)
        indices = _store_indices(config, encoder, eval_store)
        k = 1
        if args.use_reranker:
            k = config["rerank_k"]
            scorer = load_cross_params(_input_path(config, "reranker_params"), encoder.dim)
            log.info("reranking %d candidates per OIE", k**3)
        triples = [alignment.oie for alignment in test]
        results = dict(zip(triples, link(encoder, *indices, triples, k, with_context)))
        if args.use_reranker:

            def linker(triple):
                best, _scores = rerank(scorer, encoder, indices, triple,
                                       enumerate_candidates(results[triple]), with_context)
                return best.to_fact()

        else:

            def linker(triple):
                return results[triple].linked_fact

    report = evaluate_linker(linker, test, split=args.facet, store=store_tag)
    out = _out_dir(config)
    suffix = f"{args.facet}-{store_tag.lower()}"
    write_jsonl(out / f"report-{suffix}.jsonl", report_records(report), header=header)
    print(format_table(report))
    return 0


def cmd_detect(config: dict, args, header: dict) -> int:
    store = _load_store(config)
    facet = args.facet or "out-of-kg"
    test = _input_alignments(config, "facet_alignments", store, facet)
    if not test:
        raise DataError(f"facet {facet!r} is empty")
    encoder = _load_encoder(config)
    out = _out_dir(config)

    name = config["detector"]
    thresholds = OokgThresholds()
    thresholds_path = _path_value(config, "thresholds") or out / "thresholds.jsonl"
    if name in ("confidence", "entropy", "qkv") and thresholds_path.exists():
        records = read_jsonl(thresholds_path)
        if not records:
            raise DataError(f"{thresholds_path}: holds no thresholds record")
        thresholds = thresholds_from_record(records[0], thresholds_path)

    if name == "confidence":
        detector = ConfidenceDetector(thresholds)
    elif name == "entropy":
        detector = EntropyDetector(thresholds)
    elif name == "qkv":
        params = load_qkv_params(_input_path(config, "qkv_params"), encoder.dim)
        detector = QkvDetector(params, thresholds, config.get("qkv_key_pool", 64))
    elif name == "random":
        detector = RandomDetector(seed=stream_seed(config["seed"], "detector"))
    else:  # "always-in"; load_config and the parser admit only DETECTORS
        detector = ConstantDetector(Decision.IN_KG)

    report = ookg_evaluate(
        detector, test, _store_indices(config, encoder, store), encoder,
        with_context=config["with_context"],
    )
    write_jsonl(out / f"detection-{name}.jsonl", report.records, header=header)
    slots = " ".join(
        f"{label}={value:.3f}"
        for label, value in zip(("subject", "relation", "object"), report.slot_accuracy)
    )
    print(f"{name}: {slots} fact={report.fact_accuracy:.3f} "
          f"(n={report.trials_per_scenario} per scenario)")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="factlink", description=__doc__)
    parser.add_argument("--config", help="path to the JSON config (or set FACTLINK_CONFIG)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (dotted paths allowed)")
    parser.add_argument("--out-dir", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("build-benchmark", help="align, augment, deduplicate and split")

    split = sub.add_parser("split", help="build one facet from alignment files")
    split.add_argument("--facet", choices=sorted(FACETS), required=True)

    train_pre = sub.add_parser("train-preranker", help="contrastive encoder training")
    train_pre.add_argument("--resume", action="store_true",
                           help="continue from existing params")

    sub.add_parser("train-reranker", help="cross-scorer training")
    sub.add_parser("train-ookg", help="qkv detector training and threshold calibration")
    sub.add_parser("index", help="build and persist entry embedding indices")

    link_cmd = sub.add_parser("link", help="per-slot retrieval for an OIE file")
    link_cmd.add_argument("--k", type=int, default=None)

    evaluate = sub.add_parser("evaluate", help="score a facet and emit a report")
    evaluate.add_argument("--facet", choices=sorted(FACETS), required=True)
    evaluate.add_argument("--linker", choices=("preranker", "frequency", "random"),
                          default="preranker")
    evaluate.add_argument("--use-reranker", action="store_true")
    evaluate.add_argument("--rerank-k", type=int, default=None)

    detect = sub.add_parser("detect", help="out-of-KG detection over a facet")
    detect.add_argument("--facet", choices=sorted(FACETS), default=None)
    detect.add_argument("--detector",
                        choices=DETECTORS,
                        default=None)
    return parser


COMMANDS = {
    "build-benchmark": cmd_build_benchmark,
    "split": cmd_split,
    "train-preranker": cmd_train_preranker,
    "train-reranker": cmd_train_reranker,
    "train-ookg": cmd_train_ookg,
    "index": cmd_index,
    "link": cmd_link,
    "evaluate": cmd_evaluate,
    "detect": cmd_detect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        config = _fold_flags(load_config(args.config, args.set, args.out_dir, args.seed), args)
        header = artifact_header(config)
        # a stage stops at its first overflow (exit 3) and writes no inf or NaN
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return COMMANDS[args.command](config, args, header)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size taken from the config or an input; its text may be empty
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
