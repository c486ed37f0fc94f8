"""The package surface that perfbench's span tracer (perfbench/tracer.py)
reads by position or by attribute name. Changing any of it is a benchmark
change, so it fails here first."""

import inspect

import numpy as np
import pytest

from factlink import cli, corpus, encoder, evalkit, kg, ookg, preranker, reranker, splits
from factlink.encoder import EncoderConfig, FeatureHasher, ReferenceEncoder, init_params


def parameter(fn, position):
    return list(inspect.signature(fn).parameters)[position]


@pytest.mark.parametrize("fn,position,name", [
    (reranker.rerank, 4, "candidates"),
    (preranker.train_preranker, 2, "config"),
    (reranker.train_reranker, 3, "config"),
    (ookg.train_qkv, 3, "config"),
    (preranker.topk, 0, "index"),
    (preranker.save_index, 1, "path"),
    (encoder.FeatureHasher.compile, 1, "text"),
    (encoder.ReferenceEncoder.entry_embed, 1, "entry"),
    (encoder.ReferenceEncoder.entry_embed, 2, "mask_description"),
    (encoder.ReferenceEncoder.slot_embed, 2, "with_context"),
    (evalkit.evaluate_linker, 1, "alignments"),
    (splits.build_split, 0, "spec"),
], ids=lambda value: getattr(value, "__qualname__", str(value)))
def test_argument_positions(fn, position, name):
    assert parameter(fn, position) == name


@pytest.mark.parametrize("layer,cls,method", [
    ("encoder", "FeatureHasher", "compile"),
    ("encoder", "ReferenceEncoder", "slot_embed"),
    ("encoder", "ReferenceEncoder", "entry_embed"),
    ("ookg", "ConfidenceDetector", "decide"),
    ("ookg", "EntropyDetector", "decide"),
    ("ookg", "QkvDetector", "decide"),
    ("ookg", "RandomDetector", "decide"),
    ("ookg", "ConstantDetector", "decide"),
])
def test_traced_methods_are_defined_on_their_class(layer, cls, method):
    module = {"encoder": encoder, "ookg": ookg}[layer]
    assert inspect.isfunction(getattr(module, cls).__dict__[method])


def test_hooked_functions_exist():
    for module, name in (
        (kg, "load_kg"), (corpus, "read_oie_file"), (corpus, "align"),
        (corpus, "augment_aliases"), (corpus, "remove_leakage"), (splits, "build_split"),
        (encoder, "load_params"), (preranker, "topk"), (preranker, "save_index"),
        (preranker, "train_preranker"), (reranker, "build_neighbor_lists"),
        (reranker, "train_reranker"), (reranker, "rerank"), (ookg, "train_qkv"),
        (evalkit, "evaluate_linker"),
    ):
        assert inspect.isfunction(getattr(module, name)), f"{module.__name__}.{name}"
    assert callable(cli.COMMANDS["evaluate"])


def test_cache_attributes_are_dicts():
    params = init_params(EncoderConfig(dim=4, hidden=3, buckets=16), seed=0)
    assert isinstance(ReferenceEncoder(params)._entry_cache, dict)
    assert isinstance(FeatureHasher(16)._cache, dict)


def test_loaded_params_expose_the_counted_arrays(tmp_path):
    params = init_params(EncoderConfig(dim=4, hidden=3, buckets=16), seed=0)
    params.rows_of(np.array([1, 5]))
    encoder.save_params(params, tmp_path / "preranker.params")
    loaded = encoder.load_params(tmp_path / "preranker.params")[0]
    for name in ("feature_table", "slot_projection", "entry_projection"):
        assert isinstance(getattr(loaded, name), np.ndarray)


def test_link_check_embeds_a_linked_triple(tmp_path):
    """perfbench's link check re-embeds a links.jsonl row: a keyword-built
    OieTriple, an encoder over ``load_params(path)[0]`` and ``slot_embed``
    with ``with_context`` as its second argument."""
    params = init_params(EncoderConfig(dim=4, hidden=3, buckets=16), seed=0)
    encoder.save_params(params, tmp_path / "preranker.params")
    served = ReferenceEncoder(encoder.load_params(tmp_path / "preranker.params")[0])
    triple = corpus.OieTriple(subject="Ann", relation="knows", object="Bob")
    queries = served.slot_embed(triple, False)
    assert [query.shape for query in queries] == [(4,)] * 3
    with_sentence = corpus.OieTriple(subject="Ann", relation="knows", object="Bob",
                                     sentence="Ann knows Bob.")
    in_context = served.slot_embed(with_sentence, True)
    assert not np.array_equal(in_context[0], queries[0])


def test_load_kg_result_exposes_its_entries(tmp_path):
    """The ``kg.load_kg`` hook counts ``len(result.entries)``."""
    (tmp_path / "entries.jsonl").write_text('{"id": "Q1", "kind": "entity", "label": "Ann"}\n')
    (tmp_path / "facts.jsonl").write_text("")
    store = kg.load_kg(tmp_path / "entries.jsonl", tmp_path / "facts.jsonl")
    assert len(store.entries) == 1


def test_split_hook_reads_the_kind_value_and_sample_count():
    """The ``splits.build_split`` hook keys on ``spec.kind.value`` and counts
    ``result.stats.samples``."""
    fact = kg.KgFact("Q1", "P1", "Q2")
    alignment = corpus.Alignment(corpus.OieTriple("Ann", "knows", "Bob"), fact)
    spec = splits.SplitSpec(splits.SplitKind.TRANSDUCTIVE)
    result = splits.build_split(spec, [alignment], [], kg.build_store([]))
    assert isinstance(spec.kind.value, str)
    assert isinstance(result.stats.samples, int)


def test_rerank_and_evaluate_hooks_compare_facts():
    """The rerank hook collects ``CandidateFact.to_fact()``; the evaluate
    hook looks each ``Alignment.fact`` up among them."""
    candidate = reranker.CandidateFact("Q1", "P1", "Q2")
    alignment = corpus.Alignment(corpus.OieTriple("Ann", "knows", "Bob"),
                                 kg.KgFact("Q1", "P1", "Q2"))
    assert alignment.fact in {candidate.to_fact()}


@pytest.mark.parametrize("config,name", [
    (preranker.PrerankTrainConfig(), "epochs"),
    (reranker.RerankTrainConfig(), "epochs"),
    (ookg.QkvTrainConfig(), "epochs"),
    (reranker.RerankTrainConfig(), "negatives_per_positive"),
], ids=lambda value: type(value).__name__ if not isinstance(value, str) else value)
def test_trainer_configs_expose_the_counted_fields(config, name):
    """The trainer hooks count examples from these config fields."""
    assert isinstance(getattr(config, name), int)
