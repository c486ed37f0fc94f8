"""In-process span tracer for the factlink package.

``Tracer.installed()`` wraps every public function of the layer modules
and a few public methods, and rebinds each wrapper wherever the package
looks the function up (``ookg.topk`` and ``cli.link`` as well as
``preranker.topk`` and ``preranker.link``). Each call records one span:
name id, start, end, parent span and the trace id of the CLI stage it ran
in. Spans stay in memory in flat arrays; ``save`` writes them at the end.
A few hooks count work at the same boundaries (store entries, compile
cache hits, candidates scored) for the ratios the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("kg", "corpus", "splits", "encoder", "preranker", "reranker", "ookg", "evalkit", "cli")

# public methods traced besides module-level functions: (layer, class, method)
METHODS = (
    ("encoder", "FeatureHasher", "compile"),
    ("encoder", "ReferenceEncoder", "slot_embed"),
    ("encoder", "ReferenceEncoder", "entry_embed"),
    ("ookg", "ConfidenceDetector", "decide"),
    ("ookg", "EntropyDetector", "decide"),
    ("ookg", "QkvDetector", "decide"),
    ("ookg", "RandomDetector", "decide"),
    ("ookg", "ConstantDetector", "decide"),
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self.stages: list[str] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.gold_hits = 0
        self.gold_total = 0
        self._stack: list[int] = []
        self._rerank_sets: list[set] = []
        self._clock = None

    # -- recording ------------------------------------------------------

    def begin_stage(self, label: str) -> None:
        self.stages.append(label)

    @property
    def trace_id(self) -> int:
        return len(self.stages) - 1

    def count(self, key: str, value: float = 1) -> None:
        self.counters[self.trace_id][key] += value

    def _wrap(self, name: str, fn, before=None, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.trace.append(self.trace_id)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result, token)
            return result

        return traced

    def _hooks(self):
        """name -> (before, after) for the spans that also count work."""
        count = self.count

        def compile_before(args, kwargs):
            return _arg(args, kwargs, 1, "text") in args[0]._cache

        def entry_before(args, kwargs):
            entry = _arg(args, kwargs, 1, "entry")
            masked = (len(args) > 2 and args[2]) or kwargs.get("mask_description", False)
            masked = bool(masked) or entry.description is None
            return (entry.id, masked) not in args[0]._entry_cache

        def rerank_after(args, kwargs, result, _):
            candidates = _arg(args, kwargs, 4, "candidates")
            count("reranker.candidates_scored", len(candidates))
            self._rerank_sets.append({c.to_fact() for c in candidates})

        def evaluate_before(args, kwargs):
            self._rerank_sets = []

        def evaluate_after(args, kwargs, result, _):
            alignments = _arg(args, kwargs, 1, "alignments")
            count("evalkit.samples", len(alignments))
            if len(self._rerank_sets) == len(alignments):
                self.gold_total += len(alignments)
                self.gold_hits += sum(
                    a.fact in s for a, s in zip(alignments, self._rerank_sets)
                )

        def save_index_after(args, kwargs, result, _):
            count("preranker.index_bytes", Path(_arg(args, kwargs, 1, "path")).stat().st_size)

        def params_after(args, kwargs, result, _):
            params = result[0]
            nbytes = sum(
                a.nbytes for a in
                (params.feature_table, params.slot_projection, params.entry_projection)
            )
            self.counters[self.trace_id]["encoder.params_bytes"] = nbytes

        def kg_after(args, kwargs, result, _):
            self.counters[self.trace_id]["kg.entries"] = len(result.entries)

        def split_after(args, kwargs, result, _):
            spec = _arg(args, kwargs, 0, "spec")
            self.counters[self.trace_id][f"splits.samples.{spec.kind.value}"] = result.stats.samples

        def examples_after(key, config_position, per_alignment):
            def after(args, kwargs, result, _):
                config = _arg(args, kwargs, config_position, "config")
                count(key, per_alignment(config) * len(args[0]) * config.epochs)
            return after

        return {
            "kg.load_kg": (None, kg_after),
            "corpus.read_oie_file": (
                None, lambda a, k, r, t: count("corpus.oie_read", sum(map(len, r.values())))
            ),
            "corpus.align": (None, lambda a, k, r, t: count("corpus.aligned", len(r))),
            "corpus.augment_aliases": (
                None, lambda a, k, r, t: count("corpus.augmented", len(r) - len(a[0]))
            ),
            "corpus.remove_leakage": (
                None, lambda a, k, r, t: count("corpus.leakage_dropped", len(a[0]) - len(r))
            ),
            "splits.build_split": (None, split_after),
            "encoder.load_params": (None, params_after),
            "encoder.FeatureHasher.compile": (
                compile_before, lambda a, k, r, hit: count("encoder.compile_hits", hit)
            ),
            "encoder.ReferenceEncoder.entry_embed": (
                entry_before, lambda a, k, r, miss: count("encoder.entry_embed_misses", miss)
            ),
            "preranker.topk": (
                None, lambda a, k, r, t: count("preranker.topk_rows_scanned", len(a[0]))
            ),
            "preranker.save_index": (None, save_index_after),
            "preranker.train_preranker": (
                None, examples_after("preranker.train_examples", 2, lambda c: 1)
            ),
            "reranker.build_neighbor_lists": (
                None, lambda a, k, r, t: count("reranker.neighbor_rows", len(a[0]))
            ),
            "reranker.train_reranker": (
                None,
                examples_after("reranker.train_pairs", 3, lambda c: 1 + c.negatives_per_positive),
            ),
            "reranker.rerank": (None, rerank_after),
            "ookg.train_qkv": (None, examples_after("ookg.qkv_examples", 3, lambda c: 3)),
            "evalkit.evaluate_linker": (evaluate_before, evaluate_after),
        }

    @contextlib.contextmanager
    def installed(self, clock):
        """Wrap the package's public functions for the duration of the block."""
        self._clock = clock
        modules = {layer: importlib.import_module(f"factlink.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        wrappers = {}
        patches = []  # (owner, attribute, original) to restore
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[obj] = self._wrap(name, obj, *hooks.get(name, (None, None)))
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            name = f"{layer}.{cls_name}.{method}"
            patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, *hooks.get(name, (None, None))))
        for module_name, module in list(sys.modules.items()):
            if module_name != "factlink" and not module_name.startswith("factlink."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        commands = modules["cli"].COMMANDS
        saved_commands = dict(commands)
        for key, fn in saved_commands.items():
            commands[key] = wrappers.get(fn, fn)
        try:
            yield self
        finally:
            commands.update(saved_commands)
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        return {
            "name": name, "start": start, "end": end, "parent": parent,
            "trace": np.frombuffer(self.trace, dtype=np.int32),
            "duration": duration, "self": duration - child,
        }

    def save(self, path: Path) -> None:
        """Spans as compressed numpy arrays plus the name and stage tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.arrays()
        np.savez_compressed(
            path,
            name=spans["name"], start=spans["start"], end=spans["end"],
            parent=spans["parent"], trace=spans["trace"],
            names=np.array(json.dumps(self.names)), stages=np.array(json.dumps(self.stages)),
        )
