"""Traced run: per-layer metrics of one workload.

One round of the stages runs as child processes, which gives
``cli.<stage>`` wall time, peak RSS and exit status. The pipeline then
runs twice in this process through ``factlink.cli.main``, each time from
an empty output directory: untraced, then with every public function of
the layer modules wrapped (see ``tracer``). The ratio of the two walls
is the tracing overhead; the traced pass gives every other per-layer
number. Self time of a span is its duration minus its child spans'.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import bench
from tracer import LAYERS, Tracer

# stage commands whose wall makes up each end-to-end metric's phase
PHASES = {
    "train_s": ("train-preranker", "train-reranker", "train-ookg"),
    "serve_s": ("index", "link", "evaluate", "detect"),
    "link_tps": ("link",),
    "eval_s": ("evaluate",),
    "detect_s": ("detect",),
}
CORPUS = ("corpus.read_oie_file", "corpus.read_pairs_file", "corpus.align",
          "corpus.augment_aliases", "corpus.remove_leakage", "corpus.write_alignments",
          "corpus.read_alignments", "splits.build_split")
# (label, traced functions, end-to-end metric, workload): the phase each
# layer should shorten when it gets faster
PREDICTIONS = (
    ("kg.load_kg", ("kg.load_kg",), "serve_s", "large-kg-serve"),
    ("corpus + splits", CORPUS, "setup_s", "mid-kg-rerank"),
    ("encoder.load_params", ("encoder.load_params",), "serve_s", "toy-train"),
    ("encoder.compile", ("encoder.FeatureHasher.compile",), "train_s", "toy-train"),
    ("encoder.entry_embed", ("encoder.ReferenceEncoder.entry_embed",), "serve_s", "large-kg-serve"),
    ("preranker.train_preranker", ("preranker.train_preranker",), "train_s", "toy-train"),
    ("preranker.topk", ("preranker.topk",), "link_tps", "large-kg-serve"),
    ("preranker.topk", ("preranker.topk",), "eval_s", "large-kg-serve"),
    ("preranker.topk", ("preranker.topk",), "detect_s", "large-kg-serve"),
    ("preranker.topk (no change)", ("preranker.topk",), "serve_s", "toy-train"),
    ("preranker index build/save/load",
     ("preranker.build_store_indices", "preranker.save_index", "preranker.load_index"),
     "setup_s", "large-kg-serve"),
    ("reranker.build_neighbor_lists", ("reranker.build_neighbor_lists",),
     "train_s", "mid-kg-rerank"),
    ("reranker.cross_features", ("reranker.cross_features",), "train_s", "toy-train"),
    ("reranker.cross_features", ("reranker.cross_features",), "train_s", "mid-kg-rerank"),
    ("reranker.rerank", ("reranker.rerank",), "eval_s", "mid-kg-rerank"),
    ("ookg.train_qkv", ("ookg.train_qkv",), "train_s", "toy-train"),
    ("ookg.ookg_evaluate", ("ookg.ookg_evaluate",), "detect_s", "large-kg-serve"),
    ("evalkit.evaluate_linker", ("evalkit.evaluate_linker",), "eval_s", "toy-train"),
    ("evalkit.evaluate_linker", ("evalkit.evaluate_linker",), "eval_s", "large-kg-serve"),
    ("evalkit.evaluate_linker", ("evalkit.evaluate_linker",), "eval_s", "mid-kg-rerank"),
)
TRAINERS = ("preranker.train_preranker", "reranker.train_reranker", "ookg.train_qkv")
# commands every workload runs, so their cli metrics exist on all of them
COMMON_COMMANDS = ("build-benchmark", "train-preranker", "evaluate")

COUNT, S, MS, RATIO = "count", "s", "ms", "ratio"
# per-layer metrics every workload measures (BENCHMARK.json lists these)
PER_LAYER = {
    "kg.load_calls": COUNT, "kg.load_s": S, "kg.entries": COUNT, "kg.self_s": S,
    "corpus.oie_read": COUNT, "corpus.aligned": COUNT, "corpus.augmented": COUNT,
    "corpus.leakage_dropped": COUNT, "corpus.align_s": S, "corpus.read_alignments_s": S,
    "corpus.self_s": S,
    "splits.build_s": S, "splits.samples.transductive": COUNT,
    "splits.samples.inductive": COUNT, "splits.samples.polysemous": COUNT,
    "splits.samples.out-of-kg": COUNT, "splits.self_s": S,
    "encoder.load_params_calls": COUNT, "encoder.load_params_s": S, "encoder.params_mb": "MB",
    "encoder.featurize_calls": COUNT, "encoder.featurize_s": S,
    "encoder.compile_hit_ratio": RATIO, "encoder.entry_embed_calls": COUNT,
    "encoder.entry_embed_s": S, "encoder.store_reembeds": RATIO,
    "encoder.slot_embed_calls": COUNT, "encoder.slot_embed_s": S, "encoder.self_s": S,
    "preranker.train_s": S, "preranker.train_examples_per_s": "1/s",
    "preranker.topk_calls": COUNT, "preranker.topk_s": S, "preranker.topk_p50_ms": MS,
    "preranker.topk_p99_ms": MS, "preranker.topk_samples": COUNT,
    "preranker.topk_rows_scanned": COUNT, "preranker.link_calls": COUNT,
    "preranker.link_s": S, "preranker.build_index_s": S, "preranker.self_s": S,
    "reranker.build_neighbor_lists_calls": COUNT, "reranker.neighbor_rows": COUNT,
    "reranker.cross_features_calls": COUNT, "reranker.rerank_calls": COUNT,
    "reranker.candidates_scored": COUNT,
    "ookg.decisions": COUNT,
    "evalkit.evaluate_linker_self_s": S, "evalkit.samples": COUNT,
    **{f"cli.{c}.{m}": u for c in COMMON_COMMANDS
       for m, u in (("wall_s", S), ("rss_mb", "MB"), ("exit", COUNT))},
    "cli.self_s": S,
    "trace.trainer_share": RATIO, "trace.overhead_ratio": RATIO,
}
# reported only where the layer runs: zero on at least one workload
WORKLOAD_SPECIFIC = {
    "preranker.save_index_s": S, "preranker.load_index_s": S, "preranker.index_mb": "MB",
    "reranker.build_neighbor_lists_s": S, "reranker.cross_features_s": S,
    "reranker.train_pairs_per_s": "1/s", "reranker.rerank_s": S,
    "reranker.gold_in_candidates_ratio": RATIO, "reranker.self_s": S,
    "ookg.train_qkv_s": S, "ookg.qkv_examples_per_s": "1/s", "ookg.evaluate_s": S,
    "ookg.decide_s": S, "ookg.index_variant_build_s": S, "ookg.self_s": S,
}


class Spans:
    """Queries over the traced pass."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        arrays = tracer.arrays()
        self.name = arrays["name"]
        self.parent = arrays["parent"]
        self.trace = arrays["trace"]
        self.duration = arrays["duration"]
        self.self_time = arrays["self"]
        self.layer = np.array([n.split(".")[0] for n in tracer.names] or [""])[self.name]

    def mask(self, names=None, stages=None) -> np.ndarray:
        keep = np.ones(len(self.name), dtype=bool)
        if names is not None:
            ids = [i for i, n in enumerate(self.tracer.names) if n in names]
            keep &= np.isin(self.name, ids)
        if stages is not None:
            keep &= np.isin(self.trace, list(stages))
        return keep

    def total(self, *names) -> float:
        return float(self.duration[self.mask(names)].sum())

    def calls(self, *names) -> int:
        return int(self.mask(names).sum())

    def self_of_layer(self, layer: str) -> float:
        return float(self.self_time[self.layer == layer].sum())

    def outermost(self, names, stages) -> float:
        """Wall covered by the named spans in the stages, nested ones once."""
        chosen = self.mask(names, stages)
        covered = chosen.copy()
        for i in np.flatnonzero(chosen):
            p = self.parent[i]
            while p >= 0:
                if chosen[p]:
                    covered[i] = False
                    break
                p = self.parent[p]
        return float(self.duration[covered].sum())

    def stage_wall(self, stages) -> float:
        return float(self.duration[self.mask(("cli.main",), stages) & (self.parent < 0)].sum())

    def counter(self, key: str) -> float:
        return sum(c[key] for c in self.tracer.counters.values())

    def top_self(self, stage: int, n: int = 5) -> list[tuple[str, float]]:
        in_stage = self.trace == stage
        totals = np.bincount(self.name[in_stage], weights=self.self_time[in_stage],
                             minlength=len(self.tracer.names))
        order = np.argsort(-totals)[:n]
        return [(self.tracer.names[i], float(totals[i])) for i in order if totals[i] > 0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Spans, stage_runs: dict, overhead: float) -> dict[str, float]:
    tracer = spans.tracer
    topk_ms = np.sort(spans.duration[spans.mask(("preranker.topk",))]) * 1e3
    per_stage = tracer.counters.values()
    compile_calls = spans.calls("encoder.FeatureHasher.compile")
    decide = tuple(n for n in tracer.names if n.endswith(".decide"))
    ookg_spans = spans.mask(("ookg.ookg_evaluate",))
    variant_builds = spans.mask(("preranker.build_index",)) & np.isin(
        spans.parent, np.flatnonzero(ookg_spans)
    )
    train_stages = [i for i, s in enumerate(tracer.stages) if s.startswith("train-")]
    metrics = {
        "kg.load_calls": spans.calls("kg.load_kg"),
        "kg.load_s": spans.total("kg.load_kg"),
        "kg.entries": max(c["kg.entries"] for c in per_stage),
        "corpus.oie_read": spans.counter("corpus.oie_read"),
        "corpus.aligned": spans.counter("corpus.aligned"),
        "corpus.augmented": spans.counter("corpus.augmented"),
        "corpus.leakage_dropped": spans.counter("corpus.leakage_dropped"),
        "corpus.align_s": spans.total("corpus.align"),
        "corpus.read_alignments_s": spans.total("corpus.read_alignments"),
        "splits.build_s": spans.total("splits.build_split"),
        **{
            f"splits.samples.{facet}": max(c[f"splits.samples.{facet}"] for c in per_stage)
            for facet in ("transductive", "inductive", "polysemous", "out-of-kg")
        },
        "encoder.load_params_calls": spans.calls("encoder.load_params"),
        "encoder.load_params_s": spans.total("encoder.load_params"),
        "encoder.params_mb": max(c["encoder.params_bytes"] for c in per_stage) / bench.MB,
        "encoder.featurize_calls": spans.calls("encoder.featurize"),
        "encoder.featurize_s": spans.total("encoder.featurize"),
        "encoder.compile_hit_ratio": _ratio(spans.counter("encoder.compile_hits"), compile_calls),
        "encoder.entry_embed_calls": spans.calls("encoder.ReferenceEncoder.entry_embed"),
        "encoder.entry_embed_s": spans.total("encoder.ReferenceEncoder.entry_embed"),
        # entries embedded afresh over entries in the KG, summed over stages
        "encoder.store_reembeds": sum(
            _ratio(c["encoder.entry_embed_misses"], c["kg.entries"]) for c in per_stage
        ),
        "encoder.slot_embed_calls": spans.calls("encoder.ReferenceEncoder.slot_embed"),
        "encoder.slot_embed_s": spans.total("encoder.ReferenceEncoder.slot_embed"),
        "preranker.train_s": spans.total("preranker.train_preranker"),
        "preranker.train_examples_per_s": _ratio(
            spans.counter("preranker.train_examples"), spans.total("preranker.train_preranker")
        ),
        "preranker.topk_calls": len(topk_ms),
        "preranker.topk_s": float(topk_ms.sum() / 1e3),
        "preranker.topk_p50_ms": float(np.percentile(topk_ms, 50)) if len(topk_ms) else 0.0,
        "preranker.topk_p99_ms": float(np.percentile(topk_ms, 99)) if len(topk_ms) else 0.0,
        "preranker.topk_samples": len(topk_ms),
        "preranker.topk_rows_scanned": spans.counter("preranker.topk_rows_scanned"),
        "preranker.link_calls": spans.calls("preranker.link"),
        "preranker.link_s": spans.total("preranker.link"),
        "preranker.build_index_s": spans.total("preranker.build_store_indices"),
        "preranker.save_index_s": spans.total("preranker.save_index"),
        "preranker.load_index_s": spans.total("preranker.load_index"),
        "preranker.index_mb": spans.counter("preranker.index_bytes") / bench.MB,
        "reranker.build_neighbor_lists_calls": spans.calls("reranker.build_neighbor_lists"),
        "reranker.build_neighbor_lists_s": spans.total("reranker.build_neighbor_lists"),
        "reranker.neighbor_rows": spans.counter("reranker.neighbor_rows"),
        "reranker.cross_features_calls": spans.calls("reranker.cross_features"),
        "reranker.cross_features_s": spans.total("reranker.cross_features"),
        "reranker.train_pairs_per_s": _ratio(
            spans.counter("reranker.train_pairs"), spans.total("reranker.train_reranker")
        ),
        "reranker.rerank_calls": spans.calls("reranker.rerank"),
        "reranker.candidates_scored": spans.counter("reranker.candidates_scored"),
        "reranker.rerank_s": spans.total("reranker.rerank"),
        "reranker.gold_in_candidates_ratio": _ratio(tracer.gold_hits, tracer.gold_total),
        "ookg.train_qkv_s": spans.total("ookg.train_qkv"),
        "ookg.qkv_examples_per_s": _ratio(
            spans.counter("ookg.qkv_examples"), spans.total("ookg.train_qkv")
        ),
        "ookg.evaluate_s": spans.total("ookg.ookg_evaluate"),
        "ookg.decisions": spans.calls(*decide),
        "ookg.decide_s": spans.total(*decide),
        "ookg.index_variant_build_s": float(spans.duration[variant_builds].sum()),
        "evalkit.evaluate_linker_self_s": float(
            spans.self_time[spans.mask(("evalkit.evaluate_linker",))].sum()
        ),
        "evalkit.samples": spans.counter("evalkit.samples"),
        "trace.trainer_share": _ratio(
            spans.outermost(TRAINERS, train_stages), spans.stage_wall(train_stages)
        ),
        "trace.overhead_ratio": overhead,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = spans.self_of_layer(layer)
    for label, run in stage_runs.items():
        command = label.split(".")[0]
        key = f"cli.{command}"
        metrics[f"{key}.wall_s"] = metrics.get(f"{key}.wall_s", 0.0) + run.wall_s
        metrics[f"{key}.rss_mb"] = max(metrics.get(f"{key}.rss_mb", 0.0), run.rss_mb)
        metrics[f"{key}.exit"] = max(metrics.get(f"{key}.exit", 0), run.exit)
    return metrics


def predictions(spans: Spans, workload: bench.Workload) -> list[tuple]:
    """Share of each predicted phase that the named functions occupy:
    outermost-span share (what a faster function can save at most when
    nothing contends) and the self-time share of the functions alone."""
    stages = spans.tracer.stages
    setup = {s.label for s in workload.setup}
    rows = []
    for label, names, metric, target in PREDICTIONS:
        if target != workload.name:
            continue
        if metric == "setup_s":
            ids = [i for i, s in enumerate(stages) if s in setup]
        else:
            ids = [i for i, s in enumerate(stages) if s.split(".")[0] in PHASES[metric]]
        wall = spans.stage_wall(ids)
        self_share = float(spans.self_time[spans.mask(names, ids)].sum())
        rows.append((label, metric, _ratio(spans.outermost(names, ids), wall),
                     _ratio(self_share, wall), wall))
    return rows


def in_process(stages, config_path: Path, logs: Path, ledger, tracer=None) -> float | None:
    """Run the stages through factlink.cli.main; total wall, or None on failure."""
    import factlink.cli as cli

    total = 0.0
    for st in stages:
        if tracer is not None:
            tracer.begin_stage(st.label)
        with open(logs / f"{st.label}.in-process.out", "w") as fh, contextlib.redirect_stdout(fh):
            start = time.perf_counter()
            try:
                code = cli.main(["--config", str(config_path), *st.argv])
            except Exception:  # a crash in one stage is that stage's failure
                traceback.print_exc()
                code = -1
            total += time.perf_counter() - start
        if not ledger.record(code == 0, f"in-process stage {st.label} exited {code}"):
            return None
    return total


def print_layers(workload, metrics, spans, rows) -> None:
    print(f"per-layer metrics, workload {workload.name}")
    for name, unit in {**PER_LAYER, **WORKLOAD_SPECIFIC}.items():
        print(f"  {name:38s} {metrics[name]:14.4f} {unit}")
    for name in sorted(set(metrics) - set(PER_LAYER) - set(WORKLOAD_SPECIFIC)):
        print(f"  {name:38s} {metrics[name]:14.4f}")
    print("largest self times per stage (traced pass)")
    for i, label in enumerate(spans.tracer.stages):
        wall = spans.stage_wall([i])
        top = ", ".join(f"{n} {_ratio(t, wall):.1%}" for n, t in spans.top_self(i))
        print(f"  {label:24s} {wall:8.3f} s: {top}")
    print("predictions: share of the phase wall (outermost spans / self time)")
    for label, metric, share, self_share, wall in rows:
        print(f"  {label:34s} -> {metric:9s} {share:6.1%} / {self_share:6.1%} of {wall:.3f} s")


def run_traced(workload: bench.Workload, seed: int) -> int:
    ledger = bench.Ledger()
    run_dir = bench.WORK / f"{workload.name}-seed{seed}"
    measured = bench.measure(workload, seed, 0.0, run_dir, ledger, min_rounds=1)
    if measured is None:
        return bench.emit(ledger, {}, (), {})
    if str(bench.SRC) not in sys.path:
        sys.path.insert(0, str(bench.SRC))
    import factlink.cli  # noqa: F401  (imports every layer before timing)

    config_path, logs, out_dir = measured.config_path, run_dir / "logs", run_dir / "out"
    hashes = measured.measured_hashes
    walls = []
    tracer = Tracer()
    for tracing in (False, True):
        shutil.rmtree(out_dir)
        with tracer.installed(time.perf_counter) if tracing else contextlib.nullcontext():
            wall = in_process(workload.stages, config_path, logs, ledger,
                              tracer if tracing else None)
        if wall is None:
            return bench.emit(ledger, {}, (), {})
        walls.append(wall)
        hashes.append(bench.out_hashes(out_dir))
    bench.check_hashes("child-process, in-process and traced pipelines", hashes, ledger)
    untraced, traced = walls
    spans_path = bench.WORK / "traces" / f"{workload.name}-seed{seed}.npz"
    tracer.save(spans_path)

    spans = Spans(tracer)
    metrics = layer_metrics(spans, measured.stages, traced / untraced)
    print(json.dumps({"machine": bench.machine(), "spans": str(spans_path.relative_to(bench.ROOT)),
                      "spans_recorded": len(spans.name), "untraced_s": untraced,
                      "traced_s": traced}))
    print_layers(workload, metrics, spans, predictions(spans, workload))
    shutil.rmtree(run_dir)
    return bench.emit(ledger, metrics, PER_LAYER, PER_LAYER)
