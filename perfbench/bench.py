"""Workloads, stage runner, output checks and end-to-end metrics.

Each stage is the factlink CLI of ``src`` run as a child process; the
benchmark waits for it (``os.wait4``, which also gives its peak RSS)
before starting the next one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from world import TOY, Scale, generate, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 2  # the artifacts of two rounds are compared byte for byte
LINK_CHECK_ROWS = 16
MB = 1e6

# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Stage:
    label: str
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


def stage(label: str, command_line: str) -> Stage:
    return Stage(label, tuple(command_line.split()))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: Scale
    config: dict
    setup: tuple[Stage, ...]
    measured: tuple[Stage, ...]
    floors: dict = field(default_factory=dict)  # accuracy metric -> sanity floor

    @property
    def stages(self) -> tuple[Stage, ...]:
        return self.setup + self.measured


# one epoch per trainer (two for the toy pre-ranker, whose accuracy
# spreads across seeds after one) keeps a round near 20 s or below
TRAINING = {
    "preranker": {"learning_rate": 0.5, "batch_size": 64, "epochs": 1,
                  "temperature_init": 0.12, "temperature_min": 0.12},
    "reranker": {"learning_rate": 0.5, "epochs": 1},
    "ookg": {"learning_rate": 0.05, "epochs": 1},
}
# the retrieval and re-ranking workloads hash into 2^16 buckets: the
# 135 MB default table would add I/O to every stage without exercising
# anything toy-train does not already
SMALL_ENCODER = {"encoder": {"buckets": 2**16}}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy-train",
            why="200-entity toy world, default encoder: the three trainers do the work; "
                "top-k scans only 176 rows",
            scale=TOY,
            config={**TRAINING, "preranker": {**TRAINING["preranker"], "epochs": 2}},
            setup=(stage("build-benchmark", "build-benchmark"),),
            measured=(
                stage("train-preranker", "train-preranker"),
                stage("train-reranker", "train-reranker"),
                stage("train-ookg", "train-ookg"),
                stage("index", "index"),
                stage("link", "link --k 3"),
                stage("evaluate.transductive", "evaluate --facet transductive"),
                stage("evaluate.polysemous",
                      "evaluate --facet polysemous --use-reranker --rerank-k 3"),
                stage("detect.entropy", "detect --detector entropy"),
                stage("detect.qkv", "detect --detector qkv"),
            ),
            floors={"fact_acc": 0.6, "rerank_fact_acc": 0.3, "ookg_fact_acc": 0.25},
        ),
        Workload(
            name="large-kg-serve",
            why="20k-entity KG served from the Large store: per-query top-k over the "
                "whole KG and store embedding dominate; training is negligible",
            scale=Scale(train_facts=200, transductive_facts=40, fillers=19800, filler_facts=1),
            config={**TRAINING, **SMALL_ENCODER, "store_variant": "large"},
            setup=(
                stage("build-benchmark", "build-benchmark"),
                stage("train-preranker", "train-preranker"),
                stage("index", "index"),
            ),
            measured=(
                stage("link", "link --k 10"),
                stage("evaluate.transductive", "evaluate --facet transductive"),
                stage("detect.entropy", "detect --detector entropy"),
            ),
            floors={"fact_acc": 0.6, "ookg_fact_acc": 0.25},
        ),
        Workload(
            name="mid-kg-rerank",
            why="2.7k-entity KG: all-pairs neighbor lists and k^3 re-ranking at "
                "rerank-k 4, which neither other workload exercises",
            scale=Scale(twin_pairs=60, train_facts=300, fillers=2200),
            config={**TRAINING, **SMALL_ENCODER},
            setup=(
                stage("build-benchmark", "build-benchmark"),
                stage("train-preranker", "train-preranker"),
            ),
            measured=(
                stage("train-reranker", "train-reranker"),
                stage("evaluate.transductive", "evaluate --facet transductive"),
                stage("evaluate.polysemous",
                      "evaluate --facet polysemous --use-reranker --rerank-k 4"),
            ),
            floors={"fact_acc": 0.5, "rerank_fact_acc": 0.3},
        ),
    )
}

# end-to-end metrics: name -> unit. BENCHMARK.json lists those that every
# workload measures, except eval_s: it is part of serve_s, and on
# mid-kg-rerank it is a few seconds of short stages, too noisy to gate.
# The rest print where their phase runs.
UNITS = {
    "setup_s": "s", "pipeline_s": "s", "train_s": "s", "serve_s": "s", "eval_s": "s",
    "peak_rss_mb": "MB", "artifact_mb": "MB", "fact_acc": "ratio",
    "link_tps": "1/s", "detect_s": "s", "rerank_fact_acc": "ratio", "ookg_fact_acc": "ratio",
    "error_rate": "ratio",
}
END_TO_END = ("setup_s", "pipeline_s", "train_s", "serve_s", "peak_rss_mb", "artifact_mb",
              "fact_acc")


# ---------------------------------------------------------------------------
# Running stages


@dataclass
class StageRun:
    label: str
    wall_s: float
    rss_mb: float
    exit: int


class Ledger:
    """Attempted and failed operations: stage runs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def check(self, what: str, fn) -> None:
        """Run one output check; an exception is a failed check."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken artifact must fail the check, not the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(ok, f"{what}: {detail}" if not ok else what)


def stage_env() -> dict:
    env = dict(os.environ)
    env.pop("FACTLINK_CONFIG", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_stage(st: Stage, config_path: Path, logs: Path, ledger: Ledger) -> StageRun:
    """One CLI stage as a child process; peak RSS comes from wait4."""
    argv = [sys.executable, "-m", "factlink.cli", "--config", str(config_path), *st.argv]
    with open(logs / f"{st.label}.out", "wb") as out, open(logs / f"{st.label}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=stage_env(), cwd=logs)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    ledger.record(code == 0, f"stage {st.label} exited {code}")
    return StageRun(st.label, wall, usage.ru_maxrss * 1024 / MB, code)


def run_stages(stages, config_path, logs, ledger) -> list[StageRun] | None:
    runs = []
    for st in stages:
        run = run_stage(st, config_path, logs, ledger)
        runs.append(run)
        if run.exit != 0:
            return None
    return runs


def out_hashes(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file()
    }


def prepare(workload: Workload, seed: int, run_dir: Path) -> Path:
    """Fresh inputs and config for one run; returns the config path."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    inputs = write_inputs(generate(seed, workload.scale), run_dir / "inputs")
    (run_dir / "logs").mkdir()
    config = {name: str(path) for name, path in inputs.items()}
    config.update(link_oie=str(inputs["test_oie"]), out_dir=str(run_dir / "out"), seed=seed)
    config.update(json.loads(json.dumps(workload.config)))
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return config_path


# ---------------------------------------------------------------------------
# Output checks


def read_flix(path: Path) -> tuple[list[str], np.ndarray]:
    """Ids and matrix of a FLIX index file, parsed from its documented layout."""
    data = path.read_bytes()
    if data[:4] != b"FLIX":
        raise ValueError(f"{path.name}: bad magic")
    _version, _kind, count, dim = struct.unpack_from("<IBQI", data, 4)
    offset = 21
    ids = []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", data, offset)
        ids.append(data[offset + 4 : offset + 4 + length].decode("utf-8"))
        offset += 4 + length
    matrix = np.frombuffer(data, dtype="<f4", count=count * dim, offset=offset)
    return ids, matrix.reshape(count, dim)


def read_records(path: Path) -> list[dict]:
    """JSONL records without the artifact header line."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if "tool_version" not in r]


def brute_force_topk(ids, matrix, query, k):
    scores = matrix @ query.astype(np.float32)
    order = np.lexsort((np.array(ids, dtype=object), -scores))[:k]
    return [ids[i] for i in order], scores


def check_links(out_dir: Path, k: int, config: dict, seed: int, ledger: Ledger) -> None:
    entity_ids, entity_matrix = read_flix(out_dir / "entities.flix")
    predicate_ids, predicate_matrix = read_flix(out_dir / "predicates.flix")
    rows = read_records(out_dir / "links.jsonl")
    slot_index = (
        ("subject_candidates", entity_ids, entity_matrix),
        ("relation_candidates", predicate_ids, predicate_matrix),
        ("object_candidates", entity_ids, entity_matrix),
    )

    def counts():
        bad = [
            r["sentence_id"] for r in rows for key, ids, _ in slot_index
            if len(r[key]) != min(k, len(ids))
        ]
        return not bad and bool(rows), f"{len(bad)} slots without min(k, n) candidates"

    ledger.check("links: min(k, n) candidates per slot", counts)

    def brute_force():
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from factlink.corpus import OieTriple
        from factlink.encoder import ReferenceEncoder, load_params

        encoder = ReferenceEncoder(load_params(out_dir / "preranker.params")[0])
        sample = np.random.default_rng(seed).choice(
            len(rows), size=min(LINK_CHECK_ROWS, len(rows)), replace=False
        )
        for i in sorted(sample):
            row = rows[i]
            triple = OieTriple(subject=row["subject"], relation=row["relation"],
                               object=row["object"])
            queries = encoder.slot_embed(triple, bool(config.get("with_context")))
            for (key, ids, matrix), query in zip(slot_index, queries):
                want, scores = brute_force_topk(ids, matrix, query, k)
                got = [candidate for candidate, _ in row[key]]
                row_of = {entry_id: j for j, entry_id in enumerate(ids)}
                got_scores = np.array([score for _, score in row[key]])
                if np.abs(got_scores - scores[[row_of[g] for g in got]]).max() > 1e-5:
                    return False, f"row {row['sentence_id']} {key}: scores differ from the index"
                if got == want:
                    continue
                # accept a reordering only among scores equal up to float32 rounding
                kth = scores[row_of[want[-1]]]
                strict = {ids[j] for j in np.flatnonzero(scores > kth + 1e-6)}
                tied = {ids[j] for j in np.flatnonzero(np.abs(scores - kth) <= 1e-6)}
                if not strict <= set(got) or not set(got) <= strict | tied:
                    return False, f"row {row['sentence_id']} {key}: {got} != {want}"
        return True, ""

    ledger.check(f"links: {LINK_CHECK_ROWS} rows match brute-force top-k", brute_force)


def fact_accuracy(path: Path) -> float:
    return next(r["value"] for r in read_records(path) if r["metric"] == "fact")


def accuracies(workload: Workload, out_dir: Path, logs: Path) -> dict[str, float]:
    store = "large" if workload.config.get("store_variant") == "large" else "brkg"
    values = {}
    for st in workload.measured:
        if st.command == "evaluate":
            value = fact_accuracy(out_dir / f"report-{st.argv[2]}-{store}.jsonl")
            reranked = "--use-reranker" in st.argv
            values.setdefault("rerank_fact_acc" if reranked else "fact_acc", value)
        elif st.command == "detect" and "ookg_fact_acc" not in values:
            text = (logs / f"{st.label}.out").read_text()
            values["ookg_fact_acc"] = float(re.search(r"fact=([0-9.]+)", text).group(1))
    return values


def check_outputs(workload, seed, config_path, logs, ledger) -> dict[str, float]:
    config = json.loads(config_path.read_text())
    out_dir = Path(config["out_dir"])
    link = next((s for s in workload.measured if s.command == "link"), None)
    if link is not None:
        check_links(out_dir, int(link.argv[link.argv.index("--k") + 1]), config, seed, ledger)
    values: dict[str, float] = {}

    def accuracy_floors():
        values.update(accuracies(workload, out_dir, logs))
        low = {
            name: value for name, value in values.items()
            if not 0.0 <= value <= 1.0 or value < workload.floors.get(name, 0.0)
        }
        return not low, f"outside [floor, 1]: {low} (floors {workload.floors})"

    ledger.check("accuracies within [floor, 1]", accuracy_floors)
    return values


def check_hashes(label: str, hash_sets: list[dict], ledger: Ledger) -> None:
    """The artifacts of every run of the same stages in this invocation
    must be byte-identical; fewer than two runs is a failed check."""

    def compare():
        if len(hash_sets) < 2:
            return False, f"{len(hash_sets)} run, nothing to compare"
        changed = sorted(
            n for h in hash_sets[1:] for n in set(h) | set(hash_sets[0])
            if h.get(n) != hash_sets[0].get(n)
        )
        return not changed, f"differ: {changed}"

    ledger.check(f"{label}: artifacts byte-identical across {len(hash_sets)} runs", compare)


# ---------------------------------------------------------------------------
# Metrics


def median_by_label(passes: list[list[StageRun]]) -> dict[str, StageRun]:
    out = {}
    for label in dict.fromkeys(r.label for p in passes for r in p):
        runs = [r for p in passes for r in p if r.label == label]
        out[label] = StageRun(
            label,
            statistics.median(r.wall_s for r in runs),
            max(r.rss_mb for r in runs),
            max(r.exit for r in runs),
        )
    return out


def end_to_end(workload, result, out_dir, values, ledger) -> dict[str, float]:
    stages = result.stages
    setup_passes, measured_passes = result.setup_passes, result.measured_passes

    def total(predicate):
        return sum(r.wall_s for label, r in stages.items() if predicate(label.split(".")[0]))

    metrics = {
        "setup_s": statistics.median(sum(r.wall_s for r in p) for p in setup_passes),
        "pipeline_s": total(lambda c: True),
        "train_s": total(lambda c: c.startswith("train-")),
        "serve_s": total(lambda c: c in ("index", "link", "evaluate", "detect")),
        "eval_s": total(lambda c: c == "evaluate"),
        "peak_rss_mb": max(r.rss_mb for p in setup_passes + measured_passes for r in p),
        "artifact_mb": sum(p.stat().st_size for p in out_dir.iterdir()) / MB,
        **values,
    }
    if "link" in stages:
        links = len(read_records(out_dir / "links.jsonl"))
        metrics["link_tps"] = links / stages["link"].wall_s
    if any(s.command == "detect" for s in workload.measured):
        metrics["detect_s"] = total(lambda c: c == "detect")
    metrics["error_rate"] = len(ledger.failures) / ledger.attempted
    return metrics


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": int(os.environ.get("OMP_NUM_THREADS", "0")),
    }


def emit(ledger: Ledger, metrics: dict, names, units) -> int:
    """Print the result line; the exit status is 0 only without failures."""
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0 if not ledger.failures else 1


# ---------------------------------------------------------------------------
# Modes


@dataclass
class Measurement:
    config_path: Path
    setup_passes: list[list[StageRun]]
    measured_passes: list[list[StageRun]]
    setup_hashes: list[dict[str, str]]  # out_dir after each set-up pass
    measured_hashes: list[dict[str, str]]  # out_dir after each measured pass

    @property
    def rounds(self) -> int:
        return len(self.measured_passes)

    @property
    def stages(self) -> dict[str, StageRun]:
        """Per-stage medians over the rounds."""
        return {**median_by_label(self.setup_passes), **median_by_label(self.measured_passes)}


def measure(workload: Workload, seed: int, seconds: float, run_dir: Path, ledger: Ledger,
            min_rounds: int = MIN_ROUNDS) -> Measurement | None:
    """A discarded warm-up, then rounds of the whole pipeline: set-up
    stages, then measured stages, from an empty out_dir each time. Rounds
    repeat while another one fits in ``seconds``, and at least
    ``min_rounds`` times. None if a stage failed."""
    config_path = prepare(workload, seed, run_dir)
    logs = run_dir / "logs"
    out_dir = run_dir / "out"
    if run_stages(workload.setup[:1], config_path, logs, ledger) is None:  # warm-up
        return None
    result = Measurement(config_path, [], [], [], [])
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        shutil.rmtree(out_dir, ignore_errors=True)
        for stages, passes, hashes in (
            (workload.setup, result.setup_passes, result.setup_hashes),
            (workload.measured, result.measured_passes, result.measured_hashes),
        ):
            runs = run_stages(stages, config_path, logs, ledger)
            if runs is None:
                return None
            passes.append(runs)
            hashes.append(out_hashes(out_dir))
        now = time.perf_counter()
        if result.rounds >= min_rounds and now - start + (now - began) > seconds:
            return result


def print_end_to_end(workload: Workload, result: Measurement, metrics: dict) -> None:
    print(json.dumps({"machine": machine()}))
    print(f"workload {workload.name}: {workload.why}")
    print(f"  rounds (set-up, then measured stages): {result.rounds}")
    for label, run in result.stages.items():
        print(f"  stage {label:24s} {run.wall_s:9.3f} s  {run.rss_mb:8.1f} MB  exit {run.exit}")
    for name, value in metrics.items():
        print(f"  {name:16s} {value:12.4f} {UNITS[name]}")


def run_plain(workload: Workload, seed: int, seconds: float) -> int:
    ledger = Ledger()
    run_dir = WORK / f"{workload.name}-seed{seed}"
    result = measure(workload, seed, seconds, run_dir, ledger)
    if result is None:
        print(f"stopped after a failed stage; logs in {run_dir / 'logs'}", file=sys.stderr)
        return emit(ledger, {}, (), UNITS)
    check_hashes("set-up stages", result.setup_hashes, ledger)
    check_hashes("measured stages", result.measured_hashes, ledger)
    values = check_outputs(workload, seed, result.config_path, run_dir / "logs", ledger)
    metrics = end_to_end(workload, result, run_dir / "out", values, ledger)
    print_end_to_end(workload, result, metrics)
    shutil.rmtree(run_dir)
    return emit(ledger, metrics, END_TO_END, UNITS)
