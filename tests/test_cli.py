import argparse
import dataclasses
import hashlib
import importlib
import io
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from factlink import cli
from factlink.cli import main
from factlink.encoder import EncoderConfig
from factlink.io import HEADER_KEY, load_arrays, read_jsonl, save_arrays, write_jsonl
from factlink.ookg import QkvTrainConfig
from factlink.preranker import IndexKind, PrerankTrainConfig, load_index
from factlink.reranker import RerankTrainConfig
from toyworld import build_toy_world, write_input_files


def write_config(directory, **extra):
    config = {
        "kg_entries": str(directory / "kg_entries.jsonl"),
        "kg_facts": str(directory / "kg_facts.jsonl"),
        "train_oie": str(directory / "train_oie.jsonl"),
        "train_pairs": str(directory / "train_pairs.jsonl"),
        "test_oie": str(directory / "test_oie.jsonl"),
        "test_pairs": str(directory / "test_pairs.jsonl"),
        "link_oie": str(directory / "test_oie.jsonl"),
        "out_dir": str(directory / "out"),
        "seed": 7,
        "encoder": {"dim": 32, "hidden": 16, "buckets": 4096},
        "preranker": {"epochs": 2, "learning_rate": 0.3, "batch_size": 32,
                      "global_neg_entities": 16, "global_neg_predicates": 8},
        "reranker": {"epochs": 1, "learning_rate": 0.3, "negatives_per_positive": 2},
        "ookg": {"epochs": 1, "learning_rate": 0.05, "subset_size": 8},
        "rerank_k": 2,
    }
    config.update(extra)
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def run(config_path, *argv):
    return main(["--config", str(config_path), *argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI pipeline over the toy world inputs."""
    directory = tmp_path_factory.mktemp("cli")
    world = build_toy_world(seed=5)
    write_input_files(world, directory)
    config_path = write_config(directory)
    assert run(config_path, "build-benchmark") == 0
    assert run(config_path, "train-preranker") == 0
    assert run(config_path, "train-reranker") == 0
    assert run(config_path, "train-ookg") == 0
    assert run(config_path, "index") == 0
    return directory, config_path


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def payload(path):
    """The bytes of an artifact after its header line."""
    return path.read_bytes().split(b"\n", 1)[1]


class TestBuildBenchmark:
    def test_six_output_files(self, pipeline):
        directory, _ = pipeline
        out = directory / "out"
        expected = [
            "alignments.jsonl",
            "split-transductive.jsonl",
            "split-inductive.jsonl",
            "split-polysemous.jsonl",
            "split-out-of-kg.jsonl",
            "stats.jsonl",
        ]
        for name in expected:
            assert (out / name).exists(), name

    def test_artifact_headers(self, pipeline):
        directory, _ = pipeline
        first_line = (directory / "out" / "alignments.jsonl").read_text().split("\n", 1)[0]
        header = json.loads(first_line)
        assert set(header) == {"tool_version", "config_hash", "seed"}
        assert header["seed"] == 7

    def test_stats_match_split_files(self, pipeline):
        directory, _ = pipeline
        out = directory / "out"
        stats = {r["split"]: r for r in read_jsonl(out / "stats.jsonl")}
        for facet in ("transductive", "inductive", "polysemous", "out-of-kg"):
            alignments = read_jsonl(out / f"split-{facet}.jsonl")
            assert stats[facet]["# Total Samples"] == len(alignments)

    @pytest.mark.parametrize("facet", ["transductive", "inductive", "out-of-kg"])
    def test_split_of_a_facet_returns_it(self, facet, pipeline, tmp_path):
        """These facets depend only on the training facts, so ``split``
        over a facet that ``build-benchmark`` wrote keeps every record."""
        directory, config_path = pipeline
        out = directory / "out"
        assert run(config_path, "--out-dir", str(tmp_path),
                   "--set", f"train_alignments={out / 'alignments.jsonl'}",
                   "--set", f"test_alignments={out / f'split-{facet}.jsonl'}",
                   "split", "--facet", facet) == 0
        written = payload(out / f"split-{facet}.jsonl")
        assert written.count(b"\n") > 0
        assert payload(tmp_path / f"split-{facet}.jsonl") == written

    def test_missing_input_exits_2_with_path(self, tmp_path, capsys):
        config_path = write_config(tmp_path)  # inputs never written
        assert run(config_path, "build-benchmark") == 2
        assert "kg_entries.jsonl" in capsys.readouterr().err

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        directory, config_path = pipeline
        before = file_hash(directory / "out" / "alignments.jsonl")
        assert run(config_path, "build-benchmark") == 0
        assert file_hash(directory / "out" / "alignments.jsonl") == before


class TestTraining:
    def test_params_and_trace_exist(self, pipeline):
        directory, _ = pipeline
        out = directory / "out"
        assert (out / "preranker.params").exists()
        trace = read_jsonl(out / "preranker.trace.jsonl")
        assert [t["epoch"] for t in trace] == [0, 1]
        assert all("tau" in t for t in trace)

    def test_reranker_artifacts(self, pipeline):
        directory, _ = pipeline
        out = directory / "out"
        assert (out / "reranker.params").exists()
        assert not (out / "reranker.params.meta.json").exists()  # provenance is in the header
        assert (out / "neighbors.jsonl").exists()
        neighbors = read_jsonl(out / "neighbors.jsonl")
        assert all(len(r["neighbors"]) <= 10 for r in neighbors)

    def test_ookg_artifacts(self, pipeline):
        directory, _ = pipeline
        out = directory / "out"
        assert (out / "qkv.params").exists()
        (record,) = read_jsonl(out / "thresholds.jsonl")
        assert record["confidence"] == [0.235, 0.260, 0.235]
        assert record["entropy"] == [1.60, 1.58, 1.60]
        assert record["attention"] == [0.3, 0.3, 0.3]

    def test_attention_threshold_without_calibration(self, pipeline, tmp_path):
        directory, config_path = pipeline
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        assert run(config_path, "--out-dir", str(out),
                   "--set", "ookg.attention_threshold=0.6", "train-ookg") == 0
        (record,) = read_jsonl(out / "thresholds.jsonl")
        assert record["attention"] == [0.6, 0.6, 0.6]
        assert record["grid"] == {"grid_size": 200, "calibrated": False}

    def test_calibrated_thresholds(self, pipeline, tmp_path):
        directory, config_path = pipeline
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        argv = ("--out-dir", str(out), "--set", "ookg.calibrate_thresholds=true")
        assert run(config_path, *argv, "train-ookg") == 0
        written = (out / "thresholds.jsonl").read_bytes()
        (record,) = read_jsonl(out / "thresholds.jsonl")
        assert all(0.0 < t < 1.0 for t in record["confidence"])
        assert all(0.0 <= t <= np.log(5) for t in record["entropy"])
        assert record["grid"]["grid_size"] == 200
        assert sorted(record["grid"]["statistic_ranges"]) == sorted(
            f"{name}[{slot}]" for name in ("confidence", "entropy") for slot in range(3)
        )
        assert (record["confidence"], record["entropy"]) != (
            [0.235, 0.260, 0.235], [1.60, 1.58, 1.60]
        )

        # each detector decides by the calibrated record's per-slot thresholds
        slots = ("subject", "relation", "object")
        for detector, out_when in (("confidence", np.less), ("entropy", np.greater)):
            assert run(config_path, *argv, "detect", "--detector", detector) == 0
            for row in read_jsonl(out / f"detection-{detector}.jsonl"):
                threshold = record[detector][slots.index(row["slot"])]
                decided_out = bool(out_when(row["statistic"], threshold))
                assert row["decision"] == ("out-of-kg" if decided_out else "in-kg")

        assert run(config_path, *argv, "train-ookg") == 0
        assert (out / "thresholds.jsonl").read_bytes() == written

    def test_failed_calibration_keeps_the_previous_files(self, pipeline, tmp_path, capsys):
        directory, config_path = pipeline
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        argv = ("--out-dir", str(out), "--set", "ookg.calibrate_thresholds=true")
        assert run(config_path, *argv, "train-ookg") == 0
        names = ("qkv.params", "qkv.trace.jsonl", "thresholds.jsonl")
        before = {name: (out / name).read_bytes() for name in names}
        capsys.readouterr()
        # trains with other settings, then cannot allocate the calibration grid
        assert run(config_path, *argv, "--set", "ookg.grid_size=1000000000000000",
                   "--set", "ookg.learning_rate=0.01", "train-ookg") == 2
        assert capsys.readouterr().err.startswith("error: out of memory")
        assert {name: (out / name).read_bytes() for name in names} == before

    def test_resume_continues(self, pipeline):
        directory, config_path = pipeline
        before = file_hash(directory / "out" / "preranker.params")
        assert run(config_path, "train-preranker", "--resume") == 0
        after = file_hash(directory / "out" / "preranker.params")
        assert after != before  # two more epochs moved the params
        # restore the original two-epoch state for the other tests
        assert run(config_path, "train-preranker") == 0
        assert file_hash(directory / "out" / "preranker.params") == before


class TestIndexAndLink:
    def test_index_round_trip(self, pipeline):
        directory, _ = pipeline
        out = directory / "out"
        entities = load_index(out / "entities.flix", IndexKind.ENTITIES)
        predicates = load_index(out / "predicates.flix", IndexKind.PREDICATES)
        assert len(entities) > 0
        assert len(predicates) == 20
        meta = json.loads((out / "entities.flix.meta.json").read_text())
        assert set(meta) == {"tool_version", "config_hash", "seed", "inputs_sha256"}

    def test_link_writes_candidates(self, pipeline):
        directory, config_path = pipeline
        assert run(config_path, "link", "--k", "2") == 0
        records = read_jsonl(directory / "out" / "links.jsonl")
        assert records
        assert all(len(r["subject_candidates"]) == 2 for r in records)

    def test_links_pass_the_benchmark_link_check(self, pipeline, tmp_path, monkeypatch):
        """perfbench's output check accepts what ``link --k 3`` writes: the
        candidate counts and a brute-force top-k over the FLIX matrices."""
        directory, config_path = pipeline
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        assert run(config_path, "--out-dir", str(out), "link", "--k", "3") == 0
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        bench = importlib.import_module("bench")
        ledger = bench.Ledger()
        bench.check_links(out, 3, json.loads(config_path.read_text()), 7, ledger)
        assert (ledger.attempted, ledger.failures) == (2, [])

    def test_kg_min_count_filters_the_large_store(self, pipeline, tmp_path, capsys):
        """The toy KG's 24 distractor entries are in no fact: ``kg_min_count``
        1 drops them, as 2 does; 0 keeps every entry."""
        directory, config_path = pipeline
        indexed = {}
        for min_count in (0, 1, 2):
            out = tmp_path / str(min_count)
            out.mkdir()
            shutil.copy(directory / "out" / "preranker.params", out)
            capsys.readouterr()
            assert run(config_path, "--out-dir", str(out), "--set", "store_variant=large",
                       "--set", f"kg_min_count={min_count}", "index") == 0
            indexed[min_count] = sum(map(int, re.findall(r"\d+", capsys.readouterr().out)))
        assert indexed[0] - indexed[1] == indexed[0] - indexed[2] == 24


class TestStoreIndices:
    """``link``, ``evaluate`` and ``detect`` serve row subsets of the FLIX
    files when ``index`` wrote them, and embed the same store otherwise."""

    SERVING = (
        ["link", "--k", "3"],
        ["evaluate", "--facet", "transductive"],
        ["evaluate", "--facet", "polysemous", "--use-reranker"],
        ["detect", "--detector", "entropy"],
    )
    OUTPUTS = ("links.jsonl", "report-transductive-brkg.jsonl",
               "report-polysemous-brkg.jsonl", "detection-entropy.jsonl")

    def test_flix_rows_serve_what_embedding_serves(self, pipeline, tmp_path):
        directory, config_path = pipeline
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        written = []
        for flix_files in (True, False):
            if not flix_files:
                for path in out.glob("*.flix"):
                    path.unlink()
            for argv in self.SERVING:
                assert run(config_path, "--out-dir", str(out), *argv) == 0
            written.append({name: (out / name).read_bytes() for name in self.OUTPUTS})
        assert written[0] == written[1]


class TestEvaluate:
    def test_report_files_and_table(self, pipeline, capsys):
        directory, config_path = pipeline
        assert run(config_path, "evaluate", "--facet", "transductive") == 0
        stdout = capsys.readouterr().out
        assert "Subject  Relation  Object  Fact" in stdout
        records = read_jsonl(directory / "out" / "report-transductive-brkg.jsonl")
        assert [r["metric"] for r in records] == ["subject", "relation", "object", "fact"]

    def test_baseline_linkers(self, pipeline):
        directory, config_path = pipeline
        assert run(config_path, "evaluate", "--facet", "transductive",
                   "--linker", "frequency") == 0
        assert run(config_path, "evaluate", "--facet", "transductive",
                   "--linker", "random") == 0

    def test_reranker_evaluation_logs_candidate_count(self, pipeline, caplog):
        directory, config_path = pipeline
        with caplog.at_level("INFO", logger="factlink"):
            assert run(config_path, "evaluate", "--facet", "polysemous",
                       "--use-reranker", "--rerank-k", "2") == 0
        assert "reranking 8 candidates" in caplog.text

    def test_large_store_variant(self, pipeline):
        directory, config_path = pipeline
        assert run(config_path, "--set", "store_variant=large",
                   "evaluate", "--facet", "inductive") == 0
        assert (directory / "out" / "report-inductive-large.jsonl").exists()


class TestDetect:
    def test_detectors_run(self, pipeline, capsys):
        directory, config_path = pipeline
        for detector in ("entropy", "confidence", "qkv", "random", "always-in"):
            assert run(config_path, "detect", "--detector", detector) == 0
            assert (directory / "out" / f"detection-{detector}.jsonl").exists()
        stdout = capsys.readouterr().out
        assert "fact=" in stdout

    def test_thresholdless_detectors_skip_the_thresholds_file(self, pipeline, tmp_path):
        directory, config_path = pipeline
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        for path in out.glob("detection-*.jsonl"):
            path.unlink()
        _thresholds_with(attention=[5, 5, 5])(out)
        for detector in ("random", "always-in"):
            assert run(config_path, "--out-dir", str(out), "detect", "--detector", detector) == 0
            assert (out / f"detection-{detector}.jsonl").exists()

    def test_detection_record_schema(self, pipeline):
        directory, config_path = pipeline
        records = read_jsonl(directory / "out" / "detection-entropy.jsonl")
        assert set(records[0]) == {"alignment_id", "slot", "scenario", "decision", "statistic"}


class TestWithContext:
    """The top-level ``with_context`` reaches every trainer and serving stage."""

    STAGES = (["train-preranker"], ["train-reranker"], ["train-ookg"], ["index"],
              ["evaluate", "--facet", "polysemous", "--use-reranker"],
              ["detect", "--detector", "qkv"])

    def test_every_stage_reads_the_top_level_value(self, pipeline, tmp_path, capsys):
        directory, config_path = pipeline
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        plain = ("--out-dir", str(out))
        context = (*plain, "--set", "with_context=true")

        def moved(name):  # the header's config_hash differs either way
            return payload(out / name) != payload(directory / "out" / name)

        # over the plain pre-ranker, with_context alone moves the other two heads
        for stage, name in (("train-reranker", "reranker.params"), ("train-ookg", "qkv.params")):
            assert run(config_path, *context, stage) == 0
            assert moved(name), name
        for stage in self.STAGES:
            assert run(config_path, *context, *stage) == 0, stage
        assert all(map(moved, ("preranker.params", "reranker.params", "qkv.params")))
        detections = payload(out / "detection-qkv.jsonl")
        assert run(config_path, *plain, "detect", "--detector", "qkv") == 0
        assert payload(out / "detection-qkv.jsonl") != detections
        capsys.readouterr()
        # the toy OIE file that link reads holds no provenance sentences
        assert run(config_path, *context, "link") == 2
        assert "no provenance sentence" in capsys.readouterr().err


class TestCliContract:
    def test_unknown_stage_is_usage_error(self, pipeline, capsys):
        _, config_path = pipeline
        assert run(config_path, "train-nonsense") == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_env_var_config(self, pipeline, monkeypatch, capsys):
        directory, config_path = pipeline
        monkeypatch.setenv("FACTLINK_CONFIG", str(config_path))
        assert main(["evaluate", "--facet", "transductive"]) == 0

    def test_flag_overrides_file(self, pipeline, tmp_path):
        directory, config_path = pipeline
        override_dir = tmp_path / "other-out"
        out = directory / "out"
        assert run(config_path, "--out-dir", str(override_dir),
                   "--set", f"train_alignments={out / 'alignments.jsonl'}",
                   "--set", f"test_alignments={out / 'split-transductive.jsonl'}",
                   "split", "--facet", "inductive") == 0
        assert (override_dir / "split-inductive.jsonl").exists()

    def test_set_requires_key_value(self, pipeline, capsys):
        _, config_path = pipeline
        assert run(config_path, "--set", "nonsense", "build-benchmark") == 1

    @pytest.mark.parametrize("flag,setting,name", [
        (["link", "--k", "3"], ["--set", "link_k=3", "link"], "links.jsonl"),
        (["evaluate", "--facet", "polysemous", "--use-reranker", "--rerank-k", "1"],
         ["--set", "rerank_k=1", "evaluate", "--facet", "polysemous", "--use-reranker"],
         "report-polysemous-brkg.jsonl"),
        (["detect", "--detector", "confidence"], ["--set", "detector=confidence", "detect"],
         "detection-confidence.jsonl"),
    ], ids=["link-k", "rerank-k", "detector"])
    def test_flag_writes_what_its_config_key_writes(self, flag, setting, name, pipeline, tmp_path):
        """A command flag is its config key: the artifact header hashes it."""
        directory, config_path = pipeline
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        assert run(config_path, "--out-dir", str(out), *setting) == 0
        written = (out / name).read_bytes()
        assert run(config_path, "--out-dir", str(out), *flag) == 0
        assert (out / name).read_bytes() == written


class TestStageTable:
    """``cli.INPUTS`` names stages that exist and files that the pipeline writes."""

    def test_each_producer_is_a_stage(self):
        for key, (_name, _what, producer) in cli.INPUTS.items():
            assert set(producer.split(" or ")) <= set(cli.COMMANDS), key

    def test_pipeline_writes_each_default_input(self, pipeline):
        directory, _ = pipeline
        for name, _what, _producer in cli.INPUTS.values():
            for facet in cli.FACETS:
                assert (directory / "out" / name.format(facet=facet)).exists(), name

    def test_parser_offers_each_stage(self):
        (stages,) = [action.choices for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
        assert set(stages) == set(cli.COMMANDS)


class TestFloatPolicy:
    """``main`` raises on floating-point errors only while its stage runs:
    perfbench calls it many times in one process."""

    @pytest.mark.parametrize("argv,code", [
        (["evaluate", "--facet", "transductive"], 0),
        (["--set", "preranker.learning_rate=1e9", "train-preranker"], 3),
    ], ids=["exits-0", "exits-3"])
    def test_main_restores_the_float_error_state(self, argv, code, pipeline, tmp_path):
        directory, config_path = pipeline
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        before = np.geterr()
        assert run(config_path, "--out-dir", str(out), *argv) == code
        assert np.geterr() == before


class TestDeterminism:
    def test_stage_rerun_hashes_identical(self, tmp_path):
        world = build_toy_world(seed=9)
        write_input_files(world, tmp_path)
        config_path = write_config(
            tmp_path,
            preranker={"epochs": 1, "learning_rate": 0.3, "batch_size": 32,
                       "global_neg_entities": 8, "global_neg_predicates": 4},
        )
        hashes = {}
        for round_number in range(2):
            for argv in (["build-benchmark"], ["train-preranker"], ["train-reranker"],
                         ["train-ookg"], ["index"], ["link"],
                         ["evaluate", "--facet", "transductive"],
                         ["detect", "--detector", "entropy"]):
                assert run(config_path, *argv) == 0
            out = tmp_path / "out"
            digests = {
                p.name: file_hash(p) for p in sorted(out.iterdir()) if p.is_file()
            }
            if round_number == 0:
                hashes = digests
            else:
                assert digests == hashes


def _replace_header(path, header_line):
    payload = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(header_line + b"\n" + payload)


def _truncate(path, size):
    path.write_bytes(path.read_bytes()[:size])


def _claim_huge_first_record(path):
    """Keep the header line; the first .npy record claims 8 TB of float64."""
    header_line = path.read_bytes().split(b"\n", 1)[0]
    record = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        record, {"descr": "<f8", "fortran_order": False, "shape": (10**6, 10**6)}
    )
    path.write_bytes(header_line + b"\n" + record.getvalue() + bytes(64))


def _overflow_qkv(out):
    """qkv.params whose query and key projections, each scaled by 1e200,
    overflow the product that scores a key: detection, not training."""
    path = out / "qkv.params"
    layout = dict.fromkeys(("q_proj", "k_proj", "v_proj"), "<f8")
    header, arrays = load_arrays(path, "qkv-attention", layout)
    for name in ("q_proj", "k_proj"):
        arrays[name] *= 1e200
    save_arrays(path, header, arrays)


def _widen(name, kind):
    """Rewrite a re-ranker or QKV params file as if trained against an
    encoder one dim wider: well formed, but for another encoder."""
    def corrupt(out):
        path = out / name
        if kind == "cross-scorer":
            header, arrays = load_arrays(path, kind, {"weights": "<f4", "bias": "<f4"})
            arrays["weights"] = np.zeros(len(arrays["weights"]) + 6, dtype=np.float32)
        else:
            layout = dict.fromkeys(("q_proj", "k_proj", "v_proj"), "<f8")
            header, arrays = load_arrays(path, kind, layout)
            arrays = {key: np.eye(len(block) + 1) for key, block in arrays.items()}
        save_arrays(path, header, arrays)
    return corrupt


PARAMS_LAYOUT = {
    "table_ids": "<i8", "feature_table": "<f8", "slot_projection": "<f8", "entry_projection": "<f8"
}


def _edit_params(edit):
    """Rewrite ``preranker.params`` after ``edit(header, arrays)``."""
    def corrupt(out):
        path = out / "preranker.params"
        header, arrays = load_arrays(path, "reference-encoder", PARAMS_LAYOUT)
        edit(header, arrays)
        save_arrays(path, header, arrays)
    return corrupt


def _drop_projection_rows(header, arrays):
    for name in ("slot_projection", "entry_projection"):
        arrays[name] = arrays[name][:-1]


def _perturb_projection(header, arrays):
    """A valid params file whose entry projection moved in one entry: the
    FLIX files no longer match it."""
    arrays["entry_projection"][0, 0] += 1e-3


def _perturb_table_row(header, arrays):
    """A valid params file with one held feature-table row moved."""
    arrays["feature_table"][len(arrays["table_ids"]) // 2] += 1e-3


def _set_table_id(position, value):
    def edit(header, arrays):
        arrays["table_ids"][position] = value(header, arrays["table_ids"])
    return edit


def _drop_table_row(header, arrays):
    arrays["feature_table"] = arrays["feature_table"][:-1]


def _shrink_buckets(header, arrays):
    header["buckets"] = int(arrays["table_ids"][-1])


def _widen_hidden(header, arrays):
    header["hidden"] += 1


def _first_alignment(name, **fields):
    """``name`` in out_dir, whose first alignment record takes ``fields``,
    each a function of the record."""
    def corrupt(out):
        path = out / name
        header, first, rest = path.read_text("utf-8").split("\n", 2)
        record = json.loads(first)
        record.update({key: value(record) for key, value in fields.items()})
        path.write_text("\n".join((header, json.dumps(record), rest)), "utf-8")
    return corrupt


def _predicate_as_subject(record):
    return record["predicate_id"]


def _oie_file(name, **fields):
    """An OIE file ``name`` in out_dir whose one triple takes ``fields``."""
    def corrupt(out):
        write_jsonl(out / name, [{"sentence_id": "s1", "subject": "Ann",
                                  "relation": "knows", "object": "Bob", **fields}])
    return corrupt


def _one_pair(**fields):
    """A train pairs file in out_dir whose one pair holds the first
    alignment's fact and takes ``fields``, each a function of that
    alignment record."""
    def corrupt(out):
        record = read_jsonl(out / "alignments.jsonl")[0]
        pair = {"sentence_id": "s1", "sentence": "...", "subject": record["subject_id"],
                "predicate": record["predicate_id"], "object": record["object_id"]}
        pair.update({key: value(record) for key, value in fields.items()})
        write_jsonl(out / "train_pairs.jsonl", [pair])
    return corrupt


def _thresholds_with(**fields):
    """thresholds.jsonl keeps its header; its record takes ``fields``."""
    def corrupt(out):
        path = out / "thresholds.jsonl"
        header, record = path.read_text("utf-8").splitlines()
        path.write_text("\n".join((header, json.dumps({**json.loads(record), **fields}))) + "\n")
    return corrupt


def _header_only(name):
    """``name`` in out_dir keeps its header line and loses every record."""
    def corrupt(out):
        path = out / name
        path.write_text(path.read_text("utf-8").split("\n", 1)[0] + "\n", "utf-8")
    return corrupt


def _kg_entry_with(**fields):
    """A KG entries file in out_dir whose second line carries ``fields``."""
    def corrupt(out):
        records = [{"id": "Q1", "kind": "entity", "label": "Ann"},
                   {"id": "Q2", "kind": "entity", "label": "Bob", **fields}]
        (out / "kg_entries.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    return corrupt


def _claim_in_flix(offset, layout, value):
    """entities.flix whose id count (at 9) or first id length (at 21) claims ``value``."""
    def corrupt(out):
        path = out / "entities.flix"
        data = bytearray(path.read_bytes())
        struct.pack_into(layout, data, offset, value)
        path.write_bytes(bytes(data))
    return corrupt


def _set_flix_kind(out):
    """entities.flix claims to hold predicates: its kind byte follows the
    magic and the u32 version."""
    path = out / "entities.flix"
    data = bytearray(path.read_bytes())
    data[8] = 1
    path.write_bytes(bytes(data))


def _repeat_flix_id(out):
    """entities.flix holds its first id again in place of its second: the
    ids follow the 21-byte header, each with a u32 length."""
    path = out / "entities.flix"
    data = path.read_bytes()
    (count,) = struct.unpack_from("<Q", data, 9)
    ids, offset = [], 21
    for _ in range(count):
        (length,) = struct.unpack_from("<I", data, offset)
        ids.append(data[offset + 4 : offset + 4 + length])
        offset += 4 + length
    ids[1] = ids[0]
    path.write_bytes(data[:21] + b"".join(struct.pack("<I", len(raw)) + raw for raw in ids)
                     + data[offset:])


def _flip_flix_exponent(out):
    """entities.flix whose row 0, column 0 has the top bit of its float32
    exponent flipped (-0.06 becomes about -2e37): the matrix fills the
    file's last count * dim * 4 bytes."""
    path = out / "entities.flix"
    data = bytearray(path.read_bytes())
    (count,), (dim,) = struct.unpack_from("<Q", data, 9), struct.unpack_from("<I", data, 17)
    data[len(data) - count * dim * 4 + 3] ^= 0x40
    path.write_bytes(bytes(data))


def _negative_seed(header, arrays):
    """Rows not held are drawn from this seed's stream."""
    header["rng_seed"] = -1


# case: (argv, the default input file it deletes from out_dir, the stage that writes it)
MISSING_INPUTS = {
    "missing-train-alignments": (["train-preranker"], "alignments.jsonl", "build-benchmark"),
    "missing-calibration-alignments": (["train-ookg"], "alignments.jsonl", "build-benchmark"),
    "missing-facet-alignments": (
        ["evaluate", "--facet", "transductive"], "split-transductive.jsonl",
        "build-benchmark or split",
    ),
    "missing-preranker-params": (["index"], "preranker.params", "train-preranker"),
    "missing-reranker-params": (
        ["evaluate", "--facet", "polysemous", "--use-reranker"], "reranker.params",
        "train-reranker",
    ),
    "missing-qkv-params": (["detect", "--detector", "qkv"], "qkv.params", "train-ookg"),
}


def _delete(name):
    return lambda out: (out / name).unlink()


class TestFailureExitCodes:
    """Bad config files and values exit 1, corrupt artifacts 2, diverging
    training 3: each with one line on stderr, no traceback, and the stage's
    params left as they were. ``{out}`` in argv is the case's out_dir; a
    stale index names the stage that mends it."""

    CASES = {
        "unknown-key": (1, ["--set", "preranker.bogus=1", "train-preranker"], None),
        "dead-optimizer-key": (
            1, ["--set", "preranker.optimizer=sgd", "train-preranker"], None
        ),
        "zero-epochs": (1, ["--set", "preranker.epochs=0", "train-preranker"], None),
        "wrong-type": (1, ["--set", "reranker.epochs=many", "train-reranker"], None),
        "set-through-scalar": (1, ["--set", "seed.x=1", "build-benchmark"], None),
        "config-not-object": (
            1, ["--config", "{out}/list.json", "index"],
            lambda out: (out / "list.json").write_text("[1]\n"),
        ),
        "config-not-json": (
            1, ["--config", "{out}/broken.json", "index"],
            lambda out: (out / "broken.json").write_text('{"seed": 7,\n'),
        ),
        "inductive-mode-bogus": (
            1, ["--set", "inductive_mode=bogus", "build-benchmark"], None
        ),
        "store-variant-bogus": (
            1, ["--set", "store_variant=bogus", "evaluate", "--facet", "transductive"], None
        ),
        "kg-min-count-string": (1, ["--set", 'kg_min_count="x"', "build-benchmark"], None),
        "kg-min-count-negative": (1, ["--set", "kg_min_count=-1", "build-benchmark"], None),
        "top-level-key-typo": (
            1, ["--set", "store_varaint=large", "evaluate", "--facet", "transductive"], None
        ),
        "ookg-grid-size-zero": (
            1, ["--set", "ookg.grid_size=0", "--set", "ookg.calibrate_thresholds=true",
                "train-ookg"], None,
        ),
        "ookg-attention-out-of-range": (
            1, ["--set", "ookg.attention_threshold=5", "train-ookg"], None
        ),
        "seed-string": (1, ["--set", "seed=x", "train-preranker"], None),
        "seed-out-of-range": (1, ["--seed", str(2**64), "train-preranker"], None),
        "augment-not-bool": (1, ["--set", "augment=1", "build-benchmark"], None),
        "detector-bogus": (1, ["--set", "detector=bogus", "detect"], None),
        "kg-entries-int": (1, ["--set", "kg_entries=5", "build-benchmark"], None),
        "train-alignments-empty-list": (
            1, ["--set", "train_alignments=[]", "train-preranker"], None
        ),
        "thresholds-int": (1, ["--set", "thresholds=5", "detect"], None),
        "path-thresholds-int-build-benchmark": (
            1, ["--set", "thresholds=5", "build-benchmark"], None
        ),
        "path-reranker-params-list-build-benchmark": (
            1, ["--set", "reranker_params=[]", "build-benchmark"], None
        ),
        "preranker-negative-weight-decay": (
            1, ["--set", "preranker.weight_decay=-0.1", "train-preranker"], None
        ),
        "reranker-negative-weight-decay": (
            1, ["--set", "reranker.weight_decay=-0.1", "train-reranker"], None
        ),
        "ookg-negative-weight-decay": (
            1, ["--set", "ookg.weight_decay=-0.1", "train-ookg"], None
        ),
        "section-preranker-with-context": (
            1, ["--set", "preranker.with_context=true", "train-preranker"], None
        ),
        "section-reranker-seed": (1, ["--set", "reranker.seed=3", "train-reranker"], None),
        "section-ookg-seed": (1, ["--set", "ookg.seed=3", "train-ookg"], None),
        "link-with-context-flag": (1, ["link", "--with-context"], None),
        "link-k-zero-at-load": (1, ["--set", "link_k=0", "build-benchmark"], None),
        "link-k-zero": (1, ["link", "--k", "0"], None),
        "link-k-string": (1, ["--set", 'link_k="x"', "link"], None),
        "rerank-k-zero": (
            1, ["--set", "rerank_k=0", "evaluate", "--facet", "polysemous", "--use-reranker"],
            None,
        ),
        "rerank-k-string": (
            1, ["--set", 'rerank_k="x"', "evaluate", "--facet", "polysemous", "--use-reranker"],
            None,
        ),
        "evaluate-rerank-k-zero-unused": (
            1, ["evaluate", "--facet", "transductive", "--rerank-k", "0"], None
        ),
        "evaluate-rerank-k-negative-random": (
            1, ["evaluate", "--facet", "transductive", "--linker", "random", "--rerank-k", "-5"],
            None,
        ),
        "evaluate-rerank-k-without-reranker": (
            1, ["evaluate", "--facet", "polysemous", "--rerank-k", "2"], None
        ),
        "evaluate-reranker-with-frequency": (
            1, ["evaluate", "--facet", "polysemous", "--linker", "frequency", "--use-reranker"],
            None,
        ),
        "qkv-key-pool-zero": (
            1, ["--set", "qkv_key_pool=0", "detect", "--detector", "qkv"], None
        ),
        "preranker-diverges": (
            3, ["--set", "preranker.learning_rate=1e9", "train-preranker"], None
        ),
        "reranker-diverges": (
            3, ["--set", "reranker.learning_rate=1e9", "train-reranker"], None
        ),
        "qkv-diverges": (3, ["--set", "ookg.learning_rate=1e12", "train-ookg"], None),
        "qkv-overflows-in-detect": (3, ["detect", "--detector", "qkv"], _overflow_qkv),
        "alignment-slot-kind": (
            2, ["train-preranker"],
            _first_alignment("alignments.jsonl", subject_id=_predicate_as_subject),
        ),
        "alignment-evaluate-slot-kind": (
            2, ["evaluate", "--facet", "transductive"],
            _first_alignment("split-transductive.jsonl", subject_id=_predicate_as_subject),
        ),
        "alignment-evaluate-unknown-id": (
            2, ["--set", "store_variant=large", "evaluate", "--facet", "transductive"],
            _first_alignment("split-transductive.jsonl", subject_id=lambda record: "Q404"),
        ),
        "oie-sentence-int": (
            2, ["--set", "link_oie={out}/link_oie.jsonl", "--set", "store_variant=large", "link"],
            _oie_file("link_oie.jsonl", sentence=5),
        ),
        "oie-subject-marker": (
            2, ["--set", "link_oie={out}/link_oie.jsonl", "--set", "store_variant=large", "link"],
            _oie_file("link_oie.jsonl", subject="x <REL> y"),
        ),
        "extractor-list-build-benchmark": (
            2, ["--set", "test_oie={out}/test_oie.jsonl", "build-benchmark"],
            _oie_file("test_oie.jsonl", extractor=["x"]),
        ),
        "extractor-list-evaluate": (
            2, ["evaluate", "--facet", "transductive"],
            _first_alignment("split-transductive.jsonl", extractor=lambda record: ["x"]),
        ),
        "alignment-augmented-string": (
            2, ["evaluate", "--facet", "transductive"],
            _first_alignment("split-transductive.jsonl", augmented=lambda record: "false"),
        ),
        "oie-subject-blank-in-split": (
            2, ["evaluate", "--facet", "transductive"],
            _first_alignment("split-transductive.jsonl", subject=lambda record: "  "),
        ),
        "qkv-garbage-header": (
            2, ["detect", "--detector", "qkv"],
            lambda out: _replace_header(out / "qkv.params", b"garbage"),
        ),
        "reranker-empty-header": (
            2, ["evaluate", "--facet", "polysemous", "--use-reranker"],
            lambda out: _replace_header(out / "reranker.params", b"{}"),
        ),
        "truncated-index": (2, ["link"], lambda out: _truncate(out / "entities.flix", 30)),
        "flix-trailing-bytes": (
            2, ["link"],
            lambda out: (out / "entities.flix").write_bytes(
                (out / "entities.flix").read_bytes() + bytes(18)
            ),
        ),
        "flix-kind-byte": (2, ["evaluate", "--facet", "transductive"], _set_flix_kind),
        "flix-repeated-id": (2, ["link"], _repeat_flix_id),
        "flix-row-exponent": (2, ["link", "--k", "3"], _flip_flix_exponent),
        "kg-entry-aliases-int": (
            2, ["--set", "kg_entries={out}/kg_entries.jsonl", "build-benchmark"],
            _kg_entry_with(aliases=5),
        ),
        "kg-entry-aliases-int-list": (
            2, ["--set", "kg_entries={out}/kg_entries.jsonl", "build-benchmark"],
            _kg_entry_with(aliases=[5]),
        ),
        "kg-entry-aliases-string": (
            2, ["--set", "kg_entries={out}/kg_entries.jsonl", "build-benchmark"],
            _kg_entry_with(aliases="Bob"),
        ),
        "kg-entry-description-int": (
            2, ["--set", "kg_entries={out}/kg_entries.jsonl", "build-benchmark"],
            _kg_entry_with(description=5),
        ),
        "surrogate-in-config": (1, ["--set", 'link_oie="\\ud800"', "build-benchmark"], None),
        "surrogate-in-kg-entry": (
            2, ["--set", "kg_entries={out}/kg_entries.jsonl", "train-preranker"],
            _kg_entry_with(description="\ud800"),
        ),
        "out-of-memory-encoder-dim": (
            2, ["--set", f"encoder.dim={10**15}", "train-preranker"], None
        ),
        "out-of-memory-negatives": (
            2, ["--set", f"reranker.negatives_per_positive={10**15}", "train-reranker"], None
        ),
        "index-count-past-end": (2, ["link"], _claim_in_flix(9, "<Q", 2**40)),
        "index-id-length-past-end": (2, ["link"], _claim_in_flix(21, "<I", 10**6)),
        "kg-entry-label-marker": (
            2, ["--set", "kg_entries={out}/kg_entries.jsonl", "build-benchmark"],
            _kg_entry_with(label="Bad <SUBJ> label"),
        ),
        "stale-index-link": (2, ["link"], _edit_params(_perturb_projection)),
        "stale-index-evaluate": (
            2, ["evaluate", "--facet", "transductive"], _edit_params(_perturb_projection)
        ),
        "stale-index-table-row": (2, ["link"], _edit_params(_perturb_table_row)),
        "reranker-truncated": (
            2, ["evaluate", "--facet", "polysemous", "--use-reranker"],
            lambda out: _truncate(out / "reranker.params", -3),
        ),
        "dim-reranker": (
            2, ["evaluate", "--facet", "polysemous", "--use-reranker"],
            _widen("reranker.params", "cross-scorer"),
        ),
        "dim-qkv": (2, ["detect", "--detector", "qkv"], _widen("qkv.params", "qkv-attention")),
        "qkv-huge-shape": (
            2, ["detect", "--detector", "qkv"],
            lambda out: _claim_huge_first_record(out / "qkv.params"),
        ),
        "params-trailing-bytes": (
            2, ["index"],
            lambda out: (out / "preranker.params").write_bytes(
                (out / "preranker.params").read_bytes() + b"\0"
            ),
        ),
        "projection-row-count": (2, ["index"], _edit_params(_drop_projection_rows)),
        "table-ids-unsorted": (
            2, ["index"], _edit_params(_set_table_id(0, lambda header, ids: ids[1] + 1))
        ),
        "table-ids-duplicated": (
            2, ["index"], _edit_params(_set_table_id(1, lambda header, ids: ids[0]))
        ),
        "table-ids-negative": (
            2, ["index"], _edit_params(_set_table_id(0, lambda header, ids: -1))
        ),
        "table-ids-out-of-range": (
            2, ["index"], _edit_params(_set_table_id(-1, lambda header, ids: header["buckets"]))
        ),
        "table-row-count": (2, ["index"], _edit_params(_drop_table_row)),
        "table-buckets-too-few": (2, ["index"], _edit_params(_shrink_buckets)),
        "table-hidden-mismatch": (2, ["index"], _edit_params(_widen_hidden)),
        "table-seed-negative": (2, ["index"], _edit_params(_negative_seed)),
        "thresholds-empty-record": (
            2, ["detect"], lambda out: (out / "thresholds.jsonl").write_text("{}\n")
        ),
        "thresholds-attention-out-of-range": (
            2, ["detect"], _thresholds_with(attention=[5, 5, 5])
        ),
        "thresholds-header-only": (2, ["detect"], _header_only("thresholds.jsonl")),
        "config-file-missing": (2, ["--config", "{out}/missing.json", "index"], None),
        "resume-without-params": (
            2, ["train-preranker", "--resume"], lambda out: (out / "preranker.params").unlink()
        ),
        "resume-encoder-mismatch": (
            2, ["--set", "encoder.dim=8", "--set", "encoder.buckets=999",
                "train-preranker", "--resume"], None,
        ),
        "evaluate-empty-facet": (
            2, ["evaluate", "--facet", "transductive"], _header_only("split-transductive.jsonl")
        ),
        "detect-empty-facet": (2, ["detect"], _header_only("split-out-of-kg.jsonl")),
        "pairs-predicate-as-subject": (
            2, ["--set", "train_pairs={out}/train_pairs.jsonl", "build-benchmark"],
            _one_pair(subject=_predicate_as_subject),
        ),
        "pairs-mention-int": (
            2, ["--set", "train_pairs={out}/train_pairs.jsonl", "build-benchmark"],
            _one_pair(subject_mention=lambda record: 5),
        ),
        "params-header-missing-keys": (
            2, ["index"],
            lambda out: _replace_header(
                out / "preranker.params", b'{"format":"reference-encoder"}'
            ),
        ),
        **{case: (2, argv, _delete(name)) for case, (argv, name, _) in MISSING_INPUTS.items()},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_and_one_line(self, case, pipeline, tmp_path, capsys):
        directory, config_path = pipeline
        code, argv, corrupt = self.CASES[case]
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        if corrupt is not None:
            corrupt(out)
        before = {p.name: file_hash(p) for p in out.glob("*.params")}
        capsys.readouterr()
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        assert run(config_path, "--out-dir", str(out), *argv) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err
        assert err.strip().endswith("run index") == (
            case.startswith(("stale-index", "flix-", "index-")) or case == "truncated-index")
        if case.startswith("table-"):
            assert "preranker.params" in err
        if case.startswith("kg-entry-"):
            assert "line 2: entry" in err
        if case.startswith("pairs-"):
            assert "line 1: pair" in err
        if case.startswith("flix-"):
            assert "entities.flix" in err
        if case == "flix-row-exponent":
            assert "row 0 (" in err and "is not a finite unit vector" in err
        if case.startswith("dim-"):
            name, producer = {"dim-reranker": ("reranker.params", "train-reranker"),
                              "dim-qkv": ("qkv.params", "train-ookg")}[case]
            assert name in err and err.strip().endswith(f"run {producer}")
        if case in MISSING_INPUTS:
            _, name, producer = MISSING_INPUTS[case]
            assert str(out / name) in err and err.strip().endswith(f"(run {producer} first)")
        if case.startswith("alignment-"):
            assert "line 2: alignment" in err
        if case.startswith("oie-"):
            assert re.search(r"line \d: (sentence must be a string or null|OIE subject)", err)
        if case.endswith("-marker"):
            assert re.search(r"line \d: (entry Q2 label|OIE subject) contains reserved token", err)
        if case.startswith("surrogate-"):
            field = "config key 'link_oie'" if code == 1 else "line 2: field 'description'"
            assert f"{field} holds a lone surrogate" in err
        if case.startswith("out-of-memory-"):
            assert err.startswith("error: out of memory")
        if case.startswith("index-"):
            assert err.strip().endswith("entities.flix: truncated index payload; run index")
        if case.startswith("path-"):
            assert "must be a non-empty path string" in err
        if case == "resume-encoder-mismatch":
            assert "preranker.params" in err and "(32, 16, 4096)" in err and "(8, 16, 999)" in err
        if case.startswith("extractor-"):
            assert re.search(r"line \d: extractor must be a string or null, got \['x'\]", err)
        if case.startswith("section-"):
            section, key = argv[1].split("=")[0].split(".")
            assert f"section {section!r}" in err and key in err
        if case.startswith(("thresholds-", "config-file")) and case != "thresholds-int":
            assert str(out) in err
        assert {p.name: file_hash(p) for p in out.glob("*.params")} == before


# ---------------------------------------------------------------------------
# Contract fuzz: seeded config values and byte edits of the pipeline's files

FUZZ_SEED = 29
FUZZ_VALUES = ("x", 0, -1, "", [], {}, None, 10**15)
# a legitimate endless run at the huge value: every epoch or k^3 candidate runs
FUZZ_ENDLESS_AT_HUGE = frozenset({"epochs", "rerank_k"})
POLYSEMOUS_RERANKED = ["evaluate", "--facet", "polysemous", "--use-reranker"]
FUZZ_SECTIONS = {
    "encoder": (EncoderConfig, ["train-preranker"]),
    "preranker": (PrerankTrainConfig, ["train-preranker"]),
    "reranker": (RerankTrainConfig, ["train-reranker"]),
    "ookg": (QkvTrainConfig, ["train-ookg"]),
}
# a top-level key runs the stage that reads it, else build-benchmark
FUZZ_STAGES = {
    "link_k": ["link"], "link_oie": ["link"], "with_context": ["link"],
    "store_variant": ["evaluate", "--facet", "transductive"],
    "facet_alignments": ["evaluate", "--facet", "transductive"],
    "rerank_k": POLYSEMOUS_RERANKED, "reranker_params": POLYSEMOUS_RERANKED,
    "detector": ["detect"], "thresholds": ["detect"],
    "qkv_key_pool": ["detect", "--detector", "qkv"], "qkv_params": ["detect", "--detector", "qkv"],
    "preranker_params": ["index"], "train_alignments": ["train-reranker"],
    "calibration_alignments": ["train-ookg"],
}
# each edited file and the stage that reads it; the KG, OIE and pairs files are fixture inputs
FUZZ_FILES = {
    "kg_entries.jsonl": ["build-benchmark"], "kg_facts.jsonl": ["build-benchmark"],
    "split-transductive.jsonl": ["evaluate", "--facet", "transductive"],
    "thresholds.jsonl": ["detect"], "preranker.params": ["index"],
    "reranker.params": POLYSEMOUS_RERANKED, "qkv.params": ["detect", "--detector", "qkv"],
    "entities.flix": ["link"],
    "train_oie.jsonl": ["build-benchmark"], "train_pairs.jsonl": ["build-benchmark"],
}
FUZZ_EDITS = ("truncate", "xor", "extend")
ALIGNMENT_FIELDS = ("subject", "relation", "object", "subject_id", "predicate_id", "object_id",
                    "augmented", "sentence", "extractor")
# each record file, the stage that reads it and the record fields it may hold
FUZZ_RECORDS = {
    "kg_entries.jsonl": (["build-benchmark"], ("id", "kind", "label", "description", "aliases")),
    "kg_facts.jsonl": (["build-benchmark"], ("subject", "predicate", "object")),
    "train_oie.jsonl": (
        ["build-benchmark"],
        ("sentence_id", "subject", "relation", "object", "sentence", "extractor"),
    ),
    "train_pairs.jsonl": (
        ["build-benchmark"],
        ("sentence_id", "sentence", "subject", "predicate", "object", "subject_mention",
         "object_mention"),
    ),
    "alignments.jsonl": (["train-reranker"], ALIGNMENT_FIELDS),
    "split-transductive.jsonl": (["evaluate", "--facet", "transductive"], ALIGNMENT_FIELDS),
}


def _fuzz_config_cases():
    """(key, value) for every fuzzed top-level and section key and value;
    ``out_dir`` is left out, because ``--out-dir`` overrides it."""
    keys = sorted(cli.KNOWN_KEYS - set(FUZZ_SECTIONS) - {"out_dir"})
    keys += [f"{section}.{f.name}" for section, (cls, _) in FUZZ_SECTIONS.items()
             for f in dataclasses.fields(cls)]
    return [(key, value) for key in keys for value in FUZZ_VALUES
            if not (value == 10**15 and key.split(".")[-1] in FUZZ_ENDLESS_AT_HUGE)]


def _fuzz_byte_cases(names, draws=4):
    """(file, edit, draw) for each of the files ``names`` and every edit; a
    draw seeds the offset."""
    return [(name, edit, draw) for name in names for edit in FUZZ_EDITS for draw in range(draws)]


def _fuzz_record_cases():
    """(file, field, value) for every record file, field and fuzzed value."""
    return [(name, field, value) for name, (_, fields) in FUZZ_RECORDS.items()
            for field in fields for value in FUZZ_VALUES]


def _fuzz_sample(cases, size, always):
    """``always`` plus ``size`` seeded picks of the other ``cases``, in case order."""
    rest = [case for case in cases if case not in always]
    chosen = np.random.default_rng(FUZZ_SEED).choice(len(rest), size=size, replace=False)
    return [*always, *(rest[i] for i in sorted(chosen))]


def _edit_bytes(data, edit, rng):
    """``data`` truncated at, XOR-ed with 0xFF at, or extended by eight bytes
    at one seeded offset."""
    offset = int(rng.integers(len(data)))
    if edit == "truncate":
        return data[:offset]
    if edit == "xor":
        return data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1:]
    return data[:offset] + rng.bytes(8) + data[offset:]


def _edit_record(data, field, value, rng):
    """``data``, a JSONL file, whose record at one seeded line past any
    header line sets ``field`` to ``value``: replaced when the record holds
    it, else added."""
    lines = data.decode("utf-8").splitlines(keepends=True)
    first = int(HEADER_KEY in json.loads(lines[0]))
    line = first + int(rng.integers(len(lines) - first))
    lines[line] = json.dumps({**json.loads(lines[line]), field: value}) + "\n"
    return "".join(lines).encode("utf-8")


class TestContractFuzz:
    """Every fuzzed case exits 0-3; a nonzero exit prints one stderr line
    and no traceback; no case changes the bytes of the files it reads. A
    byte that is not UTF-8 and an allocation past the address space are
    always among the cases."""

    CONFIG_CASES = _fuzz_sample(
        _fuzz_config_cases(), 46,
        always=[("encoder.dim", 10**15), ("reranker.negatives_per_positive", 10**15)],
    )
    BYTE_CASES = [
        *_fuzz_sample(_fuzz_byte_cases(list(FUZZ_FILES)[:8]), 30,
                      always=[("kg_entries.jsonl", "xor", 0), ("thresholds.jsonl", "xor", 0)]),
        # the OIE and pairs files draw apart, so the first eight files keep their cases
        *_fuzz_sample(_fuzz_byte_cases(list(FUZZ_FILES)[8:]), 8, always=[]),
    ]
    RECORD_CASES = _fuzz_sample(_fuzz_record_cases(), 40, always=[])

    def _run(self, argv, out, inputs, capsys):
        before = {path: file_hash(path) for path in inputs}
        capsys.readouterr()
        code = main(["--out-dir", str(out), *argv])
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3), captured.err
        if code:
            assert len(captured.err.strip().splitlines()) == 1, captured.err
            assert "Traceback" not in captured.err
        assert {path: file_hash(path) for path in inputs} == before

    @pytest.mark.parametrize("key,value", CONFIG_CASES,
                             ids=[f"{key}={value!r}" for key, value in CONFIG_CASES])
    def test_config_value(self, key, value, pipeline, tmp_path, monkeypatch, capsys):
        directory, config_path = pipeline
        monkeypatch.chdir(tmp_path)  # a relative path value resolves here
        out = tmp_path / "out"
        shutil.copytree(directory / "out", out)
        section = key.split(".")[0]
        stage = FUZZ_SECTIONS[section][1] if section in FUZZ_SECTIONS else FUZZ_STAGES.get(
            key, ["build-benchmark"])
        inputs = [config_path, *directory.glob("*.jsonl")]
        self._run(["--config", str(config_path), "--set", f"{key}={json.dumps(value)}", *stage],
                  out, inputs, capsys)

    def _edit(self, name, edit, stage, pipeline, out, capsys):
        """Run ``stage`` on a copy of the pipeline's out_dir in which file
        ``name`` holds ``edit(its bytes)``."""
        directory, config_path = pipeline
        shutil.copytree(directory / "out", out)
        argv = ["--config", str(config_path)]
        path = out / name
        if not path.exists():  # a fixture input, read through its config key
            shutil.copy(directory / name, path)
            argv += ["--set", f"{path.stem}={path}"]
        path.write_bytes(edit(path.read_bytes()))
        self._run([*argv, *stage], out, [path], capsys)

    @pytest.mark.parametrize("name,edit,draw", BYTE_CASES,
                             ids=[f"{name}-{edit}-{draw}" for name, edit, draw in BYTE_CASES])
    def test_byte_edit(self, name, edit, draw, pipeline, tmp_path, capsys):
        rng = np.random.default_rng([FUZZ_SEED, list(FUZZ_FILES).index(name),
                                     FUZZ_EDITS.index(edit), draw])
        self._edit(name, lambda data: _edit_bytes(data, edit, rng), FUZZ_FILES[name],
                   pipeline, tmp_path / "out", capsys)

    @pytest.mark.parametrize("name,field,value", RECORD_CASES,
                             ids=[f"{name}-{field}={value!r}" for name, field, value in RECORD_CASES])
    def test_record_field(self, name, field, value, pipeline, tmp_path, capsys):
        stage, fields = FUZZ_RECORDS[name]
        rng = np.random.default_rng([FUZZ_SEED, list(FUZZ_RECORDS).index(name),
                                     fields.index(field)])
        self._edit(name, lambda data: _edit_record(data, field, value, rng), stage,
                   pipeline, tmp_path / "out", capsys)
