"""Checks of the benchmark's input generator and of BENCHMARK.json.

Run from the repository root: ``python3 -m pytest perfbench/test_bench.py``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import layers  # noqa: E402
from world import TOY, Scale, generate, vocabulary  # noqa: E402


def _toyworld():
    root = HERE.parent
    for path in (root / "src", root / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return pytest.importorskip("toyworld")


@pytest.mark.parametrize("seed", [0, 3])
def test_toy_scale_matches_test_suite_world(seed):
    expected = _toyworld().build_toy_world(seed=seed).files
    assert generate(seed, TOY) == expected


def test_same_seed_same_records():
    scale = Scale(fillers=300)
    assert generate(5, scale) == generate(5, scale)
    assert generate(5, scale) != generate(6, scale)


def test_large_scale_has_unique_labels_and_fillers():
    scale = Scale(fillers=5000)
    files = generate(1, scale)
    entities = [e for e in files["kg_entries"] if e["kind"] == "entity"]
    fillers = [e for e in entities if e["id"].startswith("F")]
    assert len(fillers) == 5000
    assert len({e["label"] for e in fillers}) == 5000
    filler_ids = {e["id"] for e in fillers}
    mentioned = {p["subject"] for p in files["train_pairs"] + files["test_pairs"]}
    mentioned |= {p["object"] for p in files["train_pairs"] + files["test_pairs"]}
    assert not mentioned & filler_ids
    assert vocabulary(scale).first != vocabulary(TOY).first


def test_benchmark_json_matches_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: bench.UNITS[name] for name in bench.END_TO_END
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize(
    "hash_sets, ok",
    [
        ([{"a": "1"}], False),  # one run proves nothing
        ([{"a": "1"}, {"a": "1"}], True),
        ([{"a": "1"}, {"a": "2"}], False),
        ([{"a": "1"}, {"a": "1", "b": "3"}], False),
    ],
)
def test_check_hashes_needs_two_identical_runs(hash_sets, ok):
    ledger = bench.Ledger()
    bench.check_hashes("stages", hash_sets, ledger)
    assert ledger.attempted == 1
    assert (not ledger.failures) == ok
