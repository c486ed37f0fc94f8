"""Deterministic desk-scale benchmark world for training and acceptance
tests: perfbench's generator (``perfbench/world.py``) at its toy scale,
read back through the package's readers.

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

import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from factlink.corpus import (
    Alignment,
    align,
    augment_aliases,
    read_oie_file,
    read_pairs_file,
    remove_leakage,
)
from factlink.kg import KgStore, load_kg, restrict_to_benchmark

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

from world import TOY, generate, write_inputs  # noqa: E402


@dataclass
class ToyWorld:
    store: KgStore  # the Large store
    brkg: KgStore  # restricted to entries referenced by the benchmark
    train: list[Alignment]  # aligned + alias-augmented + leakage-removed
    test: list[Alignment]  # aligned + alias-augmented
    files: dict  # raw record lists keyed by artifact name


def build_toy_world(seed: int = 0) -> ToyWorld:
    """The toy world's records at ``seed``, written as input files and
    built from them as ``build-benchmark`` builds its alignments."""
    files = generate(seed, TOY)
    with tempfile.TemporaryDirectory() as directory:
        paths = write_inputs(files, Path(directory))
        store = load_kg(paths["kg_entries"], paths["kg_facts"])
        train, test = (
            augment_aliases(align(read_oie_file(paths[f"{portion}_oie"]),
                                  read_pairs_file(paths[f"{portion}_pairs"], store), store), store)
            for portion in ("train", "test")
        )
    train = remove_leakage(train, test)
    brkg = restrict_to_benchmark(store, train + test)
    return ToyWorld(store=store, brkg=brkg, train=train, test=test, files=files)


def write_input_files(world: ToyWorld, directory: Path) -> dict[str, Path]:
    """Materialize the raw record lists as the CLI's input files."""
    return write_inputs(world.files, directory)
