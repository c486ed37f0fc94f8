"""The acceptance world's records, pinned: perfbench's generator at its toy
scale, for every seed the tests build it at."""

import hashlib

import pytest

from factlink.io import canonical_json
from toyworld import TOY, generate

# sha256 of the canonical JSON of generate(seed, TOY)
PINNED = {
    0: "180aa10e510a90779200529d2c5c14768eeb58523ad28e480dc0914b8ab80c4a",
    1: "5428d45fa109cb9a028ead60143ed4903208660ce1ebdb3b44dbee468f743db8",
    2: "e6b3e16470e7f830ffe3b0357062dee4064a5578284907f193b3723fbfb1903c",
    3: "dddbbac3181a566a32fed8c511429c0b9133a1802e8d884c9e3511076702bb31",
    5: "06cb327cc4f788a4d69009c7248165bb59baeb3a236392088c583d0ced1984ca",
    9: "f01d7e79c5dba2b3a9cb99f7f9ec4c764f9d40281370078f5263f0e4529c5be5",
    11: "84f28cd8d49ec93d0b039fbd0d5d9daf95b19c7dcd3a42a0ed61c45b7e2c9728",
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_toy_world_records_are_pinned(seed):
    digest = hashlib.sha256(canonical_json(generate(seed, TOY)).encode("utf-8")).hexdigest()
    assert digest == PINNED[seed], (
        f"the acceptance world moved at seed {seed}: an edit of perfbench/world.py "
        "or a change in numpy's Generator streams changed its records"
    )
