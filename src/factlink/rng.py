"""Named random streams derived from one master seed.

Each pipeline stage draws from its own stream so toggling one stage never
perturbs the randomness of another.
"""

import hashlib


def stream_seed(master_seed: int, name: str) -> int:
    """Derive a 63-bit seed for the named stream from the master seed."""
    digest = hashlib.blake2b(
        name.encode("utf-8"),
        key=int(master_seed).to_bytes(8, "little", signed=True),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little") & 0x7FFF_FFFF_FFFF_FFFF

