"""Deterministic derivation of named RNG sub-streams.

All randomness in a run flows from three top-level seeds (data, policy,
training). Every consumer derives its own child generator from one of
those seeds plus a purpose tag and any loop indices, so adding or removing
one consumer never shifts the draws seen by another.
"""

from __future__ import annotations

import zlib

import numpy as np


def child_rng(*keys: int | str) -> np.random.Generator:
    """Return a Generator determined solely by the key tuple.

    String keys are hashed with crc32; integer keys are masked to 32 bits
    so negative ids (the server uses -1) stay valid seed material. The
    words reach ``default_rng`` as one uint32 array, the entropy numpy
    makes of the same words as a list of ints, without its per-int
    conversion.
    """
    words = []
    for key in keys:
        if isinstance(key, str):
            words.append(zlib.crc32(key.encode("utf-8")))
        else:
            words.append(int(key) & 0xFFFFFFFF)
    return np.random.default_rng(np.array(words, dtype=np.uint32))
