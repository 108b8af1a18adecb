"""PRNG state packed as plain integer words.

Generators are never stored on state objects; instead the PCG64 state is
round-tripped through a uint64 word vector so states stay plain values
and every draw sequence is reproducible from the words alone.
"""

from __future__ import annotations

import numpy as np

WORD_COUNT = 6
_MASK64 = (1 << 64) - 1

__all__ = ["WORD_COUNT", "new_words", "rng_from_words", "rng_to_words"]


def new_words(seed: int) -> np.ndarray:
    """Fresh word vector for a 64-bit seed."""
    return rng_to_words(np.random.Generator(np.random.PCG64(int(seed))))


def rng_to_words(gen: np.random.Generator) -> np.ndarray:
    st = gen.bit_generator.state
    if st["bit_generator"] != "PCG64":
        raise ValueError(f"unsupported bit generator {st['bit_generator']!r}")
    s = st["state"]["state"]
    inc = st["state"]["inc"]
    words = [
        s >> 64,
        s & _MASK64,
        inc >> 64,
        inc & _MASK64,
        st["has_uint32"],
        st["uinteger"],
    ]
    return np.array(words, dtype=np.uint64)


def rng_from_words(words: np.ndarray) -> np.random.Generator:
    words = np.asarray(words, dtype=np.uint64)
    if words.shape != (WORD_COUNT,):
        raise ValueError(f"expected {WORD_COUNT} state words, got {words.shape}")
    w = [int(x) for x in words]
    # a constant seed skips drawing OS entropy; the state is replaced below
    bg = np.random.PCG64(0)
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": (w[0] << 64) | w[1], "inc": (w[2] << 64) | w[3]},
        "has_uint32": w[4],
        "uinteger": w[5],
    }
    return np.random.Generator(bg)
