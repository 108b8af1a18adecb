"""PRNG state packed as plain integer words.

Generators are never stored on state objects; instead the PCG64 state is
round-tripped through a uint64 word vector so states stay plain values
and every draw sequence is reproducible from the words alone.
`rng_from_words` re-seats one module-level bit generator, so the generator
it returns is valid only until its next call.
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


# the one bit generator `rng_from_words` re-seats (a constant seed draws no entropy)
_BIT_GENERATOR = np.random.PCG64(0)


def rng_from_words(words: np.ndarray) -> np.random.Generator:
    """A generator at the state `words`, valid until the next call."""
    words = np.asarray(words, dtype=np.uint64)
    if words.shape != (WORD_COUNT,):
        raise ValueError(f"expected {WORD_COUNT} state words, got {words.shape}")
    w = [int(x) for x in words]
    _BIT_GENERATOR.state = {
        "bit_generator": "PCG64",
        "state": {"state": (w[0] << 64) | w[1], "inc": (w[2] << 64) | w[3]},
        "has_uint32": w[4],
        "uinteger": w[5],
    }
    return np.random.Generator(_BIT_GENERATOR)
