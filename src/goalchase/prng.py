"""PRNG state as a value: one tuple of plain ints.

Generators are never stored on state objects; the PCG64 state is carried
as its words `(state, inc, has_uint32, uinteger)`, so states stay values
and every draw sequence is reproducible from the words alone.  Only this
module builds or unpacks them, and input reaches them only as a seed that
the config boundary has checked, so nothing here checks them again.
`rng_from_words` re-seats one module-level bit generator, so the generator
it returns is valid only until its next call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["new_words", "rng_from_words", "rng_to_words"]


def new_words(seed: int) -> tuple:
    """Fresh words for a 64-bit seed."""
    return rng_to_words(np.random.Generator(np.random.PCG64(seed)))


def rng_to_words(gen: np.random.Generator) -> tuple:
    """The words of a PCG64 generator's current state."""
    st = gen.bit_generator.state
    return st["state"]["state"], st["state"]["inc"], st["has_uint32"], st["uinteger"]


# the one bit generator `rng_from_words` re-seats (a constant seed draws no entropy)
_BIT_GENERATOR = np.random.PCG64(0)


def rng_from_words(words: tuple) -> np.random.Generator:
    """A generator at the state `words`, valid until the next call."""
    state, inc, has_uint32, uinteger = words
    _BIT_GENERATOR.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return np.random.Generator(_BIT_GENERATOR)
