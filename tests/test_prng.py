"""`rng_from_words` re-seats one shared bit generator on every call, so
its draws must equal those of a fresh PCG64 set to the same words, call
after call, whatever the previous call left behind."""

import numpy as np

from goalchase.prng import new_words, rng_from_words, rng_to_words


def _fresh(words):
    state, inc, has_uint32, uinteger = words
    bg = np.random.PCG64(0)
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return np.random.Generator(bg)


def _draws(gen):
    # a 32-bit draw leaves half a word buffered (has_uint32) in the state
    return (gen.uniform(-1, 1, 3), gen.integers(0, 2**31, 3, dtype=np.int32),
            gen.integers(10, size=2))


def test_rng_from_words_draws_as_a_fresh_bit_generator():
    # two streams, alternating, so every call re-seats from the other's state
    words = [new_words(5), new_words(6)]
    for k in range(8):
        w = words[k % 2]
        gen = rng_from_words(w)
        got = _draws(gen)
        words[k % 2] = rng_to_words(gen)
        for a, b in zip(got, _draws(_fresh(w))):
            assert np.array_equal(a, b)
