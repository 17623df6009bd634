"""Counter-based pseudorandom streams for the coloring pipelines.

Every pipeline variate is a pure function of (seed, key words) through a
splitmix64-style finalizer chain, so samples are reproducible bit for bit,
window extension never perturbs already-drawn sites, and disjoint windows
can be generated concurrently without shared state.  The splitting rule is
part of the stable interface:

    state = FINALIZE(GAMMA + seed)
    for each key word w:  state = FINALIZE(state XOR (w * GAMMA mod 2^64))

with FINALIZE the splitmix64 output mix.  Key words are taken mod 2^64
(two's complement for negative site indices).  Uniforms use the top 53 bits
shifted into (0, 1), never returning 0.0 exactly.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def mix(seed: int, *words: int) -> int:
    """64-bit hash of (seed, words); the scalar form of the splitting rule."""
    state = _finalize((GAMMA + seed) & MASK64)
    for w in words:
        state = _finalize(state ^ ((w & MASK64) * GAMMA & MASK64))
    return state


def u01(seed: int, *words: int) -> float:
    """Uniform in (0, 1), a pure function of the key."""
    return ((mix(seed, *words) >> 11) + 0.5) * _INV53


def u01_from_word(word: int, j: int) -> float:
    """j-th uniform of the substream anchored at a previously mixed word."""
    return ((_finalize((word + j * GAMMA) & MASK64) >> 11) + 0.5) * _INV53


def _finalize_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def mix_array(seed: int, words: np.ndarray, stream: int) -> np.ndarray:
    """Vectorized mix(seed, w, stream) over an array of key words.

    Matches the scalar rule exactly: hash state absorbs each word in turn.
    """
    words = np.asarray(words).astype(np.int64).view(np.uint64)
    state0 = np.uint64(_finalize((GAMMA + seed) & MASK64))
    state = _finalize_array(state0 ^ (words * np.uint64(GAMMA)))
    stream_word = np.uint64((stream & MASK64) * GAMMA & MASK64)
    return _finalize_array(state ^ stream_word)


def u01_array(seed: int, words: np.ndarray, stream: int) -> np.ndarray:
    """Vectorized u01(seed, w, stream)."""
    bits = mix_array(seed, words, stream)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _INV53
