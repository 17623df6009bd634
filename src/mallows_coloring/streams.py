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
shifted into (0, 1): (b + 0.5) 2^-53 for the top bits b, except that
b = 2^53 - 1, where that sum rounds up to 1.0, gives the largest double
below 1.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_S11, _S27, _S30, _S31 = (np.uint64(n) for n in (11, 27, 30, 31))
_UM1, _UM2, _UGAMMA = np.uint64(_M1), np.uint64(_M2), np.uint64(GAMMA)


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
    return min(((mix(seed, *words) >> 11) + 0.5) * _INV53, _BELOW_ONE)


def u01_from_word(word: int, j: int) -> float:
    """j-th uniform of the substream anchored at a previously mixed word."""
    return min(((_finalize((word + j * GAMMA) & MASK64) >> 11) + 0.5) * _INV53,
               _BELOW_ONE)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """FINALIZE of a uint64 array, in place; returns z."""
    z ^= z >> _S30
    z *= _UM1
    z ^= z >> _S27
    z *= _UM2
    z ^= z >> _S31
    return z


def _spread(w):
    """w * GAMMA mod 2^64: a uint64 scalar for an int, a new array for an
    integer array."""
    if isinstance(w, (int, np.integer)):
        return np.uint64((int(w) & MASK64) * GAMMA & MASK64)
    return np.asarray(w).astype(np.int64, copy=False).view(np.uint64) * _UGAMMA


def _u01_bits(bits: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) from 64-bit hashes (consumes `bits`)."""
    bits >>= _S11
    out = bits.astype(np.float64)
    out += 0.5
    out *= _INV53
    np.minimum(out, _BELOW_ONE, out=out)
    return out


def mix_keys(seed: int, first: np.ndarray, *words) -> np.ndarray:
    """Vectorized mix(seed, first, *words) over an integer array `first`;
    each further word is an int or an array of the same shape."""
    out = _spread(first)
    out ^= np.uint64(_finalize((GAMMA + seed) & MASK64))
    out = _finalize_array(out)
    for w in words:
        out ^= _spread(w)
        out = _finalize_array(out)
    return out


def mix_next(keys: np.ndarray, *words) -> np.ndarray:
    """u01_next without the float step: the hashes of the keys `keys`
    (from mix_keys) extended by one or more `words`, mix_next(mix_keys(seed,
    w), s) == mix_keys(seed, w, s).  Leaves `keys` as it was."""
    for w in words:
        keys = _finalize_array(keys ^ _spread(w))
    return keys


def u01_next(keys: np.ndarray, *words) -> np.ndarray:
    """Uniforms of the keys `keys` (from mix_keys) extended by `words`:
    u01_next(mix_keys(seed, w), s) == u01_keys(seed, w, s).  Leaves `keys`
    as it was, so one array of site keys serves several streams."""
    # mix_next's loop, inlined: the extra call showed on short windows
    for w in words:
        keys = _finalize_array(keys ^ _spread(w))
    # _u01_bits consumes its argument, which is the caller's with no words
    return _u01_bits(keys if words else keys.copy())


def u01_keys(seed: int, first: np.ndarray, *words) -> np.ndarray:
    """Vectorized u01(seed, first, *words), words as for mix_keys."""
    return _u01_bits(mix_keys(seed, first, *words))


def u01_from_words(words: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Vectorized u01_from_word over uint64 words and integer indices j."""
    z = _spread(j)
    z += words
    return _u01_bits(_finalize_array(z))


def u01_array(seed: int, words: np.ndarray, stream: int) -> np.ndarray:
    """Vectorized u01(seed, w, stream)."""
    return u01_keys(seed, words, stream)
