"""The program's random draws, in Python integers and numpy uint64 arrays.

:func:`shuffler` gives the permutations that numpy's
``default_rng(seed).shuffle`` gives, bit for bit, so the scrambled Halton
points stay scipy's.  :func:`uniform` is a counter-based SplitMix64 stream
(Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
OOPSLA 2014): draw k of a seed is a function of (seed, k) alone, so any
range of draws is that range of a longer draw.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shuffler", "uniform"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, whose constant steps by ``mult`` per call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _seed_words(seed: int) -> list:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``: the seed's
    32-bit words, low first, hashed into a pool of 4 and drawn from it."""
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        out = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return out ^ out >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [draw(pool[i % 4]) for i in range(8)]
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _pcg64_halves(seed: int):
    """numpy's ``next_uint32`` of ``default_rng(seed)``: PCG64 (O'Neill,
    HMC-CS-2014-0905) seeded as numpy seeds it, each 128-bit step's XSL-RR
    output given low 32 bits first."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    words = _seed_words(seed)
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
    state = ((inc + (words[0] << 64 | words[1])) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        value, rot = (state >> 64 ^ state) & _M64, state >> 122
        value = (value >> rot | value << (64 - rot)) & _M64
        yield value & _M32
        yield value >> 32


def shuffler(seed: int):
    """shuffle(size): the next permutation of range(size) that shuffles of
    ``np.arange(size)`` by one ``default_rng(seed)`` give in turn, as a list:
    Fisher-Yates from the top, each index drawn by masked rejection."""
    halves = _pcg64_halves(seed)

    def shuffle(size: int) -> list:
        perm = list(range(size))
        for i in range(size - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = next(halves) & mask
            while j > i:
                j = next(halves) & mask
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    return shuffle


# SplitMix64's constants as 0-d uint64 arrays: numpy wraps array arithmetic
# without a warning, and no operand is cast to another type
_GAMMA, _MULT1, _MULT2, _S11, _S27, _S30, _S31 = (
    np.array(value, np.uint64)
    for value in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31)
)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser of a uint64 array, in place."""
    z ^= z >> _S30
    z *= _MULT1
    z ^= z >> _S27
    z *= _MULT2
    z ^= z >> _S31
    return z


def uniform(count: int, seed: int, stream: int = 0, first: int = 0) -> np.ndarray:
    """Draws first .. first + count - 1 of ``stream`` of ``seed``, uniform
    in [-1, 1).  Draw k of key K is mix(mix(K) + (k + 1) 0x9E3779B97F4A7C15),
    and stream s holds the draws from k = s 2^40; the top 53 bits of a draw z
    give (z >> 11) 2^-52 - 1 exactly."""
    # K is the seed folded into 64 bits by mix, 64 bits at a time, so seeds
    # that differ above bit 64 have keys apart
    key = np.zeros(1, np.uint64)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key += np.array(seed >> shift & _M64, np.uint64)
        _mix(key)
    start = (stream << 40) + first + 1
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= _GAMMA
    z += _mix(key)
    return (_mix(z) >> _S11) * 2.0**-52 - 1.0
