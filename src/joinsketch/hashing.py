"""Pairwise-independent hashing into 64-bit fixed-point fractions.

A hash value is a plain integer ``raw`` in ``[0, 2**64)`` standing for the
fraction ``raw / 2**64``.  On that grid, wrapping 64-bit subtraction realizes
subtraction mod 1 exactly, which is what makes the structured pair hash

    h(x, y) = (h1(x) - h2(y)) mod 1

cheap to evaluate, compare and sort.  The pair hash is the workhorse of the
whole estimator: for a fixed y, walking x in h1-order makes h(x, y) ascend
with a single wraparound, so all pairs below a threshold sit in one
contiguous cyclic run.

The one hash family, ``wrapping64``, is multiply-add in wrapping 64-bit
arithmetic.  The README records why a second family was retired.

Hash parameters come from :class:`Pcg64Stream`, a pure-Python copy of the
stream ``np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))``
draws: the same 64-bit words for every seed and key, without importing
``numpy.random`` and the ``secrets``, ``hashlib`` and Cython runtime it
loads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

GRID_BITS = 64
GRID = 1 << GRID_BITS  # denominator of the fixed-point grid; GRID itself means 1.0
MASK64 = GRID - 1
WRAPPING64 = "wrapping64"


@dataclass(frozen=True)
class PairwiseHash:
    """One ``wrapping64`` hash ``(multiplier * x + addend) mod 2**64`` from
    32-bit attribute values to the fraction grid.

    A single machine word, but only approximately pairwise independent on
    the grid.  :func:`draw_single` draws an odd multiplier.
    """

    multiplier: int
    addend: int

    def values(self, xs: np.ndarray) -> np.ndarray:
        """The hashes of a uint64 array of 32-bit values."""
        out = np.uint64(self.multiplier) * xs
        out += np.uint64(self.addend)  # in place: one temporary fewer
        return out


@dataclass(frozen=True)
class PairHash:
    """Structured pair hash h(x, y) = (h1(x) - h2(y)) mod 1 on the grid."""

    h1: PairwiseHash
    h2: PairwiseHash


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and the
# 128-bit LCG multiplier of PCG64 (O'Neill 2014, PCG_DEFAULT_MULTIPLIER_128).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(n: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first
    (one word for 0)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


class Pcg64Stream:
    """The 64-bit words ``np.random.PCG64(np.random.SeedSequence(seed,
    spawn_key=key))`` yields, bit for bit, in plain Python integers.

    SeedSequence hashes the 32-bit words of ``seed``, zero-padded to its
    4-word pool, then those of each key element, into the pool (``mix_entropy``)
    and expands the pool into four 64-bit words (``generate_state``): PCG64's
    initial state and increment.  ``next64`` is one PCG-XSL-RR 128/64 step,
    the draw ``Generator.integers(0, 2**64, dtype=np.uint64)`` makes.  A
    negative seed or key element raises ``ValueError``, as numpy does.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        entropy = _words32(seed)
        entropy += [0] * (4 - len(entropy))
        for element in key:
            entropy += _words32(element)
        # mix_entropy.  hashmix(word) xors the word with a running constant
        # h, steps h and multiplies by it; mix(x, y) is L*x - R*y.  Both end
        # in a xor-shift by 16, all mod 2**32.
        h = _INIT_A
        pool = []
        for word in entropy[:4]:  # the pool's words: hashmix of the first 4
            word ^= h
            h = h * _MULT_A & _MASK32
            word = word * h & _MASK32
            pool.append(word ^ word >> 16)
        # pool[dst] = mix(pool[dst], hashmix(word)): each pool word into
        # every other, then each word past the first 4 into every pool word.
        for src in range(len(entropy)):
            word = pool[src] if src < 4 else entropy[src]
            for dst in range(4):
                if dst != src:
                    v = word ^ h
                    h = h * _MULT_A & _MASK32
                    v = v * h & _MASK32
                    v = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _MASK32
                    pool[dst] = v ^ v >> 16
        # generate_state(4, uint64): the pool, cycled, hashed into 8 words
        # like hashmix with a second running constant, then read as the
        # little-endian uint64 words s0, s1, i0, i1.
        h = _INIT_B
        words = []
        for i in range(8):
            v = pool[i & 3] ^ h
            h = h * _MULT_B & _MASK32
            v = v * h & _MASK32
            words.append(v ^ v >> 16)
        s0, s1, i0, i1 = (lo | hi << 32 for lo, hi in zip(words[::2], words[1::2]))
        # PCG's srandom(s0 << 64 | s1, i0 << 64 | i1): step from state 0,
        # add the initial state, step again.
        self._inc = inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128

    def next64(self) -> int:
        """The next word: an LCG step, then the high half xor the low half
        rotated right by the state's top 6 bits."""
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (state >> 64 ^ state) & MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & MASK64


def draw_single(rng: Pcg64Stream, family: str = WRAPPING64) -> PairwiseHash:
    """Draw fresh hash parameters from a seeded stream: an odd multiplier,
    then the addend.  ``family`` is accepted for callers that pass
    ``EstimatorConfig.family`` on, and must be ``wrapping64``."""
    if family != WRAPPING64:
        raise ValueError(f"unknown hash family: {family!r}")
    multiplier = rng.next64() | 1
    addend = rng.next64()
    return PairwiseHash(multiplier, addend)


def draw_pair_hash(rng: Pcg64Stream, family: str = WRAPPING64) -> PairHash:
    return PairHash(draw_single(rng, family), draw_single(rng, family))


# Disjoint spawn-key namespaces keep estimator-run streams, sample-selector
# streams and the pilot's stream independent even when their indices collide.
_RUN_SPACE = 0
_SELECTOR_SPACE = 1
_PILOT_SPACE = 2


def run_rng(seed: int, key: tuple[int, ...]) -> Pcg64Stream:
    """Stream for one estimator run identified by ``key``."""
    return Pcg64Stream(seed, (_RUN_SPACE, *key))


def selector_rng(seed: int, side_index: int) -> Pcg64Stream:
    """Stream for a sampling selector on the given side (0=left, 1=right)."""
    return Pcg64Stream(seed, (_SELECTOR_SPACE, side_index))


def pilot_rng(seed: int) -> Pcg64Stream:
    """Stream for the estimator's pilot sample."""
    return Pcg64Stream(seed, (_PILOT_SPACE,))
