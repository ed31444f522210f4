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


def _powers(init: int, mult: int, count: int) -> list[int]:
    """init * mult**j mod 2**32 for j = 0 .. count."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


# SeedSequence's hashmix xors its j-th input with init * mult**j and
# multiplies it by init * mult**(j + 1).  So the first 16 calls, which fill
# the pool and cross-mix it, and generate_state's 8 use fixed constants:
# _FILL holds (xor, multiplier) per pool word and _CROSS (source word,
# destination word, xor, multiplier) per mix, in mix_entropy's order.
_A = _powers(_INIT_A, _MULT_A, 16)
_B = _powers(_INIT_B, _MULT_B, 8)
_FILL = tuple(zip(_A[:4], _A[1:5]))
_CROSS = tuple((src, dst, x, m) for (src, dst), x, m in zip(
    [(src, dst) for src in range(4) for dst in range(4) if src != dst], _A[4:16], _A[5:17]))
# generate_state(4, uint64) hashes pool word i & 3 into 32-bit word i.
# Read as four little-endian uint64 words s0, s1, i0, i1, they give the
# state seed s0 << 64 | s1 and the stream selector i0 << 64 | i1, so word i
# goes to half i >> 2 at bit 32 * (i & 3 ^ 2): (pool word, half, xor,
# multiplier, shift).
_EXPAND = tuple((i & 3, i >> 2, x, m, 32 * (i & 3 ^ 2)) for i, x, m in zip(range(8), _B, _B[1:]))


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
        # mix_entropy, with hashmix and mix inlined.
        pool = []
        for e, (x, m) in zip(entropy, _FILL):
            v = (e ^ x) * m & _MASK32
            pool.append(v ^ v >> 16)
        for src, dst, x, m in _CROSS:
            v = (pool[src] ^ x) * m & _MASK32
            v = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _MASK32
            pool[dst] = v ^ v >> 16
        h = _A[16]  # the words past the pool's 4 mix into every pool word
        for e in entropy[4:]:
            for dst in range(4):
                v = e ^ h
                h = h * _MULT_A & _MASK32
                v = v * h & _MASK32
                v = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _MASK32
                pool[dst] = v ^ v >> 16
        halves = [0, 0]
        for src, half, x, m, shift in _EXPAND:
            v = (pool[src] ^ x) * m & _MASK32
            halves[half] |= (v ^ v >> 16) << shift
        initstate, initseq = halves
        # PCG's srandom: step from state 0, add initstate, step again.
        self._inc = inc = (initseq << 1 | 1) & _MASK128
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128

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


def spawn_rng(seed: int, *key: int) -> Pcg64Stream:
    """Deterministic, independent stream for (seed, key): the words numpy's
    ``PCG64(SeedSequence(seed, spawn_key=key))`` gives."""
    return Pcg64Stream(seed, key)


def run_rng(seed: int, key: tuple[int, ...]) -> Pcg64Stream:
    """Stream for one estimator run identified by ``key``."""
    return spawn_rng(seed, _RUN_SPACE, *key)


def selector_rng(seed: int, side_index: int) -> Pcg64Stream:
    """Stream for a sampling selector on the given side (0=left, 1=right)."""
    return spawn_rng(seed, _SELECTOR_SPACE, side_index)


def pilot_rng(seed: int) -> Pcg64Stream:
    """Stream for the estimator's pilot sample."""
    return spawn_rng(seed, _PILOT_SPACE)
