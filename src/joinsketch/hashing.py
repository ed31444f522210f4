"""Pairwise-independent hashing into 64-bit fixed-point fractions.

A hash value is a plain integer ``raw`` in ``[0, 2**64)`` standing for the
fraction ``raw / 2**64``.  On that grid, wrapping 64-bit subtraction realizes
subtraction mod 1 exactly, which is what makes the structured pair hash

    h(x, y) = (h1(x) - h2(y)) mod 1

cheap to evaluate, compare and sort.  The pair hash is the workhorse of the
whole estimator: for a fixed y, walking x in h1-order makes h(x, y) ascend
with a single wraparound, so all pairs below a threshold sit in one
contiguous cyclic run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID_BITS = 64
GRID = 1 << GRID_BITS  # denominator of the fixed-point grid; GRID itself means 1.0
MASK64 = GRID - 1
MERSENNE61 = (1 << 61) - 1

WRAPPING64 = "wrapping64"
MERSENNE = "mersenne61"
FAMILIES = (WRAPPING64, MERSENNE)


@dataclass(frozen=True)
class PairwiseHash:
    """One multiply-add hash from 32-bit attribute values to the fraction grid.

    Two families are supported:

    * ``wrapping64``: ``(multiplier * x + addend) mod 2**64`` with an odd
      multiplier.  Single machine word, but only approximately pairwise
      independent on the grid.  This is the default for estimation runs.
    * ``mersenne61``: ``(multiplier * x + addend) mod (2**61 - 1)`` rescaled
      to the grid by exact integer division.  Exactly pairwise independent
      before rescaling; meant for validation runs.
    """

    multiplier: int
    addend: int
    family: str = WRAPPING64

    def values(self, xs: np.ndarray) -> np.ndarray:
        """The hashes of a uint64 array of 32-bit values."""
        if self.family == WRAPPING64:
            out = np.uint64(self.multiplier) * xs
            out += np.uint64(self.addend)  # in place: one temporary fewer
            return out
        return _mersenne_values(self.multiplier % MERSENNE61, self.addend % MERSENNE61, xs)


_LOW29 = np.uint64((1 << 29) - 1)
_P61 = np.uint64(MERSENNE61)


def _mersenne_values(m: int, a: int, xs: np.ndarray) -> np.ndarray:
    """``((m * x + a) mod p) * 2**64 // p`` for p = 2**61 - 1, m, a < p and
    32-bit x, exactly in uint64 arithmetic.

    With m = mh * 2**32 + ml, both products mh * x < 2**61 and ml * x < 2**64
    fit a word.  Since 2**61 = 1 (mod p), a word w reduces to
    (w >> 61) + (w & p), and mh * x * 2**32 to (t >> 29) + (t & (2**29 - 1))
    * 2**32 for t = mh * x.  Finally 2**64 = 8 (p + 1), so
    v * 2**64 // p = 8v + 8v // p.
    """
    t = xs * np.uint64(m >> 32)
    v = t >> np.uint64(29)
    t &= _LOW29
    t <<= np.uint64(32)
    v += t
    t = xs * np.uint64(m & 0xFFFFFFFF)
    v += t >> np.uint64(61)
    t &= _P61
    v += t
    v += np.uint64(a)  # now below 3 * 2**61 + 2**33
    t = v >> np.uint64(61)
    v &= _P61
    v += t  # now at most p + 3
    v -= _P61 * (v >= _P61)
    v <<= np.uint64(3)
    t = v // _P61
    v += t
    return v


@dataclass(frozen=True)
class PairHash:
    """Structured pair hash h(x, y) = (h1(x) - h2(y)) mod 1 on the grid."""

    h1: PairwiseHash
    h2: PairwiseHash


def draw_single(rng: np.random.Generator, family: str = WRAPPING64) -> PairwiseHash:
    """Draw fresh hash parameters from a seeded generator."""
    if family == WRAPPING64:
        multiplier = int(rng.integers(0, GRID, dtype=np.uint64)) | 1
        addend = int(rng.integers(0, GRID, dtype=np.uint64))
    elif family == MERSENNE:
        multiplier = 1 + int(rng.integers(0, MERSENNE61 - 1, dtype=np.uint64))
        addend = int(rng.integers(0, MERSENNE61, dtype=np.uint64))
    else:
        raise ValueError(f"unknown hash family: {family!r}")
    return PairwiseHash(multiplier, addend, family)


def draw_pair_hash(rng: np.random.Generator, family: str = WRAPPING64) -> PairHash:
    return PairHash(draw_single(rng, family), draw_single(rng, family))


# Disjoint spawn-key namespaces keep estimator-run streams and sample-selector
# streams independent even when their indices collide.
_RUN_SPACE = 0
_SELECTOR_SPACE = 1


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic, independent generator for (seed, key)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def run_rng(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """Generator stream for one estimator run identified by ``key``."""
    return spawn_rng(seed, _RUN_SPACE, *key)


def selector_rng(seed: int, side_index: int) -> np.random.Generator:
    """Generator stream for a sampling selector on the given side (0=left, 1=right)."""
    return spawn_rng(seed, _SELECTOR_SPACE, side_index)
