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
"""

from __future__ import annotations

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


def draw_single(rng: np.random.Generator, family: str = WRAPPING64) -> PairwiseHash:
    """Draw fresh hash parameters from a seeded generator.  ``family`` is
    accepted for callers that pass ``EstimatorConfig.family`` on, and must
    be ``wrapping64``."""
    if family != WRAPPING64:
        raise ValueError(f"unknown hash family: {family!r}")
    multiplier = int(rng.integers(0, GRID, dtype=np.uint64)) | 1
    addend = int(rng.integers(0, GRID, dtype=np.uint64))
    return PairwiseHash(multiplier, addend)


def draw_pair_hash(rng: np.random.Generator, family: str = WRAPPING64) -> PairHash:
    return PairHash(draw_single(rng, family), draw_single(rng, family))


# Disjoint spawn-key namespaces keep estimator-run streams, sample-selector
# streams and the pilot's stream independent even when their indices collide.
_RUN_SPACE = 0
_SELECTOR_SPACE = 1
_PILOT_SPACE = 2


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


def pilot_rng(seed: int) -> np.random.Generator:
    """Generator stream for the estimator's pilot sample."""
    return spawn_rng(seed, _PILOT_SPACE)
