"""Scalar reference hashes in plain Python integers, numpy's generator
behind the hash draws, and every distinct result pair at once.

The hash is the textbook formula that joinsketch's vectorized
``PairwiseHash.values`` computes in uint64 numpy arithmetic: the tests
check ``values`` against it and use it to hash single values.
``numpy_generator`` is the numpy generator whose raw words
``hashing.Pcg64Stream`` reproduces in pure Python.  ``distinct_pair_keys``
joins the oracle's chunks into one array, for tests that compare whole pair
sets.
"""

from __future__ import annotations

import numpy as np

from joinsketch import oracle
from joinsketch.hashing import MASK64, PairHash, PairwiseHash
from joinsketch.relation import GroupedInput


def hash_value(h: PairwiseHash, x: int) -> int:
    """``h`` at one value: ``(m x + a) mod 2**64``."""
    return (h.multiplier * x + h.addend) & MASK64


def pair_value(h: PairHash, x: int, y: int) -> int:
    """The pair hash (h1(x) - h2(y)) mod 1 on the grid."""
    return (hash_value(h.h1, x) - hash_value(h.h2, y)) & MASK64


def numpy_generator(seed: int, *key: int) -> np.random.Generator:
    """numpy's generator for (seed, key); ``integers(0, 2**64,
    dtype=np.uint64)`` returns the words ``Pcg64Stream(seed, key).next64()``
    does."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def generator_after_pair_hash(seed: int, *key: int) -> np.random.Generator:
    """numpy's generator for (seed, key), advanced past the four words
    ``draw_pair_hash(Pcg64Stream(seed, key))`` takes: test data drawn from
    it continue the hash's stream."""
    generator = numpy_generator(seed, *key)
    generator.bit_generator.advance(4)
    return generator


def distinct_pair_keys(grouped: GroupedInput, cap: int = oracle.DEFAULT_CAP) -> np.ndarray:
    """Sorted encoded keys (a << 32 | c) of all distinct result pairs."""
    chunks = list(oracle._distinct_chunks(grouped, cap))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint64)
