"""Scalar reference hashes in plain Python integers, and every distinct
result pair at once.

The hash is the textbook formula that joinsketch's vectorized
``PairwiseHash.values`` computes in uint64 numpy arithmetic: the tests
check ``values`` against it and use it to hash single values.
``distinct_pair_keys`` joins the oracle's chunks into one array, for tests
that compare whole pair sets.
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


def distinct_pair_keys(grouped: GroupedInput, cap: int = oracle.DEFAULT_CAP) -> np.ndarray:
    """Sorted encoded keys (a << 32 | c) of all distinct result pairs."""
    chunks = list(oracle._distinct_chunks(grouped, cap))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint64)
