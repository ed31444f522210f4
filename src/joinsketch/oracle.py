"""Exact ground truth for tests and experiment baselines.

The count uses z = sum over left values a of |union over groups g holding a
of C_g|: pairs with different a never collide.  The left tuples are ordered
by value once; a value held by one group adds its group's right size and is
never expanded, because right values are distinct within a group.  The rest
are expanded and counted in a-ordered chunks of about ``CHUNK_PAIRS`` pairs.
Time is O(n log n + expanded pairs) and memory O(n + chunk), where a chunk
holds at most ``CHUNK_PAIRS`` pairs or one left value's expansion.
``exact_kth_hash`` walks the same chunks with every left value expanded and
keeps only the k smallest distinct-pair hashes, in O(n + k + chunk) memory.
Time still grows with the pairs expanded, so a cap refuses inputs that
would expand more than roughly 10^7 candidate pairs: the expanded pairs for
``exact_size``, ``total_product`` for the paths that expand every pair.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .hashing import PairHash
from .kmin import SketchOutcome
from .relation import GroupedInput, chunk_starts, offsets, pack, run_starts, tie_runs, unpack

DEFAULT_CAP = 10_000_000
# Pairs per expanded chunk: small enough that a chunk's sort stays in cache.
CHUNK_PAIRS = 1 << 15


class SizeCapError(RuntimeError):
    """Materialization would exceed the configured cap."""


@dataclass(frozen=True)
class ExactResult:
    """``z`` is the exact join-project size; ``expanded_pairs`` the number of
    candidate pairs the count materialized (0 when no left value lies in two
    groups)."""

    z: int
    expanded_pairs: int


def _check_cap(pairs: int, cap: int) -> None:
    if pairs > cap:
        raise SizeCapError(f"materializing {pairs} candidate pairs exceeds the cap of {cap}")


def _left_tuples(grouped: GroupedInput) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The left tuples ordered by value: each one's value, fan (its group's
    right size) and the index of its group's first right value."""
    counts = np.diff(grouped.left_offsets)
    order = np.argsort(grouped.left_values)
    fan = np.repeat(np.diff(grouped.right_offsets), counts)[order]
    first = np.repeat(grouped.right_offsets[:-1], counts)[order]
    return grouped.left_values[order], fan, first


def _expand(right_values: np.ndarray, a: np.ndarray, fan: np.ndarray,
            first: np.ndarray) -> np.ndarray:
    """Sorted keys (a << 32 | c) of the pairs of the given left tuples.

    Each left value is repeated once per right value of its group, and the
    right values are gathered through a run of consecutive indices per
    tuple.  Groups are never empty, so no run is.
    """
    # Right index of each pair: +1 within a run; at a run's start, the jump
    # from the previous run's last index to this run's first.
    index = np.ones(int(fan.sum()), dtype=np.int64)
    jumps = first.copy()
    jumps[1:] -= first[:-1] + fan[:-1] - 1
    index[np.cumsum(fan) - fan] = jumps
    np.cumsum(index, out=index)
    keys = np.repeat(pack(a, 0), fan)
    keys |= right_values[index]
    keys.sort()
    return keys


def _pair_chunks(right_values: np.ndarray, a: np.ndarray, fan: np.ndarray,
                 first: np.ndarray) -> Iterator[np.ndarray]:
    """Sorted pair keys of the left tuples ``a``, ``fan``, ``first`` (ordered
    by ``a``), one array per chunk of whole a-runs.

    A chunk holds at most ``CHUNK_PAIRS`` pairs unless its single a-run holds
    more.  Chunks come in a order, so their keys never repeat across chunks.
    """
    edges = np.append(np.flatnonzero(run_starts(a)), a.size)
    bounds = chunk_starts(offsets(fan)[edges], CHUNK_PAIRS)  # pairs before each a-run
    for lo, hi in zip(bounds, bounds[1:]):
        t0, t1 = edges[lo], edges[hi]
        yield _expand(right_values, a[t0:t1], fan[t0:t1], first[t0:t1])


def _distinct_chunks(grouped: GroupedInput, cap: int) -> Iterator[np.ndarray]:
    """Sorted keys of the distinct result pairs, one array per a-ordered
    chunk; no key repeats across chunks."""
    _check_cap(grouped.total_product, cap)
    for keys in _pair_chunks(grouped.right_values, *_left_tuples(grouped)):
        yield keys[run_starts(keys)]


def exact_size(grouped: GroupedInput, cap: int = DEFAULT_CAP) -> ExactResult:
    """Exact join-project size, summed over left values.

    A left value held by one group contributes that group's right size; the
    values held by two or more groups are expanded in a-ordered chunks and
    their distinct pairs counted.  O(n log n + expanded pairs) time and
    O(n + chunk) memory; refuses to expand more than ``cap`` pairs.
    """
    a, fan, first = _left_tuples(grouped)
    _, shared = tie_runs(a)  # tuples whose left value lies in two or more groups
    expanded = int(fan[shared].sum())
    _check_cap(expanded, cap)
    z = int(fan.sum()) - expanded
    for keys in _pair_chunks(grouped.right_values, a[shared], fan[shared], first[shared]):
        z += int(np.count_nonzero(run_starts(keys)))
    return ExactResult(z, expanded)


def exact_size_bitsets(grouped: GroupedInput, cap: int = DEFAULT_CAP) -> int:
    """Independent second path: per-left-value sets of reachable right values."""
    _check_cap(grouped.total_product, cap)
    lo, ro = grouped.left_offsets.tolist(), grouped.right_offsets.tolist()
    left, right = grouped.left_values.tolist(), grouped.right_values.tolist()
    reach: dict[int, set[int]] = {}
    for l0, l1, r0, r1 in zip(lo, lo[1:], ro, ro[1:]):
        for a in left[l0:l1]:
            reach.setdefault(a, set()).update(right[r0:r1])
    return sum(len(s) for s in reach.values())


def exact_kth_hash(
    grouped: GroupedInput, pair_hash: PairHash, k: int, cap: int = DEFAULT_CAP
) -> SketchOutcome:
    """k-th smallest pair hash over all distinct result pairs.

    A filled sketch outcome must match this bit for bit.  Ties between
    pairs do not matter here: v is a hash value, not a pair.  The chunks of
    distinct pairs are walked keeping only the k smallest hashes seen, in
    O(n + k + chunk) memory.
    """
    if k < 1:
        raise ValueError("k must be positive")
    smallest = np.empty(0, dtype=np.uint64)
    count = 0
    for keys in _distinct_chunks(grouped, cap):
        a, c = unpack(keys)
        del keys
        hv = pair_hash.h1.values(a)
        hv -= pair_hash.h2.values(c)  # uint64 wraparound
        count += hv.size
        smallest = np.concatenate((smallest, hv))
        if smallest.size > k:
            smallest.partition(k - 1)
            smallest = smallest[:k].copy()
    if count < k:
        return SketchOutcome(filled=False, count=count)
    return SketchOutcome(filled=True, v=int(smallest.max()))
