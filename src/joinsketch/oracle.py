"""Exact ground truth for tests and experiment baselines.

The count uses z = sum over left values a of |union over groups g holding a
of C_g|: pairs with different a never collide.  The left tuples are ordered
by value once, by one sort of the packed keys ``a << 32 | group``; a value
held by one group adds its group's right size and is never expanded,
because right values are distinct within a group.  The values held by two
or more groups (the shared tuples) are counted a-major in chunks by one of
two kernels, chosen from the input with no setting:

* the dense kernel, when the right domain is narrow: each group's right
  values become a bitset of W = ceil(D / 64) words over the D distinct right
  values, and each shared left value ORs its groups' bitsets and counts the
  bits with 64-bit word arithmetic (a SWAR popcount).  It runs iff
  ``shared x W <= expanded`` (no more words to OR than pairs to expand) and
  ``groups x W <= right values`` (the bitset table is no larger than the
  input);
* the sparse kernel otherwise: the shared tuples' candidate pairs are
  expanded as packed keys, sorted per chunk and their distinct keys counted.

Time is O(n log n + shared x W) on the dense kernel and O(n log n +
expanded) on the sparse one, so never more than the latter, and memory is
O(n + chunk), where a chunk holds at most ``CHUNK_TUPLES``, the one chunk
budget, of pairs or bitset words, or one left value's.  ``exact_kth_hash``
walks the sparse kernel's chunks with every left value expanded and keeps
only the k smallest distinct-pair hashes, in O(n + k + chunk) memory.  Time
still grows with the pairs expanded, so a cap refuses inputs that would
expand more than roughly 10^7 candidate pairs: the expanded pairs of
``exact_size`` (whichever kernel counts them, since shared x W <= expanded
on the dense one), ``total_product`` for the paths that expand every pair.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .enumerator import CHUNK_TUPLES
from .hashing import PairHash
from .kmin import SketchOutcome
from .relation import (MAX_ATTRIBUTE, GroupedInput, chunk_starts, offsets, pack, run_edges,
                       run_starts, sorted_distinct, tie_runs, unpack)

DEFAULT_CAP = 10_000_000
# The SWAR popcount's masks (np.bitwise_count needs numpy 2, and numpy 1.24
# is supported): the low bit of every bit pair, the low half of every nibble
# and of every byte, and the low bit of every byte.
_PAIRS, _NIBBLES, _BYTES, _ONES = (np.uint64(0x5555555555555555), np.uint64(0x3333333333333333),
                                   np.uint64(0x0F0F0F0F0F0F0F0F), np.uint64(0x0101010101010101))


class SizeCapError(RuntimeError):
    """Materialization would exceed the configured cap."""


@dataclass(frozen=True)
class ExactResult:
    """``z`` is the exact join-project size; ``expanded_pairs`` the number of
    candidate pairs of the left values that lie in two or more groups (0
    when there are none), whichever kernel counts them."""

    z: int
    expanded_pairs: int


def _check_cap(pairs: int, cap: int) -> None:
    try:
        cap = operator.index(cap)
    except TypeError:
        raise ValueError(f"cap must be a non-negative integer, got {cap!r}") from None
    if cap < 0:
        raise ValueError(f"cap must be a non-negative integer, got {cap!r}")
    if pairs > cap:
        raise SizeCapError(f"materializing {pairs} candidate pairs exceeds the cap of {cap}")


def _left_tuples(grouped: GroupedInput) -> tuple[np.ndarray, np.ndarray]:
    """The left tuples ordered by value, ties by group: each one's value
    (uint64) and group (int64).

    One sort of the packed keys ``a << 32 | group``, whose halves are then
    split in place.  Ordering the benchmark workloads' 24k to 100k left
    tuples this way takes 0.42-0.46x the time of ``np.argsort`` and two
    gathers (2-core Xeon VM, numpy 2.4).
    """
    group = np.repeat(np.arange(len(grouped), dtype=np.uint64), np.diff(grouped.left_offsets))
    keys = pack(grouped.left_values, group)
    keys.sort()
    group = (keys & np.uint64(MAX_ATTRIBUTE)).view(np.int64)
    keys >>= np.uint64(32)
    return keys, group


def _expand(right_values: np.ndarray, a: np.ndarray, fan: np.ndarray,
            first: np.ndarray) -> np.ndarray:
    """Sorted keys (a << 32 | c) of the pairs of the given left tuples.

    Each left value is repeated once per right value of its group, and the
    right values are gathered through a run of consecutive indices per
    tuple, from its group's ``first`` index, built as ``sort_group`` builds
    its candidates' rows.
    """
    index = np.repeat(first - offsets(fan)[:-1], fan)
    index += np.arange(index.size)
    keys = np.repeat(pack(a, 0), fan)
    keys |= right_values[index]
    keys.sort()
    return keys


def _pair_chunks(grouped: GroupedInput, a: np.ndarray,
                 group: np.ndarray) -> Iterator[np.ndarray]:
    """Sorted pair keys of the left tuples ``a``, ``group`` (ordered by
    ``a``), each paired with every right value of its group, one array per
    chunk of whole a-runs.

    A chunk holds at most ``CHUNK_TUPLES`` pairs unless its single a-run holds
    more.  Chunks come in a order, so their keys never repeat across chunks.
    """
    fan = np.diff(grouped.right_offsets)[group]
    edges = run_edges(a)
    bounds = chunk_starts(offsets(fan)[edges], CHUNK_TUPLES)  # pairs before each a-run
    for lo, hi in zip(bounds, bounds[1:]):
        t0, t1 = edges[lo], edges[hi]
        first = grouped.right_offsets[group[t0:t1]]
        yield _expand(grouped.right_values, a[t0:t1], fan[t0:t1], first)


def _distinct_chunks(grouped: GroupedInput, cap: int) -> Iterator[np.ndarray]:
    """Sorted keys of the distinct result pairs, one array per a-ordered
    chunk; no key repeats across chunks."""
    _check_cap(grouped.total_product, cap)
    a, group = _left_tuples(grouped)
    for keys in _pair_chunks(grouped, a, group):
        yield keys[run_starts(keys)]


def _dense_ranks(grouped: GroupedInput, shared: int, expanded: int) -> np.ndarray | None:
    """Each right value's index among the D distinct right values when the
    dense kernel's rule holds for ``shared`` tuples expanding to
    ``expanded`` pairs, else None.

    With W = ceil(D / 64) the rule is ``shared * W <= expanded`` and
    ``groups * W <= right values``, that is D <= 64 * the smaller quotient.
    The values' offsets from their minimum, modulo a power of two no
    smaller than their count, are marked in a map of that many slots.  It
    marks exactly D slots when the span fits in the map and at most D
    otherwise, so a wide span with many distinct values is refused in O(n)
    without a sort.  A wide span that passes is ranked by binary search
    among its sorted distinct values.
    """
    values = grouped.right_values
    most = 64 * min(expanded // shared, values.size // len(grouped))
    offset = values - values.min()
    size = 1 << (values.size - 1).bit_length()
    span = int(offset.max())
    offset &= np.uint64(size - 1)
    seen = np.zeros(size, dtype=bool)
    seen[offset] = True
    if np.count_nonzero(seen) > most:
        return None
    if span < size:
        return (np.cumsum(seen) - 1)[offset]
    distinct = sorted_distinct(values.copy())  # a wide span, few values
    return np.searchsorted(distinct, values) if distinct.size <= most else None


def _popcount(words: np.ndarray) -> int:
    """The set bits of the uint64 array ``words``: each word's bits are
    summed per pair, nibble and byte, and its bytes by one multiply (Warren,
    Hacker's Delight, 2nd ed., 2012, section 5-1)."""
    pairs = words >> np.uint64(1)
    pairs &= _PAIRS
    bits = words - pairs  # each bit pair holds its count
    np.right_shift(bits, np.uint64(2), out=pairs)
    pairs &= _NIBBLES
    bits &= _NIBBLES
    bits += pairs  # each nibble holds its count
    np.right_shift(bits, np.uint64(4), out=pairs)
    bits += pairs
    bits &= _BYTES  # each byte holds its count
    bits *= _ONES  # the top byte holds the word's count, wrapping mod 2**64
    bits >>= np.uint64(56)
    return int(bits.sum())


def _dense_count(grouped: GroupedInput, ranks: np.ndarray, a: np.ndarray,
                 group: np.ndarray) -> int:
    """Distinct pairs of the left tuples ``a``, ``group`` (ordered by ``a``):
    per a-run, the set bits of the OR of its groups' bitsets over the right
    domain, in chunks of whole a-runs of at most ``CHUNK_TUPLES`` gathered
    words unless a single a-run gathers more."""
    words = int(ranks.max()) // 64 + 1
    table = np.zeros((len(grouped), words), dtype=np.uint64)
    rows = np.repeat(np.arange(len(grouped)), np.diff(grouped.right_offsets))
    np.bitwise_or.at(table, (rows, ranks >> 6), np.uint64(1) << (ranks & 63).astype(np.uint64))
    edges = run_edges(a)
    bounds = chunk_starts(edges * words, CHUNK_TUPLES)  # words gathered before each a-run
    count = 0
    for lo, hi in zip(bounds, bounds[1:]):
        t0 = edges[lo]
        union = np.bitwise_or.reduceat(table[group[t0:edges[hi]]], edges[lo:hi] - t0, axis=0)
        count += _popcount(union)
    return count


def exact_size(grouped: GroupedInput, cap: int = DEFAULT_CAP) -> ExactResult:
    """Exact join-project size, summed over left values.

    A left value held by one group contributes that group's right size.  The
    values held by two or more groups (the ``shared`` tuples) are counted
    a-major in chunks.  With W = ceil(D / 64) words for the D distinct
    right values, the dense kernel ORs their groups' bitsets and counts the
    bits iff ``shared x W <= expanded`` and ``groups x W <= right values``;
    otherwise the sparse kernel expands their candidate pairs and counts
    the distinct ones.  O(n log n + shared x W) time on the dense kernel,
    O(n log n + expanded) on the sparse one, and O(n + chunk) memory.
    Refuses inputs with more than ``cap`` expanded pairs, the candidate
    pairs of the shared tuples, whichever kernel counts them.
    """
    a, group = _left_tuples(grouped)
    _, shared = tie_runs(a)  # tuples whose left value lies in two or more groups
    a, group = a[shared], group[shared]
    expanded = int(np.diff(grouped.right_offsets)[group].sum())
    _check_cap(expanded, cap)
    z = grouped.total_product - expanded
    if not expanded:
        return ExactResult(z, 0)
    ranks = _dense_ranks(grouped, a.size, expanded)
    if ranks is not None:
        return ExactResult(z + _dense_count(grouped, ranks, a, group), expanded)
    for keys in _pair_chunks(grouped, a, group):
        z += int(np.count_nonzero(run_starts(keys)))
    return ExactResult(z, expanded)


def exact_size_bitsets(grouped: GroupedInput, cap: int = DEFAULT_CAP) -> int:
    """The Python-set reference for ``exact_size``: per-left-value sets of
    reachable right values, built from plain Python lists."""
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
