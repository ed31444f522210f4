"""Chunked traversal of the implicit |A| x |C| pair-hash matrix.

With rows sorted by h1-value and columns by h2-value, every column of the
pair hash (h1(x) - h2(y)) mod 1 is cyclically sorted: one ascending run with
a single wraparound, whose minimum is the first row with h1 >= h2(y) (the
first row of the group if there is none).  The pairs of a column below a
threshold t are the rows from that minimum onward, cyclically, whose h1
lies in the window [h2(y), h2(y) + t): a count found by binary search, so a
group costs O((|A| + |C|) log |A|) plus one step per candidate, never
|A| * |C|.

Groups are processed in chunks of consecutive groups (``chunk_bounds``).
``sort_group`` gives a chunk one numpy pass: it hashes both sides, orders
them by (group, hash, side, value) with one sort of a uint64 key carrying
its position, finds every column's minimum and drops each column whose
minimum is not below the threshold, since the threshold never rises.  For
every other column it counts the rows of its window at the threshold and
at the floor and gathers the rows between the two into arrays of
candidates.  ``scan_group`` then hands one group's candidates to the
sketch, skipping those at or above its live threshold, which a merge may
tighten mid-scan.  A column's candidates ascend from its minimum and the
threshold only falls, so the pairs offered and their order are those of
walking every column of every group and stopping each at its first miss.

A run may pass over the chunks more than once, sorting every group again
at a wider threshold.  The previous pass's threshold is then the floor: a
column's pairs below it come first from its minimum and are left out of
its candidates, so each pair occurrence reaches the sketch at most once per
run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import GRID, PairHash
from .kmin import KMinState
from .relation import GroupedInput, chunk_starts, offsets, tie_runs

# Tuples per chunk.  A chunk pays a fixed numpy per-call cost, so larger
# chunks spread it over more tuples; the price is the chunk's candidate
# arrays, 24 bytes a candidate.  Against 2**11, 2**13 took the benchmark's
# host-scaled skewed-repeat estimate from 0.23 s to 0.18 s (medians of 3-4
# runs, 2-core Xeon VM, numpy 2.4).
CHUNK_TUPLES = 1 << 13


def chunk_bounds(grouped: GroupedInput) -> list[int]:
    """Group indices at which chunks start, followed by the group count: a
    chunk holds at most ``CHUNK_TUPLES`` tuples unless it is a single group."""
    return chunk_starts(grouped.left_offsets + grouped.right_offsets, CHUNK_TUPLES)


@dataclass(frozen=True)
class SortedChunk:
    """Consecutive groups' candidate pairs, in the order the scan offers them.

    ``xs``, ``ys`` and ``hashes`` hold each candidate's left value, right
    value and pair hash as uint64 memoryviews, in (group, h2, y, step)
    order: column by column in (h2, y) order, each column from its first
    row at or above the floor onward, cyclically.  Group g's candidates are
    ``offsets[g]`` to ``offsets[g + 1]`` (chunk-relative).  ``probes``
    counts the probes the scan makes whatever it offers: one per column of
    the chunk and one per pair below the floor.
    """

    xs: memoryview
    ys: memoryview
    hashes: memoryview
    offsets: list[int]
    probes: int


def sort_group(grouped: GroupedInput, lo: int, hi: int, pair_hash: PairHash,
               p: int, floor: int = 0) -> SortedChunk:
    """Sort groups ``lo`` to ``hi - 1`` and list their pairs whose hash lies
    in [``floor``, ``p``)."""
    lb, le = grouped.left_offsets[[lo, hi]].tolist()
    rb, re = grouped.right_offsets[[lo, hi]].tolist()
    left_offsets = grouped.left_offsets[lo:hi + 1] - lb
    right_offsets = grouped.right_offsets[lo:hi + 1] - rb
    left_sizes = left_offsets[1:] - left_offsets[:-1]
    right_sizes = right_offsets[1:] - right_offsets[:-1]
    xs = grouped.left_values[lb:le]
    ys = grouped.right_values[rb:re]
    nr = ys.size
    groups = hi - lo

    # One uint64 key orders both sides by (group, hash) and carries its
    # position: the group in the top b bits, the hash's top 64 - b - ib
    # bits below it and the index in the concatenation in the low ib bits.
    # np.sort of 12k such keys is 2.3x faster than np.argsort.  Entries whose
    # keys agree above the index (same group, same top bits) are then
    # ordered by (hash, index).  The concatenation holds the columns first
    # and each side in CSR order, ascending by value, so the result is
    # (group, hash, side, value) order: a column sorts just before the rows
    # of its group whose hash is >= its own.
    hashes = np.concatenate((pair_hash.h2.values(ys), pair_hash.h1.values(xs)))
    b = max(1, (groups - 1).bit_length())
    ib = (hashes.size - 1).bit_length()
    key = hashes >> np.uint64(b + ib) << np.uint64(ib)
    key |= np.arange(hashes.size, dtype=np.uint64)
    group_base = np.arange(groups, dtype=np.uint64) << np.uint64(64 - b)
    key[:nr] |= np.repeat(group_base, right_sizes)
    key[nr:] |= np.repeat(group_base, left_sizes)
    key.sort()
    order = (key & np.uint64((1 << ib) - 1)).view(np.intp)
    key >>= np.uint64(ib)
    _, run = tie_runs(key)
    if run.size:
        tied = order[run]
        order[run] = tied[np.lexsort((tied, hashes[tied], key[run]))]
    del key

    is_col = order < nr
    rows = order[~is_col]
    cols = order[is_col]
    row_hashes = hashes[rows]
    # A column's first row at or above its hash is the first row after it
    # in the order; its group's end if there is none.  That row is the
    # column's minimum, or the group's first row at the end.
    first = np.flatnonzero(is_col)
    first -= np.arange(nr)
    group_of = np.repeat(np.arange(groups), right_sizes)
    begin = left_offsets[group_of]
    end = left_offsets[1:][group_of]
    y_hashes = hashes[cols]
    if p < GRID:
        kept = row_hashes[np.where(first == end, begin, first)] - y_hashes < np.uint64(p)
        group_of, begin, end, first = group_of[kept], begin[kept], end[kept], first[kept]
        cols, y_hashes = cols[kept], y_hashes[kept]
    size = end - begin

    # The rows keyed like the sort, with the hash's top 64 - b bits, so a
    # binary search finds a hash within its group up to the cut bits.
    row_keys = np.repeat(group_base, left_sizes)
    row_keys |= row_hashes >> np.uint64(b)
    group_keys = group_base[group_of]

    def window(t: int) -> np.ndarray:
        """Rows of each column's group whose h1 lies in [h2, h2 + t),
        cyclically."""
        if t <= 0:
            return np.zeros(cols.size, dtype=np.int64)
        if t >= GRID:
            return size
        top = y_hashes + np.uint64(t)
        at = np.searchsorted(row_keys, group_keys | top >> np.uint64(b))
        # Rows whose key ties the target's may still hash below it.
        i = np.flatnonzero(at < end)
        while i.size:
            i = i[row_hashes[at[i]] < top[i]]
            at[i] += 1
            i = i[at[i] < end[i]]
        # A window past 2**64 wraps to the group's first rows.
        return at - first + np.where(top < y_hashes, size, 0)

    below = window(floor)
    counts = window(p) - below
    column_offsets = offsets(counts)
    n = int(column_offsets[-1])
    # Each column's candidates, from its first row at or above the floor;
    # those past its group's end wrap to the group's first rows.
    at = np.repeat(first + below - column_offsets[:-1], counts)
    at += np.arange(n)
    wrapped = np.flatnonzero(at >= np.repeat(end, counts))
    at[wrapped] -= np.repeat(size, counts)[wrapped]
    cand_xs = xs[rows[at] - nr]
    cand_hashes = row_hashes[at]
    del at
    cand_hashes -= np.repeat(y_hashes, counts)
    cand_ys = np.repeat(ys[cols], counts)
    group_offsets = column_offsets[offsets(np.bincount(group_of, minlength=groups))]
    return SortedChunk(
        xs=memoryview(cand_xs),
        ys=memoryview(cand_ys),
        hashes=memoryview(cand_hashes),
        offsets=group_offsets.tolist(),
        probes=nr + int(below.sum()),
    )


def scan_group(chunk: SortedChunk, g: int, sketch: KMinState) -> None:
    """Offer the chunk's group ``g`` candidates that lie below the live
    threshold.

    The threshold is ``sketch.p``, re-read after every offer so that a merge
    which tightens it mid-scan takes effect immediately; it must be
    non-increasing and no higher than when the chunk was sorted.
    ``sketch.offer(x, y, hv)`` receives each such pair in the chunk's
    order.
    """
    first, last = chunk.offsets[g], chunk.offsets[g + 1]
    if first == last:
        return
    offer = sketch.offer
    p = sketch.p
    for x, y, hv in zip(chunk.xs[first:last], chunk.ys[first:last], chunk.hashes[first:last]):
        if hv < p:
            offer(x, y, hv)
            p = sketch.p
