"""Chunked traversal of the implicit |A| x |C| pair-hash matrix.

With rows sorted by h1-value and columns by h2-value, every column of the
pair hash (h1(x) - h2(y)) mod 1 is cyclically sorted: one ascending run with
a single wraparound, whose minimum is the first row with h1 >= h2(y) (the
first row of the group if there is none).  The pairs of a column below a
threshold p are the rows from that minimum onward, cyclically, while the
hash stays below p, so a group costs O(|A| + |C|) plus one step per emitted
candidate, never |A| * |C|.

Groups are processed in chunks of consecutive groups (``chunk_bounds``).
``sort_group`` gives a chunk one numpy pass: it hashes both sides, orders
them by (group, hash, side, value) with one sort of a uint64 key carrying
its position, finds every column's minimum and drops each column whose
minimum is not below the live threshold, since the threshold never rises.
Only the groups that keep a column get their rows as Python lists.
``scan_group`` then walks one group's remaining columns in Python and hands
each candidate straight to the sketch, whose threshold it may tighten
mid-scan.  The candidates and their order are those of a column-by-column
walk over every group.

A run may pass over the chunks more than once, sorting and scanning every
group again at a wider threshold.  ``scan_group`` then takes the previous
pass's threshold as a floor: a column's pairs below it come first from its
minimum and are walked without being offered, so each pair occurrence
reaches the sketch at most once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import GRID, MASK64, PairHash
from .kmin import KMinState
from .relation import GroupedInput, chunk_starts, offsets, tie_runs

# Tuples per chunk.  A chunk pays a fixed numpy per-call cost, so larger
# chunks spread it over more tuples; the price is the chunk's Python lists,
# all of its rows when every column is kept.  Against 2**11, 2**13 took the
# benchmark's host-scaled skewed-repeat estimate from 0.23 s to 0.18 s and
# peak RSS on fimi-sketch, which keeps every column, from 47.5 to 48.1 MiB
# (medians of 3-4 runs, 2-core Xeon VM, numpy 2.4).
CHUNK_TUPLES = 1 << 13


def chunk_bounds(grouped: GroupedInput) -> list[int]:
    """Group indices at which chunks start, followed by the group count: a
    chunk holds at most ``CHUNK_TUPLES`` tuples unless it is a single group."""
    return chunk_starts(grouped.left_offsets + grouped.right_offsets, CHUNK_TUPLES)


@dataclass(frozen=True)
class SortedChunk:
    """Consecutive groups, sorted for the scan, and their columns to walk.

    The columns whose minimum lies below the threshold the chunk was sorted
    at are ``ys`` (right values in (group, h2, value) order), ``y_hashes``
    and ``starts`` (the row of each column's minimum); group g's are
    ``kept_offsets[g]`` to ``kept_offsets[g + 1]``.  ``skipped`` counts the
    other columns.  ``xs`` holds the left values, in (group, h1, value)
    order, of the groups that keep at least one column, with ``x_hashes``
    aligned; group g's rows are ``left_offsets[g]`` to ``left_offsets[g +
    1]``, an empty range for a group that keeps no column.  All offsets are
    chunk-relative.
    """

    xs: list[int]
    x_hashes: list[int]
    left_offsets: list[int]
    ys: list[int]
    y_hashes: list[int]
    starts: list[int]
    kept_offsets: list[int]
    skipped: int


def sort_group(grouped: GroupedInput, lo: int, hi: int, pair_hash: PairHash,
               p: int) -> SortedChunk:
    """Sort groups ``lo`` to ``hi - 1`` for the scan at threshold ``p``."""
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
    # A column's minimum is the first row after it in the order, unless its
    # group has none: then it wraps to the group's first row.
    starts = np.flatnonzero(is_col)
    starts -= np.arange(nr)
    group_of = np.repeat(np.arange(groups), right_sizes)
    wrapped = starts == left_offsets[1:][group_of]
    starts[wrapped] = left_offsets[group_of[wrapped]]

    y_hashes = hashes[cols]
    if p >= GRID:
        kept = np.ones(nr, dtype=bool)
    else:
        kept = hashes[rows[starts]] - y_hashes < np.uint64(p)
    kept_group = group_of[kept]
    kept_counts = np.bincount(kept_group, minlength=groups)
    kept_offsets = offsets(kept_counts)
    # Only groups that keep a column get rows; the others an empty range.
    walked = kept_counts > 0
    row_offsets = offsets(np.where(walked, left_sizes, 0))
    rows = rows[np.repeat(walked, left_sizes)]
    starts = starts[kept]
    starts += (row_offsets - left_offsets)[kept_group]
    return SortedChunk(
        xs=xs[rows - nr].tolist(),
        x_hashes=hashes[rows].tolist(),
        left_offsets=row_offsets.tolist(),
        ys=ys[cols[kept]].tolist(),
        y_hashes=y_hashes[kept].tolist(),
        starts=starts.tolist(),
        kept_offsets=kept_offsets.tolist(),
        skipped=nr - kept_group.size,
    )


@dataclass(frozen=True)
class ScanCounters:
    inner_iterations: int = 0
    emitted: int = 0


_IDLE = ScanCounters()


def scan_group(chunk: SortedChunk, g: int, sketch: KMinState, floor: int = 0) -> ScanCounters:
    """Offer every pair of the chunk's group ``g`` whose hash lies in
    [``floor``, live threshold).

    The threshold is ``sketch.p``, re-read after every offer so that a merge
    which tightens it mid-scan takes effect immediately; it must be
    non-increasing, no higher than when the chunk was sorted and no lower
    than ``floor``.  ``sketch.offer(x, y, hv)`` receives each qualifying pair
    exactly once per group, column by column in (h2, y) order and each
    column from its minimum.  ``inner_iterations`` counts the probes of the
    kept columns: each pair walked below the floor, each emitted pair and
    the one probe that stops a column, if any.
    """
    first, last = chunk.kept_offsets[g], chunk.kept_offsets[g + 1]
    if first == last:
        return _IDLE
    lo, hi = chunk.left_offsets[g], chunk.left_offsets[g + 1]
    m = hi - lo
    xs, hx = chunk.xs, chunk.x_hashes
    offer = sketch.offer
    p = sketch.p
    inner = 0
    emitted = 0
    for yt, h2t, s in zip(chunk.ys[first:last], chunk.y_hashes[first:last],
                          chunk.starts[first:last]):
        hv = (hx[s] - h2t) & MASK64
        # e counts the rows walked.  Its cap of m stops the cyclic walk when
        # every row qualifies (threshold 1.0 would otherwise never exit).
        e = 0
        # The column ascends from its minimum, so the pairs an earlier pass
        # offered come first.
        while hv < floor and e < m:
            e += 1
            s += 1
            if s == hi:
                s = lo
            hv = (hx[s] - h2t) & MASK64
        below = e
        while hv < p and e < m:
            offer(xs[s], yt, hv)
            p = sketch.p
            e += 1
            s += 1
            if s == hi:
                s = lo
            hv = (hx[s] - h2t) & MASK64
        emitted += e - below
        inner += e + (e < m)
    return ScanCounters(inner, emitted)
