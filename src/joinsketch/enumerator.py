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
them by (group, hash, value), finds every column's minimum and drops each
column whose minimum is not below the live threshold, since the threshold
never rises.  ``scan_group`` then walks one group's remaining columns in
Python and hands each candidate straight to the sketch, whose threshold it
may tighten mid-scan.  The candidates and their order are those of a
column-by-column walk over every group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import GRID, MASK64, PairHash
from .kmin import KMinState
from .relation import GroupedInput, sorted_distinct

# Tuples per chunk: large enough that numpy's per-call cost is spread over
# many tuples, small enough that a chunk's lists stay a few hundred KiB.
CHUNK_TUPLES = 1 << 11


def chunk_bounds(grouped: GroupedInput) -> list[int]:
    """Group indices at which chunks start, followed by the group count.

    A chunk starts at the first group that begins at or after each multiple
    of ``CHUNK_TUPLES``, and a group of at least that many tuples is a chunk
    of its own.
    """
    starts = grouped.left_offsets + grouped.right_offsets  # tuples before each group
    large = np.flatnonzero(np.diff(starts) >= CHUNK_TUPLES)
    cuts = np.searchsorted(starts, np.arange(0, starts[-1], CHUNK_TUPLES))
    return sorted_distinct(np.concatenate((cuts, large, large + 1, [len(grouped)]))).tolist()


@dataclass(frozen=True)
class SortedChunk:
    """Consecutive groups, sorted for the scan, and their columns to walk.

    ``xs`` holds every group's left values in (group, h1, value) order, with
    ``x_hashes`` aligned; group g's rows are ``left_offsets[g]`` to
    ``left_offsets[g + 1]``.  The columns whose minimum lies below the
    threshold the chunk was sorted at are ``ys`` (right values in (group,
    h2, value) order), ``y_hashes`` and ``starts`` (the row of each column's
    minimum); group g's are ``kept_offsets[g]`` to ``kept_offsets[g + 1]``.
    ``skipped`` counts the other columns.  All offsets are chunk-relative.
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

    # One int64 key orders both sides: group * 2U + 2 * rank(hash) + side,
    # with U distinct hashes in the chunk and side 1 on the left.  A column
    # thus sorts just before the rows of its group whose hash is >= its own.
    # Equal keys keep their CSR order, ascending by value; keys are distinct
    # when the hashes are, and then any sort keeps it.
    hashes = np.concatenate((pair_hash.h2.values(ys), pair_hash.h1.values(xs)))
    order = np.argsort(hashes)
    ranked = hashes[order]
    rank = np.empty(hashes.size, dtype=np.int64)
    rank[:1] = 0
    np.not_equal(ranked[1:], ranked[:-1], out=rank[1:])
    np.cumsum(rank, out=rank)
    distinct = int(rank[-1]) + 1
    key = np.empty_like(rank)
    key[order] = rank
    del ranked, rank
    key <<= 1
    key[nr:] += 1
    group_base = np.arange(hi - lo, dtype=np.int64) * (2 * distinct)
    key[:nr] += np.repeat(group_base, right_sizes)
    key[nr:] += np.repeat(group_base, left_sizes)
    order = np.argsort(key, kind="stable" if distinct < hashes.size else None)
    del key

    is_col = order < nr
    rows = order[~is_col]
    cols = order[is_col]
    x_hashes = hashes[rows]
    # A column's minimum is the first row after it in the order, unless its
    # group has none: then it wraps to the group's first row.
    starts = np.flatnonzero(is_col)
    starts -= np.arange(nr)
    group_of = np.repeat(np.arange(hi - lo), right_sizes)
    wrapped = starts == left_offsets[1:][group_of]
    starts[wrapped] = left_offsets[group_of[wrapped]]

    y_hashes = hashes[cols]
    if p >= GRID:
        kept = np.ones(nr, dtype=bool)
    else:
        kept = x_hashes[starts] - y_hashes < np.uint64(p)
    kept_offsets = np.zeros(hi - lo + 1, dtype=np.int64)
    np.cumsum(np.bincount(group_of[kept], minlength=hi - lo), out=kept_offsets[1:])
    walk = kept.any()
    return SortedChunk(
        xs=xs[rows - nr].tolist() if walk else [],
        x_hashes=x_hashes.tolist() if walk else [],
        left_offsets=left_offsets.tolist(),
        ys=ys[cols[kept]].tolist(),
        y_hashes=y_hashes[kept].tolist(),
        starts=starts[kept].tolist(),
        kept_offsets=kept_offsets.tolist(),
        skipped=nr - int(np.count_nonzero(kept)),
    )


@dataclass(frozen=True)
class ScanCounters:
    inner_iterations: int = 0
    emitted: int = 0


_IDLE = ScanCounters()


def scan_group(chunk: SortedChunk, g: int, sketch: KMinState) -> ScanCounters:
    """Offer every pair of the chunk's group ``g`` whose hash is below the
    live threshold.

    The threshold is ``sketch.p``, re-read after every offer so that a merge
    which tightens it mid-scan takes effect immediately; it must be
    non-increasing, and no higher than when the chunk was sorted.
    ``sketch.offer(x, y, hv)`` receives each qualifying pair exactly once
    per group, column by column in (h2, y) order and each column from its
    minimum.  ``inner_iterations`` counts the probes of the kept columns:
    each emitted pair and the one probe that stops a column, if any.
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
        e = 0
        # The cap of m stops the cyclic walk when every row qualifies
        # (threshold 1.0 would otherwise never exit).
        while hv < p:
            offer(xs[s], yt, hv)
            p = sketch.p
            e += 1
            if e == m:
                break
            s += 1
            if s == hi:
                s = lo
            hv = (hx[s] - h2t) & MASK64
        emitted += e
        inner += e + (e < m)
    return ScanCounters(inner, emitted)
