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

Before the sort, an occupancy pass drops the tuples no window can reach
when the threshold is small against the input's groups (``prunes``).  It
splits each group's hash range into 2**c cells, each at least p wide, so a
column's window lies in its own cell and the next one, wrapping past 2**64
to the group's first cell.  It marks the cells that
hold a row, keeps the columns with a row in one of their two cells, and
keeps the rows in a kept column's cells.  Every row in a kept column's
window survives, and so does the column's cyclic minimum whenever the
window holds a row.  A column whose window is empty may survive, but the
first surviving row from its hash on lies no nearer than its minimum, so
the column is still dropped.  The sorted order restricted to the survivors
is the order of the whole chunk restricted to them, so the candidates,
their order and the group offsets are those of sorting every tuple.

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
from .relation import GroupedInput, chunk_starts, offsets, pack, tie_runs

# Tuples per chunk.  A chunk pays a fixed numpy per-call cost, so larger
# chunks spread it over more tuples; the price is the chunk's candidate
# arrays, 16 bytes a candidate.  Against 2**11, 2**13 took the benchmark's
# host-scaled skewed-repeat estimate from 0.23 s to 0.18 s (medians of 3-4
# runs, 2-core Xeon VM, numpy 2.4).  Where the occupancy pass prunes, the
# work after it scales with the survivors, and chunks take four times as
# many tuples and expected candidates together: against 2**13 tuples, that
# took the in-process estimate to 0.68x on skewed-repeat (9 runs) and 0.74x
# on uniform-ingest (minimum of 7 calls, 2-vCPU VM, numpy 2.4.6).  Counting
# the candidates keeps large groups from sharing such a chunk, and a pass
# that does not prune keeps 2**13 tuples, which bounds what a chunk lists
# when a widening pass nears threshold 1.
CHUNK_TUPLES = 1 << 13


def _cell_cap(p: int) -> int:
    """The most cell bits c for which a cell, 2**(64 - c) of the hash
    range, is at least ``p`` wide."""
    return 64 - (p - 1).bit_length()


def prunes(grouped: GroupedInput, p: int) -> bool:
    """Whether ``sort_group`` runs the occupancy pass at threshold ``p``.

    It does when the input's groups, split into cells at least p wide and
    at most 16 per tuple on average, would hold at least 4 cells per tuple,
    so that most cells hold no tuple.  The rule reads the whole input, so
    every chunk of a pass takes the same decision.
    """
    groups, tuples = len(grouped), grouped.tuple_count
    if not groups:
        return False
    c = min(_cell_cap(p), (16 * tuples // groups).bit_length() - 1)
    return groups << c >= 4 * tuples


def chunk_bounds(grouped: GroupedInput, p: int = GRID) -> list[int]:
    """Group indices at which the chunks of a pass at threshold ``p``
    start, followed by the group count.  A chunk holds at most
    ``CHUNK_TUPLES`` tuples, or, if the pass prunes, at most four times as
    many tuples and expected candidates (products times p) together,
    unless it is a single group."""
    before = grouped.left_offsets + grouped.right_offsets
    if not prunes(grouped, p):
        return chunk_starts(before, CHUNK_TUPLES)
    expected = np.ceil(grouped.products * (p / GRID)).astype(np.int64)
    return chunk_starts(before + offsets(expected), CHUNK_TUPLES << 2)


@dataclass(frozen=True)
class SortedChunk:
    """Consecutive groups' candidate pairs, in the order the scan offers them.

    ``pairs`` and ``hashes`` hold each candidate's pair ``x << 32 | y`` and
    its pair hash as uint64 memoryviews, in (group, h2, y, step) order:
    column by column in (h2, y) order, each column from its first row at or
    above the floor onward, cyclically.  Group g's candidates are
    ``offsets[g]`` to ``offsets[g + 1]`` (chunk-relative).  ``probes``
    counts the probes the scan makes whatever it offers: one per column of
    the chunk and one per pair below the floor.  ``sorted_tuples`` counts
    the tuples that reached the sort, those the occupancy pass kept.
    """

    pairs: memoryview
    hashes: memoryview
    offsets: list[int]
    probes: int
    sorted_tuples: int


def _reachable(x_hashes: np.ndarray, left_sizes: np.ndarray, y_hashes: np.ndarray,
               right_sizes: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """The occupancy pass at threshold ``p``: masks of the rows and the
    columns it keeps, and the kept rows and columns per group.

    Group g's hash range is split into 2**c cells, c the least of
    ``_cell_cap(p)`` and floor(log2(16 t)) for its t tuples, so the cells
    depend on the group alone and the table holds at most 16 per tuple.
    """
    groups = left_sizes.size
    # floor(log2(16 t)), exact for t below 2**49.
    bits = np.minimum(np.frexp(16 * (left_sizes + right_sizes))[1] - 1, _cell_cap(p))
    shift = (64 - bits).astype(np.uint64)
    base = offsets(1 << bits)
    row_shift = np.repeat(shift, left_sizes)
    row_cells = (x_hashes >> row_shift).view(np.int64)
    row_cells += np.repeat(base[:-1], left_sizes)
    del row_shift
    col_shift = np.repeat(shift, right_sizes)
    col_base = np.repeat(base[:-1], right_sizes)
    col_cells = (y_hashes >> col_shift).view(np.int64)
    col_cells += col_base
    # The cell after a column's, wrapping past 2**64 to its group's first.
    next_cells = y_hashes + (np.uint64(1) << col_shift)
    next_cells >>= col_shift
    next_cells = next_cells.view(np.int64)
    next_cells += col_base
    del col_shift, col_base
    marked = np.zeros(int(base[-1]), dtype=bool)
    marked[row_cells] = True
    kept_cols = marked[col_cells]
    kept_cols |= marked[next_cells]
    marked[:] = False
    col_cells = col_cells[kept_cols]
    marked[col_cells] = True
    marked[next_cells[kept_cols]] = True
    kept_rows = marked[row_cells]

    def per_group(cells):
        return np.bincount(np.searchsorted(base, cells, side="right") - 1, minlength=groups)

    return kept_rows, kept_cols, per_group(row_cells[kept_rows]), per_group(col_cells)


def sort_group(grouped: GroupedInput, lo: int, hi: int, pair_hash: PairHash,
               p: int, floor: int = 0, ceiling: int | None = None) -> SortedChunk:
    """Sort groups ``lo`` to ``hi - 1`` and list their pairs whose hash lies
    in [``floor``, ``p``).

    The occupancy pass prunes at ``ceiling`` (default ``p``), the threshold
    the run's pass began at, which ``p`` may have fallen below since.  What
    reaches the sort then depends on the input and the pass alone, not on
    the chunks' sizes or on when the sketch tightened.  A ceiling below
    ``p`` would prune rows of windows at ``p`` and is refused.
    """
    ceiling = p if ceiling is None else ceiling
    if ceiling < p:
        raise ValueError(f"ceiling {ceiling} lies below the threshold {p}")
    lb, le = grouped.left_offsets[[lo, hi]].tolist()
    rb, re = grouped.right_offsets[[lo, hi]].tolist()
    left_sizes = np.diff(grouped.left_offsets[lo:hi + 1])
    right_sizes = np.diff(grouped.right_offsets[lo:hi + 1])
    xs = grouped.left_values[lb:le]
    ys = grouped.right_values[rb:re]
    x_hashes = pair_hash.h1.values(xs)
    y_hashes = pair_hash.h2.values(ys)
    probes = ys.size
    groups = hi - lo
    if prunes(grouped, ceiling):
        kept_rows, kept_cols, left_sizes, right_sizes = _reachable(
            x_hashes, left_sizes, y_hashes, right_sizes, ceiling)
        xs, x_hashes = xs[kept_rows], x_hashes[kept_rows]
        ys, y_hashes = ys[kept_cols], y_hashes[kept_cols]
        del kept_rows, kept_cols
    left_offsets = offsets(left_sizes)
    nr = ys.size

    # One uint64 key orders both sides by (group, hash) and carries its
    # position: the group in the top b bits, the hash's top 64 - b - ib
    # bits below it and the index in the concatenation in the low ib bits.
    # np.sort of 12k such keys is 2.3x faster than np.argsort.  Entries whose
    # keys agree above the index (same group, same top bits) are then
    # ordered by (hash, index).  The concatenation holds the columns first
    # and each side in CSR order, ascending by value, so the result is
    # (group, hash, side, value) order: a column sorts just before the rows
    # of its group whose hash is >= its own.
    hashes = np.concatenate((y_hashes, x_hashes))
    del x_hashes, y_hashes
    sorted_tuples = hashes.size
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
    rows -= nr
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
    del wrapped
    cand_hashes = row_hashes[at]
    cand_hashes -= np.repeat(y_hashes, counts)
    np.take(rows, at, out=at)
    pairs = xs[at]
    del at
    pack(pairs, np.repeat(ys[cols], counts), out=pairs)
    group_offsets = column_offsets[offsets(np.bincount(group_of, minlength=groups))]
    return SortedChunk(
        pairs=memoryview(pairs),
        hashes=memoryview(cand_hashes),
        offsets=group_offsets.tolist(),
        probes=probes + int(below.sum()),
        sorted_tuples=sorted_tuples,
    )


def scan_group(chunk: SortedChunk, g: int, sketch: KMinState) -> None:
    """Offer the chunk's group ``g`` candidates that lie below the live
    threshold.

    The threshold is ``sketch.p``, re-read after every offer so that a merge
    which tightens it mid-scan takes effect immediately; it must be
    non-increasing and no higher than when the chunk was sorted.
    ``sketch.offer(pair, hv)`` receives each such pair, packed as
    ``x << 32 | y``, in the chunk's order.
    """
    first, last = chunk.offsets[g], chunk.offsets[g + 1]
    if first == last:
        return
    offer = sketch.offer
    p = sketch.p
    for pair, hv in zip(chunk.pairs[first:last], chunk.hashes[first:last]):
        if hv < p:
            offer(pair, hv)
            p = sketch.p
