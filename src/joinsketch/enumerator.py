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
its position, counts the rows of every column's window (none where it is
empty) by binary search in that sorted key and gathers them into arrays of
candidates.  ``scan_group`` then
hands one group's candidates to the sketch, skipping those at or above its
live threshold, which a merge may tighten mid-scan.  A column's
candidates ascend from its minimum and the threshold only falls, so the
pairs offered and their order are those of walking every column of every
group and stopping each at its first miss.

A pass first hands the whole input to ``prune`` and chunks and sorts what
it returns.  Where the groups, split into cells at least p wide, would hold
at least 4 cells per tuple, its occupancy pass drops the tuples no window
can reach.  It splits each group's hash range into 2**c such cells, so a
column's window lies in its own cell and the next one, wrapping past 2**64
to the group's first cell.  It marks the cells that hold a row, keeps the
columns with a row in one of their two cells, and keeps the rows in a kept
column's cells.  Every row in a kept column's window survives, and so does
the column's cyclic minimum whenever the window holds a row.  The sorted
order restricted to the survivors is the order of the whole input
restricted to them, so the candidates, their order and the group offsets
are those of sorting every tuple.

A run may pass over the chunks more than once, sorting every group again
at a wider threshold and listing every pair below it, those the sketch
already holds too: the sketch's merge drops them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import GRID, PairHash
from .kmin import KMinState
from .relation import GroupedInput, chunk_starts, offsets, pack, tie_runs

# The one chunk budget, in tuples.  A chunk's tuples plus four times its
# expected candidates (16 bytes each) come to at most this, so large groups
# do not share a chunk at any threshold, and the occupancy pass and the
# pilot take slices of at most this many tuples; the exact oracle's chunks
# hold at most this many pairs or bitset words.  Each chunk and slice pays a
# fixed numpy per-call cost; the price of larger ones is their
# temporaries.  In process (seed 1, minimum of 25 estimates, numpy 2.4.6,
# 2-vCPU VM), budgets of 2**13, 2**14, 2**15, 2**16 and 2**17 took 8.6, 7.5,
# 7.7, 7.7 and 7.5 ms on uniform-ingest, 36.5, 31.6, 30.8, 30.4 and 30.3 ms
# on skewed-repeat and 35.3, 33.5, 31.8, 31.7 and 31.8 ms on fimi-sketch,
# while the estimate's traced peak went 1.53, 1.53, 1.53, 2.35 and 4.01 MiB
# on uniform-ingest and 0.46, 0.75, 0.79, 1.45 and 2.70 MiB on
# skewed-repeat.  A pass whose 360k tuples all survive the occupancy pass
# peaked at 6.2 MiB, the survivors and one chunk.
CHUNK_TUPLES = 1 << 15


def chunk_bounds(grouped: GroupedInput, p: int = GRID) -> list[int]:
    """Group indices at which the chunks of a pass at threshold ``p``
    start, followed by the group count.  A chunk's groups' tuples plus four
    times their expected candidates (products times p) come to at most
    ``CHUNK_TUPLES``, unless it is a single group."""
    expected = np.ceil(grouped.products * (p / GRID)).astype(np.int64)
    before = grouped.left_offsets + grouped.right_offsets + 4 * offsets(expected)
    return chunk_starts(before, CHUNK_TUPLES)


@dataclass(frozen=True)
class SortedChunk:
    """Consecutive groups' candidate pairs, in the order the scan offers them.

    ``pairs`` and ``hashes`` hold each candidate's pair ``x << 32 | y`` and
    its pair hash as uint64 memoryviews, in (group, h2, y, step) order:
    column by column in (h2, y) order, each column from its minimum onward,
    cyclically.  Group g's candidates are ``offsets[g]`` to
    ``offsets[g + 1]`` (chunk-relative).
    """

    pairs: memoryview
    hashes: memoryview
    offsets: list[int]


def _reachable(x_hashes: np.ndarray, left_sizes: np.ndarray, y_hashes: np.ndarray,
               right_sizes: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """The occupancy pass over consecutive groups split into 2**``bits``
    cells each: the indices of the rows and the columns it keeps, and the
    kept rows and columns per group.

    Each group's table ends in a spare slot, so a column's next cell is the
    slot after its own.  The spare holds a copy of the group's first cell
    while the columns look at their two cells, and is ORed back into it
    once the kept columns have marked theirs: the next cell of a group's
    last cell is its first, wrapping past 2**64.
    """
    shift = (64 - bits).astype(np.uint64)
    base = offsets((1 << bits) + 1)
    first, spare = base[:-1], base[1:] - 1
    row_cells = (x_hashes >> np.repeat(shift, left_sizes)).view(np.int64)
    row_cells += np.repeat(first, left_sizes)
    col_cells = (y_hashes >> np.repeat(shift, right_sizes)).view(np.int64)
    col_cells += np.repeat(first, right_sizes)
    marked = np.zeros(int(base[-1]), dtype=bool)
    marked[row_cells] = True
    marked[spare] = marked[first]
    kept_cols = marked[col_cells]
    col_cells += 1
    kept_cols |= marked[col_cells]
    cols = np.flatnonzero(kept_cols)
    del kept_cols
    marked[:] = False
    col_cells = col_cells[cols]
    marked[col_cells] = True
    col_cells -= 1
    marked[col_cells] = True
    marked[first] |= marked[spare]
    rows = np.flatnonzero(marked[row_cells])
    return (rows, cols, np.diff(np.searchsorted(rows, offsets(left_sizes))),
            np.diff(np.searchsorted(cols, offsets(right_sizes))))


def prune(grouped: GroupedInput, pair_hash: PairHash, p: int) -> GroupedInput:
    """The rows and columns of ``grouped`` that the occupancy pass at ``p``
    keeps, in the same groups: a group keeps rows iff it keeps columns, so
    a group may be empty on both sides.  Sorting the result at a threshold
    of at most ``p`` lists what sorting ``grouped`` lists.

    The pass runs only where the groups, split into cells at least p wide,
    would hold at least 4 cells per tuple, so that most cells hold no tuple;
    elsewhere ``grouped`` itself is returned.  It hashes and prunes in
    slices of at most ``CHUNK_TUPLES`` tuples (a larger group is a slice of
    its own), so its temporaries scale with a slice.  The cells depend on
    the group alone, so slicing changes no survivor.
    """
    cap = 64 - (p - 1).bit_length()  # the most cell bits: cells 2**(64 - c) wide
    if not len(grouped) or len(grouped) << cap < 4 * grouped.tuple_count:
        return grouped
    left_sizes = np.diff(grouped.left_offsets)
    right_sizes = np.diff(grouped.right_offsets)
    # Cell bits of each group: the least of cap and floor(log2(16 t)) for
    # its t tuples, exact for t below 2**49, so the cells depend on the
    # group alone and a table holds at most 16 slots a tuple.
    bits = np.minimum(np.frexp(16 * (left_sizes + right_sizes))[1] - 1, cap)
    bits = bits.astype(np.int64)
    bounds = chunk_starts(grouped.left_offsets + grouped.right_offsets, CHUNK_TUPLES)
    parts = []
    for s, e in zip(bounds, bounds[1:]):
        xs = grouped.left_values[grouped.left_offsets[s]:grouped.left_offsets[e]]
        ys = grouped.right_values[grouped.right_offsets[s]:grouped.right_offsets[e]]
        rows, cols, kept_left, kept_right = _reachable(
            pair_hash.h1.values(xs), left_sizes[s:e], pair_hash.h2.values(ys),
            right_sizes[s:e], bits[s:e])
        parts.append((xs[rows], kept_left, ys[cols], kept_right))
    xs, kept_left, ys, kept_right = (np.concatenate(arrays) for arrays in zip(*parts))
    return GroupedInput(grouped.join_values, offsets(kept_left), xs, offsets(kept_right), ys)


def sort_group(grouped: GroupedInput, lo: int, hi: int, pair_hash: PairHash,
               p: int) -> SortedChunk:
    """Sort groups ``lo`` to ``hi - 1`` and list their pairs below ``p``.

    Every tuple of the groups is hashed and sorted; a pass that prunes
    hands in what ``prune`` kept at its threshold, which ``p`` may have
    fallen below since.
    """
    lb, le = grouped.left_offsets[[lo, hi]].tolist()
    rb, re = grouped.right_offsets[[lo, hi]].tolist()
    left_sizes = np.diff(grouped.left_offsets[lo:hi + 1])
    right_sizes = np.diff(grouped.right_offsets[lo:hi + 1])
    xs = grouped.left_values[lb:le]
    ys = grouped.right_values[rb:re]
    x_hashes = pair_hash.h1.values(xs)
    y_hashes = pair_hash.h2.values(ys)
    groups = hi - lo
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
    b = max(1, (groups - 1).bit_length())
    ib = (hashes.size - 1).bit_length()
    key = hashes >> np.uint64(b + ib) << np.uint64(ib)
    key |= np.arange(hashes.size, dtype=np.uint64)
    group_base = np.arange(groups, dtype=np.uint64) << np.uint64(64 - b)
    key[:nr] |= np.repeat(group_base, right_sizes)
    key[nr:] |= np.repeat(group_base, left_sizes)
    key.sort()
    order = (key & np.uint64((1 << ib) - 1)).view(np.intp)
    # What is left is the sort key, (group, the hash's top 64 - b - ib bits).
    key >>= np.uint64(ib)
    _, run = tie_runs(key)
    if run.size:
        tied = order[run]
        order[run] = tied[np.lexsort((tied, hashes[tied], key[run]))]

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
    size = end - begin

    # Each column's window: the rows of its group whose h1 lies in
    # [h2, h2 + p), cyclically.  An empty window counts 0 rows, so every
    # column keeps its place and the group offsets follow the right sizes.
    if p >= GRID:
        counts = size
    else:
        # A binary search of the rows' sort keys, in row order, finds a hash
        # within its group up to the cut bits.
        top = y_hashes + np.uint64(p)
        target = (group_base[group_of] | top >> np.uint64(b)) >> np.uint64(ib)
        at = np.searchsorted(key[~is_col], target)
        # Rows whose key ties the target's may still hash below it.
        i = np.flatnonzero(at < end)
        while i.size:
            i = i[row_hashes[at[i]] < top[i]]
            at[i] += 1
            i = i[at[i] < end[i]]
        # A window past 2**64 wraps to the group's first rows.
        counts = at - first + np.where(top < y_hashes, size, 0)
    del key
    column_offsets = offsets(counts)
    n = int(column_offsets[-1])
    # Each column's candidates, from its minimum; those past its group's end
    # wrap to the group's first rows.
    at = np.repeat(first - column_offsets[:-1], counts)
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
    group_offsets = column_offsets[offsets(right_sizes)]
    return SortedChunk(
        pairs=memoryview(pairs),
        hashes=memoryview(cand_hashes),
        offsets=group_offsets.tolist(),
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
