"""Per-group traversal of the implicit |A| x |C| pair-hash matrix.

With rows sorted by h1-value and columns by h2-value, every column of the
pair hash (h1(x) - h2(y)) mod 1 is cyclically sorted: one ascending run with
a single wraparound.  Each column is therefore scanned by moving a pointer
to its minimum (the unique descent) and walking forward while values stay
below the live threshold.  The pointer only ever moves forward cyclically
across columns, so a whole group costs O(|A| + |C|) plus one step per
emitted candidate, never |A| * |C|.  Candidates go straight to the sketch,
whose threshold they may tighten mid-scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import MASK64, PairHash
from .kmin import KMinState


@dataclass(frozen=True)
class SortedGroup:
    """One group's values and cached hashes, sorted for the scan.

    ``xs`` ascending by h1 raw value, ``ys`` ascending by h2 raw value, ties
    broken by the attribute value; hash lists are aligned with the values.
    """

    xs: list[int]
    x_hashes: list[int]
    ys: list[int]
    y_hashes: list[int]


def sort_group(left_values, right_values, pair_hash: PairHash) -> SortedGroup:
    """Sort a group's left values by h1 and right values by h2."""
    xs = np.asarray(left_values, dtype=np.uint64)
    ys = np.asarray(right_values, dtype=np.uint64)
    hx = pair_hash.h1.values(xs)
    hy = pair_hash.h2.values(ys)
    xo = np.lexsort((xs, hx))
    yo = np.lexsort((ys, hy))
    return SortedGroup(
        xs=xs[xo].tolist(),
        x_hashes=hx[xo].tolist(),
        ys=ys[yo].tolist(),
        y_hashes=hy[yo].tolist(),
    )


@dataclass
class ScanCounters:
    sbar_increments: int = 0
    inner_iterations: int = 0
    emitted: int = 0


def scan_group(group: SortedGroup, sketch: KMinState) -> ScanCounters:
    """Offer every pair of the group whose hash is below the live threshold.

    The threshold is ``sketch.p``, re-read after every offer so that a merge
    which tightens it mid-scan takes effect immediately; it must be
    non-increasing.  ``sketch.offer(x, y, hv)`` receives each qualifying
    pair exactly once per group.
    """
    xs, hx = group.xs, group.x_hashes
    ys, hy = group.ys, group.y_hashes
    offer = sketch.offer
    p = sketch.p
    m = len(xs)
    sbar = 0
    sbar_steps = 0
    inner = 0
    emitted = 0
    for t in range(len(ys)):
        h2t = hy[t]
        # Move sbar to this column's minimum: advance while the value still
        # exceeds its cyclic predecessor's.  Columns are visited in h2 order,
        # so the minima advance monotonically; at most 2|A| steps per group.
        cur = (hx[sbar] - h2t) & MASK64
        prev = (hx[sbar - 1] - h2t) & MASK64
        while cur > prev:
            prev = cur
            sbar += 1
            if sbar == m:
                sbar = 0
            cur = (hx[sbar] - h2t) & MASK64
            sbar_steps += 1
        # Walk forward from the minimum while hashes clear the threshold.
        # The range cap stops the cyclic walk when every hash qualifies
        # (threshold 1.0 mode would otherwise never exit).
        s = sbar
        hv = cur
        yt = ys[t]
        for _ in range(m):
            inner += 1
            if hv >= p:
                break
            offer(xs[s], yt, hv)
            p = sketch.p
            emitted += 1
            s += 1
            if s == m:
                s = 0
            hv = (hx[s] - h2t) & MASK64
    return ScanCounters(sbar_steps, inner, emitted)
