"""k-minimum-values sketch kept as two sorted uint64 columns.

An entry is a pair hash and its pair, ``a << 32 | c``.  Entries are ordered
by (hash, pair), the tie rule everywhere, so a merge keeps exactly k entries
even under equal hashes and the whole sketch is deterministic given its
inputs.  A pair offered twice gives the same entry twice, so duplicates sit
side by side once sorted.

The k smallest distinct entries seen so far live in the numpy columns
``hashes`` and ``pairs``, sorted together.  Every offer is appended to two
``array('Q')`` buffer columns; when they hold k entries they are merged with
the sketch in numpy (``combine``): concatenate, sort, drop equal neighbours
and keep the first k, which also tightens the live threshold p to the new
k-th smallest hash.  The merge is the only place duplicates are removed; no
set of held pairs is kept.  An entry costs 16 bytes in either place.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .relation import tie_runs


@dataclass(frozen=True)
class SketchOutcome:
    """Result of finalizing a sketch.

    ``filled`` means k distinct pairs were retained and ``v`` is the k-th
    smallest hash in grid units.  Otherwise ``count`` is the number of
    distinct pairs found below the initial threshold.
    """

    filled: bool
    v: int | None = None
    count: int | None = None


def combine(hashes: np.ndarray, pairs: np.ndarray, new_hashes: np.ndarray,
            new_pairs: np.ndarray, k: int,
            current_p: int) -> tuple[int, np.ndarray, np.ndarray, int]:
    """Merge the sorted, duplicate-free sketch ``(hashes, pairs)`` with the
    unordered entries ``(new_hashes, new_pairs)``, which may repeat.

    Returns the new threshold (the k-th smallest hash, or ``current_p``
    unchanged when fewer than k distinct entries exist in total), the two
    columns of the k smallest distinct entries in (hash, pair) order, and
    the number of distinct entries before the cut.
    """
    h = np.concatenate((hashes, new_hashes))
    order = np.argsort(h)
    h = h[order]
    q = np.concatenate((pairs, new_pairs))[order]
    del order
    same, run = tie_runs(h)  # same: entry equals its predecessor
    if run.size:
        # Only runs of equal hashes still need ordering by pair: a pair
        # offered twice, or distinct pairs whose hashes collide.  A lexsort
        # of both whole columns would cost about ten argsorts of the hash.
        q[run] = q[run][np.lexsort((q[run], h[run]))]
        same[1:] &= q[1:] == q[:-1]
    kept = np.flatnonzero(~same)
    distinct = kept.size
    kept = kept[:k]
    h, q = h[kept], q[kept]
    if distinct < k:
        return current_p, h, q, distinct
    return int(h[-1]), h, q, distinct


class KMinState:
    """Mutable sketch state for one estimator run (single owner, no sharing)."""

    __slots__ = ("k", "p", "hashes", "pairs", "new_hashes", "new_pairs",
                 "accepted", "combines")

    def __init__(self, k: int, p0: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.p = p0  # live threshold in grid units; only ever decreases
        # Sorted by (hash, pair) and duplicate-free.
        self.hashes = np.empty(0, dtype=np.uint64)
        self.pairs = np.empty(0, dtype=np.uint64)
        self.new_hashes = array("Q")
        self.new_pairs = array("Q")
        self.accepted = 0  # distinct pairs that entered the sketch
        self.combines = 0

    def offer(self, a: int, c: int, hv: int) -> None:
        """Buffer pair (a, c) with hash ``hv``; the k-th buffered offer merges.

        A pair already held is dropped at the next merge.  Callers normally
        guarantee hv < p; an offer above the live threshold (a caller working
        from a stale, lagging cutoff) is tolerated and simply evicted at the
        next merge, so the final rank is unaffected.
        """
        self.new_hashes.append(hv)
        self.new_pairs.append(a << 32 | c)
        if len(self.new_hashes) == self.k:
            self._merge()

    def _merge(self) -> None:
        held = self.hashes.size
        self.p, self.hashes, self.pairs, distinct = combine(
            self.hashes, self.pairs, np.frombuffer(self.new_hashes, dtype=np.uint64),
            np.frombuffer(self.new_pairs, dtype=np.uint64), self.k, self.p)
        self.new_hashes = array("Q")
        self.new_pairs = array("Q")
        self.accepted += distinct - held
        self.combines += 1

    def finalize(self) -> SketchOutcome:
        """Run the closing merge and report the outcome."""
        self._merge()
        if self.hashes.size == self.k:
            return SketchOutcome(filled=True, v=self.p)
        return SketchOutcome(filled=False, count=self.hashes.size)
