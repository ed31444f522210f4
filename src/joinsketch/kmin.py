"""k-minimum-values sketch kept as one sorted list of packed ints.

Each entry is one Python int, ``hv << 64 | a << 32 | c``: the pair hash
above the pair.  Integer order is therefore (hash, a, c) order, the tie rule
everywhere, so a merge keeps exactly k entries even under equal hashes and
the whole sketch is deterministic given its inputs.  A pair offered twice
gives the same int twice, so duplicates sit side by side once sorted.

The k smallest distinct entries seen so far live in a sorted list S.  Every
offer is appended to an unordered list F; when F holds k entries the two
lists are merged by sorting S + F, dropping equal neighbours and keeping the
first k, which also tightens the live threshold p to the new k-th smallest
hash.  The merge is the only place duplicates are removed; no set of held
pairs is kept.  Timsort finds S already sorted, so a merge costs a sort of F;
insertion is amortized O(log k), with no heap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from operator import ne


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


def combine(sketch: list[int], buffer: list[int], k: int,
            current_p: int) -> tuple[int, list[int], int]:
    """Merge the sorted, duplicate-free ``sketch`` with ``buffer``.

    Returns the new threshold (the k-th smallest hash, or ``current_p``
    unchanged when fewer than k distinct entries exist in total), the sorted
    list of the k smallest distinct entries, and the number of distinct
    entries before the cut.
    """
    merged = sketch + buffer
    merged.sort()
    # Keep each entry that differs from its predecessor.
    merged = merged[:1] + list(compress(islice(merged, 1, None),
                                        map(ne, islice(merged, 1, None), merged)))
    distinct = len(merged)
    if distinct < k:
        return current_p, merged, distinct
    del merged[k:]
    return merged[-1] >> 64, merged, distinct


class KMinState:
    """Mutable sketch state for one estimator run (single owner, no sharing)."""

    __slots__ = ("k", "p", "sketch", "buffer", "accepted", "combines")

    def __init__(self, k: int, p0: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.p = p0  # live threshold in grid units; only ever decreases
        self.sketch: list[int] = []  # sorted, duplicate-free
        self.buffer: list[int] = []
        self.accepted = 0  # distinct pairs that entered the sketch
        self.combines = 0

    def offer(self, a: int, c: int, hv: int) -> None:
        """Append pair (a, c) with hash ``hv``; the k-th buffered offer merges.

        A pair already held is dropped at the next merge.  Callers normally
        guarantee hv < p; an offer above the live threshold (a caller working
        from a stale, lagging cutoff) is tolerated and simply evicted at the
        next merge, so the final rank is unaffected.
        """
        self.buffer.append(hv << 64 | a << 32 | c)
        if len(self.buffer) == self.k:
            self._merge()

    def _merge(self) -> None:
        held = len(self.sketch)
        self.p, self.sketch, distinct = combine(self.sketch, self.buffer, self.k, self.p)
        self.buffer = []
        self.accepted += distinct - held
        self.combines += 1

    def finalize(self) -> SketchOutcome:
        """Run the closing merge and report the outcome."""
        self._merge()
        if len(self.sketch) == self.k:
            return SketchOutcome(filled=True, v=self.p)
        return SketchOutcome(filled=False, count=len(self.sketch))
