"""k-minimum-values sketch kept as one sorted list of packed ints.

Each entry is one Python int, ``hv << 64 | a << 32 | c``: the pair hash
above the pair.  Integer order is therefore (hash, a, c) order, the tie rule
everywhere, so a merge keeps exactly k entries even under equal hashes and
the whole sketch is deterministic given its inputs.

The k smallest entries seen so far live in a sorted list S.  New candidates
go to an unordered list F; when F holds k entries the two lists are merged
by sorting S + F and keeping the first k, which also tightens the live
threshold p to the new k-th smallest hash.  Timsort finds S already sorted,
so a merge costs a sort of F; insertion is amortized O(log k), with no heap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hashing import MASK64


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


def combine(sketch: list[int], buffer: list[int], k: int, current_p: int) -> tuple[int, list[int]]:
    """Merge the sorted ``sketch`` with ``buffer`` and keep the k smallest.

    Returns the new threshold (the k-th smallest hash, or ``current_p``
    unchanged when fewer than k entries exist in total) and the sorted list
    of kept entries.
    """
    merged = sketch + buffer
    merged.sort()
    if len(merged) < k:
        return current_p, merged
    del merged[k:]
    return merged[-1] >> 64, merged


class KMinState:
    """Mutable sketch state for one estimator run (single owner, no sharing)."""

    __slots__ = ("k", "p", "sketch", "buffer", "members", "accepted", "combines", "_evicted")

    def __init__(self, k: int, p0: int, track_evictions: bool = False):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.p = p0  # live threshold in grid units; only ever decreases
        self.sketch: list[int] = []  # sorted
        self.buffer: list[int] = []
        self.members: set[int] = set()  # encoded (a << 32 | c) keys of sketch + buffer
        self.accepted = 0
        self.combines = 0
        # Debug-only shadow set: a pair dropped by a merge has hash >= every
        # later threshold, so it must never be offered again.
        self._evicted: set[int] | None = set() if track_evictions else None

    def offer(self, a: int, c: int, hv: int) -> bool:
        """Insert pair (a, c) with hash ``hv``.

        Returns False without touching the state when the pair is already
        present.  The k-th accepted entry in the buffer triggers a merge.
        Callers normally guarantee hv < p; an offer above the live threshold
        (a caller working from a stale, lagging cutoff) is tolerated and
        simply evicted at the next merge, so the final rank is unaffected.
        """
        key = (a << 32) | c
        if key in self.members:
            return False
        if self._evicted is not None and key in self._evicted:
            raise AssertionError("evicted pair offered again; threshold discipline broken")
        self.buffer.append(hv << 64 | key)
        self.members.add(key)
        self.accepted += 1
        if len(self.buffer) == self.k:
            self._merge()
        return True

    def _merge(self) -> None:
        held = len(self.sketch) + len(self.buffer)
        self.p, self.sketch = combine(self.sketch, self.buffer, self.k, self.p)
        self.buffer = []
        if held > self.k:
            kept = {entry & MASK64 for entry in self.sketch}
            if self._evicted is not None:
                self._evicted.update(self.members - kept)
            self.members = kept
        self.combines += 1

    def finalize(self) -> SketchOutcome:
        """Run the closing merge and report the outcome."""
        self._merge()
        if len(self.sketch) == self.k:
            return SketchOutcome(filled=True, v=self.p)
        return SketchOutcome(filled=False, count=len(self.sketch))
