"""Brute-force ground truth for tests and experiment baselines.

Everything here materializes the full result and is desk-scale by design; a
size cap refuses anything beyond roughly 10^7 candidate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import PairHash
from .kmin import SketchOutcome
from .relation import GroupedInput, pack, sorted_distinct, unpack

DEFAULT_CAP = 10_000_000


class SizeCapError(RuntimeError):
    """Materialization would exceed the configured cap."""


@dataclass(frozen=True)
class ExactResult:
    z: int


def _check_cap(grouped: GroupedInput, cap: int) -> None:
    if grouped.total_product > cap:
        raise SizeCapError(
            f"materializing {grouped.total_product} candidate pairs exceeds the cap of {cap}"
        )


def distinct_pair_keys(grouped: GroupedInput, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Sorted encoded keys (a << 32 | c) of all distinct result pairs.

    One expansion of every group's product: each left value is repeated once
    per right value of its group, and the right values are gathered through
    a run of consecutive indices per left value.  Groups are never empty, so
    no run is.
    """
    _check_cap(grouped, cap)
    left_counts = np.diff(grouped.left_offsets)
    fan = np.repeat(np.diff(grouped.right_offsets), left_counts)
    first = np.repeat(grouped.right_offsets[:-1], left_counts)
    # Right index of each pair: +1 within a run; at a run's start, the jump
    # from the previous run's last index to this run's first.
    index = np.ones(int(fan.sum()), dtype=np.int64)
    jumps = first.copy()
    jumps[1:] -= first[:-1] + fan[:-1] - 1
    index[np.cumsum(fan) - fan] = jumps
    del first, jumps
    np.cumsum(index, out=index)
    right = grouped.right_values[index]
    del index
    keys = np.repeat(pack(grouped.left_values, 0), fan)
    keys |= right
    del right
    return sorted_distinct(keys)


def exact_size(grouped: GroupedInput, cap: int = DEFAULT_CAP) -> ExactResult:
    """Exact join-project size by unioning every group's product."""
    return ExactResult(int(distinct_pair_keys(grouped, cap).size))


def exact_size_bitsets(grouped: GroupedInput, cap: int = DEFAULT_CAP) -> int:
    """Independent second path: per-left-value sets of reachable right values."""
    _check_cap(grouped, cap)
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
    pairs do not matter here: v is a hash value, not a pair.
    """
    if k < 1:
        raise ValueError("k must be positive")
    keys = distinct_pair_keys(grouped, cap)
    if keys.size < k:
        return SketchOutcome(filled=False, count=int(keys.size))
    a, c = unpack(keys)
    del keys
    hv = pair_hash.h1.values(a)
    del a
    hv -= pair_hash.h2.values(c)  # uint64 wraparound
    hv.partition(k - 1)
    return SketchOutcome(filled=True, v=int(hv[k - 1]))
