import random
import struct

import numpy as np
import pytest

from joinsketch import Relation, Side, group_and_prune, load_sample, oracle

from reference_hashing import hash_value


def random_instance(rng: random.Random, max_each=200, a_range=40, b_range=12, c_range=40):
    """Random pair of relations joined on a shared b-range (duplicates collapse)."""
    n1 = rng.randint(0, max_each)
    n2 = rng.randint(0, max_each)
    t1 = {(rng.randrange(a_range), rng.randrange(b_range)) for _ in range(n1)}
    t2 = {(rng.randrange(b_range), rng.randrange(c_range)) for _ in range(n2)}
    return Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2)


def disjoint_instance(groups: int, left: int, right: int):
    """Groups with disjoint value ranges, so z = groups * left * right exactly."""
    t1 = {(g * left + i, g) for g in range(groups) for i in range(left)}
    t2 = {(g, g * right + j) for g in range(groups) for j in range(right)}
    return Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2)


def scattered_instance(groups: int, left: int, right: int, seed=4):
    """Like disjoint_instance but with scattered attribute values.

    Contiguous ids interact with the multiply-add hash as a low-discrepancy
    lattice and concentrate estimates beyond the iid-uniform theory;
    scattered values exercise the generic behavior.
    """
    rng = random.Random(seed)
    avals = rng.sample(range(2**31), groups * left)
    cvals = rng.sample(range(2**31), groups * right)
    t1 = {(avals[g * left + i], g) for g in range(groups) for i in range(left)}
    t2 = {(g, cvals[g * right + j]) for g in range(groups) for j in range(right)}
    return Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2)


def single_group(A, C):
    """One group joining left values A to right values C."""
    return group_and_prune(Relation.from_pairs(Side.LEFT, [(a, 0) for a in A]),
                           Relation.from_pairs(Side.RIGHT, [(0, c) for c in C]))


def group_values(grouped, g):
    """Left and right values of group ``g``, sliced from the CSR arrays."""
    lo, ro = grouped.left_offsets, grouped.right_offsets
    return grouped.left_values[lo[g]:lo[g + 1]], grouped.right_values[ro[g]:ro[g + 1]]


def reachable_tuples(grouped, pair_hash, p) -> int:
    """Tuples, both sides, that lie in some pair of their group whose hash
    is below ``p``: brute force over every group's product."""
    count = 0
    for g in range(len(grouped)):
        A, C = group_values(grouped, g)
        below = (pair_hash.h1.values(A)[:, None] - pair_hash.h2.values(C)[None, :]) < np.uint64(p)
        count += int(below.any(axis=1).sum() + below.any(axis=0).sum())
    return count


def greedy_chunks(sizes: list[int], budget: int) -> list[int]:
    """Chunks of consecutive runs of the given sizes, in plain Python: a
    chunk takes the next run while it then holds at most ``budget`` units,
    and a run larger than the budget is a chunk of its own.  Returns the run
    index at which each chunk starts, then the run count."""
    bounds, held = [0], 0
    for i, size in enumerate(sizes):
        if i > bounds[-1] and held + size > budget:
            bounds.append(i)
            held = 0
        held += size
    if sizes:
        bounds.append(len(sizes))
    return bounds


def a_run_pairs(grouped) -> list[int]:
    """Pairs per left value, in ascending value order: the runs the oracle
    cuts into chunks."""
    a, group = oracle._left_tuples(grouped)
    fan = np.diff(grouped.right_offsets)[group]
    return [int(fan[a == v].sum()) for v in np.unique(a)]


def brute_force_pairs(r1: Relation, r2: Relation) -> set:
    """Quadratic-time join-project, independent of the grouping code."""
    out = set()
    for a, b in r1.tuples:
        for b2, c in r2.tuples:
            if b == b2:
                out.add((a, c))
    return out


def break_the_cut(path) -> None:
    """Give the last record of the non-empty left sample file ``path`` a
    larger value that the file's own selector rejects.  The records stay
    strictly ascending, so only the membership check can catch it."""
    sample = load_sample(str(path))
    last = max(a for a, _ in sample.relation.tuples)
    bad = next(a for a in range(last + 1, 2**32) if hash_value(sample.selector, a) >= sample.cut)
    blob = bytearray(path.read_bytes())
    blob[-8:-4] = struct.pack("<I", bad)
    path.write_bytes(bytes(blob))


class FixedThreshold:
    """Stand-in sketch for ``scan_group``: a constant threshold ``p`` and an
    ``offer`` that collects the offered pairs in order, unpacked to (x, y)."""

    def __init__(self, p: int):
        self.p = p
        self.pairs = []

    def offer(self, pair, hv):
        self.pairs.append((pair >> 32, pair & 0xFFFFFFFF))


@pytest.fixture(scope="session")
def mini_fimi_path():
    from pathlib import Path

    return Path(__file__).parent / "data" / "mini.fimi"
