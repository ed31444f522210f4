import random

import numpy as np

from joinsketch import PairwiseHash
from joinsketch.enumerator import scan_group, sort_group
from joinsketch.hashing import GRID, MASK64, PairHash, draw_pair_hash, spawn_rng

from conftest import FixedThreshold


def collect(group, p):
    sketch = FixedThreshold(p)
    counters = scan_group(group, sketch)
    return sketch.pairs, counters


def brute(pair_hash, A, C, p):
    hx = pair_hash.h1.values(np.asarray(A, dtype=np.uint64))
    hy = pair_hash.h2.values(np.asarray(C, dtype=np.uint64))
    mask = (hx[:, None] - hy[None, :]) < np.uint64(p) if p > 0 else np.zeros((len(A), len(C)), bool)
    return {(A[i], C[j]) for i, j in zip(*np.nonzero(mask))}


def random_group(rng, max_side=100, value_range=5000):
    na, nc = rng.randint(1, max_side), rng.randint(1, max_side)
    return rng.sample(range(value_range), na), rng.sample(range(value_range), nc)


def test_sort_group_singleton():
    g = sort_group([7], [3], draw_pair_hash(spawn_rng(1)))
    assert g.xs == [7] and g.ys == [3]


def test_sort_group_orders_by_hash():
    # Identity parameters make the hash equal to the value.
    h = PairHash(PairwiseHash(1, 0), PairwiseHash(1, 0))
    g = sort_group([9, 1, 5], [20, 10], h)
    assert g.xs == [1, 5, 9]
    assert g.x_hashes == [1, 5, 9]
    assert g.ys == [10, 20]


def test_sort_group_ties_break_by_value():
    # Constant hash collides everything; the value ordering must take over.
    h = PairHash(PairwiseHash(0, 42), PairwiseHash(0, 42))
    g = sort_group([9, 1, 5], [8, 2], h)
    assert g.xs == [1, 5, 9]
    assert g.ys == [2, 8]


def test_single_row_group_degenerate_wrap():
    h = PairHash(PairwiseHash(0, int(0.4 * GRID)), PairwiseHash(0, 0))
    g = sort_group([5], [1, 2], h)
    got, counters = collect(g, int(0.5 * GRID))
    assert got == [(5, 1), (5, 2)]
    assert counters.sbar_increments == 0
    got, _ = collect(g, int(0.3 * GRID))
    assert got == []


def test_threshold_one_emits_every_pair_from_each_column_minimum():
    rng = random.Random(13)
    for trial in range(40):
        A, C = random_group(rng, max_side=30, value_range=500)
        h = draw_pair_hash(spawn_rng(1000 + trial))
        g = sort_group(A, C, h)
        got, _ = collect(g, GRID)
        m = len(g.xs)
        expected = []
        for t in range(len(g.ys)):
            column = [(g.x_hashes[s] - g.y_hashes[t]) & MASK64 for s in range(m)]
            start = column.index(min(column))
            expected.extend((g.xs[(start + i) % m], g.ys[t]) for i in range(m))
        assert got == expected


def test_threshold_zero_emits_nothing():
    rng = random.Random(14)
    for trial in range(30):
        A, C = random_group(rng, max_side=40)
        g = sort_group(A, C, draw_pair_hash(spawn_rng(2000 + trial)))
        got, counters = collect(g, 0)
        assert got == []
        assert counters.sbar_increments <= 2 * len(A)
        assert counters.inner_iterations == len(C)


def test_fixed_threshold_matches_brute_force():
    rng = random.Random(15)
    grid = [0, 1 << 62, 1 << 63, GRID - 1]
    for trial in range(200):
        A, C = random_group(rng, max_side=60)
        h = draw_pair_hash(spawn_rng(3000 + trial))
        p = grid[trial % 4]
        got, counters = collect(sort_group(A, C, h), p)
        assert len(got) == len(set(got))
        assert set(got) == brute(h, A, C, p)
        assert counters.sbar_increments <= 2 * len(A)
        assert counters.emitted == len(got)


class TighteningThreshold(FixedThreshold):
    """Steps down ``schedule`` once every ``every`` offers."""

    def __init__(self, schedule, every):
        super().__init__(schedule[0])
        self.left = schedule[1:]
        self.every = every

    def offer(self, x, y, hv):
        super().offer(x, y, hv)
        if self.left and len(self.pairs) % self.every == 0:
            self.p = self.left.pop(0)


def test_decreasing_threshold_keeps_everything_below_final_value():
    # The scan may be robbed of candidates mid-flight by a tightening
    # threshold, but everything below the final value must still come out.
    rng = random.Random(16)
    for trial in range(100):
        A, C = random_group(rng, max_side=50)
        h = draw_pair_hash(spawn_rng(4000 + trial))
        schedule = sorted((rng.randrange(GRID) for _ in range(4)), reverse=True)
        sketch = TighteningThreshold(schedule, rng.randint(3, 20))
        scan_group(sort_group(A, C, h), sketch)
        out = sketch.pairs
        assert set(out) >= brute(h, A, C, sketch.p)
        assert set(out) <= brute(h, A, C, schedule[0])


def test_inner_iterations_concentrate_near_expectation():
    # Expected probes per group is about p * |A| * |C| + |C| for fixed p.
    na = nc = 40
    p = GRID // 8
    expected = (p / GRID) * na * nc + nc
    total = 0
    seeds = 150
    rng = random.Random(17)
    for s in range(seeds):
        A = rng.sample(range(10**6), na)
        C = rng.sample(range(10**6), nc)
        g = sort_group(A, C, draw_pair_hash(spawn_rng(5000 + s)))
        _, counters = collect(g, p)
        total += counters.inner_iterations
    mean = total / seeds
    assert expected / 2 <= mean <= expected * 2
