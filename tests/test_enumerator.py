import itertools
import random

import numpy as np

from joinsketch import PairwiseHash, enumerator, group_and_prune
from joinsketch.enumerator import SortedChunk, chunk_bounds, scan_group, sort_group
from joinsketch.hashing import GRID, MASK64, PairHash, draw_pair_hash, spawn_rng

from conftest import FixedThreshold, random_instance, single_group


def sort_one(A, C, pair_hash, p=GRID):
    return sort_group(single_group(A, C), 0, 1, pair_hash, p)


def collect(A, C, pair_hash, p):
    """Pairs offered for one group at fixed threshold p, its probes (the
    skipped columns' and the walk's) and the emitted count."""
    chunk = sort_one(A, C, pair_hash, p)
    sketch = FixedThreshold(p)
    counters = scan_group(chunk, 0, sketch)
    assert counters.emitted == len(sketch.pairs)
    return sketch.pairs, chunk.skipped + counters.inner_iterations, chunk


def brute(pair_hash, A, C, p):
    hx = pair_hash.h1.values(np.asarray(A, dtype=np.uint64))
    hy = pair_hash.h2.values(np.asarray(C, dtype=np.uint64))
    mask = (hx[:, None] - hy[None, :]) < np.uint64(p) if p > 0 else np.zeros((len(A), len(C)), bool)
    return {(A[i], C[j]) for i, j in zip(*np.nonzero(mask))}


def random_group(rng, max_side=100, value_range=5000):
    na, nc = rng.randint(1, max_side), rng.randint(1, max_side)
    return rng.sample(range(value_range), na), rng.sample(range(value_range), nc)


def assert_columns_start_at_minima(chunk):
    for g in range(len(chunk.left_offsets) - 1):
        lo, hi = chunk.left_offsets[g], chunk.left_offsets[g + 1]
        for j in range(chunk.kept_offsets[g], chunk.kept_offsets[g + 1]):
            column = [(h - chunk.y_hashes[j]) & MASK64 for h in chunk.x_hashes[lo:hi]]
            assert lo <= chunk.starts[j] < hi
            assert column[chunk.starts[j] - lo] == min(column)


def test_sort_group_singleton():
    g = sort_one([7], [3], draw_pair_hash(spawn_rng(1)))
    assert g.xs == [7] and g.ys == [3]
    assert g.left_offsets == [0, 1] and g.kept_offsets == [0, 1] and g.starts == [0]


def test_sort_group_orders_by_hash():
    # Identity parameters make the hash equal to the value.
    h = PairHash(PairwiseHash(1, 0), PairwiseHash(1, 0))
    g = sort_one([9, 1, 5], [20, 10], h)
    assert g.xs == [1, 5, 9]
    assert g.x_hashes == [1, 5, 9]
    assert g.ys == [10, 20]
    # Every row is below both columns, so both minima wrap to the first row.
    assert g.starts == [0, 0]


def test_sort_group_ties_break_by_value():
    # Constant hash collides everything; the value ordering must take over.
    h = PairHash(PairwiseHash(0, 42), PairwiseHash(0, 42))
    g = sort_one([9, 1, 5], [8, 2], h)
    assert g.xs == [1, 5, 9]
    assert g.ys == [2, 8]
    # Enough ties, out of order across groups, that an unstable sort would
    # reorder them.
    grouped = group_and_prune(*random_instance(random.Random(12), max_each=2000, b_range=4,
                                               a_range=10**6, c_range=10**6))
    g = sort_group(grouped, 0, len(grouped), h, GRID)
    assert g.xs == grouped.left_values.tolist() and g.ys == grouped.right_values.tolist()


def test_single_row_group_degenerate_wrap():
    h = PairHash(PairwiseHash(0, int(0.4 * GRID)), PairwiseHash(0, 0))
    got, probes, chunk = collect([5], [1, 2], h, int(0.5 * GRID))
    assert got == [(5, 1), (5, 2)]
    assert probes == 2 and chunk.skipped == 0
    got, probes, chunk = collect([5], [1, 2], h, int(0.3 * GRID))
    assert got == []
    assert probes == 2 and chunk.skipped == 2


def test_threshold_one_emits_every_pair_from_each_column_minimum():
    rng = random.Random(13)
    for trial in range(40):
        A, C = random_group(rng, max_side=30, value_range=500)
        h = draw_pair_hash(spawn_rng(1000 + trial))
        got, _, g = collect(A, C, h, GRID)
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
        got, probes, chunk = collect(A, C, draw_pair_hash(spawn_rng(2000 + trial)), 0)
        assert got == []
        assert probes == chunk.skipped == len(C)
        assert chunk.ys == chunk.xs == []


def test_fixed_threshold_matches_brute_force():
    rng = random.Random(15)
    grid = [0, 1 << 62, 1 << 63, GRID - 1]
    for trial in range(200):
        A, C = random_group(rng, max_side=60)
        h = draw_pair_hash(spawn_rng(3000 + trial))
        p = grid[trial % 4]
        got, probes, chunk = collect(A, C, h, p)
        assert len(got) == len(set(got))
        assert set(got) == brute(h, A, C, p)
        assert_columns_start_at_minima(chunk)
        # One probe per emitted pair, plus at most one that stops a column.
        assert len(got) <= probes <= len(got) + len(C)


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
        scan_group(sort_one(A, C, h, schedule[0]), 0, sketch)
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
        _, probes, _ = collect(A, C, draw_pair_hash(spawn_rng(5000 + s)), p)
        total += probes
    mean = total / seeds
    assert expected / 2 <= mean <= expected * 2


def test_chunk_bounds_cover_every_group_once(monkeypatch):
    rng = random.Random(18)
    for trial in range(60):
        grouped = group_and_prune(*random_instance(rng, max_each=300, b_range=rng.choice([2, 12, 60])))
        if not len(grouped):
            continue
        starts = (grouped.left_offsets + grouped.right_offsets).tolist()
        for tuples in (1, 16, 64):
            monkeypatch.setattr(enumerator, "CHUNK_TUPLES", tuples)
            bounds = chunk_bounds(grouped)
            assert bounds[0] == 0 and bounds[-1] == len(grouped)
            assert all(a < b for a, b in zip(bounds, bounds[1:]))
            for lo, hi in zip(bounds, bounds[1:]):
                size = starts[hi] - starts[lo]
                # At most one group beyond the budget, and a group of the
                # budget or more alone.
                assert hi - lo == 1 or size - (starts[hi] - starts[hi - 1]) < tuples
                assert hi - lo == 1 or max(
                    starts[g + 1] - starts[g] for g in range(lo, hi)) < tuples
        monkeypatch.setattr(enumerator, "CHUNK_TUPLES", 1)
        assert chunk_bounds(grouped) == list(range(len(grouped) + 1))


def reference_chunk(grouped, lo, hi, pair_hash, p):
    """``sort_group`` in plain Python: each group's sides in sorted (hash,
    side, value) order, side 0 for columns, and rows only for the groups
    that keep a column."""
    xs, x_hashes, left_offsets, ys, y_hashes, starts, kept_offsets = [], [], [0], [], [], [], [0]
    skipped = 0
    for _, A, C in itertools.islice(grouped.groups(), lo, hi):
        merged = sorted([(h, 1, x) for h, x in zip(pair_hash.h1.values(A).tolist(), A.tolist())]
                        + [(h, 0, y) for h, y in zip(pair_hash.h2.values(C).tolist(), C.tolist())])
        rows = [(h, x) for h, side, x in merged if side]
        before = 0  # rows sorted before the current column
        for h, side, y in merged:
            if side:
                before += 1
                continue
            start = before % len(rows)
            if p >= GRID or (rows[start][0] - h) & MASK64 < p:
                ys.append(y)
                y_hashes.append(h)
                starts.append(len(xs) + start)
            else:
                skipped += 1
        if len(ys) > kept_offsets[-1]:
            x_hashes.extend(h for h, _ in rows)
            xs.extend(x for _, x in rows)
        left_offsets.append(len(xs))
        kept_offsets.append(len(ys))
    return SortedChunk(xs, x_hashes, left_offsets, ys, y_hashes, starts, kept_offsets, skipped)


def tie_prone_hashes(rng, trial):
    """A drawn pair hash; the identity, whose hashes in a chunk share their
    top bits, so the chunk's sort keys tie; and hashes with only their top
    1 to 6 bits set, which tie outright."""
    bits = rng.randint(1, 6)

    def top():
        return PairwiseHash(rng.randrange(1, 1 << bits) << (64 - bits),
                            rng.randrange(1 << bits) << (64 - bits))

    return [draw_pair_hash(spawn_rng(6000 + trial)), PairHash(PairwiseHash(1, 0), PairwiseHash(1, 0)),
            PairHash(top(), top())]


def test_a_chunk_offers_what_its_groups_offer_one_by_one():
    rng = random.Random(19)
    for trial in range(40):
        grouped = group_and_prune(*random_instance(rng, max_each=300, b_range=rng.choice([8, 60])))
        if not len(grouped):
            continue
        for h in tie_prone_hashes(rng, trial):
            p = rng.choice([0, 1 << 60, 1 << 62, 1 << 63, GRID])
            whole = sort_group(grouped, 0, len(grouped), h, p)
            assert whole == reference_chunk(grouped, 0, len(grouped), h, p)
            assert_columns_start_at_minima(whole)
            for g in range(len(grouped)):
                alone, together = FixedThreshold(p), FixedThreshold(p)
                one = sort_group(grouped, g, g + 1, h, p)
                assert scan_group(one, 0, alone) == scan_group(whole, g, together)
                assert alone.pairs == together.pairs


def test_groups_that_keep_no_column_get_no_rows():
    rng = random.Random(20)
    for trial in range(30):
        grouped = group_and_prune(*random_instance(rng, max_each=400, b_range=30, a_range=10**6,
                                                   c_range=10**6))
        if len(grouped) < 2:
            continue
        h = draw_pair_hash(spawn_rng(7000 + trial))
        # Each group's smallest pair hash; a threshold between two of them
        # keeps the columns of some groups and none of the others.
        lowest = sorted(int((h.h1.values(A)[:, None] - h.h2.values(C)[None, :]).min())
                        for _, A, C in grouped.groups())
        if lowest[0] == lowest[-1]:
            continue
        p = rng.choice([x for x in lowest if x > lowest[0]])
        chunk = sort_group(grouped, 0, len(grouped), h, p)
        assert chunk == reference_chunk(grouped, 0, len(grouped), h, p)
        assert_columns_start_at_minima(chunk)
        idle = [g for g in range(len(grouped)) if chunk.kept_offsets[g] == chunk.kept_offsets[g + 1]]
        assert 0 < len(idle) < len(grouped)
        for g, (_, A, _) in enumerate(grouped.groups()):
            rows = chunk.left_offsets[g + 1] - chunk.left_offsets[g]
            assert rows == (0 if g in idle else A.size)
            alone, together = FixedThreshold(p), FixedThreshold(p)
            one = sort_group(grouped, g, g + 1, h, p)
            assert scan_group(one, 0, alone) == scan_group(chunk, g, together)
            assert alone.pairs == together.pairs
            assert (alone.pairs == []) == (g in idle)
