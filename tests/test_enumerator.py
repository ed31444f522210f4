import random
import tracemalloc

import numpy as np
import pytest

from joinsketch import (MODE_START_AT_ONE, EstimatorConfig, PairwiseHash, Relation, Side,
                        enumerator, estimator, group_and_prune)
from joinsketch.enumerator import chunk_bounds, scan_group, sort_group
from joinsketch.estimator import run_once
from joinsketch.hashing import GRID, MASK64, PairHash, Pcg64Stream, draw_pair_hash, run_rng
from joinsketch.relation import chunk_starts, offsets, pack, sorted_distinct

from conftest import (FixedThreshold, a_run_pairs, greedy_chunks, group_values, random_instance,
                      reachable_tuples, single_group)


def sort_one(A, C, pair_hash, p=GRID):
    return sort_group(single_group(A, C), 0, 1, pair_hash, p)


def listing(chunk):
    """A chunk's candidates as (x, y, hash) triples and its group offsets."""
    triples = [(pair >> 32, pair & 0xFFFFFFFF, hv) for pair, hv in zip(chunk.pairs, chunk.hashes)]
    return triples, chunk.offsets


def collect(A, C, pair_hash, p):
    """Pairs offered for one group at fixed threshold p and the chunk.  At
    a fixed threshold every candidate is offered."""
    chunk = sort_one(A, C, pair_hash, p)
    sketch = FixedThreshold(p)
    scan_group(chunk, 0, sketch)
    assert len(sketch.pairs) == len(chunk.pairs)
    return sketch.pairs, chunk


def brute(pair_hash, A, C, p):
    hx = pair_hash.h1.values(np.asarray(A, dtype=np.uint64))
    hy = pair_hash.h2.values(np.asarray(C, dtype=np.uint64))
    mask = (hx[:, None] - hy[None, :]) < np.uint64(p) if p > 0 else np.zeros((len(A), len(C)), bool)
    return {(A[i], C[j]) for i, j in zip(*np.nonzero(mask))}


def random_group(rng, max_side=100, value_range=5000):
    na, nc = rng.randint(1, max_side), rng.randint(1, max_side)
    return rng.sample(range(value_range), na), rng.sample(range(value_range), nc)


def assert_columns_start_at_minima(chunk, grouped, lo, pair_hash):
    """Each column's candidates start at its smallest pair hash and
    ascend."""
    triples, group_offsets = listing(chunk)
    for g in range(len(group_offsets) - 1):
        A, _ = group_values(grouped, lo + g)
        hx = pair_hash.h1.values(A)
        candidates = triples[group_offsets[g]:group_offsets[g + 1]]
        for y in dict.fromkeys(y for _, y, _ in candidates):
            column = [hv for _, cy, hv in candidates if cy == y]
            assert column == sorted(column)
            hy = pair_hash.h2.values(np.array([y], dtype=np.uint64))
            assert column[0] == int((hx - hy).min())


def test_sort_group_singleton():
    h = draw_pair_hash(Pcg64Stream(1))
    g = sort_one([7], [3], h)
    hv = h.h1.values(np.array([7], dtype=np.uint64)) - h.h2.values(np.array([3], dtype=np.uint64))
    assert listing(g) == ([(7, 3, int(hv[0]))], [0, 1])


def test_sort_group_orders_by_hash():
    # Identity parameters make the hash equal to the value.
    h = PairHash(PairwiseHash(1, 0), PairwiseHash(1, 0))
    g = sort_one([9, 1, 5], [20, 10], h)
    # Columns in hash order; every row is below both columns, so both
    # windows wrap to the first row and walk the rows in hash order.
    assert listing(g)[0] == [(x, y, (x - y) & MASK64) for y in (10, 20) for x in (1, 5, 9)]


def test_sort_group_ties_break_by_value():
    # Constant hash collides everything; the value ordering must take over.
    h = PairHash(PairwiseHash(0, 42), PairwiseHash(0, 42))
    g = sort_one([9, 1, 5], [8, 2], h)
    assert listing(g)[0] == [(x, y, 0) for y in (2, 8) for x in (1, 5, 9)]
    # Enough ties, out of order across groups, that an unstable sort would
    # reorder them.
    grouped = group_and_prune(*random_instance(random.Random(12), max_each=2000, b_range=4,
                                               a_range=10**6, c_range=10**6))
    g = sort_group(grouped, 0, len(grouped), h, GRID)
    sides = [group_values(grouped, i) for i in range(len(grouped))]
    xs = np.concatenate([np.tile(A, C.size) for A, C in sides])
    ys = np.concatenate([np.repeat(C, A.size) for A, C in sides])
    assert np.array_equal(np.asarray(g.pairs), xs << np.uint64(32) | ys)
    assert not np.asarray(g.hashes).any()


def test_single_row_group_degenerate_wrap():
    h = PairHash(PairwiseHash(0, int(0.4 * GRID)), PairwiseHash(0, 0))
    got, chunk = collect([5], [1, 2], h, int(0.5 * GRID))
    assert got == [(5, 1), (5, 2)]
    assert chunk.offsets == [0, 2]
    got, chunk = collect([5], [1, 2], h, int(0.3 * GRID))
    assert got == []
    assert chunk.offsets == [0, 0]


def test_threshold_one_emits_every_pair_from_each_column_minimum():
    rng = random.Random(13)
    for trial in range(40):
        A, C = random_group(rng, max_side=30, value_range=500)
        h = draw_pair_hash(Pcg64Stream(1000 + trial))
        got, _ = collect(A, C, h, GRID)
        hx = dict(zip(A, h.h1.values(np.array(A, dtype=np.uint64)).tolist()))
        hy = dict(zip(C, h.h2.values(np.array(C, dtype=np.uint64)).tolist()))
        rows = sorted(A, key=lambda x: (hx[x], x))
        m = len(rows)
        expected = []
        for y in sorted(C, key=lambda y: (hy[y], y)):
            column = [(hx[x] - hy[y]) & MASK64 for x in rows]
            start = column.index(min(column))
            expected.extend((rows[(start + i) % m], y) for i in range(m))
        assert got == expected


def test_threshold_zero_emits_nothing():
    rng = random.Random(14)
    for trial in range(30):
        A, C = random_group(rng, max_side=40)
        got, chunk = collect(A, C, draw_pair_hash(Pcg64Stream(2000 + trial)), 0)
        assert got == []
        assert chunk.offsets == [0, 0] and len(chunk.pairs) == len(chunk.hashes) == 0


def test_fixed_threshold_matches_brute_force():
    rng = random.Random(15)
    grid = [0, 1 << 62, 1 << 63, GRID - 1]
    for trial in range(200):
        A, C = random_group(rng, max_side=60)
        h = draw_pair_hash(Pcg64Stream(3000 + trial))
        p = grid[trial % 4]
        got, chunk = collect(A, C, h, p)
        assert len(got) == len(set(got))
        assert set(got) == brute(h, A, C, p)
        assert_columns_start_at_minima(chunk, single_group(A, C), 0, h)


class TighteningThreshold(FixedThreshold):
    """Steps down ``schedule`` once every ``every`` offers."""

    def __init__(self, schedule, every):
        super().__init__(schedule[0])
        self.left = schedule[1:]
        self.every = every

    def offer(self, pair, hv):
        super().offer(pair, hv)
        if self.left and len(self.pairs) % self.every == 0:
            self.p = self.left.pop(0)


def test_decreasing_threshold_keeps_everything_below_final_value():
    # The scan may be robbed of candidates mid-flight by a tightening
    # threshold, but everything below the final value must still come out.
    rng = random.Random(16)
    for trial in range(100):
        A, C = random_group(rng, max_side=50)
        h = draw_pair_hash(Pcg64Stream(4000 + trial))
        schedule = sorted((rng.randrange(GRID) for _ in range(4)), reverse=True)
        sketch = TighteningThreshold(schedule, rng.randint(3, 20))
        scan_group(sort_one(A, C, h, schedule[0]), 0, sketch)
        out = sketch.pairs
        assert set(out) >= brute(h, A, C, sketch.p)
        assert set(out) <= brute(h, A, C, schedule[0])


def test_inner_iterations_concentrate_near_expectation():
    # Expected probes per group, one per column and one per emitted pair,
    # is about p * |A| * |C| + |C| for fixed p.
    na = nc = 40
    p = GRID // 8
    expected = (p / GRID) * na * nc + nc
    total = 0
    seeds = 150
    rng = random.Random(17)
    for s in range(seeds):
        A = rng.sample(range(10**6), na)
        C = rng.sample(range(10**6), nc)
        got, _ = collect(A, C, draw_pair_hash(Pcg64Stream(5000 + s)), p)
        total += nc + len(got)
    mean = total / seeds
    assert expected / 2 <= mean <= expected * 2


def test_chunk_bounds_cover_every_group_once(monkeypatch):
    rng = random.Random(18)
    for trial in range(60):
        grouped = group_and_prune(*random_instance(rng, max_each=300, b_range=rng.choice([2, 12, 60])))
        if not len(grouped):
            continue
        starts = (grouped.left_offsets + grouped.right_offsets).tolist()
        sizes = [hi - lo for lo, hi in zip(starts, starts[1:])]
        # The oracle's runs: pairs per left value.
        pairs = a_run_pairs(grouped)
        for tuples in (1, 16, 64):
            monkeypatch.setattr(enumerator, "CHUNK_TUPLES", tuples)
            # At threshold 0 no candidate is expected, so a chunk is cut by
            # its tuples.  One splitter serves the estimator's groups and
            # the oracle's a-runs, with the greedy rule.
            bounds = chunk_bounds(grouped, 0)
            assert bounds == chunk_starts(np.array(starts), tuples) == greedy_chunks(sizes, tuples)
            assert chunk_starts(offsets(np.array(pairs)), tuples) == greedy_chunks(pairs, tuples)
            assert bounds[0] == 0 and bounds[-1] == len(grouped)
            assert all(a < b for a, b in zip(bounds, bounds[1:]))
            for lo, hi in zip(bounds, bounds[1:]):
                size = starts[hi] - starts[lo]
                # At most one group beyond the budget, and a group of the
                # budget or more alone.
                assert hi - lo == 1 or size - (starts[hi] - starts[hi - 1]) < tuples
                assert hi - lo == 1 or max(
                    starts[g + 1] - starts[g] for g in range(lo, hi)) < tuples
        # Every pass weighs each group's tuples plus four times its expected
        # candidates, products times p, against the budget.  Powers of two
        # keep the expectations exact in floating point.
        for p in (GRID >> 40, GRID >> 8, GRID >> 4, GRID):
            weights = [size + 4 * -(-int(product) * p // GRID)
                       for size, product in zip(sizes, grouped.products)]
            for tuples in (1, 16, 64, 1024):
                monkeypatch.setattr(enumerator, "CHUNK_TUPLES", tuples)
                assert chunk_bounds(grouped, p) == greedy_chunks(weights, tuples), (trial, p)
        monkeypatch.setattr(enumerator, "CHUNK_TUPLES", 1)
        assert chunk_bounds(grouped) == list(range(len(grouped) + 1))


def reference_chunk(grouped, lo, hi, pair_hash, p):
    """``listing(sort_group(...))`` in plain Python.  Each group's sides go
    in sorted (hash, side, value) order, side 0 for columns.  Every column
    is walked once round its group's rows, from the first row sorted after
    it; its pairs below p are its candidates in walk order."""
    triples, group_offsets = [], [0]
    for g in range(lo, hi):
        A, C = group_values(grouped, g)
        merged = sorted([(h, 1, x) for h, x in zip(pair_hash.h1.values(A).tolist(), A.tolist())]
                        + [(h, 0, y) for h, y in zip(pair_hash.h2.values(C).tolist(), C.tolist())])
        rows = [(h, x) for h, side, x in merged if side]
        before = 0  # rows sorted before the current column
        for h, side, y in merged:
            if side:
                before += 1
                continue
            for i in range(len(rows)):
                hx, x = rows[(before + i) % len(rows)]
                hv = (hx - h) & MASK64
                if hv < p:
                    triples.append((x, y, hv))
        group_offsets.append(len(triples))
    return triples, group_offsets


def tie_prone_hashes(rng, trial):
    """A drawn pair hash; the identity, whose hashes in a chunk share their
    top bits, so the chunk's sort keys tie; and hashes with only their top
    1 to 6 bits set, which tie outright."""
    bits = rng.randint(1, 6)

    def top():
        return PairwiseHash(rng.randrange(1, 1 << bits) << (64 - bits),
                            rng.randrange(1 << bits) << (64 - bits))

    return [draw_pair_hash(Pcg64Stream(6000 + trial)),
            PairHash(PairwiseHash(1, 0), PairwiseHash(1, 0)), PairHash(top(), top())]


def assert_chunks_match_the_reference(grouped, h, p):
    """The whole instance as one chunk lists what ``reference_chunk`` lists,
    and each group sorted alone offers what it offers inside the chunk."""
    whole = sort_group(grouped, 0, len(grouped), h, p)
    assert listing(whole) == reference_chunk(grouped, 0, len(grouped), h, p)
    assert_columns_start_at_minima(whole, grouped, 0, h)
    for g in range(len(grouped)):
        alone, together = FixedThreshold(p), FixedThreshold(p)
        scan_group(sort_group(grouped, g, g + 1, h, p), 0, alone)
        scan_group(whole, g, together)
        assert alone.pairs == together.pairs
    return whole


def test_a_chunk_offers_what_its_groups_offer_one_by_one():
    rng = random.Random(19)
    for trial in range(40):
        grouped = group_and_prune(*random_instance(rng, max_each=300, b_range=rng.choice([8, 60])))
        if not len(grouped):
            continue
        for h in tie_prone_hashes(rng, trial):
            p = rng.choice([0, 1 << 60, 1 << 62, 1 << 63, GRID])
            assert_chunks_match_the_reference(grouped, h, p)


def test_candidates_match_the_reference_at_every_threshold():
    rng = random.Random(21)
    for trial in range(12):
        # Half the instances give every join value one left value, so every
        # group has a single row.
        a_range = rng.choice([30, 2**31])
        r1, r2 = random_instance(rng, max_each=120, a_range=a_range, b_range=rng.choice([4, 30]))
        if trial % 2:
            r1 = Relation.from_pairs(Side.LEFT, {(b * 7 + 1, b) for _, b in r1.tuples})
        grouped = group_and_prune(r1, r2)
        if not len(grouped):
            continue
        if trial % 2:
            assert (np.diff(grouped.left_offsets) == 1).all()
        for h in tie_prone_hashes(rng, 100 + trial):
            for p in (0, 1, 1 << 60, 1 << 63, GRID - 1, GRID):
                assert_chunks_match_the_reference(grouped, h, p)


def test_windows_wrap_past_two_to_the_64():
    # h1(x) = x - 100 and h2 = -50 (mod 2**64), so every pair hashes to
    # x - 50 and a window [h2, h2 + p) with p > 50 wraps past 2**64: rows
    # with x < 100 lie above h2 and rows with x >= 100 below it.
    h = PairHash(PairwiseHash(1, GRID - 100), PairwiseHash(0, GRID - 50))
    A = [10, 49, 50, 60, 99, 120, 149, 150, 200]
    for p, want in ((1, [50]), (100, [50, 60, 99, 120, 149]),
                    # x = 49 hashes to GRID - 1 itself.
                    (GRID - 1, [50, 60, 99, 120, 149, 150, 200, 10])):
        triples, _ = listing(sort_one(A, [7], h, p))
        assert triples == [(x, 7, (x - 50) & MASK64) for x in want], p
        assert triples == reference_chunk(single_group(A, [7]), 0, 1, h, p)[0]


def test_groups_that_keep_no_column_get_no_rows():
    rng = random.Random(20)
    for trial in range(30):
        grouped = group_and_prune(*random_instance(rng, max_each=400, b_range=30, a_range=10**6,
                                                   c_range=10**6))
        if len(grouped) < 2:
            continue
        h = draw_pair_hash(Pcg64Stream(7000 + trial))
        # Each group's smallest pair hash; a threshold between two of them
        # keeps the columns of some groups and none of the others.
        sides = [group_values(grouped, g) for g in range(len(grouped))]
        lowest = sorted(int((h.h1.values(A)[:, None] - h.h2.values(C)[None, :]).min())
                        for A, C in sides)
        if lowest[0] == lowest[-1]:
            continue
        p = rng.choice([x for x in lowest if x > lowest[0]])
        chunk = assert_chunks_match_the_reference(grouped, h, p)
        idle = [g for g in range(len(grouped)) if chunk.offsets[g] == chunk.offsets[g + 1]]
        assert 0 < len(idle) < len(grouped)
        for g, (A, C) in enumerate(sides):
            lowest_here = int((h.h1.values(A)[:, None] - h.h2.values(C)[None, :]).min())
            assert (g in idle) == (lowest_here >= p)


def tiny_groups_instance(rng, groups, big=None):
    """``groups`` groups of 1 to 3 left and 1 to 3 right values, scattered;
    with ``big``, one more group of ``big`` left values and 3 right ones."""
    sizes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(groups)]
    if big:
        sizes.append((big, 3))
    t1 = {(rng.randrange(2**32), b) for b, (na, _) in enumerate(sizes) for _ in range(na)}
    t2 = {(b, rng.randrange(2**32)) for b, (_, nc) in enumerate(sizes) for _ in range(nc)}
    return group_and_prune(Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2))


def assert_the_pass_keeps_every_candidate(grouped, h, p, monkeypatch):
    """The instance pruned at ``p`` and at a threshold above it, then
    sorted as one chunk at ``p``, lists what ``reference_chunk`` lists, and
    at least the tuples of a pair below ``p`` survive.  Where the pass
    prunes, it runs over many slices of the instance with ``CHUNK_TUPLES``
    at 1 and 16, and must keep the same tuples.  Returns what ``prune``
    returns at ``p``."""
    want = reference_chunk(grouped, 0, len(grouped), h, p)
    sources = []
    for ceiling in (p, min(GRID, 2 * p + 1)):
        source = enumerator.prune(grouped, h, ceiling)
        assert len(source) == len(grouped)
        assert ((np.diff(source.left_offsets) > 0) == (np.diff(source.right_offsets) > 0)).all()
        assert listing(sort_group(source, 0, len(source), h, p)) == want, (p, ceiling)
        for tuples in (1, 16) if source is not grouped else ():
            with monkeypatch.context() as patch:
                patch.setattr(enumerator, "CHUNK_TUPLES", tuples)
                sliced = enumerator.prune(grouped, h, ceiling)
            for name in ("left_offsets", "left_values", "right_offsets", "right_values"):
                assert (getattr(sliced, name) == getattr(source, name)).all(), (p, ceiling, tuples)
        sources.append(source)
    kept = [source.tuple_count for source in sources]
    assert reachable_tuples(grouped, h, p) <= kept[0] <= kept[1] <= grouped.tuple_count
    return sources[0]


def test_the_occupancy_pass_keeps_every_candidate_at_every_threshold(monkeypatch):
    # Thresholds from one grid unit to the whole range, so cells run from
    # exactly p wide to one per group.  Many tiny groups make the table's
    # cap, not p, set the cells; the large group gets cells p wide.
    rng = random.Random(23)
    instances = [tiny_groups_instance(rng, 60), tiny_groups_instance(rng, 30, big=50),
                 tiny_groups_instance(rng, 0, big=80)]
    for trial, grouped in enumerate(instances):
        pruned = 0
        for h in tie_prone_hashes(rng, 200 + trial):
            for s in range(64):
                for p in (1 << s, (1 << s) + 1):
                    source = assert_the_pass_keeps_every_candidate(grouped, h, p, monkeypatch)
                    pruned += source.tuple_count < grouped.tuple_count
                    assert (source.tuple_count < grouped.tuple_count) <= (source is not grouped)
        assert pruned > 0, trial


def test_the_occupancy_pass_follows_windows_past_two_to_the_64(monkeypatch):
    # Every pair hashes to x - 50 (see the test above), so each column's
    # window wraps past 2**64 into its group's first cell.
    h = PairHash(PairwiseHash(1, GRID - 100), PairwiseHash(0, GRID - 50))
    rng = random.Random(24)
    t1 = {(rng.randrange(200), b) for b in range(40) for _ in range(3)}
    grouped = group_and_prune(Relation.from_pairs(Side.LEFT, t1),
                              Relation.from_pairs(Side.RIGHT, [(b, 7) for b in range(40)]))
    for p in (1, 50, 51, 100, 1 << 20, 1 << 40):
        assert assert_the_pass_keeps_every_candidate(grouped, h, p, monkeypatch) is not grouped


def zipf_instance(rng, groups=300, cap=200):
    """Groups whose left sides have Zipf-distributed sizes (exponent 1.5,
    at most ``cap``) and whose right sides hold 1 to 4 values."""
    t1, t2 = set(), set()
    for b in range(groups):
        size = min(cap, int(rng.paretovariate(0.5)))
        t1 |= {(rng.randrange(2**32), b) for _ in range(size)}
        t2 |= {(b, rng.randrange(2**32)) for _ in range(rng.randint(1, 4))}
    return group_and_prune(Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2))


def test_the_occupancy_pass_prunes_most_of_a_zipf_instance(monkeypatch):
    grouped = zipf_instance(random.Random(25))
    p = GRID >> 10
    for trial in range(3):
        h = draw_pair_hash(Pcg64Stream(6500 + trial))
        source = assert_the_pass_keeps_every_candidate(grouped, h, p, monkeypatch)
        assert source is not grouped
        assert source.tuple_count < 0.2 * grouped.tuple_count, (source.tuple_count,
                                                                grouped.tuple_count)


def reference_prunes(grouped, p):
    """The two-term gate that once stood apart from ``prune``: cells at
    least p wide and at most 16 per tuple on average, at least 4 per
    tuple."""
    groups, tuples = len(grouped), grouped.tuple_count
    if not groups:
        return False
    c = min(64 - (p - 1).bit_length(), (16 * tuples // groups).bit_length() - 1)
    return groups << c >= 4 * tuples


def test_prune_returns_its_input_unless_the_groups_hold_4_cells_a_tuple():
    # The pass runs iff the groups, cut into the most cells at least p
    # wide, hold at least 4 cells per tuple; otherwise prune builds nothing.
    rng = random.Random(28)
    instances = [group_and_prune(*random_instance(rng, max_each=300, a_range=2**32, c_range=2**32,
                                                  b_range=rng.choice([2, 12, 60])))
                 for _ in range(12)]
    instances += [tiny_groups_instance(rng, 40), tiny_groups_instance(rng, 20, big=60),
                  zipf_instance(rng, groups=100)]
    outcomes = set()
    for trial, grouped in enumerate(g for g in instances if len(g)):
        h = draw_pair_hash(Pcg64Stream(6700 + trial))
        for p in sorted({1, GRID} | {t for s in range(64) for t in (1 << s, (1 << s) + 1)}):
            skipped = enumerator.prune(grouped, h, p) is grouped
            cap = 64 - (p - 1).bit_length()
            assert skipped == (len(grouped) << cap < 4 * grouped.tuple_count), (trial, p)
            assert skipped != reference_prunes(grouped, p), (trial, p)
            outcomes.add(skipped)
    assert outcomes == {False, True}


def traced_sort_group(grouped, h, p):
    """What a pass at ``p`` sorts of the whole instance, ``sort_group``
    over it, and the traced peak of pruning and sorting it."""
    tracemalloc.start()
    try:
        source = enumerator.prune(grouped, h, p)
        chunk = sort_group(source, 0, len(source), h, p)
        return source, chunk, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_sort_group_call_holds_its_tuples_and_candidates():
    # A candidate takes 16 B (pair and hash), twice over while the chunk
    # gathers them; the tuples take their hashes, cells and sort keys.
    rng = random.Random(26)
    A, C = rng.sample(range(2**32), 40), rng.sample(range(2**32), 40)
    dense = group_and_prune(Relation.from_pairs(Side.LEFT, [(a, b) for b in range(100) for a in A]),
                            Relation.from_pairs(Side.RIGHT, [(b, c) for b in range(100) for c in C]))
    sparse = zipf_instance(rng, groups=2000, cap=60)
    h = draw_pair_hash(Pcg64Stream(6600))
    for grouped, p, pruned in ((dense, GRID, False), (dense, GRID // 3, False),
                               (sparse, GRID >> 10, True), (sparse, GRID >> 8, True)):
        source, chunk, peak = traced_sort_group(grouped, h, p)
        assert (source is not grouped) == pruned
        assert (source.tuple_count < grouped.tuple_count) == pruned
        bound = 96 * grouped.tuple_count + 2 * 16 * len(chunk.hashes)
        assert peak <= bound, (p, peak, bound)
    # An input of more than four slices: the occupancy pass holds one
    # slice's temporaries at a time, and the sort those of the survivors.
    slice_tuples = enumerator.CHUNK_TUPLES
    sliced = zipf_instance(rng, groups=9000, cap=60)
    assert sliced.tuple_count > 4 * slice_tuples
    for p in (GRID >> 10, GRID >> 8):
        source, chunk, peak = traced_sort_group(sliced, h, p)
        assert source is not sliced
        bound = 96 * slice_tuples + 96 * source.tuple_count + 2 * 16 * len(chunk.hashes)
        assert peak <= bound, (p, peak, bound)


def recorded_passes(monkeypatch):
    """A list that collects what each pass of ``run_once`` chunks, its
    threshold and its chunk bounds, from here on."""
    passes = []

    def recording(source, p):
        bounds = chunk_bounds(source, p)
        passes.append((source, p, bounds))
        return bounds

    monkeypatch.setattr(estimator, "chunk_bounds", recording)
    return passes


def test_chunks_of_a_pass_that_prunes_hold_few_candidates_unless_one_group(monkeypatch):
    # 20,000 tiny groups make the passes prune; between them, 40 groups
    # join the same 400 left values to the same 400 right values, so a
    # widening start-at-one pass lists thousands of candidates per group.
    # Cut by tuples alone, 2**15-tuple chunks of those groups would list
    # more than four times the budget.
    rng = random.Random(27)
    A, C = rng.sample(range(2**32), 400), rng.sample(range(2**32), 400)
    t1 = [(rng.randrange(2**32), b) for b in range(20_000)]
    t2 = [(b, rng.randrange(2**32)) for b in range(20_000)]
    t1 += [(a, b) for b in range(10_000, 10_040) for a in A]
    t2 += [(b, c) for b in range(10_000, 10_040) for c in C]
    grouped = group_and_prune(Relation.from_pairs(Side.LEFT, t1),
                              Relation.from_pairs(Side.RIGHT, t2))
    passes = recorded_passes(monkeypatch)
    cfg = EstimatorConfig(k=4096, threshold_mode=MODE_START_AT_ONE, seed=3)
    tracemalloc.start()
    try:
        est = run_once(grouped, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.work.passes == len(passes) == 2
    h = draw_pair_hash(run_rng(cfg.seed, (0,)))
    budget = enumerator.CHUNK_TUPLES
    by_tuples = chunk_starts(grouped.left_offsets + grouped.right_offsets, budget)

    def candidates(source, bounds, p):
        """Each chunk's candidates below p and its group count."""
        return [(len(sort_group(source, lo, hi, h, p).hashes), hi - lo)
                for lo, hi in zip(bounds, bounds[1:])]

    most = 0
    for source, p, bounds in passes:
        assert source is not grouped and source.tuple_count < grouped.tuple_count
        listed = candidates(source, bounds, p)
        assert all(n <= 2 * budget for n, groups in listed if groups > 1), (p, listed)
        most = max(most, max(n for n, _ in listed))
    assert max(n for n, _ in candidates(grouped, by_tuples, passes[-1][1])) > 4 * budget
    # The input, the sketch and one chunk's candidates, twice over while
    # the chunk gathers them.
    bound = 64 * grouped.tuple_count + 64 * cfg.k + 2 * 16 * most
    assert peak <= bound, (peak, bound)


def same_pairs_instance():
    """100 groups that join the same 40 left values to the same 40 right
    values: 160k pair occurrences of 1,600 distinct pairs."""
    rng = random.Random(22)
    A, C = rng.sample(range(2**31, 2**32), 40), rng.sample(range(2**31, 2**32), 40)
    return group_and_prune(
        Relation.from_pairs(Side.LEFT, [(a, b) for b in range(100) for a in A]),
        Relation.from_pairs(Side.RIGHT, [(b, c) for b in range(100) for c in C]))


def test_a_run_holds_one_chunk_of_candidates_at_a_time():
    # With k above 1,600, a start-at-one run widens to threshold 1 and
    # offers every occurrence.
    grouped = same_pairs_instance()
    cfg = EstimatorConfig(k=2048, threshold_mode=MODE_START_AT_ONE, seed=1)
    bounds = chunk_bounds(grouped)
    # A chunk lists at most its groups' products in one pass.
    chunk_products = np.add.reduceat(grouped.products, bounds[:-1])
    tracemalloc.start()
    try:
        est = run_once(grouped, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.count == 1600 and est.work.emitted_pairs == grouped.total_product >= 100_000
    # A candidate takes 24 B in numpy, twice over while the chunk gathers
    # its arrays; as three Python ints in lists it took about 150 B.
    bound = 256 * grouped.tuple_count + 64 * cfg.k + 2 * 24 * int(chunk_products.max())
    assert peak <= bound, (peak, bound)


def test_chunks_of_every_pass_hold_few_candidates_unless_one_group(monkeypatch):
    # A chunk weighs its tuples plus four times its expected candidates
    # against CHUNK_TUPLES in every pass, also in the widening passes that
    # do not prune, up to the last one at threshold 1.
    grouped = same_pairs_instance()
    passes = recorded_passes(monkeypatch)
    run_once(grouped, EstimatorConfig(k=2048, threshold_mode=MODE_START_AT_ONE, seed=1))
    assert passes[-1][1] == GRID
    for source, p, bounds in passes:
        expected = np.add.reduceat(np.ceil(source.products * (p / GRID)), bounds[:-1])
        shared = np.diff(bounds) > 1
        assert (expected[shared] <= enumerator.CHUNK_TUPLES // 4).all(), (p, expected)
    assert shared.any()


def test_a_pass_whose_tuples_all_survive_holds_one_chunk_at_a_time():
    # 6,000 groups join 30 values to the same 30 values, and h1 = h2, so
    # every column meets its own row at hash 0: the occupancy pass runs and
    # keeps all 360k tuples.
    groups, side = 6000, 30
    values = np.arange(groups * side, dtype=np.uint64) * np.uint64(0x9E3779B1)
    values &= np.uint64(MASK64 >> 32)
    b = np.repeat(np.arange(groups, dtype=np.uint64), side)
    grouped = group_and_prune(Relation(Side.LEFT, sorted_distinct(pack(values, b))),
                              Relation(Side.RIGHT, sorted_distinct(pack(b, values))))
    one = PairwiseHash(0x9E3779B97F4A7C15, 12345)
    h, p = PairHash(one, one), GRID >> 20
    tracemalloc.start()
    try:
        source = enumerator.prune(grouped, h, p)
        bounds = chunk_bounds(source, p)
        listed = sum(len(sort_group(source, lo, hi, h, p).hashes)
                     for lo, hi in zip(bounds, bounds[1:]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert source is not grouped
    assert source.tuple_count == grouped.tuple_count and listed == groups * side
    # The survivors, 8 B a tuple and twice that while they are joined, and
    # the temporaries of one slice of the occupancy pass or of one chunk's
    # sort and gather, at most CHUNK_TUPLES tuples and expected candidates.
    bound = 16 * grouped.tuple_count + 96 * enumerator.CHUNK_TUPLES
    assert peak <= bound, (peak, bound)
