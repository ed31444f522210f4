import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from joinsketch.hashing import GRID
from joinsketch.kmin import KMinState, combine


def raw(fraction: float) -> int:
    return int(fraction * GRID)


def entry(hv: int, a: int, c: int) -> tuple[int, int]:
    return hv, a << 32 | c


def columns(entries) -> tuple[np.ndarray, np.ndarray]:
    hashes = np.array([h for h, _ in entries], dtype=np.uint64)
    pairs = np.array([q for _, q in entries], dtype=np.uint64)
    return hashes, pairs


def rows(hashes, pairs) -> list[tuple[int, int]]:
    return list(zip(hashes.tolist(), pairs.tolist()))


def held(state) -> list[tuple[int, int]]:
    return rows(state.hashes, state.pairs)


def combine_entries(sketch, batch, k, current_p):
    v, hashes, pairs, distinct = combine(*columns(sketch), *columns(batch), k, current_p)
    return v, rows(hashes, pairs), distinct


def fresh(k, p0=GRID):
    return KMinState(k, p0)


def test_duplicate_offer_is_a_no_op():
    state = fresh(4)
    state.offer(1 << 32 | 2, raw(0.5))
    state.offer(1 << 32 | 2, raw(0.5))
    outcome = state.finalize()
    assert held(state) == [entry(raw(0.5), 1, 2)]
    assert state.accepted == 1
    assert not outcome.filled and outcome.count == 1


def test_buffer_fill_triggers_merge_and_threshold_drop():
    state = fresh(2)
    state.offer(1 << 32 | 1, raw(0.1))
    assert state.p == GRID
    state.offer(2 << 32 | 2, raw(0.2))
    assert state.combines == 1
    assert state.p == raw(0.2)
    assert state.hashes.tolist() == [raw(0.1), raw(0.2)]


def test_rank_two_selection_hand_trace():
    state = fresh(2)
    state.offer(1 << 32 | 1, raw(0.1))
    state.offer(2 << 32 | 2, raw(0.2))  # merge: p = 0.2
    state.offer(3 << 32 | 3, raw(0.15))
    state.offer(4 << 32 | 4, raw(0.05))  # merge over {0.1, 0.2, 0.15, 0.05}
    assert state.p == raw(0.1)
    assert state.hashes.tolist() == [raw(0.05), raw(0.1)]


def test_combine_exactly_k_entries():
    entries = [entry(raw(0.3), 1, 1), entry(raw(0.1), 2, 2), entry(raw(0.2), 3, 3)]
    v, kept, _ = combine_entries([], entries, 3, GRID)
    assert v == raw(0.3)
    assert sorted(kept) == sorted(entries)


def test_combine_undersupplied_keeps_threshold():
    v, kept, _ = combine_entries([entry(raw(0.4), 1, 1)], [entry(raw(0.6), 2, 2)], 5, raw(0.9))
    assert v == raw(0.9)
    assert len(kept) == 2


def test_combine_selects_k_smallest():
    sketch = [entry(raw(f), i, i) for i, f in enumerate([0.1, 0.2, 0.3, 0.4])]
    buffer = [entry(raw(0.05), 9, 9)]
    v, kept, _ = combine_entries(sketch, buffer, 4, raw(0.4))
    assert v == raw(0.3)
    assert [h for h, _ in kept] == [raw(0.05), raw(0.1), raw(0.2), raw(0.3)]


def test_combine_breaks_hash_ties_by_pair():
    entries = [entry(raw(0.1), 5, 5), entry(raw(0.2), 3, 1), entry(raw(0.2), 2, 9),
               entry(raw(0.2), 2, 4)]
    v, kept, _ = combine_entries([], entries, 2, GRID)
    assert v == raw(0.2)
    # The lexicographically smallest 0.2 entry survives: (0.2, 2, 4).
    assert kept == [entry(raw(0.1), 5, 5), entry(raw(0.2), 2, 4)]


def test_finalize_undersupplied():
    state = fresh(4)
    state.offer(1 << 32 | 1, raw(0.3))
    state.offer(2 << 32 | 2, raw(0.6))
    outcome = state.finalize()
    assert not outcome.filled
    assert outcome.count == 2


def test_finalize_filled_rank():
    state = fresh(2)
    for i, f in enumerate([0.5, 0.3, 0.9]):
        state.offer(i << 32 | i, raw(f))
    outcome = state.finalize()
    assert outcome.filled
    assert outcome.v == raw(0.5)


def test_finalize_empty():
    outcome = fresh(4).finalize()
    assert not outcome.filled
    assert outcome.count == 0


def test_live_threshold_matches_full_sort_oracle():
    # Offers filtered by the live, self-tightening threshold must end with
    # the same k-th smallest value as a full sort of everything below p0.
    rng = random.Random(8)
    for trial in range(1000):
        k = rng.randint(1, 12)
        n = rng.randint(0, 80)
        hashes = [rng.randrange(GRID) for _ in range(n)]
        state = KMinState(k, GRID)
        for i, hv in enumerate(hashes):
            if hv < state.p:
                state.offer(i << 32 | i, hv)
        outcome = state.finalize()
        if len(set(hashes)) >= k:
            assert outcome.filled
            assert outcome.v == sorted(hashes)[k - 1]
        else:
            assert not outcome.filled


def test_lagging_threshold_schedule_matches_full_sort_oracle():
    # A caller may filter offers by its own non-increasing schedule that
    # lags behind the sketch's live threshold; the final rank must still be
    # the k-th smallest of everything below the schedule's start.
    rng = random.Random(9)
    for trial in range(1000):
        k = rng.randint(1, 10)
        n = rng.randint(0, 60)
        p0 = rng.randrange(1, GRID + 1)
        steps = sorted((rng.randrange(p0) for _ in range(3)), reverse=True)
        schedule = [p0] + steps
        hashes = [rng.randrange(GRID) for _ in range(n)]
        state = KMinState(k, p0)
        offered = []
        for i, hv in enumerate(hashes):
            caller_p = schedule[min(i * len(schedule) // max(n, 1), len(schedule) - 1)]
            if hv < caller_p:
                state.offer(i << 32 | i, hv)
                offered.append(hv)
        outcome = state.finalize()
        below_start = sorted(h for h in offered)
        if len(below_start) >= k:
            assert outcome.filled
            assert outcome.v == below_start[k - 1]
        else:
            assert not outcome.filled
            assert outcome.count == len(below_start)


def test_merge_count_is_amortized():
    rng = random.Random(5)
    for k in (1, 3, 8):
        state = fresh(k)
        offers = 0
        for i in range(200):
            if state.p == 0:
                break
            state.offer(i << 32 | i, rng.randrange(state.p))
            offers += 1
        state.finalize()
        assert state.combines <= math.ceil(offers / k) + 1


def test_membership_stays_bounded():
    rng = random.Random(6)
    k = 8
    state = fresh(k)
    for i in range(500):
        hv = rng.randrange(GRID)
        if hv < state.p:
            state.offer(i % 40 << 32 | i % 40, hv)
        assert state.hashes.size + len(state.new_hashes) <= 2 * k - 1
        assert len(set(held(state))) == state.hashes.size


def test_reoffered_evicted_pair_leaves_threshold_unchanged():
    state = fresh(2)
    state.offer(1 << 32 | 1, raw(0.8))
    state.offer(2 << 32 | 2, raw(0.9))  # merge: p = 0.9
    state.offer(3 << 32 | 3, raw(0.1))
    state.offer(4 << 32 | 4, raw(0.2))  # merge: p = 0.2; pairs (1,1) and (2,2) evicted
    assert state.p == raw(0.2)
    state.offer(2 << 32 | 2, raw(0.9))
    state.offer(1 << 32 | 1, raw(0.8))  # merge: both are cut again
    assert state.p == raw(0.2)
    assert state.finalize().v == raw(0.2)
    assert held(state) == [entry(raw(0.1), 3, 3), entry(raw(0.2), 4, 4)]


def test_combine_keeps_sorted_prefix():
    rng = random.Random(77)
    for trial in range(300):
        n = rng.randint(1, 60)
        entries = [entry(rng.randrange(30), rng.randrange(4), rng.randrange(4))
                   for _ in range(n)]
        split = rng.randint(0, n)
        # The sketch half is sorted and duplicate-free; the buffer may repeat
        # its own entries and the sketch's.
        sketch = sorted(set(entries[:split]))
        buffer = entries[split:] + rng.sample(sketch, rng.randint(0, len(sketch)))
        distinct = sorted(set(entries))
        k = rng.randint(1, len(distinct) + 1)
        v, kept, count = combine_entries(sketch, buffer, k, GRID)
        assert count == len(distinct)
        assert kept == distinct[:k]
        assert v == (distinct[k - 1][0] if k <= len(distinct) else GRID)


ids = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1),
                st.integers(2**31, 2**32 - 1))
tiny_hashes = st.integers(0, 3)
wide_hashes = st.one_of(st.integers(0, GRID - 1), st.integers(2**63, GRID - 1),
                        st.just(GRID - 1))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 12), p0=st.one_of(st.just(GRID), st.integers(1, GRID - 1)),
       offers=st.one_of(st.lists(st.tuples(ids, ids, tiny_hashes), max_size=80),
                        st.lists(st.tuples(ids, ids, wide_hashes), max_size=80)))
def test_sketch_matches_sorted_distinct_reference(k, p0, offers):
    # Reference: after every merge the sketch is the first k of the sorted
    # distinct (hash, pair) tuples offered so far, p is the k-th hash once
    # there are k of them, and accepted counts entries new to the sketch.
    state = KMinState(k, p0)
    seen: set[tuple[int, int]] = set()
    kept: list[tuple[int, int]] = []
    accepted = 0
    p = p0
    for a, c, hv in offers:
        seen.add(entry(hv, a, c))
        state.offer(a << 32 | c, hv)
        if not state.new_hashes:  # this offer merged
            accepted += len(seen) - len(kept)
            kept = sorted(seen)[:k]
            seen = set(kept)
            p = kept[-1][0] if len(kept) == k else p
            assert held(state) == kept
            assert state.p == p and type(state.p) is int
    outcome = state.finalize()
    accepted += len(seen) - len(kept)
    kept = sorted(seen)[:k]
    assert held(state) == kept
    assert state.accepted == accepted
    if len(kept) == k:
        assert outcome.filled and outcome.v == kept[-1][0] and type(outcome.v) is int
    else:
        assert not outcome.filled and outcome.count == len(kept)
        assert type(outcome.count) is int and state.p == p
