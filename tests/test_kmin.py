import math
import random

import pytest

from joinsketch.hashing import GRID
from joinsketch.kmin import KMinState, combine


def raw(fraction: float) -> int:
    return int(fraction * GRID)


def entry(hv: int, a: int, c: int) -> int:
    return hv << 64 | a << 32 | c


def sorted_hashes(entries) -> list[int]:
    return sorted(e >> 64 for e in entries)


def fresh(k, p0=GRID, **kwargs):
    return KMinState(k, p0, **kwargs)


def test_duplicate_offer_is_a_no_op():
    state = fresh(4)
    assert state.offer(1, 2, raw(0.5))
    snapshot = (list(state.buffer), set(state.members), state.p, state.accepted)
    assert not state.offer(1, 2, raw(0.5))
    assert (list(state.buffer), set(state.members), state.p, state.accepted) == snapshot


def test_buffer_fill_triggers_merge_and_threshold_drop():
    state = fresh(2)
    state.offer(1, 1, raw(0.1))
    assert state.p == GRID
    state.offer(2, 2, raw(0.2))
    assert state.combines == 1
    assert state.p == raw(0.2)
    assert sorted_hashes(state.sketch) == [raw(0.1), raw(0.2)]


def test_rank_two_selection_hand_trace():
    state = fresh(2)
    state.offer(1, 1, raw(0.1))
    state.offer(2, 2, raw(0.2))  # merge: p = 0.2
    state.offer(3, 3, raw(0.15))
    state.offer(4, 4, raw(0.05))  # merge over {0.1, 0.2, 0.15, 0.05}
    assert state.p == raw(0.1)
    assert sorted_hashes(state.sketch) == [raw(0.05), raw(0.1)]


def test_combine_exactly_k_entries():
    entries = [entry(raw(0.3), 1, 1), entry(raw(0.1), 2, 2), entry(raw(0.2), 3, 3)]
    v, kept = combine([], list(entries), 3, GRID)
    assert v == raw(0.3)
    assert sorted(kept) == sorted(entries)


def test_combine_undersupplied_keeps_threshold():
    v, kept = combine([entry(raw(0.4), 1, 1)], [entry(raw(0.6), 2, 2)], 5, raw(0.9))
    assert v == raw(0.9)
    assert len(kept) == 2


def test_combine_selects_k_smallest():
    sketch = [entry(raw(f), i, i) for i, f in enumerate([0.1, 0.2, 0.3, 0.4])]
    buffer = [entry(raw(0.05), 9, 9)]
    v, kept = combine(sketch, buffer, 4, raw(0.4))
    assert v == raw(0.3)
    assert sorted_hashes(kept) == [raw(0.05), raw(0.1), raw(0.2), raw(0.3)]


def test_combine_breaks_hash_ties_by_pair():
    entries = [entry(raw(0.1), 5, 5), entry(raw(0.2), 3, 1), entry(raw(0.2), 2, 9),
               entry(raw(0.2), 2, 4)]
    v, kept = combine([], list(entries), 2, GRID)
    assert v == raw(0.2)
    # The lexicographically smallest 0.2 entry survives: (0.2, 2, 4).
    assert sorted(kept) == [entry(raw(0.1), 5, 5), entry(raw(0.2), 2, 4)]


def test_finalize_undersupplied():
    state = fresh(4)
    state.offer(1, 1, raw(0.3))
    state.offer(2, 2, raw(0.6))
    outcome = state.finalize()
    assert not outcome.filled
    assert outcome.count == 2


def test_finalize_filled_rank():
    state = fresh(2)
    for i, f in enumerate([0.5, 0.3, 0.9]):
        state.offer(i, i, raw(f))
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
                state.offer(i, i, hv)
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
                state.offer(i, i, hv)
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
        accepted = 0
        for i in range(200):
            if state.p == 0:
                break
            accepted += state.offer(i, i, rng.randrange(state.p))
        state.finalize()
        assert state.combines <= math.ceil(accepted / k) + 1


def test_membership_stays_bounded():
    rng = random.Random(6)
    k = 8
    state = fresh(k)
    for i in range(500):
        hv = rng.randrange(GRID)
        if hv < state.p:
            state.offer(i, i, hv)
        assert len(state.members) <= 2 * k - 1
        assert len(state.members) == len(state.sketch) + len(state.buffer)


def test_evicted_pair_cannot_return():
    state = fresh(2, track_evictions=True)
    state.offer(1, 1, raw(0.8))
    state.offer(2, 2, raw(0.9))  # merge: p = 0.9
    state.offer(3, 3, raw(0.1))
    state.offer(4, 4, raw(0.2))  # merge: p = 0.2; pairs (1,1) and (2,2) evicted
    assert state.p == raw(0.2)
    with pytest.raises(AssertionError):
        state.offer(2, 2, raw(0.05))


def test_combine_keeps_sorted_prefix():
    rng = random.Random(77)
    for trial in range(300):
        n = rng.randint(1, 60)
        entries = [entry(rng.randrange(1000), rng.randrange(50), rng.randrange(50))
                   for _ in range(n)]
        entries = list(dict.fromkeys(entries))
        k = rng.randint(1, len(entries))
        split = rng.randint(0, len(entries))
        v, kept = combine(sorted(entries[:split]), entries[split:], k, GRID)
        assert kept == sorted(entries)[:k]
        assert v == sorted(entries)[k - 1] >> 64
