import random
import tracemalloc

import numpy as np
import pytest

from joinsketch import (
    Relation,
    Side,
    SizeCapError,
    exact_size,
    group_and_prune,
)
from joinsketch import oracle
from joinsketch.hashing import draw_pair_hash, spawn_rng
from joinsketch.kmin import SketchOutcome
from joinsketch.oracle import exact_kth_hash, exact_size_bitsets
from joinsketch.relation import unpack

from conftest import (a_run_pairs, brute_force_pairs, disjoint_instance, greedy_chunks,
                      random_instance)
from reference_hashing import distinct_pair_keys, pair_value


def grouped_from(t1, t2):
    return group_and_prune(
        Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2)
    )


def pairs_of(grouped):
    a, c = unpack(distinct_pair_keys(grouped))
    return set(zip(a.tolist(), c.tolist()))


def test_hand_enumerated_size():
    g = grouped_from({(1, 1), (2, 1)}, {(1, 5)})
    assert exact_size(g).z == 2


def test_identity_product():
    d = 25
    g = grouped_from({(i, i) for i in range(d)}, {(i, i) for i in range(d)})
    assert exact_size(g).z == d


def test_overlapping_groups_union_semantics():
    g = grouped_from({(1, 1), (1, 2)}, {(1, 5), (2, 5), (2, 6)})
    assert exact_size(g).z == 2
    assert pairs_of(g) == {(1, 5), (1, 6)}


def test_empty_input():
    g = grouped_from({(1, 1)}, {(9, 5)})
    assert exact_size(g).z == 0
    assert exact_size_bitsets(g) == 0


def test_two_oracle_paths_agree():
    rng = random.Random(51)
    for _ in range(200):
        r1, r2 = random_instance(rng, max_each=120)
        g = group_and_prune(r1, r2)
        assert exact_size(g).z == exact_size_bitsets(g)


def test_cap_refuses_large_materialization():
    # Every left value lies in both groups, so all 10,000 pairs expand.
    g = grouped_from({(i, b) for i in range(100) for b in (0, 1)},
                     {(b, 100 * b + j) for b in (0, 1) for j in range(50)})
    with pytest.raises(SizeCapError):
        exact_size(g, cap=9_999)
    with pytest.raises(SizeCapError):
        exact_kth_hash(g, draw_pair_hash(spawn_rng(1)), 5, cap=9_999)
    assert exact_size(g, cap=10_000) == oracle.ExactResult(z=10_000, expanded_pairs=10_000)


def test_cap_bounds_only_the_expanded_pairs():
    # One group of 4000 x 4000: its 16M pairs are counted, never expanded.
    g = grouped_from({(i, 0) for i in range(4000)}, {(0, j) for j in range(4000)})
    assert g.total_product > oracle.DEFAULT_CAP
    assert exact_size(g) == oracle.ExactResult(z=16_000_000, expanded_pairs=0)
    assert exact_size(g, cap=0).z == 16_000_000
    with pytest.raises(SizeCapError):
        exact_size_bitsets(g)
    # The paths that expand every pair still bound the whole product.
    with pytest.raises(SizeCapError, match="16000000 candidate pairs"):
        exact_kth_hash(g, draw_pair_hash(spawn_rng(1)), 5)


def test_kth_undersupplied_carries_count():
    g = grouped_from({(1, 1), (2, 1)}, {(1, 5)})
    out = exact_kth_hash(g, draw_pair_hash(spawn_rng(2)), 5)
    assert not out.filled and out.count == 2


def test_k_equals_one_is_global_minimum():
    rng = random.Random(52)
    r1, r2 = random_instance(rng, max_each=100)
    g = group_and_prune(r1, r2)
    h = draw_pair_hash(spawn_rng(3))
    pairs = pairs_of(g)
    if not pairs:
        pytest.skip("degenerate draw")
    out = exact_kth_hash(g, h, 1)
    assert out.filled
    assert out.v == min(pair_value(h, a, c) for a, c in pairs)


def test_kth_is_monotone_in_k():
    rng = random.Random(53)
    r1, r2 = random_instance(rng, max_each=150)
    g = group_and_prune(r1, r2)
    z = exact_size(g).z
    h = draw_pair_hash(spawn_rng(4))
    values = [exact_kth_hash(g, h, k).v for k in range(1, min(z, 40) + 1)]
    assert values == sorted(values)


def test_kth_rejects_nonpositive_k():
    g = grouped_from({(1, 1)}, {(1, 5)})
    with pytest.raises(ValueError):
        exact_kth_hash(g, draw_pair_hash(spawn_rng(5)), 0)


def mixed_instance(rng: random.Random, stride: int):
    """Left values held by one group mixed with values held by several (up
    to all eight), over ids ``i * stride``."""
    t1 = {(a * stride, b) for a in range(rng.randint(0, 30))
          for b in rng.sample(range(8), rng.choice((1, 1, 2, 3, 8)))}
    t2 = {(rng.randrange(8), rng.randrange(30) * stride) for _ in range(rng.randint(0, 60))}
    return Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2)


# Chunks of 1 and 2 pairs are smaller than most a-runs; 7 cuts between runs;
# the default holds each instance in a single chunk.
@pytest.mark.parametrize("chunk", [1, 2, 7, oracle.CHUNK_PAIRS])
@pytest.mark.parametrize("stride", [1, 1 << 26])
def test_chunked_count_matches_the_second_oracle(monkeypatch, chunk, stride):
    monkeypatch.setattr(oracle, "CHUNK_PAIRS", chunk)
    rng = random.Random(54 + stride)
    for _ in range(60):
        r1, r2 = mixed_instance(rng, stride)
        g = group_and_prune(r1, r2)
        keys = distinct_pair_keys(g)
        assert np.all(keys[1:] > keys[:-1])
        a, c = unpack(keys)
        assert set(zip(a.tolist(), c.tolist())) == brute_force_pairs(r1, r2)
        result = exact_size(g)
        assert result.z == exact_size_bitsets(g) == keys.size
        assert 0 <= result.expanded_pairs <= g.total_product


@pytest.mark.parametrize("chunk", [1, 2, 7, 50, oracle.CHUNK_PAIRS])
def test_chunks_hold_whole_a_runs(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "CHUNK_PAIRS", chunk)
    rng = random.Random(55)
    for trial in range(80):
        if trial % 2:
            g = group_and_prune(*mixed_instance(rng, 1))
        else:
            g = group_and_prune(*random_instance(rng, max_each=150, b_range=rng.choice([2, 12])))
        chunks = list(oracle._pair_chunks(g.right_values, *oracle._left_tuples(g)))
        assert sum(keys.size for keys in chunks) == g.total_product
        highs = [np.unique(unpack(keys)[0]) for keys in chunks]
        for keys, a in zip(chunks, highs):
            assert np.all(keys[1:] >= keys[:-1])
            assert keys.size <= chunk or a.size == 1
        # Each chunk's left values all lie above the previous chunk's.
        for before, after in zip(highs, highs[1:]):
            assert before[-1] < after[0]
        # The chunks start where the greedy rule over a-runs starts them.
        values = np.unique(oracle._left_tuples(g)[0]).tolist()
        pairs = a_run_pairs(g)
        got = [values.index(a[0]) for a in highs] + [len(values)]
        assert got == greedy_chunks(pairs, chunk), trial


def test_left_values_held_by_one_group_are_not_expanded():
    # The right values repeat across groups; the left values do not.
    t1 = {(g * 5 + i, g) for g in range(6) for i in range(5)}
    t2 = {(g, c) for g in range(6) for c in range(g + 3)}
    g = grouped_from(t1, t2)
    result = exact_size(g)
    assert result == oracle.ExactResult(z=g.total_product, expanded_pairs=0)
    assert exact_size_bitsets(g) == g.total_product


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_by_the_input_when_no_left_value_repeats():
    g = group_and_prune(*disjoint_instance(30, 300, 350))
    assert g.total_product >= 3_000_000
    # Materializing the product would take about 17 B per pair (~51 MiB).
    assert traced_peak(exact_size, g) < 8 << 20


def test_memory_is_bounded_by_the_input_and_one_chunk():
    # Every left value lies in all 30 groups, so every pair is expanded; one
    # left value expands to 30 * 350 pairs, fewer than a chunk holds.
    t1 = {(a, b) for b in range(30) for a in range(300)}
    t2 = {(b, b * 350 + j) for b in range(30) for j in range(350)}
    g = grouped_from(t1, t2)
    assert g.total_product >= 3_000_000 and 30 * 350 < oracle.CHUNK_PAIRS
    assert exact_size(g).expanded_pairs == g.total_product
    # A handful of 8-byte arrays per tuple and per chunk pair.
    assert traced_peak(exact_size, g) < 64 * (g.tuple_count + oracle.CHUNK_PAIRS)


def kth_from_all_keys(grouped, pair_hash, k):
    """The k-th smallest hash from every distinct key at once."""
    a, c = unpack(distinct_pair_keys(grouped))
    hv = pair_hash.h1.values(a) - pair_hash.h2.values(c)
    if hv.size < k:
        return SketchOutcome(filled=False, count=int(hv.size))
    return SketchOutcome(filled=True, v=int(np.partition(hv, k - 1)[k - 1]))


@pytest.mark.parametrize("chunk", [1, 2, 7, oracle.CHUNK_PAIRS])
def test_chunked_kth_hash_matches_every_key_at_once(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "CHUNK_PAIRS", chunk)
    rng = random.Random(56)
    for trial in range(60):
        g = group_and_prune(*mixed_instance(rng, rng.choice((1, 1 << 26))))
        h = draw_pair_hash(spawn_rng(trial))
        for k in (1, 2, 5, 40, 1000):
            assert exact_kth_hash(g, h, k) == kth_from_all_keys(g, h, k), (trial, k)


def test_kth_hash_memory_is_bounded_by_the_input_k_and_one_chunk():
    # Every left value lies in all 30 groups, as above: 3.15M distinct pairs,
    # about 50 MiB of keys and hashes if held at once.
    t1 = {(a, b) for b in range(30) for a in range(300)}
    t2 = {(b, b * 350 + j) for b in range(30) for j in range(350)}
    g = grouped_from(t1, t2)
    k = 1000
    h = draw_pair_hash(spawn_rng(6))
    assert g.total_product >= 3_000_000 and exact_kth_hash(g, h, k).filled
    assert traced_peak(exact_kth_hash, g, h, k) < 64 * (g.tuple_count + oracle.CHUNK_PAIRS + k)
