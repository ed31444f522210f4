import random
import tracemalloc
from collections import Counter

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
from joinsketch.hashing import Pcg64Stream, draw_pair_hash
from joinsketch.kmin import SketchOutcome
from joinsketch.oracle import exact_kth_hash, exact_size_bitsets
from joinsketch.relation import MAX_ATTRIBUTE, tie_runs, unpack

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
        exact_kth_hash(g, draw_pair_hash(Pcg64Stream(1)), 5, cap=9_999)
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
        exact_kth_hash(g, draw_pair_hash(Pcg64Stream(1)), 5)


@pytest.mark.parametrize("cap", [float("nan"), -1, None, "5", 2.0])
def test_cap_must_be_a_non_negative_integer(cap):
    # No left value lies in two groups, so nothing would be expanded.
    g = grouped_from({(1, 1), (2, 1)}, {(1, 5)})
    with pytest.raises(ValueError, match="cap must be a non-negative integer"):
        exact_size(g, cap=cap)
    with pytest.raises(ValueError, match="cap must be a non-negative integer"):
        exact_size_bitsets(g, cap=cap)
    with pytest.raises(ValueError, match="cap must be a non-negative integer"):
        exact_kth_hash(g, draw_pair_hash(Pcg64Stream(1)), 1, cap=cap)


def test_cap_accepts_numpy_integers():
    g = grouped_from({(1, 1), (2, 1)}, {(1, 5)})
    assert exact_size(g, cap=np.uint64(0)) == oracle.ExactResult(z=2, expanded_pairs=0)


def kernel_of(grouped):
    """The kernel ``exact_size`` counts the shared left values with, from
    its own rule; None when no left value lies in two groups."""
    a, _ = oracle._left_tuples(grouped)
    _, shared = tie_runs(a)
    expanded = exact_size(grouped).expanded_pairs
    if not expanded:
        return None
    return "sparse" if oracle._dense_ranks(grouped, shared.size, expanded) is None else "dense"


def rule_terms(grouped) -> tuple[int, int, int]:
    """In plain Python: the shared tuples (left tuples whose value lies in
    two or more groups), their expanded pairs and the bitset words W."""
    lo, ro = grouped.left_offsets.tolist(), grouped.right_offsets.tolist()
    left = grouped.left_values.tolist()
    holders = Counter(left)  # values are distinct within a group
    shared = expanded = 0
    for g in range(len(grouped)):
        for a in left[lo[g]:lo[g + 1]]:
            if holders[a] > 1:
                shared += 1
                expanded += ro[g + 1] - ro[g]
    words = -(-len(set(grouped.right_values.tolist())) // 64)
    return shared, expanded, words


def expected_kernel(grouped):
    shared, expanded, words = rule_terms(grouped)
    if not shared:
        return None
    dense = shared * words <= expanded and len(grouped) * words <= grouped.right_values.size
    return "dense" if dense else "sparse"


def kernel_instance(rng: random.Random):
    """1 to 300 groups, a third of the draws 300, whose right values come from a pool of 1 to 3002
    values, contiguous at a random base or scattered over the 32-bit range
    with 0 and 2**32 - 1 in it."""
    groups = rng.choice((1, 2, 8, 70, 300, 300, 300))
    size = rng.choice((1, 63, 64, 65, 500, 3000))
    if rng.random() < 0.5:
        base = rng.randrange(MAX_ATTRIBUTE + 2 - size)
        pool = range(base, base + size)
    else:
        pool = [0, MAX_ATTRIBUTE, *rng.sample(range(1, MAX_ATTRIBUTE), size)]
    a_range = rng.choice((2, 20, 200))
    t1 = {(rng.randrange(a_range), b) for b in range(groups) for _ in range(rng.randint(1, 6))}
    t2 = {(b, rng.choice(pool)) for b in range(groups) for _ in range(rng.randint(1, 12))}
    return grouped_from(t1, t2)


# Chunks of 7 words or pairs are smaller than most a-runs; the default holds
# most instances in one chunk.
@pytest.mark.parametrize("chunk", [7, oracle.CHUNK_TUPLES])
def test_both_kernels_match_the_second_oracle(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "CHUNK_TUPLES", chunk)
    rng = random.Random(57 + chunk)
    kernels = Counter()
    for trial in range(500):
        g = kernel_instance(rng)
        kernel = kernel_of(g)
        assert kernel == expected_kernel(g), trial
        assert exact_size(g) == oracle.ExactResult(exact_size_bitsets(g), rule_terms(g)[1]), trial
        kernels[kernel] += 1
    assert min(kernels[None], kernels["dense"], kernels["sparse"]) >= 50, kernels


@pytest.mark.parametrize("distinct, words", [(63, 1), (64, 1), (65, 2)])
@pytest.mark.parametrize("base", [0, MAX_ATTRIBUTE - 64])
def test_dense_kernel_at_word_edges(distinct, words, base):
    # Left value 0 lies in all four groups, whose right values cover
    # ``distinct`` consecutive values twice over, so the last word is full
    # or holds one bit.
    values = range(base, base + distinct)
    t1 = {(0, b) for b in range(4)} | {(1 + b, b) for b in range(4)}
    t2 = {(b, c) for b in range(4) for c in values if (c - base) % 4 in (b, (b + 1) % 4)}
    g = grouped_from(t1, t2)
    assert rule_terms(g)[2] == words
    assert kernel_of(g) == "dense"
    assert exact_size(g).z == exact_size_bitsets(g) == 3 * distinct


def test_dense_kernel_holds_the_extreme_values():
    t1 = {(a, b) for a in range(3) for b in range(2)}
    t2 = {(0, 0), (0, MAX_ATTRIBUTE), (1, MAX_ATTRIBUTE), (1, 1 << 31)}
    g = grouped_from(t1, t2)
    assert kernel_of(g) == "dense"
    assert exact_size(g) == oracle.ExactResult(z=9, expanded_pairs=12)


def test_a_single_group_takes_neither_kernel():
    g = grouped_from({(a, 0) for a in range(5)}, {(0, c) for c in range(0, 1 << 32, 1 << 28)})
    assert kernel_of(g) is None and exact_size(g).z == exact_size_bitsets(g) == 80


def test_every_left_value_shared_on_both_kernels():
    # 100 groups: the wide domain of 4 values per group takes the sparse
    # kernel, the narrow one of 4 shared values the dense kernel.
    rng = random.Random(58)
    t1 = {(a, b) for a in range(5) for b in range(100)}
    wide = grouped_from(t1, {(b, c) for b in range(100) for c in rng.sample(range(1 << 32), 4)})
    narrow = grouped_from(t1, {(b, (b + j) % 7) for b in range(100) for j in range(4)})
    for g, kernel in ((wide, "sparse"), (narrow, "dense")):
        assert rule_terms(g)[0] == g.left_values.size
        assert kernel_of(g) == kernel
        assert exact_size(g).z == exact_size_bitsets(g)


def test_rule_boundaries_are_inclusive():
    # Groups 0 and 1 hold left value 0 with 2 right values each; group 2's
    # private left value brings the domain to 65 values, so W = 2 and
    # shared * W == expanded.  One right value fewer in group 1 tips it over.
    first = {(0, 0), (0, 1), (9, 2)}
    right = [(0, 1000), (0, 1001), (1, 1002), (1, 1003)] + [(2, c) for c in range(61)]
    g = grouped_from(first, set(right))
    assert rule_terms(g) == (2, 4, 2) and kernel_of(g) == "dense"
    g = grouped_from(first, set(right) - {(1, 1003)} | {(2, 61)})
    assert rule_terms(g) == (2, 3, 2) and kernel_of(g) == "sparse"
    # 33 groups, 66 right values and W = 2: groups * W == right values.  A
    # 34th group with one new right value tips it over.
    t1 = {(0, 0), (0, 1)} | {(100 + b, b) for b in range(34)}
    t2 = {(0, c) for c in range(34)} | {(b, 100 + b) for b in range(1, 34)}
    g = grouped_from({t for t in t1 if t[1] < 33}, {t for t in t2 if t[0] < 33})
    assert (len(g), g.right_values.size, rule_terms(g)) == (33, 66, (2, 35, 2))
    assert kernel_of(g) == "dense"
    g = grouped_from(t1, t2)
    assert (len(g), g.right_values.size, rule_terms(g)[2]) == (34, 67, 2)
    assert kernel_of(g) == "sparse"
    # 64 groups of one right value each, all holding left value 0: D = 64
    # and W = 1, so shared * W == expanded == groups * W == right values.  A
    # 65th group makes W = 2.
    g64 = grouped_from({(0, b) for b in range(64)}, {(b, b) for b in range(64)})
    g65 = grouped_from({(0, b) for b in range(65)}, {(b, b) for b in range(65)})
    assert rule_terms(g64) == (64, 64, 1) and kernel_of(g64) == "dense"
    assert rule_terms(g65) == (65, 65, 2) and kernel_of(g65) == "sparse"
    for g in (grouped_from(first, set(right)), grouped_from(t1, t2), g64, g65):
        assert exact_size(g).z == exact_size_bitsets(g)


# Three or four right values: the map of offsets has 4 slots, so a span of 4
# fits it and a span of 5 takes the sort.
@pytest.mark.parametrize("values", [(7, 8, 9, 10), (7, 8, 10, 11), (7, 7, 11, 9),
                                    (0, MAX_ATTRIBUTE, 5, 0)])
def test_dense_ranks_index_the_sorted_distinct_values(values):
    g = grouped_from({(0, 0), (0, 1)}, {(b, c) for b, c in zip((0, 1, 1, 0), values)})
    ranks = oracle._dense_ranks(g, 2, 4)
    assert ranks.tolist() == np.unique(g.right_values, return_inverse=True)[1].tolist()


@pytest.mark.parametrize("distinct", [128, 129])
def test_dense_ranks_of_a_wide_span_whose_offsets_all_collide(distinct):
    # Two groups of the same right values, all multiples of 512: every
    # offset marks the map's first slot, so only the sort counts D.
    rng = random.Random(distinct)
    values = [512 * j for j in rng.sample(range(1 << 23), distinct)]
    g = grouped_from({(0, 0), (0, 1)}, {(b, c) for b in (0, 1) for c in values})
    size = 1 << (g.right_values.size - 1).bit_length()
    assert not np.any((g.right_values - g.right_values.min()) % np.uint64(size))
    inverse = np.unique(g.right_values, return_inverse=True)[1].tolist()
    refused = []
    for shared, expanded in ((4, 4), (4, 8), (4, 12), (1, 1000)):
        ranks = oracle._dense_ranks(g, shared, expanded)
        refused.append(ranks is None)
        most = 64 * min(expanded // shared, g.right_values.size // len(g))
        assert refused[-1] == (distinct > most), (shared, expanded)
        assert refused[-1] or ranks.tolist() == inverse
    assert refused == [True, distinct > 128, False, False]


def test_wide_span_with_few_distinct_values_takes_the_dense_kernel():
    # Four right values spread over the whole 32-bit range: the offset map
    # cannot hold the span, so the domain comes from a sort.
    spread = (0, 1 << 20, 1 << 31, MAX_ATTRIBUTE)
    t1 = {(a, b) for a in range(10) for b in range(6)}
    t2 = {(b, spread[(b + j) % 4]) for b in range(6) for j in range(3)}
    g = grouped_from(t1, t2)
    assert g.right_values.size > 4 and kernel_of(g) == "dense"
    assert exact_size(g) == oracle.ExactResult(z=40, expanded_pairs=180)


def test_popcount_counts_every_set_bit():
    rng = random.Random(60)
    edges = [0, (1 << 64) - 1, *(1 << i for i in range(64)), 0x5555555555555555,
             0xAAAAAAAAAAAAAAAA, 0x3333333333333333, 0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00]
    for w in edges + [rng.getrandbits(64) for _ in range(10_000)]:
        assert oracle._popcount(np.array([w], dtype=np.uint64)) == bin(w).count("1"), w
    words = np.array(edges + [0], dtype=np.uint64).reshape(-1, 3)  # like a chunk's unions
    assert oracle._popcount(words) == sum(bin(w).count("1") for w in edges)
    assert oracle._popcount(np.empty((0, 2), dtype=np.uint64)) == 0


def test_left_tuples_are_ordered_by_value_then_group():
    rng = random.Random(61)
    for trial in range(40):
        g = group_and_prune(*random_instance(rng, max_each=200, a_range=rng.choice([5, 2**32]),
                                             b_range=rng.choice([3, 50])))
        a, group = oracle._left_tuples(g)
        assert a.dtype == np.uint64 and group.dtype == np.int64
        lo, left = g.left_offsets.tolist(), g.left_values.tolist()
        expected = sorted((x, b) for b in range(len(g)) for x in left[lo[b]:lo[b + 1]])
        assert list(zip(a.tolist(), group.tolist())) == expected, trial


# Left and right values of 2**32 - 1 fill the high half of a packed key, more
# than 2**16 groups the low half's upper bits; the right values of groups
# holding left value 2**32 - 1 form a dense domain of D = 63, 64 or 65 values
# (a partial, full or one-bit-over last word), or are all distinct.
@pytest.mark.parametrize("domain, kernel", [(63, "dense"), (64, "dense"), (65, "dense"),
                                            (None, "sparse")])
def test_exact_size_at_the_packing_edges(domain, kernel):
    groups = (1 << 16) + 3
    t1 = {(MAX_ATTRIBUTE, b) for b in range(groups)} | {(b, b) for b in range(0, groups, 7)}
    t1 |= {(MAX_ATTRIBUTE - 1, b) for b in range(groups - 5, groups)}
    if domain is None:
        t2 = {(b, MAX_ATTRIBUTE - b) for b in range(groups)}
    else:
        t2 = {(b, MAX_ATTRIBUTE - (b + j) % domain) for b in range(groups) for j in range(2)}
    g = grouped_from(t1, t2)
    assert len(g) == groups and int(g.right_values.max()) == MAX_ATTRIBUTE
    assert expected_kernel(g) == kernel_of(g) == kernel
    assert exact_size(g) == oracle.ExactResult(exact_size_bitsets(g), rule_terms(g)[1])


def test_kth_undersupplied_carries_count():
    g = grouped_from({(1, 1), (2, 1)}, {(1, 5)})
    out = exact_kth_hash(g, draw_pair_hash(Pcg64Stream(2)), 5)
    assert not out.filled and out.count == 2


def test_k_equals_one_is_global_minimum():
    rng = random.Random(52)
    r1, r2 = random_instance(rng, max_each=100)
    g = group_and_prune(r1, r2)
    h = draw_pair_hash(Pcg64Stream(3))
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
    h = draw_pair_hash(Pcg64Stream(4))
    values = [exact_kth_hash(g, h, k).v for k in range(1, min(z, 40) + 1)]
    assert values == sorted(values)


def test_kth_rejects_nonpositive_k():
    g = grouped_from({(1, 1)}, {(1, 5)})
    with pytest.raises(ValueError):
        exact_kth_hash(g, draw_pair_hash(Pcg64Stream(5)), 0)


def mixed_instance(rng: random.Random, stride: int):
    """Left values held by one group mixed with values held by several (up
    to all eight), over ids ``i * stride``."""
    t1 = {(a * stride, b) for a in range(rng.randint(0, 30))
          for b in rng.sample(range(8), rng.choice((1, 1, 2, 3, 8)))}
    t2 = {(rng.randrange(8), rng.randrange(30) * stride) for _ in range(rng.randint(0, 60))}
    return Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2)


# Chunks of 1 and 2 pairs are smaller than most a-runs; 7 cuts between runs;
# the default holds each instance in a single chunk.
@pytest.mark.parametrize("chunk", [1, 2, 7, oracle.CHUNK_TUPLES])
@pytest.mark.parametrize("stride", [1, 1 << 26])
def test_chunked_count_matches_the_second_oracle(monkeypatch, chunk, stride):
    monkeypatch.setattr(oracle, "CHUNK_TUPLES", chunk)
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


@pytest.mark.parametrize("chunk", [1, 2, 7, 50, oracle.CHUNK_TUPLES])
def test_chunks_hold_whole_a_runs(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "CHUNK_TUPLES", chunk)
    rng = random.Random(55)
    for trial in range(80):
        if trial % 2:
            g = group_and_prune(*mixed_instance(rng, 1))
        else:
            g = group_and_prune(*random_instance(rng, max_each=150, b_range=rng.choice([2, 12])))
        a, group = oracle._left_tuples(g)
        chunks = list(oracle._pair_chunks(g, a, group))
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
    # Every left value lies in all 30 groups, so every pair counts as
    # expanded.  The 10,500 right values make W = 165 words per bitset,
    # fewer than the 350 pairs per tuple, so the dense kernel ORs them; one
    # left value gathers 30 * 165 words, fewer than a chunk holds.
    t1 = {(a, b) for b in range(30) for a in range(300)}
    t2 = {(b, b * 350 + j) for b in range(30) for j in range(350)}
    g = grouped_from(t1, t2)
    assert g.total_product >= 3_000_000 and 30 * 350 < oracle.CHUNK_TUPLES
    assert exact_size(g).expanded_pairs == g.total_product
    assert kernel_of(g) == "dense"
    # A handful of 8-byte arrays per tuple and per chunk word.
    assert traced_peak(exact_size, g) < 64 * (g.tuple_count + oracle.CHUNK_TUPLES)


def test_sparse_kernel_memory_is_bounded_by_the_input_and_one_chunk():
    # Every left value lies in all 100 groups, whose 100 right values each
    # are scattered over the 32-bit range: W = 157 words per bitset is more
    # than the 100 pairs per tuple, so the 1M pairs are expanded chunk by
    # chunk.  One left value expands to 100 * 100 pairs.
    rng = random.Random(59)
    right = rng.sample(range(1 << 32), 100 * 100)
    t1 = {(a, b) for b in range(100) for a in range(100)}
    t2 = {(b, right[b * 100 + j]) for b in range(100) for j in range(100)}
    g = grouped_from(t1, t2)
    assert exact_size(g) == oracle.ExactResult(z=1_000_000, expanded_pairs=1_000_000)
    assert kernel_of(g) == "sparse"
    # Expanding every pair at once would take 8 MiB of keys.
    assert traced_peak(exact_size, g) < 64 * (g.tuple_count + oracle.CHUNK_TUPLES)


def kth_from_all_keys(grouped, pair_hash, k):
    """The k-th smallest hash from every distinct key at once."""
    a, c = unpack(distinct_pair_keys(grouped))
    hv = pair_hash.h1.values(a) - pair_hash.h2.values(c)
    if hv.size < k:
        return SketchOutcome(filled=False, count=int(hv.size))
    return SketchOutcome(filled=True, v=int(np.partition(hv, k - 1)[k - 1]))


@pytest.mark.parametrize("chunk", [1, 2, 7, oracle.CHUNK_TUPLES])
def test_chunked_kth_hash_matches_every_key_at_once(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "CHUNK_TUPLES", chunk)
    rng = random.Random(56)
    for trial in range(60):
        g = group_and_prune(*mixed_instance(rng, rng.choice((1, 1 << 26))))
        h = draw_pair_hash(Pcg64Stream(trial))
        for k in (1, 2, 5, 40, 1000):
            assert exact_kth_hash(g, h, k) == kth_from_all_keys(g, h, k), (trial, k)


def test_kth_hash_memory_is_bounded_by_the_input_k_and_one_chunk():
    # Every left value lies in all 30 groups, as above: 3.15M distinct pairs,
    # about 50 MiB of keys and hashes if held at once.
    t1 = {(a, b) for b in range(30) for a in range(300)}
    t2 = {(b, b * 350 + j) for b in range(30) for j in range(350)}
    g = grouped_from(t1, t2)
    k = 1000
    h = draw_pair_hash(Pcg64Stream(6))
    assert g.total_product >= 3_000_000 and exact_kth_hash(g, h, k).filled
    assert traced_peak(exact_kth_hash, g, h, k) < 64 * (g.tuple_count + oracle.CHUNK_TUPLES + k)
