import random

import pytest

from joinsketch import (
    Relation,
    Side,
    SizeCapError,
    exact_size,
    group_and_prune,
)
from joinsketch.hashing import draw_pair_hash, spawn_rng
from joinsketch.oracle import distinct_pair_keys, exact_kth_hash, exact_size_bitsets
from joinsketch.relation import unpack

from conftest import random_instance


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
    g = grouped_from({(i, 0) for i in range(100)}, {(0, j) for j in range(100)})
    with pytest.raises(SizeCapError):
        exact_size(g, cap=9_999)
    with pytest.raises(SizeCapError):
        exact_kth_hash(g, draw_pair_hash(spawn_rng(1)), 5, cap=9_999)
    assert exact_size(g, cap=10_000).z == 10_000


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
    assert out.v == min(h.value(a, c) for a, c in pairs)


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
