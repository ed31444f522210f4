import random

import pytest

from joinsketch import (
    EXACT_SMALL,
    MODE_LINEAR,
    MODE_START_AT_ONE,
    POINT,
    UPPER_BOUND,
    ConfigError,
    Estimate,
    EstimatorConfig,
    Relation,
    Side,
    WorkCounters,
    estimate_median,
    exact_size,
    group_and_prune,
)
from joinsketch.estimator import choose_threshold, median_by_value, run_once
from joinsketch.hashing import GRID, draw_pair_hash, run_rng
from joinsketch.oracle import exact_kth_hash

from conftest import disjoint_instance, random_instance


def grouped_from(t1, t2):
    return group_and_prune(
        Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2)
    )


@pytest.mark.parametrize("eps", [0.25, 0.3, 0.0, -0.1, 1.5])
def test_epsilon_outside_supported_range_rejected(eps):
    with pytest.raises(ConfigError):
        EstimatorConfig(epsilon=eps)


def test_exactly_one_of_epsilon_or_k():
    with pytest.raises(ConfigError):
        EstimatorConfig()
    with pytest.raises(ConfigError):
        EstimatorConfig(epsilon=0.1, k=100)


def test_k_from_epsilon():
    assert EstimatorConfig(epsilon=0.1).resolved_k == 900
    assert EstimatorConfig(epsilon=0.1875).resolved_k == 256
    assert EstimatorConfig(epsilon=0.2).resolved_k == 225


def test_runs_must_be_odd():
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, runs=2)
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, runs=0)
    assert EstimatorConfig(k=4, runs=3).runs == 3


def test_bad_mode_family_seed_rejected():
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, threshold_mode="always")
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, family="sha1")
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, seed=-1)
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, seed=2**64)


def one_group(left, right):
    """Grouped input of a single group with |A| = left and |C| = right."""
    g = group_and_prune(*disjoint_instance(1, left, right))
    assert g.max_group_product == left * right
    return g


def test_choose_threshold_product_term_binds():
    g = one_group(1000, 1000)
    assert choose_threshold(g, 100) == (100 * GRID) // 10**6
    assert choose_threshold(g, 100) / GRID == pytest.approx(1e-4)


def test_choose_threshold_k_term_binds():
    g = one_group(5, 5)
    assert choose_threshold(g, 100) == GRID // 100


def test_choose_threshold_boundary_equal_terms():
    g = one_group(100, 100)
    assert choose_threshold(g, 100) == GRID // 100


def test_choose_threshold_empty_and_start_at_one():
    empty = grouped_from({(1, 1)}, {(2, 5)})
    assert choose_threshold(empty, 10) == 0
    assert choose_threshold(empty, 10, MODE_START_AT_ONE) == 0
    g = one_group(5, 5)
    assert choose_threshold(g, 10, MODE_START_AT_ONE) == GRID


def test_empty_input_is_exactly_zero():
    g = grouped_from({(1, 1)}, {(2, 5)})
    for mode in (MODE_LINEAR, MODE_START_AT_ONE):
        est = run_once(g, EstimatorConfig(k=16, threshold_mode=mode, seed=1))
        assert est.kind == EXACT_SMALL
        assert est.value == 0.0 and est.count == 0


def test_undersupplied_sketch_is_exact():
    g = grouped_from({(1, 1), (2, 1), (3, 1)}, {(1, 5)})
    assert exact_size(g).z == 3
    for seed in range(10):
        est = run_once(g, EstimatorConfig(k=16, threshold_mode=MODE_START_AT_ONE, seed=seed))
        assert est.kind == EXACT_SMALL
        assert est.count == 3 and est.value == 3.0


def test_same_seed_same_estimate_bit_exact():
    r1, r2 = random_instance(random.Random(21), max_each=150)
    g = group_and_prune(r1, r2)
    cfg = EstimatorConfig(k=32, seed=77, threshold_mode=MODE_START_AT_ONE)
    assert run_once(g, cfg, run_index=3) == run_once(g, cfg, run_index=3)
    cfg2 = EstimatorConfig(k=32, seed=78, threshold_mode=MODE_START_AT_ONE)
    assert run_once(g, cfg, run_index=3) != run_once(g, cfg2, run_index=3)


def test_start_at_one_never_upper_bounds():
    rng = random.Random(31)
    for i in range(50):
        r1, r2 = random_instance(rng, max_each=120)
        g = group_and_prune(r1, r2)
        for k in (1, 7, 64, 4096):
            est = run_once(g, EstimatorConfig(k=k, threshold_mode=MODE_START_AT_ONE, seed=i))
            assert est.kind != UPPER_BOUND


def test_point_v_matches_full_sort_oracle():
    rng = random.Random(41)
    for i in range(60):
        r1, r2 = random_instance(rng, max_each=150, a_range=60, b_range=8, c_range=60)
        g = group_and_prune(r1, r2)
        z = exact_size(g).z
        if z == 0:
            continue
        k = rng.randint(1, z)
        cfg = EstimatorConfig(k=k, threshold_mode=MODE_START_AT_ONE, seed=4040)
        est = run_once(g, cfg, run_index=i)
        want = exact_kth_hash(g, draw_pair_hash(run_rng(4040, (i,))), k)
        assert est.kind == POINT and want.filled
        assert est.v == want.v
        assert est.value == (k << 64) / want.v


@pytest.mark.parametrize("k", [1, 7, 50, 399, 400, 401])
def test_repeated_pairs_are_counted_once(k):
    # Every one of the 400 pairs (a, c) comes from each of the 10 groups.
    g = grouped_from({(a, b) for a in range(20) for b in range(10)},
                     {(b, c) for b in range(10) for c in range(20)})
    z = exact_size(g).z
    assert z == 400
    for seed in range(3):
        cfg = EstimatorConfig(k=k, threshold_mode=MODE_START_AT_ONE, seed=seed)
        est = run_once(g, cfg)
        want = exact_kth_hash(g, draw_pair_hash(run_rng(seed, (0,))), k)
        if want.filled:
            assert est.kind == POINT and est.v == want.v
            assert est.work.accepted_offers <= z
        else:
            # The threshold never dropped: each group emitted all its pairs.
            assert est.kind == EXACT_SMALL and est.count == z
            assert est.work.emitted_pairs == g.total_product == 4000
            assert est.work.accepted_offers == z


def test_upper_bound_when_size_is_far_below_k_squared():
    g = grouped_from({(i, 0) for i in range(20)}, {(0, j) for j in range(20)})
    est = run_once(g, EstimatorConfig(k=64, threshold_mode=MODE_LINEAR, seed=5))
    assert est.kind == UPPER_BOUND
    assert est.value == 64.0**2


def test_linear_mode_point_accuracy_when_filled():
    r1, r2 = disjoint_instance(300, 20, 20)  # z = 120000 > k^2
    g = group_and_prune(r1, r2)
    z = exact_size(g).z
    cfg = EstimatorConfig(k=256, threshold_mode=MODE_LINEAR, seed=11)
    within = 0
    for i in range(30):
        est = run_once(g, cfg, run_index=i)
        assert est.kind == POINT
        within += abs(est.value / z - 1) <= 0.1875
    assert within >= 20  # 2/3 of 30


def test_sixty_runs_accuracy_start_at_one():
    r1, r2 = disjoint_instance(100, 32, 32)
    g = group_and_prune(r1, r2)
    z = exact_size(g).z
    cfg = EstimatorConfig(k=256, threshold_mode=MODE_START_AT_ONE, seed=2)
    ratios = [run_once(g, cfg, run_index=i).value / z for i in range(60)]
    assert sum(abs(r - 1) <= 0.1875 for r in ratios) >= 40


def _estimate(value):
    return Estimate(POINT, value, 4, GRID, work=WorkCounters())


def test_median_by_value():
    assert median_by_value([_estimate(v) for v in (90.0, 100.0, 250.0)]).value == 100.0
    assert median_by_value([_estimate(v) for v in (250.0, 90.0, 100.0)]).value == 100.0


def test_single_run_median_equals_run_once():
    r1, r2 = random_instance(random.Random(61), max_each=100)
    g = group_and_prune(r1, r2)
    cfg = EstimatorConfig(k=16, seed=9, threshold_mode=MODE_START_AT_ONE)
    assert estimate_median(g, cfg) == run_once(g, cfg, key=(0,))


def test_median_sums_the_work_of_all_runs():
    r1, r2 = disjoint_instance(10, 8, 8)
    g = group_and_prune(r1, r2)
    cfg = EstimatorConfig(k=16, runs=3, seed=5, threshold_mode=MODE_START_AT_ONE)
    est = estimate_median(g, cfg)
    runs = [run_once(g, cfg, key=(i,)).work for i in range(3)]
    assert est.work_per_run == tuple(runs)
    assert est.work == runs[0] + runs[1] + runs[2]
    assert est.work.total == sum(w.total for w in runs) > max(w.total for w in runs)


def test_median_mixes_kinds_by_value():
    estimates = [
        Estimate(UPPER_BOUND, 16.0, 4, GRID, work=WorkCounters()),
        _estimate(9.0),
        _estimate(30.0),
    ]
    med = median_by_value(estimates)
    assert med.kind == UPPER_BOUND and med.value == 16.0


def test_work_counters_accumulate():
    r1, r2 = disjoint_instance(10, 8, 8)
    g = group_and_prune(r1, r2)
    est = run_once(g, EstimatorConfig(k=16, threshold_mode=MODE_START_AT_ONE, seed=3))
    work = est.work
    assert work.sorted_elements == g.tuple_count
    assert work.emitted_pairs >= work.accepted_offers >= 16
    assert work.total == work.sorted_elements + work.sbar_increments + work.inner_iterations
    assert work.as_dict()["total"] == work.total


def test_mersenne_family_end_to_end():
    r1, r2 = disjoint_instance(50, 16, 16)
    g = group_and_prune(r1, r2)
    z = exact_size(g).z
    cfg = EstimatorConfig(k=128, threshold_mode=MODE_START_AT_ONE, seed=13, family="mersenne61")
    est = run_once(g, cfg)
    assert est.kind == POINT
    assert abs(est.value / z - 1) < 0.5
