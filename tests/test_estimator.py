import itertools
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from joinsketch import (
    EXACT_SMALL,
    FIMI,
    MODE_LINEAR,
    MODE_START_AT_ONE,
    POINT,
    THRESHOLD_MODES,
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
    parse_relation,
)
from joinsketch import enumerator, estimator
from joinsketch.estimator import (PILOT_OCCURRENCES, Pilot, choose_threshold, draw_pilot,
                                  first_threshold, pilot_values, run_once)
from joinsketch.hashing import GRID, draw_pair_hash, draw_single, pilot_rng, run_rng
from joinsketch.kmin import KMinState
from joinsketch.oracle import exact_kth_hash
from joinsketch.relation import GroupedInput

from conftest import (disjoint_instance, group_values, random_instance, reachable_tuples,
                      scattered_instance)


def grouped_from(t1, t2):
    return group_and_prune(
        Relation.from_pairs(Side.LEFT, t1), Relation.from_pairs(Side.RIGHT, t2)
    )


@pytest.mark.parametrize("eps", [0.25, 0.3, 0.0, -0.1, 1.5])
def test_epsilon_outside_supported_range_rejected(eps):
    with pytest.raises(ConfigError):
        EstimatorConfig(epsilon=eps)


@pytest.mark.parametrize("eps", ["0.1", b"0.1", 0.1j])
def test_epsilon_that_is_not_a_real_number_rejected(eps):
    with pytest.raises(ConfigError, match="epsilon"):
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


@pytest.mark.parametrize("kw", [
    dict(k=2**64), dict(k=10**200), dict(epsilon=1e-150), dict(epsilon=1e-200), dict(epsilon=5e-324),
])
def test_sketch_size_of_2_64_or_more_rejected(kw):
    # The grid holds 2**64 hash values; 1e-200 squared is 0.0, 5e-324 the
    # smallest float.
    with pytest.raises(ConfigError):
        EstimatorConfig(**kw)


def test_largest_sketch_size_runs():
    g = grouped_from({(1, 1), (2, 1)}, {(1, 5)})
    linear = estimate_median(g, EstimatorConfig(k=2**64 - 1, threshold_mode=MODE_LINEAR))
    assert (linear.kind, linear.value) == (UPPER_BOUND, float((2**64 - 1) ** 2))
    full = estimate_median(g, EstimatorConfig(k=2**64 - 1, threshold_mode=MODE_START_AT_ONE))
    assert (full.kind, full.count) == (EXACT_SMALL, 2)


def test_runs_must_be_odd():
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, runs=2)
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, runs=0)
    assert EstimatorConfig(k=4, runs=3).runs == 3


def test_bad_mode_family_seed_rejected():
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, threshold_mode="always")
    # wrapping64 is the one hash family: a read-only name, not a parameter.
    assert EstimatorConfig(k=4).family == "wrapping64"
    for family in ("sha1", "mersenne61", "wrapping64"):
        with pytest.raises(TypeError, match="family"):
            EstimatorConfig(k=4, family=family)
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, seed=-1)
    with pytest.raises(ConfigError):
        EstimatorConfig(k=4, seed=2**64)


@pytest.mark.parametrize("k", [np.int64(64), np.uint64(64), np.int32(64)])
def test_numpy_integers_give_the_same_estimate_as_python_ints(k):
    r = Relation.from_pairs(Side.LEFT, [(i, i % 7) for i in range(300)])
    g = group_and_prune(r, r.mirrored())
    want = estimate_median(g, EstimatorConfig(k=64, threshold_mode=MODE_START_AT_ONE, seed=1))
    cfg = EstimatorConfig(k=k, runs=np.int64(1), seed=np.uint64(1),
                          threshold_mode=MODE_START_AT_ONE)
    assert type(cfg.k) is type(cfg.runs) is type(cfg.seed) is int
    got = estimate_median(g, cfg)
    assert want.kind == POINT and want.value > 0
    assert (got.kind, got.value, got.v) == (want.kind, want.value, want.v)


@pytest.mark.parametrize("kw", [dict(k=2.5), dict(k=4, runs=3.0), dict(k=4, seed=1.5),
                                dict(k="4"), dict(k=4, runs=None), dict(epsilon=0.1, seed=None)])
def test_non_integer_k_runs_or_seed_rejected(kw):
    with pytest.raises(ConfigError):
        EstimatorConfig(**kw)


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
    assert run_once(g, cfg, key=(3,)) == run_once(g, cfg, key=(3,))
    cfg2 = EstimatorConfig(k=32, seed=78, threshold_mode=MODE_START_AT_ONE)
    assert run_once(g, cfg, key=(3,)) != run_once(g, cfg2, key=(3,))


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
        est = run_once(g, cfg, key=(i,))
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
            assert type(est.v) is int  # a numpy scalar breaks k << 64 / v and JSON
            assert est.work.accepted_offers <= z
        else:
            # The threshold never dropped: each group emitted all its pairs.
            assert est.kind == EXACT_SMALL and est.count == z
            assert type(est.count) is int
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
        est = run_once(g, cfg, key=(i,))
        assert est.kind == POINT
        within += abs(est.value / z - 1) <= 0.1875
    assert within >= 20  # 2/3 of 30


def test_sixty_runs_accuracy_start_at_one():
    r1, r2 = disjoint_instance(100, 32, 32)
    g = group_and_prune(r1, r2)
    z = exact_size(g).z
    cfg = EstimatorConfig(k=256, threshold_mode=MODE_START_AT_ONE, seed=2)
    ratios = [run_once(g, cfg, key=(i,)).value / z for i in range(60)]
    assert sum(abs(r - 1) <= 0.1875 for r in ratios) >= 40


def _estimate(value):
    return Estimate(POINT, value, 4, GRID)


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


def _median_of(monkeypatch, runs):
    """``estimate_median`` over ``runs`` returned in turn by a stubbed ``run_once``."""
    monkeypatch.setattr(estimator, "run_once", lambda grouped, cfg, key, pilot: runs[key[-1]])
    return estimate_median(grouped_from({(1, 1)}, {(1, 2)}), EstimatorConfig(k=4, runs=len(runs)))


def test_median_by_value(monkeypatch):
    for values in ((90.0, 100.0, 250.0), (250.0, 90.0, 100.0)):
        assert _median_of(monkeypatch, [_estimate(v) for v in values]).value == 100.0


def test_median_mixes_kinds_by_value(monkeypatch):
    # The median is taken by value whatever the runs' kinds and order, and it
    # carries the work of every run.
    kinds = [Estimate(UPPER_BOUND, 16.0, 4, GRID), _estimate(9.0), _estimate(30.0)]
    for order in itertools.permutations(range(3)):
        runs = [replace(kinds[i], work_per_run=(WorkCounters(passes=i + 1),)) for i in order]
        med = _median_of(monkeypatch, runs)
        assert med.kind == UPPER_BOUND and med.value == 16.0, order
        assert med.work_per_run == tuple(run.work_per_run[0] for run in runs), order


def test_work_counters_accumulate():
    r1, r2 = disjoint_instance(10, 8, 8)
    g = group_and_prune(r1, r2)
    est = run_once(g, EstimatorConfig(k=16, threshold_mode=MODE_START_AT_ONE, seed=3))
    work = est.work
    assert work.sorted_elements <= work.passes * g.tuple_count
    assert work.emitted_pairs >= work.accepted_offers >= 16
    assert work.total == work.sorted_elements + work.inner_iterations
    assert work.as_dict()["total"] == work.total


def test_passes_that_cannot_prune_sort_every_tuple_once():
    # At a threshold of 2**63 or more a cell is at least half the range, so
    # the occupancy pass never runs; start-at-one passes only widen.
    rng = random.Random(8600)
    checked = 0
    for trial in range(60):
        g = group_and_prune(*random_instance(rng, max_each=300, b_range=rng.choice([2, 10, 50])))
        if not len(g):
            continue
        for mode, k in ((MODE_LINEAR, 1), (MODE_START_AT_ONE, rng.choice([64, 1024]))):
            est = run_once(g, EstimatorConfig(k=k, threshold_mode=mode, seed=trial))
            if est.first_p >= 1 << 63:
                h = draw_pair_hash(run_rng(trial, (0,)))
                assert enumerator.prune(g, h, est.first_p) is g
                assert est.work.sorted_elements == est.work.passes * g.tuple_count
                checked += 1
    assert checked >= 25


def test_linear_runs_sort_at_least_the_tuples_of_a_pair_below_p():
    # The first pass sorts every tuple that lies in a pair hashing below its
    # threshold, and each pass sorts no more than every tuple.
    rng = random.Random(8700)
    pruned = 0
    for trial in range(60):
        g = group_and_prune(*random_instance(rng, max_each=400, a_range=2**31,
                                             b_range=rng.choice([10, 50, 150]), c_range=2**31))
        if not len(g):
            continue
        cfg = EstimatorConfig(k=rng.choice([1, 4, 16, 64]), seed=trial)
        est = run_once(g, cfg)
        assert est.first_p <= est.p0
        reachable = reachable_tuples(g, draw_pair_hash(run_rng(cfg.seed, (0,))), est.first_p)
        work = est.work
        assert reachable <= work.sorted_elements <= work.passes * g.tuple_count, trial
        pruned += work.sorted_elements < g.tuple_count
    assert pruned >= 10


def _golden_instances():
    for i in range(10):
        rng = random.Random(8100 + i)
        yield random_instance(rng, max_each=600 if i % 4 else 15,
                              a_range=rng.choice([40, 300, 2**31]), b_range=rng.choice([3, 12, 40]),
                              c_range=rng.choice([40, 300, 2**31]))
    yield scattered_instance(30, 20, 25, seed=8110)
    yield scattered_instance(4, 60, 50, seed=8111)


# (instance, mode, family): (kind, v, count, emitted_pairs, accepted_offers,
# combine_calls) of a median of three runs with k = 4, 16 or 64, recorded
# from the group-by-group scan that the chunked scan replaced.  The work
# columns of the start-at-one rows were recorded again when that mode began
# at p = 2k / total_product and widened in passes, and again when a pilot's
# distinct share aimed the first pass at c k / z; kind, v and count held.
# The linear rows' work columns were recorded again when linear mode took
# the same pilot-aimed first pass, capped at p0: each linear point row's
# work is now its start-at-one row's, and kind, v and count held.
GOLDEN = {
    (0, 'linear', 'wrapping64'): ('upper_bound', None, None, 1, 1, 3),
    (0, 'start-at-one', 'wrapping64'): ('exact_small', None, 3, 9, 9, 3),
    (1, 'linear', 'wrapping64'): ('point', 192517619329331022, None, 79, 72, 6),
    (1, 'start-at-one', 'wrapping64'): ('point', 192517619329331022, None, 79, 72, 6),
    (2, 'linear', 'wrapping64'): ('upper_bound', None, None, 12, 12, 3),
    (2, 'start-at-one', 'wrapping64'): ('point', 4404420784801294742, None, 253, 253, 6),
    (3, 'linear', 'wrapping64'): ('point', 10128892843752452, None, 22, 22, 7),
    (3, 'start-at-one', 'wrapping64'): ('point', 10128892843752452, None, 22, 22, 7),
    (4, 'linear', 'wrapping64'): ('exact_small', None, 0, 0, 0, 0),
    (4, 'start-at-one', 'wrapping64'): ('exact_small', None, 0, 0, 0, 0),
    (5, 'linear', 'wrapping64'): ('upper_bound', None, None, 33, 32, 3),
    (5, 'start-at-one', 'wrapping64'): ('point', 1250608086697260023, None, 294, 277, 6),
    (6, 'linear', 'wrapping64'): ('point', 273650612673254683, None, 20, 20, 7),
    (6, 'start-at-one', 'wrapping64'): ('point', 273650612673254683, None, 20, 20, 7),
    (7, 'linear', 'wrapping64'): ('point', 312986188108408929, None, 82, 80, 6),
    (7, 'start-at-one', 'wrapping64'): ('point', 312986188108408929, None, 82, 80, 6),
    (8, 'linear', 'wrapping64'): ('upper_bound', None, None, 0, 0, 3),
    (8, 'start-at-one', 'wrapping64'): ('exact_small', None, 1, 3, 3, 3),
    (9, 'linear', 'wrapping64'): ('point', 8272164375868444, None, 26, 26, 8),
    (9, 'start-at-one', 'wrapping64'): ('point', 8272164375868444, None, 26, 26, 8),
    (10, 'linear', 'wrapping64'): ('point', 19629127703516613, None, 82, 82, 6),
    (10, 'start-at-one', 'wrapping64'): ('point', 19629127703516613, None, 82, 82, 6),
    (11, 'linear', 'wrapping64'): ('point', 95841950032781603, None, 272, 272, 6),
    (11, 'start-at-one', 'wrapping64'): ('point', 95841950032781603, None, 272, 272, 6),
}


def test_outcomes_and_sketch_work_match_the_recorded_values():
    got = {}
    for i, (r1, r2) in enumerate(_golden_instances()):
        g = group_and_prune(r1, r2)
        for mode in (MODE_LINEAR, MODE_START_AT_ONE):
            cfg = EstimatorConfig(k=(4, 16, 64)[i % 3], threshold_mode=mode, runs=3,
                                  seed=8200 + i)
            e = estimate_median(g, cfg)
            got[i, mode, cfg.family] = (e.kind, e.v, e.count, e.work.emitted_pairs,
                                        e.work.accepted_offers, e.work.combine_calls)
    assert got == GOLDEN


@pytest.mark.parametrize("mode", [MODE_LINEAR, MODE_START_AT_ONE])
def test_chunk_size_changes_no_outcome_or_counter(monkeypatch, mode):
    rng = random.Random(8300)
    for trial in range(25):
        r1, r2 = random_instance(rng, max_each=400, a_range=rng.choice([50, 2**31]),
                                 b_range=rng.choice([2, 10, 50]), c_range=rng.choice([50, 2**31]))
        g = group_and_prune(r1, r2)
        cfg = EstimatorConfig(k=rng.choice([1, 4, 16, 64]), threshold_mode=mode, runs=3,
                              seed=trial)
        outcomes = []
        for tuples in (1, 16, enumerator.CHUNK_TUPLES):
            monkeypatch.setattr(enumerator, "CHUNK_TUPLES", tuples)
            outcomes.append(estimate_median(g, cfg))
        assert outcomes[0] == outcomes[1] == outcomes[2], trial


def single_pass_at_one(grouped, cfg, key=(0,)):
    """The sketch outcome of one pass over every chunk at threshold 1."""
    pair_hash = draw_pair_hash(run_rng(cfg.seed, key))
    state = KMinState(cfg.resolved_k, GRID)
    bounds = enumerator.chunk_bounds(grouped)
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = enumerator.sort_group(grouped, lo, hi, pair_hash, state.p)
        for g in range(hi - lo):
            enumerator.scan_group(chunk, g, state)
    return state.finalize()


def _schedule_instances():
    rng = random.Random(8400)
    for _ in range(70):
        # Few left and right values over many groups repeat each pair in
        # many groups, so z / total_product falls towards 0.01.
        spread = rng.choice([2, 3, 6, 20, 300, 2**31])
        yield random_instance(rng, max_each=rng.choice([80, 600]), a_range=spread,
                              b_range=rng.choice([4, 20, 100]), c_range=spread)
    yield disjoint_instance(20, 6, 7)


# A share no input exceeds: the first pass lists about c k occurrences,
# which hold fewer than k distinct pairs wherever pairs repeat.
OVERESTIMATE = Pilot(1, 1.0, 0.0)


def test_start_at_one_passes_give_the_outcome_of_one_pass_at_one():
    ratios, passes = [], []
    for i, (r1, r2) in enumerate(_schedule_instances()):
        g = group_and_prune(r1, r2)
        if not g.tuple_count:
            continue
        z = exact_size(g).z
        ratios.append(z / g.total_product)
        for k in (1, 5, 32, 200):
            cfg = EstimatorConfig(k=k, threshold_mode=MODE_START_AT_ONE, seed=8500 + i)
            want = exact_kth_hash(g, draw_pair_hash(run_rng(cfg.seed, (0,))), k)
            assert single_pass_at_one(g, cfg) == want, (i, k)
            # The pilot's share, then one too high, which makes the run
            # widen in passes.
            for pilot in (None, OVERESTIMATE):
                est = run_once(g, cfg, pilot=pilot)
                if want.filled:
                    assert (est.kind, est.v, est.count) == (POINT, want.v, None), (i, k)
                    assert est.value == (k << 64) / want.v
                else:
                    assert (est.kind, est.v, est.count) == (EXACT_SMALL, None, z), (i, k)
                    assert est.value == z
                work = est.work
                assert work.sorted_elements <= work.passes * g.tuple_count
                assert work.accepted_offers <= z
                if work.passes == 1:
                    # One pass offers each pair occurrence at most once,
                    assert work.emitted_pairs <= g.total_product
                    if not want.filled:
                        # and every one of them when it runs at 1.
                        assert work.emitted_pairs == g.total_product
                elif not want.filled:
                    # The last pass ran at 1 and offered every occurrence.
                    assert work.emitted_pairs >= g.total_product
            passes.append(work.passes)
    assert min(ratios) <= 0.02 and max(ratios) == 1
    assert passes.count(1) and passes.count(2) and max(passes) >= 3


def test_linear_passes_give_the_outcome_of_one_pass_at_p0(monkeypatch):
    # With first_threshold stubbed to 1, min(p0, 1) makes every linear run
    # one pass at p0, the schedule linear mode had before it took the pilot.
    def one_pass_at_p0(g, cfg):
        with monkeypatch.context() as m:
            m.setattr(estimator, "first_threshold", lambda grouped, k, pilot: GRID)
            return run_once(g, cfg)

    inputs = [grouped_from({(1, 1)}, {(2, 5)})]  # empty
    inputs += [group_and_prune(*r) for r in _schedule_instances()]
    kinds, widened = set(), set()
    for i, g in enumerate(inputs):
        for k, seed in itertools.product((1, 4, 16, 64), (8640 + i, 8740 + i)):
            cfg = EstimatorConfig(k=k, seed=seed)
            want = one_pass_at_p0(g, cfg)
            assert want.work.passes == (1 if g.tuple_count else 0)
            # The pilot's share, then one too high, which makes the run
            # widen in passes.
            for pilot in (None, OVERESTIMATE):
                est = run_once(g, cfg, pilot=pilot)
                assert (est.kind, est.v, est.count) == (want.kind, want.v, want.count), (i, k, seed)
                assert est.value == want.value and est.first_p <= est.p0 == want.p0
                work = est.work
                assert work.sorted_elements <= work.passes * g.tuple_count
                if work.passes == 1:
                    assert work.emitted_pairs <= g.total_product
                kinds.add(est.kind)
                if work.passes >= 2:
                    widened.add(est.kind)
    assert kinds == {POINT, UPPER_BOUND, EXACT_SMALL}
    assert widened == {POINT, UPPER_BOUND}


def occurrences_below(grouped, pair_hash, p):
    """The pair occurrences of ``grouped`` whose hash lies below ``p``, by
    brute force over every group."""
    return sum(int((pair_hash.h1.values(A)[:, None] - pair_hash.h2.values(C)[None, :]
                    < np.uint64(p)).sum())
               for A, C in (group_values(grouped, g) for g in range(len(grouped))))


def test_a_pass_probes_every_column_and_each_pair_it_offers(monkeypatch):
    # Each pass probes every column of the input once, whether it prunes or
    # not, and each pair it offers once; offers and passes are counted
    # where they happen.
    offers = []
    real_offer = KMinState.offer

    def counting_offer(self, pair, hv):
        offers[-1] += 1
        real_offer(self, pair, hv)

    sources = []
    real_chunk_bounds = estimator.chunk_bounds

    def recording(source, p):
        sources[-1].append(source.tuple_count)
        return real_chunk_bounds(source, p)

    monkeypatch.setattr(KMinState, "offer", counting_offer)
    monkeypatch.setattr(estimator, "chunk_bounds", recording)
    seen = set()
    for i, (r1, r2) in enumerate(_schedule_instances()):
        g = group_and_prune(r1, r2)
        for mode, k, pilot in itertools.product(THRESHOLD_MODES, (1, 16, 200),
                                                (None, OVERESTIMATE)):
            offers.append(0)
            sources.append([])
            work = run_once(g, EstimatorConfig(k=k, threshold_mode=mode, seed=8800 + i),
                            pilot=pilot).work
            assert work.passes == len(sources[-1])
            assert work.sorted_elements == sum(sources[-1])
            assert work.emitted_pairs == offers[-1]
            assert work.inner_iterations == work.passes * g.right_values.size + work.emitted_pairs
            seen.add(work.passes)
    assert {1, 2, 3, 4} <= seen


def test_estimate_records_the_pilot_and_first_threshold_its_runs_share():
    r1, r2 = scattered_instance(30, 20, 25, seed=8610)  # 15,000 occurrences
    g = group_and_prune(r1, r2)
    cfg = EstimatorConfig(k=64, runs=3, seed=8611, threshold_mode=MODE_START_AT_ONE)
    est = estimate_median(g, cfg)
    pilot = draw_pilot(g, cfg.seed)
    assert est.pilot == pilot and pilot.occurrences == g.total_product  # all of them
    assert pilot.distinct_share == 1.0 and pilot.standard_error == 0.0
    assert est.first_p == first_threshold(g, 64, pilot) < GRID
    # c = 1 + 3 / 8 with an exact share of 1: c k / total_product.
    assert est.first_p == -(-11 * 64 * GRID // (8 * g.total_product))
    for i in range(3):
        run = run_once(g, cfg, key=(i,))
        assert (run.pilot, run.first_p) == (pilot, est.first_p)
    # Linear mode draws the same pilot and caps its first pass at p0.
    linear = estimate_median(g, replace(cfg, threshold_mode=MODE_LINEAR))
    assert (linear.pilot, linear.first_p) == (pilot, est.first_p)
    assert linear.first_p < linear.p0 == GRID // 64
    for mode in THRESHOLD_MODES:
        empty = estimate_median(grouped_from({(1, 1)}, {(2, 5)}), replace(cfg, threshold_mode=mode))
        assert (empty.pilot, empty.first_p) == (Pilot(0), 0)


def _fraction_first_threshold(total_product, k, pilot):
    share = 1.0 if pilot.distinct_share is None else pilot.distinct_share
    error = pilot.standard_error or 0.0
    margin = 1 + 3 / math.sqrt(k) + 3 * error / share
    p = Fraction(margin) * k * GRID / (Fraction(share) * total_product)
    return min(GRID, max(1, math.ceil(p)))


def test_first_threshold_equals_the_fraction_formula():
    rng = random.Random(8615)
    shares = [1e-12, 1e-9, 2**-20, 0.1, 1 / 3, 0.5, 0.999999, 1.0]
    shares += [10 ** rng.uniform(-12, 0) for _ in range(12)]
    ks = [1, 2, 3, 64, 1000, 2**20, 2**40 + 3, 2**62, 2**63] + [rng.randint(1, 2**63) for _ in range(6)]
    # Beyond 2**62 only to reach the lower clip: p >= 2**64 / total_product.
    totals = [1, 2, 7, 15_000, 2**31 - 1, 2**40, 2**62] + [rng.randint(1, 2**62) for _ in range(6)]
    totals += [2**66, 2**90 + 1]
    clipped_low = clipped_high = 0
    for share in shares:
        pilots = [Pilot(9, share, 0.0), Pilot(9, share, None), Pilot(9, share, share / 7)]
        if share == 1.0:
            pilots.append(Pilot(0))
        for pilot in pilots:
            for k in ks:
                for total in totals:
                    want = _fraction_first_threshold(total, k, pilot)
                    got = first_threshold(SimpleNamespace(total_product=total), k, pilot)
                    assert got == want, (total, k, pilot)
                    clipped_low += want == 1
                    clipped_high += want == GRID
    assert clipped_low and clipped_high


def _pilot_input(kind):
    """Pairs that repeat across groups, over 3,000 left values of the given
    kind, with more than PILOT_OCCURRENCES pair occurrences."""
    rng = random.Random(8620)
    m = 3000
    if kind == "fimi":
        # A self-join's left values are the line indices 0 to m - 1.
        lines = (" ".join(map(str, rng.sample(range(300), rng.randint(3, 12))))
                 for _ in range(m))
        left = parse_relation("\n".join(lines) + "\n", FIMI, Side.LEFT)
        return group_and_prune(left, left.mirrored())
    values = {"contiguous": lambda: range(m), "strides": lambda: [i << 20 for i in range(m)],
              "scattered": lambda: rng.sample(range(2**32), m)}[kind]()
    t1 = {(rng.choice(values), b) for b in range(400) for _ in range(20)}
    t2 = {(b, c) for b in range(400) for c in rng.sample(range(80), rng.randint(5, 25))}
    return grouped_from(t1, t2)


@pytest.mark.parametrize("kind", ["contiguous", "strides", "scattered", "fimi"])
def test_pilot_share_is_within_four_standard_errors(kind):
    g = _pilot_input(kind)
    r = exact_size(g).z / g.total_product
    assert g.total_product > 4 * PILOT_OCCURRENCES and r < 0.9
    for seed in range(6):
        pilot = draw_pilot(g, seed)
        assert 0 < pilot.occurrences <= PILOT_OCCURRENCES, seed
        assert 0 < pilot.standard_error < 0.1
        assert abs(pilot.distinct_share - r) <= 4 * pilot.standard_error, seed


def test_pilot_samples_at_most_its_budget():
    # Ten left values with 20,000 pair occurrences each, above the budget,
    # and 2,000 with 40 each.
    t1 = {(a, a % 100) for a in range(10, 2010)} | {(a, 100 + b) for a in range(10)
                                                     for b in range(20)}
    t2 = {(b, c) for b in range(100) for c in range(40)} | {(b, c) for b in range(100, 120)
                                                           for c in range(1000)}
    g = grouped_from(t1, t2)
    assert g.total_product == 280_000
    sampled = [draw_pilot(g, seed).occurrences for seed in range(40)]
    assert max(sampled) <= PILOT_OCCURRENCES and min(sampled) > 0


def test_pilot_memory_does_not_grow_with_the_left_tuples():
    # 64 groups of n / 64 left values and two right values each: the pilot
    # samples at most PILOT_OCCURRENCES of the 2n occurrences at any n, and
    # hashes the left values a slice of CHUNK_TUPLES at a time.
    groups = 64
    for n in (1 << 16, 1 << 20):
        g = GroupedInput(np.arange(groups, dtype=np.uint64), np.arange(0, n + 1, n // groups),
                         np.arange(n, dtype=np.uint64), np.arange(0, 2 * groups + 1, 2),
                         np.tile(np.array([7, 9], dtype=np.uint64), groups))
        tracemalloc.start()
        try:
            pilot = draw_pilot(g, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < pilot.occurrences <= PILOT_OCCURRENCES and pilot.distinct_share == 1.0
        bound = 64 * (enumerator.CHUNK_TUPLES + PILOT_OCCURRENCES)
        assert peak <= bound, (n, peak, bound)


def test_a_pilot_that_sees_no_repeats_still_gives_the_outcome_of_one_pass_at_one():
    seed = 8630
    values = np.arange(1000, dtype=np.uint64)
    # Outside the top half of the pilot hash's range a value is never
    # sampled once the input holds more than PILOT_OCCURRENCES occurrences.
    in_top_half = pilot_values(draw_single(pilot_rng(seed)), values) >= np.uint64(GRID >> 1)
    repeating, once = values[~in_top_half][:40].tolist(), values[in_top_half][:40].tolist()
    # The repeating values meet the same 40 right values in each of 100
    # groups; each other value meets 40 right values of its own.
    t1 = {(a, b) for b in range(100) for a in repeating} | {
        (a, 100 + i) for i, a in enumerate(once)}
    t2 = {(b, c) for b in range(100) for c in range(40)} | {
        (100 + i, 1000 + 40 * i + j) for i in range(40) for j in range(40)}
    g = grouped_from(t1, t2)
    assert (exact_size(g).z, g.total_product) == (3200, 161_600)
    assert draw_pilot(g, seed).distinct_share in (None, 1.0)
    for k in (1000, 3200, 5000):
        cfg = EstimatorConfig(k=k, threshold_mode=MODE_START_AT_ONE, seed=seed)
        est = run_once(g, cfg)
        want = single_pass_at_one(g, cfg)
        assert est.work.passes >= 2
        if want.filled:
            assert (est.kind, est.v) == (POINT, want.v)
        else:
            # The first pass offered every occurrence below its threshold,
            # the second, at 1, every occurrence.
            assert (est.kind, est.count, est.work.passes) == (EXACT_SMALL, 3200, 2)
            below = occurrences_below(g, draw_pair_hash(run_rng(seed, (0,))), est.first_p)
            assert est.work.emitted_pairs == g.total_product + below == 167_549
