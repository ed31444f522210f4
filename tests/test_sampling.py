import math
import statistics
import struct

import pytest

from joinsketch import (
    MERSENNE,
    DistinctSample,
    EstimatorConfig,
    PairwiseHash,
    Relation,
    SampleFormatError,
    Side,
    beta_bound,
    draw_sample,
    estimate_from_samples,
    exact_size,
    group_and_prune,
    load_sample,
    save_sample,
    sufficient_sample_size,
    theoretical_epsilon,
)
from joinsketch import plan_sample_size
from joinsketch.estimator import run_once
from joinsketch.hashing import GRID, draw_single, spawn_rng
from joinsketch.sampling import membership_cut

from conftest import disjoint_instance


def left_relation(tuples):
    return Relation.from_pairs(Side.LEFT, tuples)


def test_probability_one_keeps_everything():
    r = left_relation({(i, i % 7) for i in range(200)})
    s = draw_sample(r, 1.0, draw_single(spawn_rng(1)))
    assert s.relation == r
    assert s.cut == GRID
    assert s.source_tuples == 200


def test_membership_is_per_value():
    # Tuples sharing the sampled attribute stay or go together.
    r = left_relation({(a, b) for a in range(100) for b in range(3)})
    s = draw_sample(r, 0.4, draw_single(spawn_rng(2)))
    kept_values = {a for a, _ in s.relation.tuples}
    for a in kept_values:
        assert {(a, b) for b in range(3)} <= s.relation.tuples


def test_right_side_samples_on_second_attribute():
    r = Relation.from_pairs(Side.RIGHT, {(b, c) for b in range(3) for c in range(100)})
    s = draw_sample(r, 0.4, draw_single(spawn_rng(3)))
    kept_values = {c for _, c in s.relation.tuples}
    for c in kept_values:
        assert {(b, c) for b in range(3)} <= s.relation.tuples


def test_sampling_is_idempotent_and_monotone_in_prob():
    r = left_relation({(i, i % 5) for i in range(500)})
    selector = draw_single(spawn_rng(4))
    small = draw_sample(r, 0.2, selector)
    again = draw_sample(r, 0.2, selector)
    big = draw_sample(r, 0.6, selector)
    assert small.relation == again.relation
    assert small.relation.tuples <= big.relation.tuples


def test_sample_size_tracks_binomial():
    # One tuple per value, so the kept count is Binomial(1000, 1/2).
    r = left_relation({(i, 0) for i in range(1000)})
    sizes = [len(draw_sample(r, 0.5, draw_single(spawn_rng(5, i))).relation) for i in range(60)]
    mean = statistics.mean(sizes)
    se = math.sqrt(1000 * 0.25) / math.sqrt(len(sizes))
    assert abs(mean - 500) <= 3 * se


def test_invalid_probability_rejected():
    r = left_relation({(1, 1)})
    for prob in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            draw_sample(r, prob, draw_single(spawn_rng(6)))
    assert membership_cut(1.0) == GRID


def test_sufficient_sample_size_frozen_example():
    s = sufficient_sample_size(10**6, 10**6, 10**3, 10**3, 10**8, epsilon=0.1, delta=1 / 6)
    assert s == 26697


def test_sufficient_sample_size_scales():
    base = sufficient_sample_size(10**6, 10**6, 10**3, 10**3, 10**8, 0.1, 1 / 6)
    halved = sufficient_sample_size(10**6, 10**6, 10**3, 10**3, 2 * 10**8, 0.1, 1 / 6)
    assert abs(2 * halved - base) <= 2  # doubling z halves s
    quartered = sufficient_sample_size(10**6, 10**6, 10**3, 10**3, 10**8, 0.05, 1 / 6)
    assert abs(quartered - 4 * base) <= 4  # halving epsilon quadruples s


def test_sufficient_sample_size_validation():
    with pytest.raises(ValueError):
        sufficient_sample_size(0, 1, 1, 1, 1, 0.1, 0.1)
    with pytest.raises(ValueError):
        sufficient_sample_size(1, 1, 1, 1, 1, 1.5, 0.1)
    with pytest.raises(ValueError):
        sufficient_sample_size(1, 1, 1, 1, 1, 0.1, 0.5)


def test_beta_bound_direct_value():
    beta = beta_bound(10**6, 10**6, 10**3, 10**3, 10**4, 0.1)
    assert beta == pytest.approx(2.8e8, rel=1e-12)
    assert beta_bound(10**6, 10**6, 10**3, 10**3, 2 * 10**4, 0.1) == pytest.approx(beta / 2)


@pytest.mark.parametrize(
    "z,n_distinct,eps_10pct,eps_1pct",
    [
        (5.24e3, 75, 2.00, 6.33),
        (13.8e3, 129, 1.62, 5.12),
        (7.17e3, 119, 2.16, 6.82),
    ],
)
def test_theoretical_epsilon_reference_table(z, n_distinct, eps_10pct, eps_1pct):
    # Self-join style instances (n1 = n2, n_a = n_c); the relation size
    # cancels so any positive n works.
    n = 10**5
    for prob, want in ((0.1, eps_10pct), (0.01, eps_1pct)):
        got = theoretical_epsilon(n, n, n_distinct, n_distinct, prob * n, z)
        assert round(got, 2) == want


def test_theoretical_epsilon_inverts_beta():
    eps = theoretical_epsilon(1000, 2000, 50, 70, 100, 12345.0)
    assert beta_bound(1000, 2000, 50, 70, 100, eps) == pytest.approx(12345.0)


def test_plan_from_size_lower_bound():
    plan = plan_sample_size(10**6, 10**6, 10**3, 10**3, epsilon=0.1, z_lower=10**8)
    assert plan.s == 26697
    assert plan.p1 == pytest.approx(0.026697)
    assert plan.p2 == plan.p1
    assert plan.beta == pytest.approx(beta_bound(10**6, 10**6, 10**3, 10**3, 26697, 0.1))
    assert plan.delta == pytest.approx(1 / 6)


def test_plan_from_fixed_sample_size():
    plan = plan_sample_size(2000, 2000, 500, 500, epsilon=0.5, s=1000)
    assert plan.p1 == 0.5 and plan.p2 == 0.5
    assert plan.beta == pytest.approx(beta_bound(2000, 2000, 500, 500, 1000, 0.5))
    small = plan_sample_size(100, 5000, 10, 10, epsilon=0.5, s=400)
    assert small.p1 == 1.0 and small.p2 == pytest.approx(0.08)


def test_plan_needs_exactly_one_target():
    with pytest.raises(ValueError):
        plan_sample_size(10, 10, 5, 5, epsilon=0.5)
    with pytest.raises(ValueError):
        plan_sample_size(10, 10, 5, 5, epsilon=0.5, z_lower=10.0, s=5)


def _manual_sample(side, prob, tuples):
    # Sample object with hand-picked contents; selector is irrelevant here.
    return DistinctSample(
        side=side,
        prob=prob,
        cut=membership_cut(prob),
        selector=PairwiseHash(1, 0),
        relation=Relation.from_pairs(side, tuples),
        source_tuples=len(tuples) * 2,
        source_distinct=len(tuples),
    )


def test_scaling_arithmetic():
    # 25 distinct result pairs at p1 = p2 = 0.5 scale to 100.
    left = _manual_sample(Side.LEFT, 0.5, {(a, 0) for a in range(5)})
    right = _manual_sample(Side.RIGHT, 0.5, {(0, c) for c in range(5)})
    result = estimate_from_samples(left, right, EstimatorConfig(k=16, seed=1))
    assert result.method == "exact"
    assert result.sampled_size == 25.0
    assert result.value == pytest.approx(100.0)


def test_empty_samples_estimate_zero():
    left = _manual_sample(Side.LEFT, 0.25, set())
    right = _manual_sample(Side.RIGHT, 0.25, {(0, 1)})
    result = estimate_from_samples(left, right, EstimatorConfig(k=16, seed=1))
    assert result.value == 0.0


def test_side_mismatch_rejected():
    left = _manual_sample(Side.LEFT, 0.5, {(1, 2)})
    with pytest.raises(ValueError):
        estimate_from_samples(left, left, EstimatorConfig(k=16, seed=1))


def test_full_probability_sketch_path_reduces_to_core_estimator():
    r1, r2 = disjoint_instance(40, 10, 10)
    s1 = draw_sample(r1, 1.0, draw_single(spawn_rng(7, 0)))
    s2 = draw_sample(r2, 1.0, draw_single(spawn_rng(7, 1)))
    cfg = EstimatorConfig(k=64, seed=123, threshold_mode="start-at-one")
    result = estimate_from_samples(s1, s2, cfg, exact_cutoff=0)
    core = run_once(group_and_prune(r1, r2), cfg, key=(0,))
    assert result.method == "sketch"
    assert result.value == core.value


def test_sketch_fallback_flag_for_unfilled_inner_sketch():
    r1, r2 = disjoint_instance(3, 4, 4)  # z = 48 < k
    s1 = draw_sample(r1, 1.0, draw_single(spawn_rng(8, 0)))
    s2 = draw_sample(r2, 1.0, draw_single(spawn_rng(8, 1)))
    result = estimate_from_samples(s1, s2, EstimatorConfig(k=256, seed=5), exact_cutoff=0)
    assert result.method == "sketch"
    assert result.fallback
    assert result.value == 48.0


def test_unbiased_at_moderate_scale():
    r1, r2 = disjoint_instance(4, 120, 120)
    z = exact_size(group_and_prune(r1, r2)).z
    values = []
    for t in range(80):
        s1 = draw_sample(r1, 0.3, draw_single(spawn_rng(9, t, 0)))
        s2 = draw_sample(r2, 0.3, draw_single(spawn_rng(9, t, 1)))
        values.append(
            estimate_from_samples(s1, s2, EstimatorConfig(k=256, seed=t), exact_cutoff=10**6).value
        )
    mean = statistics.mean(values)
    se = statistics.stdev(values) / math.sqrt(len(values))
    assert abs(mean - z) <= 3 * se


def test_sample_round_trip(tmp_path):
    r = left_relation({(i * 3, i % 9) for i in range(400)})
    sample = draw_sample(r, 0.35, draw_single(spawn_rng(10)))
    path = tmp_path / "left.sample"
    save_sample(sample, str(path))
    loaded = load_sample(str(path))
    assert loaded == sample


def test_sample_round_trip_all_pass_cut_and_mersenne(tmp_path):
    r = Relation.from_pairs(Side.RIGHT, {(i % 9, i) for i in range(50)})
    sample = draw_sample(r, 1.0, draw_single(spawn_rng(11), MERSENNE))
    path = tmp_path / "right.sample"
    save_sample(sample, str(path))
    loaded = load_sample(str(path))
    assert loaded == sample
    assert loaded.cut == GRID


def test_empty_sample_round_trip(tmp_path):
    sample = _manual_sample(Side.LEFT, 0.5, set())
    path = tmp_path / "empty.sample"
    save_sample(sample, str(path))
    assert load_sample(str(path)) == sample


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.sample"
    path.write_bytes(b"not a sample file at all")
    with pytest.raises(SampleFormatError):
        load_sample(str(path))


def test_load_rejects_wrong_version(tmp_path):
    r = left_relation({(1, 2)})
    sample = draw_sample(r, 0.9, draw_single(spawn_rng(12)))
    path = tmp_path / "v.sample"
    save_sample(sample, str(path))
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # version word
    path.write_bytes(bytes(blob))
    with pytest.raises(SampleFormatError):
        load_sample(str(path))


def test_load_rejects_truncated_body(tmp_path):
    r = left_relation({(i, 0) for i in range(10)})
    sample = draw_sample(r, 1.0, draw_single(spawn_rng(13)))
    path = tmp_path / "t.sample"
    save_sample(sample, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(SampleFormatError):
        load_sample(str(path))


def test_sample_file_layout(tmp_path):
    # Little-endian header, then one (u32, u32) record per tuple in sorted
    # tuple order: the layout every earlier version wrote.
    r = Relation.from_pairs(Side.RIGHT, {(i % 9, 7 * i) for i in range(60)})
    sample = draw_sample(r, 0.5, draw_single(spawn_rng(14)))
    path = tmp_path / "layout.sample"
    save_sample(sample, str(path))
    tuples = sorted(sample.relation.tuples)
    header = struct.pack(
        "<4sHBBQQQQdQQQ", b"JPDS", 1, 1, 0, sample.selector.multiplier, sample.selector.addend,
        sample.cut, 0, 0.5, 60, 60, len(tuples),
    )
    body = b"".join(struct.pack("<II", x, y) for x, y in tuples)
    assert 0 < len(tuples) < 60
    assert path.read_bytes() == header + body


def _patched(tmp_path, offset=None, value=b"", body=None):
    r = left_relation({(i, i % 4) for i in range(20)})
    path = tmp_path / "p.sample"
    save_sample(draw_sample(r, 1.0, draw_single(spawn_rng(15))), str(path))
    blob = bytearray(path.read_bytes())
    if offset is not None:
        blob[offset:offset + len(value)] = value
    if body is not None:
        blob[struct.calcsize("<4sHBBQQQQdQQQ"):] = body(blob[struct.calcsize("<4sHBBQQQQdQQQ"):])
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("prob", [0.0, -0.25, 1.5, float("nan"), float("inf")])
def test_load_rejects_probability_outside_unit_interval(tmp_path, prob):
    path = _patched(tmp_path, 40, struct.pack("<d", prob))
    with pytest.raises(SampleFormatError, match="probability"):
        load_sample(str(path))


def test_load_rejects_cut_that_does_not_match_probability(tmp_path):
    path = _patched(tmp_path, 40, struct.pack("<d", 0.5))  # the cut stays at 2**64
    with pytest.raises(SampleFormatError, match="cut"):
        load_sample(str(path))


@pytest.mark.parametrize(
    "source_tuples, source_distinct, count",
    [
        (19, 19, None),  # more records than source tuples
        (20, 21, None),  # more distinct values than source tuples
        (20, 0, None),  # no distinct value in a non-empty source
        (1, 10**6, 3),  # three records from a one-tuple source
    ],
)
def test_load_rejects_header_counts_that_disagree(tmp_path, source_tuples, source_distinct, count):
    # The sample keeps all 20 tuples of 20 distinct values; the last case
    # also cuts the records to 3.
    path = _patched(tmp_path, 48, struct.pack("<QQ", source_tuples, source_distinct))
    if count is not None:
        blob = path.read_bytes()
        size = struct.calcsize("<4sHBBQQQQdQQQ")
        path.write_bytes(blob[:64] + struct.pack("<Q", count) + blob[size:size + 8 * count])
    with pytest.raises(SampleFormatError, match="counts disagree"):
        load_sample(str(path))


@pytest.mark.parametrize(
    "body",
    [
        lambda b: b[8:16] + b[0:8] + b[16:],  # first two records swapped
        lambda b: b[0:8] + b[0:8] + b[16:],  # first record twice
    ],
)
def test_load_rejects_records_not_strictly_ascending(tmp_path, body):
    path = _patched(tmp_path, body=body)
    with pytest.raises(SampleFormatError, match="ascending"):
        load_sample(str(path))
