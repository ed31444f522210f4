"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Statistical criteria use fixed seeds, so outcomes are stable.
"""

import csv
import json
import math
import random
import statistics
import time

import numpy as np
import pytest

from joinsketch import (
    EXACT_SMALL,
    MODE_LINEAR,
    MODE_START_AT_ONE,
    POINT,
    EstimatorConfig,
    Relation,
    Side,
    draw_sample,
    estimate_from_samples,
    estimate_median,
    exact_size,
    group_and_prune,
)
from joinsketch.cli import main as cli_main, observed_epsilon
from joinsketch.enumerator import scan_group, sort_group
from joinsketch.estimator import choose_threshold, run_once
from joinsketch.hashing import GRID, Pcg64Stream, draw_pair_hash, draw_single, run_rng
from joinsketch.oracle import exact_kth_hash
from joinsketch.relation import load_relation
from conftest import (FixedThreshold, disjoint_instance, random_instance, scattered_instance,
                      single_group)


def report(number, name, ok, detail=""):
    print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def accuracy_instance():
    # 100 disjoint groups of 32 x 32 scattered values: z = 102400, n = 6400.
    r1, r2 = scattered_instance(100, 32, 32)
    grouped = group_and_prune(r1, r2)
    z = exact_size(grouped).z
    assert z == 102_400
    return grouped, z


@pytest.fixture(scope="module")
def accuracy_ratios(accuracy_instance):
    # Shared by criteria 4 and 5: 200 single-run trials per sketch size in
    # the start-at-one protocol (the linear-work threshold cannot fill a
    # k = 1024 sketch at this z, so the comparison is only defined here).
    grouped, z = accuracy_instance
    ratios = {}
    elapsed = {}
    for k in (256, 1024):
        cfg = EstimatorConfig(k=k, threshold_mode=MODE_START_AT_ONE, seed=1870)
        start = time.monotonic()
        trials = []
        for t in range(200):
            est = run_once(grouped, cfg, key=(t,))
            assert est.kind == POINT
            trials.append(est.value / z)
        elapsed[k] = time.monotonic() - start
        ratios[k] = trials
    return ratios, elapsed


def test_criterion_1_oracle_equivalence():
    rng = random.Random(48109)
    start = time.monotonic()
    checked = 0
    for i in range(1000):
        r1, r2 = random_instance(rng, max_each=200)
        grouped = group_and_prune(r1, r2)
        z = exact_size(grouped).z
        cfg = EstimatorConfig(k=z + 1, threshold_mode=MODE_START_AT_ONE, seed=i)
        est = run_once(grouped, cfg)
        assert est.kind == EXACT_SMALL and est.count == z, (i, est, z)
        checked += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "oracle equivalence",
        checked == 1000 and elapsed < 30.0,
        f"instances={checked} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_kth_hash_equivalence():
    rng = random.Random(52003)
    checked = 0
    while checked < 200:
        r1, r2 = random_instance(rng, max_each=250, a_range=60, b_range=8, c_range=60)
        grouped = group_and_prune(r1, r2)
        z = exact_size(grouped).z
        if z == 0:
            continue
        assert z <= 10_000
        k = rng.randint(1, z)
        cfg = EstimatorConfig(k=k, threshold_mode=MODE_START_AT_ONE, seed=9000)
        est = run_once(grouped, cfg, key=(checked,))
        want = exact_kth_hash(grouped, draw_pair_hash(run_rng(9000, (checked,))), k)
        assert est.kind == POINT and want.filled
        assert est.v == want.v, (checked, est.v, want.v)
        checked += 1
    report(2, "k-th hash equivalence", checked == 200, f"instances={checked}")


def test_criterion_3_enumeration_completeness():
    rng = random.Random(61500)
    thresholds = [0, 1 << 62, 1 << 63, GRID - 1]
    for trial in range(1000):
        na, nc = rng.randint(1, 100), rng.randint(1, 100)
        A = rng.sample(range(100_000), na)
        C = rng.sample(range(100_000), nc)
        pair_hash = draw_pair_hash(Pcg64Stream(61500, (trial,)))
        p = thresholds[trial % 4]
        chunk = sort_group(single_group(A, C), 0, 1, pair_hash, p)
        sketch = FixedThreshold(p)
        scan_group(chunk, 0, sketch)
        got = sketch.pairs
        # A pass probes each column once and each pair it lists once: the
        # chunk lists no pair beyond those the scan emits.
        assert len(chunk.pairs) == len(got), trial
        assert len(got) == len(set(got)), trial
        hx = pair_hash.h1.values(np.asarray(A, dtype=np.uint64))
        hy = pair_hash.h2.values(np.asarray(C, dtype=np.uint64))
        mask = (hx[:, None] - hy[None, :]) < np.uint64(p) if p else np.zeros((na, nc), bool)
        want = {(A[i], C[j]) for i, j in zip(*np.nonzero(mask))}
        assert set(got) == want, trial
    report(3, "enumeration completeness", True, "groups=1000 thresholds=4")


def test_criterion_4_accuracy_k256(accuracy_ratios):
    ratios, elapsed = accuracy_ratios
    epsilon = math.sqrt(9.0 / 256)  # 0.1875
    within = sum(abs(r - 1.0) <= epsilon for r in ratios[256])
    fraction = within / len(ratios[256])
    report(
        4,
        "point accuracy at k=256",
        fraction >= 0.567 and elapsed[256] < 120.0,
        f"within={fraction:.3f} (needed 0.567) trials={len(ratios[256])} elapsed={elapsed[256]:.1f}s",
    )


@pytest.mark.parametrize("stride", [1, 2**16, 2**20])
def test_criterion_4_accuracy_on_structured_ids(stride):
    # Ids in arithmetic progression are where a multiply-add hash is weakest.
    # Full product of 400 left and 250 right ids through 4 join values:
    # z = 100000 > k**2, each pair reached 4 times.
    left = Relation.from_pairs(Side.LEFT, [(i * stride, b) for i in range(400) for b in range(4)])
    right = Relation.from_pairs(Side.RIGHT, [(b, j * stride) for b in range(4) for j in range(250)])
    grouped = group_and_prune(left, right)
    z = exact_size(grouped).z
    assert z == 100_000
    epsilon = math.sqrt(9.0 / 256)
    cfg = EstimatorConfig(k=256, threshold_mode=MODE_START_AT_ONE, seed=1871)
    within = 0
    for t in range(200):
        est = run_once(grouped, cfg, key=(t,))
        assert est.kind == POINT
        within += abs(est.value / z - 1.0) <= epsilon
    report(4, f"point accuracy at k=256, ids at stride {stride}", within / 200 >= 0.567,
           f"within={within / 200:.3f} (needed 0.567) trials=200")


def test_criterion_5_error_shrinks_with_k(accuracy_ratios):
    ratios, _ = accuracy_ratios
    eps_256 = observed_epsilon(ratios[256])
    eps_1024 = observed_epsilon(ratios[1024])
    ratio = eps_256 / eps_1024
    report(
        5,
        "quantile error shrinks with k",
        ratio >= 1.5,
        f"eps256={eps_256:.4f} eps1024={eps_1024:.4f} ratio={ratio:.2f}",
    )


def test_criterion_6_median_amplification(accuracy_instance):
    grouped, z = accuracy_instance
    epsilon = math.sqrt(9.0 / 256)
    cfg = EstimatorConfig(k=256, threshold_mode=MODE_START_AT_ONE, seed=2024, runs=9)
    outside = 0
    repetitions = 100
    for rep in range(repetitions):
        est = estimate_median(grouped, cfg, key_prefix=(rep,))
        outside += abs(est.value / z - 1.0) > epsilon
    report(
        6,
        "median amplification",
        outside / repetitions <= 0.10,
        f"outside={outside}/{repetitions}",
    )


def _work_corpus(mini_fimi_path):
    corpus = []
    r1, r2 = disjoint_instance(100, 32, 32)
    corpus.append(("synthetic-grid", group_and_prune(r1, r2)))
    rng = random.Random(7340)
    for i in range(3):
        r1, r2 = random_instance(rng, max_each=800, a_range=300, b_range=30, c_range=300)
        corpus.append((f"random-{i}", group_and_prune(r1, r2)))
    base = load_relation(str(mini_fimi_path), "fimi")
    corpus.append(("mini-fimi", group_and_prune(base, base.mirrored())))
    return corpus


def test_criterion_7_linear_work(mini_fimi_path):
    k = 256
    # Work bound: every run's scan-side work stays within 16n.
    for name, grouped in _work_corpus(mini_fimi_path):
        cfg = EstimatorConfig(k=k, threshold_mode=MODE_LINEAR, seed=3111)
        for s in range(20):
            est = run_once(grouped, cfg, key=(s,))
            bound = 16 * grouped.tuple_count
            assert est.work.total <= bound, (name, s, est.work.total, bound)

    # Emission bound: per group, mean candidate emissions over seeds stay
    # within 4 * max(|A|, |C|) at the linear-work threshold.
    r1, r2 = disjoint_instance(100, 32, 32)
    grouped = group_and_prune(r1, r2)
    p0 = choose_threshold(grouped, k, MODE_LINEAR)
    seeds = 100
    emitted = [0] * len(grouped)
    for s in range(seeds):
        pair_hash = draw_pair_hash(run_rng(3222, (s,)))
        chunk = sort_group(grouped, 0, len(grouped), pair_hash, p0)
        for gi in range(len(grouped)):
            sketch = FixedThreshold(p0)
            scan_group(chunk, gi, sketch)
            emitted[gi] += len(sketch.pairs)
    worst = 0.0
    left_sizes = np.diff(grouped.left_offsets).tolist()
    right_sizes = np.diff(grouped.right_offsets).tolist()
    for gi, (left_size, right_size) in enumerate(zip(left_sizes, right_sizes)):
        limit = 4 * max(left_size, right_size)
        mean = emitted[gi] / seeds
        worst = max(worst, mean / limit)
        assert mean <= limit, (gi, mean, limit)
    report(7, "linear work", True, f"instances=5 seeds={seeds} worst_emission_share={worst:.2f}")


@pytest.fixture(scope="module")
def sampling_instance():
    # 4 disjoint groups of 500 x 500: z = 10^6, n1 = n2 = 2000,
    # distinct left values = distinct right values = 2000.
    r1, r2 = disjoint_instance(4, 500, 500)
    z = exact_size(group_and_prune(r1, r2)).z
    assert z == 1_000_000
    return r1, r2, z


def test_criterion_8_sampling_unbiased_and_reliable(sampling_instance):
    r1, r2, z = sampling_instance

    # Unbiasedness at p1 = p2 = 0.1 over 500 trials; the sampled products
    # are tiny, so |Z'| is counted exactly and only sampling noise remains.
    values = []
    for t in range(500):
        s1 = draw_sample(r1, 0.1, draw_single(Pcg64Stream(8100, (t, 0))))
        s2 = draw_sample(r2, 0.1, draw_single(Pcg64Stream(8100, (t, 1))))
        res = estimate_from_samples(s1, s2, EstimatorConfig(k=1024, seed=t), exact_cutoff=10**6)
        values.append(res.value)
    mean = statistics.mean(values)
    se = statistics.stdev(values) / math.sqrt(len(values))
    unbiased_ok = abs(mean - z) <= 3 * se

    # Reliability regime: pick s so that beta < z / 2, then at least
    # 5/6 - 3 sigma of trials must land within 1 +- epsilon.
    epsilon = 0.5
    prob = 0.5
    s = prob * 2000
    from joinsketch import beta_bound

    beta = beta_bound(2000, 2000, 2000, 2000, s, epsilon)
    assert beta < z / 2, beta
    trials = 200
    within = 0
    for t in range(trials):
        s1 = draw_sample(r1, prob, draw_single(Pcg64Stream(8200, (t, 0))))
        s2 = draw_sample(r2, prob, draw_single(Pcg64Stream(8200, (t, 1))))
        res = estimate_from_samples(s1, s2, EstimatorConfig(k=1024, seed=t))
        assert res.method == "sketch"
        within += abs(res.value / z - 1.0) <= epsilon
    floor = 5.0 / 6.0 - 3.0 * math.sqrt((5.0 / 6.0) * (1.0 / 6.0) / trials)
    regime_ok = within / trials >= floor
    report(
        8,
        "sampling estimator",
        unbiased_ok and regime_ok,
        f"mean={mean:.0f} z={z} (3se={3 * se:.0f}); regime {within}/{trials} needed {floor:.3f}",
    )


def test_criterion_9_experiment_harness_schema(tmp_path, capsys, mini_fimi_path):
    code = cli_main(
        [
            "experiment", "--self", str(mini_fimi_path), "--format", "fimi",
            "-k", "16", "--trials", "60", "--seed", "14",
            "--name", "mini", "--out-dir", str(tmp_path), "--json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out)
    for field in (
        "instance", "k", "trials", "runs", "exact",
        "theoretical_epsilon", "observed_epsilon", "ratios", "trial_estimates",
    ):
        assert field in summary, field
    assert summary["trials"] == 60
    assert summary["theoretical_epsilon"] == pytest.approx(math.sqrt(9.0 / 16))
    assert len(summary["ratios"]) == 60

    with open(tmp_path / "mini_cdf.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["ratio"] for r in rows] and len(rows) == 60
    ratios = [float(r["ratio"]) for r in rows]
    cumulative = [float(r["cumulative_probability"]) for r in rows]
    assert ratios == sorted(ratios)
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == 1.0

    with open(tmp_path / "mini_summary.json") as fh:
        assert json.load(fh) == summary
    report(9, "experiment harness formats", True, "fimi ingest, cdf + summary artifacts")
