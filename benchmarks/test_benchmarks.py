"""Tests of the benchmark's own code: run with ``python -m pytest benchmarks``."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads
from joinsketch import estimator, hashing, oracle, relation
from joinsketch.relation import Side

SMALL = {workloads.UNIFORM: 0.02, workloads.SKEWED: 0.05, workloads.FIMI: 0.1}


def grouped_input(w: workloads.Workload):
    fmt = w.facts.fmt
    if "self" in w.files:
        left = relation.parse_relation(w.files["self"], fmt, Side.LEFT)
        return relation.group_and_prune(left, left.mirrored())
    left = relation.parse_relation(w.files["left"], fmt, Side.LEFT)
    right = relation.parse_relation(w.files["right"], fmt, Side.RIGHT)
    return relation.group_and_prune(left, right)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_deterministic_in_the_seed(name):
    first = workloads.generate(name, 3, SMALL[name])
    assert workloads.generate(name, 3, SMALL[name]) == first
    assert workloads.generate(name, 4, SMALL[name]).files != first.files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_facts_match_joinsketch(name):
    w = workloads.generate(name, 5, SMALL[name])
    grouped = grouped_input(w)
    assert checks.check_grouping(grouped, w.facts) == []
    assert oracle.exact_size(grouped).z == w.facts.z
    assert w.facts.max_group_product <= w.facts.z <= w.facts.total_product


def test_skewed_z_is_the_total_product():
    w = workloads.generate(workloads.SKEWED, 7, 0.05)
    grouped = grouped_input(w)
    assert w.facts.z == w.facts.total_product == grouped.total_product
    assert oracle.exact_size_bitsets(grouped) == w.facts.z


def test_join_pairs_are_the_distinct_pairs():
    left = [(1, 10), (2, 10), (1, 11), (3, 12)]
    right = [(10, 5), (11, 5), (11, 6), (13, 7)]
    # (1,5) (2,5) from b=10; (1,5) (1,6) from b=11; b=12 and b=13 unmatched.
    got = workloads.join_pairs(left, right)
    assert [(int(p) >> 32, int(p) & 0xFFFFFFFF) for p in got] == [(1, 5), (1, 6), (2, 5)]


def test_checks_flag_wrong_estimates():
    z, k = 1_000_000, 1024
    tol = checks.tolerance(k, "edges")
    assert checks.check_estimate("point", z * 1.01, z, tol) == []
    assert checks.check_estimate("point", z * 1.5, z, tol)
    assert checks.check_estimate("upper_bound", z, z, tol)
    assert checks.check_estimate("point", float("nan"), z, tol)
    assert checks.tolerance(k, "fimi") is None
    assert checks.check_estimate("point", z * 1.5, z, None, (z // 2, z * 2)) == []
    assert checks.check_estimate("point", z * 3.0, z, None, (z // 2, z * 2))
    v = 1 << 60
    assert checks.check_sketch(v, (k << 64) / v, v, k) == []
    assert checks.check_sketch(v + 1, (k << 64) / (v + 1), v, k)
    assert checks.check_sketch(v, (k << 64) / v * 1.001, v, k)
    assert checks.check_sketch(None, z, v, k)
    assert checks.check_exact(z - 1, z)
    assert checks.check_kth_hash(5, 6)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_kth_hash_matches_the_oracle(name):
    w = workloads.generate(name, 6, SMALL[name])
    grouped = grouped_input(w)
    assert w.pairs.size == w.facts.z
    for key in range(3):
        pair_hash = hashing.draw_pair_hash(hashing.run_rng(9, (key,)))
        want = oracle.exact_kth_hash(grouped, pair_hash, 64).v
        assert checks.kth_smallest_pair_hash(w.pairs, pair_hash, 64) == want


@pytest.fixture
def small_bench(tmp_path):
    def make(name, **changes):
        workloads.write(workloads.generate(name, 2, SMALL[name]), tmp_path)
        facts = replace(workloads.read_facts(tmp_path), **changes)
        bench = run.Bench(facts, tmp_path)
        assert bench.run("setup") is not None
        return bench

    return make


def test_bench_flags_a_wrong_estimate(small_bench, monkeypatch):
    bench = small_bench(workloads.SKEWED, k=64)
    assert bench.run("estimate", 0) is not None
    honest = estimator.estimate_median

    def inflated(grouped, cfg, key_prefix=()):
        return replace(honest(grouped, cfg, key_prefix), value=bench.facts.z * 3.0)

    monkeypatch.setattr(estimator, "estimate_median", inflated)
    assert bench.run("estimate", 1) is None
    assert (bench.attempted, bench.failed) == (3, 1)
    assert bench.records[-1]["problems"]
    bench.check_sketches()
    assert bench.failed == 1


def test_bench_flags_a_wrong_sketch_after_the_run(small_bench, monkeypatch):
    # fimi has no band, so only the exact k-th hash check can see this.
    bench = small_bench(workloads.FIMI, k=256)
    assert bench.run("estimate", 0) is not None
    honest = estimator.estimate_median

    def shifted(grouped, cfg, key_prefix=()):
        est = honest(grouped, cfg, key_prefix)
        return replace(est, v=est.v + 1, value=(est.k << 64) / (est.v + 1))

    monkeypatch.setattr(estimator, "estimate_median", shifted)
    assert bench.run("estimate", 1) is not None
    assert bench.failed == 0
    bench.check_sketches()
    assert bench.failed == 1
    assert bench.records[-1]["problems"] and not bench.records[-2]["problems"]
    assert bench.records[-2]["v_exact"] == bench.records[-2]["v_raw"]


def test_every_operation_passes_on_a_small_workload(small_bench):
    bench = small_bench(workloads.UNIFORM, k=64)
    for op, args in (("estimate", (0,)), ("exact", ()), ("sample", ()),
                     ("sample-estimate", ())):
        assert bench.run(op, *args) is not None, bench.records[-1]["problems"]
    assert bench.kth_checked
    bench.check_sketches()
    assert bench.failed == 0
    assert all(r["v_exact"] == r["v_raw"] for r in bench.records if "v_exact" in r)


def test_traced_run_reports_every_layer_and_restores_the_api(small_bench):
    bench = small_bench(workloads.FIMI, k=256)
    originals = {name: [getattr(o, a) for o, a in targets]
                 for name, targets in spans.TARGETS.items()}
    tracer = spans.Tracer()
    metrics, extra = run.traced_run(bench, tracer)
    assert bench.failed == 0
    assert {name: [getattr(o, a) for o, a in targets]
            for name, targets in spans.TARGETS.items()} == originals
    assert set(metrics) == set(run.PER_LAYER)
    assert extra["missing"] == []
    assert metrics["kmin.offers"] == metrics["enumerator.emitted_pairs"] > 0
    assert metrics["enumerator.scan_calls"] == metrics["relation.groups"]
    summary = extra["summary"]["estimate"]
    run_once = summary["estimator.run_once"]
    assert 0 < run_once["self_s"] < run_once["total_s"]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_a_missing_span_target_makes_the_traced_run_incorrect(small_bench, monkeypatch):
    bench = small_bench(workloads.SKEWED, k=64)
    monkeypatch.setitem(spans.TARGETS, "relation.gone", [(relation, "gone")])
    metrics, extra = run.traced_run(bench, spans.Tracer())
    assert extra["missing"] == ["relation.gone"]
    assert not run.result(bench, metrics, run.PER_LAYER, extra["missing"])["correct"]
    assert run.result(bench, metrics, run.PER_LAYER, [])["correct"]
