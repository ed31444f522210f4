"""joinsketch benchmark: one workload, one seed, one fresh process.

    python3 benchmarks/run.py --workload uniform-ingest --seed 1 --seconds 30 --trace 0

The benchmark drives joinsketch's library API in the order the CLI
subcommands ``estimate``, ``exact``, ``sample`` and ``sample-estimate`` use
it, on inputs generated from ``--seed`` by ``workloads.py`` in a child
process.  Every operation's output is checked.

``--trace 0`` times each operation with nothing patched and reports the
end-to-end metrics, in seconds scaled to a reference host speed by a fixed
probe that brackets each operation (see ``HostProbe``).  ``--trace 1`` runs each operation once plainly and once
with spans around the public functions of each module (see ``spans.py``),
and reports per-layer self times, work counters and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-operation
records (and, when traced, the spans) are written to ``.bench_work/records``
at the root of the checkout, for diffing two commits' outputs.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))  # this checkout's joinsketch; main() checks it was found
import joinsketch  # noqa: E402
from joinsketch import estimator, hashing, oracle, relation, sampling  # noqa: E402
from joinsketch.relation import Side  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# A timed run repeats ROUND until --seconds have passed, and at least
# MIN_ROUNDS times so that every metric is a median of three or more.
# estimate_s, the metric users wait on most often, gets two turns a round.
# Each turn repeats its operation until MIN_SHARE_S have passed.
ROUND = ("exact", "sample", "sample-estimate", "setup", "estimate", "estimate")
MIN_ROUNDS = 3
MIN_SHARE_S = 0.5
# No new round starts this long after the process started, so that a much
# slower program or machine still finishes a run within 180 s.
LAST_ROUND_START_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "estimate_s": "s",
    "peak_rss_mb": "MiB",
    "exact_s": "s",
    "sample_s": "s",
    "sample_estimate_s": "s",
}

PER_LAYER = {
    "relation.parse_s": "s",
    "relation.mirror_s": "s",
    "relation.group_s": "s",
    "relation.input_lines": "count",
    "relation.tuples": "count",
    "relation.groups": "count",
    "relation.n": "count",
    "relation.max_group_product": "count",
    "relation.total_product": "count",
    "hashing.values_s": "s",
    "hashing.values_calls": "count",
    "enumerator.sort_s": "s",
    "enumerator.sort_calls": "count",
    "enumerator.scan_s": "s",
    "enumerator.scan_calls": "count",
    "enumerator.sorted_elements": "count",
    "enumerator.sbar_increments": "count",
    "enumerator.inner_iterations": "count",
    "enumerator.emitted_pairs": "count",
    "kmin.offer_s": "s",
    "kmin.offers": "count",
    "kmin.merge_s": "s",
    "kmin.merges": "count",
    "kmin.accepted": "count",
    "kmin.accept_ratio": "ratio",
    "estimator.run_once_s": "s",
    "estimator.runs": "count",
    "estimator.self_s": "s",
    "estimator.work_total": "count",
    "estimator.work_per_tuple": "count/tuple",
    "oracle.exact_s": "s",
    "oracle.pairs_materialized": "count",
    "oracle.distinct_ratio": "ratio",
    "sampling.draw_s": "s",
    "sampling.save_s": "s",
    "sampling.load_s": "s",
    "sampling.estimate_self_s": "s",
    "sampling.kept_tuples": "count",
    "sampling.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

OPS = ("setup", "estimate", "exact", "sample", "sample-estimate")
TIMED = {"setup_s": "setup", "estimate_s": "estimate", "exact_s": "exact",
         "sample_s": "sample", "sample_estimate_s": "sample-estimate"}


class Bench:
    """The operations of one run, with their checks and output records."""

    def __init__(self, facts, inputs: Path):
        self.facts = facts
        self.inputs = inputs
        self.cfg = estimator.EstimatorConfig(k=facts.k, threshold_mode=facts.mode, runs=facts.runs,
                                   seed=facts.seed)
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.left = self.right = self.grouped = None
        self.drawn = None
        self.sample_bytes = 0
        self.kth_checked = False
        self.unchecked: list[tuple] = []  # (record index, key prefix, estimate)

    def run(self, op: str, *args) -> float | None:
        """Run one operation; return its seconds, or None if it failed."""
        self.attempted += 1
        seconds, fields = None, {}
        try:
            seconds, fields, problems = getattr(self, op.replace("-", "_"))(*args)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"FAILED {op}: {'; '.join(problems)}", file=sys.stderr)
        self.records.append({"workload": self.facts.name, "seed": self.facts.seed, "op": op,
                             **fields, "seconds": seconds, "problems": problems})
        return None if problems else seconds

    def setup(self):
        self.left = self.right = self.grouped = None  # free the previous input first
        fmt = self.facts.fmt
        t0 = start_timer()
        if self.facts.roles == ("self",):
            left = relation.load_relation(str(self.inputs / "self"), fmt, Side.LEFT)
            right = left.mirrored()
        else:
            left = relation.load_relation(str(self.inputs / "left"), fmt, Side.LEFT)
            right = relation.load_relation(str(self.inputs / "right"), fmt, Side.RIGHT)
        grouped = relation.group_and_prune(left, right)
        seconds = perf_counter() - t0
        self.left, self.right, self.grouped = left, right, grouped
        fields = {"tuples": len(left) + len(right), "groups": len(grouped),
                  "n": grouped.tuple_count, "total_product": grouped.total_product}
        return seconds, fields, checks.check_grouping(grouped, self.facts)

    def estimate(self, call: int):
        facts = self.facts
        t0 = start_timer()
        est = estimator.estimate_median(self.grouped, self.cfg, key_prefix=(call,))
        seconds = perf_counter() - t0
        problems = checks.check_estimate(est.kind, est.value, facts.z,
                                         checks.tolerance(facts.k, facts.fmt),
                                         (facts.max_group_product, facts.total_product))
        fields = {"key": [call], "kind": est.kind, "v_raw": est.v, "value": est.value,
                  "z": facts.z}
        # Checked against the exact pairs after the run (check_sketches),
        # so that loading them counts towards neither time nor memory.
        self.unchecked.append((len(self.records), (call,), est))
        if facts.name == workloads.UNIFORM and call == 0 and not self.kth_checked:
            problems += self.check_first_run(est)
            self.kth_checked = True
        return seconds, fields, problems

    def exact_v(self, pairs, key_prefix: tuple[int, ...]) -> int | None:
        """The v that estimate_median must report for these pairs: the
        median over its runs of each run's exact k-th smallest pair hash."""
        vs = sorted(
            checks.kth_smallest_pair_hash(
                pairs, hashing.draw_pair_hash(hashing.run_rng(self.cfg.seed, key_prefix + (i,))),
                self.cfg.resolved_k)
            for i in range(self.cfg.runs))
        return vs[len(vs) // 2]

    def check_sketches(self) -> None:
        """Untimed, after the run: every estimate's v against the exact pairs."""
        if not self.unchecked:
            return
        pairs = workloads.read_pairs(self.inputs)
        for index, key_prefix, est in self.unchecked:
            record = self.records[index]
            record["v_exact"] = self.exact_v(pairs, key_prefix)
            problems = checks.check_sketch(est.v, est.value, record["v_exact"], self.cfg.resolved_k)
            if problems:
                self.failed += not record["problems"]
                record["problems"] = record["problems"] + problems
                print(f"FAILED estimate {key_prefix}: {'; '.join(problems)}", file=sys.stderr)
        self.unchecked = []

    def check_first_run(self, est) -> list[str]:
        """Untimed: with one run, run key (0, 0) is the estimate; its v must
        equal the oracle's k-th smallest pair hash for the same hash draw."""
        if self.cfg.runs != 1:
            return []
        pair_hash = hashing.draw_pair_hash(hashing.run_rng(self.cfg.seed, (0, 0)),
                                           self.cfg.family)
        outcome = oracle.exact_kth_hash(self.grouped, pair_hash, self.cfg.resolved_k)
        return checks.check_kth_hash(est.v, outcome.v)

    def exact(self):
        t0 = start_timer()
        result = oracle.exact_size(self.grouped)
        seconds = perf_counter() - t0
        return seconds, {"value": result.z, "z": self.facts.z}, checks.check_exact(result.z,
                                                                                  self.facts.z)

    def sample(self):
        sides = ((0, self.left, self.inputs / "left.sample"),
                 (1, self.right, self.inputs / "right.sample"))
        t0 = start_timer()
        drawn = []
        for side_index, rel, path in sides:
            selector = hashing.draw_single(hashing.selector_rng(self.cfg.seed, side_index),
                                           self.cfg.family)
            sample = sampling.draw_sample(rel, self.facts.sample_prob, selector)
            sampling.save_sample(sample, str(path))
            drawn.append(sample)
        seconds = perf_counter() - t0
        self.drawn = drawn
        kept = [len(s.relation) for s in drawn]
        written = [path.stat().st_size for _, _, path in sides]
        self.sample_bytes = sum(written)
        problems = [f"{path.name} kept no tuples" for (_, _, path), n in zip(sides, kept) if not n]
        return seconds, {"kept": kept, "bytes": written}, problems

    def sample_estimate(self):
        t0 = start_timer()
        left = sampling.load_sample(str(self.inputs / "left.sample"))
        right = sampling.load_sample(str(self.inputs / "right.sample"))
        result = sampling.estimate_from_samples(left, right, self.cfg)
        seconds = perf_counter() - t0
        problems = []
        if self.drawn is None or [s.relation for s in self.drawn] != [left.relation,
                                                                       right.relation]:
            problems.append("loaded samples differ from the drawn ones")
        pairs = workloads.join_pairs(np.array(list(left.relation.tuples), dtype=np.uint64),
                                     np.array(list(right.relation.tuples), dtype=np.uint64))
        z_sample = int(pairs.size)
        est = result.estimate
        kind = est.kind if est is not None else result.method
        fields = {"kind": kind, "v_raw": est.v if est is not None else None,
                  "value": result.sampled_size, "z": z_sample, "scaled": result.value}
        if result.method == "sketch":
            problems += checks.check_estimate(kind, result.sampled_size, z_sample,
                                              checks.tolerance(self.facts.k, self.facts.fmt))
            fields["v_exact"] = self.exact_v(pairs, ())
            problems += checks.check_sketch(est.v, est.value, fields["v_exact"],
                                            self.cfg.resolved_k)
        elif result.sampled_size != z_sample:
            problems.append(f"exact sample join {result.sampled_size}, expected {z_sample}")
        return seconds, fields, problems


def start_timer() -> float:
    """Collect the garbage of earlier operations and freeze what is still
    live, outside the timed span, so that a timed call pays only for the
    collection of its own objects, as it would in a fresh CLI process."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()
    return perf_counter()


class HostProbe:
    """A fixed piece of work that uses no joinsketch code, in three parts
    of about equal time, one for each kind of work joinsketch does: an
    interpreter loop, a numpy sort and a set of scattered pairs built as
    ingest builds its relations.  It takes 12 to 20 ms on a 2-vCPU 2.0 GHz Xeon VM;
    REFERENCE_S is near its median there.

    The host's speed moves by up to 2x in phases of seconds to minutes.
    Each timed operation is bracketed by two probes, and its sample is
    ``seconds * REFERENCE_S / probe``: seconds at the host speed at which
    the probe takes REFERENCE_S.  Only the host's speed cancels; the
    probe's work is fixed, so any change to joinsketch's speed shows in
    full.
    """

    REFERENCE_S = 0.015

    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 63, size=300_000, dtype=np.uint64)
        a, b = rng.integers(0, 1 << 32, size=(2, 45_000)).tolist()
        self.pairs = list(zip(a, b))

    def __call__(self) -> float:
        """The median of three timings of the probe's work."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            acc = 0
            for i in range(50_000):
                acc += i * i
            np.sort(self.keys)
            frozenset(self.pairs)
            times.append(perf_counter() - t0)
        return statistics.median(times)


def median(values: list[float | None]) -> float | None:
    ok = [v for v in values if v is not None]
    return statistics.median(ok) if ok else None


def host_probe_median(records: list[dict]) -> float:
    return median([r.get("probe_s") for r in records])


def timed_run(bench: Bench, seconds: float, started: float) -> tuple[dict, dict]:
    """One setup and estimate to warm up, then the RSS high-water mark, then
    rounds of every operation until ``seconds`` have passed, after at least
    MIN_ROUNDS whole rounds.  Within a round an operation repeats until it has had
    MIN_SHARE_S, so that short operations get more samples.  Rounds
    interleave the operations so that each metric's samples spread over the
    whole run; a metric is the median of its host-scaled samples (see
    HostProbe)."""
    times: dict[str, list] = {op: [] for op in OPS}
    calls = itertools.count()

    def args(op):
        return (next(calls),) if op == "estimate" else ()

    bench.run("setup")
    bench.run("estimate", *args("estimate"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = HostProbe()

    def once(op):
        before = probe()
        sec = bench.run(op, *args(op))
        host = (before + probe()) / 2
        bench.records[-1]["probe_s"] = host
        times[op].append(None if sec is None else sec * HostProbe.REFERENCE_S / host)

    deadline = perf_counter() + seconds
    done = 0
    while bench.grouped is not None and (done < MIN_ROUNDS or perf_counter() < deadline):
        if perf_counter() - started > LAST_ROUND_START_S:
            break
        for op in ROUND:
            if done >= MIN_ROUNDS and perf_counter() >= deadline:
                break
            t0 = perf_counter()
            once(op)
            while bench.grouped is not None and perf_counter() - t0 < MIN_SHARE_S:
                once(op)
        done += 1
    metrics = {name: median(times[op]) for name, op in TIMED.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    counts = {name: sum(v is not None for v in times[op]) for name, op in TIMED.items()}
    return metrics, counts


def traced_run(bench: Bench, tracer) -> tuple[dict, dict]:
    """Each operation once plainly and once traced, with the same keys.
    Which pass goes first alternates from one operation to the next, so
    that the cost of running first on cold state does not favour either."""
    plain, traced = {}, {}

    def run_traced(op, args):
        tracer.begin_run(op)
        with tracer.installed():
            traced[op] = bench.run(op, *args)

    for i, op in enumerate(OPS):
        args = (0,) if op == "estimate" else ()
        if i % 2:
            plain[op] = bench.run(op, *args)
            run_traced(op, args)
        else:
            run_traced(op, args)
            plain[op] = bench.run(op, *args)
        if bench.grouped is None:
            break
    summary = tracer.summary()
    metrics = layer_metrics(bench, tracer, summary)
    if all(plain.get(op) and traced.get(op) for op in OPS):
        metrics["trace.overhead_ratio"] = sum(traced.values()) / sum(plain.values())
    overhead = {op: traced[op] / plain[op]
                for op in OPS if plain.get(op) and traced.get(op)}
    return metrics, {"summary": summary, "overhead_by_op": overhead, "missing": tracer.missing,
                     "work_per_run": run_work(tracer)}


def run_work(tracer) -> list[dict[str, int]]:
    """Work counters of every run_once of the traced estimate, in call order."""
    return [est.work.as_dict() for run_id, est in tracer.kept
            if tracer.run_kinds[run_id] == "estimate"]


def layer_metrics(bench: Bench, tracer, summary: dict) -> dict:
    facts = bench.facts

    def span(op, name, field="self_s"):
        return summary.get(op, {}).get(name, {}).get(field, 0)

    per_run = run_work(tracer)
    runs = len(per_run)
    work = {key: sum(w[key] for w in per_run) for key in (per_run[0] if per_run else ())}
    offers = span("estimate", "kmin.offer", "calls")
    grouped = bench.grouped
    return {
        "relation.parse_s": span("setup", "relation.load_relation"),
        "relation.mirror_s": span("setup", "relation.mirrored"),
        "relation.group_s": span("setup", "relation.group_and_prune"),
        "relation.input_lines": facts.input_lines,
        "relation.tuples": len(bench.left) + len(bench.right) if bench.left else 0,
        "relation.groups": len(grouped) if grouped else 0,
        "relation.n": grouped.tuple_count if grouped else 0,
        "relation.max_group_product": grouped.max_group_product if grouped else 0,
        "relation.total_product": grouped.total_product if grouped else 0,
        "hashing.values_s": sum(span(op, "hashing.values") for op in OPS),
        "hashing.values_calls": sum(span(op, "hashing.values", "calls") for op in OPS),
        "enumerator.sort_s": span("estimate", "enumerator.sort_group"),
        "enumerator.sort_calls": span("estimate", "enumerator.sort_group", "calls"),
        "enumerator.scan_s": span("estimate", "enumerator.scan_group"),
        "enumerator.scan_calls": span("estimate", "enumerator.scan_group", "calls"),
        "enumerator.sorted_elements": work.get("sorted_elements", 0),
        "enumerator.sbar_increments": work.get("sbar_increments", 0),
        "enumerator.inner_iterations": work.get("inner_iterations", 0),
        "enumerator.emitted_pairs": work.get("emitted_pairs", 0),
        "kmin.offer_s": span("estimate", "kmin.offer"),
        "kmin.offers": offers,
        "kmin.merge_s": span("estimate", "kmin.combine", "total_s"),
        "kmin.merges": span("estimate", "kmin.combine", "calls"),
        "kmin.accepted": work.get("accepted_offers", 0),
        "kmin.accept_ratio": work.get("accepted_offers", 0) / offers if offers else 0.0,
        "estimator.run_once_s": span("estimate", "estimator.run_once", "total_s"),
        "estimator.runs": runs,
        "estimator.self_s": span("estimate", "estimator.run_once"),
        "estimator.work_total": work.get("total", 0),
        "estimator.work_per_tuple": (work.get("total", 0) / (runs * facts.n)
                                     if runs and facts.n else 0.0),
        "oracle.exact_s": span("exact", "oracle.exact_size", "total_s"),
        "oracle.pairs_materialized": grouped.total_product if grouped else 0,
        "oracle.distinct_ratio": facts.z / facts.total_product if facts.total_product else 0.0,
        "sampling.draw_s": span("sample", "sampling.draw_sample"),
        "sampling.save_s": span("sample", "sampling.save_sample"),
        "sampling.load_s": span("sample-estimate", "sampling.load_sample"),
        "sampling.estimate_self_s": span("sample-estimate", "sampling.estimate_from_samples"),
        "sampling.kept_tuples": sum(len(s.relation) for s in bench.drawn or ()),
        "sampling.bytes_written": bench.sample_bytes,
        "trace.overhead_ratio": None,
        "trace.spans": len(tracer),
    }


def result(bench: Bench, metrics: dict, units: dict, missing: list[str]) -> dict:
    """The result line.  A run whose span targets are missing measured
    nothing of those layers, so it is not correct either."""
    return {
        "correct": (bench.failed == 0 and not missing
                    and all(metrics.get(k) is not None for k in units)),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }


def generate_inputs(workload: str, seed: int, out: Path) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        check=True, timeout=120,
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def report(metrics: dict, units: dict, counts: dict) -> None:
    for key, unit in units.items():
        value = metrics.get(key)
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        extra = f"  (median of {counts[key]})" if key in counts else ""
        print(f"  {key:<28} {shown}{extra}")


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    package = (SRC / "joinsketch").resolve()
    if Path(joinsketch.__file__).resolve().parent != package:
        print(f"run.py: imported joinsketch from {joinsketch.__file__}, not {package}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    inputs = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = records / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        generate_inputs(args.workload, args.seed, inputs)
        facts = workloads.read_facts(inputs)
        bench = Bench(facts, inputs)
        if args.trace:
            tracer = spans.Tracer()
            metrics, extra = traced_run(bench, tracer)
            units, counts = PER_LAYER, {}
            tracer.save(stem.with_suffix(".spans.npz"))
            stem.with_suffix(".spans.json").write_text(json.dumps(extra, indent=1))
        else:
            metrics, counts = timed_run(bench, args.seconds, started)
            units, extra = END_TO_END, {}
        bench.check_sketches()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    with open(stem.with_suffix(".jsonl"), "w", encoding="utf-8") as fh:
        for record in bench.records:
            fh.write(json.dumps(record) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: z={facts.z} n={facts.n} "
          f"k={facts.k} mode={facts.mode} runs={facts.runs}")
    report(metrics, units, counts)
    if not args.trace:
        raw = {op: median([r["seconds"] for r in bench.records if r["op"] == op]) for op in OPS}
        print("  unscaled medians: " + ", ".join(f"{op} {sec:.4g} s" for op, sec in raw.items()
                                                 if sec is not None))
        print(f"  host probe median {host_probe_median(bench.records):.4g} s "
              f"(reference {HostProbe.REFERENCE_S} s)")
    if args.trace:
        for op, ratio in extra["overhead_by_op"].items():
            print(f"  traced / plain time of {op:<16} {ratio:.3f}")
        for name in extra["missing"]:
            print(f"  span target {name} not found: its layer is not measured", file=sys.stderr)
    print(f"  failed_frac {bench.failed}/{bench.attempted} = "
          f"{bench.failed / max(bench.attempted, 1):.3g}")
    print(json.dumps(result(bench, metrics, units, extra.get("missing", []))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
