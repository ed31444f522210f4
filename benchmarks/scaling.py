"""Ungated scaling report for the paper's linear-time claim.

    python3 benchmarks/scaling.py [--seed 1] [--out benchmarks/results/scaling.json]

Sweeps n over 1/4, 1/2 and 1 times ``skewed-repeat`` at its fixed k, and k
over 4096, 16384 and 65536 on ``fimi-sketch``.  Each point reports the
estimate time of one untraced ``estimate_median`` call and, from a traced
call with the same key, the work counters summed over all runs.  Work per
tuple should stay flat in n and grow additively, not multiplicatively, in k.
This report is not one of the benchmark's gated workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run
import spans
import workloads

N_SCALES = (0.25, 0.5, 1.0)
K_VALUES = (4096, 16384, 65536)
REPORTED = ("relation.n", "estimator.runs", "estimator.work_total", "estimator.work_per_tuple",
            "enumerator.sorted_elements", "enumerator.sbar_increments",
            "enumerator.inner_iterations", "enumerator.emitted_pairs", "enumerator.scan_s",
            "kmin.offers", "kmin.accepted", "kmin.merges", "kmin.offer_s", "kmin.merge_s")


def measure(name: str, seed: int, scale: float, k: int | None) -> dict:
    inputs = run.WORK / f"scaling-{name}-{scale}-{k}"
    try:
        workloads.write(workloads.generate(name, seed, scale), inputs)
        facts = workloads.read_facts(inputs)
        if k is not None:
            facts = dataclasses.replace(facts, k=k)
        bench = run.Bench(facts, inputs)
        bench.run("setup")
        seconds = bench.run("estimate", 0)
        tracer = spans.Tracer()
        tracer.begin_run("estimate")
        with tracer.installed():
            bench.run("estimate", 0)
        layers = run.layer_metrics(bench, tracer, tracer.summary())
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    estimate = next(r for r in bench.records if r["op"] == "estimate")
    return {"workload": name, "scale": scale, "k": facts.k, "z": facts.z,
            "estimate_s": estimate["seconds"], "kind": estimate["kind"],
            "problems": estimate["problems"], "checked_ok": seconds is not None,
            **{key: layers[key] for key in REPORTED}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    points = [measure(workloads.SKEWED, args.seed, s, None) for s in N_SCALES]
    points += [measure(workloads.FIMI, args.seed, 1.0, k) for k in K_VALUES]
    print(f"{'workload':<14} {'scale':>5} {'k':>6} {'n':>7} {'runs':>4} {'estimate_s':>10} "
          f"{'work/tuple':>10} {'emitted':>8} {'offers':>8} {'merges':>6}")
    for p in points:
        print(f"{p['workload']:<14} {p['scale']:>5} {p['k']:>6} {p['relation.n']:>7} "
              f"{p['estimator.runs']:>4} {p['estimate_s'] or float('nan'):>10.3f} "
              f"{p['estimator.work_per_tuple']:>10.3f} {p['enumerator.emitted_pairs']:>8} "
              f"{p['kmin.offers']:>8} {p['kmin.merges']:>6}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seed": args.seed, "points": points}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
