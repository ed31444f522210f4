"""Outcome signatures of the estimator, for diffing two checkouts.

Prints one JSON object per line: the configuration, then the median
outcome's ``kind``, ``v``, ``count`` and ``value`` and every run's work
counters.  The lines cover the three benchmark workload generators at the
given seeds and a number of seeded random instances in both threshold modes
and both hash families.  Run it against each checkout and diff the output:

    PYTHONPATH=src python3 tests/outcome_signatures.py > new.jsonl
    PYTHONPATH=../parent/src python3 tests/outcome_signatures.py > old.jsonl
    diff old.jsonl new.jsonl

``--drop inner_iterations`` leaves a counter out, for a change that
redefines it.  ``--outcomes-only`` prints only ``kind``, ``v``, ``count`` and
``value`` after the configuration, for a change to the threshold schedule,
which moves every work counter but no outcome.  The script uses only the
public estimator API, so it runs against older checkouts too.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import sys
import tempfile
from pathlib import Path

from joinsketch import (MODE_LINEAR, MODE_START_AT_ONE, EstimatorConfig, Side, estimate_median,
                        group_and_prune, load_relation)

from conftest import random_instance

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"

FAMILIES = ("wrapping64", "mersenne61")


def signature(grouped, cfg: EstimatorConfig, key_prefix=(), drop=()) -> dict:
    """The outcome and the work of every run; ``drop`` names the counters to
    leave out, or is None to leave out the work altogether."""
    est = estimate_median(grouped, cfg, key_prefix=key_prefix)
    outcome = {"kind": est.kind, "v": est.v, "count": est.count, "value": est.value}
    if drop is None:
        return outcome
    work = [{name: value for name, value in vars(w).items() if name not in drop}
            for w in est.work_per_run]
    return {**outcome, "work": work}


def workload_signatures(seeds, keys=1, scale=1.0, drop=()):
    """Each benchmark workload at each seed, estimated as the benchmark
    does, with key prefixes (0,) to (keys - 1,)."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for seed in seeds:
            workload = workloads.generate(name, seed, scale)
            facts = workload.facts
            with tempfile.TemporaryDirectory() as tmp:
                paths = {}
                for role, text in workload.files.items():
                    paths[role] = Path(tmp) / role
                    paths[role].write_text(text, encoding="utf-8")
                if facts.roles == ("self",):
                    left = load_relation(str(paths["self"]), facts.fmt, Side.LEFT)
                    right = left.mirrored()
                else:
                    left = load_relation(str(paths["left"]), facts.fmt, Side.LEFT)
                    right = load_relation(str(paths["right"]), facts.fmt, Side.RIGHT)
            grouped = group_and_prune(left, right)
            cfg = EstimatorConfig(k=facts.k, threshold_mode=facts.mode, runs=facts.runs,
                                  seed=facts.seed)
            for key in range(keys):
                yield {"workload": name, "seed": seed, "key": key,
                       **signature(grouped, cfg, (key,), drop)}


def random_signatures(count, drop=()):
    """``count`` random instances, each estimated in both modes and both
    families with k and the number of runs drawn per instance."""
    rng = random.Random(0)
    for i in range(count):
        spread = rng.choice([3, 40, 300, 2**31])
        r1, r2 = random_instance(rng, max_each=rng.choice([20, 300]), a_range=spread,
                                 b_range=rng.choice([2, 8, 40]), c_range=spread)
        grouped = group_and_prune(r1, r2)
        k = rng.choice([1, 4, 16, 64, 256])
        runs = rng.choice([1, 3])
        for mode in (MODE_LINEAR, MODE_START_AT_ONE):
            for family in FAMILIES:
                cfg = EstimatorConfig(k=k, threshold_mode=mode, runs=runs, seed=i, family=family)
                yield {"instance": i, "k": k, "runs": runs, "mode": mode, "family": family,
                       **signature(grouped, cfg, drop=drop)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3],
                        help="workload seeds (default 1 2 3)")
    parser.add_argument("--keys", type=int, default=1, help="run keys per workload (default 1)")
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale (default 1)")
    parser.add_argument("--random", type=int, default=250,
                        help="random instances, four configurations each (default 250)")
    parser.add_argument("--drop", action="append", default=[], metavar="COUNTER",
                        help="leave this work counter out (repeatable)")
    parser.add_argument("--outcomes-only", action="store_true",
                        help="print the outcomes without any work counter")
    args = parser.parse_args(argv)
    drop = None if args.outcomes_only else tuple(args.drop)
    for line in workload_signatures(args.seeds, args.keys, args.scale, drop):
        print(json.dumps(line, sort_keys=True))
    for line in random_signatures(args.random, drop):
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
