"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workload uniform-ingest --seeds 1-10 [--out FILE]

Runs ``run.py`` once per seed, one run at a time, with ``run_seconds`` from
BENCHMARK.json.  For each metric it prints the median and the spread: the
distance between the first and third quartile as a share of the median,
next to the metric's bound.

It also reads each run's records and prints, over the same runs, the
spread of the unscaled medians of each operation's seconds and of the host
probe (fixed work that uses no joinsketch code, see ``run.HostProbe``):
how much the host's speed moved between the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, wall
        records = run.WORK / "records" / f"{args.workload}-seed{seed}-trace0.jsonl"
        lines = [json.loads(line) for line in records.read_text().splitlines()]
        result["host"] = run.host_probe_median(lines)
        result["unscaled"] = {name: run.median([r["seconds"] for r in lines if r["op"] == op])
                              for name, op in run.TIMED.items()}
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} wall={wall:.1f}s {values}", flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds, "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        row = {"median": statistics.median(values), "spread": spread(values),
               "bound": bounds.get(name), "values": values}
        summary["metrics"][name] = row
        print(f"  {name:<20} median {row['median']:.4g}  spread {row['spread']:.3f}"
              f"  bound {row['bound']}")
    for name in run.TIMED:
        values = [r["unscaled"][name] for r in runs]
        summary.setdefault("unscaled", {})[name] = {"spread": spread(values), "values": values}
        print(f"  {name:<20} median {statistics.median(values):.4g}  spread "
              f"{spread(values):.3f}  (unscaled seconds)")
    values = [r["host"] for r in runs]
    summary["host_probe"] = {"spread": spread(values), "values": values}
    print(f"  {'host probe':<20} median {statistics.median(values):.4g}  spread "
          f"{spread(values):.3f}")
    summary["wall_s"] = [r["wall_s"] for r in runs]
    summary["all_correct"] = all(r["correct"] and r["failed"] == 0 for r in runs)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
