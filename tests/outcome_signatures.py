"""Outcome signatures of the estimator, for diffing two checkouts.

Prints one JSON object per line: the configuration, then the median
outcome's ``kind``, ``v``, ``count`` and ``value`` and every run's work
counters.  The lines cover the three benchmark workload generators at the
given seeds and a number of seeded random instances in both threshold modes.
Run it against each checkout and diff the output:

    PYTHONPATH=src python3 tests/outcome_signatures.py > new.jsonl
    PYTHONPATH=../parent/src python3 tests/outcome_signatures.py > old.jsonl
    diff old.jsonl new.jsonl

``--seeds`` with no seed prints the random instances alone.  Their lines in
the default, ``--pilot`` and ``--exact`` modes, and the ``--parse`` lines,
come from Python's ``random`` and the library alone, so no CPU or numpy
build moves them: they are recorded under ``tests/data/`` and the test
suite checks them (``test_recorded_signatures_repeat``).  The workload
lines are not recorded, because the generators' numpy draws may differ
across builds.  A change that moves a recorded line re-records its file and
lists the moved lines in CHANGES.md:

    PYTHONPATH=src python3 tests/outcome_signatures.py --seeds > tests/data/signatures-random.jsonl
    PYTHONPATH=src python3 tests/outcome_signatures.py --seeds --pilot \\
        > tests/data/signatures-random-pilot.jsonl
    PYTHONPATH=src python3 tests/outcome_signatures.py --seeds --exact \\
        > tests/data/signatures-random-exact.jsonl
    PYTHONPATH=src python3 tests/outcome_signatures.py --parse > tests/data/signatures-parse.jsonl

A random instance's lines name the hash family, ``wrapping64``.  Checkouts
that still had the ``mersenne61`` family printed a line for it too, after
each ``wrapping64`` line; leave those out to compare with one:

    grep -v '"family": "mersenne61"' old.jsonl | diff - new.jsonl

``--drop inner_iterations`` leaves a counter out, for a change that
redefines it.  ``--outcomes-only`` prints only ``kind``, ``v``, ``count`` and
``value`` after the configuration, for a change to the threshold schedule,
which moves every work counter but no outcome.  Apart from ``--candidates``,
the script uses only the public estimator API, so it runs against older
checkouts too.

``--exact`` prints, instead, what ``exact_size`` gives for each workload
input and random instance: ``z``, ``expanded_pairs`` and the kernel that
counts the shared left values, ``dense`` or ``sparse`` by the rule of the
``oracle`` module's docstring, or ``none`` when no left value lies in two
groups.  It uses only the public API, so it also runs against older
checkouts.

``--parse`` prints, instead, what ``parse_relation`` gives for each of a
set of generated texts in each format: the sha256 of the parsed keys, or
the error's type, line and message.  The texts are longer than one
tokenizer block of 256 KiB, and some hold an error after the first block
seam.  It uses only the public API, so it also runs against older
checkouts.

``--pilot`` prints, instead, the pilot each workload input and random
instance draws in each threshold mode, read from ``estimate_median``'s
``Estimate`` with one run: its ``occurrences``, ``distinct_share`` and
``standard_error`` and the first pass's threshold ``first_p``.  It uses
only the public API, so it also runs against older checkouts.

``--candidates`` prints, instead, what one pass lists for each workload,
seed and run key at three thresholds: linear mode's ceiling p0, p0 >> 2
and ``first_threshold`` for the call's pilot, where both modes' first pass
runs unless linear mode's p0 lies lower.  The pass hands the input to
``prune``, which prunes it or returns it as it is, then sorts the chunks
of ``chunk_bounds`` at that threshold.  A line holds the sha256 of the
candidate stream in group order (each group's candidate count, then its
``pairs`` and ``hashes`` bytes), the pass's ``sorted_tuples``, the tuples
``prune`` keeps, and its ``probes``, one for every column of the input,
pruned or not.  The stream does not depend on how the groups are chunked,
so a change to the chunking or to the occupancy pass leaves these lines as
they were.  This mode calls the enumerator directly, so compare two
checkouts with each checkout's own copy of the script: this one needs
``prune(grouped, h, p)``, ``sort_group(grouped, lo, hi, h, p)`` and
``chunk_bounds(grouped, p)``.  Checkouts with a separate ``prunes`` gate
called ``prune`` only where it said so; checkouts whose ``sort_group``
took a ``floor`` argument counted the tuples and probes in its result, and
checkouts whose ``sort_group`` pruned each chunk itself took a ``ceiling``
argument instead of ``prune``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from joinsketch import (FORMATS, MODE_LINEAR, MODE_START_AT_ONE, EstimatorConfig, ParseError,
                        RangeError, Side, estimate_median, exact_size, group_and_prune, hashing,
                        load_relation, parse_relation)

from conftest import random_instance

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


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


def workload_inputs(seeds, scale=1.0):
    """Each benchmark workload at each seed: its name, seed, grouped input
    and the configuration the benchmark estimates it with."""
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
            cfg = EstimatorConfig(k=facts.k, threshold_mode=facts.mode, runs=facts.runs,
                                  seed=facts.seed)
            yield name, seed, group_and_prune(left, right), cfg


def workload_signatures(seeds, keys=1, scale=1.0, drop=()):
    """Each benchmark workload at each seed, estimated as the benchmark
    does, with key prefixes (0,) to (keys - 1,)."""
    for name, seed, grouped, cfg in workload_inputs(seeds, scale):
        for key in range(keys):
            yield {"workload": name, "seed": seed, "key": key,
                   **signature(grouped, cfg, (key,), drop)}


def candidate_stream(grouped, pair_hash, p) -> dict:
    """The digest of every group's candidates below ``p`` in one pass at
    ``p``, and the pass's sorted tuples and probes."""
    # Imported here: only --candidates needs these, and older checkouts lack them.
    from joinsketch.enumerator import chunk_bounds, prune, sort_group

    source = prune(grouped, pair_hash, p)
    digest = hashlib.sha256()
    bounds = chunk_bounds(source, p)
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = sort_group(source, lo, hi, pair_hash, p)
        for first, last in zip(chunk.offsets, chunk.offsets[1:]):
            digest.update((last - first).to_bytes(8, "little"))
            digest.update(chunk.pairs[first:last])
            digest.update(chunk.hashes[first:last])
    # A pass sorts every tuple it keeps and probes every column of the input.
    return {"digest": digest.hexdigest(), "sorted_tuples": source.tuple_count,
            "probes": grouped.right_values.size}


def candidate_signatures(seeds, scale=1.0):
    """Each workload's candidate stream for each run key (0,) to
    (runs - 1,) at linear mode's ceiling p0, at p0 >> 2 and at the first
    threshold the pilot aims both modes' first pass at."""
    # Imported here: only --candidates needs these, and older checkouts lack them.
    from joinsketch.estimator import choose_threshold, draw_pilot, first_threshold

    for name, seed, grouped, cfg in workload_inputs(seeds, scale):
        k = cfg.resolved_k
        p0 = choose_threshold(grouped, k, MODE_LINEAR)
        thresholds = {"p0": p0, "p0>>2": p0 >> 2,
                      "first": first_threshold(grouped, k, draw_pilot(grouped, cfg.seed))}
        for run in range(cfg.runs):
            pair_hash = hashing.draw_pair_hash(hashing.run_rng(cfg.seed, (run,)))
            for label, p in thresholds.items():
                yield {"workload": name, "seed": seed, "key": run, "threshold": label, "p": p,
                       **candidate_stream(grouped, pair_hash, p)}


def random_inputs(count):
    """``count`` seeded random instances: each one's index, grouped input,
    k and number of runs."""
    rng = random.Random(0)
    for i in range(count):
        spread = rng.choice([3, 40, 300, 2**31])
        r1, r2 = random_instance(rng, max_each=rng.choice([20, 300]), a_range=spread,
                                 b_range=rng.choice([2, 8, 40]), c_range=spread)
        grouped = group_and_prune(r1, r2)
        yield i, grouped, rng.choice([1, 4, 16, 64, 256]), rng.choice([1, 3])


def random_signatures(count, drop=()):
    """``count`` random instances, each estimated in both modes with k and
    the number of runs drawn per instance."""
    for i, grouped, k, runs in random_inputs(count):
        for mode in (MODE_LINEAR, MODE_START_AT_ONE):
            cfg = EstimatorConfig(k=k, threshold_mode=mode, runs=runs, seed=i)
            yield {"instance": i, "k": k, "runs": runs, "mode": mode, "family": cfg.family,
                   **signature(grouped, cfg, drop=drop)}


def pilot_signature(grouped, cfg: EstimatorConfig):
    """The pilot and first threshold of one run in each threshold mode."""
    for mode in (MODE_LINEAR, MODE_START_AT_ONE):
        est = estimate_median(grouped, replace(cfg, threshold_mode=mode, runs=1))
        yield {"mode": mode, "occurrences": est.pilot.occurrences,
               "distinct_share": est.pilot.distinct_share,
               "standard_error": est.pilot.standard_error, "first_p": est.first_p}


def pilot_signatures(seeds, count, scale=1.0):
    """The pilot of each workload input at each seed, then of ``count``
    random instances, in both threshold modes."""
    for name, seed, grouped, cfg in workload_inputs(seeds, scale):
        for line in pilot_signature(grouped, cfg):
            yield {"workload": name, "seed": seed, **line}
    for i, grouped, k, _ in random_inputs(count):
        for line in pilot_signature(grouped, EstimatorConfig(k=k, seed=i)):
            yield {"instance": i, "k": k, **line}


def exact_kernel(grouped, expanded: int) -> str:
    """The kernel that counts the shared left values (those held by two or
    more groups), from the public input: ``dense`` iff ``shared x W <=
    expanded`` and ``groups x W <= right values``, with W = ceil(D / 64)
    words for the D distinct right values; ``none`` when nothing is
    expanded."""
    if not expanded:
        return "none"
    counts = np.unique(grouped.left_values, return_counts=True)[1]
    shared = int(counts[counts > 1].sum())
    words = -(-np.unique(grouped.right_values).size // 64)
    dense = shared * words <= expanded and len(grouped) * words <= grouped.right_values.size
    return "dense" if dense else "sparse"


def exact_signature(grouped) -> dict:
    """``exact_size``'s result and the kernel it counts with."""
    result = exact_size(grouped)
    return {"z": result.z, "expanded_pairs": result.expanded_pairs,
            "kernel": exact_kernel(grouped, result.expanded_pairs)}


def exact_signatures(seeds, count, scale=1.0):
    """The exact size of each workload input at each seed, then of
    ``count`` random instances."""
    for name, seed, grouped, _ in workload_inputs(seeds, scale):
        yield {"workload": name, "seed": seed, **exact_signature(grouped)}
    for i, grouped, _, _ in random_inputs(count):
        yield {"instance": i, **exact_signature(grouped)}


# A text of --parse holds about this many bytes, more than one tokenizer
# block of 256 KiB; a late error sits on the first line that starts past it.
PARSE_BYTES = 300_000
_SEAM = 1 << 18
_MTX_HEADER = "%%MatrixMarket matrix coordinate pattern general"


def _lines(rng, line, low=0, high=2**32 - 1):
    """Lines from ``line(rng, low, high)`` until they hold PARSE_BYTES,
    with comment lines, blank lines and CRLF endings mixed in."""
    lines, size = [], 0
    while size < PARSE_BYTES:
        pick = rng.randrange(100)
        text = "" if pick == 0 else "%" if pick == 1 else line(rng, low, high)
        lines.append(text + ("\r\n" if pick == 2 else "\n"))
        size += len(lines[-1])
    return lines


def _pair(rng, low, high):
    gap = rng.choice([" ", "\t", "  "])
    return f"{rng.randint(low, high)}{gap}{rng.randint(low, high)}"


def _items(rng, low, high):
    return " ".join(str(rng.randint(low, high)) for _ in range(rng.randrange(7)))


def _seam(lines):
    """The index of the first of ``lines`` that starts past the first block
    seam."""
    at, size = 0, 0
    while size <= _SEAM:
        size += len(lines[at])
        at += 1
    return at


def _late(lines, *bad):
    """``lines`` with the lines ``bad`` in place of the first lines that
    start past the first block seam."""
    at = _seam(lines)
    return lines[:at] + [text + "\n" for text in bad] + lines[at + len(bad):]


def _entries(lines):
    """The number of entry lines among Matrix Market body ``lines``."""
    return sum(1 for line in lines if line.strip() and not line.startswith("%"))


def _mtx(entries, size, declared=None):
    """Matrix Market text of ``entries`` lines in a ``size`` x ``size``
    shape, declaring ``declared`` entries (by default the entry lines)."""
    declared = _entries(entries) if declared is None else declared
    return "".join([f"{_MTX_HEADER}\n% comment\n{size} {size} {declared}\n", *entries])


def parse_texts():
    """The generated texts of --parse, by name."""
    rng = random.Random(0)
    edges = [line.replace("%", "# note") for line in _lines(rng, _pair)]
    fimi = [line.replace("%", "") for line in _lines(rng, _items)]
    small = _lines(rng, _pair, 1, 1000)  # entries of a 1000 x 1000 matrix
    before = _entries(small[:_seam(small)])  # entries before the seam
    yield "edges", "".join(edges)
    yield "edges-late-fields", "".join(_late(edges, "1 2 3"))
    yield "edges-late-range", "".join(_late(edges, "1 4294967296"))
    yield "fimi", "".join(fimi)
    yield "fimi-late-token", "".join(_late(fimi, "1 2x 3"))
    yield "mtx", _mtx(_lines(rng, _pair, 1), 2**32 - 1)
    yield "mtx-small", _mtx(small, 1000)
    yield "mtx-late-outside", _mtx(_late(small, "1001 5"), 1000)
    yield "mtx-late-fields", _mtx(_late(small, "5"), 1000)
    yield "mtx-late-token", _mtx(_late(small, "5 x"), 1000)
    yield "mtx-outside-then-token", _mtx(_late(small, "5 0", "7 7", "5 x"), 1000)
    yield "mtx-token-then-outside", _mtx(_late(small, "5 -1", "7 7", "0 5"), 1000)
    # The first entry past the declared count is outside the shape, or is
    # followed by one that is.
    yield "mtx-late-extra-outside", _mtx(_late(small, "1001 1"), 1000, before)
    yield "mtx-late-extra-then-outside", _mtx(_late(small, "7 7", "1001 1"), 1000, before)
    yield "mtx-more", _mtx(small, 1000, _entries(small) - 1)
    yield "mtx-fewer", _mtx(small, 1000, _entries(small) + 1)
    # The dimension line in a later block than the header.
    comments = _MTX_HEADER + "\n" + ("% " + "x" * 60 + "\n") * (PARSE_BYTES // 63)
    yield "mtx-late-dimensions", comments + "3 3 2\n1 2\n3 1\n"
    yield "mtx-late-short-dimensions", comments + "3 3\n1 2\n"
    yield "mtx-late-missing-dimensions", comments


def parse_signatures():
    """Each generated text parsed in each format."""
    for name, text in parse_texts():
        data = text.encode("ascii")
        for fmt in FORMATS:
            line = {"text": name, "format": fmt, "bytes": len(data)}
            try:
                keys = parse_relation(data, fmt).keys
            except (ParseError, RangeError) as exc:
                yield {**line, "error": type(exc).__name__, "line": exc.line, "message": str(exc)}
            else:
                yield {**line, "tuples": int(keys.size), "keys": hashlib.sha256(keys).hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3],
                        help="workload seeds (default 1 2 3)")
    parser.add_argument("--keys", type=int, default=1, help="run keys per workload (default 1)")
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale (default 1)")
    parser.add_argument("--random", type=int, default=250,
                        help="random instances, two configurations each (default 250)")
    parser.add_argument("--drop", action="append", default=[], metavar="COUNTER",
                        help="leave this work counter out (repeatable)")
    parser.add_argument("--outcomes-only", action="store_true",
                        help="print the outcomes without any work counter")
    parser.add_argument("--candidates", action="store_true",
                        help="print each workload's candidate stream digests instead")
    parser.add_argument("--exact", action="store_true",
                        help="print each input's exact size and kernel instead")
    parser.add_argument("--parse", action="store_true",
                        help="print each generated text's parse outcome instead")
    parser.add_argument("--pilot", action="store_true",
                        help="print each input's pilot and first threshold instead")
    args = parser.parse_args(argv)
    if args.parse:
        for line in parse_signatures():
            print(json.dumps(line, sort_keys=True))
        return 0
    if args.pilot:
        for line in pilot_signatures(args.seeds, args.random, args.scale):
            print(json.dumps(line, sort_keys=True))
        return 0
    if args.exact:
        for line in exact_signatures(args.seeds, args.random, args.scale):
            print(json.dumps(line, sort_keys=True))
        return 0
    if args.candidates:
        for line in candidate_signatures(args.seeds, args.scale):
            print(json.dumps(line, sort_keys=True))
        return 0
    drop = None if args.outcomes_only else tuple(args.drop)
    for line in workload_signatures(args.seeds, args.keys, args.scale, drop):
        print(json.dumps(line, sort_keys=True))
    for line in random_signatures(args.random, drop):
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
