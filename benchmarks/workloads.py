"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and scale.  It returns the
text of the input files, the facts the output checks need and the exact set
of distinct join pairs.  None of them comes from joinsketch: the exact
join-project size ``z`` is known by construction (``skewed-repeat``),
computed by a numpy expansion of the join (``uniform-ingest``) or by a dense
transaction-by-item incidence product (``fimi-sketch``); the pairs come from
the same computation or, on ``skewed-repeat``, from the expansion.

Attribute values are scattered over the 32-bit range.  Contiguous ids
interact with the multiply-add hash as a lattice (see ``scattered_instance``
in the test suite), and the output checks must hold for a correct sketch
with negligible failure probability.

Run as a script to write one workload's files and facts into a directory:

    python3 benchmarks/workloads.py --workload uniform-ingest --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

UNIFORM = "uniform-ingest"
SKEWED = "skewed-repeat"
FIMI = "fimi-sketch"
WORKLOADS = (UNIFORM, SKEWED, FIMI)

PAIRS_FILE = "pairs.npy"

_SHIFT = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class Facts:
    """Workload configuration and the ground truth the checks compare to.

    ``roles`` lists the input files: ``self`` (mirrored for the right side,
    like the CLI's ``--self``) or ``left`` and ``right``.  ``groups``, ``n``,
    ``max_group_product`` and ``total_product`` are what ``group_and_prune``
    must report; ``z`` is the exact join-project size.
    """

    name: str
    seed: int
    fmt: str
    roles: tuple[str, ...]
    k: int
    mode: str
    runs: int
    sample_prob: float
    input_lines: int
    groups: int
    n: int
    max_group_product: int
    total_product: int
    z: int


@dataclass(frozen=True)
class Workload:
    """``pairs`` holds the distinct join pairs (a, c) as ``a << 32 | c``,
    sorted; the output checks find the exact k-th smallest pair hash in it."""

    facts: Facts
    files: dict[str, str]
    pairs: np.ndarray = field(compare=False, repr=False)


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (sort-based; ``np.unique`` is far slower here)."""
    s = np.sort(values)
    if s.size == 0:
        return s
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def scattered_ids(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct random values in [0, 2**32), in random order."""
    out = np.empty(0, dtype=np.uint64)
    while out.size < count:
        draw = rng.integers(0, 1 << 32, size=count + count // 8 + 16, dtype=np.uint64)
        out = distinct_sorted(np.concatenate([out, draw]))
    return rng.permutation(out)[:count]


def edges_text(xs: np.ndarray, ys: np.ndarray) -> str:
    return "".join(f"{x} {y}\n" for x, y in zip(xs.tolist(), ys.tolist()))


def join_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sorted distinct (a, c) pairs, as ``a << 32 | c``, of the join of two
    (n, 2) uint64 tuple arrays.

    ``left`` holds (a, b) rows and ``right`` (b, c) rows.  Each left tuple
    expands against the right tuples of its b-value with ``np.repeat``.
    """
    left = np.asarray(left, dtype=np.uint64).reshape(-1, 2)
    right = np.asarray(right, dtype=np.uint64).reshape(-1, 2)
    ba = distinct_sorted((left[:, 1] << _SHIFT) | left[:, 0])
    bc = distinct_sorted((right[:, 0] << _SHIFT) | right[:, 1])
    rb = bc >> _SHIFT
    lb = ba >> _SHIFT
    lo = np.searchsorted(rb, lb, side="left")
    counts = np.searchsorted(rb, lb, side="right") - lo
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    c = bc[np.arange(starts.size) + starts] & _LOW
    a = np.repeat(ba & _LOW, counts)
    return distinct_sorted((a << _SHIFT) | c)


def _self_join_shape(counts: np.ndarray) -> dict[str, int]:
    """Grouping facts of a self-join whose join values have these degrees."""
    counts = counts[counts > 0].astype(np.int64)
    return {
        "groups": int(counts.size),
        "n": int(2 * counts.sum()),
        "max_group_product": int(counts.max() ** 2) if counts.size else 0,
        "total_product": int(np.dot(counts, counts)),
    }


def uniform_ingest(seed: int, scale: float = 1.0) -> Workload:
    """Self-join of uniform random edges: many tiny groups, ingest-bound."""
    rng = np.random.default_rng([seed, 1])
    values = max(2, int(10_000 * scale))
    lines = max(1, int(100_000 * scale))
    ids = scattered_ids(rng, values)
    xi = rng.integers(0, values, size=lines)
    yi = rng.integers(0, values, size=lines)
    xs, ys = ids[xi], ids[yi]
    distinct_y = distinct_sorted(xi * values + yi) % values
    edges = np.stack([xs, ys], axis=1)
    pairs = join_pairs(edges, edges[:, ::-1])
    facts = Facts(
        UNIFORM, seed, "edges", ("self",), k=1024, mode="start-at-one", runs=1,
        sample_prob=0.3, input_lines=lines,
        **_self_join_shape(np.bincount(distinct_y, minlength=values)),
        z=int(pairs.size),
    )
    return Workload(facts, {"self": edges_text(xs, ys)}, pairs)


def zipf_sizes(count: int, exponent: float, cap: int) -> np.ndarray:
    """Ascending group sizes at evenly spaced quantiles of a Zipf law on 1..cap.

    Quantiles instead of random draws fix the size multiset, so n and the
    scan work do not vary with the seed.
    """
    support = np.arange(1, cap + 1, dtype=np.float64)
    pmf = support**-exponent
    cdf = np.cumsum(pmf) / pmf.sum()
    quantiles = (np.arange(count) + 0.5) / count
    return np.searchsorted(cdf, quantiles).astype(np.int64) + 1


def skewed_repeat(seed: int, scale: float = 1.0) -> Workload:
    """Zipf-sized groups over disjoint scattered values, so z = total product."""
    rng = np.random.default_rng([seed, 2])
    groups = max(1, int(2_000 * scale))
    left_sizes = zipf_sizes(groups, 1.5, 2_000)
    # The left/right size pairing is fixed (not seeded) so that z and the
    # largest group product are the same for every seed; the seed picks the
    # join value of each pair and every attribute value.
    right_sizes = left_sizes[np.random.default_rng(0).permutation(groups)]
    order = rng.permutation(groups)
    left_sizes, right_sizes = left_sizes[order], right_sizes[order]
    bs = scattered_ids(rng, groups)
    avals = scattered_ids(rng, int(left_sizes.sum()))
    cvals = scattered_ids(rng, int(right_sizes.sum()))
    products = left_sizes * right_sizes
    facts = Facts(
        SKEWED, seed, "edges", ("left", "right"), k=1024, mode="linear", runs=9,
        sample_prob=0.3, input_lines=int(left_sizes.sum() + right_sizes.sum()),
        groups=groups, n=int(left_sizes.sum() + right_sizes.sum()),
        max_group_product=int(products.max()), total_product=int(products.sum()),
        z=int(products.sum()),
    )
    left = np.stack([avals, np.repeat(bs, left_sizes)], axis=1)
    right = np.stack([np.repeat(bs, right_sizes), cvals], axis=1)
    files = {"left": edges_text(*left.T), "right": edges_text(*right.T)}
    return Workload(facts, files, join_pairs(left, right))


def fimi_sketch(seed: int, scale: float = 1.0) -> Workload:
    """Transactions over Zipf-Mandelbrot item popularity.  The self-join
    counts the transaction pairs that share an item."""
    rng = np.random.default_rng([seed, 3])
    lines = max(1, int(2_000 * scale))
    items, per_line = 600, 12
    ids = scattered_ids(rng, items)
    weights = 1.0 / (np.arange(items) + 50.0)
    # Gumbel top-k: weighted sampling of distinct items per transaction.
    keys = np.log(weights) + rng.gumbel(size=(lines, items))
    chosen = np.argpartition(-keys, per_line - 1, axis=1)[:, :per_line]
    text = "".join(" ".join(map(str, row)) + "\n" for row in ids[chosen].tolist())
    incidence = np.zeros((lines, items), dtype=np.float32)
    np.put_along_axis(incidence, chosen, 1.0, axis=1)
    # Transaction a joins transaction c iff they share an item; a line's
    # transaction id is its 0-based line number.
    blocks = []
    for start in range(0, lines, 1024):
        a, c = np.nonzero(incidence[start:start + 1024] @ incidence.T)
        blocks.append(((a + start).astype(np.uint64) << _SHIFT) | c.astype(np.uint64))
    pairs = np.concatenate(blocks)
    facts = Facts(
        FIMI, seed, "fimi", ("self",), k=65_536, mode="start-at-one", runs=1,
        sample_prob=0.5, input_lines=lines,
        **_self_join_shape(np.bincount(chosen.ravel(), minlength=items)), z=int(pairs.size),
    )
    return Workload(facts, {"self": text}, pairs)


GENERATORS = {UNIFORM: uniform_ingest, SKEWED: skewed_repeat, FIMI: fimi_sketch}


def generate(name: str, seed: int, scale: float = 1.0) -> Workload:
    return GENERATORS[name](seed, scale)


def write(workload: Workload, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for role, text in workload.files.items():
        (out / role).write_text(text, encoding="utf-8")
    (out / "facts.json").write_text(json.dumps(asdict(workload.facts)), encoding="utf-8")
    np.save(out / PAIRS_FILE, workload.pairs)


def read_pairs(out: Path) -> np.ndarray:
    return np.load(out / PAIRS_FILE)


def read_facts(out: Path) -> Facts:
    raw = json.loads((out / "facts.json").read_text(encoding="utf-8"))
    raw["roles"] = tuple(raw["roles"])
    return Facts(**raw)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write(generate(args.workload, args.seed), args.out)


if __name__ == "__main__":
    main()
