"""End-to-end size estimation runs.

A run draws fresh pair-hash parameters, picks the initial threshold, drives
the per-group scans into one k-minimum-values sketch and converts the
outcome:

* sketch filled: point estimate  z_hat = k / v  from the k-th smallest hash v;
* sketch not filled, threshold started at 1: the sketch holds every distinct
  pair, so the count is exact;
* sketch not filled otherwise: the verdict "z <= k^2" reported as value k^2.

Repeating runs with independent hashes and taking the median drives the
failure probability down exponentially in the number of runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

from . import hashing
from .enumerator import scan_group, sort_group
from .kmin import KMinState
from .relation import GroupedInput

MODE_LINEAR = "linear"
MODE_START_AT_ONE = "start-at-one"
THRESHOLD_MODES = (MODE_LINEAR, MODE_START_AT_ONE)

POINT = "point"
UPPER_BOUND = "upper_bound"
EXACT_SMALL = "exact_small"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EstimatorConfig:
    """Run parameters.

    Give either ``epsilon`` (target relative error, 0 < epsilon < 1/4, which
    sets k = ceil(9 / epsilon^2)) or ``k`` directly.  ``runs`` must be odd so
    the median is well defined.  All randomness derives from ``seed``.
    """

    epsilon: float | None = None
    k: int | None = None
    threshold_mode: str = MODE_LINEAR
    runs: int = 1
    seed: int = 0
    family: str = hashing.WRAPPING64

    def __post_init__(self):
        if (self.epsilon is None) == (self.k is None):
            raise ConfigError("give exactly one of epsilon or k")
        if self.epsilon is not None and not 0 < self.epsilon < 0.25:
            raise ConfigError(f"epsilon must be in (0, 1/4), got {self.epsilon}")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError(f"unknown threshold mode: {self.threshold_mode!r}")
        if self.runs < 1 or self.runs % 2 == 0:
            raise ConfigError(f"runs must be odd and positive, got {self.runs}")
        if not 0 <= self.seed < hashing.GRID:
            raise ConfigError("seed must fit in 64 bits")
        if self.family not in hashing.FAMILIES:
            raise ConfigError(f"unknown hash family: {self.family!r}")

    @property
    def resolved_k(self) -> int:
        if self.k is not None:
            return self.k
        return math.ceil(9.0 / self.epsilon**2)


@dataclass
class WorkCounters:
    """Per-run work tally, aggregated over groups."""

    sorted_elements: int = 0
    sbar_increments: int = 0
    inner_iterations: int = 0
    emitted_pairs: int = 0
    accepted_offers: int = 0
    combine_calls: int = 0

    def __add__(self, other: "WorkCounters") -> "WorkCounters":
        return WorkCounters(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )

    @property
    def total(self) -> int:
        """Scan-side work: elements sorted + pointer advances + inner probes."""
        return self.sorted_elements + self.sbar_increments + self.inner_iterations

    def as_dict(self) -> dict[str, int]:
        return {**asdict(self), "total": self.total}


@dataclass(frozen=True)
class Estimate:
    """Outcome of a run.

    ``kind`` is one of ``point`` (value = k / v), ``exact_small`` (value is
    the exact distinct-pair count, also in ``count``) or ``upper_bound``
    (value = k^2, meaning the true size is at most that with probability
    2/3).  ``p0`` is the initial threshold in 2**-64 grid units and ``v`` the
    finalized k-th smallest hash for point outcomes.  ``work`` is the sum
    of ``work_per_run``, the counters of every run behind the outcome.
    """

    kind: str
    value: float
    k: int
    p0: int
    v: int | None = None
    count: int | None = None
    work: WorkCounters = field(default_factory=WorkCounters)
    work_per_run: tuple[WorkCounters, ...] = ()


def choose_threshold(grouped: GroupedInput, k: int, mode: str = MODE_LINEAR) -> int:
    """Initial threshold in grid units (GRID means 1.0, every pair passes).

    Linear mode picks min(1/k, k / max_group_product), floored to the grid.
    That caps the expected number of candidate emissions per group at
    max(|A|, |C|), so a whole run stays O(n) expected; the price is that the
    sketch only fills (and yields a point estimate) when z is roughly k^2 or
    larger.  Start-at-one mode always produces an answer instead.
    """
    if grouped.tuple_count == 0:
        return 0
    if mode == MODE_START_AT_ONE:
        return hashing.GRID
    return min(hashing.GRID // k, (k * hashing.GRID) // grouped.max_group_product)


def run_once(
    grouped: GroupedInput,
    cfg: EstimatorConfig,
    run_index: int = 0,
    key: tuple[int, ...] | None = None,
) -> Estimate:
    """One full estimation run with hash parameters drawn from (seed, key)."""
    if key is None:
        key = (run_index,)
    rng = hashing.run_rng(cfg.seed, key)
    pair_hash = hashing.draw_pair_hash(rng, cfg.family)
    k = cfg.resolved_k
    p0 = choose_threshold(grouped, k, cfg.threshold_mode)
    work = WorkCounters()
    if grouped.tuple_count == 0:
        return Estimate(EXACT_SMALL, 0.0, k, p0, count=0, work=work, work_per_run=(work,))

    state = KMinState(k, p0)
    for _, left, right in grouped.groups():
        sg = sort_group(left, right, pair_hash)
        work.sorted_elements += len(sg.xs) + len(sg.ys)
        counters = scan_group(sg, state)
        work.sbar_increments += counters.sbar_increments
        work.inner_iterations += counters.inner_iterations
        work.emitted_pairs += counters.emitted
    outcome = state.finalize()
    work.accepted_offers = state.accepted
    work.combine_calls = state.combines

    done = dict(k=k, p0=p0, work=work, work_per_run=(work,))
    if outcome.filled:
        v = outcome.v or 1  # all-zero hash ties; degenerate but divisible
        return Estimate(POINT, (k << hashing.GRID_BITS) / v, v=outcome.v, **done)
    if cfg.threshold_mode == MODE_START_AT_ONE:
        # Nothing was ever cut off, so the sketch saw every distinct pair.
        return Estimate(EXACT_SMALL, float(outcome.count), count=outcome.count, **done)
    return Estimate(UPPER_BOUND, float(k * k), **done)


def median_by_value(estimates: Sequence[Estimate]) -> Estimate:
    """Median element by numeric value (carries that element's kind and work)."""
    ordered = sorted(estimates, key=lambda e: e.value)
    return ordered[len(ordered) // 2]


def estimate_median(
    grouped: GroupedInput,
    cfg: EstimatorConfig,
    key_prefix: tuple[int, ...] = (),
) -> Estimate:
    """Median of ``cfg.runs`` independent runs (fresh hash draws per run).

    The result carries the median run's outcome and the work of all runs.
    """
    estimates = [run_once(grouped, cfg, key=key_prefix + (i,)) for i in range(cfg.runs)]
    per_run = tuple(e.work for e in estimates)
    return replace(median_by_value(estimates), work=sum(per_run, WorkCounters()),
                   work_per_run=per_run)
