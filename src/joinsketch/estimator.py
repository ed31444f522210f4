"""End-to-end size estimation runs.

A run draws fresh pair-hash parameters, picks the initial threshold, sorts
the groups chunk by chunk into arrays of candidate pairs, offers them group
by group to one k-minimum-values sketch and converts the outcome:

* sketch filled: point estimate  z_hat = k / v  from the k-th smallest hash v;
* sketch not filled, threshold reached 1: the sketch holds every distinct
  pair, so the count is exact;
* sketch not filled otherwise: the verdict "z <= k^2" reported as value k^2.

Linear mode makes one pass over the chunks.  Start-at-one mode begins at
p = 2k / total_product and, while a pass ends with fewer than k distinct
pairs, widens p and makes another pass into the same sketch, offering only
the pairs at or above the previous pass's threshold (the floor).  A pass
that falls short never tightened its threshold and holds every distinct
pair below it; a pass that fills has seen every pair below the true k-th
smallest hash.  Either way the outcome is the one a single pass at p = 1
gives, for fewer offers.

Repeating runs with independent hashes and taking the median drives the
failure probability down exponentially in the number of runs.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

from . import hashing
from .enumerator import chunk_bounds, scan_group, sort_group
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
    sets k = ceil(9 / epsilon^2)) or ``k`` directly; k must lie in
    [1, 2**64).  ``runs`` must be odd so the median is well defined.  All
    randomness derives from ``seed``.
    """

    epsilon: float | None = None
    k: int | None = None
    threshold_mode: str = MODE_LINEAR
    runs: int = 1
    seed: int = 0
    family: str = hashing.WRAPPING64

    def __post_init__(self):
        # Integers of any type (numpy ones too) become Python ints, so that
        # k << 64 and the like cannot overflow a fixed-width type.
        for name in ("runs", "seed") if self.k is None else ("k", "runs", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        if (self.epsilon is None) == (self.k is None):
            raise ConfigError("give exactly one of epsilon or k")
        if self.epsilon is not None and not (
            isinstance(self.epsilon, numbers.Real) and 0 < self.epsilon < 0.25
        ):
            raise ConfigError(f"epsilon must be a number in (0, 1/4), got {self.epsilon!r}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError(f"unknown threshold mode: {self.threshold_mode!r}")
        if self.runs < 1 or self.runs % 2 == 0:
            raise ConfigError(f"runs must be odd and positive, got {self.runs}")
        if not 0 <= self.seed < hashing.GRID:
            raise ConfigError("seed must fit in 64 bits")
        if self.family not in hashing.FAMILIES:
            raise ConfigError(f"unknown hash family: {self.family!r}")
        # The grid holds 2**64 hash values.  A tiny epsilon is rejected
        # before 9 / epsilon**2 can divide by zero or overflow.
        if self.epsilon is not None and self.epsilon**2 * hashing.GRID < 9.0:
            raise ConfigError(f"epsilon {self.epsilon} needs k = ceil(9 / epsilon**2) >= 2**64")
        if not 1 <= self.resolved_k < hashing.GRID:
            raise ConfigError(f"k must be in [1, 2**64), got {self.resolved_k}")

    @property
    def resolved_k(self) -> int:
        if self.k is not None:
            return self.k
        return math.ceil(9.0 / self.epsilon**2)


@dataclass
class WorkCounters:
    """Per-run work tally.

    ``passes`` counts passes over the chunks, ``sorted_elements`` tuples
    sorted (every tuple once per pass), ``inner_iterations`` probes of the
    pair hash: one per pair below the floor or emitted, plus one per column
    per pass, the probe that skips or stops it.  A column whose pairs all
    lie below the threshold pays that probe too, though nothing is left to
    stop it.
    """

    passes: int = 0
    sorted_elements: int = 0
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
        """Scan-side work: elements sorted + probes of the pair hash."""
        return self.sorted_elements + self.inner_iterations

    def as_dict(self) -> dict[str, int]:
        return {**asdict(self), "total": self.total}


@dataclass(frozen=True)
class Estimate:
    """Outcome of a run.

    ``kind`` is one of ``point`` (value = k / v), ``exact_small`` (value is
    the exact distinct-pair count, also in ``count``) or ``upper_bound``
    (value = k^2, meaning the true size is at most that with probability
    2/3).  ``p0`` is the mode's threshold ceiling in 2**-64 grid units (the
    threshold of linear mode's one pass; GRID for start-at-one, whose passes
    begin lower and widen up to it) and ``v`` the finalized k-th smallest
    hash for point outcomes.  ``work_per_run`` holds the counters of every
    run behind the outcome.
    """

    kind: str
    value: float
    k: int
    p0: int
    v: int | None = None
    count: int | None = None
    work_per_run: tuple[WorkCounters, ...] = ()

    @property
    def work(self) -> WorkCounters:
        """The counters of ``work_per_run`` summed."""
        return sum(self.work_per_run, WorkCounters())


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


def run_once(grouped: GroupedInput, cfg: EstimatorConfig, key: tuple[int, ...] = (0,)) -> Estimate:
    """One full estimation run with hash parameters drawn from (seed, key).

    Each pass sorts and scans every chunk at a threshold no higher than p0.
    Linear mode makes one pass at p0.  Start-at-one mode first passes at
    p = min(p0, max(1, 2k * GRID // total_product)); while a pass ends with
    count < k distinct pairs, it passes again at min(p0, max(4p, 2k * p //
    count)) with the previous p as the floor, so that each pair occurrence
    is offered at most once per run.
    """
    rng = hashing.run_rng(cfg.seed, key)
    pair_hash = hashing.draw_pair_hash(rng, cfg.family)
    k = cfg.resolved_k
    p0 = choose_threshold(grouped, k, cfg.threshold_mode)
    if grouped.tuple_count == 0:
        return Estimate(EXACT_SMALL, 0.0, k, p0, count=0, work_per_run=(WorkCounters(),))

    p = p0
    if cfg.threshold_mode == MODE_START_AT_ONE:
        p = min(p0, max(1, 2 * k * hashing.GRID // grouped.total_product))
    state = KMinState(k, p)
    floor = passes = probes = 0
    bounds = chunk_bounds(grouped)
    while True:
        passes += 1
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = sort_group(grouped, lo, hi, pair_hash, state.p, floor)
            probes += chunk.probes
            for g in range(hi - lo):
                scan_group(chunk, g, state)
            # Free the candidates before the next chunk gathers its own.
            del chunk
        outcome = state.finalize()
        if outcome.filled or state.p >= p0:
            break
        # Short of k: the threshold never tightened and the sketch holds
        # every distinct pair below it.  Widen and offer the pairs above.
        floor = state.p
        state.p = min(p0, max(4 * floor, 2 * k * floor // max(outcome.count, 1)))
    work = WorkCounters(passes=passes, sorted_elements=passes * grouped.tuple_count,
                        inner_iterations=probes + state.offers, emitted_pairs=state.offers,
                        accepted_offers=state.accepted, combine_calls=state.combines)

    done = dict(k=k, p0=p0, work_per_run=(work,))
    if outcome.filled:
        v = outcome.v or 1  # all-zero hash ties; degenerate but divisible
        return Estimate(POINT, (k << hashing.GRID_BITS) / v, v=outcome.v, **done)
    if cfg.threshold_mode == MODE_START_AT_ONE:
        # The last pass ran at 1, so the sketch saw every distinct pair.
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
    per_run = tuple(w for e in estimates for w in e.work_per_run)
    return replace(median_by_value(estimates), work_per_run=per_run)
