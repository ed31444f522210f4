"""End-to-end size estimation runs.

A run draws fresh pair-hash parameters, picks the initial threshold, sorts
the groups chunk by chunk into arrays of candidate pairs, offers them group
by group to one k-minimum-values sketch and converts the outcome:

* sketch filled: point estimate  z_hat = k / v  from the k-th smallest hash v;
* sketch not filled, threshold reached 1: the sketch holds every distinct
  pair, so the count is exact;
* sketch not filled otherwise: the verdict "z <= k^2" reported as value k^2.

Linear mode makes one pass over the chunks.  Start-at-one mode aims its
first pass at the k-th smallest of the z distinct pair hashes, about k / z.
A pilot, run once per call and shared by its runs, samples the pair
occurrences of the left values whose pilot hash lies in the top 2**-s of
its range and estimates the distinct share r = z / total_product from them.
The first pass runs at p = c k / (r_hat total_product), with a margin c =
1 + 3 / sqrt(k) + 3 se / r_hat for the spread of the k-th smallest hash and
the pilot's standard error se, so it offers about c k / r_hat pair
occurrences.  While a pass ends with fewer than k distinct pairs, the run
widens p and makes another pass into the same sketch, offering only the
pairs at or above the previous pass's threshold (the floor).  A pass that
falls short never tightened its threshold and holds every distinct pair
below it; a pass that fills has seen every pair below the true k-th
smallest hash.  Either way the outcome is the one a single pass at p = 1
gives, whatever the pilot estimated, for fewer offers.

Repeating runs with independent hashes and taking the median drives the
failure probability down exponentially in the number of runs.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import hashing, oracle
from .enumerator import chunk_bounds, scan_group, sort_group
from .kmin import KMinState
from .relation import GroupedInput, run_starts

MODE_LINEAR = "linear"
MODE_START_AT_ONE = "start-at-one"
THRESHOLD_MODES = (MODE_LINEAR, MODE_START_AT_ONE)

POINT = "point"
UPPER_BOUND = "upper_bound"
EXACT_SMALL = "exact_small"

# Pair occurrences the pilot samples at most.  On the benchmark workloads
# the distinct share's standard error stays below 1% of it, and the pilot
# takes about a millisecond.
PILOT_OCCURRENCES = 1 << 14


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
class Pilot:
    """The distinct share of a sample of the pair occurrences.

    The sample holds the ``occurrences`` of the pairs of every left value
    whose pilot hash lies in the top 2**-s of its range.  Pairs with
    different left values never coincide, so the sample's distinct pairs
    over its occurrences, ``distinct_share``, is a ratio estimate of
    z / total_product; ``standard_error`` is its standard error.  Both are
    None when nothing was sampled.
    """

    occurrences: int
    distinct_share: float | None = None
    standard_error: float | None = None


@dataclass(frozen=True)
class Estimate:
    """Outcome of a run.

    ``kind`` is one of ``point`` (value = k / v), ``exact_small`` (value is
    the exact distinct-pair count, also in ``count``) or ``upper_bound``
    (value = k^2, meaning the true size is at most that with probability
    2/3).  ``p0`` is the mode's threshold ceiling in 2**-64 grid units (the
    threshold of linear mode's one pass; GRID for start-at-one, whose passes
    begin lower and widen up to it) and ``v`` the finalized k-th smallest
    hash for point outcomes.  ``pilot`` is the start-at-one pilot (None in
    linear mode) and ``first_p`` the threshold of the first pass; the runs
    of one call share both.  ``work_per_run`` holds the counters of every
    run behind the outcome.
    """

    kind: str
    value: float
    k: int
    p0: int
    v: int | None = None
    count: int | None = None
    work_per_run: tuple[WorkCounters, ...] = ()
    pilot: Pilot | None = None
    first_p: int | None = None

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


def _run_lengths(values: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal values of a sorted array."""
    return np.diff(np.append(np.flatnonzero(run_starts(values)), values.size))


def pilot_below_top(seed: int, values: np.ndarray) -> np.ndarray:
    """How far the pilot hash drawn from ``seed`` of each uint64 value lies
    below 2**64 - 1: a value is in the top 2**-s of the range iff this is
    below 2**(64 - s)."""
    # A multiply-add hash of contiguous ids is a lattice whose top bits can
    # miss the sample altogether; one xor-shift-multiply round mixes them.
    h = hashing.draw_single(hashing.pilot_rng(seed)).values(values)
    h ^= h >> np.uint64(32)
    h *= np.uint64(0xD6E8FEB86659FD93)
    h ^= h >> np.uint64(32)
    return np.invert(h, out=h)


def draw_pilot(grouped: GroupedInput, seed: int) -> Pilot:
    """Estimate the distinct share z / total_product from a sample.

    The sample holds every pair occurrence of the left values whose pilot
    hash, drawn from ``seed``, lies in the top 2**-s of its range.  s is the
    least for which at most ``PILOT_OCCURRENCES`` occurrences are expected,
    raised while more than that are sampled.  The oracle's sparse kernel
    counts each sampled value's distinct pairs; the standard error is the
    ratio estimator's over the sampled values, with the finite population
    correction 1 - 2**-s.  O(n + PILOT_OCCURRENCES) time and memory.
    """
    total = grouped.total_product
    if not total:
        return Pilot(0)
    below_top = pilot_below_top(seed, grouped.left_values)
    s = (-(-total // PILOT_OCCURRENCES) - 1).bit_length()
    n = below_top.size
    kept = np.arange(n) if s == 0 else np.flatnonzero(below_top < np.uint64(hashing.GRID >> s))
    right_sizes = np.diff(grouped.right_offsets)
    while True:
        group = np.searchsorted(grouped.left_offsets, kept, side="right") - 1
        occurrences = int(right_sizes[group].sum())
        if occurrences <= PILOT_OCCURRENCES:
            break
        s += 1
        kept = kept[below_top[kept] < np.uint64(hashing.GRID >> s)]
    if not occurrences:
        return Pilot(0)
    a = grouped.left_values[kept]
    order = np.argsort(a)
    distinct, fan = [], []
    for keys in oracle._pair_chunks(grouped, a[order], group[order]):
        fan.append(_run_lengths(keys >> np.uint64(32)))
        distinct.append(_run_lengths(keys[run_starts(keys)] >> np.uint64(32)))
    distinct, fan = np.concatenate(distinct), np.concatenate(fan)
    share = int(distinct.sum()) / occurrences
    residuals = distinct - share * fan
    error = math.sqrt((1 - 2.0**-s) * float(residuals @ residuals)) / occurrences
    return Pilot(occurrences, share, error)


def first_threshold(grouped: GroupedInput, k: int, pilot: Pilot) -> int:
    """Start-at-one's first threshold, min(GRID, max(1, ceil(c k GRID /
    (r_hat total_product)))) in exact arithmetic, for the pilot's share
    r_hat (1 when it sampled nothing) and c = 1 + 3 / sqrt(k) + 3 se /
    r_hat."""
    share = 1.0 if pilot.distinct_share is None else pilot.distinct_share
    error = pilot.standard_error or 0.0
    margin = 1 + 3 / math.sqrt(k) + 3 * error / share
    p = Fraction(margin) * k * hashing.GRID / (Fraction(share) * grouped.total_product)
    return min(hashing.GRID, max(1, math.ceil(p)))


def run_once(grouped: GroupedInput, cfg: EstimatorConfig, key: tuple[int, ...] = (0,),
             pilot: Pilot | None = None) -> Estimate:
    """One full estimation run with hash parameters drawn from (seed, key).

    Each pass sorts and scans every chunk at a threshold no higher than p0.
    Linear mode makes one pass at p0.  Start-at-one mode first passes at
    ``first_threshold`` for ``pilot``, drawn from the seed when not given;
    while a pass ends with count < k distinct pairs, it passes again at
    min(p0, max(4p, 2k * p // count)) with the previous p as the floor, so
    that each pair occurrence is offered at most once per run.  The outcome
    does not depend on the pilot.
    """
    rng = hashing.run_rng(cfg.seed, key)
    pair_hash = hashing.draw_pair_hash(rng, cfg.family)
    k = cfg.resolved_k
    p0 = choose_threshold(grouped, k, cfg.threshold_mode)
    p = p0
    if cfg.threshold_mode == MODE_START_AT_ONE:
        if pilot is None:
            pilot = draw_pilot(grouped, cfg.seed)
        if grouped.tuple_count:
            p = first_threshold(grouped, k, pilot)
    done = dict(k=k, p0=p0, pilot=pilot, first_p=p)
    if grouped.tuple_count == 0:
        return Estimate(EXACT_SMALL, 0.0, count=0, work_per_run=(WorkCounters(),), **done)

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

    done["work_per_run"] = (work,)
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
    In start-at-one mode one pilot serves every run.
    """
    pilot = draw_pilot(grouped, cfg.seed) if cfg.threshold_mode == MODE_START_AT_ONE else None
    estimates = [run_once(grouped, cfg, key=key_prefix + (i,), pilot=pilot)
                 for i in range(cfg.runs)]
    per_run = tuple(w for e in estimates for w in e.work_per_run)
    return replace(median_by_value(estimates), work_per_run=per_run)
