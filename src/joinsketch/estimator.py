"""End-to-end size estimation runs.

A run draws fresh pair-hash parameters, picks the initial threshold, sorts
the groups chunk by chunk into arrays of candidate pairs, offers them group
by group to one k-minimum-values sketch and converts the outcome:

* sketch filled: point estimate  z_hat = k / v  from the k-th smallest hash v;
* sketch not filled, threshold reached 1: the sketch holds every distinct
  pair, so the count is exact;
* sketch not filled otherwise: the verdict "z <= k^2" reported as value k^2.

Both threshold modes aim the first pass at the k-th smallest of the z
distinct pair hashes, about k / z, and differ only in their ceiling p0:
linear mode's is min(1/k, k / max_group_product), start-at-one's is 1.  A
pilot, run once per call and shared by its runs, samples the pair
occurrences of the left values whose pilot hash lies in the top 2**-s of
its range and estimates the distinct share r = z / total_product from them.
The first pass runs at p = min(p0, c k / (r_hat total_product)), with a
margin c = 1 + 3 / sqrt(k) + 3 se / r_hat for the spread of the k-th
smallest hash and the pilot's standard error se, so it offers about
c k / r_hat pair occurrences.  While a pass below p0 ends with fewer than k
distinct pairs, the run widens p, up to p0, and makes another pass into the
same sketch, offering every pair below the new threshold; the merge drops
those it holds.  A pass that falls short never tightened its threshold and
holds every distinct pair below it; a pass that fills has seen every pair
below the true k-th smallest hash.  Either way the outcome is the one a
single pass at p0 gives, whatever the pilot estimated, for fewer offers:
the k-th smallest distinct hash below p0 does not depend on the thresholds
that found it.

Repeating runs with independent hashes and taking the median drives the
failure probability down exponentially in the number of runs.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, fields, replace
from typing import ClassVar

import numpy as np

from . import hashing, oracle
from .enumerator import CHUNK_TUPLES, chunk_bounds, prune, scan_group, sort_group
from .kmin import KMinState
from .relation import GroupedInput, run_edges, run_starts

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
    randomness derives from ``seed``.  ``family`` names the one hash
    family, ``wrapping64``, and is not a parameter.
    """

    family: ClassVar[str] = hashing.WRAPPING64

    epsilon: float | None = None
    k: int | None = None
    threshold_mode: str = MODE_LINEAR
    runs: int = 1
    seed: int = 0

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
    sorted (at most every tuple once per pass: the tuples ``prune``
    returns), ``inner_iterations`` probes of the pair hash:
    one per pair emitted, plus one per column of the input per pass, the
    probe that skips or stops it.  A column whose pairs all lie below the
    threshold pays that probe too, though nothing is left to stop it.
    ``emitted_pairs`` counts the pairs offered to the sketch: each pair
    occurrence below a pass's threshold, once per pass that lists it.
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
    2/3).  ``p0`` is the mode's threshold ceiling in 2**-64 grid units (GRID
    for start-at-one), up to which the passes widen, and ``v`` the finalized
    k-th smallest hash for point outcomes.  ``pilot`` is the pilot and
    ``first_p`` the threshold of the first pass, at most ``p0``; the runs of
    one call share both.  ``work_per_run`` holds the counters of every run
    behind the outcome.
    """

    kind: str
    value: float
    k: int
    p0: int
    v: int | None = None
    count: int | None = None
    work_per_run: tuple[WorkCounters, ...] = ()
    pilot: Pilot = Pilot(0)
    first_p: int | None = None

    @property
    def work(self) -> WorkCounters:
        """The counters of ``work_per_run`` summed."""
        return sum(self.work_per_run, WorkCounters())


def choose_threshold(grouped: GroupedInput, k: int, mode: str = MODE_LINEAR) -> int:
    """The mode's threshold ceiling p0 in grid units (GRID means 1.0, every
    pair passes); 0 for an empty input.

    Linear mode's is min(1/k, k / max_group_product), floored to the grid.
    That caps the expected number of candidate emissions per group at
    max(|A|, |C|), so a whole run stays O(n) expected; the price is that the
    sketch only fills (and yields a point estimate) when z is roughly k^2 or
    larger.  Start-at-one mode's is 1, so it always produces an answer
    instead.  Either mode's first pass starts at ``first_threshold`` when
    that is lower.
    """
    if grouped.tuple_count == 0:
        return 0
    if mode == MODE_START_AT_ONE:
        return hashing.GRID
    return min(hashing.GRID // k, (k * hashing.GRID) // grouped.max_group_product)


def pilot_values(pilot_hash: hashing.PairwiseHash, values: np.ndarray) -> np.ndarray:
    """The pilot hash of each uint64 value: ``pilot_hash`` mixed.  A value
    is in the top 2**-s of the range iff this is at least 2**64 - 2**(64 - s)."""
    # A multiply-add hash of contiguous ids is a lattice whose top bits can
    # miss the sample altogether; one xor-shift-multiply round mixes them.
    h = pilot_hash.values(values)
    h ^= h >> np.uint64(32)
    h *= np.uint64(0xD6E8FEB86659FD93)
    h ^= h >> np.uint64(32)
    return h


def draw_pilot(grouped: GroupedInput, seed: int) -> Pilot:
    """Estimate the distinct share z / total_product from a sample.

    The sample holds every pair occurrence of the left values whose pilot
    hash, drawn from ``seed``, lies in the top 2**-s of its range.  s is the
    least for which at most ``PILOT_OCCURRENCES`` occurrences are expected,
    raised while more than that are sampled.  One expansion of the sampled
    occurrences into sorted pair keys counts each sampled value's distinct
    pairs; the standard error is the ratio estimator's over the sampled
    values, with the finite population correction 1 - 2**-s.  O(n) time.
    The left values are hashed in slices of ``CHUNK_TUPLES`` and only the
    sampled ones are kept, so the memory, beyond one array over the groups,
    is O(CHUNK_TUPLES + PILOT_OCCURRENCES) expected and does not grow with
    the left tuples.
    """
    total = grouped.total_product
    if not total:
        return Pilot(0)
    pilot_hash = hashing.draw_single(hashing.pilot_rng(seed))
    s = (-(-total // PILOT_OCCURRENCES) - 1).bit_length()
    kept, mixed = [], []
    for lo in range(0, grouped.left_values.size, CHUNK_TUPLES):
        h = pilot_values(pilot_hash, grouped.left_values[lo:lo + CHUNK_TUPLES])
        sampled = np.flatnonzero(h >= np.uint64(hashing.GRID - (hashing.GRID >> s)))
        kept.append(lo + sampled)
        mixed.append(h[sampled])
    kept, mixed = np.concatenate(kept), np.concatenate(mixed)
    group = np.searchsorted(grouped.left_offsets, kept, side="right") - 1
    fan = np.diff(grouped.right_offsets)[group]
    while (occurrences := int(fan.sum())) > PILOT_OCCURRENCES:
        s += 1
        sampled = mixed >= np.uint64(hashing.GRID - (hashing.GRID >> s))
        kept, mixed, group, fan = kept[sampled], mixed[sampled], group[sampled], fan[sampled]
    if not occurrences:
        return Pilot(0)
    keys = oracle._expand(grouped.right_values, grouped.left_values[kept], fan,
                          grouped.right_offsets[group])
    fan = np.diff(run_edges(keys >> np.uint64(32)))
    distinct = np.diff(run_edges(keys[run_starts(keys)] >> np.uint64(32)))
    share = int(distinct.sum()) / occurrences
    residuals = distinct - share * fan
    error = math.sqrt((1 - 2.0**-s) * math.fsum((residuals * residuals).tolist())) / occurrences
    return Pilot(occurrences, share, error)


def first_threshold(grouped: GroupedInput, k: int, pilot: Pilot) -> int:
    """The first pass's threshold before the mode's ceiling p0 caps it:
    min(GRID, max(1, ceil(c k GRID / (r_hat total_product)))) in exact
    integer arithmetic on the integer ratios of the floats c and r_hat, for
    the pilot's share r_hat (1 when it sampled nothing) and c = 1 + 3 /
    sqrt(k) + 3 se / r_hat."""
    share = 1.0 if pilot.distinct_share is None else pilot.distinct_share
    error = pilot.standard_error or 0.0
    margin = 1 + 3 / math.sqrt(k) + 3 * error / share
    margin_num, margin_den = margin.as_integer_ratio()
    share_num, share_den = share.as_integer_ratio()
    p = -(-margin_num * share_den * k * hashing.GRID
          // (margin_den * share_num * grouped.total_product))
    return min(hashing.GRID, max(1, p))


def run_once(grouped: GroupedInput, cfg: EstimatorConfig, key: tuple[int, ...] = (0,),
             pilot: Pilot | None = None) -> Estimate:
    """One full estimation run with hash parameters drawn from (seed, key).

    Each pass sorts and scans every chunk of what ``prune`` returns for the
    input at its threshold.  The first pass runs
    at min(p0, ``first_threshold``) for ``pilot``, drawn from the seed when
    not given; while a pass below p0 ends with count < k distinct pairs,
    the run passes again at min(p0, max(4p, 2k * p // count)) into the
    same sketch, whose merge drops the pairs it already holds.  A pass at
    p0 that falls short ends the run: with the kind ``exact_small`` in
    start-at-one mode, whose p0 is 1, and ``upper_bound`` in linear mode.
    The outcome does not depend on the pilot.
    """
    rng = hashing.run_rng(cfg.seed, key)
    pair_hash = hashing.draw_pair_hash(rng)
    k = cfg.resolved_k
    p0 = choose_threshold(grouped, k, cfg.threshold_mode)
    if pilot is None:
        pilot = draw_pilot(grouped, cfg.seed)
    p = min(p0, first_threshold(grouped, k, pilot)) if grouped.tuple_count else p0
    done = dict(k=k, p0=p0, pilot=pilot, first_p=p)
    if grouped.tuple_count == 0:
        return Estimate(EXACT_SMALL, 0.0, count=0, work_per_run=(WorkCounters(),), **done)

    state = KMinState(k, p)
    passes = sorted_tuples = 0
    while True:
        passes += 1
        # What a pass sorts depends on the input and its threshold alone,
        # not on the chunks or on when the sketch tightened.
        source = prune(grouped, pair_hash, state.p)
        sorted_tuples += source.tuple_count
        bounds = chunk_bounds(source, state.p)
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = sort_group(source, lo, hi, pair_hash, state.p)
            for g in range(hi - lo):
                scan_group(chunk, g, state)
            # Free the candidates before the next chunk gathers its own.
            del chunk
        outcome = state.finalize()
        if outcome.filled or state.p >= p0:
            break
        # Short of k: the threshold never tightened and the sketch holds
        # every distinct pair below it.  Widen and offer every pair below
        # the new threshold; the merge drops those already held.
        state.p = min(p0, max(4 * state.p, 2 * k * state.p // max(outcome.count, 1)))
    work = WorkCounters(passes=passes, sorted_elements=sorted_tuples,
                        inner_iterations=passes * grouped.right_values.size + state.offers,
                        emitted_pairs=state.offers, accepted_offers=state.accepted,
                        combine_calls=state.combines)

    done["work_per_run"] = (work,)
    if outcome.filled:
        v = outcome.v or 1  # all-zero hash ties; degenerate but divisible
        return Estimate(POINT, (k << hashing.GRID_BITS) / v, v=outcome.v, **done)
    if cfg.threshold_mode == MODE_START_AT_ONE:
        # The last pass ran at 1, so the sketch saw every distinct pair.
        return Estimate(EXACT_SMALL, float(outcome.count), count=outcome.count, **done)
    return Estimate(UPPER_BOUND, float(k * k), **done)


def estimate_median(
    grouped: GroupedInput,
    cfg: EstimatorConfig,
    key_prefix: tuple[int, ...] = (),
) -> Estimate:
    """Median of ``cfg.runs`` independent runs (fresh hash draws per run).

    The result carries the median run's outcome and the work of all runs.
    One pilot serves every run.
    """
    pilot = draw_pilot(grouped, cfg.seed)
    estimates = [run_once(grouped, cfg, key=key_prefix + (i,), pilot=pilot)
                 for i in range(cfg.runs)]
    per_run = tuple(w for e in estimates for w in e.work_per_run)
    median = sorted(estimates, key=lambda e: e.value)[len(estimates) // 2]
    return replace(median, work_per_run=per_run)
