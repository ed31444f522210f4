"""Per-relation distinct samples and the rescaled join-project estimator.

A sample keeps a tuple iff the hash of its non-join attribute (a on the
left, c on the right) clears a fixed cut.  Membership is a function of the
attribute value alone, so all tuples sharing a value stay or go together and
two samples drawn independently, possibly at different times and places, can
still be joined meaningfully.  With sampling probabilities p1 and p2,

    z_hat = |Z'| / (p1 * p2)

is an unbiased estimator of the true join-project size z, where Z' is the
join-project of the two samples.  |Z'| is computed exactly when the sampled
product is small, otherwise by the core sketch estimator started at
threshold 1 (whose unfilled outcome is itself the exact count).

The estimate is reliable once z exceeds the scale

    beta = (14 / epsilon^2) * (n_c * n1 + n_a * n2) / s

for expected sample size s: above beta, z_hat is within a factor 1 +/-
epsilon of z with probability at least 5/6.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .estimator import EXACT_SMALL, MODE_START_AT_ONE, Estimate, EstimatorConfig, estimate_median
from .hashing import GRID, MERSENNE, PairwiseHash, WRAPPING64
from .relation import GroupedInput, Relation, Side, group_and_prune, pack, sorted_distinct, unpack

DEFAULT_EXACT_CUTOFF = 10_000


class SampleFormatError(ValueError):
    """Sample file is malformed or from an incompatible version."""


@dataclass(frozen=True)
class DistinctSample:
    """A value-consistent random subset of one relation.

    ``cut`` is the authoritative membership threshold in grid units: a tuple
    is kept iff selector(attribute) < cut.  The selector is part of the
    sample's identity and is persisted with it.  ``source_tuples`` and
    ``source_distinct`` describe the relation the sample was drawn from and
    feed the beta reliability scale later on.
    """

    side: Side
    prob: float
    cut: int
    selector: PairwiseHash
    relation: Relation
    source_tuples: int
    source_distinct: int


def membership_cut(prob: float) -> int:
    if not 0 < prob <= 1:
        raise ValueError(f"sampling probability must be in (0, 1], got {prob}")
    return int(prob * GRID)


def draw_sample(relation: Relation, prob: float, selector: PairwiseHash) -> DistinctSample:
    """One pass over the relation keeping value-selected tuples."""
    cut = membership_cut(prob)
    attrs = unpack(relation.keys)[0 if relation.side is Side.LEFT else 1]
    kept = relation.keys
    if cut < GRID and kept.size:
        kept = kept[selector.values(attrs) < np.uint64(cut)]
    return DistinctSample(
        side=relation.side,
        prob=prob,
        cut=cut,
        selector=selector,
        relation=Relation(relation.side, kept),
        source_tuples=len(relation),
        source_distinct=sorted_distinct(attrs).size,
    )


@dataclass(frozen=True)
class SampleEstimate:
    """Rescaled estimate from two samples.

    ``sampled_size`` is |Z'| (exact or sketch-estimated), ``value`` is
    |Z'| / (p1 * p2).  ``fallback`` flags a sketch that never filled, in
    which case the buffered exact count was used.
    """

    value: float
    sampled_size: float
    method: str  # "exact" | "sketch"
    fallback: bool
    estimate: Estimate | None = None


def estimate_from_samples(
    left: DistinctSample,
    right: DistinctSample,
    inner: EstimatorConfig,
    exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
    cap: int = oracle.DEFAULT_CAP,
) -> SampleEstimate:
    """Join the two samples and rescale by 1 / (p1 * p2)."""
    if left.side is not Side.LEFT or right.side is not Side.RIGHT:
        raise ValueError("estimate_from_samples needs a left sample and a right sample")
    grouped: GroupedInput = group_and_prune(left.relation, right.relation)
    scale = left.prob * right.prob
    if 0 < grouped.total_product <= exact_cutoff:
        z_sample = oracle.exact_size(grouped, cap=cap).z
        return SampleEstimate(z_sample / scale, float(z_sample), "exact", False)
    # Empty input also takes this branch: the sketch never fills, the exact
    # buffered count (zero) is used, and the fallback flag records it.
    cfg = replace(inner, threshold_mode=MODE_START_AT_ONE)
    est = estimate_median(grouped, cfg)
    return SampleEstimate(est.value / scale, est.value, "sketch", est.kind == EXACT_SMALL, est)


def beta_bound(n1: int, n2: int, n_a: int, n_c: int, s: float, epsilon: float) -> float:
    """Output-size scale above which the rescaled estimator is accurate.

    When the true size z exceeds the returned beta, the estimate is within
    1 +/- epsilon of z with probability at least 5/6.
    """
    if s < 1:
        raise ValueError(f"expected sample size must be >= 1, got {s}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return (14.0 / epsilon**2) * ((n_c * n1 + n_a * n2) / s)


def theoretical_epsilon(n1: int, n2: int, n_a: int, n_c: int, s: float, z: float) -> float:
    """Relative error at which the reliability scale equals z (beta inverted)."""
    return math.sqrt(14.0 * (n_c * n1 + n_a * n2) / (s * z))


def sufficient_sample_size(
    n1: int, n2: int, n_a: int, n_c: int, z_lower: float, epsilon: float, delta: float = 1 / 6
) -> int:
    """Smallest expected sample size for a 1 +/- epsilon estimate.

    Given a lower bound ``z_lower`` on the true size, returns the smallest
    integer s with

        s > ((n_c * n1 + n_a * n2) / z) * (1 + 1/(2 sqrt(delta))) / (epsilon^2 * delta)

    so that the failure probability is below delta.
    """
    if min(n1, n2, n_a, n_c) <= 0 or z_lower <= 0:
        raise ValueError("counts and the size lower bound must be positive")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must be in (0, 1/2), got {delta}")
    bound = ((n_c * n1 + n_a * n2) / z_lower) * (
        (1.0 + 1.0 / (2.0 * math.sqrt(delta))) / (epsilon**2 * delta)
    )
    return math.floor(bound) + 1


@dataclass(frozen=True)
class SampleSizePlan:
    """A sampling plan: expected sample size, per-side probabilities, and the
    reliability scale beta they imply at the requested accuracy."""

    s: int
    p1: float
    p2: float
    beta: float
    epsilon: float
    delta: float


def plan_sample_size(
    n1: int,
    n2: int,
    n_a: int,
    n_c: int,
    epsilon: float,
    delta: float = 1 / 6,
    z_lower: float | None = None,
    s: int | None = None,
) -> SampleSizePlan:
    """Solve the sample-size relation in either direction.

    Give ``z_lower`` to derive the smallest sufficient sample size, or give
    ``s`` directly to learn the beta scale that sample size buys.  Sampling
    probabilities are capped at 1 for relations smaller than s.
    """
    if (z_lower is None) == (s is None):
        raise ValueError("give exactly one of z_lower or s")
    if s is None:
        s = sufficient_sample_size(n1, n2, n_a, n_c, z_lower, epsilon, delta)
    return SampleSizePlan(
        s=s,
        p1=min(1.0, s / n1),
        p2=min(1.0, s / n2),
        beta=beta_bound(n1, n2, n_a, n_c, s, epsilon),
        epsilon=epsilon,
        delta=delta,
    )


# Sample files: little-endian header + one (u32, u32) record per tuple.  The
# membership cut needs 65 bits (prob = 1 means cut = 2**64), hence two words.
_MAGIC = b"JPDS"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBQQQQdQQQ")
_PAIR = np.dtype([("x", "<u4"), ("y", "<u4")])
_SIDE_CODES = {Side.LEFT: 0, Side.RIGHT: 1}
_SIDE_FROM_CODE = {v: k for k, v in _SIDE_CODES.items()}
_FAMILY_CODES = {WRAPPING64: 0, MERSENNE: 1}
_FAMILY_FROM_CODE = {v: k for k, v in _FAMILY_CODES.items()}


def save_sample(sample: DistinctSample, path: str) -> None:
    keys = sample.relation.keys
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        _SIDE_CODES[sample.side],
        _FAMILY_CODES[sample.selector.family],
        sample.selector.multiplier,
        sample.selector.addend,
        sample.cut & (GRID - 1),
        sample.cut >> 64,
        sample.prob,
        sample.source_tuples,
        sample.source_distinct,
        keys.size,
    )
    records = np.empty(keys.size, dtype=_PAIR)
    records["x"], records["y"] = unpack(keys)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def load_sample(path: str) -> DistinctSample:
    """Read a sample file, rejecting any that :func:`save_sample` could not
    have written with :class:`SampleFormatError`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise SampleFormatError(f"{path}: truncated header")
    (magic, version, side_code, family_code, multiplier, addend,
     cut_lo, cut_hi, prob, source_tuples, source_distinct, count) = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise SampleFormatError(f"{path}: not a sample file")
    if version != _VERSION:
        raise SampleFormatError(f"{path}: unsupported sample version {version}")
    if side_code not in _SIDE_FROM_CODE or family_code not in _FAMILY_FROM_CODE:
        raise SampleFormatError(f"{path}: corrupt header fields")
    if not (math.isfinite(prob) and 0 < prob <= 1):
        raise SampleFormatError(f"{path}: sampling probability {prob} outside (0, 1]")
    cut = (cut_hi << 64) | cut_lo
    if cut != membership_cut(prob):
        raise SampleFormatError(f"{path}: membership cut {cut} does not match probability {prob}")
    if count > source_tuples or not min(source_tuples, 1) <= source_distinct <= source_tuples:
        raise SampleFormatError(f"{path}: header counts disagree: {count} records, {source_tuples} "
                                f"source tuples, {source_distinct} distinct source values")
    body = blob[_HEADER.size:]
    if len(body) != count * 8:
        raise SampleFormatError(f"{path}: expected {count} tuple records, got {len(body) // 8}")
    records = np.frombuffer(body, dtype=_PAIR)
    keys = pack(records["x"], records["y"])
    if np.any(keys[1:] <= keys[:-1]):
        raise SampleFormatError(f"{path}: tuple records are not strictly ascending")
    side = _SIDE_FROM_CODE[side_code]
    return DistinctSample(
        side=side,
        prob=prob,
        cut=cut,
        selector=PairwiseHash(multiplier, addend, _FAMILY_FROM_CODE[family_code]),
        relation=Relation(side, keys),
        source_tuples=source_tuples,
        source_distinct=source_distinct,
    )
