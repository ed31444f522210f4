"""Per-relation distinct samples and the rescaled join-project estimator.

A sample keeps a tuple iff the hash of its non-join attribute (a on the
left, c on the right) clears a fixed cut.  Membership is a function of the
attribute value alone, so all tuples sharing a value stay or go together and
two samples drawn independently, possibly at different times and places, can
still be joined meaningfully.  With sampling probabilities p1 and p2,

    z_hat = |Z'| / (p1 * p2)

is an unbiased estimator of the true join-project size z, where Z' is the
join-project of the two samples.  |Z'| is computed exactly when the sampled
product is small, otherwise by the core sketch estimator in start-at-one
mode (whose unfilled outcome is itself the exact count).

The estimate is reliable once z exceeds the scale

    beta = (14 / epsilon^2) * (n_c * n1 + n_a * n2) / s

for expected sample size s: above beta, z_hat is within a factor 1 +/-
epsilon of z with probability at least 5/6.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .estimator import EXACT_SMALL, MODE_START_AT_ONE, Estimate, EstimatorConfig, estimate_median
from .hashing import GRID, PairwiseHash
from .relation import GroupedInput, Relation, Side, group_and_prune, pack, sorted_distinct, unpack

DEFAULT_EXACT_CUTOFF = 10_000


class SampleFormatError(ValueError):
    """Sample file is malformed or from an incompatible version."""


@dataclass(frozen=True)
class DistinctSample:
    """A value-consistent random subset of one relation.

    A tuple is kept iff selector(attribute) < ``cut``, the membership
    threshold that ``prob`` sets.  The selector is part of the sample's
    identity and is persisted with it; its side is ``relation.side``.
    ``source_tuples`` and ``source_distinct`` describe the relation the
    sample was drawn from and feed the beta reliability scale later on.
    """

    prob: float
    selector: PairwiseHash
    relation: Relation
    source_tuples: int
    source_distinct: int

    @property
    def cut(self) -> int:
        return membership_cut(self.prob)


def membership_cut(prob: float) -> int:
    if not (isinstance(prob, numbers.Real) and 0 < prob <= 1):
        raise ValueError(f"sampling probability must be a number in (0, 1], got {prob!r}")
    return int(prob * GRID)


def draw_sample(relation: Relation, prob: float, selector: PairwiseHash) -> DistinctSample:
    """One pass over the relation keeping value-selected tuples."""
    cut = membership_cut(prob)
    attrs = unpack(relation.keys)[relation.side.index]
    kept = relation.keys
    if cut < GRID and kept.size:
        kept = kept[selector.values(attrs) < np.uint64(cut)]
    return DistinctSample(
        prob=prob,
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
) -> SampleEstimate:
    """Join the two samples and rescale by 1 / (p1 * p2)."""
    grouped: GroupedInput = group_and_prune(left.relation, right.relation)
    scale = left.prob * right.prob
    if 0 < grouped.total_product <= exact_cutoff:
        z_sample = oracle.exact_size(grouped).z
        return SampleEstimate(z_sample / scale, float(z_sample), "exact", False)
    # Empty input also takes this branch: the sketch never fills, the exact
    # buffered count (zero) is used, and the fallback flag records it.  Its
    # value is 0 even if p1 * p2 underflows to 0, which only a cut of 0 does.
    cfg = replace(inner, threshold_mode=MODE_START_AT_ONE)
    est = estimate_median(grouped, cfg)
    value = est.value / scale if est.value else 0.0
    return SampleEstimate(value, est.value, "sketch", est.kind == EXACT_SMALL, est)


def beta_bound(n1: int, n2: int, n_a: int, n_c: int, s: float, epsilon: float) -> float:
    """Output-size scale above which the rescaled estimator is accurate.

    When the true size z exceeds the returned beta, the estimate is within
    1 +/- epsilon of z with probability at least 5/6.
    """
    if min(n1, n2, n_a, n_c) <= 0:
        raise ValueError("relation sizes and distinct counts must be positive")
    if not (isinstance(s, numbers.Real) and s >= 1):
        raise ValueError(f"expected sample size must be a number >= 1, got {s!r}")
    if not (isinstance(epsilon, numbers.Real) and epsilon > 0):
        raise ValueError(f"epsilon must be a positive number, got {epsilon!r}")
    return (14.0 / epsilon**2) * ((n_c * n1 + n_a * n2) / s)


# Sample files: little-endian header + one (u32, u32) record per tuple.  The
# membership cut needs 65 bits (prob = 1 means cut = 2**64), hence two words.
# The family byte is 0, for the one hash family; 1 marked files drawn with
# the retired family, whose hashes this version no longer computes.
_MAGIC = b"JPDS"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBQQQQdQQQ")
_PAIR = np.dtype([("x", "<u4"), ("y", "<u4")])
_FAMILY_CODE = 0
_RETIRED_FAMILY_CODE = 1


def save_sample(sample: DistinctSample, path: str) -> None:
    keys = sample.relation.keys
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        sample.relation.side.index,
        _FAMILY_CODE,
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
    if family_code == _RETIRED_FAMILY_CODE:
        raise SampleFormatError(f"{path}: drawn with the retired mersenne61 hash family; "
                                "draw the sample again")
    if side_code >= len(Side) or family_code != _FAMILY_CODE:
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
    side = list(Side)[side_code]
    selector = PairwiseHash(multiplier, addend)
    attrs = sorted_distinct(unpack(keys)[side.index])
    if attrs.size > source_distinct:
        raise SampleFormatError(f"{path}: {attrs.size} distinct sampled values, more than the "
                                f"{source_distinct} distinct source values")
    if cut < GRID and np.any(selector.values(attrs) >= np.uint64(cut)):
        raise SampleFormatError(f"{path}: a record's value fails the sample's membership cut")
    return DistinctSample(
        prob=prob,
        selector=selector,
        relation=Relation(side, keys),
        source_tuples=source_tuples,
        source_distinct=source_distinct,
    )
