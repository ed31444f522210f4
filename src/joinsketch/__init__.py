"""Size estimation for join-projects and sparse boolean matrix products.

Given relations R1(a, b) and R2(b, c), estimates the number of distinct
(a, c) pairs in the projected join in expected linear time, using a
k-minimum-values sketch over a structured pair hash that enumerates
small-hash candidates without materializing the product.  Also provides
value-consistent per-relation samples whose join supports the same estimate
from pre-computed sketches, plus brute-force oracles for verification.
"""

from .estimator import (
    EXACT_SMALL,
    MODE_LINEAR,
    MODE_START_AT_ONE,
    POINT,
    THRESHOLD_MODES,
    UPPER_BOUND,
    ConfigError,
    Estimate,
    EstimatorConfig,
    WorkCounters,
    estimate_median,
)
from .hashing import WRAPPING64, PairwiseHash
from .oracle import ExactResult, SizeCapError, exact_size
from .relation import (
    EDGES,
    FIMI,
    FORMATS,
    MTX_PATTERN,
    GroupedInput,
    ParseError,
    RangeError,
    Relation,
    Side,
    group_and_prune,
    load_relation,
    parse_relation,
)
from .sampling import (
    DistinctSample,
    SampleEstimate,
    SampleFormatError,
    beta_bound,
    draw_sample,
    estimate_from_samples,
    load_sample,
    save_sample,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DistinctSample",
    "EDGES",
    "EXACT_SMALL",
    "Estimate",
    "EstimatorConfig",
    "ExactResult",
    "FIMI",
    "FORMATS",
    "GroupedInput",
    "MODE_LINEAR",
    "MODE_START_AT_ONE",
    "MTX_PATTERN",
    "POINT",
    "PairwiseHash",
    "ParseError",
    "RangeError",
    "Relation",
    "SampleEstimate",
    "SampleFormatError",
    "Side",
    "SizeCapError",
    "THRESHOLD_MODES",
    "UPPER_BOUND",
    "WRAPPING64",
    "WorkCounters",
    "beta_bound",
    "draw_sample",
    "estimate_from_samples",
    "estimate_median",
    "exact_size",
    "group_and_prune",
    "load_relation",
    "load_sample",
    "parse_relation",
    "save_sample",
]
