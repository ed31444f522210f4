"""Command line front end.

Subcommands: estimate, exact, experiment, sample, sample-estimate.
Exit codes: 0 success, 1 usage error, 2 data error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import hashing, oracle, sampling
from .estimator import (
    MODE_START_AT_ONE,
    POINT,
    THRESHOLD_MODES,
    ConfigError,
    Estimate,
    EstimatorConfig,
    estimate_median,
)
from .relation import (
    EDGES,
    FORMATS,
    GroupedInput,
    ParseError,
    RangeError,
    Side,
    group_and_prune,
    load_relation,
)
from .sampling import SampleFormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CAP = 3
# A closed standard output: the status a shell reports for a filter that
# SIGPIPE ended, 128 + 13.
EXIT_PIPE = 141


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our exit codes.
    def error(self, message):
        raise UsageError(message)


def _u64(text: str) -> int:
    try:
        value = int(text)
        if 0 <= value < hashing.GRID:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {text!r}")


def _probability(text: str) -> float:
    try:
        value = float(text)
        if 0 < value <= 1:  # also rejects NaN
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--left", metavar="FILE", help="left relation, schema (a, b)")
    p.add_argument("--right", metavar="FILE", help="right relation, schema (b, c)")
    p.add_argument("--self", dest="self_input", metavar="FILE",
                   help="self-join: parse once, mirror for the right side")
    p.add_argument("--format", choices=FORMATS, default=EDGES)


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, help="target relative error in (0, 1/4)")
    p.add_argument("-k", dest="k", type=int, help="sketch size (alternative to --epsilon)")
    p.add_argument("--runs", type=int, default=1, help="odd number of runs; the median is reported")
    p.add_argument("--seed", type=_u64, default=0)


def _grouped_inputs(args) -> GroupedInput:
    if args.self_input:
        if args.left or args.right:
            raise UsageError("--self excludes --left/--right")
        left = load_relation(args.self_input, args.format, Side.LEFT)
        return group_and_prune(left, left.mirrored())
    if not args.left or not args.right:
        raise UsageError("need --left FILE and --right FILE, or --self FILE")
    return group_and_prune(
        load_relation(args.left, args.format, Side.LEFT),
        load_relation(args.right, args.format, Side.RIGHT),
    )


def _config_from_args(args) -> EstimatorConfig:
    if args.epsilon is None and args.k is None:
        raise UsageError("need --epsilon or -k")
    return EstimatorConfig(
        epsilon=args.epsilon,
        k=args.k,
        threshold_mode=args.threshold_mode,
        runs=args.runs,
        seed=args.seed,
    )


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, allow_nan=False))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            inner = " ".join(f"{k}={v}" for k, v in value.items())
            print(f"{key}: {inner}")
        else:
            print(f"{key}: {value}")


def _shape(grouped: GroupedInput) -> dict:
    return {
        "n": grouped.tuple_count,
        "groups": len(grouped),
        "max_group_product": grouped.max_group_product,
        "total_product": grouped.total_product,
    }


def _schedule(est: Estimate) -> dict:
    """The first pass's threshold and the pilot behind it, which the runs
    of one call share in either threshold mode; the share and its standard
    error are null where nothing was sampled."""
    return {
        "first_p": est.first_p / hashing.GRID,
        "first_p_raw": est.first_p,
        "pilot_occurrences": est.pilot.occurrences,
        "distinct_share": est.pilot.distinct_share,
        "distinct_share_se": est.pilot.standard_error,
    }


def _estimate_report(est: Estimate, cfg: EstimatorConfig, grouped: GroupedInput) -> dict:
    return {
        "command": "estimate",
        "kind": est.kind,
        "value": est.value,
        "count": est.count,
        "k": est.k,
        "epsilon": cfg.epsilon,
        "p0": est.p0 / hashing.GRID,
        "p0_raw": est.p0,
        **_schedule(est),
        "v_raw": est.v,
        "threshold_mode": cfg.threshold_mode,
        "runs": cfg.runs,
        "seed": cfg.seed,
        "hash_family": cfg.family,
        **_shape(grouped),
        # max_group_product <= z <= total_product always holds, so a point
        # estimate outside that bracket is known to be off.
        "outside_bracket": est.kind == POINT and not (
            grouped.max_group_product <= est.value <= grouped.total_product),
        "work": est.work.as_dict(),
        "work_per_run": [w.as_dict() for w in est.work_per_run],
    }


def cmd_estimate(args) -> int:
    grouped = _grouped_inputs(args)
    cfg = _config_from_args(args)
    est = estimate_median(grouped, cfg)
    _emit(_estimate_report(est, cfg, grouped), args.json)
    return EXIT_OK


def cmd_exact(args) -> int:
    grouped = _grouped_inputs(args)
    result = oracle.exact_size(grouped, cap=args.cap)
    _emit(
        {
            "command": "exact",
            "z": result.z,
            **_shape(grouped),
            "expanded_pairs": result.expanded_pairs,
        },
        args.json,
    )
    return EXIT_OK


def observed_epsilon(ratios: list[float], fraction: float = 2.0 / 3.0) -> float:
    """Smallest e such that at least ``fraction`` of ratios lie in [1-e, 1+e]."""
    errors = sorted(abs(r - 1.0) for r in ratios)
    need = math.ceil(fraction * len(errors))
    return errors[need - 1]


def cmd_experiment(args) -> int:
    grouped = _grouped_inputs(args)
    name = args.name or Path(args.self_input or args.left).stem
    if name in (".", "..") or Path(name).name != name:
        raise UsageError(f"--name must be a file name without a directory, got {name!r}")
    cfg = _config_from_args(args)
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    if args.exact_value is not None:
        exact = args.exact_value
    else:
        exact = float(oracle.exact_size(grouped, cap=args.cap).z)
    if not 0 < exact < math.inf:
        raise UsageError("exact size must be positive and finite to form ratios")

    estimates = [estimate_median(grouped, cfg, key_prefix=(t,)) for t in range(args.trials)]
    trials = [
        {"trial": t, "estimate": est.value, "ratio": est.value / exact}
        for t, est in enumerate(estimates)
    ]
    ratios = sorted(item["ratio"] for item in trials)
    if not all(map(math.isfinite, ratios)):
        raise UsageError(f"exact size {exact!r} is too small: an estimate over it overflows")
    theoretical = math.sqrt(9.0 / cfg.resolved_k)
    observed = observed_epsilon(ratios)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cdf_path = out_dir / f"{name}_cdf.csv"
    with open(cdf_path, "w", encoding="utf-8") as fh:
        fh.write("ratio,cumulative_probability\n")
        for i, ratio in enumerate(ratios):
            fh.write(f"{ratio!r},{(i + 1) / len(ratios)!r}\n")

    summary = {
        "command": "experiment",
        "instance": name,
        "k": cfg.resolved_k,
        "trials": args.trials,
        "runs": cfg.runs,
        "seed": cfg.seed,
        "threshold_mode": cfg.threshold_mode,
        "exact": exact,
        "theoretical_epsilon": theoretical,
        "observed_epsilon": observed,
        "trial_estimates": trials,
        "ratios": ratios,
        "cdf_file": str(cdf_path),
    }
    summary_path = out_dir / f"{name}_summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, allow_nan=False)
    if args.json:
        print(json.dumps(summary, allow_nan=False))
    else:
        print(
            f"{name}: k={cfg.resolved_k} trials={args.trials} exact={exact:g} "
            f"theoretical_eps={theoretical:.3f} observed_eps={observed:.3f}"
        )
        print(f"wrote {cdf_path} and {summary_path}")
    return EXIT_OK


_SIDE_INDEX = {Side.LEFT: 0, Side.RIGHT: 1}


def cmd_sample(args) -> int:
    side = Side.LEFT if args.side == "left" else Side.RIGHT
    relation = load_relation(args.input, args.format, side)
    selector = hashing.draw_single(hashing.selector_rng(args.seed, _SIDE_INDEX[side]))
    sample = sampling.draw_sample(relation, args.prob, selector)
    sampling.save_sample(sample, args.out)
    _emit(
        {
            "command": "sample",
            "side": side.value,
            "prob": args.prob,
            "kept_tuples": len(sample.relation),
            "source_tuples": sample.source_tuples,
            "source_distinct": sample.source_distinct,
            "seed": args.seed,
            "path": args.out,
        },
        args.json,
    )
    return EXIT_OK


def cmd_sample_estimate(args) -> int:
    first = sampling.load_sample(args.left_sample)
    second = sampling.load_sample(args.right_sample)
    side = first.relation.side
    if side is second.relation.side:
        raise SampleFormatError(f"both samples are {side.value}-side; need one of each")
    left, right = (first, second) if side is Side.LEFT else (second, first)
    cfg = _config_from_args(args)
    result = sampling.estimate_from_samples(left, right, cfg, exact_cutoff=args.exact_cutoff)
    est = result.estimate

    epsilon = args.epsilon if args.epsilon is not None else math.sqrt(9.0 / cfg.resolved_k)
    s = min(left.prob * left.source_tuples, right.prob * right.source_tuples)
    if s >= 1:
        beta = sampling.beta_bound(
            left.source_tuples, right.source_tuples,
            left.source_distinct, right.source_distinct, s, epsilon,
        )
        upper_bound_regime = bool(result.value < (1.0 + epsilon) * beta)
    else:
        # Below one expected sampled tuple the scale is infinite: report no
        # number, and every estimate is in the unreliable regime.
        beta = None
        upper_bound_regime = True
    _emit(
        {
            "command": "sample-estimate",
            "value": result.value,
            "sampled_size": result.sampled_size,
            "method": result.method,
            "fallback": result.fallback,
            "p1": left.prob,
            "p2": right.prob,
            "k": cfg.resolved_k,
            "epsilon": epsilon,
            "beta": beta,
            "upper_bound_regime": upper_bound_regime,
            "seed": cfg.seed,
            # The inner sketch's outcome; null when the sampled join was
            # counted exactly.
            "estimate": None if est is None else {
                "kind": est.kind, "count": est.count, "v_raw": est.v, **_schedule(est)},
        },
        args.json,
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="joinsketch", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    # start-at-one default so the command always yields an answer; pass
    # --threshold-mode linear for the O(n)-work analysis mode.
    p = sub.add_parser("estimate", help="estimate the join-project size")
    _add_input_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--threshold-mode", choices=THRESHOLD_MODES, default=MODE_START_AT_ONE)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("exact", help="exact size, counted over left values")
    _add_input_flags(p)
    p.add_argument("--cap", type=_u64, default=oracle.DEFAULT_CAP)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("experiment", help="repeated-trial accuracy harness with CDF output")
    _add_input_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--threshold-mode", choices=THRESHOLD_MODES, default=MODE_START_AT_ONE)
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--exact-value", type=float, help="known exact size (skips the oracle)")
    p.add_argument("--cap", type=_u64, default=oracle.DEFAULT_CAP)
    p.add_argument("--name", help="instance name for output files (default: input stem)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sample", help="draw and persist a distinct sample of one relation")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--format", choices=FORMATS, default=EDGES)
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--prob", type=_probability, required=True)
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sample-estimate", help="estimate from two persisted samples")
    p.add_argument("left_sample", metavar="LEFT_SAMPLE")
    p.add_argument("right_sample", metavar="RIGHT_SAMPLE")
    _add_estimator_flags(p)
    # No --threshold-mode: estimate_from_samples always runs start-at-one.
    p.set_defaults(threshold_mode=MODE_START_AT_ONE)
    p.add_argument("--exact-cutoff", type=_u64, default=sampling.DEFAULT_EXACT_CUTOFF,
                   help="sampled-product size up to which the join is counted exactly")
    p.set_defaults(func=cmd_sample_estimate)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        status = args.func(args)
        # Report a closed pipe here, not from the flush at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader stopped reading: end quietly, as a filter does, and
        # send what is still buffered to the null device at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, RangeError, SampleFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (oracle.SizeCapError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP


def entry() -> None:
    sys.exit(main())
