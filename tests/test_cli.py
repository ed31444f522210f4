import csv
import json
import os
import struct
import subprocess
import sys

import pytest

from joinsketch import (
    THRESHOLD_MODES,
    EstimatorConfig,
    Side,
    draw_sample,
    estimate_from_samples,
    estimate_median,
    exact_size,
    group_and_prune,
    load_relation,
    load_sample,
    save_sample,
)
from joinsketch.cli import main, observed_epsilon
from joinsketch.hashing import Pcg64Stream, draw_single

from conftest import break_the_cut


@pytest.fixture
def tiny_pair(tmp_path):
    left = tmp_path / "left.edges"
    left.write_text("1 1\n2 1\n3 1\n")
    right = tmp_path / "right.edges"
    right.write_text("1 5\n")
    return left, right


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--json"])
    assert code == 0, err
    return json.loads(out)


def test_estimate_undersupplied_is_exact(capsys, tiny_pair):
    left, right = tiny_pair
    report = run_json(
        capsys,
        ["estimate", "--left", str(left), "--right", str(right), "-k", "16", "--seed", "1"],
    )
    assert report["kind"] == "exact_small"
    assert report["value"] == 3.0
    assert report["count"] == 3
    assert report["k"] == 16


def test_estimate_self_join_fimi(capsys, tmp_path):
    data = tmp_path / "tiny.fimi"
    data.write_text("5 7\n5\n")
    report = run_json(
        capsys,
        ["estimate", "--self", str(data), "--format", "fimi", "-k", "16", "--seed", "1"],
    )
    # Rows {0, 1} share item 5, row 0 also has item 7: pairs {0,1}^2.
    assert report["kind"] == "exact_small"
    assert report["value"] == 4.0


def test_epsilon_outside_range_is_usage_error(capsys, tiny_pair):
    left, right = tiny_pair
    code, _, err = run_cli(
        capsys, ["estimate", "--left", str(left), "--right", str(right), "--epsilon", "0.3"]
    )
    assert code == 1
    assert "epsilon" in err


def test_epsilon_sets_k(capsys, tiny_pair):
    left, right = tiny_pair
    report = run_json(
        capsys,
        ["estimate", "--left", str(left), "--right", str(right), "--epsilon", "0.1"],
    )
    assert report["k"] == 900


def test_estimate_report_round_trips(capsys, tiny_pair):
    left, right = tiny_pair
    argv = ["estimate", "--left", str(left), "--right", str(right), "-k", "4", "--seed", "9"]
    first = run_json(capsys, argv)
    assert json.loads(json.dumps(first)) == first
    again = run_json(capsys, argv)
    assert first == again
    other_seed = run_json(capsys, argv[:-1] + ["10"])
    assert other_seed["seed"] == 10


def test_estimate_flags_a_point_estimate_outside_the_bracket(capsys, tmp_path):
    # Two groups of 10 x 10 disjoint pairs: z = total_product = 200 and
    # max_group_product = 100.
    left = tmp_path / "left.edges"
    left.write_text("".join(f"{g * 10 + i} {g}\n" for g in range(2) for i in range(10)))
    right = tmp_path / "right.edges"
    right.write_text("".join(f"{g} {g * 10 + j}\n" for g in range(2) for j in range(10)))
    argv = ["estimate", "--left", str(left), "--right", str(right),
            "--threshold-mode", "start-at-one"]
    above = run_json(capsys, argv + ["-k", "16", "--seed", "2"])
    assert (above["max_group_product"], above["total_product"]) == (100, 200)
    assert above["kind"] == "point" and above["value"] > 200
    assert above["outside_bracket"] is True
    inside = run_json(capsys, argv + ["-k", "16", "--seed", "0"])
    assert inside["kind"] == "point" and 100 <= inside["value"] <= 200
    assert inside["outside_bracket"] is False
    exact = run_json(capsys, argv + ["-k", "1000", "--seed", "2"])
    assert exact["kind"] == "exact_small" and exact["outside_bracket"] is False
    code, out, _ = run_cli(capsys, argv + ["-k", "16", "--seed", "2"])
    assert code == 0 and "outside_bracket: True\n" in out


def test_missing_inputs_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["estimate", "-k", "4"])
    assert code == 1 and "--left" in err


def test_unknown_flag_is_usage_error(capsys, tiny_pair):
    left, right = tiny_pair
    code, _, _ = run_cli(
        capsys, ["estimate", "--left", str(left), "--right", str(right), "-k", "4", "--wat"]
    )
    assert code == 1


def test_missing_file_is_data_error(capsys):
    code, _, err = run_cli(
        capsys, ["estimate", "--left", "/nonexistent", "--right", "/nonexistent", "-k", "4"]
    )
    assert code == 2


def test_malformed_file_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2 3\n")
    code, _, err = run_cli(capsys, ["estimate", "--self", str(bad), "-k", "4"])
    assert code == 2 and "line 1" in err


@pytest.mark.parametrize("field, digits", [("1" * 5000, 5000), ("-" + "9" * 4301, 4301)],
                         ids=["5000-ones", "minus-4301-nines"])
def test_field_too_long_to_convert_is_data_error(capsys, tmp_path, field, digits):
    bad = tmp_path / "bad.edges"
    bad.write_text(f"1 {field}\n")
    code, out, err = run_cli(capsys, ["estimate", "--self", str(bad), "-k", "4"])
    assert (code, out) == (2, "")
    assert err == f"error: line 1: attribute value of {digits} digits outside unsigned 32-bit range\n"


@pytest.mark.parametrize("field, shown", [
    ("x" * 2_000_000, f"expected an integer, got '{'x' * 40}'... (2000000 bytes)"),
    ("9" * 4000, f"attribute value {'9' * 40}... (4000 digits) outside unsigned 32-bit range"),
], ids=["2M-byte-field", "4000-digit-value"])
def test_huge_field_error_shows_its_first_40_bytes_and_its_length(capsys, tmp_path, field, shown):
    bad = tmp_path / "bad.edges"
    bad.write_text(f"1 2\n3 {field}\n")
    code, out, err = run_cli(capsys, ["exact", "--self", str(bad)])
    assert (code, out) == (2, "")
    assert err == f"error: line 2: {shown}\n"
    assert len(err.encode()) < 200


def test_leading_zeros_beyond_the_conversion_limit_still_parse(capsys, tmp_path):
    data = tmp_path / "zeros.edges"
    data.write_text(f"1 {'0' * 5000}7\n")
    report = run_json(capsys, ["estimate", "--self", str(data), "-k", "4"])
    assert (report["kind"], report["count"]) == ("exact_small", 1)


def test_invalid_utf8_input_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"1 2\n\xff\xfe 3\n")
    code, out, err = run_cli(capsys, ["estimate", "--self", str(bad), "-k", "4"])
    assert code == 2 and out == ""
    assert err.startswith("error: line 2:") and err.count("\n") == 1


def test_estimate_reports_the_work_of_every_run(capsys, tiny_pair):
    left, right = tiny_pair
    report = run_json(
        capsys,
        ["estimate", "--left", str(left), "--right", str(right), "-k", "2", "--runs", "3"],
    )
    per_run = report["work_per_run"]
    assert len(per_run) == 3
    assert report["work"] == {key: sum(w[key] for w in per_run) for key in report["work"]}


def test_exact_subcommand(capsys, tiny_pair, mini_fimi_path):
    left, right = tiny_pair
    report = run_json(capsys, ["exact", "--left", str(left), "--right", str(right)])
    assert report["z"] == 3
    assert report["n"] == 4
    # Each group's product is distinct pairs, and every pair is in some group.
    inputs = ["--self", str(mini_fimi_path), "--format", "fimi"]
    exact = run_json(capsys, ["exact", *inputs])
    assert exact["max_group_product"] < exact["z"] < exact["total_product"]
    estimate = run_json(capsys, ["estimate", *inputs, "-k", "4"])
    for key in ("max_group_product", "total_product"):
        assert estimate[key] == exact[key]


def test_exact_reports_expanded_pairs(capsys, tmp_path, tiny_pair):
    # Left value 1 lies in groups 1 and 2, so only its 1 + 2 pairs are
    # expanded; 2 and 3 lie in one group each and add that group's right size.
    left = tmp_path / "l.edges"
    left.write_text("1 1\n1 2\n2 1\n3 2\n")
    right = tmp_path / "r.edges"
    right.write_text("1 5\n2 5\n2 6\n")
    report = run_json(capsys, ["exact", "--left", str(left), "--right", str(right)])
    assert (report["z"], report["expanded_pairs"], report["total_product"]) == (5, 3, 6)
    left, right = tiny_pair
    report = run_json(capsys, ["exact", "--left", str(left), "--right", str(right)])
    assert (report["z"], report["expanded_pairs"]) == (3, 0)
    code, out, _ = run_cli(capsys, ["exact", "--left", str(left), "--right", str(right)])
    assert code == 0 and "expanded_pairs: 0\n" in out


def one_error_line(code, out, err):
    return code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, flag, value", [
    ("exact", "--cap", "-1"),
    ("experiment", "--cap", "-1"),
    ("sample-estimate", "--exact-cutoff", "-5"),
])
def test_negative_count_flag_is_usage_error(capsys, tmp_path, tiny_pair, command, flag, value):
    left, right = tiny_pair
    if command == "sample-estimate":
        inputs = [str(p) for p in _make_samples(capsys, tmp_path, tiny_pair)] + ["-k", "4"]
    else:
        inputs = ["--left", str(left), "--right", str(right)]
        if command == "experiment":
            inputs += ["-k", "4", "--trials", "1", "--out-dir", str(tmp_path / "out")]
    assert one_error_line(*run_cli(capsys, [command, *inputs, flag, value]))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "experiment", "sample", "sample-estimate"])
def test_hash_family_flag_is_usage_error(capsys, tmp_path, tiny_pair, command):
    # wrapping64 is the only hash family, so there is no flag to choose one.
    left, right = tiny_pair
    if command == "sample-estimate":
        inputs = [str(p) for p in _make_samples(capsys, tmp_path, tiny_pair)] + ["-k", "4"]
    elif command == "sample":
        inputs = ["--input", str(left), "--side", "left", "--prob", "0.5",
                  "--out", str(tmp_path / "s.sample")]
    else:
        inputs = ["--left", str(left), "--right", str(right), "-k", "4"]
        if command == "experiment":
            inputs += ["--trials", "1", "--out-dir", str(tmp_path / "out")]
    before = sorted(tmp_path.rglob("*"))
    for family in ("wrapping64", "mersenne61"):
        assert one_error_line(*run_cli(capsys, [command, *inputs, "--hash-family", family]))
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("size", [["-k", "1" + "0" * 200], ["--epsilon", "1e-200"],
                                  ["--epsilon", "1e-150"]], ids=["k", "eps-1e-200", "eps-1e-150"])
def test_sketch_size_of_2_64_or_more_is_usage_error(capsys, tiny_pair, size):
    left, _ = tiny_pair
    assert one_error_line(*run_cli(
        capsys, ["estimate", "--self", str(left), "--threshold-mode", "linear", *size]))


@pytest.mark.parametrize("command, flag", [
    ("exact", "--cap"),
    ("estimate", "--seed"),
    ("sample-estimate", "--exact-cutoff"),
    ("sample", "--prob"),
])
def test_non_numeric_flag_value_says_what_is_expected(capsys, tiny_pair, command, flag):
    left, right = tiny_pair
    expected = "a number in (0, 1]" if flag == "--prob" else "an integer in [0, 2**64)"
    inputs = {
        "exact": ["--left", str(left), "--right", str(right)],
        "estimate": ["--left", str(left), "--right", str(right), "-k", "4"],
        "sample-estimate": [str(left), str(right), "-k", "4"],
        "sample": ["--input", str(left), "--side", "left", "--out", str(left) + ".sample"],
    }[command]
    code, out, err = run_cli(capsys, [command, *inputs, flag, "x"])
    assert one_error_line(code, out, err)
    assert err == f"error: argument {flag}: must be {expected}, got 'x'\n"


def test_exact_cap_exit_code(capsys, tmp_path):
    # Every left value lies in both groups, so all 2 * 10 * 10 pairs expand.
    left = tmp_path / "l.edges"
    left.write_text("".join(f"{i} {b}\n" for i in range(10) for b in (0, 1)))
    right = tmp_path / "r.edges"
    right.write_text("".join(f"{b} {100 * b + j}\n" for b in (0, 1) for j in range(10)))
    code, _, err = run_cli(
        capsys, ["exact", "--left", str(left), "--right", str(right), "--cap", "100"]
    )
    assert code == 3 and "cap" in err and "200 candidate pairs" in err


def test_exact_cap_ignores_pairs_it_does_not_expand(capsys, tmp_path):
    # One group of 40 x 40: no left value lies in two groups, so nothing
    # expands and a cap below total_product does not refuse it.
    left = tmp_path / "l.edges"
    left.write_text("".join(f"{i} 0\n" for i in range(40)))
    right = tmp_path / "r.edges"
    right.write_text("".join(f"0 {i}\n" for i in range(40)))
    report = run_json(
        capsys, ["exact", "--left", str(left), "--right", str(right), "--cap", "100"]
    )
    assert (report["z"], report["total_product"], report["expanded_pairs"]) == (1600, 1600, 0)


def test_observed_epsilon_quantile():
    # Four of six (= 2/3) must land within 1 +- e; smallest such e is 0.2.
    ratios = [0.8, 0.95, 1.0, 1.04, 1.5, 2.0]
    assert observed_epsilon(ratios) == pytest.approx(0.2)
    # With five ratios, 2/3 coverage needs four of them.
    assert observed_epsilon([0.5, 0.9, 1.0, 1.05, 2.0]) == pytest.approx(0.5)
    assert observed_epsilon([1.0]) == 0.0


def test_experiment_artifacts(capsys, tmp_path, mini_fimi_path):
    out_dir = tmp_path / "results"
    report = run_json(
        capsys,
        [
            "experiment", "--self", str(mini_fimi_path), "--format", "fimi",
            "-k", "8", "--trials", "9", "--seed", "5",
            "--name", "mini", "--out-dir", str(out_dir),
        ],
    )
    assert report["instance"] == "mini"
    assert report["k"] == 8
    assert report["trials"] == 9
    assert report["theoretical_epsilon"] == pytest.approx((9 / 8) ** 0.5)
    assert len(report["ratios"]) == 9
    assert report["ratios"] == sorted(report["ratios"])
    assert len(report["trial_estimates"]) == 9
    assert [t["trial"] for t in report["trial_estimates"]] == list(range(9))

    with open(out_dir / "mini_cdf.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    ratios = [float(r["ratio"]) for r in rows]
    cumulative = [float(r["cumulative_probability"]) for r in rows]
    assert ratios == sorted(ratios)
    assert cumulative[-1] == 1.0
    assert ratios == report["ratios"]

    with open(out_dir / "mini_summary.json") as fh:
        assert json.load(fh) == report


def test_experiment_single_trial_cdf(capsys, tmp_path, tiny_pair):
    left, right = tiny_pair
    run_json(
        capsys,
        [
            "experiment", "--left", str(left), "--right", str(right),
            "-k", "4", "--trials", "1", "--seed", "2", "--name", "one",
            "--out-dir", str(tmp_path),
        ],
    )
    lines = (tmp_path / "one_cdf.csv").read_text().strip().splitlines()
    assert lines[0] == "ratio,cumulative_probability"
    assert len(lines) == 2
    assert lines[1].endswith(",1.0")


def test_experiment_exact_value_override(capsys, tmp_path, tiny_pair):
    left, right = tiny_pair
    report = run_json(
        capsys,
        [
            "experiment", "--left", str(left), "--right", str(right),
            "-k", "4", "--trials", "3", "--seed", "2", "--name", "ov",
            "--out-dir", str(tmp_path), "--exact-value", "6",
        ],
    )
    assert report["exact"] == 6.0
    assert report["trial_estimates"][0]["ratio"] == report["trial_estimates"][0]["estimate"] / 6.0


# 1e-310 is positive and finite, but an estimate over it overflows to inf.
@pytest.mark.parametrize("value", ["inf", "nan", "0", "1e-310"])
def test_experiment_rejects_exact_value_that_gives_no_finite_ratio(
    capsys, tmp_path, tiny_pair, value
):
    left, right = tiny_pair
    code, out, err = run_cli(
        capsys,
        [
            "experiment", "--left", str(left), "--right", str(right),
            "-k", "4", "--trials", "1", "--name", "x", "--out-dir", str(tmp_path / "out"),
            "--exact-value", value, "--json",
        ],
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../escaped", "sub/escaped", ".", ".."])
def test_experiment_name_with_a_directory_is_usage_error(capsys, tmp_path, tiny_pair, name):
    left, right = tiny_pair
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(
        capsys,
        [
            "experiment", "--left", str(left), "--right", str(right),
            "-k", "4", "--trials", "1", "--name", name, "--out-dir", str(tmp_path / "out"),
        ],
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_experiment_human_summary_rounds_epsilon(capsys, tmp_path, tiny_pair):
    left, right = tiny_pair
    code, out, err = run_cli(
        capsys,
        [
            "experiment", "--left", str(left), "--right", str(right),
            "-k", "1024", "--trials", "1", "--seed", "2", "--name", "r",
            "--out-dir", str(tmp_path),
        ],
    )
    assert code == 0, err
    assert "theoretical_eps=0.094" in out  # sqrt(9/1024) = 0.09375 rendered at 3 places


def test_experiment_is_seed_deterministic(capsys, tmp_path, mini_fimi_path):
    argv = [
        "experiment", "--self", str(mini_fimi_path), "--format", "fimi",
        "-k", "8", "--trials", "5", "--seed", "77", "--name", "det",
        "--out-dir", str(tmp_path),
    ]
    first = run_json(capsys, argv)
    second = run_json(capsys, argv)
    assert first == second


def _make_samples(capsys, tmp_path, tiny_pair, prob="1.0", seed="3"):
    left, right = tiny_pair
    ls = tmp_path / "l.sample"
    rs = tmp_path / "r.sample"
    for args in (
        ["sample", "--input", str(left), "--side", "left", "--prob", prob,
         "--seed", seed, "--out", str(ls)],
        ["sample", "--input", str(right), "--side", "right", "--prob", prob,
         "--seed", seed, "--out", str(rs)],
    ):
        code, _, err = run_cli(capsys, args)
        assert code == 0, err
    return ls, rs


def test_sample_reports_counts(capsys, tmp_path, tiny_pair):
    left, _ = tiny_pair
    out = tmp_path / "s.sample"
    report = run_json(
        capsys,
        ["sample", "--input", str(left), "--side", "left", "--prob", "1.0",
         "--seed", "3", "--out", str(out)],
    )
    assert report["kept_tuples"] == 3
    assert report["source_tuples"] == 3
    assert report["source_distinct"] == 3
    assert out.exists()


@pytest.mark.parametrize("prob", ["0", "nan", "1.5", "-1"])
def test_sample_invalid_probability_is_usage_error(capsys, tmp_path, tiny_pair, prob):
    left, _ = tiny_pair
    out = tmp_path / "s.sample"
    assert one_error_line(*run_cli(
        capsys,
        ["sample", "--input", str(left), "--side", "left", "--prob", prob, "--out", str(out)],
    ))
    assert not out.exists()


def test_sample_estimate_full_probability_matches_estimate(capsys, tmp_path, tiny_pair):
    left, right = tiny_pair
    ls, rs = _make_samples(capsys, tmp_path, tiny_pair)
    sampled = run_json(
        capsys, ["sample-estimate", str(ls), str(rs), "-k", "16", "--seed", "1"]
    )
    direct = run_json(
        capsys,
        ["estimate", "--left", str(left), "--right", str(right), "-k", "16", "--seed", "1"],
    )
    assert sampled["value"] == direct["value"]
    assert sampled["p1"] == 1.0 and sampled["p2"] == 1.0


def test_sample_estimate_sketch_path_matches_estimate(capsys, tmp_path, tiny_pair):
    ls, rs = _make_samples(capsys, tmp_path, tiny_pair)
    left, right = tiny_pair
    sampled = run_json(
        capsys,
        ["sample-estimate", str(ls), str(rs), "-k", "2", "--seed", "4", "--exact-cutoff", "0"],
    )
    direct = run_json(
        capsys,
        ["estimate", "--left", str(left), "--right", str(right), "-k", "2", "--seed", "4"],
    )
    assert sampled["method"] == "sketch"
    assert sampled["value"] == direct["value"]


SCHEDULE = ("first_p", "first_p_raw", "pilot_occurrences", "distinct_share",
            "distinct_share_se")


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=reject)


def test_estimate_json_reports_the_pilot_and_first_threshold(capsys, tiny_pair):
    left, right = tiny_pair
    argv = ["estimate", "--left", str(left), "--right", str(right), "-k", "16", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    report = strict_json(out)
    # Three pair occurrences, all sampled and distinct: the first pass, at
    # c k / 3 with c = 1 + 3 / 4, is capped at 1.
    assert [report[key] for key in SCHEDULE] == [1.0, 1 << 64, 3, 1.0, 0.0]
    code, out, err = run_cli(capsys, argv + ["--threshold-mode", "linear"])
    assert code == 0, err
    linear = strict_json(out)
    # Linear mode draws the same pilot and caps its first pass at p0 = 1 / k.
    assert [linear[key] for key in SCHEDULE] == [1 / 16, 1 << 60, 3, 1.0, 0.0]
    assert linear["first_p_raw"] <= linear["p0_raw"]


def test_sample_estimate_json_nests_the_inner_estimate(capsys, tmp_path, tiny_pair):
    ls, rs = _make_samples(capsys, tmp_path, tiny_pair)
    left, right = tiny_pair
    argv = ["sample-estimate", str(ls), str(rs), "-k", "2", "--seed", "4", "--json"]
    code, out, err = run_cli(capsys, argv + ["--exact-cutoff", "0"])
    assert code == 0, err
    nested = strict_json(out)["estimate"]
    direct = run_json(
        capsys,
        ["estimate", "--left", str(left), "--right", str(right), "-k", "2", "--seed", "4"],
    )
    assert nested == {key: direct[key] for key in ("kind", "count", "v_raw", *SCHEDULE)}
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    exact = strict_json(out)
    assert exact["method"] == "exact" and exact["estimate"] is None


def test_sample_estimate_accepts_swapped_order(capsys, tmp_path, tiny_pair):
    ls, rs = _make_samples(capsys, tmp_path, tiny_pair)
    a = run_json(capsys, ["sample-estimate", str(ls), str(rs), "-k", "16", "--seed", "1"])
    b = run_json(capsys, ["sample-estimate", str(rs), str(ls), "-k", "16", "--seed", "1"])
    assert a["value"] == b["value"]


@pytest.mark.parametrize("mode", ["linear", "start-at-one"])
def test_sample_estimate_has_no_threshold_mode(capsys, tmp_path, tiny_pair, mode):
    # The sampled join is always estimated from threshold 1.
    ls, rs = _make_samples(capsys, tmp_path, tiny_pair)
    assert one_error_line(*run_cli(
        capsys, ["sample-estimate", str(ls), str(rs), "-k", "16", "--threshold-mode", mode]))


def test_sample_estimate_side_mismatch(capsys, tmp_path, tiny_pair):
    ls, _ = _make_samples(capsys, tmp_path, tiny_pair)
    code, _, err = run_cli(capsys, ["sample-estimate", str(ls), str(ls), "-k", "16"])
    assert code == 2 and "left" in err


def test_sample_estimate_empty_samples_fall_back(capsys, tmp_path, tiny_pair):
    # A minuscule probability keeps nothing; the estimate is 0 and the
    # sketch path is flagged as a fallback.
    ls, rs = _make_samples(capsys, tmp_path, tiny_pair, prob="1e-9", seed="6")
    report = run_json(
        capsys,
        ["sample-estimate", str(ls), str(rs), "-k", "16", "--seed", "1", "--exact-cutoff", "0"],
    )
    assert report["value"] == 0.0
    assert report["fallback"] is True
    assert report["upper_bound_regime"] is True


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_sample_estimate_json_is_strict_below_one_expected_tuple(capsys, tmp_path, tiny_pair):
    # s = prob * tuples < 1 makes the beta scale infinite, which has no JSON
    # spelling: it is reported as null, and the regime flag stays set.
    ls, rs = _make_samples(capsys, tmp_path, tiny_pair, prob="1e-9", seed="6")
    code, out, err = run_cli(capsys, ["sample-estimate", str(ls), str(rs), "-k", "16", "--json"])
    assert code == 0, err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["beta"] is None
    assert report["upper_bound_regime"] is True


@pytest.mark.parametrize("prob", ["1e-170", "1e-200"])
def test_sample_estimate_survives_a_scale_that_underflows(capsys, tmp_path, prob):
    # p1 * p2 underflows to 0.0.  Both membership cuts are 0, so the sampled
    # join is empty and estimates 0.
    edges = tmp_path / "four.edges"
    edges.write_text("1 1\n2 1\n1 2\n3 2\n")
    ls, rs = _make_samples(capsys, tmp_path, (edges, edges), prob=prob)
    code, out, err = run_cli(capsys, ["sample-estimate", str(ls), str(rs), "-k", "16", "--json"])
    assert code == 0, err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["p1"] * report["p2"] == 0.0
    assert report["value"] == 0.0 and report["sampled_size"] == 0.0
    assert report["beta"] is None
    assert report["upper_bound_regime"] is True


def test_sample_estimate_rejects_a_record_that_fails_the_cut(capsys, tmp_path):
    edges = tmp_path / "many.edges"
    edges.write_text("".join(f"{i} {i % 7}\n" for i in range(300)))
    ls, rs = _make_samples(capsys, tmp_path, (edges, edges), prob="0.1")
    break_the_cut(ls)
    code, out, err = run_cli(capsys, ["sample-estimate", str(ls), str(rs), "-k", "16", "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_sample_estimate_refuses_the_retired_hash_family(capsys, tmp_path, tiny_pair):
    ls, rs = _make_samples(capsys, tmp_path, tiny_pair)
    blob = bytearray(ls.read_bytes())
    assert blob[7] == 0  # the header's family byte
    blob[7] = 1
    ls.write_bytes(bytes(blob))
    code, out, err = run_cli(capsys, ["sample-estimate", str(ls), str(rs), "-k", "16", "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "mersenne61" in err and err.count("\n") == 1


def test_sample_estimate_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "bad.sample"
    bad.write_bytes(b"JPDSgarbage")
    code, _, _ = run_cli(capsys, ["sample-estimate", str(bad), str(bad), "-k", "4"])
    assert code == 2


@pytest.mark.parametrize("prob", [0.0, float("nan")])
def test_sample_estimate_invalid_probability_is_data_error(capsys, tmp_path, tiny_pair, prob):
    ls, rs = _make_samples(capsys, tmp_path, tiny_pair)
    blob = bytearray(ls.read_bytes())
    blob[40:48] = struct.pack("<d", prob)  # the header's prob field
    ls.write_bytes(bytes(blob))
    code, out, err = run_cli(capsys, ["sample-estimate", str(ls), str(rs), "-k", "16", "--json"])
    assert code == 2 and out == ""
    assert "probability" in err and err.count("\n") == 1


def test_memory_error_is_cap_exit(capsys, monkeypatch, tiny_pair):
    def exhausted(grouped, cfg):
        raise MemoryError

    monkeypatch.setattr("joinsketch.cli.estimate_median", exhausted)
    left, right = tiny_pair
    code, out, err = run_cli(capsys, ["estimate", "--left", str(left), "--right", str(right), "-k", "4"])
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


def test_no_subcommand_prints_help(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "joinsketch", "exact", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--cap" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("command", [["exact"], ["estimate", "-k", "4"]])
def test_a_closed_stdout_ends_quietly_with_status_141(tmp_path, command, unbuffered):
    # The reader is gone before the command writes, as with `| true`.
    # Buffered, the output reaches the pipe only when main flushes it.
    path = tmp_path / "in.edges"
    path.write_text("1 2\n2 3\n3 1\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "joinsketch", *command, "--self", str(path), "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_library_calls_write_nothing_to_stdout(capsys, tmp_path, mini_fimi_path):
    # Only the CLI prints.  A program driving the library owns its stdout,
    # such as one whose last line is a JSON result.
    edges = tmp_path / "in.edges"
    edges.write_text("# pairs\n" + "".join(f"{i % 37} {i % 11}\n" for i in range(400)))
    for path, fmt in ((edges, "edges"), (mini_fimi_path, "fimi")):
        left = load_relation(str(path), fmt, Side.LEFT)
        right = left.mirrored()
        grouped = group_and_prune(left, right)
        for mode in THRESHOLD_MODES:
            estimate_median(grouped, EstimatorConfig(k=16, threshold_mode=mode, runs=3, seed=2))
        exact_size(grouped)
        samples = []
        for side_index, rel in enumerate((left, right)):
            sample = draw_sample(rel, 0.5, draw_single(Pcg64Stream(side_index)))
            save_sample(sample, str(tmp_path / f"{side_index}.sample"))
            samples.append(load_sample(str(tmp_path / f"{side_index}.sample")))
        estimate_from_samples(*samples, EstimatorConfig(k=16, seed=2))
        estimate_from_samples(*samples, EstimatorConfig(k=16, seed=2), exact_cutoff=0)
    assert capsys.readouterr().out == ""


_FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys

names = ("numpy.random", "fractions", "decimal", "secrets")
import numpy
preloaded = [name for name in names if name in sys.modules]
from joinsketch.cli import main

fimi, out_dir = sys.argv[1:]
inputs = ["--self", fimi, "--format", "fimi", "-k", "4"]
left, right = out_dir + "/left.sample", out_dir + "/right.sample"
commands = [
    ["estimate", *inputs, "--threshold-mode", "linear"],
    ["estimate", *inputs, "--threshold-mode", "start-at-one"],
    ["exact", "--self", fimi, "--format", "fimi"],
    ["sample", "--input", fimi, "--format", "fimi", "--side", "left", "--prob", "0.5", "--out", left],
    ["sample", "--input", fimi, "--format", "fimi", "--side", "right", "--prob", "0.5", "--out", right],
    ["sample-estimate", left, right, "-k", "4", "--exact-cutoff", "0"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
loaded = [name for name in names if name in sys.modules]
print(json.dumps({"codes": codes, "preloaded": preloaded, "loaded": loaded}))
"""


def test_cli_operations_import_neither_numpy_random_nor_fractions(tmp_path, mini_fimi_path):
    # Hash draws come from hashing.Pcg64Stream and first_threshold works in
    # integers, so none of these modules loads.  numpy 1.x imports
    # numpy.random, and with it secrets, on `import numpy`; only the names
    # `import numpy` loads are skipped.
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, str(mini_fimi_path),
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 6
    assert [name for name in result["loaded"] if name not in result["preloaded"]] == []
