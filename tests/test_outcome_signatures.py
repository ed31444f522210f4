import json

import outcome_signatures


def strict_json(line: str) -> dict:
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(line, parse_constant=reject)


def test_signatures_are_strict_json_and_repeat(capsys):
    args = ["--seeds", "1", "--scale", "0.02", "--random", "3", "--drop", "inner_iterations"]
    assert outcome_signatures.main(args) == 0
    first = capsys.readouterr().out.splitlines()
    outcome_signatures.main(args)
    assert capsys.readouterr().out.splitlines() == first
    # Three workloads at one seed, then four configurations per instance.
    assert len(first) == 3 + 3 * 4
    lines = [strict_json(line) for line in first]
    assert [line["workload"] for line in lines[:3]] == ["uniform-ingest", "skewed-repeat",
                                                        "fimi-sketch"]
    for line in lines:
        assert {"kind", "v", "count", "value", "work"} <= line.keys()
        assert line["work"] and all("inner_iterations" not in w and "emitted_pairs" in w
                                    for w in line["work"])
    assert {(line["mode"], line["family"]) for line in lines[3:]} == {
        (mode, family) for mode in ("linear", "start-at-one")
        for family in ("wrapping64", "mersenne61")}


def test_outcomes_only_leaves_out_every_counter(capsys):
    args = ["--seeds", "1", "--scale", "0.02", "--random", "2"]
    assert outcome_signatures.main(args) == 0
    full = [strict_json(line) for line in capsys.readouterr().out.splitlines()]
    assert outcome_signatures.main(args + ["--outcomes-only"]) == 0
    outcomes = [strict_json(line) for line in capsys.readouterr().out.splitlines()]
    assert outcomes == [{key: value for key, value in line.items() if key != "work"}
                        for line in full]
    assert all({"kind", "v", "count", "value"} <= line.keys() for line in outcomes)
