import json

import outcome_signatures
from joinsketch import FORMATS, enumerator, oracle, relation


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
    # Three workloads at one seed, then two configurations per instance.
    assert len(first) == 3 + 3 * 2
    lines = [strict_json(line) for line in first]
    assert [line["workload"] for line in lines[:3]] == ["uniform-ingest", "skewed-repeat",
                                                        "fimi-sketch"]
    for line in lines:
        assert {"kind", "v", "count", "value", "work"} <= line.keys()
        assert line["work"] and all("inner_iterations" not in w and "emitted_pairs" in w
                                    for w in line["work"])
    assert [(line["mode"], line["family"]) for line in lines[3:]] == [
        ("linear", "wrapping64"), ("start-at-one", "wrapping64")] * 3


def test_outcomes_only_leaves_out_every_counter(capsys):
    args = ["--seeds", "1", "--scale", "0.02", "--random", "2"]
    assert outcome_signatures.main(args) == 0
    full = [strict_json(line) for line in capsys.readouterr().out.splitlines()]
    assert outcome_signatures.main(args + ["--outcomes-only"]) == 0
    outcomes = [strict_json(line) for line in capsys.readouterr().out.splitlines()]
    assert outcomes == [{key: value for key, value in line.items() if key != "work"}
                        for line in full]
    assert all({"kind", "v", "count", "value"} <= line.keys() for line in outcomes)


def test_candidate_digests_do_not_depend_on_the_chunking(capsys, monkeypatch):
    args = ["--candidates", "--seeds", "1", "--scale", "0.02"]
    assert outcome_signatures.main(args) == 0
    default = capsys.readouterr().out.splitlines()
    lines = [strict_json(line) for line in default]
    # One line per workload, run key and threshold: 1 + 9 + 1 runs.
    assert len(lines) == 3 * 11
    assert {line["threshold"] for line in lines} == {"p0", "p0>>2", "first"}
    # Some pass prunes, so the occupancy pass runs over many slices below.
    sizes = {name: grouped.tuple_count
             for name, _, grouped, _ in outcome_signatures.workload_inputs([1], 0.02)}
    assert any(line["sorted_tuples"] < sizes[line["workload"]] for line in lines)
    for tuples in (1, 16):
        monkeypatch.setattr(enumerator, "CHUNK_TUPLES", tuples)
        assert outcome_signatures.main(args) == 0
        assert capsys.readouterr().out.splitlines() == default, tuples


def test_exact_lines_name_the_kernel_exact_size_takes(capsys, monkeypatch):
    taken = []

    def spy(name, kernel):
        real = getattr(oracle, name)

        def wrapper(*args):
            taken[-1] = kernel
            return real(*args)
        monkeypatch.setattr(oracle, name, wrapper)

    def exact_size(grouped):
        taken.append("none")
        return real_exact_size(grouped)

    real_exact_size = outcome_signatures.exact_size
    spy("_dense_count", "dense")
    spy("_pair_chunks", "sparse")
    monkeypatch.setattr(outcome_signatures, "exact_size", exact_size)
    # At scale 0.1 uniform-ingest takes the sparse kernel, skewed-repeat
    # neither and fimi-sketch the dense one.
    args = ["--exact", "--seeds", "1", "--scale", "0.1", "--random", "30"]
    assert outcome_signatures.main(args) == 0
    lines = [strict_json(line) for line in capsys.readouterr().out.splitlines()]
    assert [line.get("workload") for line in lines[:3]] == ["uniform-ingest", "skewed-repeat",
                                                            "fimi-sketch"]
    assert [line.get("instance") for line in lines[3:]] == list(range(30))
    assert all({"z", "expanded_pairs", "kernel"} <= line.keys() for line in lines)
    assert [line["kernel"] for line in lines] == taken
    assert taken[:3] == ["sparse", "none", "dense"]


def test_parse_lines_do_not_depend_on_the_block_size(capsys, monkeypatch):
    assert outcome_signatures.main(["--parse"]) == 0
    default = capsys.readouterr().out.splitlines()
    lines = [strict_json(line) for line in default]
    assert all(line["bytes"] > relation._BLOCK for line in lines)
    for fmt in FORMATS:
        outcomes = {line["text"]: line for line in lines if line["format"] == fmt}
        assert outcomes[fmt.split("-")[0]]["tuples"] > 0, fmt  # its own clean text parses
        # Some errors lie past the first block seam.
        assert any(line.get("line", 0) > 4_000 for line in outcomes.values()), fmt
    for block in (64, 4096):
        monkeypatch.setattr(relation, "_BLOCK", block)
        assert outcome_signatures.main(["--parse"]) == 0
        assert capsys.readouterr().out.splitlines() == default, block
