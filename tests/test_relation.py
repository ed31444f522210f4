import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from joinsketch import (
    ParseError,
    RangeError,
    Relation,
    Side,
    exact_size,
    group_and_prune,
    parse_relation,
)
from joinsketch import relation
from joinsketch.relation import MAX_ATTRIBUTE

import reference_parsers
from conftest import brute_force_pairs, group_values, random_instance


def test_edges_deduplicates():
    r = parse_relation("1 2\n1 2\n3 4\n", "edges")
    assert r.tuples == frozenset({(1, 2), (3, 4)})


def test_edges_comments_and_blanks():
    r = parse_relation("# header\n\n10 20\n   \n# tail\n30 40\n", "edges")
    assert r.tuples == frozenset({(10, 20), (30, 40)})


def test_edges_malformed_line_number():
    with pytest.raises(ParseError) as exc:
        parse_relation("1 2\n1 2 3\n", "edges")
    assert exc.value.line == 2


def test_edges_non_integer():
    with pytest.raises(ParseError) as exc:
        parse_relation("1 x\n", "edges")
    assert exc.value.line == 1


def test_edges_value_too_wide():
    with pytest.raises(RangeError) as exc:
        parse_relation(f"1 {2**32}\n", "edges")
    assert exc.value.line == 1 and exc.value.value == 2**32


def test_edges_negative_value():
    with pytest.raises(RangeError):
        parse_relation("1 -2\n", "edges")


def test_edges_accepts_bytes():
    r = parse_relation(b"7 8\n", "edges")
    assert r.tuples == frozenset({(7, 8)})


def test_fimi_row_indexing():
    r = parse_relation("5 7\n5\n", "fimi")
    assert r.tuples == frozenset({(0, 5), (0, 7), (1, 5)})


def test_fimi_blank_line_is_an_empty_transaction():
    r = parse_relation("5\n\n6\n", "fimi")
    assert r.tuples == frozenset({(0, 5), (2, 6)})


def test_mtx_pattern_basic():
    text = "%%MatrixMarket matrix coordinate pattern general\n% comment\n3 3 2\n1 1\n2 3\n"
    r = parse_relation(text, "mtx-pattern")
    assert r.tuples == frozenset({(1, 1), (2, 3)})


def test_mtx_requires_header():
    with pytest.raises(ParseError):
        parse_relation("3 3 1\n1 1\n", "mtx-pattern")


def test_mtx_rejects_non_pattern():
    with pytest.raises(ParseError):
        parse_relation("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n", "mtx-pattern")


def test_mtx_rejects_symmetric():
    with pytest.raises(ParseError):
        parse_relation("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n", "mtx-pattern")


def test_mtx_entry_outside_shape():
    with pytest.raises(ParseError) as exc:
        parse_relation("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n4 1\n", "mtx-pattern")
    assert exc.value.line == 3


def test_mtx_entry_count_mismatch():
    with pytest.raises(ParseError):
        parse_relation("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 1\n", "mtx-pattern")


def test_unknown_format():
    with pytest.raises(ValueError):
        parse_relation("1 2\n", "csv")


@given(
    st.frozensets(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)), max_size=40
    )
)
def test_edges_round_trip_is_idempotent(tuples):
    def edges_text(relation):
        return "".join(f"{x} {y}\n" for x, y in sorted(relation.tuples))

    first = parse_relation(edges_text(Relation.from_pairs(Side.LEFT, tuples)), "edges")
    again = parse_relation(edges_text(first), "edges")
    assert first == again
    assert first.tuples == tuples


@pytest.mark.parametrize(
    "pair", [(-1, 2), (1, 2**32), (2**63, 1), (1, 2**64), (1.7, 2.2), (1, 2.0), ("1", 2)]
)
def test_from_pairs_rejects_non_integers_and_values_outside_32_bits(pair):
    with pytest.raises(ValueError):
        Relation.from_pairs(Side.LEFT, [(0, 0), pair])


def test_from_pairs_accepts_empty_input_and_numpy_integers():
    assert len(Relation.from_pairs(Side.LEFT, [])) == 0
    r = Relation.from_pairs(Side.LEFT, [(np.uint64(5), np.int32(3)), (2**32 - 1, 0)])
    assert r.tuples == frozenset({(5, 3), (2**32 - 1, 0)})


def test_mirrored_swaps_positions_and_side():
    r = Relation.from_pairs(Side.LEFT, {(1, 2), (3, 4)})
    m = r.mirrored()
    assert m.side is Side.RIGHT
    assert m.tuples == frozenset({(2, 1), (4, 3)})
    assert m.mirrored() == r


def test_group_single_group():
    r1 = Relation.from_pairs(Side.LEFT, {(1, 1), (2, 1)})
    r2 = Relation.from_pairs(Side.RIGHT, {(1, 5)})
    g = group_and_prune(r1, r2)
    assert len(g) == 1
    assert g.join_values.tolist() == [1]
    assert g.left_offsets.tolist() == [0, 2] and g.left_values.tolist() == [1, 2]
    assert g.right_offsets.tolist() == [0, 1] and g.right_values.tolist() == [5]
    assert g.tuple_count == 3
    assert g.max_group_product == 2


def test_group_no_matching_join_value():
    r1 = Relation.from_pairs(Side.LEFT, {(1, 1)})
    r2 = Relation.from_pairs(Side.RIGHT, {(2, 5)})
    g = group_and_prune(r1, r2)
    assert len(g) == 0 and g.join_values.tolist() == []
    assert g.left_offsets.tolist() == [0] and g.right_offsets.tolist() == [0]
    assert (g.tuple_count, g.max_group_product, g.total_product) == (0, 0, 0)


def test_group_hand_enumerated():
    r1 = Relation.from_pairs(Side.LEFT, {(1, 1), (1, 2)})
    r2 = Relation.from_pairs(Side.RIGHT, {(1, 5), (2, 5), (2, 6)})
    g = group_and_prune(r1, r2)
    got = {(b, *(tuple(v.tolist()) for v in group_values(g, i)))
           for i, b in enumerate(g.join_values.tolist())}
    assert got == {(1, (1,), (5,)), (2, (1,), (5, 6))}
    assert g.tuple_count == 5
    assert g.max_group_product == 2
    assert g.total_product == 3


def test_group_requires_correct_sides():
    r = Relation.from_pairs(Side.LEFT, {(1, 1)})
    with pytest.raises(ValueError):
        group_and_prune(r, r)
    with pytest.raises(ValueError):
        group_and_prune(r.mirrored(), r.mirrored())


def test_pruning_preserves_exact_size():
    rng = random.Random(101)
    for _ in range(300):
        r1, r2 = random_instance(rng, max_each=100)
        g = group_and_prune(r1, r2)
        assert exact_size(g).z == len(brute_force_pairs(r1, r2))
        assert g.tuple_count <= len(r1) + len(r2)


def test_group_structural_invariants():
    rng = random.Random(303)
    for _ in range(100):
        r1, r2 = random_instance(rng, max_each=120)
        g = group_and_prune(r1, r2)
        total = 0
        products = []
        for i in range(len(g)):
            left, right = (v.tolist() for v in group_values(g, i))
            assert left and right
            assert sorted(set(left)) == left
            assert sorted(set(right)) == right
            total += len(left) + len(right)
            products.append(len(left) * len(right))
        assert total == g.tuple_count
        assert g.max_group_product == max(products, default=0)
        assert g.total_product == sum(products)


# -- token grammar ---------------------------------------------------------

# The block sizes of test_tokenizer_agrees_with_the_line_parsers.  A block
# of plain digits and gaps is converted by numpy's C reader, any other digit
# by digit.
_BLOCKS = [1, 7, 64, relation._BLOCK]


def _parse_in_blocks(text, fmt, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_BLOCK", block)
        return parse_relation(text, fmt)


@pytest.mark.parametrize(
    "text,fmt,want",
    [
        ("1 2\r\n3 4\r\n", "edges", {(1, 2), (3, 4)}),
        ("1 2\r3 4", "edges", {(1, 2), (3, 4)}),
        ("\t1\t 2 \n", "edges", {(1, 2)}),
        ("007 -0\n", "edges", {(7, 0)}),
        (f"{'0' * 30}{2**32 - 1} 5\n", "edges", {(2**32 - 1, 5)}),
        ("# données ☕\n1 2\n".encode("utf-8"), "edges", {(1, 2)}),
        (b"# \xff\xfe not UTF-8\n1 2\n", "edges", {(1, 2)}),
        ("5\r\n\r\n6\r", "fimi", {(0, 5), (2, 6)}),
        ("5\r6 7\n", "fimi", {(0, 5), (1, 6), (1, 7)}),
        ("%%MatrixMarket matrix coordinate pattern general\r\n% é\r\n2 2 1\r\n1\t2\r\n",
         "mtx-pattern", {(1, 2)}),
        # Gaps only: the C reader returns one 0 for these.
        ("\n\n", "edges", set()),
        ("\n\n", "fimi", set()),
        ("  \t \n \n  ", "edges", set()),
        ("  \t \n \n  ", "fimi", set()),
        # Zero-padded fields longer than the C reader takes, in clean blocks.
        ("00000000007 00004294967295\n1 2\n", "edges", {(7, 2**32 - 1), (1, 2)}),
        ("1\n00000000003 9\n", "fimi", {(0, 1), (1, 3), (1, 9)}),
    ],
)
def test_grammar_accepts(text, fmt, want):
    for block in _BLOCKS:
        assert _parse_in_blocks(text, fmt, block).tuples == want, block


# A 10-digit value above 2**32 in a block of plain digits and gaps.
_RANGE_REJECTS = [
    ("1 2\n4294967296 3\n", "edges", 2),
    ("1 2\n3 9999999999\n5 6\n", "edges", 2),
    ("1 2\n3 4294967296\n", "fimi", 2),
]


@pytest.mark.parametrize(
    "text,fmt,line",
    [
        ("1 2\n1_0 2\n", "edges", 2),  # int() would read 10
        ("+3 4\n", "edges", 1),
        ("٣ 4\n", "edges", 1),  # ARABIC-INDIC DIGIT THREE
        (b"1 2\r\n\xff\xfe 3\n", "edges", 2),  # not UTF-8
        ("1\x0b2\n", "edges", 1),  # vertical tab is no separator
        ("1\x0c2 3\n", "edges", 1),  # nor is form feed
        ("1\xa02\n", "edges", 1),  # nor is a no-break space
        ("1 2 # trailing comment\n", "edges", 1),
        ("5\n6 ٣\n", "fimi", 2),
        ("5\n# 6\n", "fimi", 2),  # fimi has no comments
        ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 +2\n", "mtx-pattern", 3),
    ] + _RANGE_REJECTS,
)
def test_grammar_rejects(text, fmt, line):
    error = RangeError if (text, fmt, line) in _RANGE_REJECTS else ParseError
    for block in _BLOCKS:
        with pytest.raises(error) as exc:
            _parse_in_blocks(text, fmt, block)
        assert exc.value.line == line, block
        assert "\n" not in str(exc.value)


def test_errors_report_the_first_bad_line():
    text = "1 2\n3 4 5\n-6 7\n8 x\n"
    with pytest.raises(ParseError) as exc:
        parse_relation(text, "edges")
    assert str(exc.value) == "line 2: expected two fields, got 3"
    with pytest.raises(RangeError) as exc:
        parse_relation(text.replace("3 4 5", "3 4"), "edges")
    assert (exc.value.line, exc.value.value) == (3, -6)
    with pytest.raises(ParseError) as exc:
        parse_relation("1 2\n8 x\n-6 7\n", "edges")
    assert str(exc.value) == "line 2: expected an integer, got 'x'"
    with pytest.raises(RangeError) as exc:
        parse_relation(f"1\n2 {'0' * 12}{2**32} 3\n", "fimi")
    assert (exc.value.line, exc.value.value) == (2, 2**32)
    with pytest.raises(RangeError) as exc:
        parse_relation(f"1 2\n3 {'9' * 4000}\n", "edges")
    assert (exc.value.line, exc.value.value) == (2, int("9" * 4000))
    header = "%%MatrixMarket matrix coordinate pattern general\n"
    for body, message in [
        ("% c\n3 x 2\n1 1\n", "line 3: expected an integer, got 'x'"),
        ("3 3\n", "line 2: dimension line must be 'rows cols entries'"),
        ("3 3 2\n1 1\n1 x 2\n", "line 4: expected 'row col', got 3 fields"),
        ("3 3 2\n4 1\n1 x\n", "line 3: entry (4, 1) outside declared 3x3 shape"),
        ("3 3 1\n% c\n1 1\n\n2 2\n3 3\n", "line 6: more entries than the declared 1"),
        ("3 3 1\n1 1\n4 4\n", "line 4: entry (4, 4) outside declared 3x3 shape"),
        ("3 3 2\n1 1\n", "line 4: declared 2 entries, found 1"),
        ("3 3 2\n1 1", "line 4: declared 2 entries, found 1"),
        ("3 3 2\n1 1\n\n", "line 5: declared 2 entries, found 1"),
        ("% c\n", "line 3: missing dimension line"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_relation(header + body, "mtx-pattern")
        assert str(exc.value) == message


_VALUE = st.one_of(
    st.integers(0, 2**32 + 5).map(str),
    st.tuples(st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=12)).map(
        "".join
    ),
)
_JUNK = st.one_of(
    st.sampled_from(["x", "1x", "-", "--1", "1-", "1-5", "#", "#5", "0x1", "1.0", "5#"]),
    st.text("0123456789-#x.", min_size=1, max_size=5),
)
_SEP = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def _grammar_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["pair", "pair", "pair", "fields", "comment", "blank"]))
        if kind == "comment":
            body = "#" + draw(st.text(st.characters(min_codepoint=32, max_codepoint=126)))
        elif kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t"]))
        else:
            count = 2 if kind == "pair" else draw(st.integers(1, 4))
            fields = [draw(st.one_of(_VALUE, _VALUE, _VALUE, _JUNK)) for _ in range(count)]
            body = draw(_SEP).join(fields)
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        lines.append(lead + body + trail)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


_MTX_HEADERS = [
    "%%MatrixMarket matrix coordinate pattern general",
    "%%MatrixMarket MATRIX Coordinate\tPattern GENERAL % x",
    "%%MatrixMarket matrix coordinate real general",
    "%%MatrixMarket matrix coordinate pattern symmetric",
    " %%MatrixMarket matrix coordinate pattern general",
    "% matrix coordinate pattern general",
]


def _mostly(draw, good):
    """Mostly ``good``, otherwise any value or a junk field."""
    pick = draw(st.integers(0, 19))
    return good if pick < 18 else draw(_VALUE if pick == 18 else _JUNK)


@st.composite
def _mtx_text(draw):
    """A header, % comments, a dimension line and entries inside and outside
    the shape, around the declared count, with wrong field counts and junk."""
    rows, cols, declared = (draw(st.integers(0, 4)) for _ in range(3))
    low, high = (0, 1) if draw(st.booleans()) else (1, 0)  # with or without out-of-shape

    def index(bound):
        return str(draw(st.integers(low, max(bound, 1) + high)))

    kinds = draw(st.lists(st.sampled_from(["comment", "blank"]), max_size=2))
    kinds.append(draw(st.sampled_from(["dims", "dims", "dims", "fields"])))
    for _ in range(draw(st.integers(max(0, declared - 1), declared + 2))):
        kinds.append(draw(st.sampled_from(["entry"] * 6 + ["fields", "comment", "blank"])))
    header = draw(st.sampled_from(_MTX_HEADERS)) if draw(st.integers(0, 3)) == 0 else _MTX_HEADERS[0]
    lines = [header]
    for kind in kinds:
        if kind == "comment":
            body = "%" + draw(st.text(st.characters(min_codepoint=32, max_codepoint=126)))
        elif kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t"]))
        elif kind == "dims":
            fields = [_mostly(draw, str(n)) for n in (rows, cols, declared)]
            body = draw(_SEP).join(fields)
        elif kind == "entry":
            body = draw(_SEP).join([_mostly(draw, index(rows)), _mostly(draw, index(cols))])
        else:
            field = st.one_of(st.integers(low, 4 + high).map(str), _VALUE, _JUNK)
            body = draw(_SEP).join(draw(st.lists(field, min_size=1, max_size=4)))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + body)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(parse, text):
    try:
        return ("ok", frozenset(parse(text)))
    except (ParseError, RangeError) as exc:
        return (type(exc).__name__, exc.line, str(exc))


# Blocks of 1 and 7 bytes put nearly every line in a block of its own,
# longer than the block; 64 bytes gives blocks of several lines, with
# comment lines and bad fields opening or closing them.
@pytest.mark.parametrize("block", [1, 7, 64, pytest.param(relation._BLOCK, id="default")])
@settings(max_examples=300)
@given(text=_grammar_text(), mtx_text=_mtx_text())
def test_tokenizer_agrees_with_the_line_parsers(block, text, mtx_text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_BLOCK", block)
        for fmt, reference, sample in (("edges", reference_parsers.parse_edges, text),
                                       ("fimi", reference_parsers.parse_fimi, text),
                                       ("mtx-pattern", reference_parsers.parse_mtx, mtx_text)):
            got = _outcome(lambda t: parse_relation(t.encode("ascii"), fmt).tuples, sample)
            assert got == _outcome(reference, sample), fmt


def _scattered_edges(rng: np.random.Generator, lines: int) -> tuple[np.ndarray, bytes]:
    """Pairs of scattered 32-bit values and their edges text."""
    pairs = rng.integers(0, 2**32, size=(lines, 2), dtype=np.uint64)
    text = "".join(f"{a} {b}\n" for a, b in pairs.tolist())
    return pairs, text.encode("ascii")


def test_blocks_join_into_the_relation_of_the_whole_text():
    rng = np.random.default_rng(12)
    pairs, data = _scattered_edges(rng, 60_000)
    # Comment lines, blank lines and tabs shift where the blocks end.
    data = data.replace(b"7 ", b"7\t").replace(b"00\n", b"00\n# note 1 2 3\n\n")
    assert len(data) > 4 * relation._BLOCK
    want = Relation.from_pairs(Side.LEFT, pairs.tolist())
    assert parse_relation(data, "edges") == want

    lines = data.count(b"\n")
    with pytest.raises(ParseError) as exc:
        parse_relation(data + b"1 2x\n", "edges")
    assert str(exc.value) == f"line {lines + 1}: expected an integer, got '2x'"


def test_parse_peak_memory_is_a_small_multiple_of_the_input():
    pairs, data = _scattered_edges(np.random.default_rng(13), 100_000)
    assert len(data) >= 2 * 2**20
    # Matrix Market indices count from 1.
    entries = "".join(f"{a} {b}\n" for a, b in np.maximum(pairs, 1).tolist())
    mtx = (f"%%MatrixMarket matrix coordinate pattern general\n"
           f"{MAX_ATTRIBUTE} {MAX_ATTRIBUTE} {len(pairs)}\n{entries}").encode("ascii")
    for fmt, text in (("edges", data), ("fimi", data), ("mtx-pattern", mtx)):
        tracemalloc.start()
        try:
            parse_relation(text, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text), fmt
