"""Line-by-line reference parsers for the three input formats.

These are the straightforward parsers that joinsketch's vectorized
tokenizer replaced: one ``str.splitlines`` pass, ``str.split`` per line and
``int()`` per field.  On texts in the token grammar (ASCII ``-?[0-9]+``
fields, spaces and tabs, ``\\n``/``\\r\\n``/``\\r`` line ends) both must
agree on the tuples or on the error's type, line and message.  Outside the
grammar they differ on purpose: ``int()`` also takes ``1_0``, ``+3`` and
non-ASCII digits, which joinsketch rejects.
"""

from __future__ import annotations

from joinsketch.relation import MAX_ATTRIBUTE, ParseError, RangeError


def _check_value(value: int, line: int) -> int:
    if value < 0 or value > MAX_ATTRIBUTE:
        raise RangeError(value, line)
    return value


def _int_field(token: str, line: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line) from None
    return _check_value(value, line)


def parse_edges(text: str) -> set[tuple[int, int]]:
    tuples: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected two fields, got {len(fields)}", lineno)
        tuples.add((_int_field(fields[0], lineno), _int_field(fields[1], lineno)))
    return tuples


def parse_fimi(text: str) -> set[tuple[int, int]]:
    # One transaction per line; tuple = (0-based line index, item id).
    tuples: set[tuple[int, int]] = set()
    for row, raw in enumerate(text.splitlines()):
        _check_value(row, row + 1)
        for token in raw.split():
            tuples.add((row, _int_field(token, row + 1)))
    return tuples


def parse_mtx(text: str) -> set[tuple[int, int]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket header", 1)
    header = lines[0].lower().split()
    if "coordinate" not in header or "pattern" not in header:
        raise ParseError("only coordinate pattern matrices are supported", 1)
    if "general" not in header:
        raise ParseError("only general symmetry is supported", 1)

    dims: tuple[int, int, int] | None = None
    tuples: set[tuple[int, int]] = set()
    entries = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = raw.split()
        if not fields or fields[0].startswith("%"):
            continue
        if dims is None:
            if len(fields) != 3:
                raise ParseError("dimension line must be 'rows cols entries'", lineno)
            dims = tuple(_int_field(f, lineno) for f in fields)
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'row col', got {len(fields)} fields", lineno)
        r, c = (_int_field(f, lineno) for f in fields)
        if not (1 <= r <= dims[0]) or not (1 <= c <= dims[1]):
            raise ParseError(f"entry ({r}, {c}) outside declared {dims[0]}x{dims[1]} shape", lineno)
        if entries == dims[2]:
            raise ParseError(f"more entries than the declared {dims[2]}", lineno)
        entries += 1
        tuples.add((r, c))
    if dims is None:
        raise ParseError("missing dimension line", len(lines) + 1)
    if entries < dims[2]:
        raise ParseError(f"declared {dims[2]} entries, found {entries}", len(lines) + 1)
    return tuples
