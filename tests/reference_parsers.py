"""Line-by-line reference parsers for the edges and fimi formats.

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
