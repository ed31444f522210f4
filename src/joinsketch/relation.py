"""Input data model: parsing, deduplication, grouping and pruning.

The estimator works on two relations: a left one with schema (a, b) and a
right one with schema (b, c), joined on the shared attribute b.  The result
whose size we estimate is the set of distinct (a, c) pairs, equivalently the
support of the boolean matrix product.  Before estimation the inputs are
grouped by b-value and tuples whose b-value has no match on the other side
are dropped.

Everything is columnar.  A tuple (x, y) of 32-bit values is the packed key
``x << 32 | y``; a relation is a sorted, duplicate-free uint64 array of such
keys, and a grouped input is a compressed sparse row (CSR) layout of the
groups' value arrays.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

MAX_ATTRIBUTE = (1 << 32) - 1

EDGES = "edges"
FIMI = "fimi"
MTX_PATTERN = "mtx-pattern"
FORMATS = (EDGES, FIMI, MTX_PATTERN)

_SHIFT = np.uint64(32)
_LOW = np.uint64(MAX_ATTRIBUTE)

# Token grammar, shared by all formats: ASCII "-?[0-9]+" fields separated by
# spaces and tabs.  Lines end at "\n", "\r\n" or a lone "\r".
_TOKEN = re.compile(rb"-?[0-9]+")
_TAB, _NEWLINE, _SPACE, _HASH, _MINUS, _ZERO = 9, 10, 32, 35, 45, 48
# Fields of at most this many digits are converted in uint64 arithmetic;
# longer ones (leading zeros, or out of range anyway) by Python's int().
_FAST_DIGITS = 10


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RangeError(ValueError):
    """Attribute value outside the unsigned 32-bit range."""

    def __init__(self, value: int, line: int):
        super().__init__(f"line {line}: attribute value {value} outside unsigned 32-bit range")
        self.value = value
        self.line = line


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


def pack(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Keys ``high << 32 | low`` of two arrays of 32-bit values."""
    keys = np.asarray(high, dtype=np.uint64) << _SHIFT
    keys |= np.asarray(low, dtype=np.uint64)
    return keys


def unpack(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 32-bit halves of packed keys, as uint64 arrays."""
    return keys >> _SHIFT, keys & _LOW


def _swapped(keys: np.ndarray) -> np.ndarray:
    """Keys with their halves exchanged, sorted."""
    out = keys << _SHIFT
    out |= keys >> _SHIFT
    out.sort()
    return out


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place and return its distinct values.

    Sort plus an adjacent-difference mask: ``np.unique`` is many times
    slower on large uint64 arrays.
    """
    keys.sort()
    if keys.size < 2:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


@dataclass(frozen=True, eq=False)
class Relation:
    """A deduplicated set of binary tuples over 32-bit attribute values.

    ``keys`` holds each tuple (x, y) as ``x << 32 | y``: a read-only uint64
    array, sorted ascending and duplicate-free.  Build one from Python pairs
    with :meth:`from_pairs`.

    ``Side.LEFT`` means schema (a, b), join attribute in the second position;
    ``Side.RIGHT`` means schema (b, c), join attribute first.  Callers with
    attribute domains wider than 32 bits must pre-hash their values down; no
    compaction happens here.
    """

    side: Side
    keys: np.ndarray

    def __post_init__(self):
        self.keys.setflags(write=False)

    @classmethod
    def from_pairs(cls, side: Side, pairs: Iterable[tuple[int, int]]) -> "Relation":
        """Relation of the distinct pairs among ``pairs`` (duplicates collapse)."""
        arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() > MAX_ATTRIBUTE):
            raise ValueError("attribute values must lie in the unsigned 32-bit range")
        return cls(side, sorted_distinct(pack(arr[:, 0], arr[:, 1])))

    def __len__(self) -> int:
        return int(self.keys.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.side is other.side and np.array_equal(self.keys, other.keys)

    @property
    def tuples(self) -> frozenset[tuple[int, int]]:
        """The tuples as Python int pairs, built on each access."""
        xs, ys = unpack(self.keys)
        return frozenset(zip(xs.tolist(), ys.tolist()))

    def mirrored(self) -> "Relation":
        """Swap attribute positions and flip the side tag.

        A single parsed relation can serve as both join inputs through this:
        the self-join of r is group_and_prune(r, r.mirrored()).
        """
        other = Side.RIGHT if self.side is Side.LEFT else Side.LEFT
        return Relation(other, _swapped(self.keys))


# -- parsing ---------------------------------------------------------------
#
# The fast path tokenizes the whole input with a few numpy passes over its
# bytes and finds the first line that breaks the grammar, if any.  Only that
# line is then re-read by the line checkers below, which raise the error the
# line deserves, with its message and 1-based number.


def _int_field(token: bytes, line: int) -> int:
    if not _TOKEN.fullmatch(token):
        shown = token.decode("ascii", "backslashreplace")
        raise ParseError(f"expected an integer, got {shown!r}", line)
    value = int(token)
    if value < 0 or value > MAX_ATTRIBUTE:
        raise RangeError(value, line)
    return value


def _split(line: bytes) -> list[bytes]:
    """The space- or tab-separated fields of one line."""
    return [f for f in line.replace(b"\t", b" ").split(b" ") if f]


def _check_edges_line(line: bytes, lineno: int) -> None:
    fields = _split(line)
    if not fields or fields[0].startswith(b"#"):
        return
    if len(fields) != 2:
        raise ParseError(f"expected two fields, got {len(fields)}", lineno)
    for field in fields:
        _int_field(field, lineno)


def _check_fimi_line(line: bytes, lineno: int) -> None:
    for field in _split(line):
        _int_field(field, lineno)


def _normalized(text: str | bytes) -> bytes:
    """Input as bytes with every line ending turned into "\\n"."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return bytes(text)


def _raise_at(data: bytes, lineno: int, check) -> None:
    """Re-read line ``lineno`` (1-based), which the fast path flagged."""
    line = data.split(b"\n", lineno)[lineno - 1]
    check(line, lineno)
    raise ParseError("malformed line", lineno)  # unreachable if both paths agree


def _tokenize(data: bytes, comments: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """Split ``data`` into fields at spaces, tabs and newlines, and convert
    each field of the grammar to its value.

    Returns the 0-based line and the value of each field, and the 0-based
    number of the first line with a field that breaks the token grammar or
    the 32-bit range (-1 if none).  With ``comments``, a line whose first
    field starts with "#" is dropped whole, whatever bytes follow.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    gap = buf == _SPACE
    gap |= buf == _TAB
    gap |= buf == _NEWLINE
    edge = np.diff(gap.view(np.int8), prepend=np.int8(1), append=np.int8(1))
    starts = np.flatnonzero(edge == -1)
    ends = np.flatnonzero(edge == 1)
    del edge
    lines = np.searchsorted(np.flatnonzero(buf == _NEWLINE), starts)

    keep = None
    if comments and starts.size:
        first = np.empty(starts.size, dtype=bool)
        first[0] = True
        np.not_equal(lines[1:], lines[:-1], out=first[1:])
        comment_line = np.zeros(int(lines[-1]) + 1, dtype=bool)
        comment_line[lines[first & (buf[starts] == _HASH)]] = True
        keep = ~comment_line[lines]

    # Bytes that are neither gaps nor digits: minus signs, comment text, and
    # anything that breaks the grammar.  A minus may only open a field that
    # has a digit after it.
    gap |= (buf - np.uint8(_ZERO)) < 10
    odd = np.flatnonzero(~gap)
    del gap
    field = np.searchsorted(starts, odd, side="right") - 1
    allowed = (buf[odd] == _MINUS) & (odd == starts[field]) & (ends[field] - odd >= 2)
    if keep is not None:
        allowed |= ~keep[field]
    bad = [int(lines[field[~allowed][0]])] if not allowed.all() else []

    if keep is not None:
        starts, ends, lines = starts[keep], ends[keep], lines[keep]
    negative = buf[starts] == _MINUS
    digits = ends - starts - negative
    values = np.zeros(starts.size, dtype=np.uint64)
    pos = ends - 1
    for j in range(min(_FAST_DIGITS, int(digits.max(initial=0)))):
        digit = buf[pos] - np.uint8(_ZERO)
        digit[digits <= j] = 0
        values += digit * np.uint64(10**j)
        pos -= 1
    for i in np.flatnonzero(digits > _FAST_DIGITS).tolist():
        token = data[starts[i] + negative[i]:ends[i]]
        values[i] = min(int(token), MAX_ATTRIBUTE + 1) if token.isdigit() else 0
    out_of_range = (values > MAX_ATTRIBUTE) | (negative & (values != 0))
    if out_of_range.any():
        bad.append(int(lines[np.argmax(out_of_range)]))
    return lines, values, min(bad, default=-1)


def _parse_edges(text: str | bytes) -> np.ndarray:
    data = _normalized(text)
    lines, values, bad_line = _tokenize(data, comments=True)
    # Every line that is not blank or a comment holds exactly two fields.
    counts = np.bincount(lines)
    wrong = np.flatnonzero((counts != 0) & (counts != 2))
    bad = [line for line in (bad_line, *wrong[:1].tolist()) if line >= 0]
    if bad:
        _raise_at(data, min(bad) + 1, _check_edges_line)
    return pack(values[0::2], values[1::2])


def _parse_fimi(text: str | bytes) -> np.ndarray:
    # One transaction per line; tuple = (0-based line index, item id).
    data = _normalized(text)
    lines, values, bad_line = _tokenize(data, comments=False)
    if bad_line >= 0:
        _raise_at(data, bad_line + 1, _check_fimi_line)
    if lines.size and lines[-1] > MAX_ATTRIBUTE:
        row = int(lines[-1])
        raise RangeError(row, row + 1)
    return pack(lines, values)


def _parse_mtx(text: str | bytes) -> np.ndarray:
    lines = _normalized(text).split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if not lines or not lines[0].startswith(b"%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket header", 1)
    header = lines[0].lower().split()
    if b"coordinate" not in header or b"pattern" not in header:
        raise ParseError("only coordinate pattern matrices are supported", 1)
    if b"general" not in header:
        raise ParseError("only general symmetry is supported", 1)

    dims: tuple[int, int, int] | None = None
    rows: list[int] = []
    cols: list[int] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        fields = _split(raw)
        if not fields or fields[0].startswith(b"%"):
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
        if len(rows) == dims[2]:
            raise ParseError(f"more entries than the declared {dims[2]}", lineno)
        rows.append(r)
        cols.append(c)
    if dims is None:
        raise ParseError("missing dimension line", len(lines) + 1)
    if len(rows) < dims[2]:
        raise ParseError(f"declared {dims[2]} entries, found {len(rows)}", len(lines) + 1)
    return pack(np.array(rows, dtype=np.uint64), np.array(cols, dtype=np.uint64))


_PARSERS = {EDGES: _parse_edges, FIMI: _parse_fimi, MTX_PATTERN: _parse_mtx}


def parse_relation(text: str | bytes, fmt: str, side: Side = Side.LEFT) -> Relation:
    """Parse relation text in one of the supported formats.

    Duplicate tuples collapse silently.  Raises :class:`ParseError` on a
    malformed line and :class:`RangeError` on values beyond 32 bits; see the
    README's "Input formats" for the grammar.
    """
    try:
        parser = _PARSERS[fmt]
    except KeyError:
        raise ValueError(f"unknown input format: {fmt!r}") from None
    return Relation(side, sorted_distinct(parser(text)))


def load_relation(path: str, fmt: str, side: Side = Side.LEFT) -> Relation:
    with open(path, "rb") as fh:
        return parse_relation(fh.read(), fmt, side)


def to_edges_text(relation: Relation) -> str:
    """Serialize to the edge-list format (sorted; parse round-trips)."""
    xs, ys = unpack(relation.keys)
    return "".join(f"{x} {y}\n" for x, y in zip(xs.tolist(), ys.tolist()))


# -- grouping --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupedInput:
    """Pruned, grouped join input in CSR form; immutable and safe to share
    across runs.

    Group i has join value ``join_values[i]`` (ascending), left values
    ``left_values[left_offsets[i]:left_offsets[i + 1]]`` and right values
    ``right_values[right_offsets[i]:right_offsets[i + 1]]``.  Value arrays
    are read-only uint64, sorted and duplicate-free within each group, and
    no group is empty on either side.  The join-project result is the union
    over groups of left x right.
    """

    join_values: np.ndarray
    left_offsets: np.ndarray
    left_values: np.ndarray
    right_offsets: np.ndarray
    right_values: np.ndarray

    _views: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for arr in (self.join_values, self.left_offsets, self.left_values,
                    self.right_offsets, self.right_values):
            arr.setflags(write=False)
        # Per-group views, made once: slicing anew in every run costs about
        # a microsecond per group, a few percent of a run on inputs of many
        # small groups.
        lo, ro = self.left_offsets.tolist(), self.right_offsets.tolist()
        left = [self.left_values[i:j] for i, j in zip(lo, lo[1:])]
        right = [self.right_values[i:j] for i, j in zip(ro, ro[1:])]
        object.__setattr__(self, "_views", (left, right))

    def __len__(self) -> int:
        return int(self.join_values.size)

    def groups(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(join value, left values, right values) of each group, as views."""
        return zip(self.join_values.tolist(), *self._views)

    @property
    def products(self) -> np.ndarray:
        """|left| * |right| of each group (int64)."""
        return np.diff(self.left_offsets) * np.diff(self.right_offsets)

    @property
    def tuple_count(self) -> int:
        """Surviving input tuples: sum over groups of |left| + |right|."""
        return int(self.left_values.size + self.right_values.size)

    @property
    def max_group_product(self) -> int:
        return int(self.products.max(initial=0))

    @property
    def total_product(self) -> int:
        return int(self.products.sum())


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of sorted keys sharing their high half: (high value, run length)
    per run and the low halves."""
    high, low = unpack(keys)
    first = np.empty(high.size, dtype=bool)
    first[:1] = True
    np.not_equal(high[1:], high[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return high[starts], np.diff(starts, append=high.size), low


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def group_and_prune(r1: Relation, r2: Relation) -> GroupedInput:
    """Group both relations by join value, keeping only values present in both.

    Tuples whose join value has no partner on the other side cannot produce
    result pairs and are dropped; the exact join-project size is unchanged.
    Group order is canonical (ascending join value) but nothing downstream
    depends on it.
    """
    if r1.side is not Side.LEFT:
        raise ValueError("first relation must be tagged Side.LEFT")
    if r2.side is not Side.RIGHT:
        raise ValueError("second relation must be tagged Side.RIGHT")

    # Left keys are (a, b); regroup them by b as sorted (b, a) keys.  Right
    # keys (b, c) are grouped by b already.
    left_b, left_counts, left_values = _runs(_swapped(r1.keys))
    right_b, right_counts, right_values = _runs(r2.keys)
    left_kept = np.isin(left_b, right_b, assume_unique=True)
    right_kept = np.isin(right_b, left_b, assume_unique=True)
    return GroupedInput(
        join_values=left_b[left_kept],
        left_offsets=_offsets(left_counts[left_kept]),
        left_values=left_values[np.repeat(left_kept, left_counts)],
        right_offsets=_offsets(right_counts[right_kept]),
        right_values=right_values[np.repeat(right_kept, right_counts)],
    )
