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
from dataclasses import dataclass
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
_TAB, _NEWLINE, _SPACE, _HASH, _PERCENT, _MINUS, _ZERO = 9, 10, 32, 35, 37, 45, 48
# Fields of at most this many digits are converted in uint64 arithmetic;
# longer ones (leading zeros, or out of range anyway) by Python's int().
_FAST_DIGITS = 10


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RangeError(ValueError):
    """Attribute value outside the unsigned 32-bit range.

    A value with more digits than ``int()`` converts is reported by its
    digit count, and ``value`` is None.
    """

    def __init__(self, value: int | None, line: int, digits: int = 0):
        shown = f"of {digits} digits" if value is None else value
        super().__init__(f"line {line}: attribute value {shown} outside unsigned 32-bit range")
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


def tie_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal neighbours of the sorted array ``keys``.

    Returns a mask of the entries equal to their predecessor and the
    indices of every entry in a run of two or more equal keys (empty when
    the keys are distinct).  Sorting those entries by (key, tie-breakers)
    orders each run in place and leaves the rest of the array alone.
    """
    same = np.zeros(keys.size, dtype=bool)
    np.equal(keys[1:], keys[:-1], out=same[1:])
    if not same.any():
        return same, np.empty(0, dtype=np.intp)
    tied = same.copy()
    tied[:-1] |= same[1:]
    return same, np.flatnonzero(tied)


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
# One tokenizer reads all three formats: a few numpy passes over the input
# bytes split and convert its fields and find the first bad one.  Each format
# then checks its line rules (field counts, the mtx shape and entry count) on
# those arrays; no parser walks its lines in Python.


def _normalized(text: str | bytes) -> bytes:
    """Input as bytes with every line ending turned into "\\n"."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return bytes(text)


def _field_error(token: bytes, line: int) -> ParseError | RangeError:
    """The error of a field that breaks the grammar or the 32-bit range."""
    digits = token.removeprefix(b"-")
    if digits.isdigit():  # ASCII digits only, for bytes
        try:
            return RangeError(int(token), line)
        except ValueError:  # beyond the interpreter's integer string limit
            return RangeError(None, line, len(digits))
    shown = token.decode("ascii", "backslashreplace")
    return ParseError(f"expected an integer, got {shown!r}", line)


def _first_error(*errors: ValueError | None) -> ValueError | None:
    """The error on the earliest line; on a tie, the one given first."""
    return min((e for e in errors if e is not None), key=lambda e: e.line, default=None)


def _tokenize(data: bytes, comment: int | None) -> tuple[np.ndarray, np.ndarray, ValueError | None]:
    """Split ``data`` into fields at spaces, tabs and newlines, and convert
    each field of the grammar to its value.

    Returns the 0-based line and the value of each field, and the error of
    the first field that breaks the token grammar or the 32-bit range (None
    if none).  A line whose first field starts with the byte ``comment`` is
    dropped whole, whatever bytes follow.
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

    # Bytes that are neither gaps nor digits: minus signs, comment text, and
    # anything that breaks the grammar.  A minus may only open a field that
    # has a digit after it.
    gap |= (buf - np.uint8(_ZERO)) < 10
    odd = np.flatnonzero(~gap)
    del gap
    field = np.searchsorted(starts, odd, side="right") - 1
    allowed = (buf[odd] == _MINUS) & (odd == starts[field]) & (ends[field] - odd >= 2)
    bad = np.zeros(starts.size, dtype=bool)
    bad[field[~allowed]] = True

    negative = buf[starts] == _MINUS
    digits = ends - starts - negative
    values = np.zeros(starts.size, dtype=np.uint64)
    pos = ends - 1
    for j in range(min(_FAST_DIGITS, int(digits.max(initial=0)))):
        digit = buf[pos] - np.uint8(_ZERO)
        digit[digits <= j] = 0
        values += digit * np.uint64(10**j)
        pos -= 1
    for i in np.flatnonzero((digits > _FAST_DIGITS) & ~bad).tolist():
        significant = data[starts[i] + negative[i]:ends[i]].lstrip(b"0")
        too_long = len(significant) > _FAST_DIGITS
        values[i] = MAX_ATTRIBUTE + 1 if too_long else int(significant or b"0")
    bad |= values > MAX_ATTRIBUTE
    bad |= negative & (values != 0)
    del negative, digits, pos

    keep = None
    if comment is not None and starts.size:
        first = np.empty(starts.size, dtype=bool)
        first[0] = True
        np.not_equal(lines[1:], lines[:-1], out=first[1:])
        comment_line = np.zeros(int(lines[-1]) + 1, dtype=bool)
        comment_line[lines[first & (buf[starts] == comment)]] = True
        keep = ~comment_line[lines]
        bad &= keep
    error = None
    if bad.any():
        i = int(np.argmax(bad))
        error = _field_error(data[starts[i]:ends[i]], int(lines[i]) + 1)
    if keep is not None:
        lines, values = lines[keep], values[keep]
    return lines, values, error


def _parse_edges(text: str | bytes) -> np.ndarray:
    lines, values, error = _tokenize(_normalized(text), _HASH)
    # Every line that is not blank or a comment holds exactly two fields.
    counts = np.bincount(lines)
    wrong = np.flatnonzero((counts != 0) & (counts != 2))[:1].tolist()
    error = _first_error(
        *(ParseError(f"expected two fields, got {counts[i]}", i + 1) for i in wrong), error)
    if error:
        raise error
    return pack(values[0::2], values[1::2])


def _parse_fimi(text: str | bytes) -> np.ndarray:
    # One transaction per line; tuple = (0-based line index, item id).
    lines, values, error = _tokenize(_normalized(text), None)
    if error:
        raise error
    if lines.size and lines[-1] > MAX_ATTRIBUTE:
        row = int(lines[-1])
        raise RangeError(row, row + 1)
    return pack(lines, values)


def _parse_mtx(text: str | bytes) -> np.ndarray:
    data = _normalized(text)
    end = data.find(b"\n")
    header = data[:end] if end >= 0 else data
    if not header.startswith(b"%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket header", 1)
    words = header.lower().split()
    if b"coordinate" not in words or b"pattern" not in words:
        raise ParseError("only coordinate pattern matrices are supported", 1)
    if b"general" not in words:
        raise ParseError("only general symmetry is supported", 1)

    # The header is a comment line.  The first used line holds the
    # dimensions, every later one an entry.
    lines, values, error = _tokenize(data, _PERCENT)
    counts = np.bincount(lines)
    expected = np.full(counts.size, 2)
    expected[lines[:1]] = 3
    wrong = np.flatnonzero((counts != 0) & (counts != expected))[:1].tolist()
    error = _first_error(*(
        ParseError("dimension line must be 'rows cols entries'" if i == lines[0]
                   else f"expected 'row col', got {counts[i]} fields", i + 1)
        for i in wrong), error)

    # Lines before the first error are well formed; check the entries among
    # them in line order, the shape before the count.
    used = int(np.searchsorted(lines, error.line - 1)) if error else lines.size
    rows, cols = values[3:used:2], values[4:used:2]
    if used:
        shape_rows, shape_cols, declared = values[:3].tolist()
        outside = (rows < 1) | (rows > shape_rows) | (cols < 1) | (cols > shape_cols)
        i = int(np.argmax(outside)) if outside.any() else rows.size
        if i < rows.size and i <= declared:
            raise ParseError(
                f"entry ({rows[i]}, {cols[i]}) outside declared {shape_rows}x{shape_cols} shape",
                int(lines[3 + 2 * i]) + 1)
        if rows.size > declared:
            raise ParseError(f"more entries than the declared {declared}",
                             int(lines[3 + 2 * declared]) + 1)
    if error:
        raise error
    last = data.count(b"\n") + (not data.endswith(b"\n"))
    if not used:
        raise ParseError("missing dimension line", last + 1)
    if rows.size < declared:
        raise ParseError(f"declared {declared} entries, found {rows.size}", last + 1)
    return pack(rows, cols)


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

    def __post_init__(self):
        for arr in (self.join_values, self.left_offsets, self.left_values,
                    self.right_offsets, self.right_values):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.join_values.size)

    def groups(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(join value, left values, right values) of each group, as views
        sliced on demand."""
        lo, ro = self.left_offsets.tolist(), self.right_offsets.tolist()
        lv, rv = self.left_values, self.right_values
        for i, b in enumerate(self.join_values.tolist()):
            yield b, lv[lo[i]:lo[i + 1]], rv[ro[i]:ro[i + 1]]

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
