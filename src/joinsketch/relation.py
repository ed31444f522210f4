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
import operator
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
# Fields of at most this many digits are converted in uint64 arithmetic, by
# numpy's C text reader or digit by digit; longer ones (leading zeros, or out
# of range anyway) by Python's int().
_FAST_DIGITS = 10
# An error message shows at most this many bytes of the field it names.
_SHOWN = 40
# Input bytes per tokenizer block; a block ends at a newline, and a longer
# line is a block of its own.  Tokenizer time against one pass over the
# whole input, on the benchmark's uniform-ingest and skewed-repeat edge
# lists (medians of 40 calls, five sets, 2-core Xeon VM, numpy 2.4): 2**17
# 0.60-0.74x, 2**18 0.60-0.68x, 2**19 0.61-0.75x.
_BLOCK = 1 << 18


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RangeError(ValueError):
    """Attribute value outside the unsigned 32-bit range.

    The message shows a value of more than 40 characters by its first 40
    and its digit count.  A value with more digits than ``int()`` converts
    is reported by its digit count alone, and ``value`` is None.
    """

    def __init__(self, value: int | None, line: int, digits: int = 0):
        if value is None:
            shown = f"of {digits} digits"
        else:
            shown = str(value)
            if len(shown) > _SHOWN:
                shown = f"{shown[:_SHOWN]}... ({len(shown.lstrip('-'))} digits)"
        super().__init__(f"line {line}: attribute value {shown} outside unsigned 32-bit range")
        self.value = value
        self.line = line


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def index(self) -> int:
        """0 for left, 1 for right, the order of declaration: the half of a
        packed tuple that holds the non-join attribute, the selector stream
        of a sample of this side and its side code in a sample file."""
        return list(Side).index(self)


def pack(high: np.ndarray, low: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Keys ``high << 32 | low`` of two arrays of 32-bit values, written to
    the uint64 array ``out`` if given, which may be ``high`` itself."""
    keys = np.left_shift(np.asarray(high, dtype=np.uint64), _SHIFT, out=out)
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


def run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``a`` that differ from their predecessor: the
    first entry of each run of equal values."""
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def run_edges(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``a`` starts, then ``a.size``."""
    return np.append(np.flatnonzero(run_starts(a)), a.size)


def offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs of the given lengths: 0, then the
    running totals (int64)."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def chunk_starts(before: np.ndarray, budget: int) -> list[int]:
    """Run indices at which chunks start, followed by the run count.

    ``before`` holds the units before each run, then the total (the CSR
    offsets of the runs).  Chunks take consecutive runs greedily: a chunk
    holds at most ``budget`` units unless it is a single run.
    """
    bounds = [0]
    while bounds[-1] + 1 < before.size:
        lo = bounds[-1]
        hi = int(np.searchsorted(before, before[lo] + budget, side="right")) - 1
        bounds.append(max(hi, lo + 1))
    return bounds


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place and return its distinct values.

    Sort plus an adjacent-difference mask: ``np.unique`` is many times
    slower on large uint64 arrays.
    """
    keys.sort()
    return keys[run_starts(keys)]


def tie_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal neighbours of the sorted array ``keys``.

    Returns a mask of the entries equal to their predecessor and the
    indices of every entry in a run of two or more equal keys (empty when
    the keys are distinct).  Sorting those entries by (key, tie-breakers)
    orders each run in place and leaves the rest of the array alone.
    """
    same = ~run_starts(keys)
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
        try:
            flat = [operator.index(v) for x, y in pairs for v in (x, y)]
        except TypeError:
            raise ValueError("attribute values must be integers") from None
        if flat and (min(flat) < 0 or max(flat) > MAX_ATTRIBUTE):
            raise ValueError("attribute values must lie in the unsigned 32-bit range")
        arr = np.array(flat, dtype=np.int64).reshape(-1, 2)
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
# One tokenizer reads all three formats: a few numpy passes over each
# newline-aligned block of the input bytes split it into fields and find the
# first bad one.  A block of plain digits and gaps is converted by numpy's C
# text reader, any other block digit by digit.  Each format then checks its
# line rules (field counts, the mtx shape and entry count) on those arrays;
# no parser walks its lines in Python.  Each parser packs a block's tuples
# as it comes and drops its fields, so only the keys are joined.


def _normalized(text: str | bytes) -> bytes:
    """Input as bytes with every line ending turned into "\\n"."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return bytes(text)


def _field_error(token: bytes, line: int) -> ParseError | RangeError:
    """The error of a field that breaks the grammar or the 32-bit range.
    A field of more than 40 bytes is shown by its first 40 and its length."""
    digits = token.removeprefix(b"-")
    if digits.isdigit():  # ASCII digits only, for bytes
        try:
            return RangeError(int(token), line)
        except ValueError:  # beyond the interpreter's integer string limit
            return RangeError(None, line, len(digits))
    shown = repr(token[:_SHOWN].decode("ascii", "backslashreplace"))
    if len(token) > _SHOWN:
        shown += f"... ({len(token)} bytes)"
    return ParseError(f"expected an integer, got {shown}", line)


def _first_error(*errors: ValueError | None) -> ValueError | None:
    """The error on the earliest line; on a tie, the one given first."""
    return min((e for e in errors if e is not None), key=lambda e: e.line, default=None)


def _token_blocks(data: bytes, comment: int | None
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, ValueError | None]]:
    """Split ``data`` into fields at spaces, tabs and newlines, and convert
    each field of the grammar to its value, one block of :func:`_blocks` at
    a time.

    Yields the 0-based line and the value of each field of a block, and the
    error of the block's first field that breaks the token grammar or the
    32-bit range (None if none).  Lines count from the start of ``data``.
    A line whose first field starts with the byte ``comment`` is dropped
    whole, whatever bytes follow.  The stream ends with the block that
    holds the first error, so it yields the fields up to the end of that
    block, at least every field of every line up to the error's.
    """
    # Each step's temporaries are the size of a block, not of the input, and
    # the two byte masks are reused from block to block.
    scratch = np.empty((2, min(len(data), _BLOCK) + 2), dtype=bool)
    line = 0
    for start, end in _blocks(data):
        if scratch.shape[1] < end - start + 2:
            scratch = np.empty((2, end - start + 2), dtype=bool)
        lines, values, error, newlines = _tokenize_block(data, start, end, line, comment, scratch)
        yield lines, values, error
        # Hold no block's fields while the next one is tokenized, so that
        # its temporaries can reuse their memory; the parsers drop theirs too.
        del lines, values
        line += newlines
        if error:
            return


def _blocks(data: bytes) -> Iterator[tuple[int, int]]:
    """Start and end of each block of ``data``: at most ``_BLOCK`` bytes
    ending at a newline, or one longer line, or the rest of the data.
    Empty data is one empty block."""
    start = 0
    while True:
        if len(data) - start <= _BLOCK:
            yield start, len(data)
            return
        end = (data.rfind(b"\n", start, start + _BLOCK) + 1
               or data.find(b"\n", start + _BLOCK) + 1 or len(data))
        yield start, end
        start = end


def _tokenize_block(data: bytes, start: int, end: int, line: int, comment: int | None,
                    scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray, ValueError | None, int]:
    """The lines, values and first error of the block ``data[start:end]``,
    which holds whole lines from line ``line`` on (see
    :func:`_token_blocks`), and the number of newlines in it.

    A block of only ASCII digits and gaps, with at least one field and no
    field longer than ``_FAST_DIGITS``, is converted by one
    ``np.fromstring`` call; any other block, digit by digit.

    ``scratch`` is two rows of at least ``end - start + 2`` bools.  Entry
    j + 1 of a row stands for byte j of the block, with a sentinel entry on
    each side.
    """
    buf = np.frombuffer(data, dtype=np.uint8, count=end - start, offset=start)
    gap, aux = scratch[0, :buf.size + 2], scratch[1, :buf.size + 2]
    inner, aux_inner = gap[1:-1], aux[1:-1]
    np.equal(buf, _SPACE, out=inner)
    np.equal(buf, _TAB, out=aux_inner)
    inner |= aux_inner
    np.equal(buf, _NEWLINE, out=aux_inner)
    inner |= aux_inner
    gap[0] = gap[-1] = True
    aux[0] = False

    # A field is a non-empty run between two consecutive gaps.  In byte
    # offsets it starts at the first gap's entry index and ends before the
    # second's.  Its line counts the newlines among the gaps before it.
    cuts = np.flatnonzero(gap)
    starts, ends = cuts[:-1], cuts[1:] - 1
    newlines_before = np.cumsum(aux[starts])
    newlines = int(newlines_before[-1])
    field = ends > starts
    starts, ends, lines = starts[field], ends[field], newlines_before[field]
    del cuts, newlines_before, field

    # Bytes that are neither gaps nor digits: minus signs, comment text, and
    # anything that breaks the grammar.
    shifted = aux_inner.view(np.uint8)
    np.subtract(buf, np.uint8(_ZERO), out=shifted)
    np.less(shifted, 10, out=aux_inner)
    inner |= aux_inner
    odd = np.flatnonzero(np.logical_not(inner, out=inner))

    values = None
    if not odd.size and starts.size and int((ends - starts).max()) <= _FAST_DIGITS:
        # The C reader reads blank text as one 0, so its values count only
        # if they are one per field.
        values = np.fromstring(data[start:end], dtype=np.uint64, sep=" ")
    if values is not None and values.size == starts.size:
        bad = values > MAX_ATTRIBUTE
    else:
        values, bad = _digit_values(data, start, buf, starts, ends, odd)

    keep = None
    if comment is not None and odd.size:  # a comment opens with an odd byte
        comment_line = np.zeros(int(lines[-1]) + 1, dtype=bool)
        comment_line[lines[run_starts(lines) & (buf[starts] == comment)]] = True
        keep = ~comment_line[lines]
        bad &= keep
    error = None
    if bad.any():
        i = int(np.argmax(bad))
        error = _field_error(data[start + starts[i]:start + ends[i]], line + int(lines[i]) + 1)
    if keep is not None:
        lines, values = lines[keep], values[keep]
    lines += line
    return lines, values, error, newlines


def _digit_values(data: bytes, start: int, buf: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of a block's fields, converted digit by digit, and the
    mask of the fields that break the grammar or the 32-bit range.

    ``starts`` and ``ends`` are the fields' byte offsets in the block
    ``buf``, which starts at ``data[start]``, and ``odd`` those of its
    bytes that are neither gaps nor digits.
    """
    # A minus may only open a field that has a digit after it.
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
        significant = data[start + starts[i] + negative[i]:start + ends[i]].lstrip(b"0")
        too_long = len(significant) > _FAST_DIGITS
        values[i] = MAX_ATTRIBUTE + 1 if too_long else int(significant or b"0")
    bad |= values > MAX_ATTRIBUTE
    bad |= negative & (values != 0)
    return values, bad


def _pair_count_error(lines: np.ndarray) -> ParseError | None:
    """The error of the first line that does not hold exactly two fields,
    given the ascending 0-based lines of some whole lines' fields."""
    if not lines.size:
        return None
    first = int(lines[0])
    counts = np.bincount(lines - first)
    wrong = np.flatnonzero((counts != 0) & (counts != 2))
    if not wrong.size:
        return None
    i = int(wrong[0])
    return ParseError(f"expected two fields, got {counts[i]}", first + i + 1)


def _parse_edges(text: str | bytes) -> np.ndarray:
    keys = []
    for lines, values, error in _token_blocks(_normalized(text), _HASH):
        # Every line that is not blank or a comment holds exactly two
        # fields.  A block holds whole lines, so it checks its own.
        error = _first_error(_pair_count_error(lines), error)
        if error:
            raise error
        keys.append(pack(values[0::2], values[1::2]))
        del lines, values  # before the next block; see _token_blocks
    return np.concatenate(keys)


def _parse_fimi(text: str | bytes) -> np.ndarray:
    # One transaction per line; tuple = (0-based line index, item id).
    keys, row = [], 0
    for lines, values, error in _token_blocks(_normalized(text), None):
        if error:
            raise error
        if lines.size:
            row = int(lines[-1])
        high = lines.view(np.uint64)
        keys.append(pack(high, values, out=high))
        del lines, values, high  # before the next block; see _token_blocks
    if row > MAX_ATTRIBUTE:
        raise RangeError(row, row + 1)
    return np.concatenate(keys)


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
    # dimensions, every later one an entry.  A block holds whole lines, so
    # it checks its own: the field counts and the token error first, the
    # earliest line winning; then the entries before that line in line
    # order, the shape before the count, counted across blocks.
    keys, shape, found = [], None, 0
    for lines, values, error in _token_blocks(data, _PERCENT):
        first = int(lines[0]) if lines.size else 0
        counts = np.bincount(lines - first)
        expected = np.full(counts.size, 2)
        if shape is None:
            expected[:1] = 3
        wrong = np.flatnonzero((counts != 0) & (counts != expected))[:1].tolist()
        error = _first_error(*(
            ParseError("dimension line must be 'rows cols entries'" if shape is None and i == 0
                       else f"expected 'row col', got {counts[i]} fields", first + i + 1)
            for i in wrong), error)

        used = int(np.searchsorted(lines, error.line - 1)) if error else lines.size
        start = 0
        if used and shape is None:
            shape, start = values[:3].tolist(), 3
        rows, cols = values[start:used:2], values[start + 1:used:2]
        if used:
            shape_rows, shape_cols, declared = shape
            outside = np.flatnonzero(
                (rows < 1) | (rows > shape_rows) | (cols < 1) | (cols > shape_cols))
            i = int(outside[0]) if outside.size else rows.size
            if i < rows.size and found + i <= declared:
                raise ParseError(f"entry ({rows[i]}, {cols[i]}) outside declared "
                                 f"{shape_rows}x{shape_cols} shape", int(lines[start + 2 * i]) + 1)
            if found + rows.size > declared:
                raise ParseError(f"more entries than the declared {declared}",
                                 int(lines[start + 2 * (declared - found)]) + 1)
            found += rows.size
        keys.append(pack(rows, cols))
        del lines, values, rows, cols  # before the next block; see _token_blocks
        if error:
            raise error
    last = data.count(b"\n") + (not data.endswith(b"\n"))
    if shape is None:
        raise ParseError("missing dimension line", last + 1)
    if found < shape[2]:
        raise ParseError(f"declared {shape[2]} entries, found {found}", last + 1)
    return np.concatenate(keys)


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


# -- grouping --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupedInput:
    """Pruned, grouped join input in CSR form; immutable and safe to share
    across runs.

    Group i has join value ``join_values[i]`` (ascending), left values
    ``left_values[left_offsets[i]:left_offsets[i + 1]]`` and right values
    ``right_values[right_offsets[i]:right_offsets[i + 1]]``.  Value arrays
    are read-only uint64, sorted and duplicate-free within each group.
    ``group_and_prune`` leaves no group empty on either side; the part of
    such an input that ``enumerator.prune`` keeps may hold groups empty on
    both sides.  The join-project result is the union over groups of
    left x right.
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
    edges = run_edges(high)
    return high[edges[:-1]], np.diff(edges), low


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
        left_offsets=offsets(left_counts[left_kept]),
        left_values=left_values[np.repeat(left_kept, left_counts)],
        right_offsets=offsets(right_counts[right_kept]),
        right_values=right_values[np.repeat(right_kept, right_counts)],
    )
