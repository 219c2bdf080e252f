"""Data model for anti-collusion fingerprinting codes.

A code is a set of M distinct length-n words over the alphabet
{0, ..., q-1}.  Codes are often displayed as n x M incidence matrices whose
columns are the codewords; this library stores one word per row, both in
memory and in the text file format.  Codeword indices and positions are
0-based throughout the library (the command line relabels codewords
1-based).

The central derived object is the feasible set: the positionwise symbol
sets R(0), ..., R(n-1) that a coalition of words can exhibit.  A coalition
holding words W can forge exactly the words of the product
W(0) x ... x W(n-1), so feasible sets double as descendant codes and as
detector output.  Descendants are kept in this product form and never
materialized as word lists except through the bounded enumeration helper.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product
from mmap import ACCESS_READ, mmap
from pathlib import Path

import numpy as np

Word = tuple[int, ...]

# rows converted to tuples per step while iterating a code's words, so a
# full pass never holds the whole code as Python objects
_ITER_BLOCK = 1024
# characters of code-file text tokenized per numpy step; blocks are cut
# after a newline, so a line longer than this makes its block longer
_PARSE_BLOCK = 1 << 18
# a line's text, then the break str.splitlines ends it at (or the end of the text)
_LINE = re.compile(r"([^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*)(?:\r\n|.|\Z)", re.DOTALL)
# splitmix64's finalizer steps, x ^= x >> shift then x *= factor, as uint64 scalars made once
_SPLITMIX = tuple(zip(np.uint64([30, 27]), np.uint64([0xBF58476D1CE4E5B9, 0x94D049BB133111EB])))


class CodeFormatError(ValueError):
    """Malformed code file; ``line`` holds the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Words(Sequence):
    """Read-only row view of a code's (M, n) array; each row reads as a tuple.

    Indexing, iteration and equality with a tuple of tuples behave as for
    the tuple of words, but no row becomes a tuple before it is read.  A
    slice is again a view; ``np.asarray`` returns the array itself unless it
    must cast it.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Words(self._rows[index])
        return tuple(self._rows[index].tolist())

    def __iter__(self) -> Iterator[Word]:
        for start in range(0, len(self._rows), _ITER_BLOCK):
            yield from map(tuple, self._rows[start : start + _ITER_BLOCK].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, Words):
            return np.array_equal(self._rows, other._rows)
        if isinstance(other, tuple):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if dtype is None or np.dtype(dtype) == self._rows.dtype:
            return self._rows.copy() if copy else self._rows
        if copy is False:
            raise ValueError(f"Words of {self._rows.dtype} need a copy to cast to {dtype}")
        return self._rows.astype(dtype)

    def __repr__(self) -> str:
        return f"Words({len(self._rows)} x {self._rows.shape[1]})"


def _symbol_dtype(q: int) -> np.dtype:
    """Smallest unsigned dtype holding every symbol 0..q-1."""
    if q > 2**63:  # every symbol must also fit the int64 key arithmetic
        raise ValueError(f"alphabet size {q} above 2**63 is not supported")
    return np.min_scalar_type(max(q - 1, 0))


def _first_fault(words, n: int, q: int) -> str:
    """Message for the first codeword that is not n symbols from 0..q-1."""
    for w in words:
        w = tuple(w.tolist() if isinstance(w, np.ndarray) else w)
        if len(w) != n:
            return f"codeword {w!r} does not have length {n}"
        for sym in w:
            if not isinstance(sym, int) or not 0 <= sym < q:
                return f"symbol {sym!r} outside alphabet 0..{q - 1}"
    return "codewords must be integer sequences"


def _row_keys(columns: np.ndarray) -> np.ndarray:
    """A uint64 key per word, its digits down ``columns``: a splitmix64 chain, which may collide."""
    keys = np.zeros(columns.shape[1], np.uint64)
    for col in columns:
        keys ^= col
        for shift, factor in _SPLITMIX:
            keys ^= keys >> shift
            keys *= factor
        keys ^= keys >> np.uint64(31)
    return keys


def _code_array(words, n: int, q: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The words as a validated, read-only (M, n) array of ``_symbol_dtype(q)``,
    with the read-only ``pack_bits`` limbs it packed of a binary code (None for q > 2).

    Faults are reported for the first faulty codeword in order: wrong
    length, then a symbol outside the alphabet, then a repeat of an
    earlier codeword.  Repeats are sorted out on ``_row_keys``, of a binary
    row's limbs (kept as ``Code.packed``), and confirmed on the rows.
    """
    dtype = _symbol_dtype(q)
    try:
        raw = np.asarray(words)
    except (ValueError, TypeError, OverflowError):
        raw = None
    if raw is None or raw.ndim != 2 or raw.shape[1] != n or raw.dtype.kind not in "biu":
        raise ValueError(_first_fault(words, n, q))
    valid = len(raw)  # rows before the first one holding a symbol outside 0..q-1
    if (raw.dtype.kind == "i" and raw.min() < 0) or raw.max() >= q:
        valid = np.flatnonzero(((raw < 0) | (raw >= q)).any(axis=1))[0]
    # a Words is adopted: another Code's words, or rows built for this Code
    arr = raw.astype(dtype, copy=not isinstance(words, Words))
    limbs = pack_bits(arr[:valid]) if q == 2 else arr[:valid].T
    keys = np.sort(_row_keys(limbs))
    if (keys[1:] == keys[:-1]).any():
        first = np.unique(limbs.T, axis=0, return_index=True)[1]  # exact, row by row
        if first.size < valid:
            repeat = np.setdiff1d(np.arange(valid), first)[0]
            raise ValueError(f"duplicate codeword {tuple(arr[repeat].tolist())}")
    if valid < len(raw):
        raise ValueError(_first_fault(raw[valid : valid + 1], n, q))
    arr.setflags(write=False)
    limbs.setflags(write=False)
    return arr, limbs if q == 2 else None


def pack_bits(rows: np.ndarray) -> np.ndarray:
    """(m, n) 0/1 rows as a (ceil(n/64), m) uint64 array: row i becomes column i.

    Positions 64k .. 64k+63 of a row fill limb k in ``np.packbits`` byte
    order, so any two packings line up limb for limb; the bits past n are 0.
    Limb k of all rows is one contiguous run: a reduction over the few limbs
    then walks whole runs, about ten times faster than along each row.
    """
    m, n = rows.shape
    limbs = np.zeros((m, -(-n // 64) * 8), dtype=np.uint8)
    limbs[:, : -(-n // 8)] = np.packbits(rows, axis=1)
    return np.ascontiguousarray(limbs.view(np.uint64).T)


@dataclass(frozen=True, eq=False)
class Code:
    """An (n, M, q) code: M distinct length-n words over {0, ..., q-1}.

    The words are held once, as the read-only (M, n) array ``array`` of the
    smallest unsigned dtype holding q - 1, validated on construction.
    ``words`` may be any (M, n) integer array, integer tuples or a ``Words``,
    kept as a ``Words`` row view of ``array``.  A ``Words`` of that dtype is
    adopted, its array uncopied and made read-only; other input is copied.
    Validation sorts one splitmix64 key per word, a binary one's from
    ``packed``, its uint64 bit limbs, kept read-only.  At q = 100 adopting
    the row takes 0.25 ms and its (300, 11,250) composition 2.2 ms, 1.6 ms
    of it ``pack_bits`` (450 kB of limbs; medians of 200 calls, 2-vCPU Xeon;
    the docs refer here).  The profile ``sepcode.verify`` keeps on a code
    holds its reduced words (10.0 MB at q = 100); ``==`` and ``hash`` ignore both."""

    n: int
    M: int
    q: int
    words: Words
    array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("code length must be at least 1")
        if self.q < 2:
            raise ValueError("alphabet size must be at least 2")
        if self.M < 1:
            raise ValueError("code must contain at least one codeword")
        if len(self.words) != self.M:
            raise ValueError(f"M={self.M} does not match {len(self.words)} codewords")
        arr, packed = _code_array(self.words, self.n, self.q)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "words", Words(arr))
        object.__setattr__(self, "_packed", packed)

    @classmethod
    def from_words(cls, words: Iterable[Sequence[int]], q: int | None = None) -> "Code":
        """Build a Code from any iterable of integer sequences.

        The alphabet size defaults to one more than the largest symbol used
        (at least 2).
        """
        tup = tuple(tuple(int(s) for s in w) for w in words)
        if not tup:
            raise ValueError("code must contain at least one codeword")
        if q is None:
            q = max(2, 1 + max(max(w, default=0) for w in tup))
        return cls(n=len(tup[0]), M=len(tup), q=q, words=tup)

    @property
    def packed(self) -> np.ndarray:
        """``pack_bits(array)`` of a binary code, made by validation, read-only."""
        if self.q != 2:
            raise ValueError("bit packing requires a binary code")
        return self._packed

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.n, self.M, self.q) == (other.n, other.M, other.q) and np.array_equal(
            self.array, other.array
        )

    def __hash__(self) -> int:
        return hash((self.n, self.M, self.q, self.array.tobytes()))

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return self.M


@dataclass(frozen=True)
class FeasibleSet:
    """Positionwise symbol sets R(0), ..., R(n-1): a descendant code in product form."""

    positions: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.positions:
            raise ValueError("feasible set needs at least one position")
        for i, allowed in enumerate(self.positions):
            if not allowed:
                raise ValueError(f"empty symbol set at position {i}")

    @property
    def n(self) -> int:
        return len(self.positions)

    def __getitem__(self, position: int) -> frozenset[int]:
        return self.positions[position]

    def contains(self, word: Sequence[int]) -> bool:
        """Componentwise membership: word(i) in R(i) for every i."""
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} does not match {self.n} positions")
        return all(sym in allowed for sym, allowed in zip(word, self.positions))

    def member_count(self) -> int:
        total = 1
        for allowed in self.positions:
            total *= len(allowed)
        return total

    def enumerate_members(self, cap: int = 10**6) -> Iterator[Word]:
        """Yield every word of the product; refuses when the product exceeds cap."""
        if self.member_count() > cap:
            raise ValueError(f"descendant has {self.member_count()} members, above cap {cap}")
        return product(*(tuple(sorted(allowed)) for allowed in self.positions))


def descendant(words: Iterable[Sequence[int]]) -> FeasibleSet:
    """Descendant code of a non-empty, uniform-length word collection."""
    rows = [tuple(w) for w in words]
    if not rows:
        raise ValueError("empty codeword set")
    n = len(rows[0])
    if any(len(w) != n for w in rows):
        raise ValueError("codewords must share one length")
    return FeasibleSet(tuple(frozenset(w[i] for w in rows) for i in range(n)))


def coalition_indices(code: Code, members: Iterable[int]) -> tuple[int, ...]:
    """Validate coalition members against a code; returns sorted distinct indices."""
    idx = sorted({int(i) for i in members})
    if not idx:
        raise ValueError("coalition must be non-empty")
    if idx[0] < 0 or idx[-1] >= code.M:
        raise ValueError(f"codeword index out of range 0..{code.M - 1}")
    return tuple(idx)


def captured_indices(arr: np.ndarray, members: Sequence[int]) -> list[int]:
    """Indices of rows of ``arr`` lying in the descendant of the given rows: each
    member's matches are ORed into one (M, n) mask in turn, with no (M, k, n) temporary."""
    mask = np.zeros(arr.shape, bool)
    for i in members:
        mask |= arr == arr[i]
    return np.flatnonzero(mask.all(axis=1)).tolist()


def desc_intersect_code(code: Code, coalition: Iterable[int]) -> frozenset[int]:
    """Indices of codewords lying in the coalition's descendant code.

    Always a superset of the coalition itself.
    """
    members = coalition_indices(code, coalition)
    return frozenset(captured_indices(code.array, members))


def shortened(code: Code, position: int, symbol: int) -> frozenset[Word]:
    """Words holding ``symbol`` at ``position``, with that position deleted.

    Duplicates collapse: the result is a set, which is all the length-3
    separability criterion inspects.
    """
    if not 0 <= position < code.n:
        raise ValueError(f"position {position} out of range 0..{code.n - 1}")
    if not 0 <= symbol < code.q:
        raise ValueError(f"symbol {symbol} outside alphabet 0..{code.q - 1}")
    rows = code.array[code.array[:, position] == symbol]
    return frozenset(map(tuple, np.delete(rows, position, axis=1).tolist()))


def hamming(u: Sequence[int], v: Sequence[int]) -> int:
    """Number of positions where two equal-length words differ."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a != b)


# ---------------------------------------------------------------------------
# Text formats.  Code files: header "n M q", then M rows of n symbols in
# 0..q-1, '#' comments allowed.  Feasible-set lines (binary codes only):
# n tokens from {0, 1, *}, written contiguously, parsed with or without
# whitespace.
# ---------------------------------------------------------------------------


def _header(content: str, line: int) -> tuple[int, int, int]:
    """(n, M, q) from the header line's content, validated."""
    head = content.split()
    if len(head) != 3:
        raise CodeFormatError('header must hold three integers "n M q"', line)
    try:
        n, m, q = (int(tok) for tok in head)
    except ValueError:
        raise CodeFormatError('header must hold three integers "n M q"', line) from None
    if n < 1 or m < 1 or q < 2:
        raise CodeFormatError("header needs n >= 1, M >= 1 and q >= 2", line)
    return n, m, q


def _parse_lines(text: str) -> Code:
    """Parse lazily, line by line; every fault raises CodeFormatError with its line."""
    lines = ((k, c) for k, line in enumerate(_LINE.finditer(text), start=1)
             if (c := line[1].split("#", 1)[0].strip()))  # numbered, holding more than a comment
    head_line, content = next(lines, (1, None))
    if content is None:
        raise CodeFormatError('missing header line "n M q"', head_line)
    n, m, q = _header(content, head_line)
    body = list(lines)
    if len(body) > m:
        raise CodeFormatError(f"expected {m} codeword lines, found more", body[m][0])
    if len(body) < m:
        raise CodeFormatError(
            f"expected {m} codeword lines, found {len(body)}",
            body[-1][0] if body else head_line,
        )
    try:
        dtype = _symbol_dtype(q)
    except ValueError as exc:
        raise CodeFormatError(str(exc), head_line) from None
    words = []  # nothing is sized from the header, which may promise any n
    for lineno, content in body:
        toks = content.split()
        if len(toks) != n:
            raise CodeFormatError(f"expected {n} symbols, found {len(toks)}", lineno)
        try:
            w = list(map(int, toks))
        except ValueError:
            raise CodeFormatError("symbols must be integers", lineno) from None
        if min(w) < 0 or max(w) >= q:
            sym = next(sym for sym in w if not 0 <= sym < q)
            raise CodeFormatError(f"symbol {sym} outside alphabet 0..{q - 1}", lineno)
        words.append(np.array(w, dtype=dtype))
    try:
        return Code(n=n, M=m, q=q, words=Words(np.stack(words)))
    except ValueError as exc:
        raise CodeFormatError(str(exc), head_line) from None


# ASCII bytes other than "\n" at which str.splitlines breaks a line
_OTHER_BREAKS = frozenset(b"\r\v\f\x1c\x1d\x1e")
_SPACE, _TAB, _NEWLINE, _ZERO = b" \t\n0"


def _row_base(n: int) -> np.ndarray:
    """The little-endian uint16 cells of the row "0 0 ... 0\\n" of n symbols.

    A row "d d ... d\\n" of one-digit symbols reads as these cells plus its
    symbols: "d " is 0x2030 + d, and the last cell "d\\n" is 0x0A30 + d.
    """
    base = np.full(n, _SPACE << 8 | _ZERO, "<u2")
    base[-1] = _NEWLINE << 8 | _ZERO
    return base


def _fixed_rows(data: bytes | mmap, pos: int, n: int, m: int, q: int) -> np.ndarray | None:
    """The M rows of ``data[pos:]`` as one-digit symbols, or None unless the
    body is exactly M rows "d d ... d\\n" of symbols below q.

    A cell minus its base is its symbol; any other byte in the cell gives
    10 or more, wrapped or not, so one bound checks every byte.
    """
    cells = np.frombuffer(data, "<u2", count=m * n, offset=pos).reshape(m, n)
    base, bound = _row_base(n), min(q, 10)
    out = np.empty((m, n), _symbol_dtype(q))
    step = max(1, _PARSE_BLOCK // (2 * n))
    for start in range(0, m, step):
        symbols = cells[start : start + step] - base
        if symbols.max() >= bound:
            return None
        out[start : start + step] = symbols
    return out


def _tokenize(data: bytes | mmap, pos: int, n: int, m: int, q: int) -> np.ndarray | None:
    """The M rows of ``data[pos:]`` tokenized in blocks, or None unless the
    body is M lines of n decimal tokens below q, separated by spaces, tabs
    and blank lines."""
    chars = np.frombuffer(data, np.uint8)
    out = np.empty(m * n, _symbol_dtype(q))
    filled = lines = 0
    while pos < len(data):
        stop = pos + _PARSE_BLOCK
        if stop >= len(data):
            cut = len(data)
        else:  # after the block's last newline, or the first one past it
            cut = data.rfind(b"\n", pos, stop) + 1 or data.find(b"\n", stop) + 1 or len(data)
        block, pos = chars[pos:cut], cut
        digits = block - _ZERO  # wraps below "0", so digits < 10 exactly at 0-9
        # is_digit[1:-1] marks the block's digits; the ends are never digits,
        # so every token has a rising edge before it and a falling one after
        is_digit = np.zeros(block.size + 2, bool)
        np.less(digits, 10, out=is_digit[1:-1])
        newlines = np.flatnonzero(block == _NEWLINE)
        separators = np.count_nonzero((block == _SPACE) | (block == _TAB)) + newlines.size
        if np.count_nonzero(is_digit) + separators != block.size:
            return None
        starts = np.flatnonzero(is_digit[1:] > is_digit[:-1])
        if not starts.size:
            continue
        # tokens per line; a last line without its newline ends at the block's end
        per_line = np.diff(np.searchsorted(starts, np.append(newlines, block.size)), prepend=0)
        per_line = per_line[per_line > 0]
        lines += per_line.size
        if lines > m or (per_line != n).any():
            return None
        widths = np.flatnonzero(is_digit[:-1] > is_digit[1:]) - starts
        longest = int(widths.max())
        if longest > 18:
            return None
        values = digits[starts].astype(np.int64)
        for k in range(1, longest):  # Horner steps; 18 digits stay below 2**63
            more = widths > k
            values[more] = values[more] * 10 + digits[starts[more] + k]
        if int(values.max()) >= q:
            return None
        out[filled : filled + values.size] = values
        filled += values.size
    return out.reshape(m, n) if lines == m else None


def _parse_blocks(data: bytes | mmap) -> Code | None:
    """Parse a plain code file's bytes with numpy, or return None.

    Plain means ASCII, header lines split at "\\n" alone, and a body of
    exactly M lines of n decimal tokens below q, separated by spaces, tabs
    and blank lines.  A body of exactly M rows "d d ... d\\n" is read as
    fixed-width rows; any other plain body is tokenized in blocks; the rows
    either builds become the Code's array.  Anything else, a faulty header
    too, returns None for ``_parse_lines`` to parse or report.  Only a
    duplicate codeword raises, on the header line as there: the line
    parser takes about 40 times as long to find it in a large file.
    """
    pos = head_line = 0
    while pos < len(data):
        cut = data.find(b"\n", pos)
        cut = len(data) if cut < 0 else cut
        line, pos, head_line = data[pos:cut], cut + 1, head_line + 1
        if not line.isascii() or not _OTHER_BREAKS.isdisjoint(line):
            return None
        content = line.decode().split("#", 1)[0].strip()
        if content:
            break
    else:
        return None
    try:  # a faulty header, or q above 2**63, is left to _parse_lines to report
        n, m, q = _header(content, head_line)
        _symbol_dtype(q)
    except ValueError:
        return None
    # every symbol takes a digit and all but the last a separator, so a
    # header promising more than the text can hold allocates nothing
    if 2 * m * n - 1 > len(data) - pos:
        return None
    words = _fixed_rows(data, pos, n, m, q) if len(data) - pos == 2 * m * n else None
    if words is None:
        words = _tokenize(data, pos, n, m, q)
    if words is None:
        return None
    try:
        return Code(n=n, M=m, q=q, words=Words(words))
    except ValueError as exc:
        raise CodeFormatError(str(exc), head_line) from None


def parse_code_text(text: str) -> Code:
    """Parse the code text format, raising CodeFormatError with a line number.

    Plain files are read in numpy blocks, which report only a duplicate
    codeword; other text goes line by line, which reports every other fault.
    """
    code = _parse_blocks(text.encode())
    return _parse_lines(text) if code is None else code


def _name_table(symbols: np.ndarray) -> np.ndarray:
    """One row per symbol: its decimal name and a space, zero bytes padding the left."""
    width = len(str(int(symbols.max())))
    table = np.zeros((symbols.size, width + 1), np.uint8)
    table[:, width] = _SPACE
    rest = symbols.astype(np.uint64)
    for col in range(width - 1, -1, -1):  # the last digit first; 0 is named "0"
        table[:, col] = np.where((rest > 0) | (col == width - 1), rest % 10 + _ZERO, 0)
        rest //= 10
    return table


def _text_blocks(code: Code) -> Iterator[np.ndarray]:
    """The code's text as ASCII byte arrays: the header, then codeword rows per block."""
    yield np.frombuffer(f"{code.n} {code.M} {code.q}\n".encode(), np.uint8)
    hi = int(code.array.max())
    if hi < 10:  # fixed-width rows "d d ... d\n"
        base = _row_base(code.n)
        for start in range(0, code.M, _ITER_BLOCK):
            cells = code.array[start : start + _ITER_BLOCK] + base  # <u2 unless symbols are wider
            yield cells.astype("<u2", copy=False).view(np.uint8)
        return
    # index the names by symbol value unless the table would outgrow the code
    by_value = hi < code.array.size
    symbols = np.arange(hi + 1) if by_value else np.unique(code.array)
    table = _name_table(symbols)
    for start in range(0, code.M, _ITER_BLOCK):
        block = code.array[start : start + _ITER_BLOCK]
        cells = np.take(table, block if by_value else np.searchsorted(symbols, block), axis=0)
        cells[:, -1, -1] = _NEWLINE  # (rows, n, name width): the last space of a row
        yield cells[cells != 0]  # in row order, without the zero bytes padding narrower names


def format_code_text(code: Code) -> str:
    """Header "n M q", then one line of space-separated symbols per codeword."""
    return b"".join(_text_blocks(code)).decode()


def _decode(raw: bytes) -> str:
    """The file's bytes as UTF-8 text; a bad byte raises CodeFormatError on its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[: exc.start].count(b"\n") + 1
        raise CodeFormatError(
            f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start}", line
        ) from None


def read_code_file(path: str | Path) -> Code:
    """Parse a code file; its bytes are tokenized as they are, without a decoded copy.

    The file is mapped read-only for the parse and unmapped before returning;
    the parser writes the codewords into the array that becomes the Code.
    """
    with open(path, "rb") as file:
        try:
            data = mmap(file.fileno(), 0, access=ACCESS_READ)
        except (OSError, ValueError):  # size 0 (empty, a FIFO, /proc) or not mappable
            data = file.read()
    with data if isinstance(data, mmap) else nullcontext():
        code = _parse_blocks(data)
        return _parse_lines(_decode(data[:])) if code is None else code


def write_code_file(path: str | Path, code: Code) -> None:
    """Write ``format_code_text(code)`` block by block, never holding the whole text."""
    with open(path, "wb") as out:
        out.writelines(_text_blocks(code))


# The binary feasible-set codec.  A position of a binary R is pinned to 0 or
# 1, or free (pin 2); BINARY_SETS[pin] is its symbol set and a feasible-set
# line writes it as BINARY_TOKENS[pin].
BINARY_SETS = (frozenset({0}), frozenset({1}), frozenset({0, 1}))
BINARY_TOKENS = "01*"
_PIN_OF_SET = {allowed: pin for pin, allowed in enumerate(BINARY_SETS)}
_SET_OF_TOKEN = dict(zip(BINARY_TOKENS, BINARY_SETS))


def binary_pins(feasible: FeasibleSet) -> np.ndarray:
    """R's positions as pins; refuses R at its first position that is not binary."""
    try:
        return np.array([_PIN_OF_SET[allowed] for allowed in feasible.positions])
    except KeyError:
        first = next(
            i for i, allowed in enumerate(feasible.positions) if allowed not in _PIN_OF_SET
        )
        raise ValueError(f"feasible set is not binary at position {first}") from None


def parse_feasible_line(text: str) -> FeasibleSet:
    """Parse a binary feasible-set line of tokens 0, 1 or * ('*' means {0,1})."""
    stripped = text.strip()
    tokens = stripped.split() if any(ch.isspace() for ch in stripped) else list(stripped)
    if not tokens:
        raise ValueError("empty feasible-set line")
    for tok in tokens:
        if tok not in _SET_OF_TOKEN:
            raise ValueError(f"invalid feasible-set token {tok!r}; expected 0, 1 or *")
    return FeasibleSet(tuple(_SET_OF_TOKEN[tok] for tok in tokens))


def format_feasible_line(feasible: FeasibleSet) -> str:
    return "".join(BINARY_TOKENS[pin] for pin in binary_pins(feasible).tolist())
