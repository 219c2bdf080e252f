"""The code-file text format against its reference (``reference_codes``).

``parse_code_text`` tokenizes plain files in numpy blocks and hands every
other text to the line parser; these tests require it to give the
reference's Code, or the reference's CodeFormatError message on the same
line, for texts drawn from a grammar of valid and faulty files and for
arbitrary text.  Block sizes of a few characters cut the text mid-file.
A body of one-digit rows "d d ... d\\n" must parse on the fixed-width row
path alone, and every one-byte change to such a body must still parse like
the reference.  ``format_code_text`` must reproduce the reference byte for
byte, and its output must parse back on the block path alone.  Code
files must read like the reference whatever kind of file holds them, and
every parse path must hand ``Code`` the rows it built, to be kept without a
copy.  Code validation must return the reference validator's array or raise
its message.
"""

from __future__ import annotations

import os
import threading
import tracemalloc
from contextlib import contextmanager, nullcontext
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_codes as ref
from sepcode import codes
from sepcode.codes import Code, CodeFormatError, format_code_text, parse_code_text
from sepcode.construct import build_length3, one_hot_compose, optimal_s

BLOCK_SIZES = [1, 2, 3, 5, 8, 13, codes._PARSE_BLOCK]
BLOCKS = st.sampled_from(BLOCK_SIZES)


def outcome(parse, text: str):
    """The parsed code in full, or the CodeFormatError's message and line."""
    try:
        code = parse(text)
    except CodeFormatError as exc:
        return "error", str(exc), exc.line
    return "code", code.n, code.M, code.q, code.array.dtype, code.array.tolist()


def assert_parses_like_reference(text: str, block: int) -> None:
    with mock.patch.object(codes, "_PARSE_BLOCK", block):
        assert outcome(parse_code_text, text) == outcome(ref.parse_code_text, text)


def block_path_only():
    """Patch the line parser out, so only the block path can parse."""
    return mock.patch.object(
        codes, "_parse_lines", side_effect=AssertionError("the block path declined")
    )


@contextmanager
def row_path_only():
    """Patch the tokenizer and the line parser out, so only fixed-width rows can parse."""
    declined = AssertionError("the row path declined")
    with block_path_only(), mock.patch.object(codes, "_tokenize", side_effect=declined):
        yield


# ------------------------------------------------------------------- grammar


def often(common, *rare):
    """A choice that draws ``common`` three times as often as all of ``rare``."""
    return st.sampled_from([common] * 3 * len(rare) + list(rare))


@st.composite
def code_texts(draw) -> str:
    """A code file, valid and plain or with one fault or unusual form."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    q = draw(st.sampled_from([2, 3, 10, 11, 100, 2**40, 2**63, 2**64]))
    header = draw(
        often(
            f"{n} {m} {q}",
            f"{n}\t{m}  {q}",
            f"{n} {m} {q}  # header",
            f"{n} {m}",
            f"{n} {m} {q} 1",
            f"{n} x {q}",
            f"0 {m} {q}",
            f"{n} -{m} {q}",
            f"{n} {m} 1",
            f"+{n} {m} {q}",
        )
    )
    # a few small symbols, so that duplicate codewords occur
    symbol = st.sampled_from([0, 1, 2, q - 1]).filter(lambda sym: sym < q)
    zeros = often("", "0", "00")
    rows = [[draw(zeros) + str(draw(symbol)) for _ in range(n)] for _ in range(m)]
    r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    faults = ["short", "long", "q", "wide", "plus", "minus", "underscore", "letter", "unicode"]
    fault = draw(st.sampled_from([None] * len(faults) + faults))
    if fault == "short":
        rows[r].pop()
    elif fault == "long":
        rows[r].append("0")
    elif fault is not None:
        rows[r][c] = {
            "q": str(q),
            "wide": str(2**64 + 1),  # wraps to 1 in 64 bits
            "plus": "+" + rows[r][c],
            "minus": "-" + rows[r][c],
            "underscore": rows[r][c] + "_0",
            "letter": "x",
            "unicode": "\u0663",
        }[fault]
    count = draw(often(m, m - 1, m + 1))
    rows = rows[:count] + [rows[-1]] * (count - m)
    lines = [header]
    for row in rows:
        line = draw(often(" ", "  ", "\t", " \t ")).join(row)
        lines.append(draw(often("", " ", "\t")) + line + draw(often("", " ", "\t", " # note")))
    blanks = often("", "  ", "\t", "# comment")
    for at, extra in sorted(draw(st.lists(st.tuples(st.integers(0, len(lines)), blanks))))[::-1]:
        lines.insert(at, extra)
    end = draw(often("\n", "\r\n", "\r"))
    return end.join(lines) + draw(often(end, ""))


# ----------------------------------------------------------------- the parser


@settings(max_examples=500, deadline=None)
@given(text=code_texts(), block=BLOCKS)
def test_parse_equals_reference_on_grammar_texts(text: str, block: int) -> None:
    assert_parses_like_reference(text, block)


@settings(max_examples=300, deadline=None)
@given(
    text=st.text() | st.text(alphabet="0123456789 \t\n\r\x0b\x85#+-_x٣"),
    block=BLOCKS,
)
def test_arbitrary_text_raises_only_code_format_errors(text: str, block: int) -> None:
    assert_parses_like_reference(text, block)


@pytest.mark.parametrize(
    "text",
    [
        "2 2 2\n0 1 1\n0\n",  # wrong token counts that sum to M * n
        "1 1 9223372036854775808\n18446744073709551617\n",  # a symbol that wraps in 64 bits
        "1 1 9223372036854775808\n9223372036854775807\n",  # 19 digits, the largest symbol
        "1 1 18446744073709551617\n0\n",  # q above 2**63
        "2 1 2\r\n0 1\r\n",
        "2 1 2\n0 1 # note\n",
        "2 1 2\n+0 1\n",
        "2 1 2\n0\x0b1\n",  # a vertical tab breaks the line for str.splitlines
        "2 1 2\n\u0660 1\n",  # an Arabic-Indic zero
        "3 1 2\n0 0 0\n1 1 1\n",
        "3 2 2\n0 0 0\n",
        "1 999999999999 2\n0\n",  # far more codewords than the text holds
        "\n\n# only comments\n",
    ],
)
def test_unusual_texts_parse_like_reference(text: str) -> None:
    for block in (1, 4, codes._PARSE_BLOCK):
        assert_parses_like_reference(text, block)


@pytest.mark.parametrize(
    "text",
    [
        "# a code\n\n2 3 100 \n\t07 99\n\n0 0\n1   2  \n",  # comments, blanks, padding
        "1 1 1000000000000000000\n999999999999999999\n",  # 18 digits, the longest kept
        "2 2 2\n0 1\n1 0",  # no final newline
    ],
)
def test_plain_files_parse_on_the_block_path(text: str) -> None:
    expected = ref.parse_code_text(text)
    for block in (1, 4, codes._PARSE_BLOCK):
        with mock.patch.object(codes, "_PARSE_BLOCK", block), block_path_only():
            assert parse_code_text(text) == expected


@st.composite
def one_digit_texts_with_a_long_token(draw) -> str:
    """One-digit tokens, but for one longer token first or last on its line."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    q = draw(st.sampled_from([2, 10, 11, 100, 10**12, 2**63]))
    rows = [[str(draw(st.integers(0, 9))) for _ in range(n)] for _ in range(m)]
    row, at = draw(st.integers(0, m - 1)), draw(st.sampled_from([0, -1]))
    # "07" is one symbol below 10 written in two digits; 18 digits is the longest kept
    rows[row][at] = draw(st.sampled_from(["10", "07", "99", "0" * 17 + "1", str(10**17)]))
    space = draw(st.sampled_from([" ", "\t", "  "]))
    return f"{n} {m} {q}\n" + "\n".join(map(space.join, rows)) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=200, deadline=None)
@given(text=one_digit_texts_with_a_long_token())
def test_a_long_token_among_one_digit_tokens_parses_like_reference(text: str) -> None:
    # with blocks of a few characters every line is a block of its own, so
    # the long token is the first or the last token of its block
    expected = outcome(ref.parse_code_text, text)
    for block in BLOCK_SIZES:
        only = block_path_only() if expected[0] == "code" else nullcontext()
        with mock.patch.object(codes, "_PARSE_BLOCK", block), only:
            assert outcome(parse_code_text, text) == expected


def test_duplicates_on_the_block_path_are_reported_at_the_header() -> None:
    text = "# dup\n2 2 2\n0 1\n0 1\n"
    with block_path_only(), pytest.raises(CodeFormatError, match="duplicate") as err:
        parse_code_text(text)
    assert err.value.line == 2


# ------------------------------------------------------ fixed-width one-digit rows


@st.composite
def one_digit_codes(draw) -> Code:
    """Codes whose symbols are all below 10, including q = 12 codes that use only 0-9."""
    q = draw(st.sampled_from([2, 5, 10, 12]))
    n = draw(st.integers(1, 5))
    symbol = st.integers(0, min(q, 10) - 1)
    words = draw(st.lists(st.tuples(*[symbol] * n), min_size=1, max_size=12, unique=True))
    return Code(n=n, M=len(words), q=q, words=words)


@settings(max_examples=200, deadline=None)
@given(code=one_digit_codes(), comment=st.sampled_from(["", "# a code\n"]))
@example(code=Code(n=1, M=2, q=2, words=[(1,), (0,)]), comment="")  # every cell is "d\n"
@example(code=Code(n=3, M=1000, q=12, words=list(product(range(10), repeat=3))), comment="")
def test_one_digit_codes_are_written_and_read_as_fixed_width_rows(code: Code, comment: str):
    text = ref.format_code_text(code)
    for rows in range(1, min(code.M, 40) + 1):  # blocks of 1 to 40 rows
        with mock.patch.object(codes, "_ITER_BLOCK", rows):
            assert format_code_text(code) == text
    # a comment line before the header moves the rows to the other byte parity
    for block in BLOCK_SIZES:
        with mock.patch.object(codes, "_PARSE_BLOCK", block), row_path_only():
            assert parse_code_text(comment + text) == code


@pytest.mark.parametrize("q", [2, 12, 2**40])
@pytest.mark.parametrize("comment", ["", "# a code\n"])
@pytest.mark.parametrize("pad", ["", " "])  # headers of both lengths mod 2
def test_every_one_byte_change_to_fixed_width_rows_parses_like_reference(q, comment, pad):
    # a bound of q in place of min(q, 10) would read ":" as 10 at q = 12,
    # and "a" after a digit as 0x4100 at q = 2**40
    code = Code(n=3, M=3, q=q, words=[(0, 0, 1), (0, 1, 0), (0, 1, 1)])
    head = f"3 3 {q}\n"
    body = format_code_text(code)[len(head) :]
    for at, byte in product(range(len(body)), " \t\r\n\v0129:/#a"):
        text = comment + head.replace("\n", pad + "\n") + body[:at] + byte + body[at + 1 :]
        for block in (1, codes._PARSE_BLOCK):
            assert_parses_like_reference(text, block)


@pytest.mark.parametrize(
    "text",
    [
        "2 2 2\n0 1\n1 0",  # no final newline: one byte short of fixed-width rows
        "2 2 2\n0  1\n1 0",  # the size of fixed-width rows, but a double space
        "2 2 2\n0\t1\n1 0\n",  # the size of fixed-width rows, but a tab
    ],
)
def test_other_plain_bodies_fall_back_to_the_tokenizer(text: str) -> None:
    with mock.patch.object(codes, "_tokenize", wraps=codes._tokenize) as tokenize:
        with block_path_only():
            assert parse_code_text(text) == ref.parse_code_text(text)
    tokenize.assert_called_once()


# ------------------------------------------------------- format and round trip


@st.composite
def random_codes(draw) -> Code:
    q = draw(st.sampled_from([2, 10, 11, 100, 1000, 2**40]))
    n = draw(st.integers(1, 6))
    symbol = st.one_of(st.integers(0, q - 1), st.sampled_from([0, q - 1]))
    words = draw(st.lists(st.tuples(*[symbol] * n), min_size=1, max_size=40, unique=True))
    return Code(n=n, M=len(words), q=q, words=words)


@settings(max_examples=300, deadline=None)
@given(code=random_codes(), rows=st.sampled_from([1, 3, codes._ITER_BLOCK]), block=BLOCKS)
def test_format_equals_reference_and_round_trips(code: Code, rows: int, block: int) -> None:
    with mock.patch.object(codes, "_ITER_BLOCK", rows):
        text = format_code_text(code)
    assert text == ref.format_code_text(code)
    with mock.patch.object(codes, "_PARSE_BLOCK", block), block_path_only():
        assert parse_code_text(text) == code


@pytest.mark.parametrize(
    "symbols",
    [
        (0, 9),  # names of one width
        (9, 10),  # two widths
        (10, 99),  # two digits each
        (0, 10**12),
        (3, 10**17 + 1),  # sparse: the largest symbol is far above the code's size
        (0, 2**63 - 1),  # 19 digits, parsed back by the line parser
    ],
    ids=lambda symbols: f"{symbols[0]},{symbols[1]}",
)
@pytest.mark.parametrize("n", [2, 6])
def test_format_equals_reference_on_named_alphabets(symbols, n: int) -> None:
    # at n = 6 the code's 384 symbols outnumber the values 0..99, so (0, 9),
    # (9, 10) and (10, 99) are named by value; at n = 2 (8 symbols), and for
    # the wide alphabets, the names are ranked
    code = Code(n=n, M=2**n, q=symbols[-1] + 1, words=list(product(symbols, repeat=n)))
    for rows in (1, 3, codes._ITER_BLOCK):
        with mock.patch.object(codes, "_ITER_BLOCK", rows):
            text = format_code_text(code)
        assert text == ref.format_code_text(code)
    only = block_path_only() if symbols[-1] < 10**18 else nullcontext()
    for block in BLOCK_SIZES:
        with mock.patch.object(codes, "_PARSE_BLOCK", block), only:
            assert parse_code_text(text) == code


def test_composed_q100_code_round_trips_at_full_scale(tmp_path) -> None:
    code = one_hot_compose(build_length3(100, optimal_s(100).s))
    text = format_code_text(code)
    assert text == ref.format_code_text(code)
    path = tmp_path / "q100.code"
    codes.write_code_file(path, code)
    assert path.read_bytes() == text.encode()
    with block_path_only():
        assert parse_code_text(text) == code
        assert codes.read_code_file(path) == code


def test_composed_code_round_trips_in_many_blocks() -> None:
    q_ary = build_length3(20, optimal_s(20).s)
    for code in (q_ary, one_hot_compose(q_ary)):
        text = format_code_text(code)
        assert text == ref.format_code_text(code)
        with mock.patch.object(codes, "_PARSE_BLOCK", 1000), block_path_only():
            assert parse_code_text(text) == code


# --------------------------------------------------------------------- files


@pytest.mark.parametrize(
    "text",
    ["3 2 3\n0 1 2\n2 1 0\n", "3 2 12\n0 11 2\n2 1 0\n", "3 2 3\r\n0 1 2\r\n2 1 0\r\n"],
    ids=["fixed-width rows", "tokens", "lines"],
)
def test_every_parse_path_hands_code_its_rows(text: str) -> None:
    handed = []
    validate = codes._code_array

    def spy(words, n: int, q: int) -> tuple[np.ndarray, np.ndarray | None]:
        handed.append(words)
        return validate(words, n, q)

    with mock.patch.object(codes, "_code_array", spy):
        code = parse_code_text(text)
    assert isinstance(handed[0], codes.Words) and code.array is np.asarray(handed[0])


def test_reading_and_composing_the_q100_code_allocate_its_words_once(tmp_path) -> None:
    q_ary = build_length3(100, optimal_s(100).s)
    code = one_hot_compose(q_ary)
    path = tmp_path / "q100.code"
    codes.write_code_file(path, code)
    for make in (lambda: codes.read_code_file(path), lambda: one_hot_compose(q_ary)):
        tracemalloc.start()
        try:
            made = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert made == code
        # the words (M * n bytes) and validation's packed keys; no second copy
        assert peak <= 2 * code.M * code.n


def file_outcome(raw: bytes):
    """The reference's outcome for a file's bytes: UTF-8 text, then parsed."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[: exc.start].count(b"\n") + 1
        message = f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        return "error", f"line {line}: {message}", line
    return outcome(ref.parse_code_text, text)


FILES = {
    "empty": b"",
    "plain": b"3 2 2\n0 1 0\n1 1 0\n",
    "duplicate": b"3 2 2\n0 1 0\n0 1 0\n",
    "non-UTF-8 byte": b"3 2 2\n0 0 0\n1 1 \xff\n",
    "non-UTF-8 byte after a faulty header": b"3 2\n0 0 \xff\n",
    "UTF-8 comment": "# \u00e9\n3 2 2\n0 1 0\n1 1 0\n".encode(),
    # str.splitlines breaks at U+2028, so the header is on line 2
    "U+2028 before the header": "# note\u2028 3 2 2\n0 1 0\n1 1 0\n".encode(),
    "U+2028 before a duplicate": "# note\u2028 3 2 2\n0 1 0\n0 1 0\n".encode(),
}


def mapped(path: Path) -> bool:
    """Whether ``path`` appears in this process's memory map (Linux only)."""
    return str(path) in Path("/proc/self/maps").read_text()


@pytest.mark.parametrize("raw", FILES.values(), ids=FILES.keys())
def test_code_files_read_like_reference(tmp_path, raw: bytes) -> None:
    path = tmp_path / "code"
    path.write_bytes(raw)
    assert outcome(codes.read_code_file, path) == file_outcome(raw)
    if os.path.exists("/proc/self/maps"):
        assert not mapped(path)  # unmapped after a successful or a failing read


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("raw", FILES.values(), ids=FILES.keys())
def test_code_files_read_from_a_fifo_like_reference(tmp_path, raw: bytes) -> None:
    path = tmp_path / "code"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(raw,), daemon=True)
    writer.start()
    assert outcome(codes.read_code_file, path) == file_outcome(raw)
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_a_code_file_is_mapped_for_the_parse_alone(tmp_path) -> None:
    path = tmp_path / "code"
    path.write_bytes(b"3 2 2\n0 1 0\n1 1 0\n")
    parse, during = codes._parse_blocks, []

    def spy(data):
        during.append(mapped(path))
        return parse(data)

    with mock.patch.object(codes, "_parse_blocks", spy):
        assert codes.read_code_file(path).M == 2
    assert during == [True] and not mapped(path)


# ---------------------------------------------------------------- validation


def validated(check, words, n: int, q: int):
    """The validated array in full with a binary code's limbs, or the ValueError's message."""
    try:
        arr, limbs = check(words, n, q)
    except ValueError as exc:
        return "error", str(exc)
    packed = None if limbs is None else limbs.tolist()
    return "array", arr.dtype, arr.tolist(), arr.flags.writeable, packed


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([2, 3, 256, 2**40]), n=st.integers(1, 17), data=st.data())
def test_validation_equals_reference(q: int, n: int, data) -> None:
    # n up to 17 packs a binary row into up to three bytes
    symbol = st.sampled_from([0, 1, 0, 1, q - 1, -1, q])
    rows = data.draw(st.lists(st.lists(symbol, min_size=n, max_size=n), min_size=1, max_size=8))
    words = np.array(rows, dtype=np.int64)
    assert validated(codes._code_array, words, n, q) == validated(ref.code_array, words, n, q)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 1], [1, 1], [0, 1], [-1, 0]], "duplicate codeword (0, 1)"),
        ([[0, 1], [1, 1], [0, 1], [1, 2]], "duplicate codeword (0, 1)"),
        ([[0, 1], [-1, 0], [0, 1]], "symbol -1 outside alphabet 0..1"),
        ([[0, 1], [1, 0], [2, 0], [0, 1]], "symbol 2 outside alphabet 0..1"),
    ],
)
def test_the_first_faulty_codeword_is_reported(rows, message: str) -> None:
    words = np.array(rows, dtype=np.int64)
    for check in (codes._code_array, ref.code_array):
        assert validated(check, words, 2, 2) == ("error", message)
    with pytest.raises(ValueError) as err:
        Code(n=2, M=len(rows), q=2, words=words)
    assert str(err.value) == message


def constant_keys(columns: np.ndarray) -> np.ndarray:
    """A key function under which every row repeats every other."""
    return np.zeros(columns.shape[1], np.uint64)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([2, 3, 256, 2**40]), n=st.integers(1, 17), data=st.data())
def test_validation_confirms_every_repeated_key_on_the_rows(q: int, n: int, data) -> None:
    symbol = st.sampled_from([0, 1, 0, 1, q - 1, -1, q])
    rows = data.draw(st.lists(st.lists(symbol, min_size=n, max_size=n), min_size=1, max_size=8))
    words = np.array(rows, dtype=np.int64)
    with mock.patch.object(codes, "_row_keys", constant_keys):
        assert validated(codes._code_array, words, n, q) == validated(ref.code_array, words, n, q)


@st.composite
def long_codes(draw) -> tuple[np.ndarray, int, int]:
    """Rows past one 64-bit key: binary n of 65-200, or q-ary with q^n > 2^64;
    drawn from a few base rows, so that repeats and near-repeats are common."""
    q = draw(st.sampled_from([2, 3, 256, 2**40]))
    low = {2: 65, 3: 41, 256: 9, 2**40: 2}[q]
    n = draw(st.integers(low, max(200 if q == 2 else 60, low)))
    base = np.array(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)), np.int64)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = base.copy()
        for at in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            row[at] = draw(st.sampled_from([0, q - 1, q]))
        rows.append(row)
    return np.array(rows), n, q


@settings(max_examples=200, deadline=None)
@given(long_codes())
def test_validation_past_a_64_bit_key_equals_reference(drawn) -> None:
    words, n, q = drawn
    assert validated(codes._code_array, words, n, q) == validated(ref.code_array, words, n, q)


def test_the_q100_codes_validate_without_confirming_a_repeat() -> None:
    q_ary = build_length3(100, optimal_s(100).s)
    for code in (q_ary, one_hot_compose(q_ary)):
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            assert Code(code.n, code.M, code.q, code.words) == code
            assert unique.call_count == 0
            with mock.patch.object(codes, "_row_keys", constant_keys):
                Code(code.n, code.M, code.q, code.words)
            assert unique.call_count == 1  # a constant key is confirmed, once


@pytest.mark.parametrize("build", ["read_code_file", "parse_code_text", "one_hot_compose"])
def test_binary_codes_are_packed_once_by_validation(tmp_path, build: str) -> None:
    source = build_length3(4, 1)
    text = format_code_text(one_hot_compose(source))
    path = tmp_path / "code"
    path.write_text(text)
    make = {
        "read_code_file": lambda: codes.read_code_file(path),
        "parse_code_text": lambda: parse_code_text(text),
        "one_hot_compose": lambda: one_hot_compose(source),
    }[build]
    with mock.patch.object(codes, "pack_bits", wraps=codes.pack_bits) as pack:
        code = make()
        packed = code.packed
        assert pack.call_count == 1 and code.packed is packed
    assert np.array_equal(packed, codes.pack_bits(code.array)) and not packed.flags.writeable
