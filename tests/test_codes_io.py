"""The code-file text format against its reference (``reference_codes``).

``parse_code_text`` tokenizes plain files in numpy blocks and hands every
other text to the line parser; these tests require it to give the
reference's Code, or the reference's CodeFormatError message on the same
line, for texts drawn from a grammar of valid and faulty files and for
arbitrary text.  Block sizes of a few characters cut the text mid-file.
``format_code_text`` must reproduce the reference byte for byte, and its
output must parse back on the block path alone.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codes as ref
from sepcode import codes
from sepcode.codes import Code, CodeFormatError, format_code_text, parse_code_text
from sepcode.construct import build_length3, one_hot_compose, optimal_s

BLOCKS = st.sampled_from([1, 2, 3, 5, 8, 13, codes._PARSE_BLOCK])


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


def test_duplicates_on_the_block_path_are_reported_at_the_header() -> None:
    text = "# dup\n2 2 2\n0 1\n0 1\n"
    with block_path_only(), pytest.raises(CodeFormatError, match="duplicate") as err:
        parse_code_text(text)
    assert err.value.line == 2


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


def test_composed_code_round_trips_in_many_blocks() -> None:
    q_ary = build_length3(20, optimal_s(20).s)
    for code in (q_ary, one_hot_compose(q_ary)):
        text = format_code_text(code)
        assert text == ref.format_code_text(code)
        with mock.patch.object(codes, "_PARSE_BLOCK", 1000), block_path_only():
            assert parse_code_text(text) == code
