from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    ZERO_PLUS_UNITS,
    ZERO_UNITS_ONES,
    brute_captured,
    brute_descendant_words,
    random_code,
)
from sepcode.construct import build_length3, one_hot_compose
from sepcode.codes import (
    Code,
    CodeFormatError,
    FeasibleSet,
    Words,
    captured_indices,
    desc_intersect_code,
    descendant,
    format_code_text,
    format_feasible_line,
    hamming,
    parse_code_text,
    parse_feasible_line,
    read_code_file,
    shortened,
)


def fs(*sets) -> FeasibleSet:
    return FeasibleSet(tuple(frozenset(s) for s in sets))


# ---------------------------------------------------------------- descendant


def test_descendant_of_complementary_pair_is_full_cube() -> None:
    assert descendant([(0, 0, 0), (1, 1, 1)]) == fs({0, 1}, {0, 1}, {0, 1})


def test_descendant_of_singleton_is_the_word_itself() -> None:
    assert descendant([(0, 1, 2)]) == fs({0}, {1}, {2})


def test_descendant_keeps_shared_coordinate_a_singleton() -> None:
    assert descendant([(0, 0), (0, 1)]) == fs({0}, {0, 1})


def test_descendant_rejects_empty_input() -> None:
    with pytest.raises(ValueError, match="empty codeword set"):
        descendant([])


def test_descendant_rejects_ragged_input() -> None:
    with pytest.raises(ValueError, match="length"):
        descendant([(0, 0), (0, 1, 1)])


def test_descendant_monotone_under_word_set_inclusion() -> None:
    rng = random.Random(5)
    words = [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(6)]
    sub = words[:3]
    small = descendant(sub)
    big = descendant(words)
    for i in range(4):
        assert small[i] <= big[i]


def test_descendant_contains_every_input_word() -> None:
    rng = random.Random(6)
    for _ in range(20):
        code = random_code(rng, n=3, max_m=8, max_q=4)
        feasible = descendant(code.words)
        for w in code.words:
            assert feasible.contains(w)


def test_descendant_member_count_matches_enumeration() -> None:
    feasible = descendant([(0, 0, 0), (1, 1, 0), (2, 0, 0)])
    members = list(feasible.enumerate_members())
    assert len(members) == feasible.member_count() == 3 * 2 * 1
    assert set(members) == brute_descendant_words([(0, 0, 0), (1, 1, 0), (2, 0, 0)])


def test_enumeration_refuses_above_cap() -> None:
    feasible = fs({0, 1}, {0, 1}, {0, 1})
    with pytest.raises(ValueError, match="cap"):
        feasible.enumerate_members(cap=7)


# ---------------------------------------------------- FeasibleSet.contains


def test_feasible_contains_componentwise() -> None:
    feasible = fs({0, 1}, {0, 1}, {0})
    assert feasible.contains((0, 0, 0))
    assert not feasible.contains((0, 0, 1))
    assert fs({0}, {1}).contains((0, 1))


def test_feasible_contains_rejects_length_mismatch() -> None:
    with pytest.raises(ValueError, match="length"):
        fs({0}, {1}).contains((0, 1, 0))


# ------------------------------------------------------- desc_intersect_code


def test_pair_of_units_captures_the_zero_word() -> None:
    # coalition {c2, c3} captures c1 as well
    assert desc_intersect_code(ZERO_PLUS_UNITS, (1, 2)) == frozenset({0, 1, 2})


def test_singleton_coalition_captures_only_itself() -> None:
    for i in range(ZERO_PLUS_UNITS.M):
        assert desc_intersect_code(ZERO_PLUS_UNITS, (i,)) == frozenset({i})


def test_zero_and_ones_capture_the_whole_code() -> None:
    # frozen from the product-enumeration oracle: desc is the full cube
    expected = brute_captured(ZERO_UNITS_ONES, (0, 4))
    assert expected == frozenset(range(5))
    assert desc_intersect_code(ZERO_UNITS_ONES, (0, 4)) == expected


def test_captured_set_always_contains_the_coalition() -> None:
    rng = random.Random(7)
    for _ in range(30):
        code = random_code(rng, n=3, max_m=8, max_q=3)
        size = rng.randint(1, min(3, code.M))
        coalition = tuple(rng.sample(range(code.M), size))
        captured = desc_intersect_code(code, coalition)
        assert frozenset(coalition) <= captured


def test_captured_matches_brute_oracle_on_both_kernel_paths() -> None:
    rng = random.Random(8)
    small = random_code(rng, n=3, max_m=8, max_q=3)
    big = Code.from_words(
        random.Random(9).sample(
            [(a, b, c) for a in range(5) for b in range(5) for c in range(5)], 100
        ),
        q=5,
    )
    for code in (small, big):
        assert captured_indices(code.array, ()) == []
        for _ in range(15):
            size = rng.randint(1, min(3, code.M))
            coalition = tuple(rng.sample(range(code.M), size))
            assert desc_intersect_code(code, coalition) == brute_captured(
                code, coalition
            )


def test_captured_set_is_a_descendant_fixed_point() -> None:
    # desc of the captured set equals desc of the coalition; exhaustive for
    # coalitions of size <= 3 on small codes
    rng = random.Random(10)
    codes = [ZERO_PLUS_UNITS, ZERO_UNITS_ONES] + [
        random_code(rng, n=3, max_m=12, max_q=3) for _ in range(6)
    ]
    for code in codes:
        for r in range(1, min(3, code.M) + 1):
            for coalition in combinations(range(code.M), r):
                captured = desc_intersect_code(code, coalition)
                assert descendant(code.words[i] for i in captured) == descendant(
                    code.words[i] for i in coalition
                )


def test_coalition_index_validation() -> None:
    with pytest.raises(ValueError, match="non-empty"):
        desc_intersect_code(ZERO_PLUS_UNITS, ())
    with pytest.raises(ValueError, match="out of range"):
        desc_intersect_code(ZERO_PLUS_UNITS, (0, 4))


# ------------------------------------------------------------------ shortened


def test_shortened_at_first_position_symbol_zero() -> None:
    # words with 0 first: c1, c3, c4 -> tails (0,0), (1,0), (0,1)
    assert shortened(ZERO_UNITS_ONES, 0, 0) == frozenset(
        {(0, 0), (1, 0), (0, 1)}
    )


def test_shortened_at_first_position_symbol_one() -> None:
    # words with 1 first: c2, c5 -> tails (0,0), (1,1)
    assert shortened(ZERO_UNITS_ONES, 0, 1) == frozenset({(0, 0), (1, 1)})


def test_shortened_with_unused_symbol_is_empty() -> None:
    code = Code.from_words([(0, 0), (0, 1)], q=3)
    assert shortened(code, 0, 2) == frozenset()


def test_shortened_collapses_duplicates() -> None:
    code = Code.from_words([(0, 0, 0), (1, 0, 0)], q=2)
    assert shortened(code, 1, 0) == frozenset({(0, 0), (1, 0)})


def test_shortened_validates_position_and_symbol() -> None:
    with pytest.raises(ValueError, match="position"):
        shortened(ZERO_PLUS_UNITS, 3, 0)
    with pytest.raises(ValueError, match="symbol"):
        shortened(ZERO_PLUS_UNITS, 0, 2)


# -------------------------------------------------------------------- hamming


def test_hamming_distances() -> None:
    assert hamming((0, 0, 0), (1, 1, 1)) == 3
    assert hamming((0, 0, 0), (0, 0, 0)) == 0
    assert hamming((0, 1, 2), (0, 2, 2)) == 1


def test_hamming_rejects_length_mismatch() -> None:
    with pytest.raises(ValueError, match="length"):
        hamming((0, 0), (0, 0, 0))


# --------------------------------------------------------------- Code object


def test_code_rejects_duplicates() -> None:
    with pytest.raises(ValueError, match="duplicate"):
        Code.from_words([(0, 0), (0, 0)], q=2)


def test_code_rejects_out_of_alphabet_symbol() -> None:
    with pytest.raises(ValueError, match="alphabet"):
        Code.from_words([(0, 2)], q=2)


def test_code_rejects_tiny_alphabet_and_empty_input() -> None:
    with pytest.raises(ValueError, match="alphabet size"):
        Code.from_words([(0, 0)], q=1)
    with pytest.raises(ValueError, match="at least one codeword"):
        Code.from_words([])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Code(n=0, M=1, q=2, words=((),)), "code length must be at least 1"),
        (lambda: Code.from_words([()]), "code length must be at least 1"),
        (lambda: Code(n=2, M=0, q=2, words=()), "code must contain at least one codeword"),
        (lambda: Code(n=2, M=3, q=2, words=((0, 0), (0, 1))), "M=3 does not match 2 codewords"),
        (lambda: FeasibleSet(()), "feasible set needs at least one position"),
        (lambda: fs({0}, set()), "empty symbol set at position 1"),
    ],
    ids=["n=0", "empty word", "M=0", "M unequal to the words", "no position", "empty position"],
)
def test_argument_errors(make, message: str) -> None:
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_code_infers_alphabet_from_symbols() -> None:
    code = Code.from_words([(0, 3)])
    assert code.q == 4
    assert Code.from_words([(0, 0)]).q == 2


def test_code_array_is_read_only() -> None:
    code = Code.from_words([(0, 1, 2), (2, 1, 0)], q=3)
    assert code.array.shape == (2, 3) and code.array.dtype == np.uint8
    assert not code.array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        code.array[0, 0] = 1


def test_words_view_reads_like_a_tuple_of_words() -> None:
    words = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    view = ZERO_PLUS_UNITS.words
    assert view == words and words == view
    assert len(view) == 4
    assert view[-1] == (0, 0, 1) and view[-4] == (0, 0, 0)
    assert view[1:3] == words[1:3]
    assert list(view) == list(words)
    assert view != words[:3] and view != words[::-1]
    with pytest.raises(IndexError):
        view[4]


def test_words_convert_to_arrays_without_a_needless_copy() -> None:
    code = Code.from_words([(0, 1, 2), (2, 1, 0)], q=3)
    for dtype in (None, np.uint8, "u1"):
        assert np.asarray(code.words, dtype=dtype) is code.array
        assert np.array(code.words, dtype=dtype, copy=False) is code.array
        copied = np.array(code.words, dtype=dtype, copy=True)
        assert not np.shares_memory(copied, code.array) and copied.tolist() == code.array.tolist()
    assert np.asarray(code.words, dtype=np.int64).tolist() == code.array.tolist()
    with pytest.raises(ValueError, match="copy"):
        np.asarray(code.words, dtype=np.int64, copy=False)


def test_codes_from_words_array_and_view_compare_equal() -> None:
    source = np.array([[0, 3], [2, 1], [1, 1]], dtype=np.uint8)
    by_words = Code.from_words(source.tolist(), q=4)
    by_array = Code(2, 3, 4, source)
    by_view = Code(2, 3, 4, by_words.words)
    assert by_words == by_array == by_view
    assert hash(by_words) == hash(by_array)
    assert by_view.array is by_words.array  # a view's array is shared, not copied
    source[0, 0] = 1  # the caller's array is copied, not kept
    assert by_array.words[0] == (0, 3)
    assert by_words != Code.from_words(source.tolist(), q=4)


def test_code_adopts_words_and_copies_plain_arrays() -> None:
    rows = np.array([[0, 3], [2, 1], [1, 1]], dtype=np.uint8)
    adopted = Code(2, 3, 4, Words(rows))
    assert np.shares_memory(adopted.array, rows) and not rows.flags.writeable
    plain = np.array([[0, 3], [2, 1], [1, 1]], dtype=np.uint8)
    copied = Code(2, 3, 4, plain)
    assert not np.shares_memory(copied.array, plain) and plain.flags.writeable
    assert not copied.array.flags.writeable and copied == adopted
    wide = np.array([[0, 3], [2, 1], [1, 1]], dtype=np.int64)  # another dtype is cast, not adopted
    assert not np.shares_memory(Code(2, 3, 4, Words(wide)).array, wide) and wide.flags.writeable


def test_code_errors_name_the_first_faulty_codeword() -> None:
    cases = [
        (((0, 1), (0, 1, 0)), "codeword (0, 1, 0) does not have length 2"),
        (((0, 1), (0, 1.5)), "symbol 1.5 outside alphabet 0..1"),
        (((0, 1), (0, 2)), "symbol 2 outside alphabet 0..1"),
        (((0, 1), (1, -1)), "symbol -1 outside alphabet 0..1"),
        (((0, 1), (0, 1)), "duplicate codeword (0, 1)"),
        (((0, 1), (1, 0), (0, 5), (1, 0)), "symbol 5 outside alphabet 0..1"),
        (((0, 1), (1, 0), (1, 0), (0, 5)), "duplicate codeword (1, 0)"),
    ]
    for k, (words, message) in enumerate(cases):
        forms = [words] if k < 2 else [words, np.array(words)]
        for form in forms:
            with pytest.raises(ValueError) as err:
                Code(n=2, M=len(words), q=2, words=form)
            assert str(err.value) == message


# ----------------------------------------------------------------- text files


def test_code_text_round_trip() -> None:
    for code in (ZERO_PLUS_UNITS, ZERO_UNITS_ONES):
        assert parse_code_text(format_code_text(code)) == code


def test_code_text_accepts_comments_and_blanks() -> None:
    text = "# a code\n\n3 2 2  # header\n0 0 0\n1 1 1\n"
    code = parse_code_text(text)
    assert code.words == ((0, 0, 0), (1, 1, 1))


def test_code_text_reports_line_numbers() -> None:
    with pytest.raises(CodeFormatError) as err:
        parse_code_text("3 2 2\n0 0 0\n1 1\n")
    assert err.value.line == 3
    with pytest.raises(CodeFormatError) as err:
        parse_code_text("3 2 2\n0 0 0\n1 1 2\n")
    assert err.value.line == 3
    with pytest.raises(CodeFormatError) as err:
        parse_code_text("3 1 2\n0 0 0\n1 1 1\n")
    assert err.value.line == 3
    with pytest.raises(CodeFormatError) as err:
        parse_code_text("3 2\n")
    assert err.value.line == 1
    with pytest.raises(CodeFormatError) as err:
        parse_code_text("999999999999 1 2\n0 1\n")
    assert err.value.line == 2
    for text in ("3 -1 2\n", "3 -1 2\n0 0 0\n1 1 1\n", "0 1 2\n\n", "3 1 1\n0 0 0\n"):
        with pytest.raises(CodeFormatError) as err:
            parse_code_text(text)
        assert err.value.line == 1
    with pytest.raises(CodeFormatError):
        parse_code_text("")


def test_code_text_format_is_fixed() -> None:
    composed = one_hot_compose(build_length3(3, 0))
    assert format_code_text(composed) == (
        "9 9 2\n"
        "1 0 0 1 0 0 1 0 0\n0 1 0 0 1 0 0 1 0\n0 0 1 0 0 1 0 0 1\n"
        "1 0 0 0 1 0 0 0 1\n0 1 0 0 0 1 1 0 0\n0 0 1 1 0 0 0 1 0\n"
        "1 0 0 0 0 1 0 1 0\n0 1 0 1 0 0 0 0 1\n0 0 1 0 1 0 1 0 0\n"
    )
    wide = Code.from_words([(0, 11, 3), (10, 0, 1), (2, 2, 0)], q=12)
    assert format_code_text(wide) == "3 3 12\n0 11 3\n10 0 1\n2 2 0\n"


def test_code_text_duplicate_reported_at_header() -> None:
    with pytest.raises(CodeFormatError, match="duplicate"):
        parse_code_text("2 2 2\n0 1\n0 1\n")


def test_undecodable_code_file_is_reported_on_its_line(tmp_path) -> None:
    path = tmp_path / "bad.code"
    path.write_bytes(b"3 2 2\n0 0 0\n1 1 \xff\n")
    with pytest.raises(CodeFormatError, match="not UTF-8") as err:
        read_code_file(path)
    assert err.value.line == 3


# ------------------------------------------------------------- feasible lines


def test_feasible_line_round_trip_contiguous_and_spaced() -> None:
    feasible = fs({0, 1}, {0, 1}, {0})
    assert format_feasible_line(feasible) == "**0"
    assert parse_feasible_line("**0") == feasible
    assert parse_feasible_line("* * 0") == feasible


def test_feasible_line_rejects_bad_tokens() -> None:
    with pytest.raises(ValueError, match="token"):
        parse_feasible_line("01x")
    for line in ("0 01 *", "1* 0"):
        with pytest.raises(ValueError, match="invalid feasible-set token"):
            parse_feasible_line(line)
    with pytest.raises(ValueError, match="empty"):
        parse_feasible_line("   ")


def test_feasible_line_formatting_rejects_non_binary() -> None:
    with pytest.raises(ValueError, match="not binary"):
        format_feasible_line(fs({0, 2}))
