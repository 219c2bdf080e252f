"""The array tracers against the per-(coordinate, codeword) reference loops
(``reference_trace``).

Reports must agree field by field, evidence order and ``ops`` included, on
random binary codes with arbitrary feasible lines (infeasible ones too,
where both tracers must raise the reference ``ssc_trace``'s error, though
the reference ``lacc_identify`` accuses nobody) and on one-hot compositions
of random length-3 codes with the feasible sets of real coalitions.  The
wide cases straddle the 64-bit limbs and the 8-bit bytes of the packed
words, whose padding must never decide a candidate.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_trace as ref
from sepcode import trace
from sepcode.codes import Code, FeasibleSet
from sepcode.construct import one_hot_compose

TOKENS = {"0": frozenset({0}), "1": frozenset({1}), "*": frozenset({0, 1})}
INFEASIBLE = ("error", "infeasible R: no codeword matches every pinned coordinate")
# code lengths around the byte and limb edges of the packed words
WIDTHS = (1, 7, 8, 63, 64, 65, 127, 128, 130)


def outcome(tracer, code: Code, feasible: FeasibleSet, t: int):
    try:
        report = tracer(code, feasible, t)
    except ValueError as exc:
        return ("error", str(exc))
    return (
        report.colluders,
        report.candidates,
        report.evidence,
        report.ops,
        report.overflow,
    )


def assert_tracers_match(code: Code, feasible: FeasibleSet, t: int) -> None:
    for name in ("lacc_identify", "ssc_trace"):
        expected = outcome(getattr(ref, name), code, feasible, t)
        if expected[1] == frozenset():  # no candidate: the reference lacc accuses nobody
            expected = INFEASIBLE
        assert outcome(getattr(trace, name), code, feasible, t) == expected


@st.composite
def binary_cases(draw):
    n = draw(st.integers(1, 8))
    words = draw(
        st.lists(
            st.tuples(*[st.integers(0, 1)] * n),
            min_size=1,
            max_size=min(16, 2**n),
            unique=True,
        )
    )
    line = draw(st.lists(st.sampled_from(sorted(TOKENS)), min_size=n, max_size=n))
    feasible = FeasibleSet(tuple(TOKENS[tok] for tok in line))
    return Code.from_words(words, q=2), feasible, draw(st.integers(1, 3))


@st.composite
def wide_binary_cases(draw):
    """A code of a width at a byte or limb edge, M <= 40 not a multiple of 8,
    with an arbitrary line or a coalition's descendant with a few positions
    redrawn, often at an edge."""
    n = draw(st.sampled_from(WIDTHS))
    m = draw(st.integers(1, min(40, 2**n)).filter(lambda m: m % 8))
    keys = draw(st.lists(st.integers(0, 2**n - 1), min_size=m, max_size=m, unique=True))
    code = Code.from_words([[(k >> j) & 1 for j in range(n)] for k in keys], q=2)
    tokens = st.sampled_from(sorted(TOKENS))
    if draw(st.booleans()):
        line = draw(st.lists(tokens, min_size=n, max_size=n))
    else:
        members = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True))
        line = list(trace.coalition_feasible_set(code, members).positions)
        line = ["*" if len(allowed) == 2 else str(min(allowed)) for allowed in line]
        edges = sorted({j for j in (0, 7, 8, 62, 63, 64, 65, 127, 128, n - 1) if j < n})
        position = st.one_of(st.integers(0, n - 1), st.sampled_from(edges))
        for j in draw(st.lists(position, max_size=4)):
            line[j] = draw(tokens)
    feasible = FeasibleSet(tuple(TOKENS[tok] for tok in line))
    return code, feasible, draw(st.integers(1, 3))


def last_bit_case(n: int):
    """Two words differing only at the last position, traced from the first."""
    code = Code.from_words([(0,) * n, (0,) * (n - 1) + (1,)], q=2)
    return code, trace.coalition_feasible_set(code, [0]), 1


@st.composite
def composed_cases(draw, max_q: int = 4):
    q = draw(st.integers(2, max_q))
    words = draw(
        st.lists(
            st.tuples(*[st.integers(0, q - 1)] * 3),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    code = one_hot_compose(Code.from_words(words, q=q))
    size = draw(st.integers(1, min(3, code.M)))
    members = st.integers(0, code.M - 1)
    coalition = draw(st.lists(members, min_size=size, max_size=size, unique=True))
    return code, trace.coalition_feasible_set(code, coalition), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(binary_cases())
@example(  # no codeword matches both pins: both tracers raise
    (Code.from_words([(0, 0), (1, 1)], q=2), FeasibleSet((TOKENS["0"], TOKENS["1"])), 2)
)
@example(  # a lone candidate: each position gives one triple, for its own bit
    (Code.from_words([(0, 1, 1), (1, 0, 1)], q=2), FeasibleSet(tuple(map(TOKENS.get, "0**"))), 1)
)
@example(  # two candidates split position 0: its bit-1 triple, then its bit-0 triple
    (Code.from_words([(0, 1), (1, 1)], q=2), FeasibleSet(tuple(map(TOKENS.get, "**"))), 2)
)
def test_tracers_equal_reference_on_random_binary_codes(case) -> None:
    assert_tracers_match(*case)


@settings(max_examples=150, deadline=None)
@given(composed_cases())
def test_tracers_equal_reference_on_composed_length3_codes(case) -> None:
    assert_tracers_match(*case)


@settings(max_examples=300, deadline=None)
@given(wide_binary_cases())
@example(last_bit_case(65))  # the pin that decides lies alone in the last limb
@example(last_bit_case(130))
def test_tracers_equal_reference_across_limb_edges(case) -> None:
    assert_tracers_match(*case)


# q = 24: n = 72 spans two limbs, and word 1 carries a 1 at position 69
WIDE_COMPOSED = one_hot_compose(Code.from_words([(0, 0, 0), (23, 22, 21), (5, 23, 0)], q=24))


@settings(max_examples=100, deadline=None)
@given(composed_cases(max_q=24))
@example((WIDE_COMPOSED, trace.coalition_feasible_set(WIDE_COMPOSED, [1, 2]), 2))
def test_tracers_equal_reference_on_wide_composed_codes(case) -> None:
    assert_tracers_match(*case)
