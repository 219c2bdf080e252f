"""The array tracers against the per-(coordinate, codeword) reference loops
(``reference_trace``).

Reports must agree field by field, evidence order and ``ops`` included, on
random binary codes with arbitrary feasible lines (infeasible ones too,
where both tracers must raise the reference ``ssc_trace``'s error, though
the reference ``lacc_identify`` accuses nobody) and on one-hot compositions
of random length-3 codes with the feasible sets of real coalitions.
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
def composed_cases(draw):
    q = draw(st.integers(2, 4))
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
def test_tracers_equal_reference_on_random_binary_codes(case) -> None:
    assert_tracers_match(*case)


@settings(max_examples=150, deadline=None)
@given(composed_cases())
def test_tracers_equal_reference_on_composed_length3_codes(case) -> None:
    assert_tracers_match(*case)

