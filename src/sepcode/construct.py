"""Builders for strongly separable codes.

Two routes are provided.  ``build_length3`` produces a length-3 code over a
q-letter alphabet with q^2 + s*q - 2*s^2 codewords by adjoining s absorbing
markers to the residues mod (q - s) and orbiting small base matrices under
residue shifts; every valid (q, s) yields a strongly 2-separable code.
``one_hot_compose`` turns any q-ary code into a binary one of length n*q by
one-hot encoding each symbol, preserving strong separability.  ``optimal_s``
picks the marker count that maximizes the length-3 family size for a given
alphabet, keyed by the residue of q modulo 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import Code, Word

# numerator offset of the size-maximizing s = (q + offset) / 4, by q mod 8
_S_OFFSET = {0: -4, 1: -1, 2: 2, 3: -3, 4: 0, 5: 3, 6: -2, 7: 1}


@dataclass(frozen=True)
class ConstructionPlan:
    """Chosen parameters for the length-3 family at alphabet size q.

    ``m`` is q mod 8 and ``w`` the size defect: the family reaches
    (9*q^2 - w^2) / 8 codewords, exactly 9/8 of q^2 when w = 0.
    """

    q: int
    s: int
    m: int
    w: int
    predicted_M: int


def _validate_family_params(q: int, s: int) -> None:
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    if s < 0 or 2 * s > q:
        raise ValueError("s out of range: need 0 <= s <= q/2")
    if (q - s) % 2 == 0:
        raise ValueError("q - s must be odd")


def predicted_size(q: int, s: int) -> int:
    """Size of the length-3 family: q^2 + s*q - 2*s^2."""
    _validate_family_params(q, s)
    return q * q + s * q - 2 * s * s


def build_length3(q: int, s: int) -> Code:
    """Length-3 strongly 2-separable code with q^2 + s*q - 2*s^2 codewords.

    Over the mixed alphabet of s markers plus the residues mod (q - s), the
    code is the union of the shift orbits of s + 1 base matrices: for each
    marker index i, a 3x3 matrix cycling (marker_i, 0, i) through the three
    positions, and last an arithmetic matrix with columns (0, j, 2j) over
    the residues.  Orbits are emitted marker matrices first, base columns
    ascending, shifts ascending, which fixes the codeword indexing.  Marker
    i is the symbol base + i, at the top of 0..q-1.
    """
    _validate_family_params(q, s)
    base = q - s
    words: list[Word] = []
    seen: set[Word] = set()

    def emit_orbit(column: Word) -> None:
        for g in range(base):
            # residues shift mod base; markers (base + i) absorb the shift
            word = tuple(sym if sym >= base else (sym + g) % base for sym in column)
            if word in seen:
                # the orbit counting argument rules this out; fail loudly
                raise ValueError(f"orbit collision at {word} for (q={q}, s={s})")
            seen.add(word)
            words.append(word)

    for i in range(s):
        marker = base + i
        emit_orbit((marker, 0, i))
        emit_orbit((i, marker, 0))
        emit_orbit((0, i, marker))
    for j in range(base):
        emit_orbit((0, j, 2 * j % base))

    expected = predicted_size(q, s)
    if len(words) != expected:
        raise ValueError(
            f"construction produced {len(words)} codewords, expected {expected}"
        )
    return Code(n=3, M=expected, q=q, words=words)


def one_hot_compose(code: Code) -> Code:
    """Binary code of length n*q from a q-ary code, one block per position.

    Symbol i maps to the q-bit unit vector with the 1 in slot i, so block j
    of an output word decodes position j of the input word.  The codeword
    count is preserved, and a strongly t-separable input yields a strongly
    t-separable output.
    """
    bits = np.eye(code.q, dtype=np.uint8)[code.array].reshape(code.M, code.n * code.q)
    return Code(n=code.n * code.q, M=code.M, q=2, words=bits)


def size_defect(q: int) -> int:
    """The defect w in the best family size (9*q^2 - w^2) / 8, from q mod 8."""
    m = q % 8
    return 4 - m if m % 4 == 0 else min(m, 8 - m)


def optimal_s(q: int) -> ConstructionPlan:
    """Marker count maximizing the length-3 family size for alphabet size q.

    Keyed by m = q mod 8; the returned s attains the maximum of
    q^2 + s*q - 2*s^2 over all s with 0 <= s <= q/2 and q - s odd.
    """
    if q < 4:
        raise ValueError("q must be at least 4")
    m = q % 8
    s = (q + _S_OFFSET[m]) // 4
    w = size_defect(q)
    predicted = (9 * q * q - w * w) // 8
    assert predicted == predicted_size(q, s)
    return ConstructionPlan(q=q, s=s, m=m, w=w, predicted_M=predicted)
