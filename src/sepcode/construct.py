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

from .codes import Code, Words

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
    the residues.  Every base column (marker matrices first, columns
    ascending) is shifted by every residue ascending, markers held fixed,
    which fixes the codeword indexing; ``Code`` checks the orbits disjoint.
    Marker i is the symbol base + i, at the top of 0..q-1.
    """
    M = predicted_size(q, s)
    base = q - s
    i, j = np.arange(s), np.arange(base)
    marker, zero = base + i, np.zeros_like(i)
    markers = np.stack([marker, zero, i, i, marker, zero, zero, i, marker], 1)
    arithmetic = np.stack([0 * j, j, 2 * j % base], 1)
    columns = np.concatenate([markers.reshape(-1, 3), arithmetic])[:, None]
    shifted = (columns + j[:, None]) % base
    words = np.where(columns >= base, columns, shifted).reshape(-1, 3)
    return Code(n=3, M=M, q=q, words=words)


def one_hot_compose(code: Code) -> Code:
    """Binary code of length n*q from a q-ary code, one block per position.

    Symbol i maps to the q-bit unit vector with the 1 in slot i, so block j
    of an output word decodes position j of the input word.  The codeword
    count is preserved, and a strongly t-separable input yields a strongly
    t-separable output.
    """
    bits = np.eye(code.q, dtype=np.uint8)[code.array].reshape(code.M, code.n * code.q)
    return Code(n=code.n * code.q, M=code.M, q=2, words=Words(bits))


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
