"""Reference builder: the per-word orbit loop the array ``build_length3``
replaced.

The body is the library's earlier implementation, kept word for word: it
emits each shift orbit one word at a time, checks every word against the
ones already emitted, and recounts the total against the size formula.
The construction tests require ``sepcode.construct.build_length3`` to
return the same codewords in the same order.
"""

from __future__ import annotations

from sepcode.codes import Code, Word
from sepcode.construct import _validate_family_params, predicted_size


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
