"""Reference code-file text format: the per-token parser and per-row
formatter the numpy block paths replaced.

Each body is the library's earlier implementation, kept word for word:
``str.splitlines`` over the whole text and one ``int`` call per token, and
one ``str.join`` per codeword.  The equivalence tests require
``sepcode.codes.parse_code_text`` to return an equal Code or raise the same
CodeFormatError message on the same line, and ``format_code_text`` to
return the same text.
"""

from __future__ import annotations

import numpy as np

from sepcode.codes import _ITER_BLOCK, Code, CodeFormatError, _symbol_dtype


def parse_code_text(text: str) -> Code:
    """Parse the code text format, raising CodeFormatError with a line number."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            rows.append((lineno, content))
    if not rows:
        raise CodeFormatError('missing header line "n M q"', line=1)
    head_line, head = rows[0][0], rows[0][1].split()
    if len(head) != 3:
        raise CodeFormatError('header must hold three integers "n M q"', head_line)
    try:
        n, m, q = (int(tok) for tok in head)
    except ValueError:
        raise CodeFormatError('header must hold three integers "n M q"', head_line) from None
    if n < 1 or m < 1 or q < 2:
        raise CodeFormatError("header needs n >= 1, M >= 1 and q >= 2", head_line)
    body = rows[1:]
    if len(body) > m:
        raise CodeFormatError(f"expected {m} codeword lines, found more", body[m][0])
    if len(body) < m:
        raise CodeFormatError(
            f"expected {m} codeword lines, found {len(body)}",
            body[-1][0] if body else head_line,
        )
    try:
        words = np.empty((m, n), dtype=_symbol_dtype(q))
    except ValueError as exc:
        raise CodeFormatError(str(exc), head_line) from None
    for row, (lineno, content) in enumerate(body):
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
        words[row] = w
    try:
        return Code(n=n, M=m, q=q, words=words)
    except ValueError as exc:
        raise CodeFormatError(str(exc), head_line) from None


def format_code_text(code: Code) -> str:
    lines = [f"{code.n} {code.M} {code.q}"]
    names = {sym: str(sym) for sym in np.unique(code.array).tolist()}
    for start in range(0, code.M, _ITER_BLOCK):
        rows = code.array[start : start + _ITER_BLOCK].tolist()
        lines.extend(" ".join(map(names.__getitem__, w)) for w in rows)
    return "\n".join(lines) + "\n"
