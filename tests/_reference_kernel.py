"""The byte kernel of the columnar readers as it was before it counted
digits and dots in its Horner pass and checked field counts by comma
stride, kept as the reference the tests hold ``market_data._number`` and
``market_data._blocks`` to.

``_number`` classifies each cell by summing a per-byte weight table over
its bytes, and ``_blocks`` counts every row's commas with two
``searchsorted`` calls.
"""

from __future__ import annotations

import numpy as np

from tickphys import MalformedRow

_BLOCK_LINES = 1 << 13
_I64_MAX = np.iinfo(np.int64).max
# Per byte, a weight whose sum over a cell counts dots, 32 x minus signs and
# 1024 x bytes no cell may hold; "," and "\\n", which pad short cells, weigh 0.
_WEIGHT = np.full(256, 1024, np.int32)
_WEIGHT[[10, 44, *range(48, 58)]], _WEIGHT[46], _WEIGHT[45] = 0, 1, 32


def _number(blk, s, e):
    """``(value, frac, ok)`` of the cells ``blk[s:e]``: a cell of the grammar
    ``-?digits(.digits)?`` with at most 19 digits is exactly
    value * 10**-frac, and ok is False for any other cell and beyond int64."""
    shape, s, e = s.shape, s.ravel(), e.ravel()
    width = int(np.clip((e - s).max(), 1, 21))  # a sign, 19 digits and a dot
    # row j: byte j of each cell right-aligned, the separator before it as padding
    b = blk[np.maximum(e - width + np.arange(width)[:, None], s - 1)]
    mant = np.zeros(s.size, np.uint64)  # 19 digits fit in uint64
    frac = np.zeros(s.size, np.int64)  # digits after the dot; ok is False for 2 dots
    for j, row in enumerate(b):
        digit = row - np.uint8(48)  # other bytes wrap to 10 and above
        mant = np.where(digit < 10, mant * 10 + digit, mant)
        frac[row == 46] = width - 1 - j
    weight, neg = _WEIGHT[b].sum(0), blk[s] == 45
    dots, digits = weight & 31, e - s - neg - (weight & 31)
    ok = (weight >> 5 == neg) & (dots <= 1) & ((dots == 0) | (frac > 0)) & (frac < digits)
    ok &= (digits <= 19) & (mant <= np.uint64(_I64_MAX) + neg)
    value = np.where(neg, -mant.astype(np.int64), mant.astype(np.int64))
    return value.reshape(shape), frac.reshape(shape), ok.reshape(shape)


def _blocks(text: str, n_fields: int, comments: list | None = None):
    """Yield ``(lineno, blk, s, e)`` per block of the non-blank rows after the
    header, cell j of row i being ``blk[s[i, j]:e[i, j]]``.  A row without
    ``n_fields`` fields raises after the rows before it, which may hold an
    earlier error, are yielded.

    Given a list ``comments``, there is no header: rows start at line 1, and
    a line whose first byte is "#" is not a row but is appended to the list
    as ``(lineno, line)``.  Text is UTF-8 encoded, so a cell's bytes decode
    back to its exact text.
    """
    buf = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    ends = np.flatnonzero(buf == 10)
    if buf.size and buf[-1] != 10:
        ends = np.append(ends, buf.size)  # a last line without "\n"
    for first in range(1 if comments is None else 0, ends.size, _BLOCK_LINES):
        lo, e = ends[first - 1] + 1 if first else 0, ends[first : first + _BLOCK_LINES]
        blk, e = buf[lo : e[-1] + 1], e - lo
        if blk.size == e[-1]:  # "\n" ends every block: it pads the first cell
            blk = np.append(blk, np.uint8(10))
        s = np.concatenate(([0], e[:-1] + 1))
        e -= (e > s) & (blk[e - 1] == 13)  # \r\n ends a line as \n does
        blank = np.flatnonzero((blk == 32) | (blk == 9) | (blk == 13))
        ink = np.searchsorted(blank, e) - np.searchsorted(blank, s) < e - s
        commas = np.flatnonzero(blk == 44)
        if comments is not None and (note := ink & (blk[s] == 35)).any():
            for k in np.flatnonzero(note).tolist():
                comments.append((k + first + 1, blk[s[k] : e[k]].tobytes().decode("utf-8", "surrogatepass")))
            commas = commas[~note[np.searchsorted(s, commas, side="right") - 1]]
            ink &= ~note
        lineno, s, e = np.flatnonzero(ink) + first + 1, s[ink], e[ink]
        got = np.searchsorted(commas, e) - np.searchsorted(commas, s) + 1
        wrong = np.flatnonzero(got != n_fields)
        n = int(wrong[0]) if wrong.size else e.size
        if n:
            cut = commas[: n * (n_fields - 1)].reshape(n, n_fields - 1)
            yield lineno[:n], blk, np.column_stack((s[:n], cut + 1)), np.column_stack((cut, e[:n]))
        if wrong.size:
            raise MalformedRow(int(lineno[n]), f"expected {n_fields} fields, got {got[n]}")
