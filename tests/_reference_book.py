"""The row-by-row book parser that the columnar one replaced, kept as the
reference the tests hold ``tickphys.parse_book`` to.

Each row is split with ``str.split``, each price goes through
``Fraction(Decimal(cell))`` and each snapshot becomes a ``BookSnapshot``.
``imbalance`` is the per-snapshot imbalance loop that the columnar
``imbalance_series`` replaced.  ``book_of`` turns such rows into a ``Book``, ``snapshots`` turns a
``Book`` back into rows, and ``assert_same_columns`` checks a ``Book``
against rows.  ``book_texts`` draws valid book files for the properties.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from tickphys import (
    Book,
    BookSnapshot,
    CrossedBook,
    LadderOrderViolation,
    MalformedRow,
    NonMonotonicTime,
    TickSizeViolation,
)
from tickphys.market_data import _BOOK_HEADER, _parse_tick_size


def _to_ticks(text: str, tick_size: Fraction, lineno: int) -> int:
    try:
        price = Fraction(Decimal(text))
    except (InvalidOperation, ValueError):
        raise MalformedRow(lineno, f"bad price {text!r}")
    ratio = price / tick_size
    if ratio.denominator != 1:
        raise TickSizeViolation(lineno, f"price {text} is not a multiple of the tick size")
    return int(ratio)


def parse_book(text: str, depth: int | None = None) -> tuple[list[BookSnapshot], Decimal, int]:
    """Parse a book CSV into snapshots.

    ``depth``, when given, must match the header's declared depth.  Returns
    ``(snapshots, tick_size, depth)``.
    """
    lines = text.splitlines()
    if not lines:
        raise MalformedRow(1, "missing book header")
    m = _BOOK_HEADER.match(lines[0])
    if not m:
        raise MalformedRow(1, "missing 'tick_size=... depth=...' header")
    tick_frac, tick_dec = _parse_tick_size(m.group(1), 1)
    file_depth = int(m.group(2))
    if file_depth < 1:
        raise MalformedRow(1, "depth must be >= 1")
    if depth is not None and depth != file_depth:
        raise MalformedRow(1, f"requested depth {depth} but file declares {file_depth}")

    snaps: list[BookSnapshot] = []
    prev_ts = -1
    n_fields = 2 + 4 * file_depth
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != n_fields:
            raise MalformedRow(lineno, f"expected {n_fields} fields, got {len(parts)}")
        try:
            ts = int(parts[0])
            tcd = int(parts[1])
        except ValueError:
            raise MalformedRow(lineno, "bad integer field")
        if ts <= 0:
            raise MalformedRow(lineno, "timestamp must be positive")
        if tcd < 0:
            raise MalformedRow(lineno, "trade_count_delta must be non-negative")
        if ts < prev_ts:
            raise NonMonotonicTime(lineno, "timestamps must be non-decreasing")
        prev_ts = ts

        def read_side(offset: int) -> tuple:
            levels = []
            ended = False
            for lvl in range(file_depth):
                px_text = parts[offset + 2 * lvl]
                vol_text = parts[offset + 2 * lvl + 1]
                if px_text == "" and vol_text == "":
                    ended = True
                    continue
                if ended:
                    raise MalformedRow(lineno, "non-contiguous book levels")
                if px_text == "" or vol_text == "":
                    raise MalformedRow(lineno, "price/volume must be both present or both empty")
                try:
                    vol_i = int(vol_text)
                except ValueError:
                    raise MalformedRow(lineno, "bad volume field")
                if vol_i <= 0:
                    raise MalformedRow(lineno, "level volume must be positive")
                levels.append((_to_ticks(px_text, tick_frac, lineno), vol_i))
            return tuple(levels)

        bids = read_side(2)
        asks = read_side(2 + 2 * file_depth)
        bid_px = [p for p, _ in bids]
        ask_px = [p for p, _ in asks]
        if any(b >= a for a, b in zip(bid_px, bid_px[1:])):
            raise LadderOrderViolation(lineno, "bid prices must be strictly decreasing")
        if any(b <= a for a, b in zip(ask_px, ask_px[1:])):
            raise LadderOrderViolation(lineno, "ask prices must be strictly increasing")
        if bids and asks and bids[0][0] >= asks[0][0]:
            raise CrossedBook(lineno, "best bid is at or above best ask")
        snaps.append(BookSnapshot(ts, tcd, bids, asks))
    return snaps, tick_dec, file_depth


def book_of(snaps, depth: int = 1) -> Book:
    """Columns of BookSnapshot rows, at least ``depth`` levels wide."""
    depth = max([depth] + [len(side) for s in snaps for side in (s.bids, s.asks)])
    levels = np.zeros((len(snaps), 2, depth, 2), np.int64)
    for i, s in enumerate(snaps):
        for k, side in enumerate((s.bids, s.asks)):
            if side:
                levels[i, k, : len(side)] = side
    ts = np.array([s.timestamp_ns for s in snaps], np.int64)
    tcd = np.array([s.trade_count_delta for s in snaps], np.int64)
    return Book(ts, tcd, *levels.transpose(1, 3, 0, 2).reshape(4, len(snaps), depth))


def snapshots(book) -> list[BookSnapshot]:
    """The rows of a ``Book`` as snapshots, empty levels dropped."""
    out = []
    for i in range(len(book)):
        sides = []
        for px, vol in ((book.bid_px, book.bid_vol), (book.ask_px, book.ask_vol)):
            sides.append(tuple((int(p), int(v)) for p, v in zip(px[i], vol[i]) if v))
        out.append(
            BookSnapshot(int(book.timestamps_ns[i]), int(book.trade_count_delta[i]), *sides)
        )
    return out


def assert_same_columns(book, snaps, depth: int) -> None:
    """``book`` holds exactly the rows ``snaps`` as int64 columns with
    ``depth`` levels, empty levels zero."""
    expected = book_of(snaps, depth)
    for name in ("timestamps_ns", "trade_count_delta", "bid_px", "bid_vol", "ask_px", "ask_vol"):
        got, want = getattr(book, name), getattr(expected, name)
        assert got.dtype == np.int64, name
        assert got.shape == want.shape and np.array_equal(got, want), name


def imbalance(snaps, depth: int) -> list[float]:
    """Per-snapshot imbalance with Python integer sums."""
    out = []
    for snap in snaps:
        bid = sum(v for _, v in snap.bids[:depth])
        ask = sum(v for _, v in snap.asks[:depth])
        out.append((bid - ask) / (bid + ask))
    return out


@st.composite
def book_texts(draw, min_rows=0, max_volume=10**9):
    """Valid book files over several tick sizes: short and empty sides,
    negative prices, trailing zeros or none, blank and whitespace-only
    lines, and \\n or \\r\\n endings.  Level volumes lie in [1, max_volume]."""
    tick =Decimal(draw(st.sampled_from(["0.5", "0.25", "0.01", "0.0001"])))
    depth = draw(st.integers(1, 4))
    lines = [f"# tick_size={tick} depth={depth}"]
    ts = 0
    for _ in range(draw(st.integers(min_rows, 12))):
        ts += draw(st.sampled_from([0, 1, 10**9, 10**17]))  # ties allowed
        mid = draw(st.integers(-(10**6), 10**6))
        cells = [str(ts + 1), str(draw(st.integers(0, 3)))]
        for sign in (-1, 1):
            n = draw(st.integers(0, depth))
            px = mid + sign * np.cumsum(draw(st.lists(st.integers(1, 40), min_size=n, max_size=n)))
            for level in range(depth):
                if level < n:
                    value = Decimal(int(px[level])) * tick
                    value = value.normalize() if draw(st.booleans()) else value
                    cells += [format(value, "f"), str(draw(st.integers(1, max_volume)))]
                else:
                    cells += ["", ""]
        lines += draw(st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=1))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))
