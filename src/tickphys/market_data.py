"""Tick and order-book ingestion.

Prices live on an integer tick grid from the moment a file is parsed:
every decimal price must be an exact multiple of the file's tick size,
and all downstream comparisons against target levels are integer-exact.
Timestamps are integer nanoseconds and must be non-decreasing (ties are
allowed).  Parsed values are never mutated afterwards.

File layouts
------------
Tick CSV:      ``# tick_size=<decimal>`` then rows ``timestamp_ns,price,kind,volume``
Book CSV:      ``# tick_size=<decimal> depth=<N>`` then rows
               ``timestamp_ns,trade_count_delta,bid_px_1,bid_vol_1,...,ask_px_N,ask_vol_N``
               (deeper unused levels are empty fields)
Regular CSV:   rows ``timestamp_ns,value`` followed by a
               ``# session_boundaries=i1;i2;...`` footer comment

Every reader returns columns, never a Python object per row: a tick file
is ``Ticks`` (one day), a book file a ``Book`` (no day structure) and a
regular CSV a ``RegularSeries``.  ``Ticks``, ``RegularSeries`` and
``obrelax.ImbalanceSeries`` index their days alike: ``session_boundaries``
holds the offsets of the days' first rows, sorted, unique, from 0 and at
most the row count.  ``sessionize`` splits ticks into days by a trading
session, and ``resample`` puts each day on a regular grid in ticks.  A
tick size is a finite positive decimal that some nonzero price of at most
19 digits is an int64 count of; any other is a bad header.

Each reader takes a file's bytes, a str as its UTF-8 encoding, or an
iterable of byte chunks cut anywhere, and reads them chunk by chunk
(bytes in slices of ``_CHUNK_BYTES``).  It decodes only a header, the
comments and the cells that ``float()`` reads: one that is not UTF-8 is
a ``MalformedRow`` at its line.  One kernel cuts the chunks
into blocks of lines, and each block into cells by its commas, checking
field counts by comma stride.  The
cells of a column, or of a book's price or volume levels together, are
read in one Horner pass over their bytes, right-aligned to the widest of
them (at most 21 bytes), that also counts each cell's digits and dots: a
cell is a number of the grammar below only if these and a leading minus
are all of its bytes.  Lines end in ``\n`` or ``\r\n`` (a lone ``\r`` and
the other breaks of ``str.splitlines`` do not end a line); lines of
spaces, tabs and ``\r`` are skipped, keeping their numbers.

In tick and book files every number, and in a regular CSV every
timestamp, is ASCII ``-?digits(.digits)?`` with at most 19 digits, read
exactly as integers and ticks that fit int64 (no exponent, "+", "_",
spaces or bare dot); a timestamp has no dot.

In a regular CSV a line whose first character is ``#`` is a comment, and
the last comment ``#<spaces>session_boundaries=<list>`` gives the day
starts: ``;``-separated ``int()`` literals, empty items skipped.  A value
cell is any ``float()`` literal, as Python reads it.  A value of the
kernel's grammar whose mantissa is below 2**53 is |mantissa| / 10**frac,
both operands exact in float64, so that one correctly rounded division
gives float(cell) bit for bit (Clinger 1990).  Every other value
(exponents, 16 to 19 significant digits, "1_0", " 1.5", "+1", "nan") is
read by Python's ``float()`` from its text.  Errors come in this order,
each a ``MalformedRow`` at its line: the first row with a wrong field
count, a timestamp outside the grammar or a value that ``float()``
rejects; the first row off the grid ts0 + k * interval or with a
non-finite value; then a comment that is not UTF-8 or a bad footer (not
integers, or not sorted, unique, from 0 and within the rows).
"""

from __future__ import annotations

import datetime as dt
import itertools
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from zoneinfo import ZoneInfo

import numpy as np

from .errors import (
    CrossedBook,
    EmptyDay,
    LadderOrderViolation,
    MalformedRow,
    NonMonotonicTime,
    TickSizeViolation,
)

__all__ = [
    "Ticks",
    "BookSnapshot",
    "Book",
    "Session",
    "RegularSeries",
    "parse_ticks",
    "parse_book",
    "serialize_book",
    "sessionize",
    "resample",
    "serialize_regular_series",
    "parse_regular_series",
]

NS_PER_S = 1_000_000_000
_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_MICROSECOND = dt.timedelta(microseconds=1)


def wall_seconds(delta_ns: np.ndarray) -> np.ndarray:
    """Nanosecond spans as whole seconds, rounded up and never below one,
    so a same-second exit still takes time."""
    return np.maximum((delta_ns + NS_PER_S - 1) // NS_PER_S, 1)


# ---------------------------------------------------------------------- types


@dataclass(frozen=True)
class BookSnapshot:
    """Order-book levels at one instant.

    ``bids``/``asks`` are tuples of (price_ticks, volume) ordered best
    first: bids by strictly decreasing price, asks strictly increasing.
    ``trade_count_delta`` counts trades since the previous snapshot.
    """

    timestamp_ns: int
    trade_count_delta: int
    bids: tuple
    asks: tuple


@dataclass(frozen=True, eq=False)
class Book:
    """Book snapshots as int64 columns: ``timestamps_ns`` and
    ``trade_count_delta`` of shape (n,), and ``bid_px``, ``bid_vol``,
    ``ask_px``, ``ask_vol`` of shape (n, depth), best level first, prices in
    ticks.  An empty level has price and volume 0."""

    timestamps_ns: np.ndarray = field(repr=False)
    trade_count_delta: np.ndarray = field(repr=False)
    bid_px: np.ndarray = field(repr=False)
    bid_vol: np.ndarray = field(repr=False)
    ask_px: np.ndarray = field(repr=False)
    ask_vol: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.timestamps_ns.size


@dataclass(frozen=True)
class Session:
    """Daily trading window, closed interval [open, close].

    ``date=None`` makes the session a daily template: sessionize() then
    slices every calendar date present in the data; with a concrete date
    only that day is kept.
    """

    open: dt.time
    close: dt.time
    timezone: str = "UTC"
    date: dt.date | None = None

    def __post_init__(self):
        if self.open >= self.close:
            raise ValueError("session open must precede close")

    def bounds_ns(self, day: dt.date) -> tuple[int, int]:
        """Epoch-ns timestamps of [open, close] on the given date."""
        tz = ZoneInfo(self.timezone)
        lo = dt.datetime.combine(day, self.open, tzinfo=tz) - _EPOCH
        hi = dt.datetime.combine(day, self.close, tzinfo=tz) - _EPOCH
        # whole microseconds, as integers: float seconds would round them
        return lo // _MICROSECOND * 1000, hi // _MICROSECOND * 1000


def _day_index(boundaries, size: int) -> tuple:
    """``boundaries`` as the day index of ``size`` rows: the offsets of the
    days' first rows, sorted, unique, from 0 and at most ``size``."""
    b = tuple(boundaries)
    if not b or b[0] != 0 or list(b) != sorted(set(b)) or b[-1] >= size + 1:
        raise ValueError("session_boundaries must be sorted, unique, start at 0")
    return b


@dataclass(frozen=True)
class RegularSeries:
    """Evenly sampled prices, possibly spanning several sessions.

    ``session_boundaries[i]`` is the index of day i's first grid point;
    the first entry is always 0.
    """

    start_ns: int
    interval_ns: int
    values: np.ndarray = field(repr=False)
    session_boundaries: tuple = (0,)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size == 0:
            raise ValueError("RegularSeries requires at least one value")
        if self.interval_ns <= 0:
            raise ValueError("interval must be positive")
        last = int(self.start_ns) + int(self.interval_ns) * (self.values.size - 1)
        if self.start_ns < -(2**63) or last >= 2**63:
            raise ValueError(f"grid from {self.start_ns} to {last} ns leaves int64")
        object.__setattr__(self, "session_boundaries", _day_index(self.session_boundaries, self.values.size))

    def __len__(self) -> int:
        return self.values.size

    @property
    def timestamps_ns(self) -> np.ndarray:
        return self.start_ns + self.interval_ns * np.arange(self.values.size, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Ticks:
    """Quotes and trades as columns: int64 ``timestamps_ns``, ``prices`` in
    ticks and ``volumes``, and ``kinds`` b"Q" (quote) or b"T" (trade).

    Days are indexed as in RegularSeries: ``session_boundaries[i]`` is the
    row of day i's first tick, and within a day no timestamp decreases.
    ``session_open_ns[i]`` is day i's open, from which time of day is
    measured, no later than the day's first timestamp (its default; None
    only for an empty last day).  ``dropped`` counts ticks sessionize left out.
    """

    timestamps_ns: np.ndarray = field(repr=False)
    prices: np.ndarray = field(repr=False)
    volumes: np.ndarray | None = field(default=None, repr=False)
    kinds: np.ndarray | None = field(default=None, repr=False)
    session_boundaries: tuple = (0,)
    session_open_ns: tuple | None = None
    dropped: int = 0

    def __post_init__(self):
        ts = np.asarray(self.timestamps_ns, dtype=np.int64)
        px = np.asarray(self.prices, dtype=np.int64)
        if ts.shape != px.shape:
            raise ValueError("timestamps and prices must have equal length")
        b = _day_index(self.session_boundaries, ts.size)
        if not set((np.flatnonzero(ts[1:] < ts[:-1]) + 1).tolist()) <= set(b):
            raise ValueError("timestamps must be non-decreasing within each day")
        opens = self.session_open_ns
        if opens is None:  # only the last day can be empty
            opens = tuple(int(ts[i]) if i < ts.size else None for i in b)
        elif len(opens) != len(b):
            raise ValueError("session_open_ns must hold one open per day")
        for day, (i, open_ns) in enumerate(zip(b, opens)):  # entry seconds are counted from the open
            if i < ts.size and open_ns is None:
                raise ValueError(f"day {day}: session open None, but the day has ticks from {ts[i]}")
            if i < ts.size and open_ns > ts[i]:
                raise ValueError(f"day {day}: session open {open_ns} is later than its first stamp {ts[i]}")
        object.__setattr__(self, "timestamps_ns", ts)
        object.__setattr__(self, "prices", px)
        object.__setattr__(self, "session_boundaries", b)
        object.__setattr__(self, "session_open_ns", tuple(opens))

    def __len__(self) -> int:
        return self.timestamps_ns.size


# -------------------------------------------------------------------- parsing

_TICK_HEADER = re.compile(r"^#\s*tick_size=(\S+)\s*$")
_BOOK_HEADER = re.compile(r"^#\s*tick_size=(\S+)\s+depth=(\d+)\s*$")
_FOOTER = re.compile(r"#\s*session_boundaries=(.*)")
_FIRST_LINE = re.compile(rb"[^\n]*")  # a chunk up to its first "\n"
_BLOCK_LINES = 1 << 13  # lines per vectorized pass: temporaries stay O(block)
# Bytes per read of an input, so that it is never held whole.  Larger reads
# cost memory; smaller ones leave glibc's mmap threshold, which follows the
# largest block freed, below the temporaries that the kernels allocate next.
_CHUNK_BYTES = 1 << 21
_I64_MAX = np.iinfo(np.int64).max
_POW10 = np.array([float(10**k) for k in range(21)])  # each exact in float64


def _parse_tick_size(text: str, lineno: int) -> tuple[Fraction, Decimal]:
    try:
        d = Decimal(text)
    except InvalidOperation:
        d = None
    if d is None or not d.is_finite():  # NaN, sNaN and Infinity are no tick sizes
        raise MalformedRow(lineno, f"bad tick size {text!r}")
    if d <= 0:
        raise MalformedRow(lineno, "tick size must be positive")
    # A nonzero price m * 10**-f (|m| < 10**19, f <= 18) is q ticks of
    # c * 10**e (c without trailing zeros) if q * c = m * 10**(-f - e) with
    # 1 <= |q| < 2**63.  Then the tick lies in [1e-37, 1e19); and c lacks a
    # factor 2 or 5, so q holds 2**(-f - e) or 5**(-f - e), -f - e <= 62 and
    # c <= |m| * 5**62 < 10**63.  Any other tick size leaves only zero
    # prices, at a cost that grows with its exponent and its digits.
    digits = bytes(d.as_tuple().digits).rstrip(b"\0")
    if not -37 <= d.adjusted() <= 18 or len(digits) > 63:
        raise MalformedRow(lineno, f"bad tick size {text!r}")
    return Fraction(Decimal((0, tuple(digits), d.adjusted() - len(digits) + 1))), d


def _number(blk, s, e):
    """``(value, frac, ok)`` of the cells ``blk[s:e]``: a cell of the grammar
    ``-?digits(.digits)?`` with at most 19 digits is exactly
    value * 10**-frac, and ok is False for any other cell and beyond int64.
    frac lies in [0, 20] for every cell."""
    shape, s, e = s.shape, s.ravel(), e.ravel()
    width = int(np.clip((e - s).max(), 1, 21))  # a sign, 19 digits and a dot
    # row j: byte j of each cell right-aligned, the separator before it as padding
    b = blk[np.maximum(e - width + np.arange(width)[:, None], s - 1)]
    mant = np.zeros(s.size, np.uint64)  # 19 digits fit in uint64
    frac = np.zeros(s.size, np.int64)  # digits after the last dot
    digits, dots = np.zeros((2, s.size), np.uint8)  # counted over the last `width` bytes
    for j, row in enumerate(b):
        digit = row - np.uint8(48)  # other bytes wrap to 10 and above
        is_digit, is_dot = digit < 10, row == 46
        mant = np.where(is_digit, mant * 10 + digit, mant)
        digits += is_digit
        dots += is_dot
        frac[is_dot] = width - 1 - j
    neg = blk[s] == 45
    # digits, dots and a leading minus are all of the cell's bytes; a cell
    # wider than the window can pass this only with 20 or more digits
    ok = (digits + dots == e - s - neg) & (dots <= 1) & ((dots == 0) | (frac > 0)) & (frac < digits)
    ok &= (digits <= 19) & (mant <= np.uint64(_I64_MAX) + neg)  # -2**63 fits
    value = np.where(neg, -mant.astype(np.int64), mant.astype(np.int64))
    return value.reshape(shape), frac.reshape(shape), ok.reshape(shape)


def _integer(blk, s, e):
    """``(value, ok)`` of cells ``-?digits`` read by ``_number``."""
    value, frac, ok = _number(blk, s, e)
    return value, ok & (frac == 0)


def _ticks(mant, frac, tick: Fraction):
    """Exact ``mant * 10**-frac / tick`` as int64, with the masks of the
    cells on the tick grid and of those whose tick count fits int64."""
    ticks, on_grid, fits = np.zeros_like(mant), *np.zeros((2, *mant.shape), bool)
    for f in np.flatnonzero(np.bincount(frac.ravel())).tolist():
        r = Fraction(tick.denominator, tick.numerator * 10**f)  # ticks per unit of mant
        at, m = frac == f, mant[frac == f]
        q, rem = np.divmod(m, r.denominator) if r.denominator <= _I64_MAX else (0 * m, m)
        lim = _I64_MAX // r.numerator  # not np.abs(q) <= lim: it wraps at -2**63
        on_grid[at], fits[at] = rem == 0, (-lim <= q) & (q <= lim)
        ticks[at] = q * min(r.numerator, _I64_MAX)
    return ticks, on_grid, fits


def _chunks(data):
    """``data`` as an iterator of byte chunks: bytes in memoryview slices of
    ``_CHUNK_BYTES``, a str as its UTF-8 encoding, lone surrogates kept for
    no decode to accept, and any other iterable as it comes."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if isinstance(data, bytes):
        view = memoryview(data)
        return (view[i : i + _CHUNK_BYTES] for i in range(0, len(view), _CHUNK_BYTES))
    return iter(data)


def _head(data) -> tuple[bytes, object]:
    """The first line of ``data`` without its "\n", and an iterator over
    all of its chunks, those read to find that line let go once handed on."""
    chunks, seen, line = _chunks(data), [], b""
    for chunk in chunks:
        seen.append(chunk)
        part = _FIRST_LINE.match(chunk)[0]
        line += part
        if len(part) < len(chunk):
            break
    return line, itertools.chain((seen.pop(0) for _ in range(len(seen))), chunks)


def _text(raw: bytes, lineno: int) -> str:
    """``raw`` decoded as UTF-8, or a MalformedRow at ``lineno``."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(lineno, f"bytes that are not UTF-8 ({exc.reason})") from None


def _line_blocks(data, skip: int):
    """Yield ``(lineno, blk, e)`` per block of ``_BLOCK_LINES`` lines of
    ``data`` from its 0-based line ``skip`` on: ``blk`` holds the block's
    bytes, every line ended by "\n" (one is added to a last line without
    one), ``e`` the offsets of those "\n" and ``lineno`` the number of the
    block's first line.  Only the lines of a block not yet whole wait for
    the next chunk."""
    held, count, line = [], 0, 0  # the arrays that wait, the "\n" in them, their first line
    for chunk in itertools.chain(_chunks(data), [None]):
        if chunk is not None:
            held.append(np.frombuffer(chunk, np.uint8))
            count += int(np.count_nonzero(held[-1] == 10))
            if line + count < skip + _BLOCK_LINES:
                continue
        if not held:
            return
        buf = held[0] if len(held) == 1 else np.concatenate(held)
        ends = np.flatnonzero(buf == 10)
        if chunk is None and buf.size and buf[-1] != 10:
            ends = np.append(ends, buf.size)  # a last line without "\n"
        # every line at the end of the input, else those up to the last block edge
        edge = (line + ends.size - skip) // _BLOCK_LINES * _BLOCK_LINES + skip
        stop = ends.size if chunk is None else edge - line
        for first in range(max(skip - line, 0), stop, _BLOCK_LINES):
            lo, e = ends[first - 1] + 1 if first else 0, ends[first : first + _BLOCK_LINES]
            blk, e = buf[lo : e[-1] + 1], e - lo
            if blk.size == e[-1]:  # "\n" ends every block: it pads the first cell
                blk = np.append(blk, np.uint8(10))
            yield line + first + 1, blk, e
        # a copy, so that the buffer of the blocks yielded is freed
        held, count, line = [buf[ends[stop - 1] + 1 if stop else 0 :].copy()], ends.size - stop, line + stop


def _blocks(data, n_fields: int, comments: list | None = None):
    """Yield ``(lineno, blk, s, e)`` per block of the non-blank rows after the
    header, cell j of row i being ``blk[s[i, j]:e[i, j]]``.  A row without
    ``n_fields`` fields raises after the rows before it, which may hold an
    earlier error, are yielded.  ``data`` is bytes, a str or an iterable of
    byte chunks, which may split a line anywhere.

    Given a list ``comments``, there is no header: rows start at line 1, and
    a line whose first byte is "#" is not a row but is appended to the list
    as ``(lineno, bytes of the line)``.
    """
    for first, blk, e in _line_blocks(data, 1 if comments is None else 0):
        s = np.concatenate(([0], e[:-1] + 1))
        e -= (e > s) & (blk[e - 1] == 13)  # \r\n ends a line as \n does
        blank = np.flatnonzero((blk == 32) | (blk == 9) | (blk == 13))
        ink = np.searchsorted(blank, e) - np.searchsorted(blank, s) < e - s
        commas = np.flatnonzero(blk == 44)
        if comments is not None and (note := ink & (blk[s] == 35)).any():
            for k in np.flatnonzero(note).tolist():
                comments.append((k + first, blk[s[k] : e[k]].tobytes()))
            commas = commas[~note[np.searchsorted(s, commas, side="right") - 1]]
            ink &= ~note
        lineno, s, e = np.flatnonzero(ink) + first, s[ink], e[ink]
        # Every comma lies in a row.  If the commas number k per row and the
        # i-th group of k lies within row i, every row holds exactly k.
        k, n = n_fields - 1, e.size
        cut = commas.reshape(-1, k) if commas.size == n * k else None
        if cut is None or (cut[:, 0] < s).any() or (cut[:, -1] >= e).any():
            got = np.searchsorted(commas, e) - np.searchsorted(commas, s) + 1
            n = int(np.flatnonzero(got != n_fields)[0])
            cut = commas[: n * k].reshape(n, k)
        if n:
            yield lineno[:n], blk, np.column_stack((s[:n], cut + 1)), np.column_stack((cut, e[:n]))
        if n < e.size:
            raise MalformedRow(int(lineno[n]), f"expected {n_fields} fields, got {got[n]}")


def _raise_first(lineno, checks):
    """Raise the first (mask, error, message) check of the first row flagged."""
    for row in np.flatnonzero(np.logical_or.reduce([mask for mask, _, _ in checks]))[:1]:
        _, error, message = next(c for c in checks if c[0][row])
        raise error(int(lineno[row]), message)


def parse_ticks(data) -> tuple[Ticks, Decimal]:
    """Parse a tick CSV into columns with integer-tick prices, as one day.

    Returns ``(ticks, tick_size)``.  Raises MalformedRow, TickSizeViolation
    or NonMonotonicTime with the offending line number.
    """
    head, data = _head(data)
    m = _TICK_HEADER.match(_text(head, 1))
    if not m:
        raise MalformedRow(1, "missing tick_size header")
    tick_frac, tick_dec = _parse_tick_size(m.group(1), 1)
    cols, prev = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0, np.uint8),)], -1
    for lineno, blk, s, e in _blocks(data, 4):
        (ts, ts_ok), (volume, volume_ok) = _integer(blk, s[:, 0], e[:, 0]), _integer(blk, s[:, 3], e[:, 3])
        price, frac, price_ok = _number(blk, s[:, 1], e[:, 1])
        price, on_grid, fits = _ticks(price, frac, tick_frac)
        kind = np.where(e[:, 2] - s[:, 2] == 1, blk[s[:, 2]], np.uint8(0))
        _raise_first(lineno, [
            (~(ts_ok & volume_ok), MalformedRow, "bad integer field"),
            (ts <= 0, MalformedRow, "timestamp must be positive"),
            (volume < 0, MalformedRow, "volume must be non-negative"),
            ((kind != 81) & (kind != 84), MalformedRow, "kind must be Q or T"),
            (ts < np.concatenate(([prev], ts[:-1])), NonMonotonicTime, "timestamps must be non-decreasing"),
            (~(price_ok & fits), MalformedRow, "bad price"),
            (~on_grid, TickSizeViolation, "price is not a multiple of the tick size"),
        ])
        cols.append((ts, price, volume, kind))
        prev = ts[-1]
    ts, price, volume, kind = (np.concatenate(c) for c in zip(*cols))
    return Ticks(ts, price, volume, kind.view("S1")), tick_dec


def _format_price(ticks: int, tick_size: Decimal) -> str:
    value = (Decimal(ticks) * tick_size).normalize()
    return format(value, "f")


def parse_book(data) -> tuple[Book, Decimal, int]:
    """Parse a book CSV into int64 columns.

    Returns ``(book, tick_size, depth)``, the depth the header declares.
    The first bad row raises with its line number and the error a reader
    going row by row would raise.
    """
    tick_dec, d, blocks = _book_blocks(data)
    empty = np.zeros((0, d), np.int64)
    parts = [(empty[:, 0],) * 2 + (empty,) * 4, *(vars(book).values() for book in blocks)]  # columns in field order
    return Book(*(np.concatenate(c) for c in zip(*parts))), tick_dec, d


def _book_blocks(data):
    """A book CSV's tick size and depth, its header read now, and a generator of its checked blocks, each a Book."""
    head, data = _head(data)
    m = _BOOK_HEADER.match(_text(head, 1))
    if not m:
        raise MalformedRow(1, "missing 'tick_size=... depth=...' header")
    tick_frac, tick_dec = _parse_tick_size(m.group(1), 1)
    d = int(m.group(2))
    if d < 1:
        raise MalformedRow(1, "depth must be >= 1")

    def blocks(prev=-1):
        for lineno, blk, s, e in _blocks(data, 2 + 4 * d):
            prev = (block := _book_block(lineno, blk, s, e, tick_frac, d, prev)).timestamps_ns[-1]
            yield block
            del block  # the next block is read without this one

    return tick_dec, d, blocks()


def _book_block(lineno, blk, s, e, tick_frac, d, prev):
    """A block's rows checked after a row stamped ``prev``; returning frees its temporaries."""
    # only rows of 2 + 4d fields get here, so d is bounded by the text:
    # a depth no row can hold is the first row's field-count error
    px_cols = 2 + 2 * np.arange(2 * d)  # bid levels best first, then ask levels
    (ts, ts_ok), (tcd, tcd_ok) = _integer(blk, s[:, 0], e[:, 0]), _integer(blk, s[:, 1], e[:, 1])
    # a side at a time: gathers small enough that glibc keeps them for the next block, not trims
    sides = [_number(blk, s[:, c], e[:, c]) + _integer(blk, s[:, c + 1], e[:, c + 1]) for c in np.split(px_cols, 2)]
    px, frac, px_ok, vol, vol_ok = (np.hstack(c) for c in zip(*sides))
    px, on_grid, fits = _ticks(px, frac, tick_frac)
    pe, ve = (s == e)[:, px_cols], (s == e)[:, px_cols + 1]
    gone = (pe & ve).reshape(-1, 2, d)
    gap = (np.cumsum(gone, axis=2) > gone).reshape(-1, 2 * d)  # an empty level came before
    held = ~pe & ~ve
    level = [
        (gap & ~(pe & ve), MalformedRow, "non-contiguous book levels"),
        (pe ^ ve, MalformedRow, "price/volume must be both present or both empty"),
        (held & ~vol_ok, MalformedRow, "bad volume field"),
        (held & (vol <= 0), MalformedRow, "level volume must be positive"),
        (held & ~(px_ok & fits), MalformedRow, "bad price"),
        (held & ~on_grid, TickSizeViolation, "price is not a multiple of the tick size"),
    ]
    _raise_first(lineno, [
        (~(ts_ok & tcd_ok), MalformedRow, "bad integer field"),
        (ts <= 0, MalformedRow, "timestamp must be positive"),
        (tcd < 0, MalformedRow, "trade_count_delta must be non-negative"),
        (ts < np.concatenate(([prev], ts[:-1])), NonMonotonicTime, "timestamps must be non-decreasing"),
        *[(mask[:, j], error, msg) for j in range(2 * d) for mask, error, msg in level],
        ((held[:, 1:d] & (px[:, 1:d] >= px[:, : d - 1])).any(1), LadderOrderViolation,
         "bid prices must be strictly decreasing"),
        ((held[:, d + 1 :] & (px[:, d + 1 :] <= px[:, d:-1])).any(1), LadderOrderViolation,
         "ask prices must be strictly increasing"),
        (held[:, 0] & held[:, d] & (px[:, 0] >= px[:, d]), CrossedBook, "best bid is at or above best ask"),
    ])
    return Book(ts, tcd, px[:, :d], vol[:, :d], px[:, d:], vol[:, d:])


def serialize_book(snaps, tick_size: Decimal, depth: int) -> str:
    """Inverse of parse_book for canonical-form files."""
    out = [f"# tick_size={format(tick_size.normalize(), 'f')} depth={depth}"]
    prices = {}  # tick count -> text, each distinct price formatted once
    for s in snaps:
        fields = [str(s.timestamp_ns), str(s.trade_count_delta)]
        for side in (s.bids, s.asks):
            for lvl in range(depth):
                if lvl < len(side):
                    px, vol = side[lvl]
                    fields += [prices.get(px) or prices.setdefault(px, _format_price(px, tick_size)), str(vol)]
                else:
                    fields += ["", ""]
        out.append(",".join(fields))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------- sessioning


def sessionize(ticks: Ticks, session: Session) -> Ticks:
    """Split time-ordered ticks into days, keeping only those with time of
    day inside the closed [open, close] window; each day opens at the
    session open.  Out-of-session ticks are dropped and counted, not
    fatal."""
    ts = ticks.timestamps_ns
    if (ts[1:] < ts[:-1]).any():  # the days are found by binary search over ts
        raise ValueError("sessionize needs timestamps non-decreasing across days")
    keep = np.zeros(ts.size, bool)
    starts, opens = [0], []
    if ts.size:
        tz = ZoneInfo(session.timezone)
        day = dt.datetime.fromtimestamp(ts[0] / NS_PER_S, tz).date()
        last_day = dt.datetime.fromtimestamp(ts[-1] / NS_PER_S, tz).date()
        while day <= last_day:
            if session.date is None or session.date == day:
                lo, hi = session.bounds_ns(day)
                i = int(np.searchsorted(ts, lo, side="left"))
                j = int(np.searchsorted(ts, hi, side="right"))
                if j > i:
                    keep[i:j] = True
                    starts.append(starts[-1] + j - i)
                    opens.append(lo)
            day += dt.timedelta(days=1)
    volumes, kinds = (None if col is None else col[keep] for col in (ticks.volumes, ticks.kinds))
    return Ticks(
        ts[keep], ticks.prices[keep], volumes, kinds,
        session_boundaries=tuple(starts[:-1]) or (0,), session_open_ns=tuple(opens) or None,
        dropped=ticks.dropped + ts.size - starts[-1],
    )


def resample(ticks: Ticks, interval_ns: int) -> RegularSeries:
    """Previous-tick resampling of each day of ``ticks`` onto a fixed grid.

    Each day's grid runs from its open in steps of ``interval_ns`` up to
    its last tick; the value at a grid point is the last price at or
    before it, and points before the day's first tick are back-filled with
    that first price.  Values stay in integer ticks.
    """
    if interval_ns <= 0:
        raise ValueError("interval must be positive")
    bounds = ticks.session_boundaries + (len(ticks),)
    values, starts = [], [0]
    for day, (a, b, open_ns) in enumerate(zip(bounds, bounds[1:], ticks.session_open_ns)):
        if b == a:
            raise EmptyDay(f"no ticks on day {day}")
        ts = ticks.timestamps_ns[a:b]
        n_pts = int((ts[-1] - open_ns) // interval_ns) + 1
        grid = open_ns + interval_ns * np.arange(n_pts, dtype=np.int64)
        idx = np.maximum(np.searchsorted(ts, grid, side="right") - 1, 0)  # back-fill before the first tick
        values.append(ticks.prices[a:b][idx].astype(float))
        starts.append(starts[-1] + n_pts)
    return RegularSeries(
        start_ns=int(ticks.session_open_ns[0]),
        interval_ns=int(interval_ns),
        values=np.concatenate(values),
        session_boundaries=tuple(starts[:-1]),
    )


# -------------------------------------------------------- regular series I/O


def _digits(mag, neg):
    """The writer's counterpart to ``_number``: rows of bytes whose column
    i holds the ASCII digits of ``mag[i]`` (uint64) right-aligned, a "-"
    before them where ``neg[i]``, and zero bytes above."""
    width = len(str(int(mag.max()))) + bool(neg.any())
    cells = np.empty((width, mag.size), np.uint8)
    size = 1 + neg  # the last digit and the sign
    for row in cells[::-1]:
        rest = mag // 10
        row[:] = mag - rest * 10 + 48
        size += rest > 0
        mag = rest
    cells[np.arange(width)[:, None] < width - size] = 0
    at = np.flatnonzero(neg)
    cells[width - size[at], at] = 45
    return cells


def _whole_rows(t, v) -> bytes:
    """The rows ``t,v`` of stamps ``t`` and whole values ``v`` below 1e16 in
    magnitude, each value as ``repr`` writes it: its digits and ".0"."""
    n = t.size
    text = np.concatenate((
        _digits(np.abs(t).view(np.uint64), t < 0),  # |-2**63| wraps to 2**63 in uint64
        np.full((1, n), 44, np.uint8),
        _digits(np.abs(v).astype(np.uint64), np.signbit(v)),  # -0.0 is "-0.0"
        np.repeat(np.frombuffer(b".0\n", np.uint8)[:, None], n, axis=1),
    )).T.ravel()  # row by row
    return text[text != 0].tobytes()


def serialize_regular_series(series: RegularSeries) -> str:
    """The text that ``parse_regular_series`` reads back as ``series``:
    rows ``timestamp_ns,repr(value)``, then the footer
    ``# session_boundaries=i1;i2;...``, each line ended by "\n".

    A series with a value that is not finite is refused with a ValueError
    that names the first such row, before anything is written, as the
    reader refuses such a value.  Rows are written a block of
    ``_BLOCK_LINES`` at a time: a block of whole values below 1e16 in
    magnitude by a numpy digit kernel, any other block row by row with
    ``repr``, and the bytes are the same whatever the block size.
    """
    values, start, step = series.values, int(series.start_ns) % 2**64, int(series.interval_ns) % 2**64
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"row {bad[0]}: value {float(values[bad[0]])!r} is not finite")
    parts = []
    for a in range(0, values.size, _BLOCK_LINES):
        v = values[a : a + _BLOCK_LINES]
        # the grid in uint64, which wraps to each stamp's int64 bits
        t = (np.arange(a, a + v.size, dtype=np.uint64) * np.uint64(step) + np.uint64(start)).view(np.int64)
        if ((np.abs(v) < 1e16) & (v == np.trunc(v))).all():
            parts.append(_whole_rows(t, v))
        else:  # repr is the only exact shortest formatter of other floats
            parts.append("".join([f"{s},{x!r}\n" for s, x in zip(t.tolist(), v.tolist())]).encode())
    parts.append(f"# session_boundaries={';'.join(map(str, series.session_boundaries))}\n".encode())
    text = b"".join(parts)
    del parts
    return text.decode("ascii")


def _read_cells(blk, s, e) -> list:
    """``float`` of the text of each cell ``blk[s[i]:e[i]]``, up to the
    first cell that it rejects."""
    raw, at = blk.tobytes() if s.size else b"", zip(s.tolist(), e.tolist())
    if raw.isascii():  # a byte offset is a character offset
        raw = raw.decode("ascii")
        cells = [raw[a:b] for a, b in at]
    else:  # bytes that are not UTF-8 become lone surrogates, which float rejects
        cells = [raw[a:b].decode("utf-8", "surrogateescape") for a, b in at]
    try:
        return list(map(float, cells))
    except ValueError:
        out = []
        for cell in cells:
            try:
                out.append(float(cell))
            except ValueError:
                return out


def _regular_rows(data, notes: list):
    """Per block of a regular CSV's rows: their line numbers, int64
    timestamps and values.  The first row with a timestamp outside the
    kernel's grammar or a value cell that ``float`` rejects raises."""
    for lineno, blk, s, e in _blocks(data, 2, notes):
        ts, ok = _integer(blk, s[:, 0], e[:, 0])
        mant, vfrac, vok = _number(blk, s[:, 1], e[:, 1])
        # an exact mantissa over an exact power of ten: one correctly rounded division
        val = np.abs(mant) / _POW10[vfrac]
        val = np.where(blk[s[:, 1]] == 45, -val, val)  # "-0" reads -0.0
        slow = np.flatnonzero(~(vok & (-(2**53) < mant) & (mant < 2**53)))  # np.abs(mant) wraps at -2**63
        got = _read_cells(blk, s[slow, 1], e[slow, 1])
        val[slow[: len(got)]] = got
        bad = [*np.flatnonzero(~ok)[:1], *slow[len(got) : len(got) + 1]]
        if bad:
            raise MalformedRow(int(lineno[min(bad)]), "bad numeric field")
        yield lineno, ts, val


def _first_fault(row: int, lineno, ts, values, t0: int, step: int | None):
    """``(line, why)`` of the first of a block's rows, rows ``row`` on, off
    the grid t0 + i * step or not finite, or None.  With step <= 0 only
    row 1 is off the grid; with no step yet, the block holds row 0 alone,
    which is on every grid."""
    i = np.arange(row, row + ts.size, dtype=np.uint64)
    if step is None or step <= 0:
        grid = i == 1
    else:
        # Row i is on the grid if u_i - u_0 == i * step in uint64, i up to
        # the grid's last point in int64: i * step is then exact, and the
        # difference, of two int64, is too, unless it is negative, when
        # t_i would lie below int64.
        last = np.uint64((_I64_MAX - t0) // step)
        off = ts.view(np.uint64) - np.uint64(t0 % 2**64) != i * np.uint64(step)
        grid = (i > last) | off
    bad = grid | ~np.isfinite(values)
    if not bad.any():
        return None
    j = int(np.argmax(bad))
    if not grid[j]:
        why = f"value {float(values[j])!r} is not finite"
    elif step <= 0:
        why = f"timestamp {t0 + step} does not follow {t0}"
    else:
        why = f"timestamp {int(ts[j])} is off the grid {t0} + k * {step}"
    return int(lineno[j]), why


def parse_regular_series(data) -> RegularSeries:
    """Read rows ``timestamp_ns,value`` and the session-boundary footer.

    Timestamps must lie on the grid that ``serialize_regular_series``
    writes, ts0 + k * interval with the interval of the first two rows,
    and values must be finite.  The first row with a wrong field count, a
    timestamp outside the kernel's grammar or a value that is not UTF-8 or
    that ``float`` rejects raises first, then the first row off the grid
    or not finite, then the first comment that is not UTF-8 or a bad
    footer: each a ``MalformedRow`` at its line.
    Only the value column is kept; the grid is checked block by block.
    """
    notes, values, step, fault, rows = [], [], None, None, 0
    for lineno, ts, val in _regular_rows(data, notes):
        values.append(val)
        if rows == 0:
            t0 = int(ts[0])
        if step is None and rows + ts.size > 1:  # row 1 gives the step
            step = int(ts[1 - rows]) - t0
        if fault is None:
            fault = _first_fault(rows, lineno, ts, val, t0, step)
        rows += ts.size
    if not values:
        raise MalformedRow(1, "no data rows")
    if step is None:  # one row
        step = 1
    if fault:
        raise MalformedRow(*fault)

    boundaries, footer = (0,), None
    for lineno, line in notes:
        m = _FOOTER.fullmatch(_text(line, lineno))
        if m:
            try:
                boundaries = tuple(int(p) for p in m.group(1).split(";") if p != "")
            except ValueError:
                raise MalformedRow(lineno, f"bad session_boundaries {m.group(1)!r}") from None
            footer = lineno
    values = np.concatenate(values)
    try:
        return RegularSeries(start_ns=t0, interval_ns=step, values=values, session_boundaries=boundaries)
    except ValueError as exc:  # only the footer can be at fault here
        raise MalformedRow(footer, str(exc)) from None
