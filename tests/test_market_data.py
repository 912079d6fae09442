"""Parsers, sessioning and resampling.

Round trips are exercised with hypothesis (serialize then parse must be
the identity); malformed inputs must fail with the precise error class and
line number, since the CLI surfaces both.
"""

import calendar
import dataclasses
import datetime as dt
import re
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_book as reference
import _reference_regular
from _chunks import chunked
from _reference_book import assert_same_columns, book_texts, snapshots
from _tick_file import serialize_ticks
from tickphys import (
    CrossedBook,
    EmptyDay,
    ImbalanceSeries,
    LadderOrderViolation,
    MalformedRow,
    NonMonotonicTime,
    ParseError,
    RegularSeries,
    Session,
    Ticks,
    TickSizeViolation,
    parse_book,
    parse_regular_series,
    parse_ticks,
    resample,
    serialize_book,
    serialize_regular_series,
    sessionize,
)
from tickphys import market_data

NS = 1_000_000_000

TICKS = """# tick_size=0.01
1000000000,100.05,Q,10
2000000000,100.07,T,5
2000000000,100.07,Q,0
"""

BOOK = """# tick_size=0.5 depth=2
1000000000,0,99.5,10,99.0,4,100.0,7,100.5,2
2000000000,3,99.5,12,,,100.0,9,101.0,1
"""


def test_parse_ticks_integer_grid():
    ticks, tick_size = parse_ticks(TICKS)
    assert tick_size == Decimal("0.01")
    assert ticks.prices.tolist() == [10005, 10007, 10007]
    assert ticks.kinds.tolist() == [b"Q", b"T", b"Q"]
    assert ticks.volumes.tolist() == [10, 5, 0]
    assert ticks.timestamps_ns[0] == NS
    # one day, opening at its first tick
    assert (ticks.session_boundaries, ticks.session_open_ns, ticks.dropped) == ((0,), (NS,), 0)
    assert all(col.dtype == np.int64 for col in (ticks.timestamps_ns, ticks.prices, ticks.volumes))


def test_parse_ticks_is_exact_for_small_tick_sizes():
    # 1.003 / 0.001 must come out as exactly 1003, never 1002.999...
    text = "# tick_size=0.001\n1,1.003,T,1\n"
    ticks, _ = parse_ticks(text)
    assert ticks.prices[0] == 1003


def test_parse_ticks_error_lines():
    with pytest.raises(MalformedRow) as err:
        parse_ticks("no header\n")
    assert err.value.line == 1
    with pytest.raises(MalformedRow):
        parse_ticks("# tick_size=0.01\n1,100.00,T\n")  # missing field
    with pytest.raises(MalformedRow):
        parse_ticks("# tick_size=0.01\n1,100.00,X,1\n")  # bad kind
    with pytest.raises(MalformedRow):
        parse_ticks("# tick_size=0.01\n1,100.00,T,-2\n")  # negative volume
    with pytest.raises(TickSizeViolation) as err:
        parse_ticks("# tick_size=0.01\n1,100.005,T,1\n")
    assert err.value.line == 2
    with pytest.raises(NonMonotonicTime):
        parse_ticks("# tick_size=0.01\n5,100.00,T,1\n4,100.00,T,1\n")


def assert_same_ticks(got, want):
    for name in ("timestamps_ns", "prices", "volumes", "kinds"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("session_boundaries", "session_open_ns", "dropped"):
        assert getattr(got, name) == getattr(want, name), name


def test_tick_roundtrip_fixed():
    ticks, tick_size = parse_ticks(TICKS)
    assert_same_ticks(parse_ticks(serialize_ticks(ticks, tick_size))[0], ticks)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**6),  # timestamp gaps
            st.integers(min_value=-10_000, max_value=10_000),  # price ticks
            st.sampled_from([b"Q", b"T"]),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_tick_roundtrip_property(data):
    gaps, prices, kinds, volumes = zip(*data)
    ticks = Ticks(np.cumsum(gaps), prices, np.array(volumes), np.array(kinds, dtype="S1"))
    text = serialize_ticks(ticks, Decimal("0.01"))
    for data in (text, text.encode()):  # a str reads as its UTF-8 bytes
        parsed, tick_size = parse_ticks(data)
        assert_same_ticks(parsed, ticks)
        assert tick_size == Decimal("0.01")


def test_parse_book_levels_and_short_side():
    book, tick_size, depth = parse_book(BOOK)
    assert (tick_size, depth) == (Decimal("0.5"), 2)
    assert len(book) == 2
    assert list(zip(book.bid_px[0], book.bid_vol[0])) == [(199, 10), (198, 4)]
    assert list(zip(book.ask_px[0], book.ask_vol[0])) == [(200, 7), (201, 2)]
    assert list(zip(book.bid_px[1], book.bid_vol[1]))[:1] == [(199, 12)]
    assert book.bid_vol[1, 1] == 0  # second level empty
    assert book.trade_count_delta[1] == 3


def test_parse_book_rejects_bad_ladders():
    head = "# tick_size=0.5 depth=2\n"
    with pytest.raises(LadderOrderViolation):
        parse_book(head + "1,0,99.0,5,99.5,5,100.0,7,100.5,2\n")  # bids rising
    with pytest.raises(LadderOrderViolation):
        parse_book(head + "1,0,99.5,5,99.0,5,100.5,7,100.0,2\n")  # asks falling
    with pytest.raises(CrossedBook):
        parse_book(head + "1,0,100.0,5,99.5,5,100.0,7,100.5,2\n")
    with pytest.raises(MalformedRow):
        parse_book(head + "1,0,,,99.0,4,100.0,7,100.5,2\n")  # gap then level
    with pytest.raises(MalformedRow):
        parse_book(head + "1,0,99.5,,99.0,4,100.0,7,100.5,2\n")  # half a level
    with pytest.raises(MalformedRow):
        parse_book(head + "1,0,99.5,0,99.0,4,100.0,7,100.5,2\n")  # zero volume


def test_book_roundtrip():
    book, tick_size, depth = parse_book(BOOK)
    again = parse_book(serialize_book(snapshots(book), tick_size, depth))[0]
    assert snapshots(again) == snapshots(book)
    assert_same_columns(again, snapshots(book), depth)


def _outcome(parse, text):
    try:
        book = parse(text)[0]
    except ParseError as exc:
        return type(exc), exc.line
    return snapshots(book) if isinstance(book, market_data.Book) else book


# Small blocks put block edges between rows, blank lines and bad rows.
block_lines = st.sampled_from([1, 2, 3, market_data._BLOCK_LINES])


@settings(max_examples=150, deadline=None)
@given(text=book_texts(), block=block_lines)
def test_parse_book_matches_row_by_row_reference(text, block):
    ref_snaps, ref_tick, ref_depth = reference.parse_book(text)
    for data in (text, text.encode()):
        with mock.patch.object(market_data, "_BLOCK_LINES", block):
            book, tick_size, depth = parse_book(data)
        assert (tick_size, depth) == (ref_tick, ref_depth)
        assert len(book) == len(ref_snaps)
        assert_same_columns(book, ref_snaps, depth)


# Replacement cells that both readers judge alike, apart from prices whose
# tick count leaves int64 (see _int64_ticks); the row-by-row reader also
# took "+5", "1_0", " 5", "1e3", ".5" and "5.", which are now errors.
corrupt_cells = st.one_of(
    st.sampled_from(["", "abc", "x1", "1.2.3", "--1", "-", ".", "0", "-0", "-1", "1", str(10**18), "1,2", "\u00e9", "NaN"]),
    st.integers(-(10**12), 10**18).map(str),
    st.tuples(st.integers(-(10**8), 10**8), st.integers(1, 6)).map(
        lambda t: format(Decimal(t[0]).scaleb(-t[1]), "f")
    ),
)


def _int64_ticks(text, tick_size, lineno):
    """The reference's price reader with the one rule the columnar reader
    adds: a price whose tick count is beyond int64 is a malformed row."""
    ticks = _reference_ticks(text, tick_size, lineno)
    if abs(ticks) > np.iinfo(np.int64).max:
        raise MalformedRow(lineno, "bad price")
    return ticks


_reference_ticks = reference._to_ticks


@settings(max_examples=300, deadline=None)
@given(data=st.data(), block=block_lines)
def test_corrupt_cell_fails_like_reference(data, block):
    lines = data.draw(book_texts(min_rows=1)).split("\n")
    i = data.draw(st.sampled_from([k for k, line in enumerate(lines) if k and line.strip()]))
    cells = lines[i].split(",")
    cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(corrupt_cells)
    lines[i] = ",".join(cells)
    text = "\n".join(lines)
    with mock.patch.object(market_data, "_BLOCK_LINES", block):
        got = _outcome(parse_book, text)
        assert _outcome(parse_book, text.encode()) == got
    with mock.patch.object(reference, "_to_ticks", _int64_ticks):
        assert got == _outcome(reference.parse_book, text)


def test_parse_book_time_order_across_block_edges():
    rows = [f"{t},0,99.5,1,100.0,1" for t in (1, 2, 2, 3, 1)]
    text = "# tick_size=0.5 depth=1\n" + "\n\n".join(rows) + "\n"
    for block in (1, 2, 3, 4):
        with mock.patch.object(market_data, "_BLOCK_LINES", block):
            with pytest.raises(NonMonotonicTime) as err:
                parse_book(text)
        assert err.value.line == 10


BOOK_HEAD = "# tick_size=0.01 depth=1\r\n1,0,99.99,5,100.01,5\r\n\r\n \t\r\n"


@pytest.mark.parametrize(
    "row",
    [
        "9223372036854775808,0,99.99,5,100.01,5",  # timestamp beyond int64
        "2,99999999999999999999,99.99,5,100.01,5",  # trade count beyond int64
        "2,0,99.99,5,100000000000000000000.01,5",  # price beyond int64
        "2,0,99.99,5,100000000000000000,5",  # tick count beyond int64
        "2,0,99.99,9223372036854775808,100.01,5",  # volume beyond int64
        "2,0,99.99,5\u00e9,100.01,5",  # a non-ASCII byte
        "2\u2028,0,99.99,5,100.01,5",
        "2,+1,99.99,5,100.01,5",  # cells outside -?digits(.digits)?
        "2,0,99.99,1_0,100.01,5",
        "2,0,1e2,5,100.01,5",
        "2,0,99.99,5,100.01, 5",
        "2,0,99 .99,5,100.01,5",
        "2,0,.99,5,100.01,5",
        "2,0,99.,5,100.01,5",
        "2,0,-99.99-,5,100.01,5",
        "2,0,99.99,5,000000000000000000100.01,5",  # more than 19 digits
    ],
)
def test_parse_book_edge_cells_are_malformed_rows(row):
    with pytest.raises(MalformedRow) as err:
        parse_book(BOOK_HEAD + row + "\r\n")
    assert err.value.line == 5


@pytest.mark.parametrize(
    "row",
    [
        "9223372036854775808,1.00,T,1",
        "2,1.00,T,1\u00e9",
        "2,+1.00,T,1",
        "2,1.00,T,1e1",
        "2,-9223372036854775808,T,1",  # fits int64, but its tick count does not
    ],
)
def test_parse_ticks_edge_cells_are_malformed_rows(row):
    with pytest.raises(MalformedRow) as err:
        parse_ticks("# tick_size=0.01\n1,1.00,Q,1\n\n" + row + "\n")
    assert err.value.line == 4


@pytest.mark.parametrize(
    "parse, data, line",
    [
        (parse_ticks, b"# tick_size=0.01\xe9\n1,1.00,T,1\n", 1),  # a header
        (parse_book, b"# tick_size=0.01 depth=1\n1,0,99.99,5\xe9,,\n", 2),  # a cell no reader decodes
        (parse_regular_series, b"0,1\n# caf\xe9\n1,2\n", 2),  # a comment
        (parse_regular_series, b"0,1\n# caf\xe9\n1,2\n5,3\n", 4),  # after the rows' own faults
        (parse_regular_series, b"0,1\n1,2\n# session_boundaries=0;1\xe9\n", 3),  # the footer
        (parse_regular_series, b"0,1\n1\xe9,2\n2,3\n", 2),  # a timestamp cell
        (parse_regular_series, b"0,1\n1,2.5\xe9\n2,x\n", 2),  # and one that float() reads
        (parse_regular_series, "0,1\n# \ud800\n1,2\n", 2),  # a str's lone surrogate
        (parse_regular_series, b"0,1\r1,2\r", 1),  # a lone \r ends no line
    ],
)
def test_bytes_that_are_not_utf8_are_malformed_rows(parse, data, line):
    with pytest.raises(MalformedRow) as err:
        parse(data)
    assert err.value.line == line


def test_parse_book_int64_edges():
    top = "9223372036854775807"
    book = parse_book(f"# tick_size=0.01 depth=1\n{top},{top},-92233720368547758.07,{top},,\n")[0]
    assert book.timestamps_ns[0] == book.trade_count_delta[0] == book.bid_vol[0, 0] == int(top)
    assert book.bid_px[0, 0] == -int(top)
    assert parse_book("# tick_size=0.01 depth=1\n1,0,0000000000000001.00,1,,\n")[0].bid_px[0, 0] == 100


@pytest.mark.parametrize(
    "tick",
    [
        "NaN", "sNaN", "Infinity", "-Infinity", "nan", "inf", "x",
        # no nonzero 19-digit price is an int64 count of these ticks: each is
        # refused before any arithmetic on numbers of its size
        "1e19", "9e-38", "1." + "3" * 63,
        "1e1000000", "1e-1000000", pytest.param("1." + "3" * 300_000, id="300k-digits"),
    ],
)
def test_non_finite_tick_sizes_are_malformed_headers(tick):
    for parse, header in ((parse_book, f"# tick_size={tick} depth=1"), (parse_ticks, f"# tick_size={tick}")):
        with pytest.raises(MalformedRow) as err:
            parse(header + "\n")
        assert (err.value.line, str(err.value)) == (1, f"line 1: bad tick size {tick!r}")


def test_a_depth_no_row_can_hold_fails_at_the_first_row():
    # 4e11 fields a row: nothing sized by the depth is allocated before a row holds it
    with pytest.raises(MalformedRow) as err:
        parse_book("# tick_size=0.01 depth=99999999999\n\n1,0,99.99,5,100.01,5\n")
    assert str(err.value) == "line 3: expected 399999999998 fields, got 6"
    book, _, depth = parse_book("# tick_size=0.01 depth=99999999999\n")
    assert len(book) == 0 and depth == 99999999999 and book.bid_px.shape == (0, depth)


def test_session_validation_and_bounds():
    with pytest.raises(ValueError):
        Session(open=dt.time(16, 0), close=dt.time(9, 30))
    session = Session(open=dt.time(9, 30), close=dt.time(16, 0))
    lo, hi = session.bounds_ns(dt.date(2024, 1, 2))
    assert hi - lo == int(6.5 * 3600) * NS
    # whole microseconds stay exact: float seconds gave ...123457024
    odd = Session(open=dt.time(9, 30, 0, 123457), close=dt.time(16, 0))
    assert odd.bounds_ns(dt.date(2007, 3, 5)) == (
        calendar.timegm((2007, 3, 5, 9, 30, 0)) * NS + 123_457_000,
        calendar.timegm((2007, 3, 5, 16, 0, 0)) * NS,
    )
    # New York opens at 14:30 UTC before the 2007 switch to daylight time
    # and at 13:30 UTC after it
    ny = Session(open=dt.time(9, 30), close=dt.time(16, 0), timezone="America/New_York")
    assert ny.bounds_ns(dt.date(2007, 3, 9))[0] == calendar.timegm((2007, 3, 9, 14, 30, 0)) * NS
    assert ny.bounds_ns(dt.date(2007, 3, 12)) == (
        calendar.timegm((2007, 3, 12, 13, 30, 0)) * NS,
        calendar.timegm((2007, 3, 12, 20, 0, 0)) * NS,
    )


def test_sessionize_splits_days_and_drops_outside():
    session = Session(open=dt.time(10, 0), close=dt.time(11, 0))
    base = int(dt.datetime(2024, 1, 2, tzinfo=dt.timezone.utc).timestamp()) * NS

    def at(day, hour, minute):
        return base + day * 86_400 * NS + (hour * 3600 + minute * 60) * NS

    ticks = Ticks(
        timestamps_ns=[
            at(0, 9, 59),  # before open: dropped
            at(0, 10, 0),
            at(0, 11, 0),  # close is inclusive
            at(1, 10, 30),
            at(1, 11, 1),  # after close: dropped
        ],
        prices=[100, 101, 102, 103, 104],
        volumes=np.arange(1, 6),
        kinds=np.array([b"T", b"Q", b"T", b"Q", b"T"]),
    )
    out = sessionize(ticks, session)
    assert out.session_boundaries == (0, 2)
    assert out.dropped == 2
    assert out.prices.tolist() == [101, 102, 103]
    assert out.volumes.tolist() == [2, 3, 4]
    assert out.kinds.tolist() == [b"Q", b"T", b"Q"]
    # each day opens at the session open of its own date, 2024-01-02 and -03
    assert out.session_open_ns == (at(0, 10, 0), at(1, 10, 0))

    only_day_two = sessionize(ticks, Session(dt.time(10, 0), dt.time(11, 0), date=dt.date(2024, 1, 3)))
    assert only_day_two.prices.tolist() == [103]
    assert (only_day_two.session_open_ns, only_day_two.dropped) == ((at(1, 10, 0),), 4)
    # a second split drops nothing more and keeps the count
    assert sessionize(out, session).dropped == 2
    none_kept = sessionize(ticks, Session(dt.time(12, 0), dt.time(13, 0)))
    assert (len(none_kept), none_kept.session_boundaries, none_kept.dropped) == (0, (0,), 5)
    with pytest.raises(EmptyDay):
        resample(none_kept, interval_ns=NS)


def test_ticks_that_go_back_in_time_are_refused():
    d = int(dt.datetime(2024, 1, 2, 10, tzinfo=dt.timezone.utc).timestamp()) * NS
    stamps, session = [d + 86_400 * NS, d + 600 * NS, d + 1200 * NS], Session(dt.time(9, 0), dt.time(17, 0))
    # as one day; sessionize once kept none of them and counted all three dropped
    with pytest.raises(ValueError, match="non-decreasing within each day"):
        Ticks(stamps, [3, 1, 2])
    # each day in order, but sessionize searches all the stamps as one sorted array
    with pytest.raises(ValueError, match="non-decreasing across days"):
        sessionize(Ticks(stamps, [3, 1, 2], session_boundaries=(0, 1)), session)


def test_ticks_refuse_an_open_after_the_days_first_stamp():
    # entry seconds count from the open: these ticks would enter at -2, -1,
    # 0 and 1 s, and the entry-time bins dropped the first two unreported
    with pytest.raises(ValueError, match="day 0: session open 2000000000.0 is later"):
        Ticks([0, 1e9, 2e9, 3e9, 4000e9], [0, 1, 2, 3, 4], session_open_ns=(2e9,))
    with pytest.raises(ValueError, match="day 1: session open 11 is later than its first stamp 10"):
        Ticks([0, 5, 10, 15], [0, 1, 2, 3], session_boundaries=(0, 2), session_open_ns=(0, 11))
    # an open at the first stamp, and an empty last day's None, are kept
    ticks = Ticks([0, 5, 10], [0, 1, 2], session_boundaries=(0, 2, 3), session_open_ns=(0, 10, None))
    assert ticks.session_open_ns == (0, 10, None)


def test_ticks_refuse_no_open_for_a_day_with_ticks():
    with pytest.raises(ValueError, match="day 0: session open None, but the day has ticks from 0"):
        Ticks([0, 5], [1, 2], session_open_ns=(None,))
    with pytest.raises(ValueError, match="day 1: session open None, but the day has ticks from 10"):
        Ticks([0, 5, 10], [0, 1, 2], session_boundaries=(0, 2), session_open_ns=(0, None))


def test_resample_previous_tick_and_backfill():
    ticks = Ticks(
        timestamps_ns=[int(0.5 * NS), int(1.2 * NS), int(2.8 * NS)],
        prices=[10, 11, 12],
        session_open_ns=(0,),
    )
    series = resample(ticks, interval_ns=NS)
    # grid 0,1,2: back-fill, then last price at or before each point, in ticks
    assert series.values.tolist() == [10.0, 10.0, 11.0]
    assert series.session_boundaries == (0,)
    assert series.timestamps_ns.tolist() == [0, NS, 2 * NS]


def test_resample_multi_day_boundaries():
    ticks = Ticks(
        timestamps_ns=[NS, 3 * NS, 10 * NS, 12 * NS],
        prices=[1, 2, 5, 6],
        session_boundaries=(0, 2),
    )
    # each day's grid runs from its open, here its first tick, to its last tick
    series = resample(ticks, interval_ns=NS)
    assert series.session_boundaries == (0, 3)
    assert series.values.tolist() == [1.0, 1.0, 2.0, 5.0, 5.0, 6.0]
    with pytest.raises(EmptyDay):
        resample(Ticks(timestamps_ns=[], prices=[]), interval_ns=NS)
    with pytest.raises(ValueError):
        resample(ticks, interval_ns=0)


def test_regular_series_validation():
    with pytest.raises(ValueError):
        RegularSeries(start_ns=0, interval_ns=0, values=[1.0])
    with pytest.raises(ValueError):
        RegularSeries(start_ns=0, interval_ns=1, values=[])
    with pytest.raises(ValueError):
        RegularSeries(start_ns=0, interval_ns=1, values=[1.0, 2.0], session_boundaries=(1, 0))


@pytest.mark.parametrize("bounds", [(), (3,), (0, 5, 3), (0, 5, 5), (0, 20), (1, 0)])
def test_one_day_index_rule(bounds):
    # RegularSeries, Ticks and ImbalanceSeries index ten rows' days alike
    make = [
        lambda b: RegularSeries(start_ns=0, interval_ns=1, values=np.zeros(10), session_boundaries=b),
        lambda b: Ticks(timestamps_ns=np.arange(10), prices=np.zeros(10), session_boundaries=b),
        lambda b: ImbalanceSeries(values=np.zeros(10), session_boundaries=b),
    ]
    for series in make:
        with pytest.raises(ValueError, match="session_boundaries"):
            series(bounds)
        for good in ((0,), (0, 5), (0, 5, 10)):  # a last day may be empty
            assert series(list(good)).session_boundaries == good


def test_tick_sizes_at_the_edges_of_the_bound():
    # a coarse, a fine and a long tick size that still give a nonzero
    # 19-digit price an int64 tick count, and one with 300k trailing zeros
    m = 1999999999999999999
    for tick, price, ticks in (
        ("1e18", "1000000000000000000", 1),
        ("2e-37", "0.000000000000000001", 5 * 10**18),
        (f"{m * 5**62}e-80", "1.999999999999999999", 2**62),  # 62 significant digits
        ("1." + "0" * 300_000, "7", 7),
    ):
        assert parse_ticks(f"# tick_size={tick}\n1,{price},T,1\n")[0].prices.tolist() == [ticks]
        assert parse_book(f"# tick_size={tick} depth=1\n1,0,{price},1,,\n")[0].bid_px[0, 0] == ticks


def test_regular_series_roundtrip():
    series = RegularSeries(
        start_ns=5,
        interval_ns=3,
        values=[1.5, -2.25, 0.1, 7.0],
        session_boundaries=(0, 2),
    )
    back = parse_regular_series(serialize_regular_series(series))
    assert back.start_ns == 5 and back.interval_ns == 3
    assert np.array_equal(back.values, series.values)
    assert back.session_boundaries == (0, 2)


def test_regular_series_grid_stays_in_int64():
    # a grid whose last stamp leaves int64 wrapped silently on output
    with pytest.raises(ValueError, match="int64"):
        RegularSeries(start_ns=0, interval_ns=2**62, values=[0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="int64"):
        RegularSeries(start_ns=-(2**63) - 1, interval_ns=1, values=[0.0])
    for start, step in ((2**63 - 1 - 2 * 2**61, 2**61), (-(2**63), 2**62)):
        series = RegularSeries(start_ns=start, interval_ns=step, values=[0.0, 1.0, 2.0])
        back = parse_regular_series(serialize_regular_series(series))
        assert back.start_ns == start and back.interval_ns == step
        assert back.timestamps_ns.tolist() == [start, start + step, start + 2 * step]
        assert np.array_equal(back.values, series.values)
    # an interval beyond int64, which the grid of two rows allows
    series = RegularSeries(start_ns=-(2**63), interval_ns=2**64 - 1, values=[0.0, 1.0])
    back = parse_regular_series(serialize_regular_series(series))
    assert (back.start_ns, back.interval_ns) == (-(2**63), 2**64 - 1)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=50
    ),
    interval=st.integers(min_value=1, max_value=10**9),
)
def test_regular_series_roundtrip_property(values, interval):
    series = RegularSeries(start_ns=0, interval_ns=interval, values=values)
    back = parse_regular_series(serialize_regular_series(series))
    assert np.array_equal(back.values, series.values)  # repr round trip is exact
    if len(values) > 1:
        assert back.interval_ns == interval


def test_parse_regular_series_rejects_garbage():
    with pytest.raises(MalformedRow):
        parse_regular_series("")
    with pytest.raises(MalformedRow):
        parse_regular_series("1,2,3\n")
    with pytest.raises(MalformedRow):
        parse_regular_series("1,abc\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("0,1\n10,2\n11,3\n500,4\n", 3),  # off the grid 0 + k * 10
        ("0,1\n10,2\n20,3\n35,4\n40,5\n", 4),
        ("0,1\n10,2\n20,3\n", None),
        ("0,1\n0,2\n", 2),  # no positive interval
        ("10,1\n5,2\n", 2),
        ("0,1\n10,nan\n20,3\n", 2),
        ("# c\n\n0,1\n10,2\n\n20,-inf\n", 6),  # comments and blanks keep their numbers
        ("0,inf\n", 1),
        ("0,1\n10,2\n25,nan\n", 3),
        ("0,1\n10,nan\n25,3\n", 2),  # the first bad row, whatever its fault
        (f"{2**63},1\n", 1),  # a timestamp beyond int64 is a bad numeric field
        (f"0,1\n{2**63 - 1},2\n", None),
        (f"{-2**63},1\n0,2\n{2**63 - 1},3\n", 3),  # a spread beyond int64
        (f"{-2**63},1\n{2**63 - 1},2\n", None),  # a step beyond int64
        (f"{-2**63},1\n{2**63 - 1},2\n{2**63 - 1},3\n", 3),
        (f"0,1\n{2**62 + 1},2\n{2 - 2**63},3\n", 3),  # on the grid only modulo 2**64
        ("0,1\nx,2\n2,y\n", 2),  # a bad timestamp before a bad value
        ("0,1\n1,2\n# session_boundaries=0;x\n", 3),  # footers: not integers,
        ("0,1\n1,2\n# session_boundaries=0;5\n", 3),  # past the data,
        ("0,1\n1,2\n# session_boundaries=1\n", 3),  # not starting at 0,
        ("0,1\n1,2\n\n# session_boundaries=\n", 4),  # empty
        ("0,1\n1,2\n# session_boundaries=0;x\n3,4\n", 4),  # rows are checked first
        ("# session_boundaries=0;1\n0,1\n1,2\n", None),
    ],
)
def test_parse_regular_series_rejects_off_grid_and_non_finite_rows(text, line):
    if line is None:
        parse_regular_series(text)
        return
    with pytest.raises(MalformedRow) as exc:
        parse_regular_series(text)
    assert exc.value.line == line


@pytest.mark.parametrize("stamp", ["+1", "1_0", " 5", "5 ", "\u0661\u0662", "1.0", "1e3", str(2**63), str(-(2**63) - 1)])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_regular_series_timestamps_are_read_by_the_kernels_grammar(stamp, row):
    """A timestamp is ASCII -?digits within int64, as in tick and book
    files; any other cell, even one that int() reads, is a bad numeric
    field at its line."""
    cells = ["0", "1", "2"]
    cells[row] = stamp
    text = "# c\n" + "".join(f"{t},{k}.5\n" for k, t in enumerate(cells))
    with pytest.raises(MalformedRow, match="bad numeric field") as err:
        parse_regular_series(text)
    assert err.value.line == row + 2


def test_regular_series_timestamps_reach_both_ends_of_int64():
    for text in (f"{-(2**63)},1\n{-(2**63) + 5},2\n", f"{2**63 - 6},1\n{2**63 - 1},2\n"):
        back = parse_regular_series(text)
        assert back.timestamps_ns.tolist() == [int(t.split(",")[0]) for t in text.split()]


@pytest.mark.parametrize(
    "text, line",
    [
        ("0,nan\n10,2\n20,3\n", 1),  # row 0 is judged once row 1 gives the step
        (f"{2**63},1\n{2**63 + 10},2\n", 1),
        (f"{2**63},1\n0,2\n", 1),  # a bad numeric field comes before the interval
        ("0,nan\n0,2\n", 1),  # a non-finite row 0 comes before it
        ("0,1\n10,inf\n20,3\n", 2),
        ("0,1\n10,2\n21,3\n", 3),
        ("0,1\n10,2\n20,3\n", None),
    ],
)
def test_grid_faults_are_found_whatever_block_holds_rows_0_and_1(text, line):
    outcomes = []
    for block in (1, 2, market_data._BLOCK_LINES):
        with mock.patch.object(market_data, "_BLOCK_LINES", block):
            outcomes.append(_read(parse_regular_series, text))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][:2] == ([0, 10] if line is None else (MalformedRow, line))  # start and step


# ------------------------------------------- regular series against reference

# Where the columnar reader differs from the row-by-row one on purpose, and
# how the property below leaves each difference out:
# * a bad "# session_boundaries=" footer is a MalformedRow at its line, found
#   after every data row is checked (the reference raised a bare ValueError
#   as it met it): _reference_outcome expects that;
# * only "\n" and "\r\n" end lines; str.splitlines also broke lines at a lone
#   "\r", "\v", "\f", "\x1c"-"\x1e", "\x85", "\u2028" and "\u2029";
# * a blank line holds only spaces, tabs and "\r"; str.strip also dropped the
#   other whitespace characters.
# The texts drawn hold none of the characters of the last two.
_FOOTER = re.compile(r"#\s*session_boundaries=.*")


def _regular_outcome(parse, text):
    try:
        series = parse(text)
    except MalformedRow as exc:
        return MalformedRow, exc.line
    values = series.values.view(np.int64).tolist()  # bit for bit: -0.0 is not 0.0
    return series.start_ns, series.interval_ns, values, series.session_boundaries


def _reference_outcome(text):
    """The reference's outcome, with a bad footer a MalformedRow at its line
    once the data rows, read without it, raise nothing."""
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if _FOOTER.fullmatch(line.rstrip("\r\n"))]
    assert len(at) <= 1
    if not at:
        return _regular_outcome(_reference_regular.parse_regular_series, text)
    ending = lines[at[0]][len(lines[at[0]].rstrip("\r\n")) :]
    bare = "".join(lines[: at[0]] + ["#" + ending] + lines[at[0] + 1 :])
    got = _regular_outcome(_reference_regular.parse_regular_series, bare)
    if got[0] is MalformedRow:
        return got
    try:
        return _regular_outcome(_reference_regular.parse_regular_series, text)
    except ValueError:  # the footer's, bare in the reference
        return MalformedRow, at[0] + 1


finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals, exponent reprs, 17 digits
    st.integers(-(10**6), 10**6).map(float),
    st.integers(-(10**12), 10**12).map(lambda k: k / 1000),  # short decimals
    st.sampled_from([-0.0, 0.0, 5e-324, 2.0**53, 2.0**53 + 2, 1e16, 1e22, 1e23, 0.1, 1 / 3]),
)


@st.composite
def regular_texts(draw):
    """Files as serialize_regular_series writes them: one to 40 rows, day
    boundaries, \n or \r\n endings, and a last line with or without one."""
    values = draw(st.lists(finite_values, min_size=1, max_size=40))
    interval = draw(st.sampled_from([1, 7, 10**9, 2**40]))
    reach = (len(values) - 1) * interval
    start = draw(st.integers(-(2**63), 2**63 - 1 - reach))
    days = draw(st.lists(st.integers(1, len(values) - 1), max_size=3)) if len(values) > 1 else []
    series = RegularSeries(start, interval, values, (0, *sorted(set(days))))
    text = serialize_regular_series(series)
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text if draw(st.booleans()) else text[: -2 if text.endswith("\r\n") else -1]


@settings(max_examples=150, deadline=None)
@given(text=regular_texts(), block=block_lines)
def test_parse_regular_series_matches_row_by_row_reference(text, block):
    with mock.patch.object(market_data, "_BLOCK_LINES", block):
        got = _regular_outcome(parse_regular_series, text)
        assert _regular_outcome(parse_regular_series, text.encode()) == got
    assert got == _reference_outcome(text)
    assert got[0] is not MalformedRow


# ---------------------------------------------- regular series writer

# Whole values below 1e16 in magnitude are written by the digit kernel, all
# others by repr: these lie on both sides of that edge.
whole_values = st.one_of(
    st.integers(-(10**6), 10**6).map(float),
    st.integers(-(2**53), 2**53).map(float),
    st.sampled_from([-0.0, 0.0, 9999999999999998.0, -9999999999999998.0, 1e16, -1e16, 2.0**53, -(2.0**53)]),
)


@st.composite
def written_series(draw):
    """Series of runs of whole values and of any finite values, so that one
    series holds blocks of both kinds; grids anywhere in int64, up to its
    edges; and day boundaries."""
    run = st.lists(whole_values, min_size=1, max_size=6) | st.lists(finite_values, min_size=1, max_size=6)
    runs = draw(st.lists(run, min_size=1, max_size=6))
    values = [v for run in runs for v in run]
    step = draw(st.sampled_from([1, 7, 10**9]) | st.integers(1, min(2**63 - 1, (2**64 - 1) // max(len(values) - 1, 1))))
    reach = (len(values) - 1) * step
    start = draw(st.sampled_from([-(2**63), 2**63 - 1 - reach]) | st.integers(-(2**63), 2**63 - 1 - reach))
    days = draw(st.lists(st.integers(1, len(values) - 1), max_size=3)) if len(values) > 1 else []
    return RegularSeries(start, step, values, (0, *sorted(set(days))))


@settings(max_examples=300, deadline=None)
@given(series=written_series(), block=st.sampled_from([1, 2, 3, 5, market_data._BLOCK_LINES]))
@example(RegularSeries(-5, 3, [-0.0, 1.0, 0.5, 9999999999999998.0, -1e16, -(2.0**53), 7.0], (0, 3)), 2)
@example(RegularSeries(2**63 - 1 - 2 * 2**61, 2**61, [0.0, -1.0, 2.0]), 1)
@example(RegularSeries(-(2**63), 2**62, [0.0, 1.0, 2.5]), 2)
def test_serialize_regular_series_matches_the_frozen_writer(series, block):
    with mock.patch.object(market_data, "_BLOCK_LINES", block):
        assert serialize_regular_series(series) == _reference_regular.serialize_regular_series(series)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_serialize_regular_series_refuses_a_value_that_is_not_finite(bad):
    # the reader refuses such a value, so the writer does not write it
    with pytest.raises(ValueError, match=f"row 2: value {bad!r} is not finite"):
        serialize_regular_series(RegularSeries(0, 1, [1.0, 2.5, bad, np.nan]))


# Cells that only float() takes, cells no one takes, and the edges of
# the fast path: 16 to 19 digits, int64 and 2**53.
odd_cells = st.one_of(
    st.sampled_from([
        "", "abc", "1.2.3", "--1", "-", ".", "5.", ".5", "1e5", "1E-3", "0x10", "nan", "NaN", "-inf",
        "inf", "1_0", "1__0", " 1.5", "1.5 ", "\t2", "+1", "-0", "-0.0", "007", "1.0", "\u0661\u0662",
        "\u00e9", "#", str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), str(10**30),
        str(2**53), str(2**53 + 1), "9007199254740993.5", "1234567890.123456789",
        "0.0000000000000000001", "99999999999999999999",
    ]),
    st.integers(-(2**64), 2**64).map(str),
    st.tuples(st.integers(-(10**19), 10**19), st.integers(0, 19)).map(
        lambda t: format(Decimal(t[0]).scaleb(-t[1]), "f")
    ),
)


@st.composite
def corrupt_regular_texts(draw):
    """A valid file with one to three faults: an odd or non-finite cell, a
    wrong field count, a timestamp off the grid, repeated or beyond int64,
    a blank line, an interior comment, or a changed or missing footer."""
    lines = draw(regular_texts()).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        rows = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
        i = draw(st.sampled_from(rows or [0]))
        end = "\r" if lines[i].endswith("\r") else ""
        cells = lines[i].rstrip("\r").split(",")
        fault = draw(st.sampled_from(["cell", "fields", "stamp", "insert", "footer"]))
        if fault == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(odd_cells)
        elif fault == "fields":
            cells = cells[:1] if draw(st.booleans()) else cells + [draw(odd_cells)]
        elif fault == "stamp" and re.fullmatch(r"-?[0-9]+", cells[0]):
            t = int(cells[0])
            cells[0] = str(draw(st.sampled_from([t + 1, t - 1, t, 0, 2**63, -(2**63) - 1, t + 2**64])))
        if fault in ("cell", "fields", "stamp"):
            lines[i] = ",".join(cells) + end
        elif fault == "insert":
            extra = draw(st.sampled_from(["", " ", "\t", " \t ", "# note", "#", "#,1,2", "# 1,2"]))
            lines.insert(draw(st.integers(0, len(lines))), extra + end)
        else:
            foot = [k for k, line in enumerate(lines) if line.startswith("# session_boundaries=")]
            tails = ["0;x", "0;5", "1", "", "0;2;1", "0;0", " 0 ; 1", "0;+1", "0;1_0", None]
            tail = draw(st.sampled_from(tails))
            if foot and tail is None:
                del lines[foot[0]]
            elif foot:
                lines[foot[0]] = "# session_boundaries=" + tail + end
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(text=corrupt_regular_texts(), block=block_lines)
def test_corrupt_regular_series_fails_like_reference(text, block):
    with mock.patch.object(market_data, "_BLOCK_LINES", block):
        got = _regular_outcome(parse_regular_series, text)
        assert _regular_outcome(parse_regular_series, text.encode()) == got
    assert got == _reference_outcome(text)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.one_of(odd_cells, finite_values.map(repr)), min_size=1, max_size=20))
@example(cells=[str(-(2**63)), str(2**63 - 1)])  # the kernel's int64 edges
def test_value_cells_read_as_float_reads_them(cells):
    """Every value cell reads as float(cell) does, bit for bit, or its row
    is a MalformedRow."""
    text = "".join(f"{k},{cell}\n" for k, cell in enumerate(cells))
    try:
        want = np.array([float(cell) for cell in cells])
    except ValueError:
        with pytest.raises(MalformedRow):
            parse_regular_series(text)
        return
    if not np.isfinite(want).all():
        with pytest.raises(MalformedRow):
            parse_regular_series(text)
        return
    got = parse_regular_series(text).values
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# ------------------------------------------------ a stream of chunks cut anywhere


@st.composite
def tick_texts(draw):
    """Tick files as serialize_ticks writes them, one to 30 rows."""
    rows = draw(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=-10_000, max_value=10_000),
            st.sampled_from([b"Q", b"T"]),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=30,
    ))
    gaps, prices, kinds, volumes = zip(*rows)
    ticks = Ticks(np.cumsum(gaps), prices, np.array(volumes), np.array(kinds, dtype="S1"))
    return serialize_ticks(ticks, Decimal("0.01"))


@st.composite
def spoiled(draw, texts):
    """A text of ``texts``, maybe with a cell swapped for a corrupt one and
    a line of multi-byte characters inserted, with \\n or \\r\\n line ends."""
    lines = draw(texts).split("\n")
    if draw(st.booleans()):
        i = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(corrupt_cells)
        lines[i] = ",".join(cells)
    if draw(st.booleans()):
        extra = draw(st.sampled_from(["# caf\u00e9", "\u00e9,\u20ac", "# \U0001f600"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def _read(parse, data):
    """A reader's columns and other results, or its error's class, line
    and message."""
    try:
        got = parse(data)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)
    obj, rest = (got, ()) if isinstance(got, RegularSeries) else (got[0], got[1:])
    parts = [getattr(obj, f.name) for f in dataclasses.fields(obj)] + list(rest)
    return [p.tobytes() if isinstance(p, np.ndarray) else p for p in parts]


READER_TEXTS = {
    parse_regular_series: st.one_of(regular_texts(), corrupt_regular_texts()),
    parse_book: book_texts(min_rows=1),
    parse_ticks: tick_texts(),
}


@pytest.mark.parametrize("parse", list(READER_TEXTS), ids=lambda parse: parse.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data(), block=block_lines)
def test_readers_read_a_stream_of_chunks_like_one_buffer(parse, data, block):
    """Chunks cut anywhere, a header, a "\\r\\n" or a UTF-8 sequence split
    included, give the columns or the error (class, line and message) of
    the whole bytes."""
    raw = data.draw(spoiled(READER_TEXTS[parse])).encode()
    chunks = data.draw(chunked(raw))
    with mock.patch.object(market_data, "_BLOCK_LINES", block):
        assert _read(parse, iter(chunks)) == _read(parse, [raw])
