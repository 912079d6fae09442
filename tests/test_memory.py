"""Memory that the regular-series reader, the crossing index, its queries,
the binning of their results, the ``relax`` subcommand and the sliding
Hurst estimator take per row, the chunks the readers let go of, and the
pages and workspace cells that the sliding Hurst estimator touches.

``tracemalloc`` sees numpy's buffers as well as Python's objects, so its
peak is the whole working set of a call.  The input is built before
tracing starts and handed over as a stream of chunk-sized views, so only
what the reader allocates is counted.
"""

import resource
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

import _reference_hurst
from tickphys import (
    CrossingIndex,
    DfaConfig,
    FbmSpec,
    RegularSeries,
    cli,
    entry_time_distribution,
    gen_brownian,
    gen_fbm,
    gen_tick_walk,
    hurst,
    invstat,
    local_hurst,
    log_bin,
    market_data,
    parse_book,
    parse_regular_series,
    parse_ticks,
    serialize_regular_series,
)

NS = 1_000_000_000
MIB = 1 << 20


def _walk(rows: int, seed: int = 0) -> np.ndarray:
    """A rounded Gaussian walk of sigma 4 ticks per step, as the invstat
    benchmark's."""
    return np.rint(np.cumsum(np.random.default_rng(seed).normal(0.0, 4.0, rows)))


def _index_keys(values, bounds) -> list:
    """Per day, ``(bytes per key, keys)`` of its "up" index: an entry key
    per row and a ladder key per level that its upward moves pass, 4
    bytes each when the day's price range times its rows is at most
    2**32, else 8."""
    bounds = (*bounds, values.size)
    days = []
    for a, b in zip(bounds, bounds[1:]):
        day = values[a:b]
        width = 4 if (day.max() - day.min() + 1) * day.size <= 2**32 else 8
        days.append((width, day.size + int(np.maximum(np.diff(day), 0).sum())))
    return days


def _index_bytes(values, bounds) -> int:
    return sum(width * keys for width, keys in _index_keys(values, bounds))


def _traced(call):
    """``(result, peak bytes, bytes still held)`` of ``call()`` under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


def test_parse_regular_series_peak_is_its_value_column_plus_a_constant():
    """The reader keeps one float64 per row, in per-block arrays that are
    joined once at the end: 16 bytes per row at that moment.  Everything
    else is chunk- or block-sized: the bytes of the lines that wait for the
    next chunk, one run of whole blocks, and one block's cells, which
    together stay below 8 MiB at 2 MiB chunks and 8192-line blocks.  So
    the peak is bounded by 17 bytes per row plus 8 MiB at both sizes; a
    reader that held the file (about 22 bytes per row here), a stamp
    column or a line-number column (8 bytes per row each) would exceed it
    at 1e6 rows.
    """
    for rows in (250_000, 1_000_000):
        values = _walk(rows)
        text = "".join(f"{k * NS},{v!r}\n" for k, v in enumerate(values.tolist()))
        data = memoryview(text.encode())
        del text
        step = market_data._CHUNK_BYTES
        chunks = (data[i : i + step] for i in range(0, len(data), step))
        series, peak, _ = _traced(lambda: parse_regular_series(chunks))
        assert series.values.tobytes() == values.tobytes()
        assert peak <= 17 * rows + 8 * MIB, (rows, peak / rows)


def test_serialize_regular_series_peak_is_below_three_times_its_text():
    """The writer holds its rows as bytes, block by block, joins them once
    and lets the parts go before it decodes the text: about twice the
    text's length at its peak, when the parts and their join, or the join
    and the text, are held.  A writer that made one str per row before
    joining them took 8.0 times the text on this walk.
    """
    series = RegularSeries(0, 1, gen_tick_walk(1_000_000, seed=0).astype(float))
    text, peak, _ = _traced(lambda: serialize_regular_series(series))
    assert peak <= 3 * len(text), peak / len(text)


def test_crossing_index_keeps_only_its_keys():
    """Per day and side the index keeps the sorted ladder keys, one per
    level an upward move passes, and the sorted entry keys, one per row.
    Every key is below the day's price range times its rows, which is at
    most 2**32 on both days of this walk (0.60 and 0.54 of it), so each
    key is a uint32: 4 * (rows + ladder keys) bytes, 10.4 bytes per row.
    int64 keys on a day that fits would double it, and an entry-time
    column kept beside the entry keys, or a wall-clock stamp per row,
    would add 8 bytes per row each."""
    rows = 1_000_000
    values = _walk(rows, seed=1)
    series = RegularSeries(start_ns=0, interval_ns=NS, values=values, session_boundaries=(0, rows // 2))
    days = _index_keys(values, series.session_boundaries)
    assert [width for width, _ in days] == [4, 4]
    index, _, held = _traced(lambda: CrossingIndex(series, "up"))
    assert held <= 4 * sum(keys for _, keys in days) + 64 * 1024, held / rows
    assert index.exit_times(8, "wall").n_entries == rows


def test_crossing_index_build_holds_one_day_beside_what_it_keeps():
    """A series is turned into int64 ticks one day at a time, as its
    ladders are built, so beside the keys of the days before, the build
    holds only the day at hand: its int64 prices and levels, 16 bytes
    per row, and then either the ladder's running sums beside its keys
    (the index of each move up, its length, its jump to the next move
    and that jump's place in the keys: 4 int64 per move, one move per
    two rows on a walk, 16 bytes per row) or, as the entry keys are
    formed, the row times (4 bytes per row of a uint32 day).  The entry
    keys, which the index keeps, come only after the running sums are
    gone, so the build holds at most 16 + 16 - 4 = 28 bytes per row of
    the day beyond the keys it keeps (24 on a day of int64 keys).  Every
    day here fits uint32 keys, the single day of 1e6 rows too (0.85 of
    2**32), so the peak is bounded by 4 * (rows + ladder keys) + 28
    bytes per row of the longest day plus 2 MiB.  Converting the whole
    series first would add 8 bytes per row of the other days, and a
    full-size difference of the levels kept through the ladder, another
    8 bytes per row of the day.
    """
    rows = 1_000_000
    values = _walk(rows, seed=3)
    for days in (1, 2, 4):
        bounds = tuple(range(0, rows, rows // days))
        series = RegularSeries(start_ns=0, interval_ns=NS, values=values, session_boundaries=bounds)
        index = _index_bytes(values, bounds)
        _, peak, _ = _traced(lambda: CrossingIndex(series, "up"))
        assert peak <= index + 28 * (rows // days) + 2 * MIB, (days, (peak - index) / (rows // days))


def test_exit_times_holds_one_day_of_exits_beside_its_outputs():
    """A query writes three columns of 8 bytes for every entry (tau,
    entry_index, entry_second; the resolved ones are filled, the
    censored leave a tail) and holds one day's exits in time order, 8
    bytes per row of the longest day.  Every other array it makes is one
    slice long: needles, search positions, gathered keys, entry times,
    the other side's exits, exit and entry stamps and the rounding to
    whole seconds, at most 12 int64 columns of ``_SLICE`` entries.  So
    its peak is bounded by 24 bytes per entry + 8 per row of the longest
    day + 12 * 8 * _SLICE bytes (6 MiB).  A search over a whole day at
    once would hold its needles, positions, keys and times, 32 bytes per
    row of the day more.
    """
    rows = 1_000_000
    values = _walk(rows, seed=4)
    series = RegularSeries(start_ns=0, interval_ns=NS, values=values, session_boundaries=(0, rows // 2))
    for direction in ("up", "both"):
        index = CrossingIndex(series, direction)
        exits, peak, _ = _traced(lambda: index.exit_times(8, "wall"))
        assert exits.n_entries == rows
        bound = 24 * rows + 8 * (rows // 2) + 12 * 8 * invstat._SLICE
        assert peak <= bound, (direction, (peak - 24 * rows) / (rows // 2))


def test_a_query_promotes_no_key_array():
    """As above with slices of 4096 entries, so that an array of a whole
    day's keys shows beside the slices' 384 KiB: the needles, the scalar
    that cuts off the entries that cannot cross and the ladder keys share
    one dtype, so no search promotes the uint32 keys to an int64 copy, 8
    bytes per key, as numpy does when the needles are int64."""
    rows = 1_000_000
    values = _walk(rows, seed=4)
    series = RegularSeries(start_ns=0, interval_ns=NS, values=values, session_boundaries=(0, rows // 2))
    for direction in ("up", "both"):
        index = CrossingIndex(series, direction)
        with mock.patch.object(invstat, "_SLICE", 4096):
            exits, peak, _ = _traced(lambda: index.exit_times(8, "wall"))
        assert exits.n_entries == rows
        bound = 24 * rows + 8 * (rows // 2) + 12 * 8 * 4096 + 64 * 1024
        assert peak <= bound, (direction, (peak - 24 * rows - 8 * (rows // 2)) / 1024)


def test_horizon_keeps_one_column_of_waiting_times():
    """``_horizon``, the per-threshold step of ``invstat`` and
    ``horizon_scaling``, reduces its query as the slices come: it keeps
    the resolved waiting times, one int64 column of 8 bytes per entry,
    and the entry seconds' bin counts, a few hundred 1800 s bins.  Beside
    them it holds one day's exits in time order, 8 bytes per row of the
    longest day, the query's slices (6 MiB, as above) and the binning's
    blocks, the density and the fit, within 1 MiB.  A step that kept the
    exits, 24 bytes per entry, would hold 15 MiB more."""
    rows = 1_000_000
    values = _walk(rows, seed=4)
    series = RegularSeries(start_ns=0, interval_ns=NS, values=values, session_boundaries=(0, rows // 2))
    for direction in ("up", "both"):
        index = CrossingIndex(series, direction)
        (row, _, entries), peak, _ = _traced(lambda: invstat._horizon(index, 32, "wall", 10, 100, 1800.0))
        assert row.n_resolved + row.n_censored == rows and entries[1].sum() == row.n_resolved
        bound = 8 * rows + 8 * (rows // 2) + 12 * 8 * invstat._SLICE + MIB
        assert peak <= bound, (direction, (peak - 8 * rows) / (rows // 2))


def test_binning_makes_no_copy_of_its_samples():
    """``log_bin`` bins int64 waiting times as they are, and
    ``entry_time_distribution`` bins entry seconds that are all finite
    as they are; ``np.histogram`` sorts and casts the first a block of
    65536 at a time, and the second sorts a slice of 65536 at a time
    itself.  Only a finiteness mask of one byte per sample is made
    whole.  So each peak is bounded by 2 bytes per sample plus 2 MiB; a
    float copy of the samples would add 8 bytes per sample.
    """
    rows = 1_000_000
    values = _walk(rows, seed=5)
    series = RegularSeries(start_ns=0, interval_ns=NS, values=values, session_boundaries=(0, rows // 2))
    exits = CrossingIndex(series, "up").exit_times(8, "wall")
    for call in (
        lambda: log_bin(exits.tau, 10, censored_count=exits.censored_count),
        lambda: entry_time_distribution(exits, 1800.0),
    ):
        _, peak, _ = _traced(call)
        assert peak <= 2 * exits.tau.size + 2 * MIB, peak / exits.tau.size


def test_invstat_holds_the_index_and_one_thresholds_exits(tmp_path):
    """The whole ``invstat`` subcommand on a two-day file: the reader's
    peak is 17 bytes per row plus 8 MiB (see above) and the index build's
    the series (8 bytes per row), the index and 28 bytes per row of one
    day (see above).  The series is let go once the index is built, so
    the queries hold the index, 4 * (rows + ladder keys) bytes on these
    days, one threshold's waiting times, 8 bytes per row, and one day's
    exit map, 8 bytes per row of that day, plus a query's slices, the
    binning's blocks and the artifacts, within 6 MiB.  So the build sets
    the peak, bounded by the index, 8 bytes per row and 28 per row of
    the longer day, plus 6 MiB.  A threshold's whole exits kept, 24
    bytes per row, would exceed it;
    ``test_horizon_keeps_one_column_of_waiting_times`` holds the query to
    8.  A series held through the queries would add 8 bytes per row to
    them (7.6 MiB here), which the build's peak hides.
    """
    rows = 1_000_000
    values = _walk(rows, seed=2)
    bounds = (0, rows // 2)
    path = tmp_path / "walk.csv"
    path.write_text(serialize_regular_series(RegularSeries(0, NS, values, bounds)))
    index = _index_bytes(values, bounds)
    del values
    argv = ["invstat", "--input", str(path), "--target", "8", "--clock", "wall", "--out", str(tmp_path / "out")]
    code, peak, _ = _traced(lambda: cli.run(argv))
    assert code == 0
    bound = index + 8 * rows + 28 * (rows // 2) + 6 * MIB
    assert peak <= bound, (peak - bound) / MIB


def _book_text(rows: int) -> str:
    """A depth-3 book at tick 0.01 with prices such as 100.01, as the relax
    benchmark's: uniform level volumes around a mid on a walk."""
    rng = np.random.default_rng(0)
    stamps = np.cumsum(rng.integers(1, 10**8, rows)).tolist()
    trades = rng.poisson(0.6, rows).tolist()
    mids = (10_000 + np.cumsum(rng.integers(-1, 2, rows))).tolist()
    volumes = rng.integers(1, 1000, (rows, 6)).tolist()
    lines = ["# tick_size=0.01 depth=3"]
    for t, c, m, vol in zip(stamps, trades, mids, volumes):
        prices = (m - 1, m - 2, m - 3, m + 1, m + 2, m + 3)
        lines.append(f"{t},{c}," + ",".join(f"{p // 100}.{p % 100:02d},{v}" for p, v in zip(prices, vol)))
    return "\n".join(lines) + "\n"


def test_relax_keeps_the_imbalance_not_the_book(tmp_path):
    """The whole ``relax`` subcommand on a depth-3 book.  Each block is
    reduced as it is read to its stamps, trade deltas and imbalances, 24
    bytes per row, beside the reader's chunks and one block's cells:
    chunk-sized, the chunk the header came in, the chunk being cut and
    the join of its lines with those that wait (2 MiB each, 8 MiB with a
    mask over one); block-sized, a block's cell offsets (14 cells and 13
    commas of 8192 rows, 2.6 MiB) and the gather of one side's price
    cells' bytes, an int64 index per byte of the widest cell (6 bytes of
    24576 cells, twice: 2.3 MiB), within 8 MiB.  The blocks are joined once
    read, 24 bytes per row beside the blocks', and the relaxation search
    holds the series and up to three float columns of its own: 48 bytes
    per row either way.  So the peak is bounded by 48 bytes per row plus
    16 MiB.  A parsed ``Book`` (112 bytes per row at depth 3), held
    beside its blocks at their join, would exceed it at 2.5e5 rows.
    """
    rows = 250_000
    path = tmp_path / "book.csv"
    path.write_text(_book_text(rows))
    argv = ["relax", "--input", str(path), "--kappa", "0.2,0.4,0.6", "--depth", "3", "--out", str(tmp_path / "out")]
    code, peak, _ = _traced(lambda: cli.run(argv))
    assert code == 0
    assert peak <= 48 * rows + 16 * MIB, (peak - 16 * MIB) / rows


def test_horizon_scaling_holds_one_thresholds_exits():
    """``horizon_scaling`` builds one index and queries it threshold by
    threshold, letting each threshold's waiting times go before the next
    query, so its peak is bounded as the ``invstat`` subcommand's above,
    less the series, which the caller holds: the index and the larger of
    the build's 28 bytes per row of one day and the queries' waiting
    times and one day's exit map, plus 6 MiB.  Exits kept across the next
    query would add 24 bytes per row (23 MiB here)."""
    rows = 1_000_000
    values = _walk(rows, seed=6)
    series = RegularSeries(start_ns=0, interval_ns=NS, values=values, session_boundaries=(0, rows // 2))
    index = _index_bytes(values, series.session_boundaries)
    scan, peak, _ = _traced(lambda: invstat.horizon_scaling(series, (8, 16), clock="wall"))
    assert [row.threshold for row in scan] == [8, 16]
    bound = index + max(28 * (rows // 2), 8 * rows + 8 * (rows // 2)) + 6 * MIB
    assert peak <= bound, (peak - bound) / MIB


@pytest.mark.parametrize("parse, header, row", [
    (parse_ticks, "# tick_size=0.01", "{t},100.{c:02d},Q,{v}"),
    (parse_book, "# tick_size=0.01 depth=1", "{t},0,99.{c:02d},{v},101.{c:02d},{v}"),
], ids=["ticks", "book"])
def test_readers_let_go_of_the_chunk_that_held_the_header(parse, header, row):
    """The chunks read to find the header line are handed on to the rows'
    reader and held no longer than the chunks after them: a block's lines
    wait in views of their chunks until the block is whole, and what is
    left over is copied, so the first chunk is gone well before the last
    is read.  Kept to the end of the read, it would hold a whole chunk
    (2 MiB in the CLI) beside the reader's working set."""
    lines = [header] + [row.format(t=k + 1, c=k % 100, v=k % 7 + 1) for k in range(20_000)]
    data = np.frombuffer("\n".join(lines).encode() + b"\n", np.uint8)
    pieces = [data[i : i + 4096].copy() for i in range(0, data.size, 4096)]
    first = weakref.ref(pieces[0])
    alive = []

    def stream():
        while pieces:
            alive.append(first() is not None)
            yield pieces.pop(0)

    assert len(parse(stream())[0]) == 20_000
    assert not alive[-1]


@pytest.mark.parametrize("window, shift, order", [(1024, 1, 1), (4096, 64, 2)])
def test_local_hurst_holds_its_table_and_one_box_sizes_buffers(window, shift, order):
    """``local_hurst`` keeps one float64 per window and box size, its table,
    and turns it into 1/2 log2 F(n) and fits each window in place.  Beside
    the table it holds, throughout, 24 bytes per window (the times and
    the window starts, twice) and the transform of the increments, L/2 + 1
    complex values, 8 L bytes, at the transform length L.  The box sizes
    fitted at every start share one workspace, held through them all and
    as large as the largest of three steps that follow one another at each
    size: the projections, a transform of each of the c = order basis
    columns, complex and then real (16 c L bytes); the moment sums, five
    arrays of 8 bytes per point (the projections' sum of squares, the
    block copy, two running sums, one moment sum) plus one column per
    block in the running sums, beside two block-level arrays outside the
    workspace, 44 bytes per point at boxes of 8; or the window totals, the
    box RSS and their running sums (16 bytes per point) and one first-box
    index and two gathered sums per window (24 bytes per window; the
    bound allows 48).  Small arrays fit in 1 MiB.  At shift 1 that is
    about 1.65 times the table; a second table-sized array (the
    fluctuation function beside its log, or the centred copy of the fit)
    would exceed it, and so would a workspace sized for two box sizes at
    once at shift 64.
    """
    path = gen_brownian(100_000, seed=3)
    config = DfaConfig.for_length(window - 1, poly_order=order)
    hs, peak, _ = _traced(lambda: local_hurst(path, window, shift, config))
    n, w, fft_len = path.size, len(hs), 1 << (path.size - 2).bit_length()
    table = 8 * w * len(config.box_sizes)
    steps = max(16 * order * fft_len, 44 * n, 16 * n + 48 * w)
    bound = table + 24 * w + 8 * fft_len + steps + MIB
    assert np.isfinite(hs.h).all()
    assert peak <= bound, ((peak - table) / n, (bound - table) / n)


@pytest.mark.parametrize("window, shift", [(1024, 212), (2048, 410)])
def test_local_hurst_frees_a_tiled_box_sizes_buffers_before_the_next(window, shift):
    """At these settings one box size is tiled and the next is fitted at
    every start.  The tiled size holds its boxes, 8 bytes per box point,
    with the projections, the two sums of squares and the RSS of each box,
    8 (order + 4) bytes per box; the all-starts workspace is bounded as in
    the test above.  The workspace is let go before a tiled size and the
    boxes before the next size, so the two never meet: the peak is the
    larger of the two beside the table, the window arrays and the
    transform of the increments, not their sum."""
    path = gen_brownian(100_000, seed=3)
    config = DfaConfig.for_length(window - 1)
    hs, peak, _ = _traced(lambda: local_hurst(path, window, shift, config))
    n, w, fft_len, m = path.size, len(hs), 1 << (path.size - 2).bit_length(), window - 1
    points = [2 * w * (m // b) * b for b in config.box_sizes]  # box points per size
    tiled = [p <= hurst._TILE_BUDGET * n for p in points]
    assert any(a and not b for a, b in zip(tiled, tiled[1:]))
    table = 8 * w * len(config.box_sizes)
    tiles = [8 * p + 8 * 5 * p // b for p, b, t in zip(points, config.box_sizes, tiled) if t]
    steps = max(16 * fft_len, 44 * n, 16 * n + 48 * w, *tiles)
    bound = table + 24 * w + 8 * fft_len + steps + MIB
    assert np.isfinite(hs.h).all()
    assert peak <= bound, (peak / MIB, bound / MIB)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("window, shift, order", [(8192, 10, 1), (4096, 64, 2)])
def test_local_hurst_touches_each_page_once(window, shift, order):
    """A call allocates its table, one workspace for every box size fitted
    at every start, the increments and their transform, and touches each
    of their pages at most once: every size's buffers are cells of the
    workspace.  The workspace is no larger than the largest all-starts
    step bounded above, so the call's minor faults are bounded by the
    pages of the table, that step, the increments and their transform,
    plus 1024 pages (4 MiB) for the transform library's scratch rows,
    the block-level arrays and the fit.  Fresh arrays for every box size,
    as glibc maps them once they pass its mmap threshold, fault tens of
    thousands of times per call at these shapes.
    """
    path = gen_brownian(100_000, seed=3)
    config = DfaConfig.for_length(window - 1, poly_order=order)
    local_hurst(path, window, shift, config)  # warm: the basis cache, the transform plans
    before = _minor_faults()
    hs = local_hurst(path, window, shift, config)
    faults = _minor_faults() - before
    n, w, fft_len = path.size, len(hs), 1 << (path.size - 2).bit_length()
    table = 8 * w * len(config.box_sizes)
    touched = table + max(16 * order * fft_len, 44 * n) + 8 * n + 8 * fft_len
    assert faults <= touched // resource.getpagesize() + 1024, faults


@pytest.mark.parametrize("order", [1, 2, 3])
def test_local_hurst_reads_no_workspace_cell_before_writing_it(order):
    """The workspace is taken with ``np.empty``, so a cell read before it
    is written reads whatever the allocator last kept there.  Before each
    call a large array is filled with NaN and freed, twice (the first
    raises glibc's mmap threshold, so the second stays on the heap for the
    call to reuse); a stale read then turns into NaN or moved bits, and
    the estimates must still match the reference bit for bit."""
    path = gen_fbm(FbmSpec(hurst=0.5, n=20_000, seed=23))
    for window, shift in ((2048, 50), (1024, 7)):
        config = DfaConfig.for_length(window - 1, poly_order=order)
        ref = _reference_hurst.local_hurst(path, window, shift, config)
        for _ in range(2):
            np.full(1 << 21, np.nan)
        got = local_hurst(path, window, shift, config)
        for name in ("times", "h", "stderr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name), equal_nan=True), (window, name)
