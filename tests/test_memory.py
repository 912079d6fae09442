"""Memory that the regular-series reader and the crossing index take per row.

``tracemalloc`` sees numpy's buffers as well as Python's objects, so its
peak is the whole working set of a call.  The input is built before
tracing starts and handed over as a stream of chunk-sized views, so only
what the reader allocates is counted.
"""

import tracemalloc

import numpy as np

from tickphys import CrossingIndex, RegularSeries, parse_regular_series
from tickphys import market_data

NS = 1_000_000_000
MIB = 1 << 20


def _walk(rows: int, seed: int = 0) -> np.ndarray:
    """A rounded Gaussian walk of sigma 4 ticks per step, as the invstat
    benchmark's."""
    return np.rint(np.cumsum(np.random.default_rng(seed).normal(0.0, 4.0, rows)))


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


def test_crossing_index_keeps_only_its_keys():
    """Per day and side the index keeps the sorted ladder keys, one int64
    per level an upward move passes, and the sorted entry keys, one int64
    per row: 8 * (rows + ladder keys) bytes.  On this walk that is 21
    bytes per row.  An entry-time column kept beside the entry keys, or a
    wall-clock stamp per row, would add 8 bytes per row each."""
    rows = 1_000_000
    values = _walk(rows, seed=1)
    series = RegularSeries(start_ns=0, interval_ns=NS, values=values, session_boundaries=(0, rows // 2))
    ladder = sum(
        int(np.maximum(np.diff(values[a:b]), 0).sum()) for a, b in ((0, rows // 2), (rows // 2, rows))
    )
    index, _, held = _traced(lambda: CrossingIndex(series, "up"))
    assert held <= 8 * (rows + ladder) + 64 * 1024, held / rows
    assert index.exit_times(8, "wall").n_entries == rows
