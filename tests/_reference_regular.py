"""The row-by-row regular-series reader and writer that the columnar ones
replaced, kept as the references the tests hold
``tickphys.parse_regular_series`` and ``tickphys.serialize_regular_series``
to.

Each line of ``str.splitlines`` is split with ``str.split``, a timestamp
cell must be ASCII ``-?digits`` of at most 19 digits within int64 (the
byte kernel's grammar) and a value cell goes through ``float``, the grid
is checked afterwards (exactly, row by row, where the timestamps spread
beyond int64), and the line number of a failing row is found by a second
scan of the text.  The writer formats each row with one f-string, the
value by ``repr``, and joins the rows and the footer with "\n".
"""

from __future__ import annotations

import re

import numpy as np

from tickphys import MalformedRow, RegularSeries

_I64_MAX = np.iinfo(np.int64).max
_STAMP = re.compile(r"-?[0-9]{1,19}")


def _data_line(text: str, k: int) -> int:
    """1-based line number of data row k of a regular series file."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip() and not raw.startswith("#"):
            if k == 0:
                return lineno
            k -= 1
    raise IndexError(k)


def _grid_break(ts: list) -> tuple[int, str]:
    """First row whose timestamp leaves the grid ts[0] + k * step, with
    step = ts[1] - ts[0], and why; (len(ts), "") when none does."""
    n = len(ts)
    step = ts[1] - ts[0] if n > 1 else 1
    if step <= 0:
        return 1, f"timestamp {ts[1]} does not follow {ts[0]}"
    why = f"timestamp {{}} is off the grid {ts[0]} + k * {step}"
    stamps = np.array(ts, dtype=np.int64)
    spread = int(stamps.max()) - int(stamps.min())
    if spread > _I64_MAX:  # exact Python integers, row by row
        for k, t in enumerate(ts):
            if t != ts[0] + k * step:
                return k, why.format(t)
        return n, ""
    # a row past `reach` would need an offset beyond the spread: off the grid
    reach = min(n, spread // step + 1)
    off = stamps[:reach] - stamps[0] != np.arange(reach, dtype=np.int64) * np.int64(step)
    k = int(np.argmax(off)) if off.any() else reach
    return (k, why.format(ts[k])) if k < n else (n, "")


def parse_regular_series(text: str) -> RegularSeries:
    """Read rows ``timestamp_ns,value`` and the session-boundary footer.

    Timestamps must lie on the grid that ``serialize_regular_series``
    writes, ts0 + k * interval with the interval of the first two rows,
    and values must be finite; the first row that breaks either rule is a
    ``MalformedRow`` at its line.
    """
    ts: list[int] = []
    vals: list[float] = []
    boundaries: tuple = (0,)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if raw.startswith("#"):
            m = re.match(r"^#\s*session_boundaries=(.*)$", raw)
            if m:
                boundaries = tuple(int(p) for p in m.group(1).split(";") if p != "")
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise MalformedRow(lineno, f"expected 2 fields, got {len(parts)}")
        try:
            if not (_STAMP.fullmatch(parts[0]) and -_I64_MAX - 1 <= int(parts[0]) <= _I64_MAX):
                raise ValueError(f"bad timestamp {parts[0]!r}")
            ts.append(int(parts[0]))
            vals.append(float(parts[1]))
        except ValueError:
            raise MalformedRow(lineno, "bad numeric field")
    if not ts:
        raise MalformedRow(1, "no data rows")
    values = np.array(vals)
    k, why = _grid_break(ts)
    finite = np.isfinite(values)
    if not finite[:k].all():
        k = int(np.argmin(finite))
        why = f"value {vals[k]!r} is not finite"
    if k < len(ts):
        raise MalformedRow(_data_line(text, k), why)
    return RegularSeries(
        start_ns=ts[0],
        interval_ns=ts[1] - ts[0] if len(ts) > 1 else 1,
        values=values,
        session_boundaries=boundaries,
    )


def serialize_regular_series(series: RegularSeries) -> str:
    ts = series.timestamps_ns
    rows = [f"{int(t)},{repr(float(v))}" for t, v in zip(ts, series.values)]
    rows.append("# session_boundaries=" + ";".join(str(i) for i in series.session_boundaries))
    return "\n".join(rows) + "\n"
