"""The per-threshold crossing search that ``CrossingIndex`` replaced,
kept as the reference the tests hold ``tickphys.invstat`` to.

``exit_times`` rebuilds and stably sorts the virtual ladder of every day
for every threshold (``_first_crossing``), and ``scan`` runs it once per
threshold, as ``horizon_scaling`` and the ``invstat`` subcommand did.
"""

from __future__ import annotations

import numpy as np

from tickphys import (
    EmptyInput,
    ExitTimeConfig,
    ExitTimes,
    RegularSeries,
    Ticks,
    TickSizeViolation,
)
from tickphys.market_data import NS_PER_S


def _first_crossing(prices: np.ndarray, threshold: int) -> np.ndarray:
    """Per entry t, index of the first j > t with p[j] >= p[t] + threshold.

    Returns -1 where the level is never reached.  The first qualifying
    index is always entered by an upward jump, so it owns the virtual
    ladder element exactly at the target level.
    """
    p = prices
    n = p.size
    if n < 2:
        return np.full(n, -1, dtype=np.int64)
    d = np.diff(p)
    up = d > 0
    lens = np.ones(n, dtype=np.int64)
    lens[1:][up] = d[up]
    starts = np.cumsum(lens) - lens
    total = int(starts[-1] + lens[-1])
    orig = np.repeat(np.arange(n, dtype=np.int64), lens)
    base = np.empty(n, dtype=np.int64)
    base[0] = p[0]
    base[1:] = np.where(up, p[:-1] + 1, p[1:])
    vp = np.repeat(base - starts, lens) + np.arange(total, dtype=np.int64)

    order = np.argsort(vp, kind="stable")  # within equal levels: by position
    svp = vp[order]
    vmin = int(svp[0])
    span = int(svp[-1]) - vmin + 1
    if span >= (2**62) // max(total, 1):
        raise OverflowError("price range times event count exceeds int64 keys")
    skey = (svp - vmin) * np.int64(total) + order  # ascending by construction

    entry_virtual = starts + lens - 1
    targets = p + np.int64(threshold)
    qkey = (targets - vmin) * np.int64(total) + entry_virtual
    idx = np.searchsorted(skey, qkey, side="right")
    hit = idx < total
    safe = np.minimum(idx, total - 1)
    hit &= svp[safe] == targets

    out = np.full(n, -1, dtype=np.int64)
    out[hit] = orig[order[safe[hit]]]
    return out


def _as_days(data) -> list:
    """Normalize input to [(int prices, timestamps_ns or interval info)].

    Yields (prices, ts_ns, open_ns) with ts_ns possibly None.
    """
    if isinstance(data, RegularSeries):
        vals = np.asarray(data.values, dtype=float)
        ints = np.rint(vals)
        if np.max(np.abs(vals - ints)) > 1e-6:
            raise TickSizeViolation("regular series values are not integer ticks")
        prices = ints.astype(np.int64)
        bounds = list(data.session_boundaries) + [prices.size]
        out = []
        for a, b in zip(bounds, bounds[1:]):
            if b > a:
                ts = np.arange(b - a, dtype=np.int64) * data.interval_ns
                out.append((prices[a:b], ts, 0))
        return out
    if isinstance(data, Ticks):
        bounds = list(data.session_boundaries) + [len(data)]
        return [
            (data.prices[a:b], data.timestamps_ns[a:b], open_ns)
            for a, b, open_ns in zip(bounds, bounds[1:], data.session_open_ns)
            if b > a
        ]
    arr = np.asarray(data)
    if not np.issubdtype(arr.dtype, np.integer):
        ints = np.rint(arr.astype(float))
        if np.max(np.abs(arr - ints)) > 1e-6:
            raise TickSizeViolation("prices must be integer ticks")
        arr = ints
    return [(arr.astype(np.int64), None, 0)]


def exit_times(data, config: ExitTimeConfig) -> ExitTimes:
    """Waiting times to the first threshold crossing, day by day."""
    days = _as_days(data)
    if not days:
        raise EmptyInput("no days to scan")

    taus: list[np.ndarray] = []
    entries: list[np.ndarray] = []
    seconds: list[np.ndarray] = []
    censored = 0
    n_entries = 0
    offset = 0

    for prices, ts_ns, open_ns in days:
        n = prices.size
        n_entries += n
        if config.direction == "up":
            exit_idx = _first_crossing(prices, config.threshold)
        elif config.direction == "down":
            exit_idx = _first_crossing(-prices, config.threshold)
        else:
            up_idx = _first_crossing(prices, config.threshold)
            dn_idx = _first_crossing(-prices, config.threshold)
            exit_idx = np.where(
                (up_idx >= 0) & ((dn_idx < 0) | (up_idx <= dn_idx)), up_idx, dn_idx
            )
        hit = exit_idx >= 0
        censored += int(n - hit.sum())
        t = np.nonzero(hit)[0]
        j = exit_idx[hit]
        if config.clock == "tick":
            tau = j - t
        else:
            if ts_ns is None:
                raise ValueError("wall clock needs timestamped input")
            delta = ts_ns[j] - ts_ns[t]
            tau = np.maximum((delta + NS_PER_S - 1) // NS_PER_S, 1)
        taus.append(tau.astype(np.int64))
        entries.append(t + offset)
        if ts_ns is None:
            seconds.append(np.full(t.size, np.nan))
        else:
            seconds.append((ts_ns[t] - open_ns) / NS_PER_S)
        offset += n

    return ExitTimes(
        tau=np.concatenate(taus) if taus else np.empty(0, dtype=np.int64),
        entry_index=np.concatenate(entries) if entries else np.empty(0, dtype=np.int64),
        entry_second=np.concatenate(seconds) if seconds else np.empty(0),
        censored_count=censored,
        n_entries=n_entries,
        config=config,
    )


def scan(data, thresholds, direction: str = "up", clock: str = "tick") -> list:
    """One full search per threshold, in the order given."""
    return [
        exit_times(data, ExitTimeConfig(threshold=int(r), direction=direction, clock=clock))
        for r in thresholds
    ]
