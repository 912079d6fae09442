"""A row-by-row relaxation search, kept as the reference the tests hold
``tickphys.obrelax.relaxation_times`` to.

Day by day, ``relaxation_times`` walks the snapshots one at a time: an
entry is a snapshot whose |imbalance| rose through kappa from the one
before it in its day; from there it walks forward until the imbalance
loses the entry's sign or touches 0.  An entry on its day's last
snapshot is skipped, and one whose sign outlives its day is censored at
that last snapshot.  ``imbalance_draws`` draws series for the
properties: several days, exact zeros and both clocks' columns.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from tickphys import ImbalanceSeries
from tickphys.market_data import NS_PER_S


def relaxation_times(series: ImbalanceSeries, kappa: float, clock: str = "event"):
    """``(tau, entry_index, censored)`` as lists, one item per entry."""
    v = series.values.tolist()
    bounds = list(series.session_boundaries) + [len(v)]
    tau, entries, censored = [], [], []
    for start, end in zip(bounds, bounds[1:]):
        for e in range(start + 1, end - 1):  # no day start, no day-final entry
            a, b = abs(v[e - 1]), abs(v[e])
            if not ((b - kappa) * (a - kappa) < 0.0 and b > a):
                continue
            stop = e + 1
            while stop < end - 1 and (v[stop] > 0.0 if v[e] > 0.0 else v[stop] < 0.0):
                stop += 1
            entries.append(e)
            censored.append(v[stop] > 0.0 if v[e] > 0.0 else v[stop] < 0.0)
            if clock == "event":
                tau.append(stop - e)
            elif clock == "trade":
                tau.append(max(int(series.trades[stop]) - int(series.trades[e]), 1))
            else:
                span = int(series.timestamps_ns[stop]) - int(series.timestamps_ns[e])
                tau.append(max(-(-span // NS_PER_S), 1))
    return tau, entries, censored


_LEVELS = (-0.9, -0.6, -0.3, -0.0, 0.0, 0.0, 0.3, 0.6, 0.9)


@st.composite
def imbalance_draws(draw) -> ImbalanceSeries:
    values = draw(
        st.lists(st.one_of(st.sampled_from(_LEVELS), st.floats(-1.0, 1.0)), min_size=0, max_size=60)
    )
    n = len(values)
    starts = draw(st.sets(st.integers(1, n), max_size=4)) if n else set()
    steps = draw(st.lists(st.integers(0, 3 * NS_PER_S), min_size=n, max_size=n))
    deltas = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return ImbalanceSeries(
        values=np.array(values, dtype=float),
        timestamps_ns=np.cumsum(np.array(steps, dtype=np.int64)),
        trades=np.cumsum(np.array(deltas, dtype=np.int64)),
        session_boundaries=(0, *sorted(starts)),
    )
