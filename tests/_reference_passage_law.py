"""The exact first-passage law of a walk with i.i.d. integer steps, the
reference that ``invstat``'s densities and censored counts are held to.

For steps with pmf p on a few integers, P(tau = k) for k <= K follows from
a killed transition on a band of states.  The walk starts at 0; each step
convolves its distribution with p, and the mass that lands beyond the
threshold at step k is P(tau = k).  For "up" the band is [R - K J, R - 1],
J the largest step up: mass below it cannot reach R within K steps and is
dropped.  "down" is "up" of the mirrored steps, and for "both" the band is
(-R, R), killed on either side.  (Feller, vol. 1, ch. XIV: first passages
of lattice walks.)

The waiting time of the entry at t depends only on the steps after t, so
by linearity of expectation the expected number of resolved entries with
tau = k is P(tau = k) * sum_d max(n_d - k, 0) over days of n_d points, and
the expected censored count is sum_d sum_{m < n_d} P(tau > m).  Neither
needs the overlapping entries to be independent.
"""

from __future__ import annotations

import numpy as np


def passage_law(pmf: dict, threshold: int, direction: str, horizon: int) -> np.ndarray:
    """``f[k] = P(tau = k)`` for k = 0 .. ``horizon`` (``f[0] = 0``): the
    first step k at which the walk from 0 with step pmf ``pmf`` ({step:
    probability}) reaches ``threshold`` up, down, or either way."""
    if direction == "down":
        pmf = {-s: q for s, q in pmf.items()}
    lo_step, hi_step = min(pmf), max(pmf)
    kernel = np.zeros(hi_step - lo_step + 1)
    for s, q in pmf.items():
        kernel[s - lo_step] = q
    top = threshold - 1
    bottom = 1 - threshold if direction == "both" else min(0, threshold - horizon * max(hi_step, 0))
    mass = np.zeros(top - bottom + 1)  # states bottom .. top
    mass[-bottom] = 1.0
    f = np.zeros(horizon + 1)
    for k in range(1, horizon + 1):
        spread = np.convolve(mass, kernel)  # states bottom + lo_step .. top + hi_step
        inside = slice(-lo_step, -lo_step + mass.size)
        f[k] = spread[inside.stop :].sum()
        if direction == "both":
            f[k] += spread[: inside.start].sum()
        mass = spread[inside]
    return f


def expected_counts(f: np.ndarray, day_lengths) -> tuple:
    """``(resolved, censored)``: the expected number of entries with
    tau = k, k = 0 .. len(f) - 1, and the expected censored count, over days
    of ``day_lengths`` points.  ``f`` must reach the longest day's last
    waiting time, ``max(day_lengths) - 1``."""
    k = np.arange(f.size)
    resolved = f * sum(np.maximum(n - k, 0) for n in day_lengths)
    survival = 1.0 - np.cumsum(f)  # P(tau > m)
    censored = sum(survival[:n].sum() for n in day_lengths)
    return resolved, censored
