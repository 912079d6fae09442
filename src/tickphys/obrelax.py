"""Order-book imbalance and its relaxation times.

The imbalance of a snapshot is (sum of bid volume - sum of ask volume) /
(total volume) over the first `depth` levels, a number in [-1, 1].  Sums
are taken over exact integers, so rescaling every volume by a common
factor reproduces bit-identical imbalances.

An entry is an upward crossing of |imbalance| through a level kappa; the
relaxation time is how long the imbalance keeps its sign afterwards.
Entries whose sign survives to the end of the day are censored: their
truncated times are kept but flagged, and they stay in the normalization
of any density built from the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySide, TooFewBins, TooFewSamples
from .market_data import _day_index, wall_seconds
from .numerics import (
    LogBinnedPdf,
    _by_row,
    _columns,
    _fit_log_density,
    _power_by_row,
    log_bin,
)

__all__ = [
    "ImbalanceSeries",
    "RelaxationSamples",
    "StretchedExpFit",
    "imbalance_series",
    "entry_times",
    "relaxation_times",
    "relaxation_hist",
    "fit_stretched_exp",
    "mean_relaxation_from_fit",
    "sample_stretched_exp",
]

CLOCKS = ("event", "trade", "wall")


@dataclass(frozen=True)
class ImbalanceSeries:
    """Signed depth imbalance per book snapshot, with optional clocks.

    ``trades`` is the cumulative trade count aligned with ``values``;
    ``session_boundaries`` indexes the days as in RegularSeries, so sign
    searches never cross a session gap.
    """

    values: np.ndarray = field(repr=False)
    timestamps_ns: np.ndarray | None = field(default=None, repr=False)
    trades: np.ndarray | None = field(default=None, repr=False)
    session_boundaries: tuple = (0,)
    depth: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "session_boundaries", _day_index(self.session_boundaries, len(self.values)))

    def __len__(self) -> int:
        return self.values.size


def imbalance_series(book, depth: int) -> ImbalanceSeries:
    """Depth imbalance of one day of a market_data.Book.

    Volumes are summed as exact integers before one float division, so each
    level volume within ``depth`` must stay below 2**53 / (2 depth); a snapshot
    with no volume on either side within ``depth`` has no imbalance: EmptySide.
    """
    return _imbalance([(book.timestamps_ns, book.trade_count_delta, book.bid_vol, book.ask_vol)], depth)


def _imbalance(blocks, depth: int) -> ImbalanceSeries:
    """``imbalance_series`` of blocks ``(ts, tcd, bid_vol, ask_vol)``, reduced as read; raises after the last."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    parts, top = [(np.zeros(0, np.int64),) * 2 + (np.zeros(0),)], 0
    for ts, tcd, bid, ask in blocks:
        bid, ask = bid[:, :depth], ask[:, :depth]
        top = max(top, np.abs(bid).max(initial=0), np.abs(ask).max(initial=0))
        bid, ask = bid.sum(axis=1), ask.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # only x / 0 is not finite: EmptySide
            parts.append((ts, tcd, (bid - ask) / (bid + ask)))
    if top >= 2**53 // (2 * depth):
        raise ValueError(f"level volumes must stay below 2**53 / {2 * depth} to sum exactly")
    ts, tcd, values = (np.concatenate(c) for c in zip(*parts))
    if not (finite := np.isfinite(values)).all():
        raise EmptySide(f"snapshot {finite.argmin()}: no volume within depth {depth}")
    return ImbalanceSeries(values=values, timestamps_ns=ts, trades=np.cumsum(tcd, out=tcd), depth=depth)


def entry_times(series, kappa: float) -> np.ndarray:
    """Indices t where |imbalance| v crosses kappa from below: |v[t-1]| < kappa < |v[t]|.

    The crossing test compares t-1 and t, so day starts never qualify.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must be in (0, 1)")
    v = np.abs(np.asarray(getattr(series, "values", series), dtype=float))
    if v.size < 2:
        return np.empty(0, dtype=np.int64)
    idx = np.nonzero((v[:-1] < kappa) & (v[1:] > kappa))[0] + 1
    bounds = np.asarray(getattr(series, "session_boundaries", (0,)), dtype=np.int64)
    if bounds.size > 1:
        idx = idx[~np.isin(idx, bounds)]
    return idx.astype(np.int64)


@dataclass(frozen=True)
class RelaxationSamples:
    """Sign-survival times per entry.

    ``censored[i]`` marks entries whose imbalance never changed sign before
    the day ended; their ``tau`` is the truncated survival up to the last
    snapshot of the day.
    """

    tau: np.ndarray = field(repr=False)
    entry_index: np.ndarray = field(repr=False)
    censored: np.ndarray = field(repr=False)
    kappa: float
    clock: str

    def __len__(self) -> int:
        return self.tau.size

    @property
    def resolved_tau(self) -> np.ndarray:
        return self.tau[~self.censored]

    @property
    def censored_count(self) -> int:
        return int(self.censored.sum())


def relaxation_times(series: ImbalanceSeries, kappa: float, *, clock: str = "event") -> RelaxationSamples:
    """Time until the imbalance first loses its entry sign (or touches 0).

    Entries at the last snapshot of a day are skipped outright; later
    entries that never relax are kept as censored with truncated times.
    """
    if clock not in CLOCKS:
        raise ValueError(f"clock must be one of {CLOCKS}")
    v = series.values
    n = v.size
    entries = entry_times(series, kappa)

    bounds = np.asarray(series.session_boundaries, dtype=np.int64)
    day_end = np.append(bounds[1:], n) - 1  # last index of each day
    day_of = np.searchsorted(bounds, entries, side="right") - 1
    entry_day_end = day_end[day_of]

    keep = entries < entry_day_end  # nothing can follow a day-final entry
    entries = entries[keep]
    entry_day_end = entry_day_end[keep]

    # An entry's sign is strict (|v| > kappa) and holds until its exit, so
    # its exit is the first j after it where v[j - 1] has a strict sign
    # that v[j] loses; n stands for no such j.
    flips = np.nonzero(((v[:-1] > 0.0) & (v[1:] <= 0.0)) | ((v[:-1] < 0.0) & (v[1:] >= 0.0)))[0] + 1
    flips = np.append(flips, n)
    exit_idx = flips[np.searchsorted(flips, entries, side="right")]

    censored = exit_idx > entry_day_end
    stop = np.where(censored, entry_day_end, exit_idx)

    if clock == "event":
        tau = stop - entries
    elif clock == "trade":
        if series.trades is None:
            raise ValueError("trade clock needs snapshots with trade counts")
        tau = np.maximum(series.trades[stop] - series.trades[entries], 1)
    else:
        if series.timestamps_ns is None:
            raise ValueError("wall clock needs timestamped snapshots")
        tau = wall_seconds(series.timestamps_ns[stop] - series.timestamps_ns[entries])

    return RelaxationSamples(
        tau=tau.astype(np.int64),
        entry_index=entries,
        censored=censored,
        kappa=float(kappa),
        clock=clock,
    )


def relaxation_hist(
    samples: RelaxationSamples, bins_per_decade: int = 10, *, min_samples: int = 100
) -> LogBinnedPdf:
    """Log-binned density of resolved relaxation times; censored entries
    stay in the normalization."""
    resolved = samples.resolved_tau
    if resolved.size < min_samples:
        raise TooFewSamples(f"{resolved.size} resolved entries < min_samples={min_samples}")
    return log_bin(resolved, bins_per_decade, censored_count=samples.censored_count)


# ------------------------------------------------------------- stretched law


@dataclass(frozen=True)
class StretchedExpFit:
    """Parameters of f(tau) = (alpha/tau_tilde) (tau/tau_tilde)^(alpha-1)
    exp(-(tau/tau_tilde)^alpha), the density whose survival function is the
    stretched exponential exp(-(tau/tau_tilde)^alpha)."""

    tau_tilde: float
    alpha: float
    sse: float
    n_bins: int


def _log_stretched_density(t, tau_tilde, alpha):
    """log of the ``StretchedExpFit`` density at t, unchecked: t and
    tau_tilde must be positive and alpha in (0, 1].  The parameters are
    scalars, or (K, 1) columns for K rows at once."""
    r = t / tau_tilde
    const = _by_row(lambda a, tt: math.log(a) - math.log(tt), alpha, tau_tilde)
    return const + (alpha - 1.0) * np.log(r) - _power_by_row(r, alpha)


def fit_stretched_exp(hist: LogBinnedPdf, restarts: int = 8) -> StretchedExpFit:
    """Count-weighted least squares in log density over occupied bins.

    tau_tilde is seeded at the 63% point of the resolved mass (the scale
    parameter sits there for every alpha); alpha starts at 0.7 and is
    confined to (0, 1].  Weighting by counts keeps sparse edge bins from
    tilting the fit.
    """
    occ = np.nonzero(hist.occupied)[0]
    if occ.size < 8:
        raise TooFewBins(f"{occ.size} occupied bins; need >= 8")
    x = hist.centers[occ]
    counts = hist.counts[occ].astype(float)
    cum = np.cumsum(counts) / counts.sum()
    tau0 = float(x[np.searchsorted(cum, 0.632)]) if np.any(cum >= 0.632) else float(x[-1])

    def log_model(x, thetas):
        # the bounds keep alpha in (0, 1]
        tau_tilde, alpha = _columns((math.exp(ltau), alpha) for ltau, alpha in thetas)
        return _log_stretched_density(x, tau_tilde, alpha)

    def jitter(rng, theta):
        return np.array([theta[0] + rng.normal(0.0, 0.4), rng.uniform(0.15, 1.0)])

    theta0 = np.array([math.log(tau0), 0.7])
    lo = np.array([math.log(x[0] / 10.0), 0.02])
    hi = np.array([math.log(x[-1] * 10.0), 1.0])
    theta, sse = _fit_log_density(hist, log_model, theta0, lo, hi, jitter, 0x5E7A, restarts)
    return StretchedExpFit(
        tau_tilde=float(math.exp(theta[0])),
        alpha=float(theta[1]),
        sse=float(sse),
        n_bins=int(occ.size),
    )


def mean_relaxation_from_fit(fit: StretchedExpFit) -> float:
    """Mean of the fitted law: (tau_tilde / alpha) Gamma(1 / alpha)."""
    return fit.tau_tilde / fit.alpha * math.gamma(1.0 / fit.alpha)


def sample_stretched_exp(n: int, tau_tilde: float, alpha: float, seed: int = 0) -> np.ndarray:
    """Exact draws by inverting the survival function."""
    if not (tau_tilde > 0 and 0 < alpha <= 1):
        raise ValueError("need tau_tilde > 0 and alpha in (0, 1]")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return tau_tilde * (-np.log1p(-u)) ** (1.0 / alpha)
