"""Inverse statistics: waiting times until a price path first moves by a
given amount.

For every in-day entry index t the exit time is the first T > 0 with
p(t+T) - p(t) >= threshold (direction "up"; "down" negates the path,
"both" takes the earlier of the two one-sided exits).  Entries overlap,
days are independent, and entries whose exit does not arrive before the
end of the day are counted as censored rather than dropped silently.

Crossings are resolved exactly for arbitrary integer jump sizes.  The
first j > t with p[j] >= p[t] + R follows p[j-1] < p[t] + R, so it is an
upward move that passes that level.  ``CrossingIndex`` therefore keeps,
per day and side, every level that each upward move passes, keyed
level * n + time and sorted once, plus the entries' keys p[t] * n + t,
also sorted once.  A threshold query lifts the entry keys by R levels,
which keeps them ascending, and vectorized binary searches over the
ladder, a fixed slice of entries at a time, find every entry's exit, so
a query holds one day's exits beside what it keeps: ``exit_times``,
every resolved entry's waiting time, index and second, 24 bytes per
entry.  Thresholds are whole ticks.  ``horizon_scaling`` and the
``invstat`` subcommand build one index and take one step per threshold,
``_horizon``: query, density, fit and optimal horizon.  It keeps the
waiting times, 8 bytes per entry, and counts each slice's entry seconds
into bins as the slice comes.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    EmptyInput,
    PriceRangeTooWide,
    TickSizeViolation,
    TooFewBins,
    TooFewSamples,
    TooManyBins,
)
from .market_data import NS_PER_S, RegularSeries, Ticks, wall_seconds
from .numerics import (
    MAX_BINS,
    LinFit,
    LogBinnedPdf,
    _by_row,
    _columns,
    _fit_log_density,
    _power_by_row,
    linfit,
    log_bin,
)

__all__ = [
    "CrossingIndex",
    "ExitTimeConfig",
    "ExitTimes",
    "FirstPassageFit",
    "exit_times",
    "first_passage_hist",
    "passage_density",
    "log_passage_density",
    "sample_first_passage",
    "fit_first_passage",
    "optimal_horizon",
    "horizon_scaling",
    "fit_horizon_power_law",
    "fit_tail_power_law",
    "entry_time_distribution",
]

logger = logging.getLogger(__name__)

DIRECTIONS = ("up", "down", "both")
CLOCKS = ("tick", "wall")


@dataclass(frozen=True)
class ExitTimeConfig:
    """Threshold in ticks, crossing direction, and waiting-time clock.

    clock "tick" counts events; "wall" counts seconds, rounded up and never
    below one so a same-second exit still takes time.
    """

    threshold: int
    direction: str = "up"
    clock: str = "tick"

    def __post_init__(self):
        if not (float(self.threshold).is_integer() and self.threshold >= 1):
            raise ValueError(f"threshold must be a whole number of ticks >= 1, got {self.threshold!r}")
        object.__setattr__(self, "threshold", int(self.threshold))
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if self.clock not in CLOCKS:
            raise ValueError(f"clock must be one of {CLOCKS}")


@dataclass(frozen=True)
class ExitTimes:
    """Resolved waiting times plus the censoring tally.

    ``tau[i]`` belongs to the entry at concatenated index ``entry_index[i]``;
    ``entry_second[i]`` is seconds since that day's open (NaN when the input
    carries no wall-clock information).  ``n_entries`` counts resolved and
    censored entries together and is the denominator for frequencies.
    """

    tau: np.ndarray = field(repr=False)
    entry_index: np.ndarray = field(repr=False)
    entry_second: np.ndarray = field(repr=False)
    censored_count: int
    n_entries: int
    config: ExitTimeConfig

    def __len__(self) -> int:
        return self.tau.size


# Price range times ladder size must stay below this: it bounds the ladder
# and keeps int64 keys, lifted by any threshold below the range, in int64.
_KEY_LIMIT = 2**62


def _int_ticks(values, what: str) -> np.ndarray:
    """Finite, exactly integer-valued float prices below 2**53 in magnitude
    as int64 ticks.  From 2**53 on a float no longer holds every integer,
    so a value there may already be a neighbouring tick, rounded.  Beside
    ``values`` it holds one rounded copy while it checks, then the result."""
    vals = np.asarray(values, dtype=float)
    lo, hi = vals.min(), vals.max()  # a NaN or an infinity shows in these
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise TickSizeViolation(f"{what} are not finite")
    if not np.array_equal(vals, np.rint(vals)):
        raise TickSizeViolation(f"{what} are not integer ticks")
    if max(-lo, hi) >= 2.0**53:
        raise TickSizeViolation(f"{what} reach 2**53 ticks, beyond exact float integers")
    return vals.astype(np.int64)


def _as_days(data):
    """Normalize ``Ticks``, a ``RegularSeries`` or a price array to
    (int64 prices, stamps, open_ns), one per non-empty day, where
    ``stamps`` maps row indices to their int64 timestamps_ns (None without
    a clock).  A ``RegularSeries`` is converted a day at a time, as the
    days are taken."""
    if isinstance(data, Ticks):
        bounds = data.session_boundaries + (len(data),)
        yield from (
            (data.prices[a:b], data.timestamps_ns[a:b].__getitem__, open_ns)
            for a, b, open_ns in zip(bounds, bounds[1:], data.session_open_ns) if b > a
        )
    elif isinstance(data, RegularSeries):
        bounds = data.session_boundaries + (data.values.size,)
        step, longest = int(data.interval_ns), max(b - a for a, b in zip(bounds, bounds[1:]))
        if (longest - 1) * step >= 2**63:
            raise DataError(f"a day of {longest} points {step} ns apart spans 2**63 ns or more, beyond int64")
        # each day's stamps count from its open, i * step (one point: 0), and
        # are computed per query rather than kept
        for a, b in zip(bounds, bounds[1:]):
            if b > a:
                prices = _int_ticks(data.values[a:b], "regular series values")
                yield prices, functools.partial(np.multiply, step if b - a > 1 else 0), 0
    else:
        arr = np.asarray(data)
        if arr.size:
            if not np.issubdtype(arr.dtype, np.integer):
                arr = _int_ticks(arr, "prices")
            yield arr.astype(np.int64, copy=False), None, 0


def _check_key_range(span: int, size: int) -> None:
    """Refuse a day whose price range times ladder size reaches 2**62."""
    if span >= _KEY_LIMIT // size:
        raise PriceRangeTooWide(
            f"price range of {span} ticks times {size} ladder elements exceeds int64 keys"
        )


# Entries a query handles at once: every per-entry temporary of a query is
# this long, so only the index and one day's exits are held whole.
_SLICE = 1 << 16


def _passed_keys(levels: np.ndarray, span: int, dtype) -> np.ndarray:
    """The key level * n + t of every level that a move up passes, in time
    order, as running sums in ``dtype``, which holds span * n: within a
    move the level rises by one (+n); from one move's top to the next
    move's first level, level and time both jump, modulo 2**32 in uint32.
    Its per-move arrays are gone when it returns, before the keys are
    sorted and the entry keys made."""
    n = levels.size
    d = np.diff(levels)
    move = np.flatnonzero(d > 0)
    lens = d[move]  # levels each move up passes
    del d
    move += 1  # the indices the moves up enter
    total = int(lens.sum())
    # as large as the virtual ladder: one element per event plus the
    # levels each move up jumps past
    _check_key_range(span, n + total - lens.size)
    nn = np.int64(n)
    key = np.full(total, nn, dtype=dtype)
    if move.size:
        key[0] = (levels[move[0] - 1] + 1) * nn + move[0]
        jump = levels[move[1:] - 1]  # from the top of the move before
        jump -= levels[move[:-1]]
        jump += 1
        jump *= nn
        jump += np.diff(move)
        key[np.cumsum(lens[:-1])] = jump
    return np.cumsum(key, out=key, dtype=dtype)  # without dtype=, numpy sums uint32 in uint64


class _Ladder:
    """Every level that an upward move of one day and side passes, sorted.

    A move up from a at t-1 to b at t passes the levels a+1 .. b, each
    keyed level * n + t, with levels counted from the day's lowest price.
    A move passes a level at most once, so the keys are unique and one
    sort orders them by level and, within a level, by time.  The first
    j > t with p[j] >= p[t] + R follows p[j-1] < p[t] + R, so j is a move
    up that passes level p[t] + R: the first key above (p[t] + R) * n + t,
    if that key is still on the level.  Every key, of the ladder and of
    the entries, is below span * n: both are uint32 when that is at most
    2**32, 4 bytes per key, and int64 otherwise.
    """

    def __init__(self, levels: np.ndarray, span: int):
        n = levels.size
        dtype = np.uint32 if span * n <= 2**32 else np.int64
        self.key = _passed_keys(levels, span, dtype)
        self.key.sort()  # the keys are unique, so any sort gives the one order
        entry_key = np.empty(n, dtype)  # the int64 product is cast into it a buffer at a time
        np.multiply(levels, np.int64(n), out=entry_key, casting="unsafe")
        entry_key += np.arange(n, dtype=dtype)
        entry_key.sort()
        self.entry_key = entry_key  # sorted needles
        self.span = span

    def first_crossing(self, threshold: int):
        """Per slice of at most ``_SLICE`` entries in key order, ``(t, j)``:
        the entries t and, per entry, the first j > t with
        p[j] >= p[t] + threshold, or -1.  Yields nothing when no level is
        that far up."""
        if threshold >= self.span or not self.key.size:  # no level to reach
            return
        n, as_key = np.int64(self.entry_key.size), self.key.dtype.type
        lift = as_key(threshold * n)
        # entries that cannot reach the span stay -1, a suffix in key order; the
        # others' needles are below span * n, so no search promotes the keys
        entry_key = self.entry_key[: np.searchsorted(self.entry_key, as_key((self.span - threshold) * n))]
        for s in range(0, entry_key.size, _SLICE):
            entry = entry_key[s : s + _SLICE]
            needle = entry + lift
            # the first key above each needle, or the last key where none is
            j = self.key.take(np.searchsorted(self.key, needle, side="right"), mode="clip").astype(np.int64)
            # its time if it sits on the target level; a key at or below the
            # query gives j <= t
            j -= needle
            t = entry % n
            j += t
            j[(j <= t) | (j >= n)] = -1
            yield t, j


_SIDES = {"up": (1,), "down": (-1,), "both": (1, -1)}


class CrossingIndex:
    """First-crossing index of a price path, built once per day and side.

    The sorted ladder does not depend on the threshold, so every
    ``exit_times(threshold, clock)`` query reuses it: one binary search
    per entry, with needles already in ascending order.  ``direction``
    "both" builds both sides.  Each keeps 4 bytes per ladder key and per
    entry on a day whose price range times rows is at most 2**32, else 8.
    """

    def __init__(self, data, direction: str = "up"):
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        self.direction = direction
        self._days = []
        for prices, stamps, open_ns in _as_days(data):
            lo, hi = int(prices.min()), int(prices.max())
            span = hi - lo + 1
            _check_key_range(span, prices.size)  # before any level arithmetic
            # levels from the side's lowest price: p - min up, max - p down
            ladders = [
                _Ladder(prices - np.int64(lo) if side > 0 else np.int64(hi) - prices, span)
                for side in _SIDES[direction]
            ]
            self._days.append((prices.size, stamps, open_ns, ladders))
        if not self._days:
            raise EmptyInput("no prices to scan")
        self.n_entries = sum(n for n, _, _, _ in self._days)

    def _resolved(self, config: ExitTimeConfig):
        """The one query loop: per day and slice of at most ``_SLICE``
        entries in time order, ``(t, tau, sec)`` of its resolved entries,
        their concatenated indices, waiting times and seconds since the
        day's open (None without a clock).  Within a day t rises and stamps
        never fall, so each slice's seconds ascend."""
        if config.clock == "wall" and any(stamps is None for _, stamps, _, _ in self._days):
            raise ValueError("wall clock needs timestamped input")
        offset = 0
        for n, stamps, open_ns, ladders in self._days:
            exits = np.full(n, -1, dtype=np.int64)  # the day's exits in time order
            for side, ladder in enumerate(ladders):
                for t, j in ladder.first_crossing(config.threshold):
                    if side:  # "both": the earlier of the two sides, -1 being none
                        up = exits[t]
                        j = np.where((up >= 0) & ((j < 0) | (up <= j)), up, j)
                    exits[t] = j
            for s in range(0, n, _SLICE):
                j = exits[s : s + _SLICE]
                t = np.flatnonzero(j >= 0)
                j = j[t]
                t += s
                if config.clock == "tick":
                    j -= t
                else:
                    j = stamps(j)
                    j -= stamps(t)
                    j = wall_seconds(j)
                sec = None if stamps is None else (stamps(t) - open_ns) / NS_PER_S
                t += offset
                yield t, j, sec
            del exits  # before the next day's map is made
            offset += n

    def exit_times(self, threshold: int, clock: str = "tick") -> ExitTimes:
        """Waiting times to the first crossing of ``threshold`` ticks."""
        config = ExitTimeConfig(threshold=threshold, direction=self.direction, clock=clock)
        # each slice written in place into arrays sized for every entry, so
        # no per-day chunks are held beside a concatenated copy
        tau = np.empty(self.n_entries, dtype=np.int64)
        entry_index = np.empty(self.n_entries, dtype=np.int64)
        entry_second = np.empty(self.n_entries)
        k = 0
        for t, w, sec in self._resolved(config):
            end = k + t.size
            tau[k:end] = w
            entry_index[k:end] = t
            entry_second[k:end] = np.nan if sec is None else sec
            k = end
        return ExitTimes(
            tau=tau[:k],
            entry_index=entry_index[:k],
            entry_second=entry_second[:k],
            censored_count=self.n_entries - k,
            n_entries=self.n_entries,
            config=config,
        )


def exit_times(data, config: ExitTimeConfig) -> ExitTimes:
    """Waiting times to the first threshold crossing, day by day."""
    return CrossingIndex(data, config.direction).exit_times(config.threshold, config.clock)


def first_passage_hist(tau, censored_count: int, bins_per_decade: int = 10, *, min_samples: int = 100) -> LogBinnedPdf:
    """Log-binned density of the resolved waiting times ``tau``.

    The ``censored_count`` unresolved entries enter the normalization (the
    density integrates to the resolved fraction), so deep thresholds are
    not flattered by dropping their unresolved entries.  Fewer than
    ``min_samples`` waiting times raise TooFewSamples.
    """
    if len(tau) < min_samples:
        raise TooFewSamples(f"{len(tau)} resolved exits < min_samples={min_samples}")
    return log_bin(tau, bins_per_decade, censored_count=censored_count)


# ----------------------------------------------------------------- the model


def _check_params(alpha: float, beta: float, nu: float, tau0: float) -> None:
    if not (alpha > 0 and beta > 0 and nu > 0):
        raise ValueError("alpha, beta, nu must be positive")
    if tau0 < 0:
        raise ValueError("tau0 must be >= 0")


def log_passage_density(tau, alpha: float, beta: float, nu: float = 1.0, tau0: float = 0.0):
    """log of the generalized inverse-gamma waiting-time density

        P(tau) = nu / Gamma(alpha/nu) * beta^(2 alpha) / (tau + tau0)^(alpha+1)
                 * exp(-(beta^2 / (tau + tau0))^nu)
    """
    _check_params(alpha, beta, nu, tau0)
    t = np.asarray(tau, dtype=float) + tau0
    if np.any(t <= 0):
        raise ValueError("tau + tau0 must be positive")
    with np.errstate(over="ignore"):
        return _log_passage_density(t, alpha, beta, nu)


def _log_passage_density(t, alpha, beta, nu):
    """log_passage_density at t = tau + tau0, unchecked: alpha, beta, nu and
    t must be positive.  The parameters are scalars, or (K, 1) columns for
    the K rows of t."""
    const = _by_row(
        lambda a, b, n: math.log(n) - math.lgamma(a / n) + 2.0 * a * math.log(b), alpha, beta, nu
    )
    return const - (alpha + 1.0) * np.log(t) - _power_by_row(beta * beta / t, nu)


def passage_density(tau, alpha: float, beta: float, nu: float = 1.0, tau0: float = 0.0):
    return np.exp(log_passage_density(tau, alpha, beta, nu, tau0))


def sample_first_passage(
    n: int, alpha: float, beta: float, nu: float = 1.0, tau0: float = 0.0, seed: int = 0
) -> np.ndarray:
    """Exact draws from the waiting-time law.

    With y = beta^2 / (tau + tau0), y^nu is Gamma(alpha/nu) distributed, so
    a gamma variate transforms back to tau without any numeric inversion.
    """
    _check_params(alpha, beta, nu, tau0)
    rng = np.random.default_rng(seed)
    w = rng.gamma(shape=alpha / nu, scale=1.0, size=n)
    return beta * beta / w ** (1.0 / nu) - tau0


@dataclass(frozen=True)
class FirstPassageFit:
    alpha: float
    beta: float
    nu: float
    tau0: float
    sse: float
    n_bins: int


def fit_first_passage(hist: LogBinnedPdf, restarts: int = 8) -> FirstPassageFit:
    """Count-weighted least squares in log density over occupied bins.

    Needs at least 8 occupied bins spanning two decades; the tail slope of
    the histogram seeds alpha, the empirical mode seeds beta, and a few
    jittered restarts of the simplex search guard against the shallow
    alpha/beta ridge.  Weighting by counts keeps sparse far-tail bins,
    whose log density is biased upward, from tilting the fit.
    """
    occ = hist.occupied
    x = hist.centers[occ]
    y = np.log(hist.densities[occ])
    if x.size < 8 or x[-1] < 100.0 * x[0]:
        raise TooFewBins(
            f"{x.size} occupied bins spanning x{x[-1] / x[0]:.1f}; "
            "need >= 8 across >= 2 decades"
        )

    # tail of the law decays like tau^-(alpha+1)
    k = max(3, x.size // 3)
    tail = linfit(np.log(x[-k:]), y[-k:])
    alpha0 = min(max(-tail.slope - 1.0, 0.1), 10.0)
    tau_mode = float(x[np.argmax(y)])
    beta0 = math.sqrt(max(tau_mode, x[0]) * (alpha0 + 1.0))

    def log_model(x, thetas):
        # the bounds keep alpha, beta, nu > 0 and tau0 >= 0
        alpha, beta, nu, tau0 = _columns(
            (a, math.exp(lb), math.exp(ln), t0) for a, lb, ln, t0 in thetas
        )
        return _log_passage_density(x + tau0, alpha, beta, nu)

    def jitter(rng, theta):
        alpha = theta[0] * math.exp(rng.normal(0.0, 0.3))
        lbeta = theta[1] + rng.normal(0.0, 0.3)
        return np.array([alpha, lbeta, rng.normal(0.0, 0.2), abs(rng.normal(0.0, 0.05 * tau_mode))])

    theta0 = np.array([alpha0, math.log(beta0), 0.0, 0.0])
    lo = np.array([1e-3, math.log(1e-4), math.log(0.05), 0.0])
    hi = np.array([30.0, math.log(1e8), math.log(15.0), 3.0 * x[-1]])
    theta, sse = _fit_log_density(hist, log_model, theta0, lo, hi, jitter, 0xA1B2, restarts)
    return FirstPassageFit(
        alpha=float(theta[0]),
        beta=float(math.exp(theta[1])),
        nu=float(math.exp(theta[2])),
        tau0=float(theta[3]),
        sse=float(sse),
        n_bins=int(x.size),
    )


def optimal_horizon(fit: FirstPassageFit) -> float:
    """Most probable waiting time of the fitted law, in closed form:
    tau* = beta^2 (nu / (alpha+1))^(1/nu) - tau0, floored at zero when the
    density is monotone."""
    tau_star = fit.beta**2 * (fit.nu / (fit.alpha + 1.0)) ** (1.0 / fit.nu) - fit.tau0
    if tau_star <= 0.0:
        logger.warning("fitted density is monotone decreasing; mode at zero")
        return 0.0
    return float(tau_star)


# ------------------------------------------------------- scaling with theta


@dataclass(frozen=True)
class HorizonRow:
    threshold: int
    tau_star: float
    n_resolved: int
    n_censored: int
    fit: FirstPassageFit


def _horizon(index: CrossingIndex, threshold, clock: str, bins_per_decade: int, min_samples: int, bin_seconds=None):
    """One threshold's query of ``index``, its waiting-time density and
    fit: ``(HorizonRow, hist, entry bins)``, the bins those of
    ``_EntryBins`` given ``bin_seconds``, else None.  The query keeps one
    int64 column of waiting times and the bin counts."""
    config = ExitTimeConfig(threshold=threshold, direction=index.direction, clock=clock)
    tau = np.empty(index.n_entries, dtype=np.int64)
    entries = None if bin_seconds is None else _EntryBins(bin_seconds)
    k = 0
    for _, w, sec in index._resolved(config):
        tau[k : k + w.size] = w
        k += w.size
        if entries is not None and sec is not None:
            entries.add(sec)
    hist = first_passage_hist(tau[:k], index.n_entries - k, bins_per_decade, min_samples=min_samples)
    fit = fit_first_passage(hist)
    row = HorizonRow(
        threshold=config.threshold,
        tau_star=optimal_horizon(fit),
        n_resolved=k,
        n_censored=index.n_entries - k,
        fit=fit,
    )
    return row, hist, None if entries is None else entries.result()


def horizon_scaling(
    data,
    thresholds,
    *,
    direction: str = "up",
    clock: str = "tick",
    bins_per_decade: int = 10,
    min_samples: int = 100,
) -> list:
    """Optimal horizon per threshold, for the tau* ~ R^gamma diagnostic.
    Each threshold's waiting times go before the next query."""
    index = CrossingIndex(data, direction)
    return [_horizon(index, r, clock, bins_per_decade, min_samples)[0] for r in thresholds]


def fit_horizon_power_law(rows) -> LinFit:
    """Line of log tau* against log threshold: tau* ~ R^slope."""
    pts = [(row.threshold, row.tau_star) for row in rows if row.tau_star > 0.0]
    if len(pts) < 3:
        raise TooFewBins("need >= 3 positive-horizon thresholds")
    r = np.array([p[0] for p in pts], dtype=float)
    t = np.array([p[1] for p in pts], dtype=float)
    return linfit(np.log(r), np.log(t))


def fit_tail_power_law(hist: LogBinnedPdf, fit_range: tuple) -> LinFit:
    """Log-log line of the density over occupied bins inside fit_range:
    density ~ x^slope."""
    lo, hi = fit_range
    if not (0 < lo < hi):
        raise ValueError("fit_range must satisfy 0 < lo < hi")
    occ = hist.occupied
    sel = occ & (hist.centers >= lo) & (hist.centers <= hi)
    if np.count_nonzero(sel) < 5:
        raise TooFewBins(f"{np.count_nonzero(sel)} occupied bins in range; need >= 5")
    return linfit(np.log(hist.centers[sel]), np.log(hist.densities[sel]))


@dataclass(frozen=True)
class EntryTimeRow:
    start_second: float
    end_second: float
    count: int
    rate_per_hour: float


class _EntryBins:
    """Entry seconds fed one ascending slice at a time, counted as
    ``np.histogram`` counts them over the edges ``np.arange(n + 1) *
    bin_seconds``, n = top // bin_seconds + 1: each slice's half-open bins
    by one ``searchsorted`` of their edges, and at the end bin n, which
    holds only seconds equal to edge n, into the closed last bin n - 1."""

    def __init__(self, bin_seconds: float):
        if not 0 < bin_seconds < math.inf:  # NaN fails too
            raise ValueError("bin_seconds must be a positive finite number")
        self.bin_seconds = bin_seconds
        self.counts = np.zeros(0, dtype=np.int64)  # bin i: edge i <= second < edge i + 1

    def add(self, sec: np.ndarray) -> None:
        """Count a slice of finite seconds in ascending order."""
        sec = sec[np.searchsorted(sec, 0.0) :]  # before the open: in no bin, as in np.histogram
        if not sec.size:
            return
        b, lo, hi = self.bin_seconds, float(sec[0]), float(sec[-1])
        if hi >= MAX_BINS * b:  # before any array, and before the quotient can overflow
            raise TooManyBins(f"{b} s bins up to second {hi:g} exceed {MAX_BINS} bins")
        a, c = int(lo // b), int(hi // b) + 2  # edge a is at or below the slice, edge c above it
        if c > self.counts.size:
            self.counts = np.pad(self.counts, (0, c - self.counts.size))
        self.counts[a:c] += np.diff(np.searchsorted(sec, np.arange(a, c + 1) * b))

    def result(self):
        """``(edges, counts)``, or None when no second was counted."""
        if not self.counts.size:
            return None
        counts = self.counts[:-1].copy()  # n bins, where n + 1 = top // bin_seconds + 2
        counts[-1] += self.counts[-1]
        return np.arange(counts.size + 1) * self.bin_seconds, counts


def entry_time_distribution(exits: ExitTimes, bin_seconds: float = 1800.0) -> list:
    """When, within the day, resolved entries occur."""
    entries = _EntryBins(bin_seconds)
    sec = exits.entry_second
    if not np.isfinite(sec).all():  # no copy when every entry is timed
        sec = sec[np.isfinite(sec)]
    for s in range(0, sec.size, _SLICE):
        entries.add(np.sort(sec[s : s + _SLICE]))
    binned = entries.result()
    if binned is None:
        raise EmptyInput("entries carry no wall-clock times")
    edges, counts = (column.tolist() for column in binned)
    return [
        EntryTimeRow(start_second=lo, end_second=hi, count=c, rate_per_hour=c * 3600.0 / bin_seconds)
        for lo, hi, c in zip(edges, edges[1:], counts)
    ]
