"""Hurst exponent estimation by detrended fluctuation analysis.

DFA follows the classic recipe: integrate the mean-subtracted increments
into a profile, split the profile into non-overlapping boxes of size n
taken from the start *and* from the end (so every point is covered even
when n does not divide the length), least-squares detrend each box with
a polynomial, and take F(n) = the RMS of all box residuals.

``hurst_exponent`` and the sliding-window routines operate on price-like
paths: they difference the path first, so a fractional Brownian motion
path with Hurst exponent H comes back as h ~ H (and a pure trend has
identically vanishing fluctuations).  h is the OLS slope of log2 F(n)
against log2 n with the regression's slope standard error attached.

One engine, ``_tiling_rss``, fits the boxes of both estimators: each
day's profile is one window of the global estimator, which pools the
days' residuals so no box spans a day break, and ``local_hurst``'s
windows are stretches of the prices.  Per box size, windows whose boxes
hold few points (one window, or windows that barely overlap) are tiled
by reshapes; dense windows share one fit of every box start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateSeries, SeriesTooShort, WindowTooLarge
from .numerics import linfit

__all__ = [
    "DfaConfig",
    "HurstEstimate",
    "HurstSeries",
    "hurst_exponent",
    "local_hurst",
    "hurst_pdf",
    "avg_hurst_vs_scale",
]


# box sizes of a default ``DfaConfig``
_N_SIZES = 20


@dataclass(frozen=True)
class DfaConfig:
    """Box sizes and detrending order for DFA.

    ``box_sizes`` must be strictly increasing, each at least
    ``poly_order + 2`` so every box fit leaves a residual degree of
    freedom; the largest size needs ``min_boxes`` boxes to fit in the
    series for each of the two partition passes.
    """

    box_sizes: tuple
    poly_order: int = 1
    min_boxes = 4  # a constant, not a field

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.box_sizes)
        if len(sizes) < 3:
            raise ValueError("need at least 3 box sizes")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("box sizes must be strictly increasing")
        if self.poly_order < 1:
            raise ValueError("poly_order must be >= 1")
        if sizes[0] < self.poly_order + 2:
            raise ValueError(f"smallest box must be >= poly_order + 2 = {self.poly_order + 2}")
        object.__setattr__(self, "box_sizes", sizes)

    @classmethod
    def for_length(cls, n: int, poly_order: int = 1) -> "DfaConfig":
        """Roughly ``_N_SIZES`` geometrically spaced box sizes from 8 up
        to n // min_boxes."""
        largest = n // cls.min_boxes
        if largest < 8:
            raise SeriesTooShort(f"series of length {n} is too short for DFA")
        sizes = np.unique(np.round(np.geomspace(8, largest, _N_SIZES)).astype(int))
        return cls(box_sizes=tuple(sizes), poly_order=poly_order)


@dataclass(frozen=True)
class HurstEstimate:
    h: float
    stderr: float
    n_points: int


@dataclass(frozen=True)
class HurstSeries:
    """Local Hurst exponents on a sliding window.

    ``times[i]`` is the right edge (exclusive) of window i in grid units,
    so windows are stamped at the moment the last observation arrives.
    Windows that straddle a session boundary are kept but flagged.
    """

    times: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    stderr: np.ndarray = field(repr=False)
    spans_boundary: np.ndarray = field(repr=False)
    window: int
    shift: int
    n_points: int

    def __len__(self) -> int:
        return self.times.size


# ---------------------------------------------------------------------- cores


@lru_cache(maxsize=_N_SIZES)
def _poly_basis(n: int, order: int) -> np.ndarray:
    """Orthonormal basis of degree<=order polynomials sampled on n points,
    read-only.  Cached per (n, order), sized so that the box sizes of one
    default ``DfaConfig`` all stay between calls at that shape."""
    t = np.linspace(-1.0, 1.0, n)
    v = np.vander(t, order + 1, increasing=True)
    q, _ = np.linalg.qr(v)
    q.setflags(write=False)
    return q


def _box_rss(seg: np.ndarray, q: np.ndarray) -> tuple:
    """Sum of squares per row and the part of it the polynomial fit
    explains; their difference is the fit's residual sum of squares."""
    proj = seg @ q
    return np.einsum("ij,ij->i", seg, seg), np.einsum("ij,ij->i", proj, proj)


# Fitting every segment start (``_segment_rss``) cost 9 to 24 times as
# much per point of x as tiling did per box point (order 1, box sizes 8
# to 2048, 1e5 points, a 2-vCPU VM), so windows are tiled while their
# boxes hold at most this many points per point of x.  From 2 up, a
# single window always tiles.
_TILE_BUDGET = 8
# cancellation floor: differences this far below the subtracted terms
# are rounding residue of an exactly-fitting box, not signal
_FLOOR = 64.0 * np.finfo(float).eps


def _rss(s2, quad, out=None) -> np.ndarray:
    """The fits' residual sums of squares ``s2 - quad``, 0 where they are
    rounding residue of an exactly fitting box; spends s2 and quad."""
    rss = np.subtract(s2, quad, out=out)
    np.add(s2, quad, out=s2)
    flat = np.less_equal(rss, np.multiply(_FLOOR, s2, out=s2), out=quad.view(np.bool_)[: quad.size])
    np.copyto(rss, 0.0, where=flat)
    return rss


def _tiling_rss(x, m: int, shift: int, config: DfaConfig) -> np.ndarray:
    """Box RSS totals of the forward and backward tilings of each window
    ``x[s : s + m + 1]``, s = 0, shift, ..., one column per box size:
    size-n boxes start at s + 1 + j*n and s + 1 + m - k*n + j*n, j < k =
    m // n, so a column over 2*k*n is F(n)^2, 0 where every box fits."""
    wins = sliding_window_view(x, m + 1)[::shift]
    starts = shift * np.arange(len(wins))
    total = np.empty((starts.size, len(config.box_sizes)))
    work = inc_fft = None
    for j, n in enumerate(config.box_sizes):
        k = m // n
        q = _poly_basis(n, config.poly_order)
        if 2 * starts.size * k * n <= _TILE_BUDGET * x.size:
            work = None  # not held beside the boxes
            seg = np.empty((starts.size, 2, k, n))
            for half, first in enumerate((1, m + 1 - k * n)):
                tiles = wins[:, first : first + k * n].reshape(starts.size, k, n)
                np.subtract(tiles, tiles[:, :, :1], out=seg[:, half])  # conditioning only; absorbed by the fit
            total[:, j] = _rss(*_box_rss(seg.reshape(-1, n), q)).reshape(starts.size, 2 * k).sum(axis=1)
            del seg  # not held through the next box size
        else:
            if work is None:
                # one workspace until the next tiled size; no correlation
                # reads a wrapped lag once the transform holds all increments
                fft_len = 1 << (x.size - 2).bit_length()
                if inc_fft is None:
                    inc_fft = np.fft.rfft(np.diff(x), fft_len)
                work = np.empty(max(_work_len(x.size, fft_len, b, config.poly_order) for b in config.box_sizes[j:]))
            _window_sums(_segment_rss(x, q, inc_fft, fft_len, work), starts, m, n, work, total[:, j])
    return total


def _pooled_f2(days, config: DfaConfig) -> np.ndarray:
    """F(n)^2 per box size of increment series pooled as days: each day is
    profiled as one window of ``_tiling_rss``, and F(n)^2 is the days'
    total box RSS over their total box points."""
    sizes = np.array(config.box_sizes)
    rss = points = 0
    for day, inc in enumerate(days):
        if inc.size < sizes[-1] * config.min_boxes:
            raise SeriesTooShort(
                f"day {day}: length {inc.size} < largest box {sizes[-1]} x min_boxes {config.min_boxes}"
            )
        profile = np.zeros(inc.size + 1)
        np.cumsum(inc - inc.mean(), out=profile[1:])
        rss = rss + _tiling_rss(profile, inc.size, 1, config)[0]
        points = points + 2 * (inc.size // sizes) * sizes
    return np.maximum(rss, 0.0) / points


def hurst_exponent(series, config: DfaConfig | None = None) -> HurstEstimate:
    """DFA Hurst exponent of a price-like path (differenced internally).

    The days of ``session_boundaries`` are differenced and profiled apart
    and pooled, so no box spans a day break; the default config comes from
    the shortest day.
    """
    arr = np.asarray(getattr(series, "values", series), dtype=float).ravel()
    bounds = (*getattr(series, "session_boundaries", (0,)), arr.size)
    days = [np.diff(arr[a:b]) for a, b in zip(bounds, bounds[1:])]
    if config is None:
        day = int(np.argmin([inc.size for inc in days]))
        try:
            config = DfaConfig.for_length(days[day].size)
        except SeriesTooShort as exc:
            raise SeriesTooShort(f"day {day}: {exc}") from None
    f = np.sqrt(_pooled_f2(days, config))
    if np.any(f <= 0.0):
        raise DegenerateSeries("fluctuation function vanishes; no scaling exponent")
    fit = linfit(np.log2(config.box_sizes), np.log2(f))
    return HurstEstimate(h=fit.slope, stderr=fit.stderr, n_points=f.size)


def _work_len(size: int, fft_len: int, n: int, order: int) -> int:
    """float64 cells of ``_segment_rss`` at box size n; ``_window_sums``,
    under 4 cells per point (one window per point at most), fits too."""
    n_seg, n_blk = size - n + 1, -(-size // n)
    transforms = order * (fft_len + 2) + order * fft_len
    moments = n_seg + 2 * n_blk * n + 2 * (n_blk + 1) * (n + 1)
    return max(transforms, moments)


def _segment_rss(x, q, inc_fft, fft_len, work) -> np.ndarray:
    """``_rss`` of the fit with basis q to every segment ``x[b : b + n]``,
    b = 0 .. x.size - n, a view into ``work`` (see ``_work_len``).

    A box fit of a window's profile equals, in exact arithmetic, the same
    polynomial fit applied to the raw price segment covering the box
    (window-mean and profile-offset terms are affine and absorbed for
    poly_order >= 1).  ``inc_fft`` is ``rfft(diff(x), fft_len)``.
    """
    n, c = q.shape[0], q.shape[1] - 1
    n_seg = x.size - n + 1
    # Projections on the non-constant basis columns, by summation by parts:
    # each column q sums to zero, so sum_i q[i] x[b+i] = -sum_j Q[j] dx[b+j]
    # with Q the column's running sum, one cross-correlation per column.
    # The projections are Fortran-ordered: einsum adds the columns in
    # memory order, and C order rounds some sums of three differently.
    f = work[: c * (fft_len + 2)].view(complex).reshape(c, -1)
    np.fft.rfft(np.cumsum(q[:, 1:], axis=0)[:-1].T, fft_len, out=f)
    np.multiply(inc_fft, np.conjugate(f, out=f), out=f)
    proj = work[f.size * 2 : f.size * 2 + c * fft_len].reshape(fft_len, c).T
    np.fft.irfft(f, fft_len, out=proj)
    quad = np.einsum("ij,ij->j", proj[:, :n_seg], proj[:, :n_seg], out=work[:n_seg])  # over the spent f
    # Squared deviations from the segment mean, from moment sums taken
    # within aligned blocks of n points relative to each block's first
    # value: a segment spans at most two blocks, joined through their
    # level step, so rounding follows the segment's own variation rather
    # than the price level of the whole series.  The sums are built in
    # place, term by term in the order of their plain expressions, after
    # quad: the blocks, the running sums (zero first column, last row), s1.
    n_blk = -(-x.size // n)
    at = n_seg + n_blk * n
    work[n_seg : n_seg + x.size], work[n_seg + x.size : at] = x, x[-1]
    y = work[n_seg:at].reshape(n_blk, n)
    p1, p2 = p = work[at : at + 2 * (n_blk + 1) * (n + 1)].reshape(2, n_blk + 1, n + 1)
    p[:, :, 0] = p[:, -1] = 0.0
    lead = y[:, 0].copy()
    y -= lead[:, None]
    np.cumsum(y, axis=1, out=p1[:-1, 1:])
    np.cumsum(np.multiply(y, y, out=y), axis=1, out=p2[:-1, 1:])
    step = np.append(np.diff(lead), 0.0)[:, None]
    rs = np.multiply(np.arange(n), step, out=y)
    t1 = p1[1:, :n]
    s1 = np.subtract(p1[:-1, n:], p1[:-1, :n], out=work[at + p.size : at + p.size + n_blk * n].reshape(n_blk, n))
    s1 += t1
    s1 += rs
    t1 *= 2.0  # s1 has read t1
    t1 += rs
    t1 *= step
    s2 = np.subtract(p2[:-1, n:], p2[:-1, :n], out=y)  # t1 has read rs
    s2 += p2[1:, :n]
    s2 += t1
    s1 = s1.ravel()[:n_seg]
    s1 *= s1
    s1 /= n
    s1 += quad
    return _rss(s2.ravel()[:n_seg], s1, out=work[at : at + n_seg])  # the running sums are spent


def _window_sums(v, starts, m, n, work, out):
    """``out[i]``: the sum of v over the starts of the boxes that tile
    window i (see ``_tiling_rss``), as lookups into running sums within
    each residue class mod n.  The sums and the lookups' buffers take the
    head of ``work``, so v must lie past ``(v.size // n + 2) * n`` cells."""
    k, rows = m // n, -(-v.size // n) + 1
    c = work[: rows * n]
    c[:n], c[n : n + v.size], c[n + v.size :] = 0.0, v, 0.0
    np.cumsum(c.reshape(rows, n), axis=0, out=c.reshape(rows, n))
    idx, lo, hi = work[c.size : c.size + 3 * starts.size].reshape(3, -1)
    idx = idx.view(np.int64)
    for first, dest in zip((1, 1 + m - k * n), (out, hi)):
        np.add(starts, first, out=idx)
        np.take(c, idx, out=lo, mode="clip")  # mode "raise" would buffer out
        idx += k * n
        np.take(c, idx, out=hi, mode="clip")
        np.subtract(hi, lo, out=dest)
    out += hi


def local_hurst(series, window: int, shift: int, config: DfaConfig | None = None) -> HurstSeries:
    """Hurst exponent over sliding windows [t - window, t), t = window,
    window + shift, ...

    Windows whose fluctuation function vanishes at some scale (flat or
    exactly polynomial price segments) yield NaN estimates rather than an
    error, keeping the time axis intact.
    """
    arr = np.asarray(getattr(series, "values", series), dtype=float).ravel()
    boundaries = np.asarray(getattr(series, "session_boundaries", (0,)), dtype=np.int64)
    n_obs = arr.size
    if window < 8:
        raise WindowTooLarge("window must be at least 8 grid points")
    if window > n_obs:
        raise WindowTooLarge(f"window {window} exceeds series length {n_obs}")
    if shift < 1:
        raise ValueError("shift must be >= 1")
    m = window - 1  # increments per window
    if config is None:
        config = DfaConfig.for_length(m)
    if config.box_sizes[-1] * config.min_boxes > m:
        raise WindowTooLarge(
            f"largest box {config.box_sizes[-1]} needs min_boxes {config.min_boxes} "
            f"inside a window of {m} increments"
        )

    times = np.arange(window, n_obs + 1, shift, dtype=np.int64)
    starts = times - window
    sizes = np.array(config.box_sizes)
    # the table becomes 1/2 log2 F(n) in place, and the fit works in it
    logf = _tiling_rss(arr, m, shift, config)
    logf /= 2 * (m // sizes) * sizes
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log2(logf, out=logf)
    logf *= 0.5
    ok = np.all(np.isfinite(logf), axis=1)

    # vectorized OLS of log2 F on log2 n, one fit per window
    lx = np.log2(sizes)
    lx = lx - lx.mean()
    sxx = float(np.sum(lx**2))
    y = logf if ok.all() else logf[ok]
    del logf
    y -= y.mean(axis=1, keepdims=True)
    slopes = y @ lx / sxx
    for j, v in enumerate(lx):
        y[:, j] -= slopes * v
    rss = np.einsum("ij,ij->i", y, y)
    del y
    h = np.full(times.size, np.nan)
    se = np.full(times.size, np.nan)
    h[ok] = slopes
    se[ok] = np.sqrt(np.maximum(rss, 0.0) / (sizes.size - 2) / sxx)

    inner = boundaries[(boundaries > 0) & (boundaries < n_obs)]
    spans = np.searchsorted(inner, times) > np.searchsorted(inner, starts, side="right")

    return HurstSeries(
        times=times,
        h=h,
        stderr=se,
        spans_boundary=spans,
        window=window,
        shift=shift,
        n_points=sizes.size,
    )


# ------------------------------------------------------------------ summaries


@dataclass(frozen=True)
class HurstHistogram:
    edges: np.ndarray = field(repr=False)
    densities: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    n_used: int


def hurst_pdf(estimates, bins: int = 20) -> HurstHistogram:
    """Distribution of an array of Hurst estimates over [0, 1], normalized
    to unit area; NaN and out-of-range values are excluded from the
    normalization.
    """
    values = np.asarray(estimates, dtype=float)
    values = values[np.isfinite(values)]
    values = values[(values >= 0.0) & (values <= 1.0)]
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    n = int(counts.sum())
    width = 1.0 / bins
    densities = counts / (n * width) if n else counts.astype(float)
    return HurstHistogram(edges=edges, densities=densities, counts=counts, n_used=n)


@dataclass(frozen=True)
class ScaleRow:
    window: int
    mean_h: float | None
    sd_h: float
    n_windows: int

    @classmethod
    def of(cls, hs: HurstSeries) -> "ScaleRow":
        """Mean and sd of the finite h of ``hs``: mean None where none is
        finite, sd 0 where fewer than two are."""
        vals = hs.h[np.isfinite(hs.h)]
        mean = float(vals.mean()) if vals.size else None
        sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        return cls(hs.window, mean, sd, int(vals.size))


def avg_hurst_vs_scale(series, windows, shift: int, config: DfaConfig | None = None) -> list:
    """Mean and spread of the local Hurst exponent per window length."""
    rows = []
    for length in windows:
        rows.append(ScaleRow.of(local_hurst(series, int(length), shift, config)))
        if not rows[-1].n_windows:
            raise DegenerateSeries(f"no usable windows at L={length}")
    return rows
