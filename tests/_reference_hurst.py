"""The DFA estimators as they were before one engine served them, kept as
the reference the tests hold ``tickphys.hurst`` to.

``_poly_basis`` runs its QR decomposition afresh for every box size of
every call; ``hurst_exponent`` fits the same slope as the library on a
single day, and ``pooled_hurst_exponent`` pools days box by box.
``local_hurst`` fits every box start of every size once
(``_segment_rss``) and totals each window's boxes from running sums
(``_strided_sums``), whatever the windows' overlap.
"""

from __future__ import annotations

import numpy as np

from tickphys import DegenerateSeries, DfaConfig, HurstEstimate, HurstSeries, SeriesTooShort
from tickphys.numerics import linfit


def _poly_basis(n: int, order: int) -> np.ndarray:
    """Orthonormal basis of degree<=order polynomials sampled on n points."""
    t = np.linspace(-1.0, 1.0, n)
    v = np.vander(t, order + 1, increasing=True)
    q, _ = np.linalg.qr(v)
    return q


def _box_rss(segments: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Residual sum of squares of the polynomial fit, per row."""
    seg = segments - segments[:, :1]
    proj = seg @ q
    return np.einsum("ij,ij->i", seg, seg) - np.einsum("ij,ij->i", proj, proj)


def dfa_fluctuation(increments, config: DfaConfig) -> list:
    """``[(n, F(n)), ...]`` for each configured box size."""
    x = np.asarray(increments, dtype=float).ravel()
    n_obs = x.size
    if n_obs < 4:
        raise SeriesTooShort("need at least 4 increments")
    if np.all(x == x[0]):
        raise DegenerateSeries("constant input")
    if n_obs < config.box_sizes[-1] * config.min_boxes:
        raise SeriesTooShort(
            f"length {n_obs} < largest box {config.box_sizes[-1]} x min_boxes {config.min_boxes}"
        )
    profile = np.cumsum(x - x.mean())
    out = []
    for n in config.box_sizes:
        k = n_obs // n
        q = _poly_basis(n, config.poly_order)
        fwd = profile[: k * n].reshape(k, n)
        bwd = profile[n_obs - k * n :].reshape(k, n)
        rss = _box_rss(np.vstack([fwd, bwd]), q)
        f = np.sqrt(max(float(rss.sum()), 0.0) / (2 * k * n))
        out.append((int(n), f))
    return out


def hurst_exponent(series, config: DfaConfig | None = None) -> HurstEstimate:
    """DFA Hurst exponent of a price-like path (differenced internally)."""
    arr = np.asarray(getattr(series, "values", series), dtype=float).ravel()
    inc = np.diff(arr)
    if config is None:
        config = DfaConfig.for_length(inc.size)
    pairs = dfa_fluctuation(inc, config)
    f = np.array([p[1] for p in pairs])
    if np.any(f <= 0.0):
        raise DegenerateSeries("fluctuation function vanishes; no scaling exponent")
    fit = linfit(np.log2([p[0] for p in pairs]), np.log2(f))
    return HurstEstimate(h=fit.slope, stderr=fit.stderr, n_points=len(pairs))


def pooled_hurst_exponent(days, config: DfaConfig) -> float:
    """h of price-like days pooled: each day's own profile tiled forward and
    backward, F(n)^2 = total box RSS / total box points over the days."""
    rss, points = [0.0] * len(config.box_sizes), [0] * len(config.box_sizes)
    for path in days:
        inc = np.diff(np.asarray(path, dtype=float))
        profile = np.cumsum(inc - inc.mean())
        for j, n in enumerate(config.box_sizes):
            k = inc.size // n
            boxes = np.vstack([profile[: k * n].reshape(k, n), profile[inc.size - k * n :].reshape(k, n)])
            rss[j] += float(_box_rss(boxes, _poly_basis(n, config.poly_order)).sum())
            points[j] += 2 * k * n
    f = np.sqrt(np.maximum(rss, 0.0) / np.array(points))
    return linfit(np.log2(config.box_sizes), np.log2(f)).slope


def _segment_rss(x, n, order, inc_fft, fft_len):
    """RSS of the degree-``order`` fit to every segment ``x[b : b + n]``,
    b = 0 .. x.size - n, and whether it vanishes."""
    n_seg = x.size - n + 1
    n_blk = -(-x.size // n)
    blk = np.pad(x, (0, n_blk * n - x.size), mode="edge").reshape(n_blk, n)
    lead = blk[:, 0]
    y = blk - lead[:, None]
    p1 = np.zeros((n_blk + 1, n + 1))
    p2 = np.zeros((n_blk + 1, n + 1))
    np.cumsum(y, axis=1, out=p1[:-1, 1:])
    np.cumsum(y * y, axis=1, out=p2[:-1, 1:])
    r = np.arange(n)
    step = np.append(np.diff(lead), 0.0)[:, None]
    t1 = p1[1:, :n]
    s1 = p1[:-1, n:] - p1[:-1, :n] + t1 + r * step
    s2 = p2[:-1, n:] - p2[:-1, :n] + p2[1:, :n] + step * (2.0 * t1 + r * step)
    s1 = s1.ravel()[:n_seg]
    s2 = s2.ravel()[:n_seg]
    run = np.cumsum(_poly_basis(n, order)[:, 1:], axis=0)[:-1].T
    proj = np.fft.irfft(inc_fft * np.conj(np.fft.rfft(run, fft_len)), fft_len)[:, :n_seg]
    quad = s1 * s1 / n + np.einsum("ij,ij->j", proj, proj)
    rss = s2 - quad
    flat = rss <= 64.0 * np.finfo(float).eps * (s2 + quad)
    rss[flat] = 0.0
    return rss, flat


def _strided_sums(v, firsts, n, k):
    """``sum(v[a + j * n] for j in range(k))`` for every a in ``firsts``."""
    rows = -(-v.size // n) + 1
    c = np.zeros(rows * n, dtype=v.dtype)
    c[n : n + v.size] = v
    c = np.cumsum(c.reshape(rows, n), axis=0).ravel()
    return c[firsts + k * n] - c[firsts]


def local_hurst(series, window: int, shift: int, config: DfaConfig | None = None) -> HurstSeries:
    """Hurst exponent over sliding windows [t - window, t), t = window,
    window + shift, ...; windows whose F vanishes at some scale are NaN."""
    arr = np.asarray(getattr(series, "values", series), dtype=float).ravel()
    boundaries = np.asarray(getattr(series, "session_boundaries", (0,)), dtype=np.int64)
    n_obs = arr.size
    m = window - 1
    if config is None:
        config = DfaConfig.for_length(m)
    times = np.arange(window, n_obs + 1, shift, dtype=np.int64)
    starts = times - window
    sizes = np.array(config.box_sizes)
    fft_len = 1 << (n_obs - 2).bit_length()
    inc_fft = np.fft.rfft(np.diff(arr), fft_len)
    f2 = np.empty((times.size, sizes.size))
    for j, n in enumerate(config.box_sizes):
        k = m // n
        rss, flat = _segment_rss(arr, n, config.poly_order, inc_fft, fft_len)
        flat = flat.astype(np.int64)
        firsts = (starts + 1, starts + 1 + m - k * n)
        total = sum(_strided_sums(rss, a, n, k) for a in firsts)
        n_flat = sum(_strided_sums(flat, a, n, k) for a in firsts)
        total[n_flat == 2 * k] = 0.0
        f2[:, j] = total / (2 * k * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        logf = 0.5 * np.log2(f2)
    ok = np.all(np.isfinite(logf), axis=1)
    lx = np.log2(sizes)
    lx = lx - lx.mean()
    sxx = float(np.sum(lx**2))
    h = np.full(times.size, np.nan)
    se = np.full(times.size, np.nan)
    if np.any(ok):
        y = logf[ok]
        slopes = (y - y.mean(axis=1, keepdims=True)) @ lx / sxx
        resid = y - y.mean(axis=1, keepdims=True) - slopes[:, None] * lx[None, :]
        rss = np.einsum("ij,ij->i", resid, resid)
        h[ok] = slopes
        se[ok] = np.sqrt(np.maximum(rss, 0.0) / (sizes.size - 2) / sxx)
    inner = boundaries[(boundaries > 0) & (boundaries < n_obs)]
    spans = np.searchsorted(inner, times) > np.searchsorted(inner, starts, side="right")
    return HurstSeries(times=times, h=h, stderr=se, spans_boundary=spans,
                       window=window, shift=shift, n_points=sizes.size)
