"""Shared numerical kernels: log-binned histograms, line fits, a clamped
Nelder-Mead minimizer, the log-density fit that both waiting-time laws go
through, and adaptive quadrature.

The minimizer is one simplex search on Python floats, written as a
generator that yields trial points and is sent their values.  ``minimize``
drives one search per start in lockstep.  The log-density fit draws all
its restart points first and hands them to ``minimize``: each round, the
pending trial points of every live search go to the density model in one
batched call, with the parameters as columns.

Everything here is deterministic: no global RNG state is consulted, and the
minimizer's trajectory depends only on its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .errors import DegenerateX, EmptyInput, FitDiverged, MaxDepthExceeded, TooManyBins

__all__ = [
    "LogBinnedPdf",
    "LinFit",
    "log_bin",
    "linfit",
    "minimize",
    "quadrature",
]

MAX_BINS = 2**20  # the most bins a histogram may hold; more raise TooManyBins


# ------------------------------------------------------------------ histograms


@dataclass(frozen=True)
class LogBinnedPdf:
    """Histogram with geometric bin edges, normalized to a density.

    ``densities[i] = counts[i] / (total_count * width_i)``, where
    ``total_count`` includes censored observations that never entered a bin,
    so the density integrates to at most 1.
    """

    edges: np.ndarray = field(repr=False)
    densities: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    total_count: int
    censored_count: int = 0

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def centers(self) -> np.ndarray:
        """Geometric bin midpoints."""
        return np.sqrt(self.edges[:-1] * self.edges[1:])

    @property
    def occupied(self) -> np.ndarray:
        return self.counts > 0


def log_bin(samples, bins_per_decade: int, censored_count: int = 0) -> LogBinnedPdf:
    """Histogram positive samples into geometrically spaced bins.

    Edges start at the smallest sample and step by 10**(1/bins_per_decade);
    enough bins are laid down that the largest sample falls strictly inside
    the last one.  Empty interior bins are kept (density 0).  Integer
    samples are binned as they are: ``np.histogram`` casts them to float a
    block at a time, and the cast is monotone, so edges and counts are
    those of the float copy that is never made.  Over ``MAX_BINS`` bins,
    or bins per decade, raise ``TooManyBins`` before any array is made.
    """
    s = np.asarray(samples).ravel()
    if not np.issubdtype(s.dtype, np.integer):
        s = s.astype(float, copy=False)
    if s.size == 0:
        raise EmptyInput("log_bin requires at least one sample")
    lo, hi = float(s.min()), float(s.max())
    if not lo > 0:  # a NaN fails this too
        raise ValueError("log_bin requires strictly positive samples")
    if hi == math.inf:
        raise ValueError("log_bin requires finite samples")
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be >= 1")
    decades = math.log10(hi / lo)
    if bins_per_decade > MAX_BINS or bins_per_decade * decades >= MAX_BINS:  # no product overflows
        raise TooManyBins(f"over {MAX_BINS} bins: {bins_per_decade} per decade over {decades:.3g} decades")
    n_bins = int(math.floor(bins_per_decade * decades)) + 1
    edges = lo * 10.0 ** (np.arange(n_bins + 1) / bins_per_decade)
    while hi >= edges[-1]:  # guard against round-off at the top edge
        edges = np.append(edges, lo * 10.0 ** (len(edges) / bins_per_decade))
    counts, _ = np.histogram(s, bins=edges)
    total = int(s.size) + int(censored_count)
    densities = counts / (total * np.diff(edges))
    return LogBinnedPdf(
        edges=edges,
        densities=densities,
        counts=counts,
        total_count=total,
        censored_count=int(censored_count),
    )


# ------------------------------------------------------------------- line fit


@dataclass(frozen=True)
class LinFit:
    slope: float
    intercept: float
    stderr: float
    r2: float
    sse: float
    n: int


def linfit(x, y) -> LinFit:
    """Ordinary least squares line y = slope*x + intercept.

    ``stderr`` is the standard error of the slope estimate and ``sse`` the
    residual sum of squares.  Requires at least three points and
    non-degenerate x.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size < 3:
        raise EmptyInput("linfit requires at least 3 points")
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise DegenerateX("all x values are equal")
    ym = y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    sse = float(resid @ resid)
    tss = float(np.sum((y - ym) ** 2))
    dof = x.size - 2
    stderr = math.sqrt(sse / dof / sxx)
    r2 = 1.0 if tss == 0.0 else max(0.0, min(1.0, 1.0 - sse / tss))
    return LinFit(slope=slope, intercept=intercept, stderr=stderr, r2=r2, sse=sse, n=x.size)


# ------------------------------------------------------------------ minimizer


def _clip(point: list, lo: list, hi: list) -> list:
    """np.clip on floats: NaN passes through, and a value at a bound becomes
    that bound, sign of zero included."""
    out = []
    for v, a, b in zip(point, lo, hi):
        if not v > a and v == v:
            v = a
        if not v < b and v == v:
            v = b
        out.append(v)
    return out


def _converged(verts: list, xtol: float) -> bool:
    """max |v - best| / max(1, |best|) < xtol over the simplex, stopping at
    the first coordinate that fails; a NaN fails, as it does in np.max."""
    best = verts[0]
    for v in verts[1:]:
        for a, b in zip(v, best):
            if not abs(a - b) / max(1.0, abs(b)) < xtol:
                return False
    return True


def _simplex(x0: list, lo: list, hi: list, xtol: float, max_evals: int):
    """Clamped Nelder-Mead search on lists of floats, as a generator.

    It yields each trial point, is sent back that point's value (inf where
    the objective is not finite), and returns ``(x_best, f_best)``, or None
    when the objective is not finite at the start.  Each step keeps the
    operation order of the same search on numpy arrays, so the two agree
    bit for bit: clipping is np.clip's, the centroid adds the kept vertices
    to 0.0 row by row and then divides, the vertices sort stably, and the
    best is the first minimum.
    """
    x0 = _clip(x0, lo, hi)
    f0 = yield x0
    if not math.isfinite(f0):
        return None

    # Initial simplex: perturb each coordinate by 5% (0.00025 when zero).
    ndim = len(x0)
    verts = [x0]
    for i in range(ndim):
        step = 0.05 * abs(x0[i]) if x0[i] != 0.0 else 0.00025
        v = x0.copy()
        v[i] += step
        v = _clip(v, lo, hi)
        if all(a == b for a, b in zip(v, x0)):
            v = x0.copy()
            v[i] -= step
            v = _clip(v, lo, hi)
        verts.append(v)
    fvals = [f0]
    for v in verts[1:]:
        fvals.append((yield v))
    evals = ndim + 1

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    while evals < max_evals:
        order = sorted(range(ndim + 1), key=fvals.__getitem__)
        verts = [verts[k] for k in order]
        fvals = [fvals[k] for k in order]
        if _converged(verts, xtol):
            break
        best, worst = verts[0], verts[-1]
        centroid = [reduce(add, col, 0.0) / ndim for col in zip(*verts[:-1])]
        xr = _clip([c + alpha * (c - w) for c, w in zip(centroid, worst)], lo, hi)
        fr = yield xr
        evals += 1
        if fr < fvals[0]:
            xe = _clip([c + gamma * (r - c) for c, r in zip(centroid, xr)], lo, hi)
            fe = yield xe
            evals += 1
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            xc = _clip([c + rho * (w - c) for c, w in zip(centroid, worst)], lo, hi)
            fc = yield xc
            evals += 1
            if fc < fvals[-1]:
                verts[-1], fvals[-1] = xc, fc
            else:  # shrink toward the best vertex
                for i in range(1, ndim + 1):
                    verts[i] = _clip([b + sigma * (v - b) for b, v in zip(best, verts[i])], lo, hi)
                    fvals[i] = yield verts[i]
                    evals += 1

    k = fvals.index(min(fvals))
    return verts[k], fvals[k]


def minimize(evaluate, starts, lo, hi, *, xtol: float = 1e-8, max_evals: int = 10_000) -> list:
    """Clamped Nelder-Mead searches, one per point of the list ``starts``, in lockstep.

    Each round ``evaluate`` gets the pending trial point of every live
    search, as lists of floats clipped into [lo, hi], and returns their
    values in that order (inf where not finite).  A search stops when its
    relative simplex diameter drops below ``xtol`` or after ``max_evals``
    of its points.  Returns one ``(x_best, f_best)`` per start, never worse
    than the start, or None where the objective is not finite there.
    """
    if len(lo) != len(hi) or any(len(x0) != len(lo) for x0 in starts) or any(a > b for a, b in zip(lo, hi)):
        raise ValueError("each start needs one (lo, hi) bound per coordinate, with lo <= hi")
    searches = [_simplex(x0, lo, hi, xtol, max_evals) for x0 in starts]
    results = [None] * len(searches)
    pending = {k: next(search) for k, search in enumerate(searches)}
    while pending:
        keys = list(pending)
        for k, v in zip(keys, evaluate([pending[k] for k in keys]), strict=True):
            v = float(v)
            try:
                pending[k] = searches[k].send(v if math.isfinite(v) else math.inf)
            except StopIteration as done:
                del pending[k]
                results[k] = done.value
    return results


def _columns(rows):
    """Rows of K parameter tuples as one (K, 1) column per parameter."""
    return np.array(list(rows)).T[:, :, None]


def _by_row(fn, *params):
    """``fn`` of scalar parameters; of (K, 1) columns, ``fn`` of each row's
    floats, as a column, so constants taken with ``math`` stay per row."""
    if np.ndim(params[0]) == 0:
        return fn(*params)
    return np.array(list(map(fn, *(p[:, 0].tolist() for p in params))))[:, None]


def _power_by_row(base, exponent):
    """``base ** exponent`` for a scalar exponent or a (K, 1) column, each
    row what the row's scalar exponent gives: numpy raises an array to a
    scalar 0.5, 2 or -1 by sqrt, square or reciprocal, which can differ
    from pow in the last bit."""
    out = base**exponent
    if np.ndim(exponent):
        for k, e in enumerate(exponent[:, 0].tolist()):
            if e in (0.5, 2.0, -1.0):
                out[k] = base[k] ** e
    return out


def _fit_log_density(hist, log_model, theta0, lo, hi, jitter, seed, restarts):
    """Best (theta, sse) of count-weighted least squares between
    ``log_model(x, thetas)`` and the log density at the occupied bin centers.

    The weights are counts over their sum, as var(log density) ~ 1/count.  The
    simplex starts at ``theta0``, then at ``restarts - 1`` draws of
    ``jitter(rng, theta0)`` from ``default_rng(seed)``, each clipped into
    [lo, hi].  All starts are drawn first and their searches run in lockstep:
    each round ``log_model`` gets the pending point of every live search, as
    lists of floats, and returns one row of log density per point (or one
    row for all).  A start where the model is not finite is skipped;
    FitDiverged when every one is.  The best fit is the first with the
    smallest sse, in start order.
    """
    occ = hist.occupied
    x = hist.centers[occ]
    y = np.log(hist.densities[occ])
    counts = hist.counts[occ].astype(float)
    w = counts / counts.sum()

    def sse(thetas):
        # w > 0, so a non-finite model gives a non-finite sse, which the
        # search reads as inf
        resid = log_model(x, thetas) - y
        if resid.ndim == 1:
            resid = [resid] * len(thetas)
        return [float(w @ (r * r)) for r in resid]

    rng = np.random.default_rng(seed)
    starts = [
        np.clip(jitter(rng, theta0) if trial else theta0, lo, hi).tolist()
        for trial in range(max(restarts, 1))
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        fits = minimize(sse, starts, lo.tolist(), hi.tolist())
    best = None
    for fit in fits:
        if fit is not None and (best is None or fit[1] < best[1]):
            best = fit
    if best is None:
        raise FitDiverged("no simplex start produced a finite fit")
    return best


# ----------------------------------------------------------------- quadrature


def _simpson(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise MaxDepthExceeded("adaptive Simpson recursion limit reached")
    return _simpson(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1) + _simpson(
        f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1
    )


def quadrature(f, a: float, b: float, tol: float = 1e-9, max_depth: int = 60) -> float:
    """Adaptive Simpson integral of ``f`` over [a, b] to absolute tolerance.

    ``b = inf`` integrates over [a, inf) through the substitution
    u = t/(1+t), which maps the half line onto [0, 1); the integrand must
    decay fast enough for the transformed integrand to stay integrable.
    """
    if math.isinf(b):

        def g(u):
            if u >= 1.0:
                return 0.0
            t = u / (1.0 - u)
            ft = f(a + t)
            if ft == 0.0:
                return 0.0
            return ft / (1.0 - u) ** 2

        return quadrature(g, 0.0, 1.0, tol=tol, max_depth=max_depth)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(f, a, fa, b, fb, m, fm, whole, tol, max_depth)
