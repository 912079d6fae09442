"""Shared numerical kernels: log-binned histograms, line fits, a clamped
Nelder-Mead minimizer, the log-density fit that both waiting-time laws go
through, and adaptive quadrature.

Everything here is deterministic: no global RNG state is consulted, and the
minimizer's trajectory depends only on its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateX, EmptyInput, FitDiverged, MaxDepthExceeded, NonFiniteObjective

__all__ = [
    "LogBinnedPdf",
    "LinFit",
    "log_bin",
    "linfit",
    "minimize",
    "quadrature",
]


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
    the last one.  Empty interior bins are kept (density 0).
    """
    s = np.asarray(samples, dtype=float).ravel()
    if s.size == 0:
        raise EmptyInput("log_bin requires at least one sample")
    if not np.all(s > 0):
        raise ValueError("log_bin requires strictly positive samples")
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be >= 1")
    lo = float(s.min())
    hi = float(s.max())
    n_bins = int(math.floor(bins_per_decade * math.log10(hi / lo))) + 1
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


def _clamp(x: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return x
    lo, hi = bounds
    return np.clip(x, lo, hi)


def minimize(objective, x0, bounds=None, *, xtol: float = 1e-8, max_evals: int = 10_000):
    """Nelder-Mead simplex minimization with box constraints by clamping.

    ``bounds`` is an optional sequence of per-coordinate (lo, hi) pairs;
    every trial point is clipped into the box before evaluation.
    Terminates when the relative simplex diameter drops below ``xtol`` or
    after ``max_evals`` objective evaluations.  Fully deterministic given
    ``x0``.

    Returns ``(x_best, f_best)``; never a point worse than the start.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    ndim = x0.size
    if bounds is not None:
        box = np.asarray(bounds, dtype=float)
        if box.shape != (ndim, 2):
            raise ValueError(f"bounds must be {ndim} (lo, hi) pairs")
        if np.any(box[:, 0] > box[:, 1]):
            raise ValueError("bounds must satisfy lo <= hi")
        bounds = (box[:, 0], box[:, 1])
    x0 = _clamp(x0, bounds)

    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        v = objective(x)
        return float(v) if np.isfinite(v) else math.inf

    f0 = f(x0)
    if not math.isfinite(f0):
        raise NonFiniteObjective("objective is not finite at the starting point")

    # Initial simplex: perturb each coordinate by 5% (0.00025 when zero).
    verts = [x0]
    for i in range(ndim):
        step = 0.05 * abs(x0[i]) if x0[i] != 0.0 else 0.00025
        v = x0.copy()
        v[i] += step
        v = _clamp(v, bounds)
        if np.array_equal(v, x0):
            v = x0.copy()
            v[i] -= step
            v = _clamp(v, bounds)
        verts.append(v)
    verts = np.array(verts)
    fvals = np.array([f0] + [f(v) for v in verts[1:]])

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    while evals < max_evals:
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        diam = np.max(np.abs(verts - verts[0]) / np.maximum(1.0, np.abs(verts[0])))
        if diam < xtol:
            break
        centroid = verts[:-1].mean(axis=0)
        xr = _clamp(centroid + alpha * (centroid - verts[-1]), bounds)
        fr = f(xr)
        if fr < fvals[0]:
            xe = _clamp(centroid + gamma * (xr - centroid), bounds)
            fe = f(xe)
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            xc = _clamp(centroid + rho * (verts[-1] - centroid), bounds)
            fc = f(xc)
            if fc < fvals[-1]:
                verts[-1], fvals[-1] = xc, fc
            else:  # shrink toward the best vertex
                for i in range(1, len(verts)):
                    verts[i] = _clamp(verts[0] + sigma * (verts[i] - verts[0]), bounds)
                    fvals[i] = f(verts[i])

    best = int(np.argmin(fvals))
    return verts[best].copy(), float(fvals[best])


def _fit_log_density(hist, log_model, theta0, lo, hi, jitter, seed, restarts):
    """Best (theta, sse) of count-weighted least squares between
    ``log_model(x, theta)`` and the log density at the occupied bin centers.

    The weights are counts over their sum, as var(log density) ~ 1/count.  The
    simplex starts at ``theta0``, then at ``restarts - 1`` draws of
    ``jitter(rng, theta0)`` from ``default_rng(seed)``, each clipped into
    [lo, hi].  A start where the model is not finite is skipped;
    FitDiverged when every one is.
    """
    occ = hist.occupied
    x = hist.centers[occ]
    y = np.log(hist.densities[occ])
    counts = hist.counts[occ].astype(float)
    w = counts / counts.sum()

    def objective(theta: np.ndarray) -> float:
        # w > 0, so a non-finite model gives a non-finite sse, which
        # minimize reads as inf
        r = log_model(x, theta) - y
        return float(w @ (r * r))

    rng = np.random.default_rng(seed)
    bounds = list(zip(lo, hi))
    best: tuple[np.ndarray, float] | None = None
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(max(restarts, 1)):
            start = np.clip(jitter(rng, theta0) if trial else theta0, lo, hi)
            try:
                theta, sse = minimize(objective, start, bounds=bounds)
            except NonFiniteObjective:
                continue
            if best is None or sse < best[1]:
                best = (theta, sse)
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
