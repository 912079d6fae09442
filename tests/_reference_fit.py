"""The two waiting-time fitters as they were before they shared
``numerics._fit_log_density``, kept as the reference the tests hold
``fit_first_passage`` and ``fit_stretched_exp`` to, ``repr`` for ``repr``.

Each carries its own copy of the count-weighted, log-density, jittered
restart simplex search, run one start after another through ``minimize``,
the numpy-array Nelder-Mead simplex as it was before the search moved to
Python floats and its restarts to lockstep.  The scalar density kernels are
kept here too and looked up on this module, so a test can replace them
here as it does on ``tickphys.invstat`` and ``tickphys.obrelax``.
"""

from __future__ import annotations

import math

import numpy as np

from tickphys.errors import FitDiverged, NonFiniteObjective, TooFewBins
from tickphys.invstat import FirstPassageFit
from tickphys.numerics import LogBinnedPdf, linfit
from tickphys.obrelax import StretchedExpFit


def _log_passage_density(t, alpha, beta, nu):
    return (
        math.log(nu)
        - math.lgamma(alpha / nu)
        + 2.0 * alpha * math.log(beta)
        - (alpha + 1.0) * np.log(t)
        - (beta * beta / t) ** nu
    )


def _log_stretched_density(t, tau_tilde, alpha):
    r = t / tau_tilde
    return math.log(alpha) - math.log(tau_tilde) + (alpha - 1.0) * np.log(r) - r**alpha


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


def _occupied_xyw(hist: LogBinnedPdf):
    occ = hist.occupied
    x = hist.centers[occ]
    y = np.log(hist.densities[occ])
    w = hist.counts[occ].astype(float)  # var(log density) ~ 1/count
    return x, y, w / w.sum()


def fit_first_passage(hist: LogBinnedPdf, restarts: int = 8) -> FirstPassageFit:
    """Count-weighted least squares in log density over occupied bins.

    Needs at least 8 occupied bins spanning two decades; the tail slope of
    the histogram seeds alpha, the empirical mode seeds beta, and a few
    jittered restarts of the simplex search guard against the shallow
    alpha/beta ridge.  Weighting by counts keeps sparse far-tail bins,
    whose log density is biased upward, from tilting the fit.
    """
    x, y, w = _occupied_xyw(hist)
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

    lo = np.array([1e-3, math.log(1e-4), math.log(0.05), 0.0])
    hi = np.array([30.0, math.log(1e8), math.log(15.0), 3.0 * x[-1]])

    def objective(theta: np.ndarray) -> float:
        alpha, lbeta, lnu, tau0 = theta  # the bounds keep alpha, beta, nu > 0 and tau0 >= 0
        with np.errstate(over="ignore", invalid="ignore"):
            model = _log_passage_density(x + tau0, alpha, math.exp(lbeta), math.exp(lnu))
        if not np.all(np.isfinite(model)):
            return math.inf
        r = model - y
        return float(w @ (r * r))

    rng = np.random.default_rng(0xA1B2)
    best: tuple[float, np.ndarray] | None = None
    for trial in range(max(restarts, 1)):
        theta0 = np.array([alpha0, math.log(beta0), 0.0, 0.0])
        if trial:
            theta0[0] *= math.exp(rng.normal(0.0, 0.3))
            theta0[1] += rng.normal(0.0, 0.3)
            theta0[2] = rng.normal(0.0, 0.2)
            theta0[3] = abs(rng.normal(0.0, 0.05 * tau_mode))
        theta0 = np.clip(theta0, lo, hi)
        try:
            theta, sse = minimize(objective, theta0, bounds=list(zip(lo, hi)))
        except NonFiniteObjective:
            continue
        if math.isfinite(sse) and (best is None or sse < best[0]):
            best = (sse, theta)
    if best is None:
        raise FitDiverged("no simplex start produced a finite fit")

    sse, theta = best
    return FirstPassageFit(
        alpha=float(theta[0]),
        beta=float(math.exp(theta[1])),
        nu=float(math.exp(theta[2])),
        tau0=float(theta[3]),
        sse=float(sse),
        n_bins=int(x.size),
    )


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
    y = np.log(hist.densities[occ])

    counts = hist.counts[occ].astype(float)
    w = counts / counts.sum()  # var(log density) ~ 1/count
    cum = np.cumsum(counts) / counts.sum()
    tau0 = float(x[np.searchsorted(cum, 0.632)]) if np.any(cum >= 0.632) else float(x[-1])

    lo = np.array([math.log(x[0] / 10.0), 0.02])
    hi = np.array([math.log(x[-1] * 10.0), 1.0])

    def objective(theta: np.ndarray) -> float:
        ltau, alpha = theta  # the bounds keep alpha in (0, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            model = _log_stretched_density(x, math.exp(ltau), alpha)
        if not np.all(np.isfinite(model)):
            return math.inf
        r = model - y
        return float(w @ (r * r))

    rng = np.random.default_rng(0x5E7A)
    best: tuple[float, np.ndarray] | None = None
    for trial in range(max(restarts, 1)):
        theta0 = np.array([math.log(tau0), 0.7])
        if trial:
            theta0[0] += rng.normal(0.0, 0.4)
            theta0[1] = rng.uniform(0.15, 1.0)
        theta0 = np.clip(theta0, lo, hi)
        try:
            theta, sse = minimize(objective, theta0, bounds=list(zip(lo, hi)))
        except NonFiniteObjective:
            continue
        if math.isfinite(sse) and (best is None or sse < best[0]):
            best = (sse, theta)
    if best is None:
        raise FitDiverged("no simplex start produced a finite fit")

    sse, theta = best
    return StretchedExpFit(
        tau_tilde=float(math.exp(theta[0])),
        alpha=float(theta[1]),
        sse=float(sse),
        n_bins=int(occ.size),
    )
