"""The two waiting-time fitters as they were before they shared
``numerics._fit_log_density``, kept as the reference the tests hold
``fit_first_passage`` and ``fit_stretched_exp`` to, ``repr`` for ``repr``.

Each carries its own copy of the count-weighted, log-density, jittered
restart simplex search.  The density kernels are looked up on this module,
so a test can replace them here as it does on ``tickphys.invstat`` and
``tickphys.obrelax``.
"""

from __future__ import annotations

import math

import numpy as np

from tickphys.errors import FitDiverged, NonFiniteObjective, TooFewBins
from tickphys.invstat import FirstPassageFit, _log_passage_density
from tickphys.numerics import LogBinnedPdf, linfit
from tickphys.obrelax import StretchedExpFit, _log_stretched_density


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
    from tickphys.numerics import minimize

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
    from tickphys.numerics import minimize

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
