"""The global DFA estimator as it was before its polynomial basis was
cached, kept as the reference the tests hold ``tickphys.hurst`` to.

``_poly_basis`` runs its QR decomposition afresh for every box size of
every call; ``hurst_exponent`` fits the same slope as the library.
"""

from __future__ import annotations

import numpy as np

from tickphys import DegenerateSeries, DfaConfig, HurstEstimate, SeriesTooShort
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
