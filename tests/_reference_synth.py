"""The fGn sampler as it was before its circulant spectrum was cached,
kept as the reference the tests hold ``tickphys.gen_fbm`` to.

``_fgn_circulant`` computes the autocovariance, the embedding's spectrum,
the rounding check and the amplitudes afresh on every draw.
"""

from __future__ import annotations

import numpy as np

from tickphys import EmbeddingNotDefinite, FbmSpec


def _fgn_autocov(n: int, hurst: float) -> np.ndarray:
    """Autocovariance of unit-variance fractional Gaussian noise, lags 0..n."""
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2.0 * np.abs(k) ** h2 + np.abs(k - 1) ** h2)


def _fgn_circulant(n: int, hurst: float, rng) -> np.ndarray:
    """Exact fGn sample by circulant embedding; see ``tickphys.synth``."""
    m = 1
    while m < n:
        m *= 2
    gamma = _fgn_autocov(m, hurst)
    row = np.concatenate([gamma[: m + 1], gamma[m - 1 : 0 : -1]])
    lam = np.fft.fft(row).real
    tol = 8.0 * m * np.finfo(float).eps * float(m) ** (2.0 * hurst)
    if lam.min() < -tol:
        raise EmbeddingNotDefinite(
            f"circulant embedding of fGn at H={hurst}, m={m} has eigenvalue "
            f"{lam.min():.3g} below the rounding bound -{tol:.3g}"
        )
    lam = np.maximum(lam, 0.0)

    two_m = 2 * m
    g = rng.standard_normal(two_m)
    w = np.empty(two_m, dtype=complex)
    w[0] = np.sqrt(lam[0] / two_m) * g[0]
    w[m] = np.sqrt(lam[m] / two_m) * g[m]
    half = np.sqrt(lam[1:m] / (2.0 * two_m))
    w[1:m] = half * (g[1:m] + 1j * g[m + 1 :])
    w[m + 1 :] = np.conj(w[1:m][::-1])
    return np.fft.fft(w).real[:n]


def gen_fbm(spec: FbmSpec) -> np.ndarray:
    """Fractional Brownian motion path of length spec.n starting at 0."""
    rng = np.random.default_rng(spec.seed)
    fgn = _fgn_circulant(spec.n - 1, spec.hurst, rng)
    out = np.empty(spec.n)
    out[0] = 0.0
    np.cumsum(fgn * spec.scale, out=out[1:])
    return out
