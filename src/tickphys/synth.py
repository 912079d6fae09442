"""Synthetic series with known scaling behaviour.

These generators are the ground truth used throughout the test suite: a
Brownian walk (H = 1/2), exact fractional Brownian motion for arbitrary H,
and an integer tick walk for first-passage checks.  All of them take an
explicit seed and draw from ``numpy.random.default_rng`` (PCG64), so a given
(seed, parameters) pair always reproduces the same series.

The fBm sampler's circulant spectrum depends only on the embedding size
and H, so it is computed once per shape and kept, read-only, for the
draws that follow at that shape; a cached draw is bit-identical to a
fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmbeddingNotDefinite

__all__ = ["FbmSpec", "gen_brownian", "gen_fbm", "gen_tick_walk"]


@dataclass(frozen=True)
class FbmSpec:
    """Parameters of a fractional Brownian motion sample path.

    ``scale`` is the standard deviation of the lag-1 increment.
    """

    hurst: float
    n: int
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie in (0, 1)")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0.0 < self.scale < np.inf:  # NaN fails too
            raise ValueError("scale must be finite and positive")


def gen_brownian(n: int, scale: float = 1.0, seed: int = 0) -> np.ndarray:
    """Gaussian random walk of length n starting at 0."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < scale < np.inf:
        raise ValueError("scale must be finite and positive")
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal(n - 1) * scale
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return out


def _fgn_autocov(n: int, hurst: float) -> np.ndarray:
    """Autocovariance of unit-variance fractional Gaussian noise, lags 0..n."""
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2.0 * np.abs(k) ** h2 + np.abs(k - 1) ** h2)


@lru_cache(maxsize=1)
def _fgn_amplitudes(m: int, hurst: float) -> tuple:
    """Amplitudes of the fGn circulant embedding of size 2m, which depend
    on (m, H) alone: ``(sqrt(lam_0 / 2m), sqrt(lam_m / 2m), half)``, with
    ``half = sqrt(lam[1:m] / 4m)`` read-only.

    The covariance of lags 0..m is embedded in a circulant of size 2m.
    For fGn the embedding is non-negative definite at every H, so a
    negative eigenvalue is rounding: up to eps * m^(2H) from each lag's
    second difference.  Eigenvalues above -8 m eps m^(2H) are clipped to
    zero; below it, EmbeddingNotDefinite (not cached: every call raises).
    One entry serves a run of draws at one shape and retains 8 m bytes.
    """
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
    half = np.sqrt(lam[1:m] / (2.0 * two_m))
    half.setflags(write=False)
    return np.sqrt(lam[0] / two_m), np.sqrt(lam[m] / two_m), half


def _fgn_circulant(n: int, hurst: float, rng) -> np.ndarray:
    """Exact fGn sample by circulant embedding (Davies & Harte 1987).

    m is the next power of two >= n, so the FFT length 2m is a power of
    two.  The embedding's amplitudes come from ``_fgn_amplitudes``, shared
    by every draw at one (m, H); each draw weights 2m standard normals by
    them, fills the Hermitian half and takes one FFT in place; the sample
    is a view of its real part.
    """
    m = 1
    while m < n:
        m *= 2
    a0, am, half = _fgn_amplitudes(m, hurst)

    two_m = 2 * m
    g = rng.standard_normal(two_m)
    w = np.empty(two_m, dtype=complex)
    w[0] = a0 * g[0]
    w[m] = am * g[m]
    w[1:m] = half * (g[1:m] + 1j * g[m + 1 :])
    w[m + 1 :] = np.conj(w[1:m][::-1])
    return np.fft.fft(w, out=w).real[:n]


def gen_fbm(spec: FbmSpec) -> np.ndarray:
    """Fractional Brownian motion path of length spec.n starting at 0.

    Increments are exact fractional Gaussian noise with Hurst exponent
    ``spec.hurst``, drawn by circulant embedding at every H and n; the path
    is their cumulative sum.  Raises EmbeddingNotDefinite if the embedding
    has an eigenvalue more negative than rounding explains.
    """
    rng = np.random.default_rng(spec.seed)
    fgn = _fgn_circulant(spec.n - 1, spec.hurst, rng)
    out = np.empty(spec.n)
    out[0] = 0.0
    np.cumsum(np.multiply(fgn, spec.scale, out=out[1:]), out=out[1:])
    return out


def gen_tick_walk(n: int, p_zero: float = 0.0, seed: int = 0) -> np.ndarray:
    """Integer random walk with steps -1/0/+1, starting at 0.

    Zero steps occur with probability ``p_zero``; the remaining mass is
    split evenly between -1 and +1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 <= p_zero < 1.0:
        raise ValueError("p_zero must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    u = rng.random(n - 1)
    steps = np.zeros(n - 1, dtype=np.int64)
    half = 0.5 * (1.0 - p_zero)
    steps[u < half] = 1
    steps[u >= 1.0 - half] = -1
    out = np.empty(n, dtype=np.int64)
    out[0] = 0
    np.cumsum(steps, out=out[1:])
    return out
