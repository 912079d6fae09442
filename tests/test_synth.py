"""Generators against their defining distributions.

Each sampler is exact, so the tests compare moments and correlation
structure to closed forms rather than to another implementation.  The
one exception is the fBm sampler's spectrum cache: cached draws are held
bit for bit to the uncached sampler kept in ``_reference_synth``.
"""

import numpy as np
import pytest
import scipy.stats

import _reference_synth
from tickphys import EmbeddingNotDefinite, FbmSpec, gen_brownian, gen_fbm, gen_tick_walk
from tickphys import synth
from tickphys.synth import _fgn_autocov


def sample_autocov(x: np.ndarray, lag: int) -> float:
    # the generators are zero-mean by construction; demeaning short
    # long-memory paths would bias the estimate down by ~n^(2H-1)/n
    return float(x[: x.size - lag] @ x[lag:]) / (x.size - lag)


def test_brownian_shape_and_seeding():
    a = gen_brownian(1000, seed=1)
    b = gen_brownian(1000, seed=1)
    c = gen_brownian(1000, seed=2)
    assert a[0] == 0.0 and a.size == 1000
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_brownian_increments_are_gaussian():
    inc = np.diff(gen_brownian(100_000, scale=2.0, seed=3))
    assert abs(inc.std() - 2.0) < 0.05
    assert scipy.stats.kstest(inc / 2.0, "norm").pvalue > 0.01
    with pytest.raises(ValueError):
        gen_brownian(1)


def test_fbm_spec_validation():
    with pytest.raises(ValueError):
        FbmSpec(hurst=1.0, n=100)
    with pytest.raises(ValueError):
        FbmSpec(hurst=0.5, n=1)
    with pytest.raises(ValueError):
        FbmSpec(hurst=0.5, n=100, scale=0.0)


@pytest.mark.parametrize("scale", [0.0, -2.0, float("nan"), float("inf"), -float("inf")])
def test_generators_refuse_a_scale_that_is_not_finite_and_positive(scale):
    with pytest.raises(ValueError, match="finite and positive"):
        FbmSpec(hurst=0.5, n=100, scale=scale)
    with pytest.raises(ValueError, match="finite and positive"):
        gen_brownian(100, scale=scale)


def test_fbm_reproducible_and_anchored():
    spec = FbmSpec(hurst=0.7, n=4096, seed=9)
    a = gen_fbm(spec)
    b = gen_fbm(spec)
    assert a[0] == 0.0 and a.size == 4096
    assert np.array_equal(a, b)


@pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
def test_fbm_increment_autocovariance(h):
    # pool increments over seeds; compare to the exact fGn autocovariance
    theory = _fgn_autocov(5, h)
    est = np.zeros(6)
    n_seeds = 8
    for seed in range(n_seeds):
        inc = np.diff(gen_fbm(FbmSpec(hurst=h, n=2**14, seed=100 + seed)))
        for lag in range(6):
            est[lag] += sample_autocov(inc, lag) / n_seeds
    assert np.allclose(est, theory, atol=0.03)


def test_fbm_scale_multiplies_increments():
    a = gen_fbm(FbmSpec(hurst=0.4, n=512, scale=1.0, seed=5))
    b = gen_fbm(FbmSpec(hurst=0.4, n=512, scale=3.0, seed=5))
    assert np.allclose(b, 3.0 * a)


def test_fbm_near_one_clips_rounding_in_the_spectrum():
    # H = 0.98 at m = 2**20: the embedding's most negative eigenvalue is
    # about -1e-7 of the largest, rounding from the autocovariance's
    # second difference, which once sent the sampler to an O(n^2) fallback
    h, m = 0.98, 2**20
    gamma = _fgn_autocov(m, h)
    lam = np.fft.fft(np.concatenate([gamma[: m + 1], gamma[m - 1 : 0 : -1]])).real
    assert lam.min() < -1e-9 * lam.max()
    path = gen_fbm(FbmSpec(hurst=h, n=m + 1, seed=4))
    assert path.size == m + 1 and path[0] == 0.0 and np.all(np.isfinite(path))


@pytest.fixture
def fresh_spectrum():
    # a spectrum cached by an earlier test would bypass a patched autocovariance
    synth._fgn_amplitudes.cache_clear()
    yield
    synth._fgn_amplitudes.cache_clear()


def not_a_covariance(n, hurst):
    gamma = np.zeros(n + 1)
    gamma[:2] = 1.0, 0.9  # eigenvalues 1 + 1.8 cos(theta) reach -0.8
    return gamma


def test_fbm_refuses_a_covariance_with_a_negative_spectrum(monkeypatch, fresh_spectrum):
    monkeypatch.setattr(synth, "_fgn_autocov", not_a_covariance)
    with pytest.raises(EmbeddingNotDefinite):
        gen_fbm(FbmSpec(hurst=0.5, n=1024, seed=1))


def test_a_refused_embedding_is_refused_on_every_call(monkeypatch, fresh_spectrum):
    monkeypatch.setattr(synth, "_fgn_autocov", not_a_covariance)
    for seed in (1, 1, 2):
        with pytest.raises(EmbeddingNotDefinite):
            gen_fbm(FbmSpec(hurst=0.5, n=1024, seed=seed))
    assert synth._fgn_amplitudes.cache_info().currsize == 0


def test_fbm_matches_the_uncached_sampler_bit_for_bit(fresh_spectrum):
    # shapes interleaved so that draws hit the cached spectrum (repeated
    # seeds, and n = 2**16, 2**16 + 1 sharing m) and evict it
    hursts = (0.05, 0.3, 0.5, 0.7, 0.95, 0.98)
    sizes = (2, 3, 1025, 2**16, 2**16 + 1)
    shapes = [(h, n) for h in hursts for n in sizes]
    order = [(h, n, s) for h, n in shapes for s in (7, 8)]
    order += [(h, n, 9) for h, n in shapes[::-1]]
    order += [(h, n, 7) for h, n in shapes[1::2] + shapes[::2]]
    for h, n, seed in order:
        spec = FbmSpec(hurst=h, n=n, seed=seed)
        assert np.array_equal(gen_fbm(spec), _reference_synth.gen_fbm(spec)), (h, n, seed)
    info = synth._fgn_amplitudes.cache_info()
    assert info.hits > 0 and info.misses > len(shapes)


def test_cached_spectrum_is_read_only(fresh_spectrum):
    gen_fbm(FbmSpec(hurst=0.7, n=100, seed=1))
    _, _, half = synth._fgn_amplitudes(128, 0.7)
    assert synth._fgn_amplitudes.cache_info().hits == 1
    with pytest.raises(ValueError):
        half[0] = 0.0


def test_tick_walk_steps_and_zero_fraction():
    walk = gen_tick_walk(200_000, p_zero=0.0, seed=1)
    steps = np.diff(walk)
    assert walk[0] == 0
    assert walk.dtype == np.int64
    assert set(np.unique(steps)) <= {-1, 1}

    lazy = np.diff(gen_tick_walk(200_000, p_zero=0.5, seed=2))
    zero_frac = float(np.mean(lazy == 0))
    assert abs(zero_frac - 0.5) < 0.01
    assert set(np.unique(lazy)) <= {-1, 0, 1}


def test_tick_walk_validation():
    with pytest.raises(ValueError):
        gen_tick_walk(1)
    with pytest.raises(ValueError):
        gen_tick_walk(10, p_zero=1.0)
