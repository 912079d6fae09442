"""DFA estimators against paths with known scaling.

The generators provide the oracle: white noise and fBm have known H, a
polynomial trend is absorbed exactly by a high enough detrending order,
and the sliding-window estimator at shift = window must reproduce the
whole-series estimator window by window.  The polynomial basis cache and
the one box-fitting engine are held to the estimators kept in
``_reference_hurst``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_hurst
from tickphys import hurst
from tickphys import (
    DegenerateSeries,
    DfaConfig,
    FbmSpec,
    RegularSeries,
    SeriesTooShort,
    WindowTooLarge,
    avg_hurst_vs_scale,
    gen_brownian,
    gen_fbm,
    hurst_exponent,
    hurst_pdf,
    local_hurst,
)


def test_dfa_config_validation():
    with pytest.raises(ValueError):
        DfaConfig(box_sizes=(8, 16))  # too few sizes
    with pytest.raises(ValueError):
        DfaConfig(box_sizes=(8, 8, 16))  # not strictly increasing
    with pytest.raises(ValueError):
        DfaConfig(box_sizes=(8, 16, 32), poly_order=0)
    with pytest.raises(ValueError):
        DfaConfig(box_sizes=(3, 16, 32), poly_order=2)  # smallest < order + 2
    with pytest.raises(SeriesTooShort):
        DfaConfig.for_length(10)


def test_dfa_config_for_length_spans_the_series():
    cfg = DfaConfig.for_length(1000)
    assert cfg.box_sizes[0] == 8
    assert cfg.box_sizes[-1] == 1000 // cfg.min_boxes
    assert all(a < b for a, b in zip(cfg.box_sizes, cfg.box_sizes[1:]))


def test_dfa_absorbs_polynomial_trend_exactly():
    # linear increments make a quadratic profile, which quadratic
    # detrending fits with zero residual (up to rounding)
    inc = 0.5 + 0.01 * np.arange(400.0)
    cfg = DfaConfig(box_sizes=(8, 16, 32, 64), poly_order=2)
    f = np.sqrt(hurst._pooled_f2([inc], cfg))
    profile_scale = float(np.abs(np.cumsum(inc - inc.mean())).max())
    assert f.size == 4 and (f <= 1e-8 * profile_scale).all()


def test_hurst_exponent_white_noise_path():
    est = hurst_exponent(gen_brownian(2**14, seed=21))
    assert abs(est.h - 0.5) < 0.08
    assert est.stderr < 0.05
    assert est.n_points >= 3


@pytest.mark.parametrize("h", [0.3, 0.7])
def test_hurst_exponent_fbm_recovery(h):
    est = hurst_exponent(gen_fbm(FbmSpec(hurst=h, n=2**14, seed=31)))
    assert abs(est.h - h) < 0.08


def test_hurst_exponent_pure_trend_is_degenerate():
    # arange keeps the increments exactly constant in floating point
    with pytest.raises(DegenerateSeries):
        hurst_exponent(np.arange(500.0))


def test_local_hurst_window_grid():
    path = gen_brownian(1000, seed=2)
    hs = local_hurst(path, window=256, shift=32)
    assert hs.times[0] == 256
    assert hs.times[-1] <= 1000
    assert hs.times.size == (1000 - 256) // 32 + 1
    assert hs.h.shape == hs.times.shape == hs.stderr.shape


def test_local_hurst_matches_global_estimator():
    path = gen_fbm(FbmSpec(hurst=0.6, n=8192, seed=7))
    hs = local_hurst(path, window=2048, shift=2048)
    for t, h in zip(hs.times, hs.h):
        ref = hurst_exponent(path[t - 2048 : t])
        assert abs(h - ref.h) < 1e-9


def test_local_hurst_higher_order_matches_global_estimator():
    path = gen_fbm(FbmSpec(hurst=0.6, n=4096, seed=13))
    cfg = DfaConfig.for_length(2047, poly_order=2)
    hs = local_hurst(path, window=2048, shift=2048, config=cfg)
    for t, h in zip(hs.times, hs.h):
        ref = hurst_exponent(path[t - 2048 : t], cfg)
        assert abs(h - ref.h) < 1e-9


@pytest.mark.parametrize("hurst", [0.5, 0.95])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_local_hurst_matches_direct_estimator_to_rounding(hurst, order):
    # a long persistent path wanders far from its mean, so any sum taken
    # over the whole series loses digits that the per-window fit keeps;
    # the shift is below the window and does not divide it
    path = gen_fbm(FbmSpec(hurst=hurst, n=50_000, seed=17))
    cfg = DfaConfig.for_length(2047, poly_order=order)
    hs = local_hurst(path, window=2048, shift=1500, config=cfg)
    assert hs.times.size == (50_000 - 2048) // 1500 + 1
    for t, h in zip(hs.times, hs.h):
        ref = hurst_exponent(path[t - 2048 : t], cfg)
        assert abs(h - ref.h) <= 1e-11


def test_local_hurst_flat_windows_are_nan():
    # a flat stretch and a straight ramp: every box fit is exact at every order
    path = gen_brownian(1000, seed=8).copy()
    path[300:400] = 5.0
    path[600:700] = path[600] + 3.0 * np.arange(100)
    for order in (1, 2, 3):
        cfg = DfaConfig.for_length(63, poly_order=order)
        hs = local_hurst(path, window=64, shift=16, config=cfg)
        flat = np.zeros(hs.times.size, dtype=bool)
        for a, b in ((300, 400), (600, 700)):
            inside = (hs.times - 64 >= a) & (hs.times <= b)
            assert inside.sum() >= 2
            flat |= inside
        assert np.all(np.isnan(hs.h[flat]))
        assert np.all(np.isfinite(hs.h[~flat]))


def test_local_hurst_flags_boundary_windows():
    series = RegularSeries(
        start_ns=0,
        interval_ns=1,
        values=gen_brownian(100, seed=4),
        session_boundaries=(0, 35),
    )
    hs = local_hurst(series, window=48, shift=8)
    expected = (hs.times - 48 < 35) & (35 < hs.times)
    assert np.array_equal(hs.spans_boundary, expected)
    assert expected.any() and not expected.all()


def test_local_hurst_validation():
    path = gen_brownian(500, seed=5)
    with pytest.raises(WindowTooLarge):
        local_hurst(path, window=4, shift=1)
    with pytest.raises(WindowTooLarge):
        local_hurst(path, window=501, shift=1)
    with pytest.raises(ValueError):
        local_hurst(path, window=64, shift=0)
    with pytest.raises(WindowTooLarge):
        local_hurst(path, window=64, shift=8, config=DfaConfig(box_sizes=(8, 16, 32)))


def test_hurst_pdf_normalization_and_filtering():
    values = [0.4, 0.5, 0.6, np.nan, 1.5, -0.2]
    hist = hurst_pdf(values, bins=10)
    assert hist.n_used == 3
    assert np.isclose(float(hist.densities @ np.diff(hist.edges)), 1.0)
    assert int(hist.counts.sum()) == 3


def test_avg_hurst_vs_scale_rows():
    path = gen_fbm(FbmSpec(hurst=0.5, n=4096, seed=6))
    rows = avg_hurst_vs_scale(path, windows=(256, 512), shift=128)
    assert [r.window for r in rows] == [256, 512]
    for row in rows:
        assert row.n_windows > 0
        assert 0.0 < row.mean_h < 1.0
        assert row.sd_h >= 0.0


@pytest.fixture
def fresh_basis():
    hurst._poly_basis.cache_clear()
    yield
    hurst._poly_basis.cache_clear()


def test_hurst_exponent_matches_the_uncached_estimator(fresh_basis):
    # configurations repeat (hits) and alternate between orders and
    # lengths, whose sizes together overflow the cache (evictions)
    paths = [gen_fbm(FbmSpec(hurst=h, n=n, seed=s)) for h, n, s in
             ((0.3, 4096, 1), (0.7, 4096, 2), (0.5, 3000, 3))]
    for _ in range(2):
        for order in (1, 2, 3):
            for path in paths:
                cfg = DfaConfig.for_length(path.size - 1, poly_order=order)
                got = hurst_exponent(path, cfg)
                assert repr(got) == repr(_reference_hurst.hurst_exponent(path, cfg))
                inc = np.diff(path)
                want = [f for _, f in _reference_hurst.dfa_fluctuation(inc, cfg)]
                assert np.sqrt(hurst._pooled_f2([inc], cfg)).tolist() == want
    info = hurst._poly_basis.cache_info()
    assert info.hits > 0 and info.misses > info.maxsize


@pytest.mark.parametrize("shift", [100, 1024])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_local_hurst_is_the_same_from_a_cold_and_a_warm_basis(order, shift, fresh_basis):
    path = gen_fbm(FbmSpec(hurst=0.6, n=6000, seed=21))
    cfg = DfaConfig.for_length(1023, poly_order=order)
    cold = local_hurst(path, window=1024, shift=shift, config=cfg)
    assert hurst._poly_basis.cache_info().hits == 0
    warm = local_hurst(path, window=1024, shift=shift, config=cfg)
    assert hurst._poly_basis.cache_info().hits == len(cfg.box_sizes)
    for name in ("times", "h", "stderr", "spans_boundary"):
        assert np.array_equal(getattr(cold, name), getattr(warm, name), equal_nan=True)


def test_cached_basis_is_read_only(fresh_basis):
    q = hurst._poly_basis(16, 2)
    assert q is hurst._poly_basis(16, 2)
    with pytest.raises(ValueError):
        q[0, 0] = 0.0


@settings(max_examples=40, deadline=None)
@given(
    h=st.floats(min_value=0.3, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31),
    order=st.integers(min_value=1, max_value=3),
    window=st.sampled_from([64, 200, 512, 1024]),
    shift_over_window=st.one_of(st.floats(min_value=0.002, max_value=0.2), st.floats(min_value=1.0, max_value=2.0)),
    flat=st.booleans(),
)
@example(h=0.95, seed=1, order=3, window=512, shift_over_window=0.05, flat=True)
@example(h=0.3, seed=2, order=1, window=1024, shift_over_window=1.0, flat=True)
def test_local_hurst_matches_the_frozen_kernel(h, seed, order, window, shift_over_window, flat):
    # shifts below the window fit every box start (all-starts branch),
    # sparse ones tile each window; the frozen kernel always fits every start
    path = gen_fbm(FbmSpec(hurst=h, n=5000, seed=seed))
    if flat:  # a flat stretch and a ramp: every box inside them fits exactly
        inc = np.diff(path)
        inc[1000:2200] = 0.0
        inc[3000:4200] = 0.5
        path = np.concatenate(([path[0]], path[0] + np.cumsum(inc)))
    shift = max(1, round(shift_over_window * window))
    cfg = DfaConfig.for_length(window - 1, poly_order=order)
    got = local_hurst(path, window, shift, cfg)
    ref = _reference_hurst.local_hurst(path, window, shift, cfg)
    assert np.array_equal(got.times, ref.times)
    assert np.array_equal(np.isnan(got.h), np.isnan(ref.h))
    m = window - 1
    tiled = any(2 * got.times.size * (m // n) * n <= hurst._TILE_BUDGET * path.size for n in cfg.box_sizes)
    if tiled:
        np.testing.assert_allclose(got.h, ref.h, rtol=0, atol=1e-11)
        np.testing.assert_allclose(got.stderr, ref.stderr, rtol=0, atol=1e-11)
    else:
        assert np.array_equal(got.h, ref.h, equal_nan=True)
        assert np.array_equal(got.stderr, ref.stderr, equal_nan=True)


@pytest.mark.parametrize("window, shift, order", [(8192, 10, 1), (4096, 64, 2), (2048, 64, 3)])
def test_local_hurst_matches_the_frozen_kernel_at_full_length(window, shift, order):
    # 1e5 points: transforms of 2**17, as the benchmark's, where the
    # property above runs on 8192; every box size is fitted at every start
    path = gen_fbm(FbmSpec(hurst=0.5, n=100_000, seed=17))
    cfg = DfaConfig.for_length(window - 1, poly_order=order)
    got = local_hurst(path, window, shift, cfg)
    ref = _reference_hurst.local_hurst(path, window, shift, cfg)
    for name in ("times", "h", "stderr"):  # NaN where the reference has NaN
        assert np.array_equal(getattr(got, name), getattr(ref, name), equal_nan=True), name


def _two_days(jump):
    # H = 0.3 days on a 1/1000 tick, so adding an integer jump is exact
    days = [np.round(1000 * gen_fbm(FbmSpec(hurst=0.3, n=2**15, seed=s))) for s in (41, 42)]
    sigma = float(np.std(np.diff(days[1])))
    second = days[1] - days[1][0] + days[0][-1] + np.round(jump * sigma)
    values = np.concatenate([days[0], second])
    return days, RegularSeries(start_ns=0, interval_ns=1, values=values, session_boundaries=(0, 2**15))


def test_hurst_exponent_pools_days_and_ignores_the_overnight_jump():
    days, series = _two_days(0)
    est = hurst_exponent(series)
    cfg = DfaConfig.for_length(2**15 - 1)
    assert est.h == _reference_hurst.pooled_hurst_exponent(days, cfg)
    assert est.h == hurst_exponent(series, cfg).h
    for jump in (50, 500):
        assert repr(hurst_exponent(_two_days(jump)[1])) == repr(est)


def test_hurst_exponent_names_the_day_too_short():
    path = gen_brownian(700, seed=9)
    series = RegularSeries(start_ns=0, interval_ns=1, values=path, session_boundaries=(0, 600))
    with pytest.raises(SeriesTooShort, match="day 1"):
        hurst_exponent(series, DfaConfig(box_sizes=(8, 16, 32)))
    series = RegularSeries(start_ns=0, interval_ns=1, values=path, session_boundaries=(0, 10, 600))
    with pytest.raises(SeriesTooShort, match="day 0"):
        hurst_exponent(series)
