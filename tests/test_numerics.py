"""Shared numerical kernels, oracle-first.

Known closed forms come first (exact integrals, hand-binned
histograms); the optimizer is checked on standard landscapes; invariants
that must hold for any input run under hypothesis.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_fit as reference
from _power_law import sample_power_law
from tickphys import (
    DegenerateX,
    EmptyInput,
    MaxDepthExceeded,
    NonFiniteObjective,
    TooManyBins,
    linfit,
    log_bin,
    minimize,
    numerics,
    quadrature,
)


# ----------------------------------------------------------------- log_bin


def test_log_bin_two_samples_one_decade():
    hist = log_bin([1.0, 10.0], bins_per_decade=1)
    assert np.allclose(hist.edges, [1.0, 10.0, 100.0])
    assert hist.counts.tolist() == [1, 1]
    assert hist.total_count == 2
    # density = count / (total * width)
    assert np.allclose(hist.densities, [1 / (2 * 9.0), 1 / (2 * 90.0)])


def test_log_bin_keeps_empty_interior_bins():
    hist = log_bin([1.0, 100.0], bins_per_decade=1)
    assert hist.counts.tolist() == [1, 0, 1]
    assert hist.occupied.tolist() == [True, False, True]


def test_log_bin_identical_samples_single_bin():
    hist = log_bin([1.0, 1.0, 1.0], bins_per_decade=1)
    assert hist.counts.tolist() == [3]
    assert np.isclose(hist.densities[0], 1.0 / 9.0)


def test_log_bin_censored_normalization():
    hist = log_bin([1.0, 2.0, 3.0], bins_per_decade=5, censored_count=7)
    assert hist.total_count == 10
    # density integrates to the resolved fraction only
    assert np.isclose(float(hist.densities @ np.diff(hist.edges)), 0.3)


def test_log_bin_centers_are_geometric():
    hist = log_bin([1.0, 50.0], bins_per_decade=3)
    assert np.allclose(hist.centers, np.sqrt(hist.edges[:-1] * hist.edges[1:]))


def test_log_bin_rejects_bad_input():
    with pytest.raises(EmptyInput):
        log_bin([], 10)
    with pytest.raises(ValueError):
        log_bin([1.0, -2.0], 10)
    with pytest.raises(ValueError):
        log_bin([1.0], 0)
    # a NaN or a non-positive sample, float or int, is refused
    for bad in ([np.nan], [1.0, np.nan, 2.0], np.array([3, 0]), np.array([-1, 5], dtype=np.int64)):
        with pytest.raises(ValueError):
            log_bin(bad, 10)
    # an infinite sample is a bad sample, not a histogram of infinitely many bins
    for bad in ([1.0, math.inf], np.array([2.0, math.inf, 3.0])):
        with pytest.raises(ValueError, match="requires finite"):
            log_bin(bad, 10)
    # over MAX_BINS bins, or bins per decade, before any array, also where
    # bins_per_decade times the decades would overflow a float
    top = numerics.MAX_BINS
    for samples, bpd in (([1, 10], 10**400), ([1, 10], 10**12), ([1.0, 1.0], top + 1), ([1, 100], top // 2)):
        with pytest.raises(TooManyBins):
            log_bin(samples, bpd)
    assert len(log_bin([1.0, 1.0], top)) == 1
    assert len(log_bin([1, 10], top // 4)) >= top // 4


@settings(max_examples=100, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False), min_size=1, max_size=200
    ),
    bpd=st.integers(min_value=1, max_value=25),
)
def test_log_bin_conserves_counts_and_mass(samples, bpd):
    hist = log_bin(samples, bpd)
    assert int(hist.counts.sum()) == len(samples)
    # every sample falls inside the edge range
    assert hist.edges[0] <= min(samples) and max(samples) < hist.edges[-1]
    assert np.isclose(float(hist.densities @ np.diff(hist.edges)), 1.0)


def assert_same_hist(got, want):
    assert got.edges.tobytes() == want.edges.tobytes()
    assert got.counts.dtype == want.counts.dtype and got.counts.tobytes() == want.counts.tobytes()
    assert got.densities.tobytes() == want.densities.tobytes()
    assert (got.total_count, got.censored_count) == (want.total_count, want.censored_count)


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(
        st.one_of(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2**53 - 3, max_value=2**63 - 1)),
        min_size=1,
        max_size=200,
    ),
    bpd=st.integers(min_value=1, max_value=25),
    censored=st.integers(min_value=0, max_value=50),
)
@example(samples=[2**53 + 1], bpd=10, censored=0)  # one sample, beyond exact floats
@example(samples=[2**53, 2**53 + 1, 2**53 - 1, 7], bpd=3, censored=2)
def test_log_bin_bins_ints_as_their_float_copy(samples, bpd, censored):
    """int64 samples are binned without a float copy, with the edges,
    counts and densities of that copy, bit for bit."""
    ints = np.array(samples, dtype=np.int64)
    assert_same_hist(log_bin(ints, bpd, censored), log_bin(ints.astype(float), bpd, censored))


# ------------------------------------------------------------------ linfit


def test_linfit_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = linfit(x, 2.0 * x + 1.0)
    assert np.isclose(fit.slope, 2.0)
    assert np.isclose(fit.intercept, 1.0)
    assert np.isclose(fit.stderr, 0.0)
    assert np.isclose(fit.r2, 1.0)


def test_linfit_matches_reference_ols():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 10.0, 40)
    y = 1.7 * x - 4.0 + rng.standard_normal(40)
    ours = linfit(x, y)
    ref = scipy.stats.linregress(x, y)
    assert np.isclose(ours.slope, ref.slope)
    assert np.isclose(ours.intercept, ref.intercept)
    assert np.isclose(ours.stderr, ref.stderr)
    assert np.isclose(ours.r2, ref.rvalue**2)
    resid = y - (ref.intercept + ref.slope * x)
    assert np.isclose(ours.sse, float(np.sum(resid**2)))


def test_linfit_rejects_degenerate_input():
    with pytest.raises(EmptyInput):
        linfit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateX):
        linfit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- minimize


def rosenbrock(v):
    x, y = v
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def test_minimize_rosenbrock():
    x, fx = minimize(rosenbrock, [-1.2, 1.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-3)
    assert fx < 1e-7


def test_minimize_respects_bounds():
    # unconstrained optimum (3, -2) sits outside the box; the constrained
    # optimum is the nearest corner
    obj = lambda v: (v[0] - 3.0) ** 2 + (v[1] + 2.0) ** 2
    x, _ = minimize(obj, [0.0, 0.0], bounds=[(-1.0, 1.0), (-1.0, 1.0)])
    assert np.allclose(x, [1.0, -1.0], atol=1e-6)


def test_minimize_bounded_rosenbrock_reaches_interior_optimum():
    x, fx = minimize(rosenbrock, [-1.2, 1.0], bounds=[(-2.0, 2.0), (-2.0, 2.0)])
    assert np.allclose(x, [1.0, 1.0], atol=1e-3)
    assert fx < 1e-7


def test_minimize_is_deterministic():
    a = minimize(rosenbrock, [0.3, -0.7])
    b = minimize(rosenbrock, [0.3, -0.7])
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_minimize_never_returns_worse_than_start():
    obj = lambda v: float(np.sum(v * v))
    x0 = np.array([5.0, -3.0])
    _, fx = minimize(obj, x0, max_evals=4)
    assert fx <= obj(x0)


def test_minimize_validates_bounds_and_objective():
    with pytest.raises(ValueError):
        minimize(rosenbrock, [0.0, 0.0], bounds=[(0.0, 1.0)])
    with pytest.raises(ValueError):
        minimize(rosenbrock, [0.0, 0.0], bounds=[(1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(NonFiniteObjective):
        minimize(lambda v: math.nan, [0.0])


def nan_capped_rosenbrock(cut, step):
    """Rosenbrock in + - * only, so list and array points give the same
    bits, NaN where x + y > cut, and floored to multiples of ``step`` when
    one is given, so that ties test the order of the vertices."""

    def f(v):
        x, y = v
        if x + y > cut:
            return math.nan
        a = 1.0 - x
        b = y - x * x
        r = a * a + 100.0 * b * b
        return r if step is None else math.floor(r / step) * step

    return f


zeros = st.sampled_from([0.0, -0.0])  # np.clip and a numpy mean decide the sign of a zero


@settings(max_examples=60, deadline=None)
@given(
    box=st.none()
    | st.lists(
        st.tuples(zeros | st.floats(-3.0, 1.0), zeros | st.floats(0.01, 4.0)),
        min_size=2,
        max_size=2,
    ),
    starts=st.lists(
        st.tuples(zeros | st.floats(-4.0, 4.0), zeros | st.floats(-4.0, 4.0)),
        min_size=1,
        max_size=8,
    ),
    cut=st.floats(-2.0, 6.0),
    step=st.sampled_from([None, 0.5, 8.0]),
    xtol=st.sampled_from([1e-8, 1e-3]),
    max_evals=st.integers(1, 300),
)
def test_lockstep_searches_match_separate_reference_runs(box, starts, cut, step, xtol, max_evals):
    if box is None:
        bounds, lo, hi = None, [-math.inf] * 2, [math.inf] * 2
    else:
        bounds = [(a, a + width) for a, width in box]
        lo, hi = (list(side) for side in zip(*bounds))
    f = nan_capped_rosenbrock(cut, step)

    def run(search, start):
        """Result (None where the start is not finite) and trial points."""
        trials = []

        def logged(v):
            trials.append(np.array(v).tobytes())
            return f(v)

        try:
            x, fx = search(logged, start, bounds, xtol=xtol, max_evals=max_evals)
        except NonFiniteObjective:
            return None, trials
        return (np.array(x).tobytes(), fx), trials

    lockstep_evals = 0

    def evaluate(points):
        nonlocal lockstep_evals
        lockstep_evals += len(points)
        return [f(p) for p in points]

    got = numerics._minimize_all(
        evaluate, [list(s) for s in starts], lo, hi, xtol=xtol, max_evals=max_evals
    )
    assert len(got) == len(starts)
    reference_evals = 0
    for start, fit in zip(starts, got):
        want, trials = run(reference.minimize, start)
        reference_evals += len(trials)
        if fit is not None:  # bit for bit, so the sign of a zero counts too
            fit = (np.array(fit[0]).tobytes(), fit[1])
        assert fit == want
        assert run(minimize, start) == (want, trials)
    assert lockstep_evals == reference_evals


def test_power_by_row_is_each_rows_scalar_power():
    # numpy takes shortcuts for some scalar exponents (0.5, 2, -1); every
    # row must still come out as its own scalar power would
    base = np.random.default_rng(4).uniform(1e-3, 50.0, (4, 300))
    for e in [k / 4 for k in range(-8, 9)] + [0.7, 3.0, 15.0]:
        exponent = np.array([[e], [0.3], [e], [1.0]])
        got = numerics._power_by_row(base, exponent)
        for row, b, x in zip(got, base, exponent[:, 0]):
            assert row.tobytes() == (b ** float(x)).tobytes()


# -------------------------------------------------------------- quadrature


def test_quadrature_polynomial_and_trig():
    assert np.isclose(quadrature(lambda t: t * t, 0.0, 1.0), 1.0 / 3.0, atol=1e-9)
    assert np.isclose(quadrature(math.sin, 0.0, math.pi), 2.0, atol=1e-9)


def test_quadrature_half_line():
    assert np.isclose(quadrature(lambda t: math.exp(-t), 0.0, math.inf), 1.0, atol=1e-8)
    assert np.isclose(quadrature(lambda t: t * math.exp(-t), 0.0, math.inf), 1.0, atol=1e-8)


def test_quadrature_depth_limit():
    with pytest.raises(MaxDepthExceeded):
        quadrature(math.sin, 0.0, math.pi, tol=1e-15, max_depth=2)


# ------------------------------------------------------------- power draws


def test_sample_power_law_matches_analytic_cdf():
    lo, hi, exponent = 1.0, 1e4, 2.5
    draws = sample_power_law(exponent, lo, hi, 20_000, np.random.default_rng(7))
    assert draws.min() >= lo and draws.max() <= hi

    g = 1.0 - exponent
    cdf = lambda x: (x**g - lo**g) / (hi**g - lo**g)
    ks = scipy.stats.kstest(draws, cdf)
    assert ks.pvalue > 0.01


def test_sample_power_law_rejects_bad_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_power_law(2.0, -1.0, 2.0, 10, rng)
    with pytest.raises(ValueError):
        sample_power_law(1.0, 1.0, 2.0, 10, rng)
