"""Both waiting-time fitters against the copies they replaced.

``fit_first_passage`` and ``fit_stretched_exp`` now share one scaffold,
``numerics._fit_log_density``; ``_reference_fit`` keeps each fitter with
its own copy of it.  Every fit, refusal and divergence must come out the
same, ``repr`` for ``repr``.
"""

import math

import numpy as np
import pytest

import _reference_fit as reference
from tickphys import (
    FitDiverged,
    TooFewBins,
    fit_first_passage,
    fit_stretched_exp,
    invstat,
    log_bin,
    obrelax,
    sample_first_passage,
    sample_stretched_exp,
)


def outcome(fit, hist, **kwargs):
    try:
        return repr(fit(hist, **kwargs))
    except (TooFewBins, FitDiverged) as exc:
        return repr(exc)


# (alpha, beta, nu, tau0, draws, seed); the first is criterion 9
PASSAGE = [
    (0.5, 20.0, 1.0, 0.0, 100_000, 9),
    (0.8, 5.0, 1.5, 2.0, 50_000, 12),
    (1.5, 10.0, 0.7, 0.0, 20_000, 3),
    (0.3, 50.0, 2.0, 10.0, 30_000, 5),
    (2.0, 3.0, 1.0, 0.5, 5_000, 21),
]

# (tau_tilde, alpha, draws, seed); the first six are criterion 7
STRETCHED = [
    (tau_tilde, alpha, 100_000, 700 + 10 * i + j)
    for i, tau_tilde in enumerate((10.0, 100.0))
    for j, alpha in enumerate((0.3, 0.6, 0.9))
] + [(100.0, 0.6, 20_000, 77), (3.0, 1.0, 5_000, 4), (1e4, 0.15, 10_000, 6)]


@pytest.mark.parametrize("alpha, beta, nu, tau0, n, seed", PASSAGE)
def test_first_passage_fit_matches_reference(alpha, beta, nu, tau0, n, seed):
    hist = log_bin(sample_first_passage(n, alpha, beta, nu, tau0, seed=seed), 10)
    assert outcome(fit_first_passage, hist) == outcome(reference.fit_first_passage, hist)


@pytest.mark.parametrize("tau_tilde, alpha, n, seed", STRETCHED)
def test_stretched_fit_matches_reference(tau_tilde, alpha, n, seed):
    hist = log_bin(sample_stretched_exp(n, tau_tilde, alpha, seed=seed), 10)
    assert outcome(fit_stretched_exp, hist) == outcome(reference.fit_stretched_exp, hist)


@pytest.mark.parametrize("restarts", [0, 1, 3])
def test_fewer_restarts_match_reference(restarts):
    passage = log_bin(sample_first_passage(20_000, 0.5, 20.0, 1.0, 0.0, seed=9), 8)
    stretched = log_bin(sample_stretched_exp(20_000, 100.0, 0.6, seed=77), 8)
    for new, old, hist in (
        (fit_first_passage, reference.fit_first_passage, passage),
        (fit_stretched_exp, reference.fit_stretched_exp, stretched),
    ):
        assert outcome(new, hist, restarts=restarts) == outcome(old, hist, restarts=restarts)


def test_refusals_match_reference():
    narrow = log_bin(np.linspace(10.0, 20.0, 500), 10)  # too few bins, too little spread
    sparse = log_bin(np.geomspace(1.0, 1e4, 7), 2)  # 7 bins over four decades
    for hist in (narrow, sparse):
        for new, old in (
            (fit_first_passage, reference.fit_first_passage),
            (fit_stretched_exp, reference.fit_stretched_exp),
        ):
            got = outcome(new, hist)
            assert got.startswith("TooFewBins(") and got == outcome(old, hist)


def test_divergence_matches_reference(monkeypatch):
    def nowhere_finite(t, *params):
        return np.full(np.shape(t), math.nan)

    for module in (invstat, obrelax, reference):
        monkeypatch.setattr(module, "_log_passage_density", nowhere_finite, raising=False)
        monkeypatch.setattr(module, "_log_stretched_density", nowhere_finite, raising=False)
    passage = log_bin(sample_first_passage(20_000, 0.5, 20.0, 1.0, 0.0, seed=9), 10)
    stretched = log_bin(sample_stretched_exp(20_000, 100.0, 0.6, seed=77), 10)
    for new, old, hist in (
        (fit_first_passage, reference.fit_first_passage, passage),
        (fit_stretched_exp, reference.fit_stretched_exp, stretched),
    ):
        got = outcome(new, hist)
        assert got.startswith("FitDiverged(") and got == outcome(old, hist)


def test_a_non_finite_start_is_skipped_as_in_reference(monkeypatch):
    # the model is NaN at the first start only (alpha = 0.7), so the fit
    # comes from the jittered restarts
    kernel = obrelax._log_stretched_density

    def nan_at_first_start(t, tau_tilde, alpha):
        # alpha is a scalar, or a (K, 1) column with one row per pending point
        return np.where(np.equal(alpha, 0.7), math.nan, kernel(t, tau_tilde, alpha))

    for module in (obrelax, reference):
        monkeypatch.setattr(module, "_log_stretched_density", nan_at_first_start)
    hist = log_bin(sample_stretched_exp(20_000, 100.0, 0.6, seed=77), 10)
    got = outcome(fit_stretched_exp, hist)
    assert got.startswith("StretchedExpFit(") and got == outcome(reference.fit_stretched_exp, hist)
