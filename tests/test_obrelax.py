"""Imbalance algebra and relaxation-time machinery.

The imbalance identities (range, antisymmetry, scale invariance) must hold
bit for bit, so they are asserted with ==, not isclose.  Entry/relaxation
logic is pinned by hand-worked sequences; the stretched law goes through
the same sampler -> histogram -> fit loop as the waiting-time law, with
the mean formula double-checked by quadrature.
"""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_book as reference
import _reference_relax
from _chunks import chunked
from _reference_book import book_of, book_texts
from tickphys import cli, market_data, obrelax, parse_book
from tickphys import (
    BookSnapshot,
    EmptySide,
    ImbalanceSeries,
    StretchedExpFit,
    TooFewBins,
    TooFewSamples,
    entry_times,
    fit_stretched_exp,
    gen_brownian,
    imbalance_series,
    log_bin,
    mean_relaxation_from_fit,
    quadrature,
    relaxation_hist,
    relaxation_times,
    sample_stretched_exp,
)


def book(bids, asks, ts=1, tcd=0):
    return BookSnapshot(timestamp_ns=ts, trade_count_delta=tcd, bids=tuple(bids), asks=tuple(asks))


def imbalance(snaps, depth):
    return imbalance_series([book_of(snaps)], depth=depth)


def test_imbalance_sixty_forty():
    sig = imbalance([book([(99, 60)], [(101, 40)])], depth=1)
    assert sig.values[0] == 0.2  # exact, not approximate


def test_imbalance_depth_slicing_and_trades():
    snaps = [
        book([(99, 10), (98, 30)], [(101, 10), (102, 5)], ts=1, tcd=2),
        book([(99, 7)], [(101, 7), (102, 1)], ts=2, tcd=3),
    ]
    sig = imbalance(snaps, depth=1)
    assert sig.values.tolist() == [0.0, 0.0]  # second levels ignored
    assert sig.trades.tolist() == [2, 5]  # cumulative
    assert sig.timestamps_ns.tolist() == [1, 2]


def test_imbalance_empty_side_detection():
    with pytest.raises(EmptySide):
        imbalance([book([], [])], depth=2)
    with pytest.raises(EmptySide):
        # volume exists only below the requested depth
        imbalance([book([], [(101, 0)]) ], depth=1)
    with pytest.raises(ValueError):
        imbalance([book([(99, 1)], [])], depth=0)
    one_sided = imbalance([book([(99, 5)], [])], depth=1)
    assert one_sided.values[0] == 1.0


volumes = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(bid_v=volumes, ask_v=volumes, m=st.sampled_from([2, 7, 1000]))
def test_imbalance_algebra_bitwise(bid_v, ask_v, m):
    if sum(bid_v) + sum(ask_v) == 0:
        bid_v = bid_v[:1] if bid_v else [0]
        bid_v[0] = 1
    bids = [(100 - i, v) for i, v in enumerate(bid_v)]
    asks = [(101 + i, v) for i, v in enumerate(ask_v)]
    depth = max(len(bids), len(asks))
    s = imbalance([book(bids, asks)], depth=depth).values[0]
    assert -1.0 <= s <= 1.0
    mirrored = imbalance([book(asks, bids)], depth=depth).values[0]
    assert mirrored == -s
    scaled = imbalance(
        [book([(p, v * m) for p, v in bids], [(p, v * m) for p, v in asks])], depth=depth
    ).values[0]
    assert scaled == s


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(volumes, volumes), min_size=1, max_size=20),
    depth=st.integers(1, 5),
)
def test_imbalance_matches_per_snapshot_loop(rows, depth):
    snaps = [
        book([(100 - i, v) for i, v in enumerate(b)], [(101 + i, v) for i, v in enumerate(a)], ts=k + 1, tcd=k)
        for k, (b, a) in enumerate(rows)
        if sum(b[:depth]) + sum(a[:depth]) > 0
    ]
    if snaps:
        sig = imbalance(snaps, depth=depth)
        assert sig.values.tolist() == reference.imbalance(snaps, depth)
        assert sig.trades.tolist() == np.cumsum([s.trade_count_delta for s in snaps]).tolist()


def test_imbalance_rejects_volumes_too_large_to_sum_exactly():
    with pytest.raises(ValueError):
        imbalance([book([(99, 2**52)], [(101, 1)])], depth=1)
    assert imbalance([book([(99, 2**52 - 1)], [(101, 1)])], depth=1).values[0] > 0.99


def _imbalance_outcome(call):
    """The stamps, cumulative trades and imbalances ``call()`` gives, as
    bytes, or its error's class and message."""
    try:
        sig = call()
    except (EmptySide, ValueError) as exc:
        return type(exc), str(exc)
    return sig.timestamps_ns.tobytes(), sig.trades.tobytes(), sig.values.tobytes()


def _reference_imbalance(snaps, depth):
    """``_imbalance_outcome`` of the per-snapshot loop over the rows that
    the row-by-row reader gives, with the library's volume bound first."""
    top = max((v for s in snaps for side in (s.bids, s.asks) for _, v in side[:depth]), default=0)
    if top >= 2**53 // (2 * depth):
        return ValueError, f"level volumes must stay below 2**53 / {2 * depth} to sum exactly"
    try:
        values = np.array(reference.imbalance(snaps, depth), dtype=float)
    except ZeroDivisionError:
        empty = next(i for i, s in enumerate(snaps) if not (s.bids[:depth] or s.asks[:depth]))
        return EmptySide, f"snapshot {empty}: no volume within depth {depth}"
    stamps = np.array([s.timestamp_ns for s in snaps], dtype=np.int64)
    trades = np.cumsum(np.array([s.trade_count_delta for s in snaps], dtype=np.int64))
    return stamps.tobytes(), trades.tobytes(), values.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 2, 3, market_data._BLOCK_LINES]))
def test_book_blocks_reduce_to_the_imbalance_of_the_whole_book(data, block):
    """``relax`` reduces a book file block by block as it reads it.  At
    every depth up to the file's it gives the stamps, trades and
    imbalances of ``imbalance_series`` over ``parse_book``'s ``Book`` and
    of the per-snapshot loop bit for bit, or the same error: the volume
    bound over the whole file first, then the first empty snapshot."""
    text = data.draw(book_texts(max_volume=data.draw(st.sampled_from([10**9, 2**51]))))
    chunks = data.draw(chunked(text.encode()))
    snaps, _, file_depth = reference.parse_book(text)
    with mock.patch.object(market_data, "_BLOCK_LINES", block):
        for depth in range(1, file_depth + 1):
            got = _imbalance_outcome(lambda: cli._book_imbalance(iter(chunks), depth, "book.csv"))
            whole = _imbalance_outcome(lambda: imbalance_series([parse_book(iter(chunks))[0]], depth))
            assert got == whole == _reference_imbalance(snaps, depth), depth


def test_entry_times_hand_case():
    v = np.array([0.0, 0.6, 0.4, 0.6])
    assert entry_times(v, 0.5).tolist() == [1, 3]
    assert entry_times(v, 0.1).tolist() == [1]
    assert entry_times(np.array([-0.2, -0.8]), 0.5).tolist() == [1]  # sign-blind
    # (1e-15 - kappa) * (0 - kappa) underflows to -0.0: a test on the product of
    # the two differences would miss the entry at 1
    assert entry_times(np.array([0.0, 1e-15, 0.0, 0.5]), 1e-310).tolist() == [1, 3]
    with pytest.raises(ValueError):
        entry_times(v, 1.0)


def test_entry_times_skip_day_starts():
    sig = ImbalanceSeries(values=np.array([0.2, 0.3, 0.8, 0.9]), session_boundaries=(0, 2))
    # the 0.3 -> 0.8 crossing lands exactly on the second day's first index
    assert entry_times(sig, 0.5).tolist() == []
    same_day = ImbalanceSeries(values=np.array([0.2, 0.3, 0.8, 0.9]))
    assert entry_times(same_day, 0.5).tolist() == [2]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kappas=st.tuples(st.floats(0.05, 0.5), st.floats(0.05, 0.5)),
)
def test_entry_sets_nest_pathwise(seed, kappas):
    # every entry above the higher level traces back to an entry above the
    # lower level since the last visit below it
    k1, k2 = sorted(kappas)
    if k2 - k1 < 1e-3:
        return
    v = np.tanh(gen_brownian(400, seed=seed) / 4.0)
    e1 = set(entry_times(v, k1).tolist())
    for t in entry_times(v, k2):
        below = np.nonzero(np.abs(v[:t]) < k1)[0]
        if below.size:
            assert int(below[-1]) + 1 in e1


def test_relaxation_hand_case():
    sig = ImbalanceSeries(values=np.array([0.1, 0.6, 0.3, -0.2, 0.1]))
    samples = relaxation_times(sig, 0.5)
    assert samples.tau.tolist() == [2]  # entry at 1, sign lost at 3
    assert samples.entry_index.tolist() == [1]
    assert not samples.censored[0]


def test_relaxation_zero_touch_ends_the_excursion():
    sig = ImbalanceSeries(values=np.array([0.1, 0.6, 0.0, 0.7]))
    samples = relaxation_times(sig, 0.5)
    assert samples.tau.tolist() == [1]
    assert samples.censored.tolist() == [False]


def test_relaxation_censoring_at_day_end():
    sig = ImbalanceSeries(values=np.array([0.1, 0.6, 0.5]))
    samples = relaxation_times(sig, 0.5)
    assert samples.tau.tolist() == [1]  # truncated at the last snapshot
    assert samples.censored.tolist() == [True]
    assert samples.censored_count == 1
    assert samples.resolved_tau.size == 0


def test_relaxation_day_final_entry_is_skipped():
    sig = ImbalanceSeries(values=np.array([0.1, 0.6]))
    assert len(relaxation_times(sig, 0.5)) == 0


def test_relaxation_negative_entries_mirror_positive():
    pos = relaxation_times(ImbalanceSeries(values=np.array([0.1, 0.6, 0.2, -0.1])), 0.5)
    neg = relaxation_times(ImbalanceSeries(values=-np.array([0.1, 0.6, 0.2, -0.1])), 0.5)
    assert np.array_equal(pos.tau, neg.tau)
    assert np.array_equal(pos.censored, neg.censored)


def test_relaxation_respects_day_boundaries():
    # sign survives into the next day: censored at the day end, not resolved
    # by the other day's values
    v = np.array([0.1, 0.6, 0.5, -0.4, -0.2, 0.3])
    sig = ImbalanceSeries(values=v, session_boundaries=(0, 3))
    samples = relaxation_times(sig, 0.5)
    assert samples.tau.tolist() == [1]
    assert samples.censored.tolist() == [True]


def test_relaxation_trade_and_wall_clocks():
    sig = ImbalanceSeries(
        values=np.array([0.1, 0.6, 0.4, -0.2]),
        timestamps_ns=np.array([0, 1, 2, 5]) * 10**9 + 1,
        trades=np.array([0, 1, 5, 5]),
    )
    assert relaxation_times(sig, 0.5, clock="event").tau.tolist() == [2]
    assert relaxation_times(sig, 0.5, clock="trade").tau.tolist() == [4]
    assert relaxation_times(sig, 0.5, clock="wall").tau.tolist() == [4]
    bare = ImbalanceSeries(values=sig.values)
    with pytest.raises(ValueError):
        relaxation_times(bare, 0.5, clock="trade")
    with pytest.raises(ValueError):
        relaxation_times(bare, 0.5, clock="lunar")


@settings(max_examples=300, deadline=None)
@given(
    sig=_reference_relax.imbalance_draws(),
    kappa=st.one_of(st.sampled_from([0.3, 0.6]), st.floats(0.01, 0.99)),
    clock=st.sampled_from(obrelax.CLOCKS),
)
def test_relaxation_times_match_a_row_by_row_scan(sig, kappa, clock):
    samples = relaxation_times(sig, kappa, clock=clock)
    tau, entries, censored = _reference_relax.relaxation_times(sig, kappa, clock)
    assert samples.tau.tolist() == tau
    assert samples.entry_index.tolist() == entries
    assert samples.censored.tolist() == censored
    assert samples.tau.dtype == samples.entry_index.dtype == np.int64


def test_relaxation_hist_min_samples_and_censoring():
    sig = ImbalanceSeries(values=np.array([0.1, 0.6, 0.3, -0.2, 0.1, 0.7, 0.6]))
    samples = relaxation_times(sig, 0.5)
    with pytest.raises(TooFewSamples):
        relaxation_hist(samples, 10)
    hist = relaxation_hist(samples, 10, min_samples=1)
    assert hist.total_count == samples.tau.size
    assert hist.censored_count == samples.censored_count


# ----------------------------------------------------------- stretched law


def test_log_stretched_density_hand_values():
    # at tau = tau_tilde the density is (alpha / tau_tilde) e^-1
    for tau_tilde, alpha in ((10.0, 0.5), (100.0, 0.9)):
        expected = math.log(alpha / tau_tilde) - 1.0
        assert np.isclose(obrelax._log_stretched_density(tau_tilde, tau_tilde, alpha), expected)


def test_stretched_density_normalizes_to_one():
    tau_tilde, alpha = 10.0, 0.6
    mass = lambda s: math.exp(float(obrelax._log_stretched_density(math.exp(s), tau_tilde, alpha)) + s)
    breaks = [math.log(tau_tilde) + d for d in (-25.0, -5.0, 0.0, 5.0, 20.0)]
    integral = sum(
        quadrature(mass, lo, hi, tol=1e-9) for lo, hi in zip(breaks[:-1], breaks[1:])
    )
    assert abs(integral - 1.0) < 1e-6


def test_stretched_sampler_inverts_the_survival_function():
    tau_tilde, alpha = 50.0, 0.4
    draws = sample_stretched_exp(50_000, tau_tilde, alpha, seed=3)
    u = 1.0 - np.exp(-((draws / tau_tilde) ** alpha))
    assert scipy.stats.kstest(u, "uniform").pvalue > 0.01
    with pytest.raises(ValueError):
        sample_stretched_exp(10, 1.0, 1.5)


def test_stretched_fit_recovers_parameters():
    draws = sample_stretched_exp(100_000, 100.0, 0.6, seed=77)
    fit = fit_stretched_exp(log_bin(draws, 10))
    assert abs(fit.tau_tilde - 100.0) / 100.0 < 0.05
    assert abs(fit.alpha - 0.6) / 0.6 < 0.05
    with pytest.raises(TooFewBins):
        fit_stretched_exp(log_bin(np.full(500, 3.0), 10))


def test_stretched_fit_lets_errors_other_than_a_non_finite_start_through(monkeypatch):
    hist = log_bin(sample_stretched_exp(20_000, 100.0, 0.6, seed=77), 10)

    def broken(*args):
        raise TypeError("a bug, not a bad start")

    monkeypatch.setattr(obrelax, "_log_stretched_density", broken)
    with pytest.raises(TypeError, match="a bug"):
        fit_stretched_exp(hist)


def test_mean_relaxation_closed_forms():
    # alpha = 1 is the plain exponential; alpha = 1/2 gives 2 Gamma(2) = 2
    assert np.isclose(mean_relaxation_from_fit(StretchedExpFit(7.0, 1.0, 0.0, 0)), 7.0)
    assert np.isclose(mean_relaxation_from_fit(StretchedExpFit(7.0, 0.5, 0.0, 0)), 14.0)
    # and the sample mean agrees with the formula
    draws = sample_stretched_exp(200_000, 10.0, 0.6, seed=8)
    formula = 10.0 / 0.6 * math.gamma(1.0 / 0.6)
    assert abs(draws.mean() - formula) / formula < 0.02

