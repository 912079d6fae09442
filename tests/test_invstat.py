"""Exit times and the waiting-time law.

The crossing engine is pinned down by hand-worked walks (including jumps
over the target and censoring at the day end), by the exact first-passage
law of the fair +-1 walk, by a shift-invariance property, and bit for bit
by the per-threshold search it replaced (``_reference_crossing``).  The
parametric law is tested as sampler -> histogram -> fit recovery, with the
sampler itself validated against its defining gamma transform.
"""

import calendar
import dataclasses
import datetime as dt
import math
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_crossing as reference
from _power_law import sample_power_law
from _tick_file import serialize_ticks
from tickphys import invstat, numerics
from tickphys import (
    CrossingIndex,
    DataError,
    EmptyInput,
    ExitTimeConfig,
    FirstPassageFit,
    RegularSeries,
    Session,
    Ticks,
    TickSizeViolation,
    TooFewBins,
    TooManyBins,
    TooFewSamples,
    entry_time_distribution,
    exit_times,
    first_passage_hist,
    fit_first_passage,
    fit_tail_power_law,
    gen_tick_walk,
    horizon_scaling,
    fit_horizon_power_law,
    log_bin,
    log_passage_density,
    optimal_horizon,
    parse_regular_series,
    parse_ticks,
    passage_density,
    PriceRangeTooWide,
    quadrature,
    resample,
    sample_first_passage,
    sessionize,
)

NS = 1_000_000_000

UP1 = ExitTimeConfig(threshold=1, direction="up", clock="tick")


def test_config_validation():
    with pytest.raises(ValueError):
        ExitTimeConfig(threshold=0)
    with pytest.raises(ValueError):
        ExitTimeConfig(threshold=1, direction="sideways")
    with pytest.raises(ValueError):
        ExitTimeConfig(threshold=1, clock="lunar")


def test_thresholds_must_be_whole_ticks():
    """A threshold of 1.9 ticks is refused rather than read as 1, by the
    config, an index query and ``horizon_scaling`` alike; integer-valued
    floats and NumPy integers are whole ticks."""
    walk = np.array([0, 1, 2, 1, 3, 2, 4])
    for bad in (1.9, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="whole number of ticks"):
            ExitTimeConfig(threshold=bad)
        with pytest.raises(ValueError, match="whole number of ticks"):
            CrossingIndex(walk).exit_times(bad)
        with pytest.raises(ValueError, match="whole number of ticks"):
            horizon_scaling(walk, (bad,))
    one = CrossingIndex(walk).exit_times(1)
    for good in (np.int64(1), np.int32(1), 1.0, np.float64(1.0)):
        exits = CrossingIndex(walk).exit_times(good)
        assert type(exits.config.threshold) is int and exits.config == one.config
        assert np.array_equal(exits.tau, one.tau)
    assert ExitTimeConfig(threshold=8.0).threshold == 8


def test_exit_times_staircase():
    exits = exit_times([0, 1, 2, 3], ExitTimeConfig(threshold=2))
    assert exits.tau.tolist() == [2, 2]
    assert exits.entry_index.tolist() == [0, 1]
    assert exits.censored_count == 2
    assert exits.n_entries == 4


def test_exit_times_jump_over_target():
    # the jump 0 -> 3 crosses level 2 at the arrival index
    exits = exit_times([0, 3, 0], ExitTimeConfig(threshold=2))
    assert exits.tau.tolist() == [1]
    assert exits.entry_index.tolist() == [0]
    assert exits.censored_count == 2


def test_exit_times_flat_stretch():
    exits = exit_times([0, 0, 0, 1], UP1)
    assert exits.tau.tolist() == [3, 2, 1]
    assert exits.censored_count == 1


def test_exit_times_down_mirrors_up():
    up = exit_times([0, 1, -2, 3], ExitTimeConfig(threshold=2, direction="up"))
    down = exit_times([0, -1, 2, -3], ExitTimeConfig(threshold=2, direction="down"))
    assert np.array_equal(up.tau, down.tau)
    assert np.array_equal(up.entry_index, down.entry_index)


def test_exit_times_both_takes_earlier_side():
    exits = exit_times([0, -1, 2], ExitTimeConfig(threshold=2, direction="both"))
    # entry 0: up crossing at index 2; down never -> tau 2
    # entry 1: up crossing (level 1 <= 2) at index 2 -> tau 1
    assert exits.tau.tolist() == [2, 1]


def test_exit_times_wall_clock_rounds_up_seconds():
    day = Ticks(timestamps_ns=[NS, NS + NS // 2, 4 * NS, 4 * NS], prices=[0, 1, 2, 3])  # opens at NS
    exits = exit_times(day, ExitTimeConfig(threshold=1, clock="wall"))
    # entry 0 exits half a second later: ceil to 1; entry 1 exits 2.5 s later: ceil to 3;
    # entry 2 exits at the same instant: still 1
    assert exits.tau.tolist() == [1, 3, 1]
    assert np.allclose(exits.entry_second, [0.0, 0.5, 3.0])


def test_exit_times_wall_clock_needs_timestamps():
    with pytest.raises(ValueError):
        exit_times(np.array([0, 1, 2]), ExitTimeConfig(threshold=1, clock="wall"))


def test_exit_times_days_are_independent():
    two_days = Ticks(
        timestamps_ns=[NS, 2 * NS, 3 * NS, 4 * NS], prices=[0, 1, 5, 6], session_boundaries=(0, 2)
    )
    exits = exit_times(two_days, ExitTimeConfig(threshold=3))
    assert exits.tau.size == 0  # the cross-day gap 1 -> 5 never counts
    assert exits.censored_count == 4
    assert exits.n_entries == 4


def test_exit_times_regular_series_days_and_ticks():
    series = RegularSeries(
        start_ns=0,
        interval_ns=NS,
        values=[0.0, 1.0, 2.0, 0.0, 1.0],
        session_boundaries=(0, 3),
    )
    exits = exit_times(series, UP1)
    # day one: taus 1,1; day two: tau 1; entry indices stay concatenated
    assert exits.tau.tolist() == [1, 1, 1]
    assert exits.entry_index.tolist() == [0, 1, 3]
    with pytest.raises(TickSizeViolation):
        exit_times(RegularSeries(start_ns=0, interval_ns=1, values=[0.0, 0.5]), UP1)


@settings(max_examples=60, deadline=None)
@given(
    prices=st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=120),
    shift=st.integers(min_value=-1000, max_value=1000),
    threshold=st.integers(min_value=1, max_value=8),
)
def test_exit_times_shift_invariance(prices, shift, threshold):
    cfg = ExitTimeConfig(threshold=threshold)
    base = exit_times(np.array(prices), cfg)
    moved = exit_times(np.array(prices) + shift, cfg)
    assert np.array_equal(base.tau, moved.tau)
    assert np.array_equal(base.entry_index, moved.entry_index)
    assert base.censored_count == moved.censored_count


@st.composite
def walk_days(draw):
    """Ticks of 1-3 days of integer walks with jumps of -20..20 and
    increasing nanosecond stamps, some of them less than a second apart."""
    stamps, prices, starts, opens = [], [], [0], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=60))
        start = draw(st.integers(min_value=-1000, max_value=1000))
        jumps = draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=n - 1, max_size=n - 1))
        gaps = draw(st.lists(st.integers(min_value=1, max_value=3 * NS), min_size=n, max_size=n))
        stamps += np.cumsum(gaps).tolist()
        prices += np.cumsum([start] + jumps).tolist()
        starts.append(starts[-1] + n)
        opens.append(draw(st.integers(min_value=0, max_value=gaps[0])))
    return Ticks(stamps, prices, session_boundaries=tuple(starts[:-1]), session_open_ns=tuple(opens))


def assert_same_exits(got, want):
    assert got.tau.dtype == want.tau.dtype == np.int64
    assert got.tau.tobytes() == want.tau.tobytes()
    assert got.entry_index.tobytes() == want.entry_index.tobytes()
    assert got.entry_second.tobytes() == want.entry_second.tobytes()
    assert (got.censored_count, got.n_entries, got.config) == (
        want.censored_count, want.n_entries, want.config,
    )


@settings(max_examples=300, deadline=None)
@given(
    days=walk_days(),
    direction=st.sampled_from(("up", "down", "both")),
    clock=st.sampled_from(("tick", "wall")),
    thresholds=st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=6),
)
def test_crossing_index_matches_per_threshold_search(days, direction, clock, thresholds):
    index = CrossingIndex(days, direction)
    for r, want in zip(thresholds, reference.scan(days, thresholds, direction, clock)):
        assert_same_exits(index.exit_times(r, clock), want)
    if len(days.session_boundaries) == 1 and clock == "tick":  # a bare array: one day, no clock
        prices = days.prices
        for r in thresholds:
            cfg = ExitTimeConfig(threshold=r, direction=direction)
            assert_same_exits(exit_times(prices, cfg), reference.exit_times(prices, cfg))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    step=st.sampled_from([1, 7, NS, 2**40]),
    direction=st.sampled_from(("up", "down", "both")),
    clock=st.sampled_from(("tick", "wall")),
    thresholds=st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=4),
)
def test_regular_series_step_matches_its_stamps(data, step, direction, clock, thresholds):
    """A RegularSeries day keeps its step, not a stamp per row: tau is
    (j - t) * step and the entry second t * step / 1e9.  The same grid
    given as Ticks with explicit stamps gathers both from its stamps; the
    two must agree bit for bit, over several days and a one-point day."""
    lengths = data.draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3))
    lengths.insert(data.draw(st.integers(min_value=0, max_value=len(lengths))), 1)
    n = sum(lengths)
    prices = np.cumsum(data.draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n)))
    start = data.draw(st.integers(min_value=-(2**62), max_value=2**62))
    bounds = tuple(np.cumsum([0] + lengths[:-1]).tolist())
    series = RegularSeries(start, step, prices.astype(float), bounds)
    ticks = Ticks(series.timestamps_ns, prices, session_boundaries=bounds)
    from_step, from_stamps = CrossingIndex(series, direction), CrossingIndex(ticks, direction)
    for r in thresholds:
        assert_same_exits(from_step.exit_times(r, clock), from_stamps.exit_times(r, clock))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    regular=st.booleans(),
    slice_=st.sampled_from([1, 2, 3, invstat._SLICE]),
    direction=st.sampled_from(("up", "down", "both")),
    clock=st.sampled_from(("tick", "wall")),
    thresholds=st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=4),
)
def test_query_slices_match_the_per_threshold_search(data, regular, slice_, direction, clock, thresholds):
    """A query walks each day's entries ``_SLICE`` at a time, in key order
    for the search and in time order for the outputs.  With slices of 1,
    2 and 3 entries every day ends inside a slice or on its edge; the
    exits must be those of the reference, bit for bit, over several days
    and a one-point day, for a RegularSeries and for Ticks."""
    lengths = data.draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3))
    lengths.insert(data.draw(st.integers(min_value=0, max_value=len(lengths))), 1)
    n = sum(lengths)
    prices = np.cumsum(data.draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n)))
    bounds = tuple(np.cumsum([0] + lengths[:-1]).tolist())
    if regular:
        step = data.draw(st.sampled_from([1, 7, NS]))
        days = RegularSeries(0, step, prices.astype(float), bounds)
    else:
        gaps = data.draw(st.lists(st.integers(min_value=1, max_value=3 * NS), min_size=n, max_size=n))
        days = Ticks(np.cumsum(gaps), prices, session_boundaries=bounds)
    with mock.patch.object(invstat, "_SLICE", slice_):
        index = CrossingIndex(days, direction)
        for r in thresholds:
            want = reference.exit_times(days, ExitTimeConfig(r, direction, clock))
            assert_same_exits(index.exit_times(r, clock), want)


def _boundary_day(rng, n: int, span: int, rise: bool) -> np.ndarray:
    """n points: a walk of steps -3..3, then one move to a new high when
    ``rise``, else to a new low, that makes the day's price range ``span``
    ticks.  The walk's entries reach the last point only at thresholds
    within the walk's range below span - 1."""
    walk = np.cumsum(rng.integers(-3, 4, n - 1))
    return np.append(walk, walk.min() + span - 1 if rise else walk.max() - span + 1)


@pytest.mark.parametrize("direction", ["up", "down", "both"])
def test_key_dtype_boundary_matches_per_threshold_search(direction):
    """A day's ladder and entry keys are below span * n: uint32 when that
    is at most 2**32, int64 beyond.  Days just under (65535 * 65537), at
    (65536 * 65536) and just over (65537**2) take the two widths in one
    index, and up and down add one exactly one over (641 * 6700417), its
    long move on the side not searched, so that its ladder, and the
    reference's, stay short; there only the key width shows a uint32
    choice.  A uint32 needle past 2**32 would wrap, so entries whose
    level plus the threshold reaches the span are cut off before the
    search; slices of 1000 entries put the cut inside a slice.
    Thresholds from 1 to span - 1, at the spans and above them must give
    the reference's exits bit for bit."""
    rng = np.random.default_rng(11)
    rises = {"up": (True,) * 3, "down": (False,) * 3, "both": (True, False, True)}[direction]
    shapes = [(65537, 65535), (65536, 65536), (65537, 65537)]
    days = [_boundary_day(rng, n, span, rise) for (n, span), rise in zip(shapes, rises)]
    if direction != "both":
        days.append(_boundary_day(rng, 641, 6700417, direction == "down"))
    bounds = tuple(np.cumsum([0] + [day.size for day in days[:-1]]).tolist())
    series = RegularSeries(0, NS, np.concatenate(days).astype(float), bounds)
    index = CrossingIndex(series, direction)
    for day, (_, _, _, ladders) in zip(days, index._days):
        width = np.uint32 if (int(day.max() - day.min()) + 1) * day.size <= 2**32 else np.int64
        assert all(ladder.key.dtype == ladder.entry_key.dtype == width for ladder in ladders)
    assert [ladders[0].key.dtype for *_, ladders in index._days][:3] == [np.uint32, np.uint32, np.int64]
    spans = (65535, 65536, 65537, 6700417)
    thresholds = sorted({1, 2, 40, 30_000, *(s + d for s in spans for d in (-2, -1, 0, 1))})
    with mock.patch.object(invstat, "_SLICE", 1000):
        for r, want in zip(thresholds, reference.scan(series, thresholds, direction)):
            assert_same_exits(index.exit_times(r), want)


def _histogram_bins(seconds, bin_seconds):
    """``(edges, counts)`` of the finite seconds as ``entry_time_distribution``
    binned them with ``np.histogram``, or None when none is finite."""
    sec = seconds[np.isfinite(seconds)]
    if not sec.size:
        return None
    edges = np.arange(int(sec.max() // bin_seconds) + 2) * bin_seconds
    return edges, np.histogram(sec, edges)[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    data=st.data(),
    slice_=st.sampled_from([1, 2, 3, invstat._SLICE]),
    direction=st.sampled_from(("up", "down", "both")),
    bin_seconds=st.sampled_from([0.1, 7 / 3, 1800.0]),
    threshold=st.integers(min_value=1, max_value=40),
)
def test_horizon_reduces_the_query_to_the_exits_bins(data, slice_, direction, bin_seconds, threshold):
    """``_horizon`` keeps the waiting times and the entry seconds' bin
    counts, not the exits.  Its density must be ``first_passage_hist`` of
    the exits and its entry bins ``np.histogram`` of their seconds, as
    ``entry_time_distribution`` also gives them, bit for bit: over
    several days, some with no resolved entry, slices of 1, 2 and 3
    entries, both clocks and input with no clock.  Stamps step by 0.1 s,
    7/3 s or 1800 s, so seconds fall on edges of 0.1 s and 1800 s bins,
    among them edges that the quotient second // bin_seconds puts one bin
    lower (0.5 // 0.1 is 4.0), where ``np.histogram``'s last bin is
    closed.  The fit is stubbed: the property is about what the query
    keeps."""
    lengths = data.draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3))
    n = sum(lengths)
    prices = np.cumsum(data.draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n)))
    bounds = tuple(np.cumsum([0] + lengths[:-1]).tolist())
    step = data.draw(st.sampled_from([10**8, 7 * NS // 3, 1800 * NS]))
    kind = data.draw(st.sampled_from(("regular", "ticks", "bare")))
    if kind == "regular":
        days = RegularSeries(0, step, prices.astype(float), bounds)
    elif kind == "ticks":
        gaps = data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
        days = Ticks(step * np.cumsum(gaps), prices, session_boundaries=bounds)
    else:
        days = prices[: lengths[0]]
    clock = "tick" if kind == "bare" else data.draw(st.sampled_from(("tick", "wall")))
    fake = FirstPassageFit(alpha=1.0, beta=1.0, nu=1.0, tau0=0.0, sse=0.0, n_bins=8)
    stub = mock.patch.object(invstat, "fit_first_passage", lambda hist: fake)
    with mock.patch.object(invstat, "_SLICE", slice_), stub:
        index = CrossingIndex(days, direction)
        exits = index.exit_times(threshold, clock)
        if not len(exits):
            with pytest.raises(EmptyInput):
                invstat._horizon(index, threshold, clock, 10, 0, bin_seconds)
            return
        row, hist, entries = invstat._horizon(index, threshold, clock, 10, 0, bin_seconds)
        want = first_passage_hist(exits, 10, min_samples=0)
    assert (row.n_resolved, row.n_censored) == (len(exits), exits.censored_count)
    for name in ("edges", "densities", "counts"):
        assert getattr(hist, name).tobytes() == getattr(want, name).tobytes()
    assert (hist.total_count, hist.censored_count) == (want.total_count, want.censored_count)
    want = _histogram_bins(exits.entry_second, bin_seconds)
    if want is None:
        assert entries is None and kind == "bare"
        return
    assert entries[0].tobytes() == want[0].tobytes()
    assert entries[1].tolist() == want[1].tolist()
    rows = entry_time_distribution(exits, bin_seconds)
    assert [(r.start_second, r.end_second, r.count) for r in rows] == list(
        zip(want[0][:-1].tolist(), want[0][1:].tolist(), want[1].tolist())
    )


SESSION = Session(open=dt.time(10, 0), close=dt.time(11, 0))


@st.composite
def tick_days(draw):
    """2-3 days of a tick walk, each with one tick inside the 10:00-11:00
    UTC session and up to 40 more from 09:55 to 11:05, as ``(day_ns,
    seconds, ticks)`` per day."""
    days, price = [], draw(st.integers(min_value=-400, max_value=400))
    for k in range(draw(st.integers(min_value=2, max_value=3))):
        first = draw(st.integers(min_value=10 * 3600, max_value=11 * 3600))
        anywhere = st.integers(min_value=9 * 3600 + 55 * 60, max_value=11 * 3600 + 5 * 60)
        seconds = sorted([first] + draw(st.lists(anywhere, max_size=40)))
        n = len(seconds)
        jumps = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n))
        ticks = (price + np.cumsum(jumps)).tolist()
        price = ticks[-1]
        days.append((calendar.timegm((2024, 1, 2 + k, 0, 0, 0)) * NS, seconds, ticks))
    return days


@settings(max_examples=60, deadline=None)
@given(
    days=tick_days(),
    tick=st.sampled_from([Decimal("0.25"), Decimal("0.01")]),
    interval_s=st.sampled_from([1, 7, 60]),
    direction=st.sampled_from(("up", "down", "both")),
    thresholds=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
)
def test_tick_file_to_exit_times(days, tick, interval_s, direction, thresholds):
    stamps = [day_ns + sec * NS for day_ns, seconds, _ in days for sec in seconds]
    prices = [p for _, _, ticks in days for p in ticks]
    n = len(stamps)
    text = serialize_ticks(Ticks(stamps, prices, np.ones(n, np.int64), np.full(n, b"T")), tick)
    sessioned = sessionize(parse_ticks(text)[0], SESSION)
    series = resample(sessioned, interval_s * NS)

    # previous-tick values of the in-session ticks, in ticks, day by day
    want, starts, n_kept = [], [], 0
    for _, seconds, ticks in days:
        kept = [(sec, p) for sec, p in zip(seconds, ticks) if 10 * 3600 <= sec <= 11 * 3600]
        starts.append(len(want))
        for g in range(10 * 3600, kept[-1][0] + 1, interval_s):
            want.append(next((p for sec, p in reversed(kept) if sec <= g), kept[0][1]))
        n_kept += len(kept)
    assert sessioned.dropped == n - n_kept
    assert series.values.tolist() == want
    assert series.session_boundaries == tuple(starts)

    index = CrossingIndex(series, direction)
    for r in thresholds:
        by_tick, by_wall = (index.exit_times(r, clock) for clock in ("tick", "wall"))
        for got in (by_tick, by_wall):
            assert_same_exits(got, reference.exit_times(series, ExitTimeConfig(r, direction, got.config.clock)))
        # every exit lies in its entry's day, on either clock
        exit_at = by_tick.entry_index + by_tick.tau
        assert np.array_equal(
            np.searchsorted(starts, by_tick.entry_index, side="right"),
            np.searchsorted(starts, exit_at, side="right"),
        )
        assert exit_at.max(initial=0) < len(series)
        assert np.array_equal(by_wall.entry_index, by_tick.entry_index)
        assert np.array_equal(by_wall.tau, by_tick.tau * interval_s)


def test_exit_times_refuses_keys_beyond_int64_before_building():
    # 1e13 ticks up and back: the ladder alone would need 1e13 elements
    with pytest.raises(PriceRangeTooWide):
        exit_times([0, 10**13, 0], UP1)
    with pytest.raises(PriceRangeTooWide):
        exit_times(np.array([2**61, 0, 1, 2]), UP1)
    # ranges beyond int64 itself, whose levels would wrap
    for prices in ([2**62, -(2**62)], [-(2**63), -1, 2**63 - 2, 2**63 - 1]):
        with pytest.raises(PriceRangeTooWide):
            exit_times(np.array(prices), ExitTimeConfig(threshold=1, direction="both"))


def test_time_spans_beyond_int64_are_data_errors():
    # stamps -6e18, 0, 6e18 wrapped to a wall-clock tau of 1 s, not 1.2e10 s,
    # and an interval of 2**64 - 1 ns did not fit an int64 stamp at all
    for text in ("-6000000000000000000,0\n0,1\n6000000000000000000,2\n", f"{-2**63},1.0\n{2**63 - 1},2.0\n"):
        with pytest.raises(DataError, match="2\\*\\*63 ns"):
            CrossingIndex(parse_regular_series(text))
    # a day of one point spans nothing, whatever the interval
    one_point_days = parse_regular_series(f"{-2**63},1.0\n{2**63 - 1},2.0\n# session_boundaries=0;1\n")
    assert CrossingIndex(one_point_days).exit_times(1, "wall").censored_count == 2


def test_exit_times_rejects_empty_and_non_finite_prices():
    for empty in ([], np.array([], dtype=np.int64), Ticks(timestamps_ns=[], prices=[])):
        with pytest.raises(EmptyInput):
            exit_times(empty, UP1)
    # 9007199254740993 reads as the float 2**53, so a 1-tick move would
    # become a 2-tick one
    beyond_exact = [float(9007199254740993), float(9007199254740994)]
    for bad in ([0.0, np.nan, 1.0], [0.0, np.inf], [0.0, 1e19], [1.0000004, 2.0], beyond_exact):
        with pytest.raises(TickSizeViolation):
            exit_times(np.array(bad), UP1)
        with pytest.raises(TickSizeViolation):
            exit_times(RegularSeries(start_ns=0, interval_ns=1, values=bad), UP1)
    below = RegularSeries(start_ns=0, interval_ns=1, values=[2.0**53 - 2, 2.0**53 - 1])
    assert exit_times(below, UP1).tau.tolist() == [1]  # the last exact integers still read


def exact_plus_minus_one_law(tau: int) -> float:
    if tau < 1 or tau % 2 == 0:
        return 0.0
    k = (tau + 1) // 2
    return math.comb(tau, k) / (tau * 2**tau)


def test_exit_times_match_exact_walk_law():
    walk = gen_tick_walk(200_001, p_zero=0.0, seed=42)
    exits = exit_times(walk, UP1)
    n = exits.n_entries
    for tau in (1, 3, 5, 7):
        p = exact_plus_minus_one_law(tau)
        freq = float(np.count_nonzero(exits.tau == tau)) / n
        z = abs(freq - p) / math.sqrt(p * (1.0 - p) / n)
        assert z < 4.0, f"tau={tau}: freq {freq:.5f} vs exact {p:.5f}"
    assert float(np.count_nonzero(exits.tau == 2)) == 0.0  # even tau impossible


def test_first_passage_hist_enforces_min_samples():
    exits = exit_times([0, 1, 2, 3], UP1)
    with pytest.raises(TooFewSamples):
        first_passage_hist(exits, 10)
    hist = first_passage_hist(exits, 10, min_samples=3)
    # censored entry stays in the normalization
    assert hist.total_count == 4
    assert hist.censored_count == 1


# ----------------------------------------------------------------- the law


def test_log_passage_density_hand_value():
    # alpha = nu = beta = 1, tau0 = 0: P(tau) = exp(-1/tau) / tau^2
    tau = np.array([1.0, 2.0, 10.0])
    expected = np.exp(-1.0 / tau) / tau**2
    assert np.allclose(passage_density(tau, 1.0, 1.0, 1.0, 0.0), expected, rtol=1e-12)
    with pytest.raises(ValueError):
        log_passage_density(1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        log_passage_density(0.0, 1.0, 1.0, 1.0, 0.0)


def test_passage_density_normalizes_to_one():
    alpha, beta, nu, tau0 = 0.5, 20.0, 1.0, 0.0
    mass = lambda s: float(passage_density(math.exp(s), alpha, beta, nu, tau0)) * math.exp(s)
    s_mid = math.log(beta**2 / (alpha + 1.0))
    breaks = [s_mid + d for d in (-15.0, -5.0, 0.0, 5.0, 15.0, 30.0)]
    integral = sum(
        quadrature(mass, lo, hi, tol=1e-9) for lo, hi in zip(breaks[:-1], breaks[1:])
    )
    assert abs(integral - 1.0) < 1e-6


def test_sampler_matches_gamma_transform():
    alpha, beta, nu, tau0 = 0.8, 5.0, 1.5, 2.0
    draws = sample_first_passage(50_000, alpha, beta, nu, tau0, seed=12)
    w = (beta * beta / (draws + tau0)) ** nu  # must be Gamma(alpha/nu)
    ks = scipy.stats.kstest(w, "gamma", args=(alpha / nu,))
    assert ks.pvalue > 0.01


def test_sampled_density_tracks_the_formula():
    draws = sample_first_passage(100_000, 0.5, 20.0, 1.0, 0.0, seed=15)
    hist = log_bin(draws, 8)
    occ = np.nonzero(hist.occupied & (hist.counts >= 200))[0]
    empirical = hist.densities[occ]
    model = passage_density(hist.centers[occ], 0.5, 20.0, 1.0, 0.0)
    assert np.all(np.abs(np.log(empirical / model)) < 0.25)


def test_fit_recovers_known_parameters():
    draws = sample_first_passage(100_000, 0.5, 20.0, 1.0, 0.0, seed=9)
    fit = fit_first_passage(log_bin(draws, 10))
    assert abs(fit.alpha - 0.5) / 0.5 < 0.10
    assert abs(fit.beta - 20.0) / 20.0 < 0.10
    assert abs(fit.nu - 1.0) / 1.0 < 0.10
    assert fit.tau0 < 0.1 * (20.0**2 / 1.5)
    assert fit.sse < 0.01 and fit.n_bins >= 8


def test_fit_objective_kernel_is_the_checked_density():
    x = np.geomspace(0.5, 5e4, 40)
    for alpha, beta, nu, tau0 in [(0.5, 20.0, 1.0, 0.0), (3.0, 0.01, 0.05, 7.5), (1e-3, 1e8, 15.0, 1e5)]:
        want = log_passage_density(x, alpha, beta, nu, tau0)
        got = invstat._log_passage_density(x + tau0, alpha, beta, nu)
        assert got.tobytes() == want.tobytes()


def test_fit_lets_errors_other_than_a_non_finite_start_through(monkeypatch):
    hist = log_bin(sample_first_passage(20_000, 0.5, 20.0, 1.0, 0.0, seed=9), 10)

    def broken(*args):
        raise TypeError("a bug, not a bad start")

    monkeypatch.setattr(invstat, "_log_passage_density", broken)
    with pytest.raises(TypeError, match="a bug"):
        fit_first_passage(hist)


def test_fit_needs_enough_spread():
    with pytest.raises(TooFewBins):
        fit_first_passage(log_bin(np.linspace(10.0, 20.0, 500), 10))


def test_optimal_horizon_closed_form():
    fit = FirstPassageFit(alpha=0.5, beta=20.0, nu=1.0, tau0=0.0, sse=0.0, n_bins=0)
    assert np.isclose(optimal_horizon(fit), 400.0 / 1.5)
    monotone = FirstPassageFit(alpha=0.5, beta=0.1, nu=1.0, tau0=5.0, sse=0.0, n_bins=0)
    assert optimal_horizon(monotone) == 0.0


def test_horizon_scaling_fit_route():
    walk = np.rint(np.cumsum(np.random.default_rng(44).standard_normal(2**17) * 4.0))
    rows = horizon_scaling(walk, (8, 16, 32), bins_per_decade=6)
    assert [r.threshold for r in rows] == [8, 16, 32]
    assert all(r.tau_star > 0 and r.tau_star == optimal_horizon(r.fit) for r in rows)
    assert all(r.n_resolved + r.n_censored == 2**17 for r in rows)
    fit = fit_horizon_power_law(rows)
    assert abs(fit.slope - 2.0) < 0.6  # diffusive scaling, loose at this size
    with pytest.raises(TooFewBins):
        fit_horizon_power_law(rows[:2])


def test_fit_tail_power_law_on_exact_power_law():
    draws = sample_power_law(2.5, 1.0, 1e4, 200_000, np.random.default_rng(3))
    fit = fit_tail_power_law(log_bin(draws, 10), (2.0, 2e3))
    assert abs(fit.slope + 2.5) < 0.1
    with pytest.raises(TooFewBins):
        fit_tail_power_law(log_bin(draws, 10), (1e5, 1e6))
    with pytest.raises(ValueError):
        fit_tail_power_law(log_bin(draws, 10), (5.0, 2.0))


def test_entry_time_distribution():
    day = Ticks(timestamps_ns=[NS * t for t in (0, 1800, 1900, 4000)], prices=[0, 1, 2, 3])
    exits = exit_times(day, UP1)
    rows = entry_time_distribution(exits, bin_seconds=1800.0)
    # resolved entries at seconds 0, 1800, 1900; the censored one is not timed
    assert [r.count for r in rows] == [1, 2]
    assert rows[0].rate_per_hour == 2.0
    assert rows[1].end_second == 3600.0
    for bad in (0.0, -1800.0, math.inf, math.nan):  # as --entry-bin-seconds refuses them
        with pytest.raises(ValueError, match="positive finite"):
            entry_time_distribution(exits, bin_seconds=bad)
    no_clock = exit_times(np.array([0, 1, 2]), UP1)
    with pytest.raises(EmptyInput):
        entry_time_distribution(no_clock)
    # more than MAX_BINS bins, even where the quotient overflows, before any array
    for bad in (1900.0 / numerics.MAX_BINS, 1e-9, 1e-320):
        with pytest.raises(TooManyBins):
            entry_time_distribution(exits, bin_seconds=bad)


def test_entry_time_distribution_skips_untimed_entries():
    """Seconds that are all finite are binned as they are; NaN seconds
    mixed in are left out and change no row."""
    rng = np.random.default_rng(7)
    stamps = np.cumsum(rng.integers(1, 120 * NS, 400))
    exits = exit_times(Ticks(stamps, np.cumsum(rng.integers(-3, 4, 400))), ExitTimeConfig(threshold=2))
    assert np.isfinite(exits.entry_second).all()
    rows = entry_time_distribution(exits, bin_seconds=900.0)
    assert sum(row.count for row in rows) == len(exits)
    at = rng.integers(0, len(exits) + 1, 25)
    mixed = dataclasses.replace(exits, entry_second=np.insert(exits.entry_second, at, np.nan))
    assert entry_time_distribution(mixed, bin_seconds=900.0) == rows
