"""``invstat`` held to the exact first-passage law of a skewed walk.

The walk steps -2 with probability 1/3 and +1 with 2/3: zero mean, but a
move down jumps a level, so "up" and "down" differ.  k steps move the
walk by k modulo 3, so an "up" exit, which lands on R exactly, has
tau = R (mod 3).  Its days have unequal lengths.  For every log bin of
``pdf_R*.csv`` and for ``n_censored`` the law gives the expected value
exactly (``_reference_passage_law``); the bounds come from the spread of
the same figures over independent walks.  On the wall clock, with points
1.5 s apart, tick tau = k takes max(ceil(1.5 k), 1) s, one to one, so the
law carries over, and each bin of ``entry_R*.csv`` expects the resolved
fraction of the entries it holds.
"""

import json
import math

import numpy as np
import pytest

from _reference_passage_law import expected_counts, passage_law
from tickphys import CrossingIndex, RegularSeries, cli, first_passage_hist, serialize_regular_series

PMF = {-2: 1 / 3, 1: 2 / 3}
DAYS = (1500, 4000, 2600)
THRESHOLDS = (3, 5)
SEEDS = range(32)
Z = 5.0  # in units of the seed spread
MIN_EXPECTED = 10.0  # bins with fewer expected entries per walk are not held


STEP_S = 1.5  # the wall clock's point interval, not a whole second
WALL_NS = int(STEP_S * 1e9)
ENTRY_BIN_S = 300.0


def _walk(seed: int, interval_ns: int = 1) -> RegularSeries:
    steps = np.random.default_rng(seed).choice(list(PMF), p=list(PMF.values()), size=sum(DAYS) - 1)
    values = np.concatenate([[0.0], np.cumsum(steps)])
    return RegularSeries(0, interval_ns, values, session_boundaries=tuple(np.cumsum((0,) + DAYS[:-1])))


def _read_bins(path):
    """The edges and the third column of a ``pdf_R*.csv`` or ``entry_R*.csv``."""
    rows = np.array([line.split(",") for line in path.read_text().splitlines()[1:]], dtype=float)
    return np.append(rows[:, 0], rows[-1, 1]), rows[:, 2]


def test_the_law_is_the_closed_form_of_the_fair_walk():
    f = passage_law({-1: 0.5, 1: 0.5}, 1, "up", 41)
    odd = np.arange(1, 42, 2)
    assert f[0::2].tolist() == [0.0] * 21
    assert np.allclose(f[odd], [math.comb(k, (k + 1) // 2) / (k * 2.0**k) for k in odd], rtol=1e-13, atol=0)


def _hold(law, seeds, got, held, what) -> None:
    """``got``, one walk's figures, and the mean of ``seeds``, the same
    figures of each walk of SEEDS, are held to their expected values
    ``law`` where ``held``, in units of the seeds' spread."""
    mean, spread = seeds.mean(axis=0), seeds.std(axis=0, ddof=1)
    assert held.sum() >= 6 and np.all(spread[held] > 0), (what, held.sum())
    seed_z = (mean - law)[held] / (spread[held] / math.sqrt(len(SEEDS)))
    assert np.abs(seed_z).max() < Z, (what, seed_z.round(2).tolist())
    got_z = (got - law)[held] / spread[held]
    assert np.abs(got_z).max() < Z, (what, got_z.round(2).tolist())


def _assert_follows_the_law(direction: str, r: int, edges, got, clock: str = "tick") -> None:
    """``got``, the entries in each bin of ``edges`` and then the censored
    count of walk 1000, and the mean of each over the seeds, are held to
    the law in units of the seeds' spread."""
    resolved, censored = expected_counts(passage_law(PMF, r, direction, max(DAYS) - 1), DAYS)
    k = np.arange(resolved.size)
    taus = k if clock == "tick" else np.maximum(np.ceil(k * STEP_S), 1)
    law = np.append(np.histogram(taus, edges, weights=resolved)[0], censored)

    seeds = []
    for seed in SEEDS:
        exits = CrossingIndex(_walk(seed, WALL_NS if clock == "wall" else 1), direction).exit_times(r, clock)
        seeds.append(np.append(np.histogram(exits.tau, edges)[0], exits.censored_count))
    # the last bin's top edge is set by the largest waiting time, so it is not held
    held = np.append(law[:-2] >= MIN_EXPECTED, [False, True])
    _hold(law, np.array(seeds, dtype=float), got, held, (direction, r, clock))


@pytest.mark.parametrize("direction", ["up", "down"])
def test_invstat_artifacts_follow_the_exact_law(tmp_path, direction):
    series = tmp_path / "series.csv"
    series.write_text(serialize_regular_series(_walk(1000)))
    out = tmp_path / "out"
    targets = ",".join(map(str, THRESHOLDS))
    argv = ["invstat", "--input", str(series), "--target", targets, "--direction", direction, "--out", str(out)]
    assert cli.run(argv) == 0
    n = sum(DAYS)
    for r in THRESHOLDS:
        edges, density = _read_bins(out / f"pdf_R{r}.csv")
        fit = json.loads((out / f"fit_R{r}.json").read_text())
        assert fit["n_resolved"] + fit["n_censored"] == n
        _assert_follows_the_law(direction, r, edges, np.append(density * n * np.diff(edges), fit["n_censored"]))


def test_both_follows_the_exact_law():
    """Direction "both" exits a band of 2R - 1 levels, so its waiting
    times span too few decades for the subcommand's fit; its bins are
    those ``first_passage_hist`` gives the subcommand."""
    index = CrossingIndex(_walk(1000), "both")
    for r in THRESHOLDS:
        exits = index.exit_times(r)
        hist = first_passage_hist(exits.tau, exits.censored_count, 10)
        _assert_follows_the_law("both", r, hist.edges, np.append(hist.counts, exits.censored_count))


def _assert_entries_follow_the_law(direction: str, r: int, edges, got) -> None:
    """``got``, walk 1000's resolved entries in each bin of ``edges``, in
    seconds since the open, and their mean over the seeds are held to the
    sum over each bin's entries t of P(tau <= n_d - 1 - t)."""
    resolved_by = np.cumsum(passage_law(PMF, r, direction, max(DAYS) - 1))  # P(tau <= m)
    seconds = np.concatenate([np.arange(n) * STEP_S for n in DAYS])
    weights = np.concatenate([resolved_by[n - 1 - np.arange(n)] for n in DAYS])
    law = np.histogram(seconds, edges, weights=weights)[0]
    seeds = [
        np.histogram(CrossingIndex(_walk(seed, WALL_NS), direction).exit_times(r, "wall").entry_second, edges)[0]
        for seed in SEEDS
    ]
    _hold(law, np.array(seeds, dtype=float), got, law >= MIN_EXPECTED, (direction, r, "entries"))


@pytest.mark.parametrize("direction", ["up", "down"])
def test_invstat_wall_clock_at_a_non_unit_interval_follows_the_exact_law(tmp_path, direction):
    """Points 1.5 s apart: ``pdf_R*.csv`` follows the law carried to wall
    seconds, which a clock that rounds the waiting time down would miss,
    ``n_censored`` is the tick clock's, and ``entry_R*.csv`` counts each
    bin's resolved entries."""
    series = tmp_path / "series.csv"
    series.write_text(serialize_regular_series(_walk(1000, WALL_NS)))
    targets = ",".join(map(str, THRESHOLDS))
    argv = ["invstat", "--input", str(series), "--target", targets, "--direction", direction]
    out = {clock: tmp_path / clock for clock in ("tick", "wall")}
    for clock, path in out.items():
        assert cli.run([*argv, "--clock", clock, "--entry-bin-seconds", str(ENTRY_BIN_S), "--out", str(path)]) == 0
    n = sum(DAYS)
    for r in THRESHOLDS:
        fit, tick_fit = (json.loads((out[c] / f"fit_R{r}.json").read_text()) for c in ("wall", "tick"))
        assert (fit["n_resolved"], fit["n_censored"]) == (tick_fit["n_resolved"], tick_fit["n_censored"])
        edges, density = _read_bins(out["wall"] / f"pdf_R{r}.csv")
        got = np.append(density * n * np.diff(edges), fit["n_censored"])
        _assert_follows_the_law(direction, r, edges, got, "wall")
        edges, counts = _read_bins(out["wall"] / f"entry_R{r}.csv")
        assert counts.sum() == fit["n_resolved"]
        _assert_entries_follow_the_law(direction, r, edges, counts)
