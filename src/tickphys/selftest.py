"""Synthetic acceptance suite.

Eleven criteria, each pinned to a generator with known ground truth: fBm
recovery for the Hurst pipeline, the exact +-1-walk first-passage law and
Brownian scaling for exit times, inverse-transform samples for the
relaxation fits, and byte-level determinism of the CLI artifacts.  Every
criterion runs on fixed seeds so the suite is reproducible bit for bit.
``_criterion`` registers each body, which returns ``(measured, passed)``,
in ``CRITERIA``; it times the body and fails it past its budget (30 s for
criterion 1, 60 s for criterion 3), checked but never written into artifacts.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import hurst, invstat, numerics, obrelax, synth
from .invstat import ExitTimeConfig
from .market_data import Book
from .obrelax import ImbalanceSeries, StretchedExpFit

__all__ = ["CriterionResult", "run_selftest", "format_line", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    measured: str
    expected: str
    tolerance: str
    passed: bool
    elapsed_s: float  # console only; artifacts must stay wall-clock free


def format_line(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return (
        f"criterion {r.index:2d}: {status}  {r.name}: measured {r.measured}, "
        f"expected {r.expected} (tol {r.tolerance}) [{r.elapsed_s:.1f}s]"
    )


CRITERIA = {}  # index -> callable returning its CriterionResult, filled by _criterion


def _criterion(index: int, name: str, expected: str, tolerance: str, budget_s: float = math.inf):
    """Register a body returning ``(measured, passed)`` as criterion
    ``index``: the registered callable times the body and reports it as a
    ``CriterionResult``, failed if it took ``budget_s`` seconds or more."""

    def register(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            measured, passed = body()
            elapsed = time.perf_counter() - t0
            passed = passed and elapsed < budget_s
            return CriterionResult(index, name, measured, expected, tolerance, passed, elapsed)

        CRITERIA[index] = run
        return run

    return register


@_criterion(1, "Hurst recovery", "mean|dH| <= 0.05 per H", "0.05; < 30 s", budget_s=30.0)
def criterion_1():
    """fBm Hurst recovery across H = 0.3, 0.5, 0.7."""
    errs = {}
    for h_true in (0.3, 0.5, 0.7):
        diffs = []
        for seed in range(10):
            path = synth.gen_fbm(synth.FbmSpec(hurst=h_true, n=2**16, scale=1.0, seed=1000 + seed))
            est = hurst.hurst_exponent(path)
            diffs.append(abs(est.h - h_true))
        errs[h_true] = float(np.mean(diffs))
    measured = ", ".join(f"H={h}: mean|dH|={e:.4f}" for h, e in errs.items())
    return measured, max(errs.values()) <= 0.05


@_criterion(2, "local-Hurst stationarity", "mean in [0.43,0.57], all in [0.3,0.7]", ">= 95% of seeds")
def criterion_2():
    """Local-Hurst stationarity on fBm H=0.5."""
    n_seeds = 20
    ok = 0
    means = []
    for seed in range(n_seeds):
        path = synth.gen_fbm(synth.FbmSpec(hurst=0.5, n=100_000, scale=1.0, seed=2000 + seed))
        hs = hurst.local_hurst(path, window=8192, shift=10)
        vals = hs.h[np.isfinite(hs.h)]
        mean = float(vals.mean())
        means.append(mean)
        if 0.43 <= mean <= 0.57 and vals.min() >= 0.3 and vals.max() <= 0.7:
            ok += 1
    measured = f"{ok}/{n_seeds} seeds in band, grand mean={np.mean(means):.4f}"
    return measured, ok >= math.ceil(0.95 * n_seeds)


@_criterion(3, "Brownian first-passage tail", "-1.5", "0.15; < 60 s", budget_s=60.0)
def criterion_3():
    """First-passage tail of the symmetric tick walk."""
    walk = synth.gen_tick_walk(10**7, p_zero=0.0, seed=3)
    exits = invstat.exit_times(walk, ExitTimeConfig(threshold=1, direction="up", clock="tick"))
    hist = invstat.first_passage_hist(exits.tau, exits.censored_count, 10)
    tail = invstat.fit_tail_power_law(hist, (1e2, 1e4))
    return f"slope={tail.slope:.4f} over tau in [1e2,1e4]", abs(tail.slope + 1.5) <= 0.15


@_criterion(4, "horizon scaling", "2.0", "0.2")
def criterion_4():
    """tau* ~ R^2 across thresholds of 2..16 step deviations."""
    sigma = 8.0
    walk = np.rint(synth.gen_brownian(2**21, scale=sigma, seed=4)).astype(np.int64)
    thresholds = tuple(int(k * sigma) for k in (2, 4, 8, 16))
    rows = invstat.horizon_scaling(walk, thresholds, bins_per_decade=10)
    fit = invstat.fit_horizon_power_law(rows)
    stars = ", ".join(f"R={r.threshold}: tau*={r.tau_star:.3f}" for r in rows)
    return f"gamma={fit.slope:.4f} ({stars})", abs(fit.slope - 2.0) <= 0.2


def _plus_minus_one_law(tau: int) -> float:
    """P(first +1 crossing of a fair +-1 walk takes exactly tau steps)."""
    if tau < 1 or tau % 2 == 0:
        return 0.0
    k = (tau + 1) // 2
    return math.comb(tau, k) / (tau * 2**tau)


@_criterion(5, "exact small-tau law", "binomial agreement", "3 sigma at 1e6 entries")
def criterion_5():
    """Small-tau frequencies against the exact +-1-walk law."""
    walk = synth.gen_tick_walk(10**6, p_zero=0.0, seed=5)
    exits = invstat.exit_times(walk, ExitTimeConfig(threshold=1, direction="up", clock="tick"))
    n = exits.n_entries
    worst = 0.0
    for tau in range(1, 22, 2):
        p = _plus_minus_one_law(tau)
        freq = float(np.count_nonzero(exits.tau == tau)) / n
        z = abs(freq - p) / math.sqrt(p * (1.0 - p) / n)
        worst = max(worst, z)
    return f"max|z|={worst:.3f} over tau=1..21 odd", worst <= 3.0


def _pooled_relaxation(paths, kappa: float):
    taus = []
    censored = 0
    for path in paths:
        sig = ImbalanceSeries(values=np.tanh(np.asarray(path) / 4.0))
        samples = obrelax.relaxation_times(sig, kappa, clock="event")
        taus.append(samples.resolved_tau)
        censored += samples.censored_count
    return np.concatenate(taus), censored


@_criterion(6, "first-return exponents", "-1.5 and -1.3", "0.15 / 0.2")
def criterion_6():
    """First-return exponents: 1.5 for Brownian, 2 - H for fBm H=0.7."""
    brown = [synth.gen_brownian(2**20, scale=1.0, seed=600 + s) for s in range(48)]
    tau_b, cens_b = _pooled_relaxation(brown, kappa=0.25)
    hist_b = numerics.log_bin(tau_b, 10, censored_count=cens_b)
    fit_b = invstat.fit_tail_power_law(hist_b, (1e2, 1e4))

    fbm = [
        synth.gen_fbm(synth.FbmSpec(hurst=0.7, n=2**16, scale=1.0, seed=6000 + s))
        for s in range(160)
    ]
    tau_f, cens_f = _pooled_relaxation(fbm, kappa=0.25)
    hist_f = numerics.log_bin(tau_f, 8, censored_count=cens_f)
    fit_f = invstat.fit_tail_power_law(hist_f, (50.0, 5000.0))

    ok_b = abs(fit_b.slope + 1.5) <= 0.15
    ok_f = abs(fit_f.slope + 1.3) <= 0.2
    return f"brownian slope={fit_b.slope:.4f}, fbm(H=0.7) slope={fit_f.slope:.4f}", ok_b and ok_f


@_criterion(7, "stretched-exp recovery", "tau_tilde and alpha within 5%", "0.05")
def criterion_7():
    """Stretched-exponential parameter recovery from 1e5 draws."""
    worst = 0.0
    details = []
    for i, tau_tilde in enumerate((10.0, 100.0)):
        for j, alpha in enumerate((0.3, 0.6, 0.9)):
            draws = obrelax.sample_stretched_exp(100_000, tau_tilde, alpha, seed=700 + 10 * i + j)
            hist = numerics.log_bin(draws, 10)
            fit = obrelax.fit_stretched_exp(hist)
            rel_t = abs(fit.tau_tilde - tau_tilde) / tau_tilde
            rel_a = abs(fit.alpha - alpha) / alpha
            worst = max(worst, rel_t, rel_a)
            details.append(f"({tau_tilde:g},{alpha:g}): {max(rel_t, rel_a):.4f}")
    return f"max rel err={worst:.4f} [{'; '.join(details)}]", worst <= 0.05


@_criterion(8, "mean-relaxation formula", "(tau_tilde/alpha) Gamma(1/alpha) = quadrature", "1e-6 relative")
def criterion_8():
    """Mean-relaxation formula against direct quadrature."""
    worst = 0.0
    for tau_tilde in (10.0, 100.0):
        for alpha in (0.3, 0.6, 0.9):
            formula = obrelax.mean_relaxation_from_fit(
                StretchedExpFit(tau_tilde=tau_tilde, alpha=alpha, sse=0.0, n_bins=0)
            )

            def integrand(t: float, tt=tau_tilde, a=alpha) -> float:
                if t <= 0.0:
                    return 0.0
                r = (t / tt) ** a
                return a * r * math.exp(-r)

            integral = numerics.quadrature(integrand, 0.0, math.inf, tol=formula * 1e-10)
            worst = max(worst, abs(formula - integral) / formula)
    return f"max rel diff={worst:.3e}", worst <= 1e-6


@_criterion(
    9, "waiting-time law self-consistency",
    "params within 10% (|tau0| <= 10% of mode scale), integral 1", "0.10; 1e-3",
)
def criterion_9():
    """Waiting-time law self-consistency at (alpha, nu, beta, tau0) = (0.5, 1, 20, 0)."""
    alpha, nu, beta, tau0 = 0.5, 1.0, 20.0, 0.0
    draws = invstat.sample_first_passage(100_000, alpha, beta, nu, tau0, seed=9)
    hist = numerics.log_bin(draws, 10)
    fit = invstat.fit_first_passage(hist)

    mode_scale = beta**2 / (alpha + 1.0)
    rel = {
        "alpha": abs(fit.alpha - alpha) / alpha,
        "beta": abs(fit.beta - beta) / beta,
        "nu": abs(fit.nu - nu) / nu,
    }
    tau0_ok = abs(fit.tau0) <= 0.1 * mode_scale

    def log_mass(s: float) -> float:
        # density times tau, i.e. the integrand after tau = exp(s)
        t = math.exp(s)
        return float(invstat.passage_density(t, fit.alpha, fit.beta, fit.nu, fit.tau0)) * t

    # Integrate in log space with breakpoints bracketing the mode so the
    # adaptive pass cannot step over the peak; the omitted tails are below
    # 1e-6 for any parameters within tolerance of the truth.
    s_mid = math.log(max(fit.beta**2 / (fit.alpha + 1.0), 1.0))
    breaks = [s_mid + d for d in (-15.0, -5.0, 0.0, 5.0, 15.0, 30.0)]
    integral = sum(
        numerics.quadrature(log_mass, lo, hi, tol=1e-8)
        for lo, hi in zip(breaks[:-1], breaks[1:])
    )
    norm_ok = abs(integral - 1.0) <= 1e-3

    measured = (
        f"rel err alpha={rel['alpha']:.4f}, beta={rel['beta']:.4f}, nu={rel['nu']:.4f}, "
        f"tau0={fit.tau0:.3f}, integral={integral:.6f}"
    )
    return measured, max(rel.values()) <= 0.10 and tau0_ok and norm_ok


def _random_book(rng) -> tuple:
    """Strictly ordered ladders with occasional one-sided emptiness."""
    depth = 5
    mid = int(rng.integers(90, 111))
    bid_px = mid - np.cumsum(rng.integers(1, 4, depth))
    ask_px = mid + np.cumsum(rng.integers(1, 4, depth))
    regime = rng.random()
    bid_v = rng.integers(0, 1000, depth)
    ask_v = rng.integers(0, 1000, depth)
    if regime < 0.05:
        bid_v[:] = 0
    elif regime < 0.10:
        ask_v[:] = 0
    if bid_v.sum() + ask_v.sum() == 0:
        bid_v[0] = 1
    return bid_px, bid_v, ask_px, ask_v


@_criterion(10, "imbalance algebra", "0 failures", "exact")
def criterion_10():
    """Imbalance algebra on 1e4 randomized books."""
    rng = np.random.default_rng(10)
    # odd-mantissa levels: no rational with denominator < 2^52 can hit them
    kappa1, kappa2 = 0.28915, 0.61073
    ladders = [np.array(c) for c in zip(*(_random_book(rng) for _ in range(10_000)))]
    book = Book(np.ones(10_000, np.int64), np.zeros(10_000, np.int64), *ladders)
    vals = obrelax.imbalance_series([book], 5).values
    mirrored = Book(book.timestamps_ns, book.trade_count_delta, *ladders[2:], *ladders[:2])
    failures = int(np.sum(~((vals >= -1.0) & (vals <= 1.0))))
    failures += int(np.sum(obrelax.imbalance_series([mirrored], 5).values != -vals))
    for m in (2, 7, 1000):
        scaled = replace(book, bid_vol=book.bid_vol * m, ask_vol=book.ask_vol * m)
        failures += int(np.sum(obrelax.imbalance_series([scaled], 5).values != vals))
    # entry-set nesting, checked on 100 sequences of 100 books each
    for chunk in vals.reshape(100, 100):
        e1 = set(obrelax.entry_times(chunk, kappa1).tolist())
        for t in obrelax.entry_times(chunk, kappa2):
            below = np.nonzero(np.abs(chunk[:t]) < kappa1)[0]
            if below.size and (int(below[-1]) + 1) not in e1:
                failures += 1
    return f"{failures} failures over 10000 books", failures == 0


def _strip_manifest(text: str) -> str:
    doc = json.loads(text)
    doc.pop("started", None)
    doc.pop("finished", None)
    return json.dumps(doc, sort_keys=True)


def _synthetic_book_text() -> str:
    """Deterministic book stream with a wandering imbalance."""
    from .market_data import BookSnapshot, serialize_book
    from decimal import Decimal

    rng = np.random.default_rng(1101)
    snaps = []
    ts = 0
    for _ in range(4000):
        ts += int(rng.integers(1, 1_000_000_000))
        mid = 100
        bid_px = tuple(mid - 1 - i for i in range(3))
        ask_px = tuple(mid + 1 + i for i in range(3))
        bid_v = rng.integers(1, 400, 3)
        ask_v = rng.integers(1, 400, 3)
        snaps.append(
            BookSnapshot(
                timestamp_ns=ts,
                trade_count_delta=int(rng.integers(0, 3)),
                bids=tuple((p, int(v)) for p, v in zip(bid_px, bid_v)),
                asks=tuple((p, int(v)) for p, v in zip(ask_px, ask_v)),
            )
        )
    return serialize_book(snaps, Decimal("0.01"), 3)


@_criterion(11, "determinism", "byte-identical reruns", "manifest timestamps excluded")
def criterion_11():
    """Byte-identical reruns of every artifact-writing subcommand."""
    from . import cli

    scratch = Path(tempfile.mkdtemp(prefix="tickphys-selftest-"))
    diffs = []
    n_files = 0
    try:
        walk_dir = scratch / "walk"
        cli.run(["synth", "--model", "tickwalk", "--n", "20000", "--seed", "11", "--out", str(walk_dir)])
        fbm_dir = scratch / "fbm"
        cli.run(["synth", "--model", "fbm", "--hurst", "0.6", "--n", "4096", "--seed", "11", "--out", str(fbm_dir)])
        book_path = scratch / "books.csv"
        book_path.write_text(_synthetic_book_text())

        jobs = [
            ["synth", "--model", "fbm", "--hurst", "0.6", "--n", "4096", "--seed", "11"],
            ["synth", "--model", "brownian", "--n", "4096", "--seed", "11"],
            ["hurst", "--input", str(fbm_dir / "series.csv"), "--window", "1024", "--shift", "64"],
            [
                "invstat", "--input", str(walk_dir / "series.csv"), "--target", "1,2",
                "--bins-per-decade", "8", "--min-samples", "50",
            ],
            [
                "relax", "--input", str(book_path), "--kappa", "0.2,0.4", "--depth", "3",
                "--min-samples", "20",
            ],
            ["selftest", "--criterion", "10"],
        ]
        for i, job in enumerate(jobs):
            run_a = scratch / f"job{i}_a"
            run_b = scratch / f"job{i}_b"
            for out in (run_a, run_b):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.run(job + ["--out", str(out)])
                if code != 0:
                    diffs.append(f"{job[0]} exited {code}")
            names_a = sorted(p.name for p in run_a.iterdir())
            names_b = sorted(p.name for p in run_b.iterdir())
            if names_a != names_b:
                diffs.append(f"{job[0]}: file sets differ")
                continue
            for name in names_a:
                n_files += 1
                a = (run_a / name).read_text()
                b = (run_b / name).read_text()
                if name == "manifest.json":
                    a, b = _strip_manifest(a), _strip_manifest(b)
                if a != b:
                    diffs.append(f"{job[0]}/{name}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    measured = f"{n_files} artifacts compared, {len(diffs)} diffs" + (
        f" ({'; '.join(diffs[:4])})" if diffs else ""
    )
    return measured, not diffs


def run_selftest(indices=None) -> list:
    """Run the requested criteria (all by default), in order."""
    if indices is None:
        indices = sorted(CRITERIA)
    results = []
    for k in indices:
        if k not in CRITERIA:
            raise ValueError(f"no criterion {k}")
        results.append(CRITERIA[k]())
    return results
