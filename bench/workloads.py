"""The four benchmark workloads: seeded inputs, one operation each, and
the checks that decide whether an operation's output is correct.

A workload is a ``Workload`` with three parts:

* ``setup(seed, scale, work)`` generates the inputs from the seed and
  writes them under ``work`` (the generated files are all the program
  sees); it returns a JSON-able ``plan`` for the other two parts;
* ``run_op(plan, work)`` performs one operation through the same entry
  points a user has, ``tickphys.cli.run(argv)`` or the public library
  functions, and returns its raw results;
* ``outputs(plan, work, raw)`` reads those results back into a flat
  ``{name: int | float}`` dict, and ``check(plan, outs)`` returns the
  list of problems found in it (empty when the output is correct).

Every check that does not need the reference is made on every seed:
integer outputs are recomputed independently from the generated inputs
and must match exactly, and ground-truth fits must meet the acceptance
suite's tolerances.  For the default seed at full scale the outputs are
also compared with ``reference.json``, recorded from the code the
benchmark was defined on: integers exactly, floats to ``FLOAT_RTOL``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
# Loose enough for the few-ULP drift a reordered summation causes, even
# after a simplex fit amplifies it (its own stopping tolerance is 1e-8);
# tight enough that any changed formula, box grid or fit start shows.
FLOAT_RTOL = 1e-6
T0_NS = 1_700_000_000 * 1_000_000_000  # 2023-11-14, a weekday
NS_PER_S = 1_000_000_000

SCALES = ("full", "smoke")


def _seeds(seed: int, tag: int, count: int) -> list:
    """Independent integer seeds for the generators of one workload."""
    state = np.random.SeedSequence([seed, tag]).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _cli(argv: list) -> int:
    from tickphys import cli

    return cli.run(argv)


def _out(work: Path, name: str) -> Path:
    """Output directory of one CLI call; every artifact lands under work/out."""
    return work / "out" / name


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _suffix_extreme(values: np.ndarray, bounds: list, op) -> np.ndarray:
    """Per index t, op (max or min) over values[t+1 : end of t's day];
    NaN for the last index of a day."""
    out = np.full(values.size, np.nan)
    for a, b in zip(bounds, bounds[1:]):
        day = values[a:b].astype(float)
        acc = op.accumulate(day[::-1])[::-1]  # acc[i] = op over day[i:]
        out[a : b - 1] = acc[1:]
    return out


# ------------------------------------------------------------ hurst-sliding

HURST_CALLS = {
    # (window, shift, order): criterion 2's per-seed load on the
    # prefix-sum path, then the order-2 gather path.
    "full": ((8192, 10, 1), (4096, 64, 2)),
    "smoke": ((2048, 50, 1), (1024, 64, 2)),
}
HURST_N = {"full": 100_000, "smoke": 20_000}


def hurst_setup(seed: int, scale: str, work: Path) -> dict:
    from tickphys import FbmSpec, RegularSeries, gen_fbm, serialize_regular_series

    n = HURST_N[scale]
    (fbm_seed,) = _seeds(seed, 1, 1)
    path = gen_fbm(FbmSpec(hurst=0.5, n=n, seed=fbm_seed))
    series = RegularSeries(start_ns=T0_NS, interval_ns=NS_PER_S, values=path)
    (work / "fbm.csv").write_text(serialize_regular_series(series))
    return {"n": n, "calls": [list(c) for c in HURST_CALLS[scale]]}


def hurst_op(plan: dict, work: Path) -> list:
    codes = []
    for i, (window, shift, order) in enumerate(plan["calls"]):
        out = _fresh(_out(work, f"hurst{i}"))
        argv = ["hurst", "--input", str(work / "fbm.csv"), "--window", str(window),
                "--shift", str(shift), "--order", str(order), "--out", str(out)]
        codes.append(_cli(argv))
    return codes


def hurst_outputs(plan: dict, work: Path, codes: list) -> dict:
    outs = {}
    for i, code in enumerate(codes):
        outs[f"call{i}.exit"] = code
        rows = _read_rows(_out(work, f"hurst{i}") / "hurst.csv")
        summary = _read_json(_out(work, f"hurst{i}") / "summary.json")
        h = np.array([float(r[1]) for r in rows])
        outs[f"call{i}.rows"] = len(rows)
        outs[f"call{i}.n_windows"] = summary["n_windows"]
        outs[f"call{i}.nan_windows"] = int(np.isnan(h).sum())
        outs[f"call{i}.mean"] = summary["mean"]
        outs[f"call{i}.sd"] = summary["sd"]
        outs[f"call{i}.h_first"] = float(h[0])
        outs[f"call{i}.h_last"] = float(h[-1])
    return outs


def hurst_check(plan: dict, outs: dict) -> list:
    problems = []
    for i, (window, shift, _) in enumerate(plan["calls"]):
        expected = len(range(window, plan["n"] + 1, shift))
        want = {"exit": 0, "rows": expected, "n_windows": expected, "nan_windows": 0}
        for key, value in want.items():
            if outs[f"call{i}.{key}"] != value:
                problems.append(f"call{i}.{key}={outs[f'call{i}.{key}']} != {value}")
        mean = outs[f"call{i}.mean"]
        if not 0.3 <= mean <= 0.7:  # fBm with H = 0.5; criterion 2's per-window band
            problems.append(f"call{i}.mean={mean} outside [0.3, 0.7]")
    return problems


# ------------------------------------------------------------- invstat-scan

INVSTAT_DAY = {"full": 500_000, "smoke": 20_000}
INVSTAT_DAYS = 4
INVSTAT_SIGMA = 4.0
INVSTAT_TARGETS = (8, 16, 32, 64)


def _invstat_prices(seed: int, scale: str) -> tuple:
    from tickphys import gen_brownian

    day = INVSTAT_DAY[scale]
    (walk_seed,) = _seeds(seed, 2, 1)
    walk = np.rint(gen_brownian(INVSTAT_DAYS * day, scale=INVSTAT_SIGMA, seed=walk_seed))
    bounds = [k * day for k in range(INVSTAT_DAYS + 1)]
    return walk, bounds


def invstat_setup(seed: int, scale: str, work: Path) -> dict:
    from tickphys import RegularSeries, serialize_regular_series

    walk, bounds = _invstat_prices(seed, scale)
    series = RegularSeries(
        start_ns=T0_NS, interval_ns=NS_PER_S, values=walk, session_boundaries=tuple(bounds[:-1])
    )
    (work / "walk.csv").write_text(serialize_regular_series(series))
    # The independent censoring count: an entry is censored exactly when
    # no later price of its day reaches its level plus the target.
    best = _suffix_extreme(walk, bounds, np.maximum)
    censored = {str(r): int(np.sum(~(best >= walk + r))) for r in INVSTAT_TARGETS}
    return {"n": int(walk.size), "censored": censored}


def invstat_op(plan: dict, work: Path) -> int:
    argv = ["invstat", "--input", str(work / "walk.csv"),
            "--target", ",".join(str(r) for r in INVSTAT_TARGETS),
            "--clock", "wall", "--out", str(_fresh(_out(work, "invstat")))]
    return _cli(argv)


def invstat_outputs(plan: dict, work: Path, code: int) -> dict:
    out = _out(work, "invstat")
    outs = {"exit": code}
    for r in INVSTAT_TARGETS:
        fit = _read_json(out / f"fit_R{r}.json")
        for key in ("alpha", "beta", "nu", "tau0", "sse", "tau_star"):
            outs[f"R{r}.{key}"] = fit[key]
        outs[f"R{r}.n_resolved"] = fit["n_resolved"]
        outs[f"R{r}.n_censored"] = fit["n_censored"]
        outs[f"R{r}.pdf_bins"] = len(_read_rows(out / f"pdf_R{r}.csv"))
        outs[f"R{r}.entry_count"] = sum(int(row[2]) for row in _read_rows(out / f"entry_R{r}.csv"))
    return outs


def invstat_check(plan: dict, outs: dict) -> list:
    problems = [] if outs["exit"] == 0 else [f"exit code {outs['exit']}"]
    for r in INVSTAT_TARGETS:
        censored = plan["censored"][str(r)]
        want = {
            "n_censored": censored,
            "n_resolved": plan["n"] - censored,
            "entry_count": plan["n"] - censored,
        }
        for key, value in want.items():
            if outs[f"R{r}.{key}"] != value:
                problems.append(f"R{r}.{key}={outs[f'R{r}.{key}']} != {value}")
    return problems


# --------------------------------------------------------------- relax-book

BOOK_N = {"full": 100_000, "smoke": 20_000}
BOOK_DEPTH = 3
BOOK_TICK = Decimal("0.01")
BOOK_PHI = 0.97
BOOK_KAPPAS = (0.2, 0.4, 0.6)


def _book_columns(seed: int, n: int) -> dict:
    """Integer columns of a one-day book whose depth imbalance follows an
    AR(1) latent signal, so signs persist for tens of snapshots."""
    rng = np.random.default_rng(_seeds(seed, 3, 1)[0])
    noise = rng.normal(0.0, 0.2, n)
    latent = np.empty(n)
    latent[0] = noise[0]
    for i in range(1, n):  # plain recurrence; n is small next to the parse
        latent[i] = BOOK_PHI * latent[i - 1] + noise[i]
    total = rng.integers(60, 600, n)
    bid_total = np.clip(np.rint(total * (1.0 + np.tanh(latent)) / 2.0), 3, None).astype(np.int64)
    ask_total = np.clip(total - bid_total, 3, None).astype(np.int64)
    split = np.array([0.5, 0.3, 0.2])
    bid = rng.multinomial(bid_total - BOOK_DEPTH, split) + 1
    ask = rng.multinomial(ask_total - BOOK_DEPTH, split) + 1
    mid = 10_000 + np.cumsum(rng.choice([-1, 0, 1], n, p=[0.05, 0.9, 0.05]))
    ts = T0_NS + np.cumsum(rng.integers(1_000_000, 400_000_000, n))
    trades = rng.poisson(0.6, n)
    return {"bid": bid, "ask": ask, "mid": mid, "ts": ts, "trades": trades}


def relax_setup(seed: int, scale: str, work: Path) -> dict:
    from tickphys import BookSnapshot, serialize_book

    n = BOOK_N[scale]
    c = _book_columns(seed, n)
    levels = np.arange(1, BOOK_DEPTH + 1)
    snaps = [
        BookSnapshot(
            int(c["ts"][i]),
            int(c["trades"][i]),
            tuple(zip((c["mid"][i] - levels).tolist(), c["bid"][i].tolist())),
            tuple(zip((c["mid"][i] + levels).tolist(), c["ask"][i].tolist())),
        )
        for i in range(n)
    ]
    (work / "book.csv").write_text(serialize_book(snaps, BOOK_TICK, BOOK_DEPTH))

    # Independent entry and censoring counts from the generated volumes.
    b = c["bid"].sum(axis=1)
    a = c["ask"].sum(axis=1)
    imb = (b - a) / (b + a)
    high = _suffix_extreme(imb, [0, n], np.maximum)
    low = _suffix_extreme(imb, [0, n], np.minimum)
    counts = {}
    for kappa in BOOK_KAPPAS:
        v = np.abs(imb)
        idx = np.nonzero((v[1:] > kappa) & (v[:-1] < kappa))[0] + 1
        idx = idx[idx < n - 1]
        positive = imb[idx] > 0
        censored = np.where(positive, low[idx] > 0, high[idx] < 0)
        counts[f"{kappa:g}"] = [int(idx.size - censored.sum()), int(censored.sum())]
    return {"n": n, "counts": counts}


def relax_op(plan: dict, work: Path) -> int:
    argv = ["relax", "--input", str(work / "book.csv"),
            "--kappa", ",".join(f"{k:g}" for k in BOOK_KAPPAS),
            "--depth", str(BOOK_DEPTH), "--clock", "trades", "--out", str(_fresh(_out(work, "relax")))]
    return _cli(argv)


def relax_outputs(plan: dict, work: Path, code: int) -> dict:
    out = _out(work, "relax")
    outs = {"exit": code}
    for row in _read_rows(out / "mean_vs_kappa.csv"):
        tag = f"{float(row[0]):g}"
        outs[f"k{tag}.mean_tau"] = float(row[1])
        outs[f"k{tag}.n_resolved"] = int(row[2])
        outs[f"k{tag}.n_censored"] = int(row[3])
        fit = _read_json(out / f"fit_k{tag}.json")
        for key in ("tau_tilde", "alpha", "sse_stretched", "gamma", "sse_power", "mean_tau"):
            outs[f"k{tag}.fit.{key}"] = fit[key]
    return outs


def relax_check(plan: dict, outs: dict) -> list:
    problems = [] if outs["exit"] == 0 else [f"exit code {outs['exit']}"]
    for tag, (resolved, censored) in plan["counts"].items():
        for key, value in (("n_resolved", resolved), ("n_censored", censored)):
            got = outs.get(f"k{tag}.{key}")
            if got != value:
                problems.append(f"k{tag}.{key}={got} != {value}")
    return problems


# ------------------------------------------------------------- ground-truth

# The acceptance suite's own pattern: criterion 1 (ten fBm paths per H),
# criterion 7 (the stretched-exponential grid) and criterion 9 (the
# waiting-time law), with seeds drawn from the benchmark seed.
GT_HURSTS = (0.3, 0.5, 0.7)
GT_FBM_N = 2**16
GT_FBM_SEEDS = {"full": 10, "smoke": 2}
GT_DRAWS = 100_000
GT_PASSAGE = {"alpha": 0.5, "beta": 20.0, "nu": 1.0, "tau0": 0.0}
GT_STRETCHED = tuple((t, a) for t in (10.0, 100.0) for a in (0.3, 0.6, 0.9))
GT_TOL_H = 0.05
GT_TOL_PASSAGE = 0.10
GT_TOL_STRETCHED = 0.05


def gt_setup(seed: int, scale: str, work: Path) -> dict:
    k = GT_FBM_SEEDS[scale]
    seeds = _seeds(seed, 4, len(GT_HURSTS) * k + 1 + len(GT_STRETCHED))
    fbm = [[h, seeds.pop()] for h in GT_HURSTS for _ in range(k)]
    stretched = [[t, a, seeds.pop()] for t, a in GT_STRETCHED]
    return {"fbm": fbm, "passage_seed": seeds.pop(), "stretched": stretched}


def gt_op(plan: dict, work: Path) -> dict:
    from tickphys import (
        FbmSpec,
        fit_first_passage,
        fit_stretched_exp,
        gen_fbm,
        hurst_exponent,
        log_bin,
        sample_first_passage,
        sample_stretched_exp,
    )

    h = [hurst_exponent(gen_fbm(FbmSpec(hurst=hh, n=GT_FBM_N, seed=s))) for hh, s in plan["fbm"]]
    p = GT_PASSAGE
    draws = sample_first_passage(GT_DRAWS, p["alpha"], p["beta"], p["nu"], p["tau0"],
                                 seed=plan["passage_seed"])
    passage = fit_first_passage(log_bin(draws, 10))
    stretched = [
        fit_stretched_exp(log_bin(sample_stretched_exp(GT_DRAWS, t, a, seed=s), 10))
        for t, a, s in plan["stretched"]
    ]
    return {"h": h, "passage": passage, "stretched": stretched}


def gt_outputs(plan: dict, work: Path, raw: dict) -> dict:
    outs = {}
    for (hh, s), est in zip(plan["fbm"], raw["h"]):
        outs[f"fbm.H{hh:g}.seed{s}.h"] = est.h
        outs[f"fbm.H{hh:g}.seed{s}.n_points"] = est.n_points
    for key in ("alpha", "beta", "nu", "tau0", "sse", "n_bins"):
        outs[f"passage.{key}"] = getattr(raw["passage"], key)
    for (t, a, _), fit in zip(plan["stretched"], raw["stretched"]):
        for key in ("tau_tilde", "alpha", "sse", "n_bins"):
            outs[f"stretched.{t:g}.{a:g}.{key}"] = getattr(fit, key)
    return outs


def gt_check(plan: dict, outs: dict) -> list:
    problems = []
    # Criterion 1's statistic: mean |dH| over the seeds of each H.
    for hh in GT_HURSTS:
        errs = [abs(outs[f"fbm.H{hh:g}.seed{s}.h"] - hh) for h2, s in plan["fbm"] if h2 == hh]
        if not np.mean(errs) <= GT_TOL_H:
            problems.append(f"H={hh}: mean |dH|={np.mean(errs):.4f} > {GT_TOL_H}")
    # Criterion 9: alpha, beta, nu within 10%; |tau0| within 10% of the mode scale.
    p = GT_PASSAGE
    for key in ("alpha", "beta", "nu"):
        rel = abs(outs[f"passage.{key}"] - p[key]) / p[key]
        if not rel <= GT_TOL_PASSAGE:
            problems.append(f"passage.{key} off by {rel:.4f} > {GT_TOL_PASSAGE}")
    mode_scale = p["beta"] ** 2 / (p["alpha"] + 1.0)
    if not abs(outs["passage.tau0"]) <= GT_TOL_PASSAGE * mode_scale:
        problems.append(f"passage.tau0={outs['passage.tau0']} beyond 10% of the mode scale")
    # Criterion 7: tau_tilde and alpha within 5%.
    for t, a, _ in plan["stretched"]:
        for key, want in (("tau_tilde", t), ("alpha", a)):
            rel = abs(outs[f"stretched.{t:g}.{a:g}.{key}"] - want) / want
            if not rel <= GT_TOL_STRETCHED:
                problems.append(f"stretched ({t:g}, {a:g}) {key} off by {rel:.4f} > {GT_TOL_STRETCHED}")
    return problems


# ----------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run_op: Callable
    outputs: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hurst-sliding", hurst_setup, hurst_op, hurst_outputs, hurst_check),
        Workload("invstat-scan", invstat_setup, invstat_op, invstat_outputs, invstat_check),
        Workload("relax-book", relax_setup, relax_op, relax_outputs, relax_check),
        Workload("ground-truth", gt_setup, gt_op, gt_outputs, gt_check),
    )
}


def compare_reference(reference: dict, outs: dict) -> list:
    """Differences from the recorded outputs, in both directions: every
    recorded key must be output and every output key recorded; integers
    must match exactly, floats to FLOAT_RTOL relative."""
    problems = [f"{key} not in reference" for key in sorted(outs.keys() - reference.keys())]
    for key, want in reference.items():
        got = outs.get(key)
        if got is None:
            problems.append(f"{key} missing")
        elif isinstance(want, int) and not isinstance(want, bool):
            if got != want:
                problems.append(f"{key}={got} != reference {want}")
        elif not math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=1e-12):
            problems.append(f"{key}={got!r} differs from reference {want!r}")
    return problems
