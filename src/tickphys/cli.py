"""Command line front end: one subcommand per pipeline plus synthetic
generation and the built-in acceptance suite.

Every subcommand requires --out DIR, which must be absent or empty.  A
subcommand only validates its flags and computes its artifacts; ``run``
writes them with a manifest.json whose parameters are every flag as
parsed except --out.  Artifacts are collected in memory, written into a
new directory beside --out and renamed onto it, so a failing run, even
one whose write fails, leaves no partial output; reruns with identical
flags and inputs into fresh directories are byte-identical except for
the manifest's started/finished stamps.  Exit codes: 0 success, 1 usage,
2 data, 3 fit failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import math
import secrets
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, FitError, SeriesTooShort, TickphysError, UsageError
from .hurst import DfaConfig, ScaleRow, local_hurst
from .invstat import CLOCKS, DIRECTIONS, CrossingIndex, _horizon, fit_tail_power_law
from .market_data import (
    _CHUNK_BYTES,
    RegularSeries,
    _book_blocks,
    parse_regular_series,
    serialize_regular_series,
)
from .obrelax import (
    fit_stretched_exp,
    imbalance_series,
    mean_relaxation_from_fit,
    relaxation_hist,
    relaxation_times,
)
from .synth import FbmSpec, gen_brownian, gen_fbm, gen_tick_walk

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_FIT = 3
_NO_INPUT = hashlib.sha256().hexdigest()
_RELAX_CLOCKS = {"ticks": "event", "trades": "trade"}  # --clock -> relaxation_times' clock


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of calling sys.exit."""

    def error(self, message):
        raise UsageError(message)


def _utcnow() -> str:
    return dt.datetime.now(dt.timezone.utc).isoformat()


def _load(path: str, parse):
    """``parse`` of the bytes of an input file and their sha256.  The file
    is read once, in chunks that are hashed as ``parse`` takes them, so it
    is never held whole; nothing decodes the bytes or rewrites their line
    ends first.  An input that cannot be read (absent, a directory, not
    permitted) is a data error."""
    digest = hashlib.sha256()

    def hashed(chunks):
        for chunk in chunks:
            digest.update(chunk)
            yield chunk

    try:
        with open(path, "rb") as f:
            chunks = iter(lambda: f.read(_CHUNK_BYTES), b"")
            parsed = parse(hashed(chunks))
            for chunk in chunks:  # any bytes the parser left
                digest.update(chunk)
    except OSError as exc:
        raise DataError(exc) from None
    return parsed, digest.hexdigest()


def _require_empty_out(out_dir: str) -> None:
    """Refuse an --out that already holds files, or that cannot be
    created because a file stands where one of its directories would go:
    a rerun with fewer targets or kappas would otherwise leave the old
    run's artifacts beside the new ones."""
    out = Path(out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise UsageError(f"--out {out_dir} exists and is not an empty directory")
    blocker = next(p for p in out.resolve().parents if p.exists())
    if not blocker.is_dir():
        raise UsageError(f"--out {out_dir} cannot be created: {blocker} is not a directory")


def _write_all(out_dir: str, files: dict) -> None:
    """Write the artifacts into a new directory beside ``out_dir``, then
    rename it onto ``out_dir`` (absent or empty), so a write that fails
    leaves neither part of the run nor the new directory behind."""
    out = Path(out_dir).resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{secrets.token_hex(6)}.tmp")
    tmp.mkdir()
    try:
        for name, text in files.items():
            (tmp / name).write_text(text)
        tmp.replace(out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _fmt(x) -> str:
    return repr(float(x))


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _pdf_csv(hist) -> str:
    rows = ["# columns: tau_lo,tau_hi,density"]
    edges = hist.edges.tolist()  # Python floats, not a NumPy scalar per cell
    rows += [f"{_fmt(lo)},{_fmt(hi)},{_fmt(d)}" for lo, hi, d in zip(edges, edges[1:], hist.densities.tolist())]
    return "\n".join(rows) + "\n"


def _parse_list(text: str, flag: str, read, what: str, name) -> dict:
    try:
        vals = [read(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated {what}, got {text!r}")
    if not vals:
        raise UsageError(f"{flag} is empty")
    named = {name(v): v for v in vals}
    if len(named) < len(vals):  # one file would hold the last value of a name
        raise UsageError(f"{flag} {text!r} gives two values the same artifact names")
    return named


def _at_least_1(args, *flags) -> None:
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) < 1:
            raise UsageError(f"{flag} must be at least 1")


def _book_imbalance(data, depth: int, source: str):
    """The imbalance of a book file, block by block; a ``depth`` beyond the file's fails after any bad row."""
    _, file_depth, blocks = _book_blocks(data)

    def checked():
        yield from blocks
        if depth > file_depth:
            raise UsageError(f"--depth {depth} exceeds the depth {file_depth} of {source}")

    return imbalance_series(checked(), min(depth, file_depth))


# ------------------------------------------------------------- subcommands


def _cmd_synth(args):
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    if not 0.0 < args.scale < math.inf:  # every model, although tickwalk ignores it
        raise UsageError("--scale must be finite and positive")
    if not 0.0 <= args.p_zero < 1.0:  # every model, although only tickwalk reads it
        raise UsageError("--p-zero must lie in [0, 1)")
    if args.model == "fbm":
        if args.hurst is None:
            raise UsageError("--hurst is required for --model fbm")
        if not 0.0 < args.hurst < 1.0:
            raise UsageError("--hurst must lie in (0, 1)")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing path is refused below
        if args.model == "fbm":
            path = gen_fbm(FbmSpec(hurst=args.hurst, n=args.n, scale=args.scale, seed=args.seed))
        elif args.model == "brownian":
            path = gen_brownian(args.n, scale=args.scale, seed=args.seed)
        else:
            path = gen_tick_walk(args.n, p_zero=args.p_zero, seed=args.seed).astype(float)
    if not np.isfinite(path).all():  # never for tickwalk, which ignores --scale
        raise UsageError(f"--scale {args.scale!r} overflows the generated path")
    series = RegularSeries(start_ns=0, interval_ns=1, values=np.asarray(path, dtype=float))
    return {"series.csv": serialize_regular_series(series)}, _NO_INPUT


def _cmd_hurst(args):
    if args.window < 8:
        raise UsageError("--window must be at least 8")
    _at_least_1(args, "--shift")
    try:
        if args.boxes:
            lo, hi, count = (int(p) for p in args.boxes.split(":"))
            if lo > hi:
                raise ValueError(f"MIN {lo} exceeds MAX {hi}")
            sizes = tuple(np.unique(np.round(np.geomspace(lo, hi, count)).astype(int)))
            config = DfaConfig(box_sizes=sizes, poly_order=args.order)
        else:
            config = DfaConfig.for_length(args.window - 1, poly_order=args.order)
    except (ValueError, SeriesTooShort) as exc:
        raise UsageError(f"bad --boxes MIN:MAX:COUNT, --order or --window: {exc}")
    if config.box_sizes[-1] * config.min_boxes > args.window - 1:
        raise UsageError(f"--window {args.window} is too short for boxes of {config.box_sizes[-1]}")
    series, digest = _load(args.input, parse_regular_series)
    hs = local_hurst(series, args.window, args.shift, config)

    rows = ["# columns: t,h,stderr,spans_boundary"]
    for t, h, se, spans in zip(*(c.tolist() for c in (hs.times, hs.h, hs.stderr, hs.spans_boundary))):
        rows.append(f"{t},{_fmt(h)},{_fmt(se)},{int(spans)}")
    row = ScaleRow.of(hs)
    summary = {"mean": row.mean_h, "sd": row.sd_h, "n_windows": row.n_windows}
    return {"hurst.csv": "\n".join(rows) + "\n", "summary.json": _json(summary)}, digest


def _cmd_invstat(args):
    targets = _parse_list(args.target, "--target", int, "integers", str)
    if any(r < 1 for r in targets.values()):
        raise UsageError("--target values must be >= 1 tick")
    _at_least_1(args, "--bins-per-decade", "--min-samples")
    if not 0.0 < args.entry_bin_seconds < math.inf:  # NaN fails too
        raise UsageError("--entry-bin-seconds must be a positive finite number")
    series, digest = _load(args.input, parse_regular_series)
    index = CrossingIndex(series, args.direction)
    del series  # the index keeps its own keys, 4 or 8 bytes each

    files = {}
    scaling_rows = ["# columns: R,tau_star"]
    for r in targets.values():
        horizon, hist, entries = _horizon(
            index, r, args.clock, args.bins_per_decade, args.min_samples, args.entry_bin_seconds
        )
        files[f"pdf_R{r}.csv"] = _pdf_csv(hist)
        files[f"fit_R{r}.json"] = _json(
            {
                "alpha": horizon.fit.alpha,
                "nu": horizon.fit.nu,
                "beta": horizon.fit.beta,
                "tau0": horizon.fit.tau0,
                "sse": horizon.fit.sse,
                "tau_star": horizon.tau_star,
                "n_resolved": horizon.n_resolved,
                "n_censored": horizon.n_censored,
            }
        )
        entry_rows = ["# columns: start_s,end_s,count,rate_per_hour"]
        if entries is not None:  # None: no resolved entry carries a wall-clock time
            edges, counts = (column.tolist() for column in entries)
            entry_rows += [
                f"{_fmt(lo)},{_fmt(hi)},{c},{_fmt(c * 3600.0 / args.entry_bin_seconds)}"
                for lo, hi, c in zip(edges, edges[1:], counts)
            ]
        files[f"entry_R{r}.csv"] = "\n".join(entry_rows) + "\n"
        scaling_rows.append(f"{r},{_fmt(horizon.tau_star)}")
    files["scaling.csv"] = "\n".join(scaling_rows) + "\n"
    return files, digest


def _cmd_relax(args):
    kappas = _parse_list(args.kappa, "--kappa", float, "numbers", "{:g}".format)
    if any(not 0.0 < k < 1.0 for k in kappas.values()):
        raise UsageError("--kappa values must lie in (0, 1)")
    _at_least_1(args, "--depth", "--bins-per-decade", "--min-samples")
    sig, digest = _load(args.input, lambda data: _book_imbalance(data, args.depth, args.input))
    clock = _RELAX_CLOCKS[args.clock]

    files = {}
    mean_rows = ["# columns: kappa,mean_tau,n_resolved,n_censored"]
    for tag, kappa in kappas.items():
        samples = relaxation_times(sig, kappa, clock=clock)
        hist = relaxation_hist(samples, args.bins_per_decade, min_samples=args.min_samples)
        fit = fit_stretched_exp(hist)
        power = fit_tail_power_law(hist, (hist.edges[0], hist.edges[-1]))
        files[f"pdf_k{tag}.csv"] = _pdf_csv(hist)
        files[f"fit_k{tag}.json"] = _json(
            {
                "tau_tilde": fit.tau_tilde,
                "alpha": fit.alpha,
                "sse_stretched": fit.sse,
                "gamma": -power.slope,
                "sse_power": power.sse,
                "mean_tau": mean_relaxation_from_fit(fit),
            }
        )
        resolved = samples.resolved_tau
        mean_rows.append(
            f"{_fmt(kappa)},{_fmt(resolved.mean())},{resolved.size},{samples.censored_count}"
        )
    files["mean_vs_kappa.csv"] = "\n".join(mean_rows) + "\n"
    return files, digest


def _cmd_selftest(args):
    from . import selftest

    indices = [args.criterion] if args.criterion else None
    results = selftest.run_selftest(indices)
    for res in results:
        print(selftest.format_line(res))
    report = {
        "criteria": [
            {
                "criterion": r.index,
                "name": r.name,
                "measured": r.measured,
                "expected": r.expected,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    }
    return {"report.json": _json(report)}, _NO_INPUT


# ------------------------------------------------------------------ wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="tickphys", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic price series")
    p.add_argument("--model", required=True, choices=("fbm", "brownian", "tickwalk"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--hurst", type=float, default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--p-zero", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("hurst", help="local Hurst exponents of a series")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--boxes", default=None, metavar="MIN:MAX:COUNT")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hurst)

    p = sub.add_parser("invstat", help="first-passage statistics of a series")
    p.add_argument("--input", required=True)
    p.add_argument("--target", required=True, metavar="R[,R2,...]")
    p.add_argument("--direction", default="up", choices=DIRECTIONS)
    p.add_argument("--clock", default="tick", choices=CLOCKS)
    p.add_argument("--bins-per-decade", type=int, default=10)
    p.add_argument("--min-samples", type=int, default=100)
    p.add_argument("--entry-bin-seconds", type=float, default=1800.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_invstat)

    p = sub.add_parser("relax", help="imbalance relaxation times of a book file")
    p.add_argument("--input", required=True)
    p.add_argument("--kappa", required=True, metavar="K[,K2,...]")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--clock", default="ticks", choices=_RELAX_CLOCKS)
    p.add_argument("--bins-per-decade", type=int, default=10)
    p.add_argument("--min-samples", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_relax)

    p = sub.add_parser("selftest", help="run the synthetic acceptance suite")
    p.add_argument("--criterion", type=int, default=None, choices=range(1, 12))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv) -> int:
    """Dispatch argv, then write the subcommand's artifacts and its
    manifest into --out; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _require_empty_out(args.out)  # before any input is read
        started = _utcnow()
        files, digest = args.func(args)
        params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "func", "out")}
        files["manifest.json"] = _json({
            "subcommand": args.subcommand,
            "parameters": params,
            "input_digest": digest,
            "tool_version": __version__,
            "started": started,
            "finished": _utcnow(),
        })
        _write_all(args.out, files)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (TickphysError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
