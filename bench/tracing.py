"""Spans around the calls into tickphys' public functions.

``Tracer.install()`` replaces each traced function, in every loaded
``tickphys`` module that binds it, with a wrapper that records a span:
name, start, end, parent span and run id, plus CPU time and the counts
the layer metrics need.  Spans stay in memory until ``dump`` writes them.
Nothing under ``src/`` changes; ``uninstall()`` puts the originals back.

Both fitters import ``numerics.minimize`` inside the function at call
time, so the wrapper bound in ``tickphys.numerics`` is the one they see.
Counting done after a call (box fits, ladder length) runs inside a
``trace.count`` span, so it lands in the tracing overhead rather than in
the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

# Per-span counts that run_layers sums per function name.
_COUNTS = ("rows", "windows", "nan_windows", "box_fits", "entries", "censored",
           "ladder", "evals", "raised", "bytes_out")


def _rows_series(args, result):
    return {"rows": len(result)}


def _rows_book(args, result):
    return {"rows": len(result[0])}


def _local_hurst(args, result):
    from tickphys import DfaConfig

    config = args.get("config") or DfaConfig.for_length(result.window - 1)
    m = result.window - 1
    per_window = sum(2 * (m // n) for n in config.box_sizes)
    return {
        "windows": len(result),
        "nan_windows": int(np.isnan(result.h).sum()),
        "box_fits": len(result) * per_window,
    }


def _exit_times(args, result):
    """Entries, censored entries, and the virtual-ladder length the
    crossing search sorts: per day and side, n plus the sum of
    (up-jump - 1)."""
    data = args["data"]
    values = np.rint(np.asarray(getattr(data, "values", data), dtype=float))
    bounds = list(getattr(data, "session_boundaries", (0,))) + [values.size]
    sides = {"up": (1,), "down": (-1,), "both": (1, -1)}[args["config"].direction]
    ladder = 0
    for a, b in zip(bounds, bounds[1:]):
        d = np.diff(values[a:b])
        for side in sides:
            ladder += (b - a) + int(np.maximum(side * d - 1.0, 0.0).sum())
    return {"entries": result.n_entries, "censored": result.censored_count, "ladder": ladder}


def _relaxation_times(args, result):
    return {"entries": len(result), "censored": result.censored_count}


# (module, function) -> counter; the public functions cli.run and the
# ground-truth loop call, plus minimize and log_bin one level down.
TRACED = {
    ("market_data", "parse_regular_series"): _rows_series,
    ("market_data", "parse_book"): _rows_book,
    ("hurst", "local_hurst"): _local_hurst,
    ("hurst", "hurst_exponent"): None,
    ("invstat", "exit_times"): _exit_times,
    ("invstat", "first_passage_hist"): None,
    ("invstat", "fit_first_passage"): None,
    ("invstat", "optimal_horizon"): None,
    ("invstat", "entry_time_distribution"): None,
    ("invstat", "sample_first_passage"): None,
    ("obrelax", "imbalance_series"): None,
    ("obrelax", "relaxation_times"): _relaxation_times,
    ("obrelax", "relaxation_hist"): None,
    ("obrelax", "fit_stretched_exp"): None,
    ("obrelax", "mean_relaxation_from_fit"): None,
    ("obrelax", "sample_stretched_exp"): None,
    ("numerics", "log_bin"): None,
    ("numerics", "linfit"): None,
    ("numerics", "minimize"): None,
    ("synth", "gen_fbm"): None,
    ("cli", "run"): None,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list = []
        self._patched: list = []

    # ------------------------------------------------------------- spans

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name; a span whose call raises
        records raised=1."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "cpu": time.process_time(),
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec["raised"] = 1
            raise
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.process_time() - rec["cpu"]
            self._stack.pop()

    # ---------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = len(self.spans)
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[first].update(self.call("trace.count", counter, bound.arguments, result))
            return result

        return traced

    def _wrap_minimize(self, fn):
        @functools.wraps(fn)
        def traced(objective, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return objective(x)

            first = len(self.spans)
            try:
                return self.call("numerics.minimize", fn, counted, *args, **kwargs)
            finally:
                self.spans[first]["evals"] = evals

        return traced

    def install(self) -> None:
        for mod_name, _ in TRACED:
            importlib.import_module(f"tickphys.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == "tickphys" or n.startswith("tickphys.")]
        for (mod_name, fn_name), counter in TRACED.items():
            orig = getattr(sys.modules[f"tickphys.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            if fn_name == "minimize":
                wrapper = self._wrap_minimize(orig)
            else:
                wrapper = self._wrap(name, orig, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# --------------------------------------------------------------- metrics


def _self_times(spans: list) -> dict:
    """Span id -> duration minus the part its direct children cover."""
    out = {rec["id"]: rec["end"] - rec["start"] for rec in spans}
    for rec in spans:
        if rec["parent"] is not None:
            out[rec["parent"]] -= rec["end"] - rec["start"]
    return out


def run_layers(spans: list) -> dict:
    """Per-layer figures of one traced run (spans sharing a run id)."""
    per_name: dict = {}
    for rec in spans:
        agg = per_name.setdefault(rec["name"], {"s": 0.0, "cpu_s": 0.0, "calls": 0})
        agg["s"] += rec["end"] - rec["start"]
        agg["cpu_s"] += rec["cpu"]
        agg["calls"] += 1
        for key in _COUNTS:
            agg[key] = agg.get(key, 0) + rec.get(key, 0)
    self_by_layer: dict = {}
    selfs = _self_times(spans)
    for rec in spans:
        layer = rec["name"].split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + selfs[rec["id"]]
    return {"names": per_name, "self": self_by_layer}


def _total(name: str, key: str = "s"):
    return lambda L: L["names"].get(name, {}).get(key, 0)


def _per_second(name: str, key: str):
    def f(L):
        seconds = _total(name)(L)
        return _total(name, key)(L) / seconds if seconds > 0 else 0.0

    return f


def _ns_per(name: str, key: str):
    def f(L):
        count = _total(name, key)(L)
        return _total(name)(L) * 1e9 / count if count > 0 else 0.0

    return f


def _self(layer: str):
    return lambda L: L["self"].get(layer, 0.0)


# name -> f(layers of one run); each unit is in BENCHMARK.json.  Every
# ratio names its base: rows parsed, box fits (windows x boxes over the
# grid), ladder elements.
LAYER_METRICS = {
    "market_data.parse_regular_series.s": _total("market_data.parse_regular_series"),
    "market_data.parse_regular_series.rows_per_s": _per_second("market_data.parse_regular_series", "rows"),
    "market_data.parse_book.s": _total("market_data.parse_book"),
    "market_data.parse_book.rows_per_s": _per_second("market_data.parse_book", "rows"),
    "hurst.local_hurst.s": _total("hurst.local_hurst"),
    "hurst.local_hurst.cpu_s": _total("hurst.local_hurst", "cpu_s"),
    "hurst.local_hurst.windows": _total("hurst.local_hurst", "windows"),
    "hurst.local_hurst.nan_windows": _total("hurst.local_hurst", "nan_windows"),
    "hurst.local_hurst.ns_per_box_fit": _ns_per("hurst.local_hurst", "box_fits"),
    "hurst.hurst_exponent.s": _total("hurst.hurst_exponent"),
    "invstat.exit_times.s": _total("invstat.exit_times"),
    "invstat.exit_times.entries": _total("invstat.exit_times", "entries"),
    "invstat.exit_times.censored": _total("invstat.exit_times", "censored"),
    "invstat.exit_times.ns_per_ladder_elem": _ns_per("invstat.exit_times", "ladder"),
    "invstat.first_passage_hist.s": _total("invstat.first_passage_hist"),
    "invstat.fit_first_passage.s": _total("invstat.fit_first_passage"),
    "invstat.entry_time_distribution.s": _total("invstat.entry_time_distribution"),
    "obrelax.imbalance_series.s": _total("obrelax.imbalance_series"),
    "obrelax.relaxation_times.s": _total("obrelax.relaxation_times"),
    "obrelax.relaxation_times.entries": _total("obrelax.relaxation_times", "entries"),
    "obrelax.relaxation_times.censored": _total("obrelax.relaxation_times", "censored"),
    "obrelax.fit_stretched_exp.s": _total("obrelax.fit_stretched_exp"),
    "numerics.minimize.calls": _total("numerics.minimize", "calls"),
    "numerics.minimize.evals": _total("numerics.minimize", "evals"),
    "numerics.minimize.raised": _total("numerics.minimize", "raised"),
    "numerics.minimize.s": _total("numerics.minimize"),
    "numerics.log_bin.s": _total("numerics.log_bin"),
    "synth.gen_fbm.s": _total("synth.gen_fbm"),
    "cli.bytes_out": _total("bench.op", "bytes_out"),
    # Self time per layer: each layer's spans minus their children.
    # "bench" is the operation outside every traced call, "trace" the
    # counting the wrappers do after a call.
    **{f"{layer}.self_s": _self(layer) for layer in (
        "cli", "market_data", "hurst", "invstat", "obrelax", "numerics", "synth", "bench", "trace")},
}


def layer_metrics(tracer: Tracer, traced_runs: list) -> dict:
    """Median over the traced runs of every metric in LAYER_METRICS."""
    by_run: dict = {}
    for rec in tracer.spans:
        by_run.setdefault(rec["run"], []).append(rec)
    per_run = [run_layers(by_run.get(r, [])) for r in traced_runs]
    return {name: statistics.median(f(layers) for layers in per_run)
            for name, f in LAYER_METRICS.items()}
