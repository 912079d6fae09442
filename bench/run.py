"""tickphys benchmark: one seeded workload per run, timed end to end, or
per layer with --trace 1.

    python3 bench/run.py --workload hurst-sliding --seed 3 --seconds 27 --trace 0

Each run sets the workload up SETUP_RUNS times in fresh processes
(generate the inputs from the seed, serialize them, import the package),
then measures in MEASURE_RUNS more fresh processes (one when traced),
one after another, each given an equal share of the time left of
--seconds: operations back to back, each output checked.
The report lines name every metric with its unit and sample count, in
the order and with the units that BENCHMARK.json gives; the last line
is one JSON object with keys correct, attempted, failed and metrics.  The package is taken from src/
next to this directory, never from an installed copy; without it the
run fails.

--scale smoke runs the same operations on reduced inputs (see smoke.py).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 3
# Each untraced measuring process gives one peak-RSS sample; the median
# of three is steady where a single sample moves with thread timing.
MEASURE_RUNS = 3
SETUP_TIMEOUT_S = 60
# Time a measuring process may run past its share of --seconds: the
# first operation's overrun, its output check and the process start.
MEASURE_GRACE_S = 30

SPEC = ROOT / "BENCHMARK.json"


def _environment() -> dict:
    import numpy as np

    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _child(args, role: str, work: Path, timeout: float, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--work", str(work), *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _line(name: str, value, unit: str, n: int, note: str = "") -> str:
    return f"{name:<44} {value:>14.6g} {unit:<8} n={n}{'  ' + note if note else ''}"


def run(args) -> dict:
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans = WORK / "spans" / f"{args.workload}-seed{args.seed}-{args.scale}.jsonl"
    work.mkdir(parents=True)
    spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            _child(args, "setup", work, SETUP_TIMEOUT_S)
            setup_s.append(time.perf_counter() - t0)
        runs = 1 if args.trace else MEASURE_RUNS
        results = []
        start = time.perf_counter()
        for k in range(runs):
            # An equal share of the time still left, so that the time one
            # process leaves unused (an operation that would not fit) is
            # spent by the next.
            seconds = max(0.0, args.seconds - (time.perf_counter() - start)) / (runs - k)
            results.append(_child(args, "measure", work, seconds + MEASURE_GRACE_S,
                                  "--seconds", str(seconds), "--trace", str(args.trace),
                                  "--spans", str(spans)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for result in results:
        if not Path(result["tickphys"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"measured {result['tickphys']}, not the package under {SRC}")
    ops = [op for result in results for op in result["ops"]]
    untraced = [op for op in ops if not (op["traced"] or op["warmup"])]
    failed = sum(op["failed"] for op in ops)
    env = _environment()
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}  closed loop, 1 client")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    e2e = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "wall_s": (statistics.median(op["wall"] for op in untraced), len(untraced)),
        "cpu_s": (statistics.median(op["cpu"] for op in untraced), len(untraced)),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in results), len(results)),
    }
    spec = json.loads(SPEC.read_text())
    for m in spec["end_to_end"]:
        value, n = e2e[m["name"]]
        print(_line(m["name"], value, m["unit"], n, "median" if n > 1 else ""))
    print(_line("failed_frac", failed / len(ops), "fraction", len(ops), f"{failed} of {len(ops)} ops"))

    if args.trace:
        n_traced = sum(op["traced"] for op in ops)
        chosen = {m["name"]: (results[0]["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}
        for name, (value, unit) in chosen.items():
            print(_line(name, value, unit, n_traced, "median per traced op"))
    else:
        chosen = {m["name"]: (e2e[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = parser.parse_args()
    if not (SRC / "tickphys" / "__init__.py").is_file():
        print(f"error: no tickphys package under {SRC}", file=sys.stderr)
        return 2
    try:
        report = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
