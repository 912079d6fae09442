"""Child processes of the benchmark: one per set-up and one per
measurement, so that each measurement's peak RSS is its workload's alone.

    python3 bench/worker.py setup   --workload W --seed N --scale S --work DIR
    python3 bench/worker.py measure --workload W --seed N --scale S --work DIR
                                    --seconds T --trace 0|1 --spans FILE

``setup`` writes the generated inputs and ``plan.json`` into DIR.
``measure`` runs operations back to back (a single-client closed loop)
until the next one would end after T seconds, checks each one's output,
and prints one JSON object as its last line.  Its peak RSS is read after
the first operation: the high-water mark of importing the package and
running one operation, which is what one CLI call costs.  Read at the
end instead, it would grow with the number of operations that fit in T,
so a faster program would show more memory.  With ``--trace 1`` it runs
one warm-up operation, then alternates untraced and traced ones, so the
tracing overhead is measured in the same process, and writes the spans
to FILE at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup(args) -> dict:
    work = Path(args.work)
    plan = workloads.WORKLOADS[args.workload].setup(args.seed, args.scale, work)
    (work / "plan.json").write_text(json.dumps(plan, sort_keys=True))
    return {"plan": plan}


def measure(args) -> dict:
    import tickphys

    w = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    plan = json.loads((work / "plan.json").read_text())
    reference = None
    if args.seed == workloads.DEFAULT_SEED and args.scale == "full":
        reference = json.loads(REFERENCE.read_text())[args.workload]

    out_dir = work / "out"
    tracer = Tracer()
    ops = []
    peak_rss_mib = None
    start = time.perf_counter()
    while True:
        # A traced run opens with one warm-up operation, kept out of both
        # medians so the first operation's cold start does not count as
        # (negative) tracing overhead; then untraced and traced alternate.
        warmup = bool(args.trace) and not ops
        traced = bool(args.trace) and len(ops) % 2 == 0 and not warmup
        tracer.run_id = len(ops)
        error = None
        if traced:
            tracer.install()
        first_span = len(tracer.spans)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                raw = tracer.call("bench.op", w.run_op, plan, work)
            else:
                raw = w.run_op(plan, work)
        except Exception:  # an operation that raises is counted as failed
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            tracer.uninstall()

        problems = [error] if error else []
        if not problems:
            try:
                outs = w.outputs(plan, work, raw)
                problems = w.check(plan, outs)
                if reference is not None:
                    problems += workloads.compare_reference(reference, outs)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"output unreadable or incomplete: {exc!r}"]
        if traced:
            tracer.spans[first_span]["bytes_out"] = _bytes_under(out_dir) if out_dir.exists() else 0
        for p in problems:
            print(f"op {len(ops)}: {p}", file=sys.stderr)
        ops.append({"wall": wall, "cpu": cpu, "traced": traced, "warmup": warmup,
                    "failed": bool(problems)})
        if peak_rss_mib is None:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        elapsed = time.perf_counter() - start
        need = 3 if args.trace else 1
        if len(ops) >= need and elapsed + wall > args.seconds:
            break

    result = {
        "ops": ops,
        "peak_rss_mib": peak_rss_mib,
        "tickphys": tickphys.__file__,
    }
    if args.trace:
        traced_runs = [i for i, op in enumerate(ops) if op["traced"]]
        untraced = [op["wall"] for op in ops if not (op["traced"] or op["warmup"])]
        traced_walls = [ops[i]["wall"] for i in traced_runs]
        layers = layer_metrics(tracer, traced_runs)
        layers["trace.wall_s"] = statistics.median(traced_walls)
        layers["trace.untraced_wall_s"] = statistics.median(untraced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        result["layers"] = layers
        tracer.dump(args.spans)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=workloads.SCALES)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    result = setup(args) if args.role == "setup" else measure(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
