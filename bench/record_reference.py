"""Write reference.json: the outputs of one operation of every workload
for the default seed at full scale, as the current code produces them.

    PYTHONPATH=src python3 bench/record_reference.py

The benchmark compares each operation on the default seed against this
file (integers exactly, floats to workloads.FLOAT_RTOL).  Re-record only
when a change is meant to alter the results, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    reference = {}
    for name, w in workloads.WORKLOADS.items():
        work = HERE.parent / ".bench_work" / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            plan = w.setup(workloads.DEFAULT_SEED, "full", work)
            outs = w.outputs(plan, work, w.run_op(plan, work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        problems = w.check(plan, outs)
        if problems:
            raise SystemExit(f"{name}: output fails its checks: {problems}")
        reference[name] = outs
        print(f"{name}: {len(outs)} outputs")
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
