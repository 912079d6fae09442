"""Smoke check of the benchmark: every workload once at reduced size,
untraced and traced, then once at full size on the default seed.

    python3 bench/smoke.py

Asserts that each run exits 0, that its last line carries exactly the
metrics BENCHMARK.json names (end_to_end untraced, per_layer traced),
each with a numeric value, that no operation failed, and that the report
lines name failed_frac with its sample count.  The full-size runs are the
only ones compared with reference.json, so a stale reference fails here.
Takes about three minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check(workload: str, trace: int, seed: int = 1, scale: str = "smoke") -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", scale]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}, report.keys()
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1, report
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in spec}, (
        set(report["metrics"]) ^ {m["name"] for m in spec})
    for m in spec:
        got = report["metrics"][m["name"]]
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    frac = [ln for ln in lines if ln.startswith("failed_frac")]
    assert frac and float(frac[0].split()[1]) == 0.0 and "n=" in frac[0], frac
    print(f"ok  {workload:<14} trace={trace}  seed={seed}  scale={scale}  "
          f"attempted={report['attempted']}")


def main() -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for trace in (0, 1):
            check(workload, trace)
    for workload in names:
        check(workload, 0, seed=0, scale="full")


if __name__ == "__main__":
    main()
