"""Run every workload and print its metrics by name, with units.

    python3 bench/report.py [--seed 1] [--trace 0|1]

Each workload runs as ``run.py`` would be run on its own, in a fresh
interpreter, for BENCHMARK.json's ``run_seconds``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics and the tracing
overhead (``trace.overhead_s``).  Exits 1 if any run fails or reports a
failed task.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import BENCH_DIR, ROOT, load_spec
from workloads import WORKLOADS


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> tuple[dict | None, str]:
    """One ``run.py`` run; returns its result line (None if it failed) and stderr."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()}"
    return json.loads(lines[-1]), proc.stderr.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = load_spec()["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        result, err = run_workload(workload, args.seed, seconds, args.trace)
        if result is None:
            print(f"{workload}: {err}")
            ok = False
            continue
        ok = ok and result["failed"] == 0
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, entry in result["metrics"].items():
            print(f"  {name:52s} {entry['value']:>16.6g} {entry['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
