"""Quick self-check of the benchmark on reduced inputs (about ten seconds).

    python3 bench/smoke.py

Runs ``run.py --smoke`` on every workload, untraced and traced, each in a
fresh interpreter as a real run would be.  Each run must exit 0 and end
with the result line, which must name every metric ``BENCHMARK.json``
lists, with its unit, and report no failed task (``pass_ratio`` = 1).
Exits 1 and prints the problems otherwise.
"""

from __future__ import annotations

import sys

from report import run_workload
from run import load_metric_units
from workloads import WORKLOADS


def problems_in(result: dict, expected: dict[str, str]) -> list[str]:
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        found.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        found.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                     f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            found.append(f"{name}: {entry}")
    if "pass_ratio" in expected and metrics.get("pass_ratio", {}).get("value") != 1.0:
        found.append(f"pass_ratio {metrics.get('pass_ratio')}")
    return found


def main() -> int:
    declared = load_metric_units()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, err = run_workload(workload, seed=1, seconds=1, trace=trace,
                                       smoke=True)
            label = f"{workload} trace={trace}"
            if result is None:
                problems.append(f"{label}: {err}")
                continue
            found = problems_in(result, declared[trace])
            problems.extend(f"{label}: {p}" for p in found)
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
