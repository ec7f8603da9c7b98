"""Record the golden outputs that ``run.py`` gates on.

For every workload, input variant and input size (full and smoke), run the
task list once at ``--parallelism 1`` and store each task's exit code and the
sha256 and length of its stdout.  Witnesses are re-validated before anything
is stored.  Run it from the root of a checkout, at the commit whose answers
are the reference:

    python3 bench/record_golden.py

Recording every full variant takes about six minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from run import GOLDEN, ROOT, WORK_ROOT, git_commit, import_cli, recheck_witness, run_pass
from workloads import VARIANTS, WORKLOADS, build


def record(cli, workload: str, variant: int, smoke: bool) -> dict[str, list]:
    work = os.path.join(WORK_ROOT, "golden", f"{workload}-{variant}")
    tasks, _ = build(workload, variant, work, smoke)
    os.chdir(work)
    try:
        runs = run_pass(cli, tasks, 1)
        for r in runs:
            if r.rc not in (0, 2):
                raise SystemExit(f"{workload}/{variant} {r.task.name}: exit {r.rc}")
            if r.task.recheck and r.rc == 2 and not recheck_witness(cli, r):
                raise SystemExit(f"{workload}/{variant} {r.task.name}: invalid witness")
    finally:
        os.chdir(ROOT)
    return {r.task.name: r.digest for r in runs}


def main() -> int:
    cli = import_cli()
    import numpy

    data = {"outputs": {}, "recorded_with": {"commit": git_commit(),
                                             "python": platform.python_version(),
                                             "numpy": numpy.__version__}}
    for mode, smoke in (("smoke", True), ("full", False)):
        for workload in WORKLOADS:
            for variant in range(VARIANTS):
                digests = record(cli, workload, variant, smoke)
                data["outputs"].setdefault(mode, {}).setdefault(workload, {})[
                    str(variant)] = digests
                print(f"{mode} {workload} {variant}: {len(digests)} tasks", flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
