"""prefrev benchmark: README CLI commands run in-process, checked against golden output.

Usage, from the root of a checkout:

    python3 bench/run.py --workload check --seed 7 --seconds 40 --trace 0

Each task is one ``prefrev`` CLI command run through ``prefrev.cli.main``
with stdout captured.  A pass runs the workload's task list once, one task
at a time (a closed loop with one client).  Passes repeat until
``--seconds`` is spent; on ``check`` they alternate between
``--parallelism 1`` and ``--parallelism 2``.  The end-to-end times are
scaled to a fixed host speed, measured by a reference loop timed around
every task (see ``reference_loop``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: each round runs a traced sequential pass (witness
re-validation included), on ``check`` a traced ``--parallelism 2`` pass,
and an untraced sequential pass for the tracing overhead.  Spans are
recorded around prefrev's public functions from outside the library (see
``tracing.py``).

Every task's exit code and stdout are compared with ``golden.json``, the
two parallelism levels must print the same bytes, traced runs must print
what untraced runs print, and every witness a task reports is fed back
through ``prefrev check --recheck-witness``.  A task failing any of these
counts in ``failed``.  The last line of stdout is the JSON result; a
provenance record and per-pass timings go to ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from tracing import Tracer, layer_metrics, summarize, write_spans
from workloads import (COUNTEREXAMPLE, PARALLEL_WORKLOADS, WORKLOADS, Task, argv_for,
                       build, variant_of)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Time of ``reference_loop`` on the host speed the end-to-end times are scaled to.
REFERENCE_S = 0.003


class BenchError(Exception):
    """The benchmark cannot run here (no sources, no golden output, ...)."""


@dataclass
class TaskRun:
    task: Task
    parallelism: int
    rc: object  # exit code, or "exception: ..." when the task raised
    out: str
    seconds: float
    reference: float  # reference_loop's time around the task

    @property
    def scaled(self) -> float:
        """The task's time on a host where ``reference_loop`` takes REFERENCE_S."""
        return self.seconds * REFERENCE_S / self.reference

    @property
    def digest(self) -> list:
        data = self.out.encode("utf-8")
        return [self.rc, hashlib.sha256(data).hexdigest(), len(data)]


# ---------------------------------------------------------------------------
# Running tasks
# ---------------------------------------------------------------------------


def import_cli():
    """Import ``prefrev.cli`` from this checkout's ``src``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "prefrev", "__init__.py")):
        raise BenchError(f"no prefrev sources under {SRC}")
    sys.path.insert(0, SRC)
    import prefrev.cli

    if not os.path.abspath(prefrev.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"prefrev imported from {prefrev.cli.__file__}, not {SRC}")
    return prefrev.cli


def run_task(cli, argv: list[str]) -> tuple[object, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception as exc:  # a traceback is a failed task, not a crash
            rc = f"exception: {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - t0


def reference_loop() -> float:
    """Time a fixed pure-Python loop: the host's speed at this moment.

    On the 2-core VM the benchmark was tuned on, the speed of a fixed loop
    drifted by up to 1.6x within a minute, in process CPU time as much as in
    wall time.  Timing this loop around every task, and scaling the task's
    time by it, takes most of that drift out of the end-to-end times.  The
    median of five tries drops an interrupt.
    """
    tries = []
    for _ in range(5):
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        tries.append(time.perf_counter() - t0)
    return statistics.median(tries)


def run_pass(cli, tasks: list[Task], parallelism: int) -> list[TaskRun]:
    gc.collect()
    runs = []
    before = reference_loop()
    for task in tasks:
        rc, out, seconds = run_task(cli, argv_for(task, parallelism))
        after = reference_loop()
        runs.append(TaskRun(task, parallelism, rc, out, seconds, (before + after) / 2))
        before = after
    return runs


def wall(runs: list[TaskRun]) -> float:
    return sum(r.seconds for r in runs)


def median_wall(passes: list[list[TaskRun]], indices=None) -> float:
    """Sum over tasks (all, or those at ``indices``) of each task's median time.

    The host's speed drifts by tens of percent within seconds; a per-task
    median drops a task's slow spells without needing whole slow passes.
    """
    if indices is None:
        indices = range(len(passes[0]))
    return sum(statistics.median(runs[i].scaled for runs in passes) for i in indices)


def tables_of(run: TaskRun) -> int:
    if run.task.tables == "one":
        return 1
    if run.task.tables == "checked" and run.rc in (0, 2):
        try:
            return json.loads(run.out)["checked"]
        except (ValueError, KeyError):
            return 0
    return 0


def tables_per_s(passes: list[list[TaskRun]]) -> float:
    """Tables decided per second of the tasks that decide tables."""
    counts = [tables_of(r) for r in passes[0]]
    deciding = [i for i, count in enumerate(counts) if count]
    return sum(counts) / median_wall(passes, deciding)


def recheck_witness(cli, run: TaskRun) -> bool:
    """Feed a reported witness back through ``check --recheck-witness``.

    Output that holds no readable witness document counts as invalid.
    """
    name = run.task.name
    try:
        if run.task.recheck == COUNTEREXAMPLE:
            cx = json.loads(run.out)["counterexample"]
            scf = f"recheck_{name}_scf.json"
            with open(scf, "w", encoding="utf-8") as fh:
                json.dump(cx["scf"], fh)
            report_doc = {"reports": cx["reports"]}
        else:
            scf = run.task.recheck
            report_doc = json.loads(run.out)
        report = f"recheck_{name}_report.json"
        with open(report, "w", encoding="utf-8") as fh:
            json.dump(report_doc, fh)
        rc, out, _ = run_task(cli, ["check", scf, "--recheck-witness", report,
                                    "--output", "json"])
        return rc == 0 and json.loads(out).get("all_valid") is True
    except (ValueError, KeyError, TypeError):
        return False


class Verifier:
    """Decides which task runs failed; every run handed to it counts as attempted."""

    def __init__(self, cli, golden: dict[str, list]):
        self.cli = cli
        self.golden = golden
        self.valid: dict[tuple[str, str], bool] = {}  # (task, sha) -> witness ok
        self.attempted = 0
        self.failures: list[str] = []

    def recheck(self, runs: list[TaskRun], again: bool = False) -> None:
        """Re-validate the witnesses of these runs.

        Each distinct output is rechecked once, unless ``again``; a witness
        that ever fails to re-validate stays invalid.
        """
        for r in runs:
            key = (r.task.name, r.digest[1])
            if r.task.recheck and r.rc == 2 and (again or key not in self.valid):
                self.valid[key] = recheck_witness(self.cli, r) and self.valid.get(key, True)

    def check(self, runs: list[TaskRun], reference: list[TaskRun] | None = None,
              label: str = "") -> None:
        """Compare with golden output, and byte for byte with ``reference``."""
        self.recheck(runs)
        for i, r in enumerate(runs):
            self.attempted += 1
            problem = None
            if r.task.name not in self.golden:
                problem = "no golden output"
            elif r.digest != self.golden[r.task.name]:
                problem = f"output {r.digest} differs from golden {self.golden[r.task.name]}"
            elif reference is not None and (r.rc, r.out) != (reference[i].rc, reference[i].out):
                problem = "bytes differ from the reference pass"
            elif self.valid.get((r.task.name, r.digest[1])) is False:
                problem = "witness does not re-validate"
            if problem:
                self.failures.append(f"{label} {r.task.name} p={r.parallelism}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def probe_setup(workload: str, seed: int, work: str, smoke: bool) -> None:
    """Child process: time ``import prefrev`` plus writing the inputs."""
    before = reference_loop()
    t0 = time.perf_counter()
    import_cli()
    t1 = time.perf_counter()
    build(workload, variant_of(seed), work, smoke)
    t2 = time.perf_counter()
    scale = REFERENCE_S / ((before + reference_loop()) / 2)
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                      "setup_scaled_s": (t2 - t0) * scale}))


class Setup:
    """Set-up probes, each in a fresh interpreter, reported as medians.

    Each probe scales its set-up time as ``TaskRun.scaled`` does, by the
    reference loop timed just before and after it.

    The host's speed drifts for stretches of 5 to 30 s, so probes run back
    to back would all sample one stretch.  The measuring loops probe once
    before the first pass and once after every pass, spreading the probes
    over the run as the per-task medians of ``wall_s`` are.
    """

    def __init__(self, workload: str, seed: int, smoke: bool):
        mode = "smoke" if smoke else "full"
        self.work = os.path.join(WORK_ROOT, f"{workload}-{mode}-setup")
        self.cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
                    "--workload", workload, "--seed", str(seed), "--seconds", "0",
                    "--work", self.work] + (["--smoke"] if smoke else [])
        self.samples: list[dict] = []

    def probe(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def median(self, key: str) -> float:
        return statistics.median(s[key] for s in self.samples)


def load_golden(mode: str, workload: str, variant: int) -> dict[str, list]:
    try:
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return data["outputs"][mode][workload][str(variant)]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no golden output for {mode}/{workload}/{variant}: {exc}")


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def load_metric_units() -> dict[int, dict[str, str]]:
    """Metric names and units from BENCHMARK.json, keyed by ``--trace``."""
    spec = load_spec()
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def git_commit() -> str | None:
    """The checkout's commit; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, variant: int, sizes: dict) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workers_per_pass": [1, 2] if args.workload in PARALLEL_WORKLOADS else [1],
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "smoke": args.smoke,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "sizes": sizes,
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def fits(t_begin: float, seconds: float, estimate: float) -> bool:
    """Whether a step expected to take ``estimate`` seconds still ends in time."""
    return time.perf_counter() - t_begin + estimate <= seconds


def measure_plain(cli, tasks, seconds, parallel, verifier, setup) -> tuple[dict, dict]:
    """Alternate sequential and ``--parallelism 2`` passes while they fit.

    The first pass of each kind always runs.  Without a parallel pass,
    ``wall_par_s`` repeats the sequential time.
    """
    kinds = (1, 2) if parallel else (1,)
    passes: dict[int, list[list[TaskRun]]] = {p: [] for p in kinds}
    t_begin = time.perf_counter()
    setup.probe()
    for i in itertools.count():
        p = kinds[i % len(kinds)]
        if i >= len(kinds) and not fits(
                t_begin, seconds, statistics.mean(map(wall, passes[p]))):
            break
        passes[p].append(run_pass(cli, tasks, p))
        setup.probe()
    for seq in passes[1]:
        verifier.check(seq, label="p1")
    for seq, par in zip(passes[1], passes.get(2, [])):
        verifier.check(par, reference=seq, label="p2")
    metrics = {
        "setup_s": setup.median("setup_scaled_s"),
        "wall_s": median_wall(passes[1]),
        "wall_par_s": median_wall(passes[kinds[-1]]),
        "tables_per_s": tables_per_s(passes[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (verifier.attempted - verifier.failed) / verifier.attempted,
    }
    timings = {f"p{p}": [{r.task.name: [r.seconds, r.reference] for r in runs}
                         for runs in passes[p]]
               for p in kinds}
    return metrics, {"passes": timings, "setup_probes": setup.samples}


def measure_traced(cli, tasks, seconds, parallel, verifier, setup,
                   spans_path) -> tuple[dict, dict]:
    tracer = Tracer()
    reps: list[dict] = []
    timings = []
    t_begin = time.perf_counter()
    setup.probe()
    while True:
        # The untraced pass runs before the traced ones in even rounds and
        # after them in odd rounds, so a pass-order effect does not bias
        # the overhead.
        untraced_first = len(reps) % 2 == 0
        if untraced_first:
            base = run_pass(cli, tasks, 1)
        tracer.install()
        try:
            seq = run_pass(cli, tasks, 1)
            verifier.recheck(seq, again=True)  # traced: re-validation is prefrev work
            seq_spans = tracer.take()
            par = run_pass(cli, tasks, 2) if parallel else []
            par_spans = tracer.take()
        finally:
            tracer.uninstall()
        if not untraced_first:
            base = run_pass(cli, tasks, 1)
        verifier.check(base, label="untraced p1")
        verifier.check(seq, reference=base, label="traced p1")
        if parallel:
            verifier.check(par, reference=base, label="traced p2")
        values = layer_metrics(summarize(seq_spans, tracer.names),
                               summarize(par_spans, tracer.names))
        values["cli.stdout_bytes"] = sum(len(r.out.encode("utf-8")) for r in seq)
        values["trace.spans"] = sum(len(b.codes) for b in seq_spans + par_spans)
        values["trace.overhead_s"] = wall(seq) - wall(base)
        reps.append(values)
        timings.append({"untraced_p1": wall(base), "traced_p1": wall(seq),
                        "traced_p2": wall(par)})
        setup.probe()
        elapsed = time.perf_counter() - t_begin
        if not fits(t_begin, seconds, elapsed / len(reps)):
            break
    write_spans(spans_path, {"traced_p1": seq_spans, "traced_p2": par_spans},
                tracer.names)
    metrics = {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}
    metrics["cli.import_s"] = setup.median("import_s")
    return metrics, {"rounds": timings, "spans_file": os.path.relpath(spans_path, ROOT)}


def run(args) -> dict:
    cli = import_cli()
    units = load_metric_units()[args.trace]
    mode = "smoke" if args.smoke else "full"
    variant = variant_of(args.seed)
    golden = load_golden(mode, args.workload, variant)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{mode}")
    shutil.rmtree(work, ignore_errors=True)
    setup = Setup(args.workload, args.seed, args.smoke)
    tasks, sizes = build(args.workload, variant, work, args.smoke)
    verifier = Verifier(cli, golden)
    parallel = args.workload in PARALLEL_WORKLOADS
    os.chdir(work)
    try:
        if args.trace:
            spans = os.path.join(WORK_ROOT, f"spans_{args.workload}_{mode}.tsv")
            values, detail = measure_traced(cli, tasks, args.seconds, parallel, verifier,
                                            setup, spans)
        else:
            values, detail = measure_plain(cli, tasks, args.seconds, parallel, verifier,
                                           setup)
    finally:
        os.chdir(ROOT)
    if set(values) != set(units):
        raise BenchError(f"measured metrics {sorted(set(values) ^ set(units))} are "
                         "not the ones BENCHMARK.json lists, or the reverse")
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {"provenance": provenance(args, variant, sizes), "result": result,
              "failures": verifier.failures, **detail}
    path = os.path.join(
        WORK_ROOT, f"BENCH_{args.workload}_{mode}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for failure in verifier.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, for a quick self-check (see smoke.py)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_setup:
            probe_setup(args.workload, args.seed, args.work, args.smoke)
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
