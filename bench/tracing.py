"""Out-of-program tracing: spans around prefrev's public functions.

The library has no tracing of its own, so the benchmark rebinds each listed
function, in every ``prefrev.*`` module (and module-level dict, such as
``CHECKERS``) that holds it, to a wrapper recording a span.  Calls between
modules are therefore caught: ``prefrev.properties.tabulate`` and
``prefrev.scf.tabulate`` are both rebound.

A span is (name, start, end, parent) plus a work count read from the
return value.  Parents are tracked per thread; a worker thread's spans are
roots.  Spans are kept in per-thread arrays and written out at the end.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable


def _checked(report) -> int:
    if isinstance(report, dict):  # check_pr_apr: one scan serves both
        return max(r.checked for r in report.values())
    return report.checked


def _failing(report) -> int:
    reports = report.values() if isinstance(report, dict) else (report,)
    return sum(1 for r in reports if not r.holds)


def _profiles_tabulated(result, args) -> int:
    scf = args[0]
    return scf.domain.profile_count() if scf.rule is not None else 0


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr`` (``Class.method`` for classmethods)."""

    module: str
    attr: str
    metric: str
    work: Callable[[Any, tuple], float] | None = None
    generator: bool = False


CHECKERS = ("check_isp", "check_gsp", "check_pr", "check_apr", "check_pr_apr",
            "check_dictator")
SUITES = ("verify_prop_apr_gsp", "verify_thm_range3", "verify_summary_equivalence",
          "search_isp_not_pr")

TARGETS = (
    Target("prefrev.orders", "parse_order", "orders.parse_order"),
    Target("prefrev.orders", "format_order", "orders.format_order"),
    *(Target("prefrev.orders", name, "orders.enumerate", generator=True)
      for name in ("enumerate_weak_orders", "enumerate_strict_orders",
                   "enumerate_single_peaked")),
    Target("prefrev.domains", "is_complete", "domains.is_complete",
           work=lambda r, a: r.checked),
    Target("prefrev.domains", "parse_domain_file", "domains.parse_domain_file"),
    *(Target("prefrev.domains", f"FeasibleSet.{name}", "domains.preset")
      for name in ("universal_weak", "universal_strict", "single_peaked")),
    Target("prefrev.scf", "tabulate", "scf.tabulate", work=_profiles_tabulated),
    Target("prefrev.scf", "evaluate", "scf.evaluate"),
    Target("prefrev.scf", "range_of", "scf.range_of"),
    Target("prefrev.scf", "Scf.from_table", "scf.Scf.from_table"),
    Target("prefrev.scf", "load_scf", "scf.load_scf"),
    *(Target("prefrev.properties", name, f"properties.{name}",
             work=lambda r, a: _checked(r)) for name in CHECKERS),
    Target("prefrev.properties", "report_to_dict", "properties.report_to_dict",
           work=lambda r, a: 0 if a[0].holds else 1),
    Target("prefrev.properties", "revalidate_witness", "properties.revalidate_witness"),
    Target("prefrev.harness", "verify_prop_apr_gsp", "harness.verify_prop_apr_gsp",
           work=lambda r, a: r.checked),
    Target("prefrev.harness", "verify_thm_range3", "harness.verify_thm_range3",
           work=lambda r, a: r.checked),
    Target("prefrev.harness", "verify_summary_equivalence",
           "harness.verify_summary_equivalence", work=lambda r, a: r.checked),
    Target("prefrev.harness", "search_isp_not_pr", "harness.search_isp_not_pr",
           work=lambda r, a: r.details.get("tables_examined", 0)),
    Target("prefrev.harness", "quotient_reduce", "harness.quotient_reduce"),
    Target("prefrev.harness", "verify_thm_complete", "harness.verify_thm_complete"),
    Target("prefrev.cli", "main", "cli.main"),
)


class _Buffer:
    """One thread's spans, as parallel arrays (index = span id in this thread)."""

    def __init__(self, thread: str):
        self.thread = thread
        self.codes = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.works = array("d")
        self.nested = array("b")  # an ancestor span has the same name
        self.stack: list[int] = []
        self.depth: dict[int, int] = {}
        self.failing = 0  # failing property reports the checkers returned


class Tracer:
    def __init__(self):
        self.names = sorted({t.metric for t in TARGETS})
        self._codes = {name: i for i, name in enumerate(self.names)}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer(threading.current_thread().name)
            self._local.buf = buf
            self._buffers.append(buf)
            return buf

    def _open(self, code: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.codes)
        buf.codes.append(code)
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        depth = buf.depth.get(code, 0)
        buf.nested.append(1 if depth else 0)
        buf.depth[code] = depth + 1
        buf.stack.append(idx)
        buf.ends.append(0.0)
        buf.works.append(0.0)
        buf.starts.append(time.perf_counter())
        return buf, idx

    @staticmethod
    def _close(buf: _Buffer, idx: int, code: int, work: float) -> None:
        buf.ends[idx] = time.perf_counter()
        buf.works[idx] = work
        buf.stack.pop()
        buf.depth[code] -= 1

    def _wrap(self, fn, target: Target):
        code = self._codes[target.metric]
        work_of = target.work
        tracer = self

        if target.generator:
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    buf, idx = tracer._open(code)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(buf, idx, code, 0)
                        return
                    except BaseException:
                        tracer._close(buf, idx, code, 0)
                        raise
                    tracer._close(buf, idx, code, 1)
                    yield item
            return traced_gen

        is_checker = target.metric.startswith("properties.check_")

        def traced(*args, **kwargs):
            buf, idx = tracer._open(code)
            work = 0
            try:
                result = fn(*args, **kwargs)
                if work_of is not None:
                    work = work_of(result, args)
                if is_checker:
                    buf.failing += _failing(result)
                return result
            finally:
                tracer._close(buf, idx, code, work)

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every target wherever a ``prefrev`` module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "prefrev" or name.startswith("prefrev."))]
        for target in TARGETS:
            owner = sys.modules[target.module]
            if "." in target.attr:  # classmethod on a class
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(original.__func__, target))
                self._set(cls, meth, wrapped)
                continue
            original = getattr(owner, target.attr)
            wrapped = self._wrap(original, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._restore.append((value, dkey, original))
                                value[dkey] = wrapped

    def _set(self, owner, key, value) -> None:
        original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        self._restore.append((owner, key, original))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def take(self) -> list[_Buffer]:
        """Hand over the spans recorded so far and start afresh."""
        buffers, self._buffers = self._buffers, []
        self._local = threading.local()
        return buffers


def summarize(buffers: list[_Buffer], names: list[str]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy time, self time and work.

    ``busy`` sums outermost spans only (a span inside one of the same name
    adds nothing); ``self`` is a span's duration minus its child spans'.
    A suite's ``checker_calls`` counts checker spans whose nearest suite
    ancestor is a span of that suite.  ``failing`` (under the key "") is the
    number of failing reports the checkers returned.
    """
    stats = {name: {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0.0,
                    "checker_calls": 0} for name in names}
    checker_codes = {i for i, n in enumerate(names) if n.startswith("properties.check_")}
    suite_codes = {i for i, n in enumerate(names) if n.split(".")[-1] in SUITES}
    failing = 0
    for buf in buffers:
        codes, starts, ends, parents = buf.codes, buf.starts, buf.ends, buf.parents
        failing += buf.failing
        child_time = [0.0] * len(codes)
        for idx, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += ends[idx] - starts[idx]
        for idx, code in enumerate(codes):
            entry = stats[names[code]]
            dur = ends[idx] - starts[idx]
            entry["calls"] += 1
            entry["self"] += dur - child_time[idx]
            entry["work"] += buf.works[idx]
            if not buf.nested[idx]:
                entry["busy"] += dur
            if code in checker_codes:
                parent = parents[idx]
                while parent >= 0 and codes[parent] not in suite_codes:
                    parent = parents[parent]
                if parent >= 0:
                    stats[names[codes[parent]]]["checker_calls"] += 1
    stats[""] = {"failing": failing}
    return stats


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(seq: dict, par: dict) -> dict[str, float]:
    """Per-layer values from the traced sequential pass and the traced p=2 pass.

    Together with the caller's entries these are the ``per_layer`` metrics
    of BENCHMARK.json, which ``run.py`` checks.  The ``cli.stdout_bytes``,
    ``cli.import_s`` and ``trace.*`` entries are measured by the caller and
    are not filled in here.
    """
    out: dict[str, float] = {}
    for name in ("orders.parse_order", "orders.format_order", "domains.is_complete",
                 "scf.tabulate", "scf.evaluate", "scf.Scf.from_table",
                 "properties.report_to_dict", "properties.revalidate_witness",
                 "cli.main"):
        out[f"{name}.calls"] = seq[name]["calls"]
    for name in ("orders.parse_order", "orders.format_order", "orders.enumerate",
                 "domains.is_complete", "domains.parse_domain_file", "scf.tabulate",
                 "scf.evaluate", "scf.range_of", "scf.Scf.from_table", "scf.load_scf",
                 "properties.report_to_dict", "properties.revalidate_witness",
                 "harness.quotient_reduce", "harness.verify_thm_complete"):
        out[f"{name}.busy_s"] = seq[name]["busy"]
    out["orders.enumerate.orders"] = seq["orders.enumerate"]["work"]
    complete = seq["domains.is_complete"]
    out["domains.is_complete.checks"] = complete["work"]
    out["domains.is_complete.checks_per_s"] = _rate(complete["work"], complete["busy"])
    out["domains.preset_builds"] = seq["domains.preset"]["calls"]
    tab = seq["scf.tabulate"]
    out["scf.tabulate.profiles_per_s"] = _rate(tab["work"], tab["busy"])
    for name in CHECKERS:
        entry = seq[f"properties.{name}"]
        out[f"properties.{name}.calls"] = entry["calls"]
        out[f"properties.{name}.busy_s"] = entry["busy"]
        out[f"properties.{name}.cases"] = entry["work"]
        out[f"properties.{name}.cases_per_s"] = _rate(entry["work"], entry["busy"])
        out[f"properties.{name}.busy_par_s"] = par[f"properties.{name}"]["busy"]
    failing = seq[""]["failing"]
    serialized = seq["properties.report_to_dict"]["work"]
    out["properties.failing_reports"] = failing
    out["properties.witness_use_ratio"] = serialized / failing if failing else 0.0
    for name in SUITES:
        entry = seq[f"harness.{name}"]
        tables = entry["work"]
        out[f"harness.{name}.busy_s"] = entry["busy"]
        out[f"harness.{name}.self_s"] = entry["self"]
        out[f"harness.{name}.us_per_table"] = entry["busy"] / tables * 1e6 if tables else 0.0
        out[f"harness.{name}.checker_calls_per_table"] = (
            entry["checker_calls"] / tables if tables else 0.0)
    out["harness.quotient_reduce.self_s"] = seq["harness.quotient_reduce"]["self"]
    out["cli.main.self_s"] = seq["cli.main"]["self"]
    return out


def write_spans(path: str, phases: dict[str, list[_Buffer]], names: list[str]) -> int:
    """Write every span as one tab-separated line; returns the span count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phase\tthread\tid\tparent\tname\tstart_s\tend_s\twork\n")
        for phase, buffers in phases.items():
            for buf in buffers:
                for idx, code in enumerate(buf.codes):
                    fh.write(f"{phase}\t{buf.thread}\t{idx}\t{buf.parents[idx]}\t"
                             f"{names[code]}\t{buf.starts[idx]:.9f}\t"
                             f"{buf.ends[idx]:.9f}\t{buf.works[idx]:g}\n")
                count += len(buf.codes)
    return count
