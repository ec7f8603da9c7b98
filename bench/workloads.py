"""Seeded inputs and task lists for the benchmark workloads.

Nothing here imports ``prefrev``: the inputs are plain SCF, domain and
profile files written from the benchmark's own order generator, so the
program under test sees only files, exactly as a CLI user would.

A task is one README CLI command.  Its argv names files relative to the
work directory, which is also the benchmark's working directory while tasks
run, so the paths echoed in the JSON reports are the same on every machine.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("check", "universe", "society")

#: Workloads whose task list runs a second time at ``--parallelism 2``.  The
#: universe suites call the checkers from worker threads, where two threads
#: can build one domain's numpy context at once and crash (see NOTES.md);
#: society's commands barely use workers.  Both run sequentially only.
PARALLEL_WORKLOADS = ("check",)

#: Seeds are folded onto this many input variants; golden outputs exist for
#: each (see ``golden.json``), so any ``--seed`` maps to recorded answers.
VARIANTS = 16

LETTERS = "abcdefghijklmnopqrstuvwxyz"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class Task:
    """One CLI invocation.

    ``recheck`` says where a witness found by the task is re-validated: an
    SCF file name, or ``COUNTEREXAMPLE`` for the SCF a verdict embeds.
    ``tables`` says how many SCF tables the task decides for
    ``tables_per_s``: "one", "none" or "checked" (the verdict's ``checked``).
    """

    name: str
    argv: tuple[str, ...]
    recheck: str | None = None
    tables: str = "one"


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# Orders, written in the CLI's ``a~b>c`` notation
# ---------------------------------------------------------------------------


def weak_rank_vectors(k: int) -> list[tuple[int, ...]]:
    """All weak orders on k alternatives as contiguous rank vectors, sorted."""
    out = []
    for vec in itertools.product(range(k), repeat=k):
        if set(vec) == set(range(max(vec) + 1)):
            out.append(vec)
    return out


def fubini(k: int) -> int:
    """Number of weak orders on k alternatives (ordered set partitions)."""
    counts = [1]
    for n in range(1, k + 1):
        counts.append(sum(math.comb(n, i) * counts[n - i] for i in range(1, n + 1)))
    return counts[k]


def notation(ranks, names) -> str:
    levels = [[] for _ in range(max(ranks) + 1)]
    for x, r in enumerate(ranks):
        levels[r].append(names[x])
    return ">".join("~".join(level) for level in levels)


def two_top_orders(k: int) -> list[tuple[int, ...]]:
    """a > b > rest for every ordered pair: adding these makes any set complete."""
    out = []
    for a in range(k):
        for b in range(k):
            if a != b:
                ranks = [2] * k
                ranks[a], ranks[b] = 0, 1
                out.append(tuple(ranks))
    return out


def single_peaked_strict(rng: random.Random, k: int) -> tuple[int, ...]:
    """A random strict order single-peaked on the axis 0..k-1."""
    left = right = rng.randrange(k)
    ranks = [0] * k
    for rank in range(1, k):
        if left > 0 and (right == k - 1 or rng.random() < 0.5):
            left -= 1
            ranks[left] = rank
        else:
            right += 1
            ranks[right] = rank
    return tuple(ranks)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _scf_doc(names, voters, preset, rule, params) -> str:
    doc = {
        "alternatives": list(names),
        "voters": voters,
        "domain": {"voters": [{"preset": preset}] * voters},
        "rule": {"name": rule, "params": params},
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _check(rng: random.Random, work: str, smoke: bool):
    def tiebreak(k):
        order = list(LETTERS[:k])
        rng.shuffle(order)
        return order

    # (file, k, voters, preset, rule, seeded dictator voter?, --properties)
    specs = [
        ("dict_w3.json", 3, 3, "@universal-weak", "dictator-tiebreak", True, None),
        ("dict_w4.json", 4, 2, "@universal-weak", "dictator-tiebreak", True,
         "isp,pr,apr,dictator"),
        ("plur_w3.json", 3, 4, "@universal-weak", "plurality-tiebreak", False,
         "isp,pr,apr,dictator"),
        ("paper_w4.json", 4, 2, "@universal-weak", "paper-example", False, None),
        ("dict_sp5.json", 5, 2, "@single-peaked", "dictator-tiebreak", True, None),
    ]
    if smoke:
        specs = [
            ("dict_w3.json", 3, 2, "@universal-weak", "dictator-tiebreak", True, None),
            ("plur_w3.json", 3, 2, "@universal-weak", "plurality-tiebreak", False, None),
            ("paper_w3.json", 3, 2, "@universal-weak", "paper-example", False, None),
        ]
    tasks, profiles = [], 0
    for fname, k, n, preset, rule, has_voter, props in specs:
        params = {}
        if rule != "paper-example":
            params["tiebreak"] = tiebreak(k)
        if has_voter:
            params["voter"] = rng.randint(1, n)
        _write(os.path.join(work, fname), _scf_doc(LETTERS[:k], n, preset, rule, params))
        argv = ("check", fname) + (("--properties", props) if props else ())
        tasks.append(Task(fname[:-5], argv, recheck=fname))
        size = 29 if preset == "@single-peaked" else fubini(k)
        profiles += size ** n
    return tasks, {"scfs": len(specs), "profiles": profiles}


def _universe(rng: random.Random, work: str, smoke: bool):
    per_voter = "2" if smoke else "3"
    grid = ("--voters", "2", "--orders-per-voter", per_voter, "--k", "3")
    tasks = [
        Task(name, ("verify", name) + grid, tables="checked")
        for name in ("prop-apr-gsp", "thm-range3", "summary-equivalence")
    ]
    # isp-not-pr stops at its first counterexample, which the seeded sample
    # meets after 672 to 20,000 tables depending on the variant; counting
    # them would make tables_per_s follow the seed instead of the code.
    budget = "2000" if smoke else "20000"
    search_seed = str(rng.randrange(1_000_000))
    tasks.append(Task(
        "isp-not-pr",
        ("verify", "isp-not-pr", "--voters", "2", "--k", "4",
         "--orders", "a~b>c~d;d>c>a~b;b~c>a~d", "--budget", budget,
         "--seed", search_seed),
        recheck=COUNTEREXAMPLE, tables="none",
    ))
    tables = 3 * 3 ** (int(per_voter) ** 2)
    return tasks, {"tables": tables, "search_budget": int(budget)}


def _society(rng: random.Random, work: str, smoke: bool):
    k = 4 if smoke else 5
    names = LETTERS[:k]
    weak = weak_rank_vectors(k)
    pairs = set(two_top_orders(k))
    rest = [v for v in weak if v not in pairs]

    _write(os.path.join(work, "presets.domain"),
           f"alternatives: {','.join(names)}\n"
           "voter 1: @universal-strict\nvoter 2: @single-peaked\n")
    # Random orders plus every two-top order: complete by construction.
    n_complete, n_gap = (40, 12) if smoke else (240, 60)
    complete = sorted(rng.sample(rest, n_complete) + sorted(pairs))
    gappy = sorted(rng.sample(rest, n_gap))
    for fname, orders in (("complete.domain", complete), ("gap.domain", gappy)):
        body = "\n".join(notation(o, names) for o in orders)
        _write(os.path.join(work, fname),
               f"alternatives: {','.join(names)}\nvoter 1:\n{body}\n")

    voters = 100 if smoke else 1000
    numbered = [str(i + 1) for i in range(k)]
    _write(os.path.join(work, "median.json"),
           _scf_doc(numbered, voters, "@single-peaked-strict", "median-peaks",
                    {"axis": numbered}))
    classes = rng.randint(3, 6)
    cuts = sorted(rng.sample(range(1, voters), classes - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [voters])]
    for side in ("p", "q"):
        lines = [f"{c} x {notation(single_peaked_strict(rng, k), numbered)}"
                 for c in counts]
        _write(os.path.join(work, f"{side}.profile"),
               f"alternatives: {','.join(numbered)}\n" + "\n".join(lines) + "\n")

    samples = "100" if smoke else "1000"
    enum_k = "5" if smoke else "7"
    tasks = [
        Task("presets", ("domain-complete", "presets.domain"), tables="none"),
        Task("complete", ("domain-complete", "complete.domain"), tables="none"),
        Task("gap", ("domain-complete", "gap.domain"), tables="none"),
        Task("quotient", ("quotient", "--scf", "median.json", "--profile-p", "p.profile",
                          "--profile-q", "q.profile", "--samples", samples,
                          "--seed", str(rng.randrange(1_000_000)))),
        Task("thm-complete", ("verify", "thm-complete", "--rule", "median-peaks",
                              "--feasible", "@single-peaked-strict", "--k", str(k),
                              "--voters", "2" if smoke else "3")),
        Task("orders", ("orders", "--k", enum_k, "--kind", "weak"), tables="none"),
    ]
    sizes = {
        "complete_domain_orders": len(complete),
        "gap_domain_orders": len(gappy),
        "society_voters": voters,
        "enumerated_orders": fubini(int(enum_k)),
    }
    return tasks, sizes


_BUILDERS = {"check": _check, "universe": _universe, "society": _society}


def build(workload: str, variant: int, work: str, smoke: bool = False):
    """Write the inputs of one workload variant into ``work``.

    Returns ``(tasks, sizes)``: the task list of one pass, and the input
    sizes recorded as provenance.
    """
    rng = random.Random(f"{workload}:{variant}:{'smoke' if smoke else 'full'}")
    os.makedirs(work, exist_ok=True)
    return _BUILDERS[workload](rng, work, smoke)


def argv_for(task: Task, parallelism: int) -> list[str]:
    return [*task.argv, "--output", "json", "--parallelism", str(parallelism)]
