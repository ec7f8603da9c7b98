"""Exhaustive and randomized verification of the equivalence theorems.

The suites enumerate every table over a small profile space and compare the
property checkers against each other:

* ``prop-apr-gsp``: the almost-preference-reversal checker and the group
  manipulation search agree on every table.
* ``thm-range3``: with at most three values in the target range, every
  individually strategy-proof table satisfies preference reversal, and the
  ISP and GSP table counts coincide.
* ``summary-equivalence``: the implication chain
  {PR} <= {APR} = {GSP} <= {ISP} as sets, with all four equal whenever the
  range-at-most-3 or complete-domain hypothesis applies.
* ``thm-complete``: specimen verification (complete feasible sets + ISP
  imply PR); the table universe over a complete domain is far too large to
  enumerate, so named rules are checked exhaustively instead.
* ``isp-not-pr``: bounded search for an ISP table violating PR on domains
  where neither theorem forbids one; it never claims non-existence beyond
  the searched space.

Each universe suite is a list of relations between property classes,
``(a, "<=", b)`` (every table with a has b) or ``(a, "==", b)``, in the
order it reports them, checked by one walk (``_walk``).  The walk takes the
table universe in uint8 blocks of rows, in canonical order (base-|target|
numerals, profile 0 most significant) up to the universe size or the spec's
limit, and decides each block at once with the numpy verdict kernel
``properties.table_verdicts``, which builds no witness.  ``prop-apr-gsp``
and ``isp-not-pr`` stop at the first table that breaks a relation, and
``checked`` is its 1-based table number.  ``thm-range3`` and
``summary-equivalence`` visit every table, sum the verdicts and keep the
first such table.  Only that one table becomes an :class:`Scf`: the full
checker of every property the relations name runs on it, a verdict that
differs from the kernel's is a ``RuntimeError``, and the reports of the
first relation it breaks are the counterexample.  The walk is serial, and
every suite's ``parallelism`` keyword is accepted and has no effect.

The quotient reduction simulates the infinite-society argument on large
replicated finite societies: voters are collapsed into classes by their
(P, Q) report pair, the collapsed function is built by cloning class
representatives, and a preference-reversal witness found at class level is
lifted back to a concrete voter.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .errors import ArgumentError, ResourceGuardError
from .orders import WeakOrder, format_order
from .domains import (
    COMPLETENESS_GUARD,
    DEFAULT_PROFILE_GUARD,
    Domain,
    FeasibleSet,
    is_complete,
)
from .scf import (
    _EVAL_CELLS,
    Profile,
    Scf,
    cloned_rule,
    evaluate,
    range_of,
    rule_kernel,
    scf_to_dict,
    tabulate,
)
from .properties import (
    CHECKERS,
    PropertyReport,
    check_isp,
    check_pr,
    report_to_dict,
    revalidate_witness,
    run_checkers,
    table_verdicts,
)

#: Ceiling on full table-universe enumerations (|target| ** |profiles|).
DEFAULT_TABLE_GUARD = 100_000_000

#: Verdict blocks hold about this many (table, voter, P, Q) cells.  Larger
#: blocks raised peak memory and were no faster on 9-profile tables.
_TABLE_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class EnumerationSpec:
    """A table universe: domain, target range, optional filters and cap."""

    domain: Domain
    target: tuple[int, ...]
    filters: tuple[str, ...] = ()
    limit: int | None = None

    def __post_init__(self):
        target = tuple(sorted(set(int(x) for x in self.target)))
        object.__setattr__(self, "target", target)
        if not target:
            raise ArgumentError("target range must be non-empty")
        if target[0] < 0 or target[-1] >= self.domain.k:
            raise ArgumentError("target range outside the alternative set")
        for prop in self.filters:
            if prop not in CHECKERS:
                raise ArgumentError(f"unknown filter property {prop!r}")
        if self.limit is not None and self.limit < 0:
            raise ArgumentError(f"table limit {self.limit} is negative")

    def describe(self) -> str:
        sizes = ",".join(str(len(fs)) for fs in self.domain.feasible)
        names = ",".join(self.domain.alts.names[x] for x in self.target)
        return (
            f"{self.domain.n} voters; orders per voter [{sizes}]; "
            f"k={self.domain.k}; target {{{names}}}"
        )


def _universe_size(spec: EnumerationSpec, cap: int) -> int | None:
    """|target| ** |profiles| when it fits under ``cap``, else None."""
    count = spec.domain.profile_count()
    size = 1
    for _ in range(count):
        size *= len(spec.target)
        if size > cap:
            return None
    return size


def _block_size(domain: Domain) -> int:
    """Tables per verdict block: about ``_TABLE_BLOCK_CELLS`` cells.

    A table larger than that is a block of its own, and ``table_verdicts``
    splits it into row blocks as the checkers do.
    """
    count = domain.profile_count()
    return max(1, _TABLE_BLOCK_CELLS // (domain.n * count * count))


def _table_blocks(
    spec: EnumerationSpec, total: int, rng: random.Random | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """``total`` tables as ``(first table number, uint8 rows)`` blocks.

    Table t is t written in base |target| with profile 0 the most
    significant digit, so the walk order is the canonical order every suite
    reports its first counterexample in.  Digits are peeled off the table
    numbers, never off |target| ** count, so a limit into a universe past
    the int64 range still works.  With ``rng`` the tables are drawn from it
    instead, one profile after another.
    """
    count = spec.domain.profile_count()
    radix = len(spec.target)
    target = np.array(spec.target, dtype=np.uint8)
    step = _block_size(spec.domain)
    for lo in range(0, total, step):
        rows = min(step, total - lo)
        if rng is not None:
            draws = [rng.randrange(radix) for _ in range(rows * count)]
            yield lo, target[np.array(draws, dtype=np.intp).reshape(rows, count)]
            continue
        numbers = np.arange(lo, lo + rows, dtype=np.int64)
        digits = np.empty((rows, count), dtype=np.intp)
        for p in range(count - 1, -1, -1):
            digits[:, p] = numbers % radix
            numbers //= radix
        yield lo, target[digits]


#: Where a relation between two verdict arrays is broken.
_BREAKS = {"<=": lambda a, b: a & ~b, "==": np.not_equal}


def _walk(spec, blocks, relations, counts=None):
    """The first table in ``blocks`` that breaks one of ``relations``.

    Each relation is ``(a, "<=", b)`` or ``(a, "==", b)`` over property
    names.  With ``counts``, every block is walked and the tables where each
    named property holds are added up in it; otherwise the walk stops at the
    first breaking table.  The full checkers of every named property run on
    that table, and any verdict that differs from the kernel's is a
    RuntimeError.  Returns ``(its 1-based table number, (its Scf, the
    reports of a and b))`` for the first relation it breaks, or None.
    """
    props = tuple(dict.fromkeys(p for a, _, b in relations for p in (a, b)))
    first = None
    for lo, rows in blocks:
        verdicts = table_verdicts(spec.domain, rows, props)
        if counts is not None:
            for prop in props:
                counts[prop] += int(verdicts[prop].sum())
        if first is None:
            broken = [_BREAKS[op](verdicts[a], verdicts[b]) for a, op, b in relations]
            flagged = functools.reduce(np.logical_or, broken)
            if flagged.any():
                i = int(flagged.argmax())
                rel = next(r for r, mask in zip(relations, broken) if mask[i])
                first = lo + i, rows[i], rel, {p: verdicts[p][i] for p in props}
                if counts is None:
                    break
    if first is None:
        return None
    number, row, (a, _, b), verdicts = first
    scf = Scf.from_table(spec.domain, row)
    reports = run_checkers(scf, props)
    for prop in props:
        if reports[prop].holds != verdicts[prop]:
            raise RuntimeError(
                f"verdict kernel and checker disagree on {prop} for a table"
            )
    return number + 1, (scf, (reports[a], reports[b]))


def enumerate_scfs(
    spec: EnumerationSpec, max_tables: int = DEFAULT_TABLE_GUARD
) -> Iterator[Scf]:
    """All total tables into the target range, ascending as base-R numerals."""
    for _, rows in _table_blocks(spec, _require_universe(spec, max_tables)):
        if spec.filters:
            verdicts = table_verdicts(spec.domain, rows, spec.filters)
            rows = rows[np.logical_and.reduce([verdicts[p] for p in spec.filters])]
        for row in rows:
            yield Scf.from_table(spec.domain, row)


@dataclass
class TheoremVerdict:
    theorem: str
    universe: str
    checked: int
    holds: bool
    counterexample: tuple[Scf, tuple[PropertyReport, ...]] | None
    details: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    elapsed: float = 0.0


def verdict_to_dict(verdict: TheoremVerdict, include_timing: bool = False) -> dict:
    doc: dict[str, Any] = {
        "theorem": verdict.theorem,
        "universe": verdict.universe,
        "holds": verdict.holds,
        "checked": verdict.checked,
    }
    if verdict.seed is not None:
        doc["seed"] = verdict.seed
    doc["details"] = verdict.details
    if verdict.counterexample is not None:
        scf, reports = verdict.counterexample
        doc["counterexample"] = {
            "scf": scf_to_dict(scf),
            "reports": [report_to_dict(r, include_timing) for r in reports],
        }
    if include_timing:
        doc["elapsed_ms"] = round(verdict.elapsed * 1000.0, 3)
    return doc


# ---------------------------------------------------------------------------
# Universe scans
# ---------------------------------------------------------------------------


def _require_universe(spec: EnumerationSpec, max_tables: int) -> int:
    spec.domain.require_enumerable()
    size = _universe_size(spec, max_tables)
    if size is None:
        if spec.limit is None:
            raise ResourceGuardError(
                f"table universe exceeds {max_tables}; set a limit or shrink the spec"
            )
        return spec.limit
    return size if spec.limit is None else min(size, spec.limit)


def _all_complete(domain: Domain) -> bool:
    """Whether every feasible set is certified complete; a set whose check
    the completeness guard refuses is not certified."""
    try:
        return all(is_complete(fs).complete for fs in set(domain.feasible))
    except ResourceGuardError:
        return False


def verify_prop_apr_gsp(
    spec: EnumerationSpec,
    *,
    parallelism: int = 1,
    max_tables: int = DEFAULT_TABLE_GUARD,
) -> TheoremVerdict:
    """Group strategy-proofness coincides with almost preference reversal.

    ``parallelism`` is accepted and has no effect.
    """
    t0 = time.perf_counter()
    total = _require_universe(spec, max_tables)
    blocks, relations = _table_blocks(spec, total), [("gsp", "==", "apr")]
    checked, counterexample = _walk(spec, blocks, relations) or (total, None)
    return TheoremVerdict(
        theorem="prop-apr-gsp",
        universe=f"{spec.describe()}; {total} tables",
        checked=checked,
        holds=counterexample is None,
        counterexample=counterexample,
        details={"tables": total},
        elapsed=time.perf_counter() - t0,
    )


def verify_thm_range3(
    spec: EnumerationSpec,
    *,
    parallelism: int = 1,
    max_tables: int = DEFAULT_TABLE_GUARD,
) -> TheoremVerdict:
    """With |target| <= 3, ISP implies PR; corollary: #ISP equals #GSP.

    ``parallelism`` is accepted and has no effect.
    """
    if len(spec.target) > 3:
        raise ArgumentError("thm-range3 needs a target range of at most 3")
    t0 = time.perf_counter()
    total = _require_universe(spec, max_tables)
    counts = {"isp": 0, "pr": 0, "gsp": 0}
    relations = [("isp", "<=", "pr"), ("isp", "==", "gsp")]
    blocks = _table_blocks(spec, total)
    _, counterexample = _walk(spec, blocks, relations, counts) or (total, None)
    n_isp, n_gsp = counts["isp"], counts["gsp"]
    return TheoremVerdict(
        theorem="thm-range3",
        universe=f"{spec.describe()}; {total} tables",
        checked=total,
        holds=counterexample is None and n_isp == n_gsp,
        counterexample=counterexample,
        details={"tables": total, "isp_tables": n_isp, "gsp_tables": n_gsp},
        elapsed=time.perf_counter() - t0,
    )


def verify_summary_equivalence(
    spec: EnumerationSpec,
    *,
    parallelism: int = 1,
    max_tables: int = DEFAULT_TABLE_GUARD,
) -> TheoremVerdict:
    """The chain {PR} <= {APR} = {GSP} <= {ISP}, with equality under hypotheses.

    ``parallelism`` is accepted and has no effect.
    """
    t0 = time.perf_counter()
    total = _require_universe(spec, max_tables)
    all_complete = _all_complete(spec.domain)
    range_hypothesis = len(spec.target) <= 3
    relations = [("pr", "<=", "apr"), ("apr", "==", "gsp"), ("gsp", "<=", "isp")]
    if range_hypothesis or all_complete:
        relations.append(("isp", "<=", "pr"))
    counts = {"pr": 0, "apr": 0, "gsp": 0, "isp": 0}
    blocks = _table_blocks(spec, total)
    _, counterexample = _walk(spec, blocks, relations, counts) or (total, None)
    details = {
        "tables": total,
        "pr_tables": counts["pr"],
        "apr_tables": counts["apr"],
        "gsp_tables": counts["gsp"],
        "isp_tables": counts["isp"],
        "equality_hypothesis": (
            "range-le-3" if range_hypothesis
            else ("complete-domain" if all_complete else None)
        ),
    }
    return TheoremVerdict(
        theorem="summary-equivalence",
        universe=f"{spec.describe()}; {total} tables",
        checked=total,
        holds=counterexample is None,
        counterexample=counterexample,
        details=details,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Complete-domain theorem on specimens
# ---------------------------------------------------------------------------


def _describe_scf(scf: Scf) -> str:
    body = scf.rule.name if scf.rule is not None else "table"
    sizes = ",".join(str(len(fs)) for fs in scf.domain.feasible)
    return (
        f"{body} on {scf.domain.n} voters; orders per voter [{sizes}]; "
        f"k={scf.domain.k}"
    )


def verify_thm_complete(
    phi: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
    max_completeness_checks: int = COMPLETENESS_GUARD,
) -> TheoremVerdict:
    """Complete feasible sets + ISP imply PR, checked on one supplied scf.

    Inputs failing a hypothesis (an incomplete feasible set, or an scf that
    is not ISP) yield a vacuous verdict labeled inadmissible instead of a
    theorem failure.  ``parallelism`` is accepted and has no effect.
    """
    t0 = time.perf_counter()
    certificates = []
    admissible = True
    reason = None
    done: dict[FeasibleSet, bool] = {}
    for v, fs in enumerate(phi.domain.feasible):
        if fs in done:
            complete = done[fs]
        else:
            report = is_complete(fs, max_completeness_checks)
            complete = report.complete
            done[fs] = complete
            certificates.append(
                {
                    "orders": len(fs),
                    "complete": report.complete,
                    "checked": report.checked,
                }
            )
        if not complete:
            admissible = False
            reason = f"voter {v + 1}'s feasible set is not complete"
            break
    isp = None
    if admissible:
        table = tabulate(phi, max_profiles)
        isp = check_isp(table, max_profiles=max_profiles)
        if not isp.holds:
            admissible = False
            reason = "scf is not individually strategy-proof"
    if not admissible:
        return TheoremVerdict(
            theorem="thm-complete",
            universe=_describe_scf(phi),
            checked=0,
            holds=True,
            counterexample=None,
            details={
                "admissible": False,
                "reason": reason,
                "completeness": certificates,
            },
            elapsed=time.perf_counter() - t0,
        )
    pr = check_pr(table, max_profiles=max_profiles)
    count = phi.domain.profile_count()
    details = {
        "admissible": True,
        "completeness": certificates,
        "isp_checked": isp.checked,
        "pairs_scanned": pr.checked,
        "pairs_total": count * (count - 1),
    }
    return TheoremVerdict(
        theorem="thm-complete",
        universe=_describe_scf(phi),
        checked=pr.checked,
        holds=pr.holds,
        counterexample=None if pr.holds else (phi, (isp, pr)),
        details=details,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Bounded counterexample search (ISP without PR)
# ---------------------------------------------------------------------------


def search_isp_not_pr(
    spec: EnumerationSpec,
    budget: int,
    *,
    seed: int = 0,
    parallelism: int = 1,
) -> TheoremVerdict:
    """Look for an ISP table violating PR; report honestly about the scope.

    Immediately futile when the target range has at most three alternatives
    or every feasible set is complete, since the theorems then prove no such
    table exists.  Otherwise scans the whole universe if it fits the budget,
    or a seeded random sample of ``budget`` tables.  ``parallelism`` is
    accepted and has no effect.
    """
    if budget < 0:
        raise ArgumentError(f"table budget {budget} is negative")
    t0 = time.perf_counter()
    universe = f"{spec.describe()}; budget {budget}"
    if len(spec.target) <= 3:
        return TheoremVerdict(
            "isp-not-pr", universe, 0, True, None,
            {"reason": "provably futile: target range has at most 3 alternatives"},
            seed, time.perf_counter() - t0,
        )
    if _all_complete(spec.domain):
        return TheoremVerdict(
            "isp-not-pr", universe, 0, True, None,
            {"reason": "provably futile: every feasible set is complete"},
            seed, time.perf_counter() - t0,
        )
    spec.domain.require_enumerable()
    size = _universe_size(spec, budget)
    if size is not None and size <= budget:
        total, blocks = size, _table_blocks(spec, size)
        scope = "exhausted-universe"
    else:
        total, blocks = budget, _table_blocks(spec, budget, random.Random(seed))
        scope = "budget-exhausted"
    relations = [("isp", "<=", "pr")]
    checked, counterexample = _walk(spec, blocks, relations) or (total, None)
    if counterexample is not None:
        scf, (_, pr) = counterexample
        if not revalidate_witness(scf, "pr", pr.witness):
            raise RuntimeError("search produced a witness that fails revalidation")
    details = {"scope": scope, "tables_examined": checked}
    return TheoremVerdict(
        "isp-not-pr", universe, checked, counterexample is None, counterexample,
        details, seed, time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Quotient reduction (infinite societies, simulated by replication)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientClass:
    rep_p: WeakOrder
    rep_q: WeakOrder
    voters: tuple[int, ...]


@dataclass
class QuotientResult:
    classes: tuple[QuotientClass, ...]
    alpha: int
    case: str  # "shared" | "pairs"
    quotient_scf: Scf
    quotient_p: Profile
    quotient_q: Profile
    outcome_p: int
    outcome_q: int
    hypothesis: dict[str, Any]
    witness_class: int | None
    witness_lift: tuple[int, int] | None
    lift_valid: bool | None
    samples_checked: int
    samples_agreed: int
    seed: int


def quotient_reduce(
    phi: Scf,
    p_profile: Profile,
    q_profile: Profile,
    *,
    mode: str = "auto",
    samples: int = 100,
    seed: int = 0,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> QuotientResult:
    """Collapse voters with identical (P_v, Q_v) pairs into a small society.

    The collapsed function clones each class representative back onto the
    original voters, so it agrees with ``phi`` on every blown-up profile by
    construction; this is sampled ``samples`` times as a consistency check.
    The check draws each sample's class digits with ``random.Random(seed)``,
    one ``randrange`` per class, sample after sample, and takes the samples
    in blocks of about ``_EVAL_CELLS`` (sample, voter) cells.  Per block, the
    collapsed function's kernel runs on the class digits, and ``phi``'s own
    kernel on each voter's digit looked up in their own feasible set (an
    order missing there is an ArgumentError); a sample agrees where the two
    outcomes are equal.
    If the outcomes differ and a hypothesis (range at most 3, or a shared
    complete feasible set) is verified, the preference-reversal witness at
    class level is located and lifted to the least voter of its class.
    """
    if phi.rule is None:
        raise ArgumentError("quotient reduction needs a rule-based scf")
    if samples < 0:
        raise ArgumentError(f"sample count {samples} is negative")
    if mode not in ("auto", "shared", "pairs"):
        raise ArgumentError(f"unknown quotient mode {mode!r}")
    domain = phi.domain
    shared = domain.is_shared()
    if mode == "shared" and not shared:
        raise ArgumentError(
            "mixed feasible sets: the shared-domain case needs one feasible "
            "set common to all voters"
        )
    case = "shared" if (mode in ("auto", "shared") and shared) else "pairs"
    outcome_p = evaluate(phi, p_profile)
    outcome_q = evaluate(phi, q_profile)

    index: dict[tuple[WeakOrder, WeakOrder], int] = {}
    voters: list[list[int]] = []
    assignment = []
    for v in range(domain.n):
        key = (p_profile[v], q_profile[v])
        if key not in index:
            index[key] = len(voters)
            voters.append([])
        idx = index[key]
        voters[idx].append(v)
        assignment.append(idx)
    classes = tuple(
        QuotientClass(rep_p, rep_q, tuple(members))
        for (rep_p, rep_q), members in zip(index.keys(), voters)
    )
    alpha = len(classes)

    alts = domain.alts
    if case == "shared":
        qdomain = Domain.shared(domain.feasible[0], alpha)
    else:
        qdomain = Domain(
            tuple(
                FeasibleSet.explicit(alts, {c.rep_p, c.rep_q}) for c in classes
            )
        )
    quotient = Scf.from_rule(qdomain, cloned_rule(phi.rule, assignment))
    quotient_p = Profile(tuple(c.rep_p for c in classes))
    quotient_q = Profile(tuple(c.rep_q for c in classes))
    if evaluate(quotient, quotient_p) != outcome_p or (
        evaluate(quotient, quotient_q) != outcome_q
    ):
        raise RuntimeError("quotient construction disagrees with the original scf")

    hypothesis: dict[str, Any] = {"kind": None, "verified": False}
    if case == "shared":
        try:
            report = is_complete(domain.feasible[0])
            hypothesis = {"kind": "complete-domain", "verified": report.complete}
        except ResourceGuardError:
            hypothesis = {"kind": "complete-domain", "verified": False,
                          "note": "completeness undecided within guard"}
    if not hypothesis["verified"]:
        try:
            rng_size = len(range_of(quotient, max_profiles))
            verified = rng_size <= 3
            if verified or hypothesis["kind"] is None:
                hypothesis = {
                    "kind": "range-le-3", "verified": verified, "range": rng_size,
                }
        except ResourceGuardError:
            pass

    witness_class = None
    witness_lift = None
    lift_valid = None
    if outcome_p != outcome_q:
        for i, cls in enumerate(classes):
            if (
                cls.rep_p != cls.rep_q
                and cls.rep_p.weakly_prefers(outcome_p, outcome_q)
                and cls.rep_q.weakly_prefers(outcome_q, outcome_p)
            ):
                witness_class = i
                break
        if witness_class is not None:
            voter = min(classes[witness_class].voters)
            witness_lift = (witness_class, voter)
            lift_valid = (
                p_profile[voter] != q_profile[voter]
                and p_profile[voter].weakly_prefers(outcome_p, outcome_q)
                and q_profile[voter].weakly_prefers(outcome_q, outcome_p)
            )

    # lookup[offset[v] + d]: voter v's digit for the order d of their class's
    # feasible set, or -1 when v's own feasible set lacks it.
    offsets: dict[tuple[int, int], int] = {}
    lookup: list[int] = []
    offset = np.empty(domain.n, dtype=np.intp)
    for v, c in enumerate(assignment):
        fs = domain.feasible[v]
        key = (c, id(fs))
        if key not in offsets:
            offsets[key] = len(lookup)
            found = (fs.index_of(order) for order in qdomain.feasible[c])
            lookup.extend(-1 if d is None else d for d in found)
        offset[v] = offsets[key]
    lookup = np.array(lookup, dtype=np.intp)
    columns = np.array(assignment, dtype=np.intp)
    sizes = [len(fs) for fs in qdomain.feasible]
    quotient_outcomes, phi_outcomes = rule_kernel(quotient), rule_kernel(phi)
    rng = random.Random(seed)
    agreed = 0
    step = max(1, _EVAL_CELLS // domain.n)
    for lo in range(0, samples, step):
        rows = min(step, samples - lo)
        draws = [rng.randrange(m) for _ in range(rows) for m in sizes]
        digits = np.array(draws, dtype=np.intp).reshape(rows, alpha)
        blown = lookup[offset + digits[:, columns]]
        if (blown < 0).any():
            v = int(np.nonzero(blown < 0)[1][0])
            raise ArgumentError(f"voter {v + 1}'s order is outside their feasible set")
        agreed += int(np.count_nonzero(quotient_outcomes(digits) == phi_outcomes(blown)))
    return QuotientResult(
        classes=classes,
        alpha=alpha,
        case=case,
        quotient_scf=quotient,
        quotient_p=quotient_p,
        quotient_q=quotient_q,
        outcome_p=outcome_p,
        outcome_q=outcome_q,
        hypothesis=hypothesis,
        witness_class=witness_class,
        witness_lift=witness_lift,
        lift_valid=lift_valid,
        samples_checked=samples,
        samples_agreed=agreed,
        seed=seed,
    )


def quotient_to_dict(result: QuotientResult, alts) -> dict:
    doc = {
        "alpha": result.alpha,
        "case": result.case,
        "classes": [
            {
                "rep_p": format_order(c.rep_p, alts),
                "rep_q": format_order(c.rep_q, alts),
                "voters": [v + 1 for v in c.voters],
            }
            for c in result.classes
        ],
        "outcome_p": alts.names[result.outcome_p],
        "outcome_q": alts.names[result.outcome_q],
        "hypothesis": result.hypothesis,
        "samples_checked": result.samples_checked,
        "samples_agreed": result.samples_agreed,
        "seed": result.seed,
    }
    if result.witness_class is not None:
        cls, voter = result.witness_lift
        doc["witness"] = {
            "class": cls + 1,
            "lifted_voter": voter + 1,
            "valid": result.lift_valid,
        }
    else:
        doc["witness"] = None
    return doc


def verify_thm_infinite(
    phi: Scf,
    p_profile: Profile,
    q_profile: Profile,
    *,
    samples: int = 100,
    seed: int = 0,
) -> TheoremVerdict:
    """Verdict wrapper around :func:`quotient_reduce` for one profile pair."""
    t0 = time.perf_counter()
    result = quotient_reduce(
        phi, p_profile, q_profile, samples=samples, seed=seed
    )
    if result.outcome_p == result.outcome_q:
        holds = result.samples_agreed == result.samples_checked
        reason = "outcomes equal: nothing to witness"
    elif not result.hypothesis.get("verified"):
        holds = result.samples_agreed == result.samples_checked
        reason = "hypothesis not verified: witness not required"
    else:
        holds = (
            result.witness_class is not None
            and bool(result.lift_valid)
            and result.samples_agreed == result.samples_checked
        )
        reason = "witness lifted" if holds else "no liftable witness found"
    return TheoremVerdict(
        theorem="thm-infinite",
        universe=_describe_scf(phi),
        checked=result.samples_checked,
        holds=holds,
        counterexample=None,
        details={"reason": reason, **quotient_to_dict(result, phi.domain.alts)},
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )
