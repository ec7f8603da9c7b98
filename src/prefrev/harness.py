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

The quotient reduction simulates the infinite-society argument on large
replicated finite societies: voters are collapsed into classes by their
(P, Q) report pair, the collapsed function is built by cloning class
representatives, and a preference-reversal witness found at class level is
lifted back to a concrete voter.
"""

from __future__ import annotations

import itertools
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterator

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
    Profile,
    Scf,
    cloned_rule,
    evaluate,
    range_of,
    scf_to_dict,
)
from .properties import (
    CHECKERS,
    PropertyReport,
    check_apr,
    check_gsp,
    check_isp,
    check_pr,
    check_pr_apr,
    report_to_dict,
    revalidate_witness,
)

#: Ceiling on full table-universe enumerations (|target| ** |profiles|).
DEFAULT_TABLE_GUARD = 100_000_000

_UNIVERSE_BLOCK = 512


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


def _table_at(spec: EnumerationSpec, number: int, count: int) -> tuple[int, ...]:
    # The table read as a base-|target| numeral, profile 0 most significant.
    radix = len(spec.target)
    digits = [0] * count
    for pos in range(count - 1, -1, -1):
        number, d = divmod(number, radix)
        digits[pos] = spec.target[d]
    return tuple(digits)


def enumerate_scfs(
    spec: EnumerationSpec, max_tables: int = DEFAULT_TABLE_GUARD
) -> Iterator[Scf]:
    """All total tables into the target range, ascending as base-R numerals."""
    count = spec.domain.require_enumerable()
    size = _universe_size(spec, max_tables)
    if size is None and spec.limit is None:
        raise ResourceGuardError(
            f"table universe exceeds {max_tables}; set a limit or shrink the spec"
        )
    total = size if spec.limit is None else min(spec.limit, size or spec.limit)
    produced = 0
    for digits in itertools.product(spec.target, repeat=count):
        if produced >= total:
            return
        produced += 1
        scf = Scf.from_table(spec.domain, digits)
        if spec.filters and not all(
            CHECKERS[prop](scf).holds for prop in spec.filters
        ):
            continue
        yield scf


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


def _scan_universe(total, scan_table, parallelism, *, full_pass):
    """Run ``scan_table(number) -> payload|None`` over the table universe.

    Returns ``(checked, first_payload, block_results)``.  With ``full_pass``
    every table is visited (needed when counts are aggregated) and
    ``checked`` is ``total``; otherwise the scan may stop at the first
    payload and ``checked`` is its 1-based ordinal.
    """
    blocks = [
        (lo, min(lo + _UNIVERSE_BLOCK, total))
        for lo in range(0, total, _UNIVERSE_BLOCK)
    ]

    def scan_block(lo, hi):
        results = []
        for number in range(lo, hi):
            payload = scan_table(number)
            if payload is not None:
                results.append((number, payload))
                if not full_pass:
                    break
        return results

    if parallelism <= 1:
        collected = []
        for lo, hi in blocks:
            results = scan_block(lo, hi)
            collected.extend(results)
            if results and not full_pass:
                return results[0][0] + 1, results[0][1], collected
        if collected and not full_pass:
            return collected[0][0] + 1, collected[0][1], collected
        return total, (collected[0][1] if collected else None), collected
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        collected = []
        stop = None
        for results in pool.map(lambda b: scan_block(*b), blocks):
            collected.extend(results)
            if results and not full_pass and stop is None:
                stop = results[0]
                break
        if stop is not None:
            return stop[0] + 1, stop[1], collected
        return total, (collected[0][1] if collected else None), collected


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


def verify_prop_apr_gsp(
    spec: EnumerationSpec,
    *,
    parallelism: int = 1,
    max_tables: int = DEFAULT_TABLE_GUARD,
) -> TheoremVerdict:
    """Group strategy-proofness coincides with almost preference reversal."""
    t0 = time.perf_counter()
    total = _require_universe(spec, max_tables)
    count = spec.domain.profile_count()

    def scan_table(number):
        scf = Scf.from_table(spec.domain, _table_at(spec, number, count))
        gsp = check_gsp(scf)
        apr = check_apr(scf)
        if gsp.holds != apr.holds:
            return scf, (gsp, apr)
        return None

    checked, payload, _ = _scan_universe(
        total, scan_table, parallelism, full_pass=False
    )
    return TheoremVerdict(
        theorem="prop-apr-gsp",
        universe=f"{spec.describe()}; {total} tables",
        checked=checked,
        holds=payload is None,
        counterexample=payload,
        details={"tables": total},
        elapsed=time.perf_counter() - t0,
    )


def verify_thm_range3(
    spec: EnumerationSpec,
    *,
    parallelism: int = 1,
    max_tables: int = DEFAULT_TABLE_GUARD,
) -> TheoremVerdict:
    """With |target| <= 3, ISP implies PR; corollary: #ISP equals #GSP."""
    if len(spec.target) > 3:
        raise ArgumentError("thm-range3 needs a target range of at most 3")
    t0 = time.perf_counter()
    total = _require_universe(spec, max_tables)
    count = spec.domain.profile_count()
    tallies = []

    def scan_table(number):
        scf = Scf.from_table(spec.domain, _table_at(spec, number, count))
        isp = check_isp(scf)
        gsp = check_gsp(scf)
        pr = check_pr(scf) if isp.holds else None
        tallies.append((isp.holds, gsp.holds))
        if isp.holds and not pr.holds:
            return "implication", scf, (isp, pr)
        if isp.holds != gsp.holds:
            return "corollary", scf, (isp, gsp)
        return None

    checked, _, collected = _scan_universe(
        total, scan_table, parallelism, full_pass=True
    )
    n_isp = sum(1 for isp, _ in tallies if isp)
    n_gsp = sum(1 for _, gsp in tallies if gsp)
    implication = [c for c in collected if c[1][0] == "implication"]
    corollary = [c for c in collected if c[1][0] == "corollary"]
    failure = min(implication + corollary, key=lambda c: c[0], default=None)
    holds = failure is None and n_isp == n_gsp
    counterexample = None
    if failure is not None:
        _, (_, scf, reports) = failure
        counterexample = (scf, reports)
    return TheoremVerdict(
        theorem="thm-range3",
        universe=f"{spec.describe()}; {total} tables",
        checked=checked,
        holds=holds,
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
    """The chain {PR} <= {APR} = {GSP} <= {ISP}, with equality under hypotheses."""
    t0 = time.perf_counter()
    total = _require_universe(spec, max_tables)
    count = spec.domain.profile_count()
    try:
        all_complete = all(
            is_complete(fs).complete for fs in set(spec.domain.feasible)
        )
    except ResourceGuardError:
        all_complete = False
    range_hypothesis = len(spec.target) <= 3
    equal_hypothesis = range_hypothesis or all_complete
    tallies = []

    def scan_table(number):
        scf = Scf.from_table(spec.domain, _table_at(spec, number, count))
        isp = check_isp(scf)
        gsp = check_gsp(scf)
        both = check_pr_apr(scf)
        pr, apr = both["pr"], both["apr"]
        tallies.append((pr.holds, apr.holds, gsp.holds, isp.holds))
        if pr.holds and not apr.holds:
            return "pr-not-apr", scf, (pr, apr)
        if apr.holds != gsp.holds:
            return "apr-vs-gsp", scf, (apr, gsp)
        if gsp.holds and not isp.holds:
            return "gsp-not-isp", scf, (gsp, isp)
        if equal_hypothesis and isp.holds and not pr.holds:
            return "isp-not-pr", scf, (isp, pr)
        return None

    checked, _, collected = _scan_universe(
        total, scan_table, parallelism, full_pass=True
    )
    failure = min(collected, key=lambda c: c[0], default=None)
    counterexample = None
    if failure is not None:
        _, (_, scf, reports) = failure
        counterexample = (scf, reports)
    details = {
        "tables": total,
        "pr_tables": sum(1 for t in tallies if t[0]),
        "apr_tables": sum(1 for t in tallies if t[1]),
        "gsp_tables": sum(1 for t in tallies if t[2]),
        "isp_tables": sum(1 for t in tallies if t[3]),
        "equality_hypothesis": (
            "range-le-3" if range_hypothesis
            else ("complete-domain" if all_complete else None)
        ),
    }
    return TheoremVerdict(
        theorem="summary-equivalence",
        universe=f"{spec.describe()}; {total} tables",
        checked=checked,
        holds=failure is None,
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
    theorem failure.
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
        isp = check_isp(phi, parallelism=parallelism, max_profiles=max_profiles)
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
    pr = check_pr(phi, parallelism=parallelism, max_profiles=max_profiles)
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
    or a seeded random sample of ``budget`` tables.
    """
    t0 = time.perf_counter()
    universe = f"{spec.describe()}; budget {budget}"
    if len(spec.target) <= 3:
        return TheoremVerdict(
            "isp-not-pr", universe, 0, True, None,
            {"reason": "provably futile: target range has at most 3 alternatives"},
            seed, time.perf_counter() - t0,
        )
    try:
        incomplete = [
            fs for fs in set(spec.domain.feasible) if not is_complete(fs).complete
        ]
        if not incomplete:
            return TheoremVerdict(
                "isp-not-pr", universe, 0, True, None,
                {"reason": "provably futile: every feasible set is complete"},
                seed, time.perf_counter() - t0,
            )
    except ResourceGuardError:
        pass  # completeness undecided within guard; search anyway
    count = spec.domain.require_enumerable()
    size = _universe_size(spec, budget)
    rng = random.Random(seed)
    if size is not None and size <= budget:
        n_items = size
        get_table = lambda number: _table_at(spec, number, count)
        scope = "exhausted-universe"
    else:
        # pre-drawn so the sample is identical for every worker count
        radix = len(spec.target)
        sample = [
            tuple(spec.target[rng.randrange(radix)] for _ in range(count))
            for _ in range(budget)
        ]
        n_items = budget
        get_table = sample.__getitem__
        scope = "budget-exhausted"

    def scan_table(index):
        scf = Scf.from_table(spec.domain, get_table(index))
        isp = check_isp(scf)
        if not isp.holds:
            return None
        pr = check_pr(scf)
        if pr.holds:
            return None
        if not revalidate_witness(scf, "pr", pr.witness):
            raise RuntimeError("search produced a witness that fails revalidation")
        return scf, (isp, pr)

    checked, payload, _ = _scan_universe(
        n_items, scan_table, parallelism, full_pass=False
    )
    details = {"scope": scope, "tables_examined": checked}
    return TheoremVerdict(
        "isp-not-pr", universe, checked, payload is None, payload,
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
    If the outcomes differ and a hypothesis (range at most 3, or a shared
    complete feasible set) is verified, the preference-reversal witness at
    class level is located and lifted to the least voter of its class.
    """
    if phi.rule is None:
        raise ArgumentError("quotient reduction needs a rule-based scf")
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

    rng = random.Random(seed)
    agreed = 0
    for _ in range(samples):
        digits = [rng.randrange(len(fs)) for fs in qdomain.feasible]
        pi = Profile(tuple(fs[d] for fs, d in zip(qdomain.feasible, digits)))
        blown = Profile(tuple(pi[assignment[v]] for v in range(domain.n)))
        if evaluate(quotient, pi) == evaluate(phi, blown):
            agreed += 1
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
