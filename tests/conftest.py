"""Shared fixtures and independent naive oracles.

``reference_evaluate`` is the rule oracle: each built-in rule's definition
written as a plain per-profile procedure, the way the package evaluated
rules before its numpy kernels, plus a table lookup by the mixed-radix
profile index.  ``reference_table`` tabulates with it.

The naive property checkers below work straight from the definitions with
plain ``reference_evaluate`` calls and no index arithmetic, so they are an
implementation-independent cross-check for the production scanners.  The
naive group-manipulation search is deliberately unrestricted: coalitions may
include members who keep their truthful report, which is the raw definition
before the normalization the fast checker applies.

The ``reference_*_scan`` functions are the exact-ordinal oracles for the
numpy checkers: each property's canonical scan written as plain loops, so
its witness and ``checked`` count are the canonical ones by construction.
``reference_gsp_scan`` is the normalized coalition-by-deviation enumeration;
``reference_isp_scan`` and ``reference_dictator_scan`` are the pure-Python
loops ``check_isp`` and ``check_dictator`` once were; ``reference_pair_scan``
walks PR or APR over ordered profile pairs.  ``reference_is_complete`` is
the quadruple loop ``is_complete`` once was.
"""

import itertools

import numpy as np
import pytest

from prefrev import (
    AlternativeSet,
    Axis,
    Domain,
    FeasibleSet,
    ManipulationWitness,
    Profile,
    PrViolation,
    Scf,
    admissible_pair,
    iter_profiles,
    parse_order,
    peak_position,
    profile_index,
    resolves_indifference_at,
)
from prefrev.domains import CompletenessReport, ResolventGap
from prefrev.properties import DictatorCounter, VoterAnalysis
from prefrev.scf import profile_at, profile_strides


@pytest.fixture
def abc():
    return AlternativeSet.letters(3)


@pytest.fixture
def abcd():
    return AlternativeSet.letters(4)


@pytest.fixture
def pr_not_apr_rule(abc):
    """2 voters x @universal-strict over a,b,c; phi is a everywhere except
    phi(a>c>b, b>c>a) = b.  PR fails at P = (a>b>c, b>a>c), Q = (a>c>b,
    b>c>a): voter 1 keeps a and voter 2 accepts b, but neither does both,
    so that pair is no APR violation."""
    domain = Domain.shared(FeasibleSet.universal_strict(abc), 2)
    values = [0] * domain.profile_count()
    q = Profile(tuple(parse_order(text, abc) for text in ("a>c>b", "b>c>a")))
    values[profile_index(domain, q)] = 1
    return Scf.from_table(domain, values)


# ---------------------------------------------------------------------------
# rule oracle
# ---------------------------------------------------------------------------


def _reference_constant(params, alts, orders):
    return params["alternative"]


def _reference_dictator(params, alts, orders):
    top = orders[params["voter"]].top_set()
    for x in params["tiebreak"]:
        if x in top:
            return x
    raise RuntimeError("tiebreak order failed to cover the top set")


def _reference_paper_example(params, alts, orders):
    # Voter 1 picks; a tie among their tops is settled by the best of those
    # tops under voter 2's inverted report, alphabetically first if several.
    p1, p2 = orders
    tops = p1.top_set()
    if len(tops) == 1:
        return next(iter(tops))
    inv = p2.invert()
    best = min(inv.ranks[x] for x in tops)
    return min(
        (x for x in tops if inv.ranks[x] == best), key=lambda x: alts.names[x]
    )


def _reference_median_peaks(params, alts, orders):
    axis = Axis(params["axis"])
    peaks = sorted(peak_position(order, axis) for order in orders)
    return axis.order[peaks[(len(peaks) - 1) // 2]]


def _reference_plurality(params, alts, orders):
    counts = [0] * alts.k
    for order in orders:
        top = order.top_set()
        if len(top) == 1:
            counts[next(iter(top))] += 1
    best = max(counts)
    for x in params["tiebreak"]:
        if counts[x] == best:
            return x
    raise RuntimeError("tiebreak order failed to cover the alternatives")


def _reference_cloned(params, alts, orders):
    base = params["base"]
    blown = tuple(orders[c] for c in params["assignment"])
    return _REFERENCE_RULES[base.name](base.params, alts, blown)


_REFERENCE_RULES = {
    "constant": _reference_constant,
    "dictator-tiebreak": _reference_dictator,
    "paper-example": _reference_paper_example,
    "median-peaks": _reference_median_peaks,
    "plurality-tiebreak": _reference_plurality,
    "cloned": _reference_cloned,
}


def reference_evaluate(scf, profile):
    """phi(profile): the rule's per-profile procedure, or the table entry at
    the profile's index (voter 0 the most significant digit)."""
    domain = scf.domain
    if scf.table is not None:
        index = 0
        for fs, order in zip(domain.feasible, profile.orders):
            index = index * len(fs) + fs.orders.index(order)
        return int(scf.table[index])
    return _REFERENCE_RULES[scf.rule.name](scf.rule.params, domain.alts, profile.orders)


def reference_table(scf):
    """The outcome of every profile, in index order, as uint8."""
    if scf.table is not None:
        return scf.table
    return np.array(
        [reference_evaluate(scf, p) for p in iter_profiles(scf.domain)], dtype=np.uint8
    )


# ---------------------------------------------------------------------------
# property oracles
# ---------------------------------------------------------------------------


def naive_isp_holds(scf):
    domain = scf.domain
    for profile in iter_profiles(domain):
        truth = reference_evaluate(scf, profile)
        for v in range(domain.n):
            for order in domain.feasible[v]:
                dev = reference_evaluate(scf, profile.replace(v, order))
                if profile[v].strictly_prefers(dev, truth):
                    return False
    return True


def naive_gsp_holds(scf):
    domain = scf.domain
    voters = range(domain.n)
    for profile in iter_profiles(domain):
        truth = reference_evaluate(scf, profile)
        for size in range(1, domain.n + 1):
            for coalition in itertools.combinations(voters, size):
                pools = [domain.feasible[v].orders for v in coalition]
                for combo in itertools.product(*pools):
                    deviated = profile.replace_many(dict(zip(coalition, combo)))
                    dev = reference_evaluate(scf, deviated)
                    if all(
                        profile[v].strictly_prefers(dev, truth) for v in coalition
                    ):
                        return False
    return True


def naive_pr_holds(scf):
    domain = scf.domain
    profiles = list(iter_profiles(domain))
    for p in profiles:
        a = reference_evaluate(scf, p)
        for q in profiles:
            b = reference_evaluate(scf, q)
            if a == b:
                continue
            if not any(
                p[v].weakly_prefers(a, b)
                and q[v].weakly_prefers(b, a)
                and p[v] != q[v]
                for v in range(domain.n)
            ):
                return False
    return True


def naive_apr_holds(scf):
    domain = scf.domain
    profiles = list(iter_profiles(domain))
    for p in profiles:
        a = reference_evaluate(scf, p)
        for q in profiles:
            b = reference_evaluate(scf, q)
            if a == b:
                continue
            first = any(
                p[v].weakly_prefers(a, b) and p[v] != q[v] for v in range(domain.n)
            )
            second = any(
                q[v].weakly_prefers(b, a) and p[v] != q[v] for v in range(domain.n)
            )
            if not (first and second):
                return False
    return True


def reference_gsp_scan(scf):
    """``(holds, checked, witness)`` of the canonical GSP scan.

    Profiles come by index; at each, coalitions by size and then
    lexicographically, and for each coalition every member's other orders
    in canonical product order.  Only deviations in which every member
    changes their report are cases, so voters with one feasible order are
    never in a coalition.  ``checked`` counts the cases up to and including
    the witness, or all of them when GSP holds.
    """
    domain = scf.domain
    table = [int(x) for x in reference_table(scf)]
    sizes = [len(fs) for fs in domain.feasible]
    strides = profile_strides(domain)
    ranks = [[order.ranks for order in fs] for fs in domain.feasible]
    coalitions = [
        c
        for size in range(1, domain.n + 1)
        for c in itertools.combinations(range(domain.n), size)
        if all(sizes[v] > 1 for v in c)
    ]
    checked = 0
    for pidx, out in enumerate(table):
        digits = [(pidx // strides[v]) % sizes[v] for v in range(domain.n)]
        for coalition in coalitions:
            options = [[w for w in range(sizes[v]) if w != digits[v]] for v in coalition]
            for choice in itertools.product(*options):
                checked += 1
                dev = table[pidx + sum(
                    (w - digits[v]) * strides[v] for v, w in zip(coalition, choice)
                )]
                if dev != out and all(
                    ranks[v][digits[v]][dev] < ranks[v][digits[v]][out] for v in coalition
                ):
                    witness = ManipulationWitness(
                        coalition,
                        profile_at(domain, pidx),
                        tuple(domain.feasible[v][w] for v, w in zip(coalition, choice)),
                        out,
                        dev,
                    )
                    return False, checked, witness
    return True, checked, None


def _odometer(digits, sizes):
    """Advance mixed-radix ``digits`` by one, the last voter fastest."""
    v = len(sizes) - 1
    while v >= 0:
        digits[v] += 1
        if digits[v] < sizes[v]:
            return
        digits[v] = 0
        v -= 1


def reference_isp_scan(scf):
    """``(holds, checked, witness)`` of the canonical ISP scan: profiles by
    index, then voters, then each voter's other orders."""
    domain = scf.domain
    tbl = [int(x) for x in reference_table(scf)]
    sizes = [len(fs) for fs in domain.feasible]
    strides = profile_strides(domain)
    ranks = [[order.ranks for order in fs] for fs in domain.feasible]
    digits = [0] * domain.n
    checked = 0
    for pidx, out in enumerate(tbl):
        for v in range(domain.n):
            d = digits[v]
            rk = ranks[v][d]
            base = pidx - d * strides[v]
            for w in range(sizes[v]):
                if w == d:
                    continue
                checked += 1
                dev = tbl[base + w * strides[v]]
                if rk[dev] < rk[out]:
                    witness = ManipulationWitness(
                        (v,), profile_at(domain, pidx), (domain.feasible[v][w],), out, dev
                    )
                    return False, checked, witness
        _odometer(digits, sizes)
    return True, checked, None


def reference_is_complete(fs):
    """``is_complete``'s report from the canonical quadruple loop: (p, q) by
    member index, then ordered pairs (a, b), admissible quadruples only,
    with one bitmask over the members per (member, point)."""
    k = fs.alts.k
    masks = [
        [
            sum(
                1 << wi
                for wi, w in enumerate(fs.orders)
                if resolves_indifference_at(w, p, a)
            )
            for a in range(k)
        ]
        for p in fs.orders
    ]
    checked = 0
    for pi, p in enumerate(fs.orders):
        for qi, q in enumerate(fs.orders):
            for a in range(k):
                for b in range(k):
                    if a == b or not admissible_pair(p, q, a, b):
                        continue
                    assert p.strictly_prefers(b, a) or q.strictly_prefers(a, b)
                    checked += 1
                    if not masks[pi][a] & masks[qi][b]:
                        return CompletenessReport(
                            False, ResolventGap(p, q, a, b), checked
                        )
    return CompletenessReport(True, None, checked)


def reference_dictator_scan(scf):
    """``(holds, checked, witness)`` of the canonical dictatorship scan:
    voters in order, each over the profiles by index until the first one
    where the outcome is not among their tops."""
    domain = scf.domain
    tbl = [int(x) for x in reference_table(scf)]
    sizes = [len(fs) for fs in domain.feasible]
    checked = 0
    counters = []
    for v in range(domain.n):
        tops = [order.top_set() for order in domain.feasible[v]]
        digits = [0] * domain.n
        for pidx, out in enumerate(tbl):
            checked += 1
            if out not in tops[digits[v]]:
                counters.append(DictatorCounter(v, profile_at(domain, pidx), out))
                break
            _odometer(digits, sizes)
        else:
            return True, checked, v
    return False, checked, tuple(counters)


def reference_pair_scan(scf, kind):
    """``(holds, checked, witness)`` of the canonical PR (``kind="pr"``) or
    APR scan: ordered pairs (P, Q), Q != P, P by index and then Q by index."""
    domain = scf.domain
    profiles = list(iter_profiles(domain))
    tbl = [int(x) for x in reference_table(scf)]
    checked = 0
    for p, a in zip(profiles, tbl):
        for q, b in zip(profiles, tbl):
            if q == p:
                continue
            checked += 1
            if a == b:
                continue
            analysis = tuple(
                VoterAnalysis(
                    v, p[v].weakly_prefers(a, b), q[v].weakly_prefers(b, a), p[v] != q[v]
                )
                for v in range(domain.n)
            )
            if kind == "pr":
                ok = any(r.weak_pref_p and r.weak_pref_q and r.changed for r in analysis)
            else:
                ok = any(r.weak_pref_p and r.changed for r in analysis) and any(
                    r.weak_pref_q and r.changed for r in analysis
                )
            if not ok:
                return False, checked, PrViolation(kind, p, q, a, b, analysis)
    return True, checked, None
