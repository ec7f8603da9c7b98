"""Shared fixtures and independent naive oracles.

The naive property checkers below work straight from the definitions with
plain ``evaluate`` calls and no index arithmetic, so they are an
implementation-independent cross-check for the production scanners.  The
naive group-manipulation search is deliberately unrestricted: coalitions may
include members who keep their truthful report, which is the raw definition
before the normalization the fast checker applies.

``reference_gsp_scan`` is the exact-ordinal oracle for ``check_gsp``: the
normalized coalition-by-deviation enumeration written as plain loops, so
its witness and ``checked`` count are the canonical ones by construction.
"""

import itertools

import pytest

from prefrev import AlternativeSet, ManipulationWitness, evaluate, iter_profiles, tabulate
from prefrev.scf import profile_at, profile_strides


@pytest.fixture
def abc():
    return AlternativeSet.letters(3)


@pytest.fixture
def abcd():
    return AlternativeSet.letters(4)


def naive_isp_holds(scf):
    domain = scf.domain
    for profile in iter_profiles(domain):
        truth = evaluate(scf, profile)
        for v in range(domain.n):
            for order in domain.feasible[v]:
                dev = evaluate(scf, profile.replace(v, order))
                if profile[v].strictly_prefers(dev, truth):
                    return False
    return True


def naive_gsp_holds(scf):
    domain = scf.domain
    voters = range(domain.n)
    for profile in iter_profiles(domain):
        truth = evaluate(scf, profile)
        for size in range(1, domain.n + 1):
            for coalition in itertools.combinations(voters, size):
                pools = [domain.feasible[v].orders for v in coalition]
                for combo in itertools.product(*pools):
                    dev = evaluate(scf, profile.replace_many(dict(zip(coalition, combo))))
                    if all(
                        profile[v].strictly_prefers(dev, truth) for v in coalition
                    ):
                        return False
    return True


def naive_pr_holds(scf):
    domain = scf.domain
    profiles = list(iter_profiles(domain))
    for p in profiles:
        a = evaluate(scf, p)
        for q in profiles:
            b = evaluate(scf, q)
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
        a = evaluate(scf, p)
        for q in profiles:
            b = evaluate(scf, q)
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
    table = [int(x) for x in tabulate(scf).table]
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
