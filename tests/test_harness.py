"""Theorem suites, counterexample search, and the quotient reduction."""

import json
import sys

import pytest

from prefrev import (
    AlternativeSet,
    ArgumentError,
    Domain,
    EnumerationSpec,
    FeasibleSet,
    Profile,
    Scf,
    WeakOrder,
    builtin,
    enumerate_scfs,
    evaluate,
    parse_order,
    quotient_reduce,
    revalidate_witness,
    verdict_to_dict,
    verify_prop_apr_gsp,
    verify_summary_equivalence,
    verify_thm_complete,
    verify_thm_infinite,
    verify_thm_range3,
)
from prefrev.harness import _scan_universe, quotient_to_dict


def strict_prefix_domain(k, voters, per_voter):
    alts = AlternativeSet.letters(k)
    from prefrev import enumerate_strict_orders

    strict = sorted(enumerate_strict_orders(k), key=lambda o: o.ranks)
    fs = FeasibleSet.explicit(alts, strict[:per_voter])
    return Domain.shared(fs, voters)


def weak_pair_domain(voters=2):
    alts = AlternativeSet.letters(3)
    orders = [parse_order("a~b>c", alts), parse_order("c>a~b", alts)]
    return Domain.shared(FeasibleSet.explicit(alts, orders), voters)


@pytest.fixture
def spec81():
    domain = strict_prefix_domain(3, 2, 2)
    return EnumerationSpec(domain, (0, 1, 2))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_scfs_counts(spec81):
    tables = list(enumerate_scfs(spec81))
    assert len(tables) == 81
    # canonical order: the table read as a base-3 numeral, ascending
    assert list(tables[0].table) == [0, 0, 0, 0]
    assert list(tables[1].table) == [0, 0, 0, 1]
    assert list(tables[-1].table) == [2, 2, 2, 2]


def test_enumerate_scfs_singleton_target(spec81):
    spec = EnumerationSpec(spec81.domain, (1,))
    tables = list(enumerate_scfs(spec))
    assert len(tables) == 1
    assert set(tables[0].table) == {1}


def test_enumerate_scfs_limit_and_filter(spec81):
    limited = EnumerationSpec(spec81.domain, spec81.target, limit=10)
    assert len(list(enumerate_scfs(limited))) == 10
    filtered = EnumerationSpec(spec81.domain, spec81.target, filters=("isp",))
    n_isp = len(list(enumerate_scfs(filtered)))
    verdict = verify_thm_range3(spec81)
    assert n_isp == verdict.details["isp_tables"]


def test_enumeration_spec_validation(spec81):
    with pytest.raises(ArgumentError):
        EnumerationSpec(spec81.domain, ())
    with pytest.raises(ArgumentError):
        EnumerationSpec(spec81.domain, (5,))
    with pytest.raises(ArgumentError):
        EnumerationSpec(spec81.domain, (0,), filters=("bogus",))


# ---------------------------------------------------------------------------
# suites on small universes
# ---------------------------------------------------------------------------


def test_prop_apr_gsp_on_81(spec81):
    verdict = verify_prop_apr_gsp(spec81)
    assert verdict.holds and verdict.checked == 81


def test_thm_range3_on_81(spec81):
    verdict = verify_thm_range3(spec81)
    assert verdict.holds
    assert verdict.details["isp_tables"] == verdict.details["gsp_tables"]


def test_thm_range3_on_weak_orders():
    spec = EnumerationSpec(weak_pair_domain(), (0, 1, 2))
    verdict = verify_thm_range3(spec)
    assert verdict.holds
    assert verdict.checked == 81


def test_thm_range3_rejects_wide_target():
    domain = strict_prefix_domain(4, 2, 2)
    with pytest.raises(ArgumentError):
        verify_thm_range3(EnumerationSpec(domain, (0, 1, 2, 3)))


def test_summary_equivalence_chain(spec81):
    verdict = verify_summary_equivalence(spec81)
    assert verdict.holds
    d = verdict.details
    assert d["pr_tables"] <= d["apr_tables"] == d["gsp_tables"] <= d["isp_tables"]
    assert d["equality_hypothesis"] == "range-le-3"
    # equality of all four sets under the range hypothesis
    assert d["pr_tables"] == d["isp_tables"]


def test_suites_parallel_determinism(spec81):
    for fn in (verify_prop_apr_gsp, verify_thm_range3, verify_summary_equivalence):
        seq = verdict_to_dict(fn(spec81, parallelism=1))
        par = verdict_to_dict(fn(spec81, parallelism=8))
        assert json.dumps(seq) == json.dumps(par)


def test_scan_universe_reports_canonical_first_payload():
    hits = {13, 57, 200}

    def scan(number):
        return ("payload", number) if number in hits else None

    checked, payload, _ = _scan_universe(300, scan, parallelism=1, full_pass=False)
    assert checked == 14 and payload == ("payload", 13)
    checked8, payload8, _ = _scan_universe(300, scan, parallelism=8, full_pass=False)
    assert (checked8, payload8) == (checked, payload)
    full = _scan_universe(300, scan, parallelism=4, full_pass=True)
    assert full[0] == 300
    assert [n for n, _ in full[2]] == [13, 57, 200]


# ---------------------------------------------------------------------------
# complete-domain specimens
# ---------------------------------------------------------------------------


def test_thm_complete_median_specimen():
    alts = AlternativeSet.numbered(5)
    fs = FeasibleSet.single_peaked(alts, strict=True)
    phi = builtin("median-peaks", Domain.shared(fs, 2))
    verdict = verify_thm_complete(phi)
    assert verdict.holds
    assert verdict.details["admissible"]
    assert verdict.details["pairs_scanned"] == 256 * 255
    assert all(c["complete"] for c in verdict.details["completeness"])


def test_thm_complete_dictator_specimen(abc):
    phi = builtin(
        "dictator-tiebreak", Domain.shared(FeasibleSet.universal_weak(abc), 2), voter=0
    )
    verdict = verify_thm_complete(phi)
    assert verdict.holds and verdict.details["admissible"]


def test_thm_complete_labels_non_isp_input_inadmissible(abc):
    phi = builtin("paper-example", Domain.shared(FeasibleSet.universal_weak(abc), 2))
    verdict = verify_thm_complete(phi)
    assert verdict.holds  # vacuous, not a theorem failure
    assert verdict.details["admissible"] is False
    assert "strategy-proof" in verdict.details["reason"]


def test_thm_complete_labels_incomplete_domain_inadmissible(abc):
    fs = FeasibleSet.explicit(abc, [parse_order("a~b>c", abc)])
    phi = builtin("constant", Domain.shared(fs, 2), alternative="a")
    verdict = verify_thm_complete(phi)
    assert verdict.holds
    assert verdict.details["admissible"] is False
    assert "complete" in verdict.details["reason"]


# ---------------------------------------------------------------------------
# bounded search
# ---------------------------------------------------------------------------


def test_search_futile_on_narrow_range(spec81):
    from prefrev import search_isp_not_pr

    verdict = search_isp_not_pr(spec81, budget=10)
    assert verdict.holds
    assert "at most 3" in verdict.details["reason"]


def test_search_futile_on_complete_domain():
    from prefrev import search_isp_not_pr

    alts = AlternativeSet.letters(4)
    domain = Domain.shared(FeasibleSet.universal_weak(alts), 1)
    verdict = search_isp_not_pr(EnumerationSpec(domain, (0, 1, 2, 3)), budget=10)
    assert verdict.holds
    assert "complete" in verdict.details["reason"]


def test_search_exhausts_small_incomplete_universe():
    from prefrev import search_isp_not_pr

    alts = AlternativeSet.letters(4)
    orders = [parse_order("a~b>c~d", alts), parse_order("d>c>a~b", alts)]
    domain = Domain.shared(FeasibleSet.explicit(alts, orders), 2)
    spec = EnumerationSpec(domain, (0, 1, 2, 3))
    verdict = search_isp_not_pr(spec, budget=256)
    assert verdict.details["scope"] == "exhausted-universe"
    assert verdict.checked <= 256
    if not verdict.holds:
        scf, reports = verdict.counterexample
        assert revalidate_witness(scf, "pr", reports[1].witness)


def test_counterexample_revalidates_from_serialized_form():
    # a domain where the search is known to succeed: three weak orders on
    # four alternatives, incomplete, full range
    from prefrev import search_isp_not_pr
    from prefrev.properties import witness_from_dict
    from prefrev.scf import scf_from_dict

    alts = AlternativeSet.letters(4)
    orders = [
        parse_order("a~b>c~d", alts),
        parse_order("d>c>a~b", alts),
        parse_order("b~c>a~d", alts),
    ]
    domain = Domain.shared(FeasibleSet.explicit(alts, orders), 2)
    spec = EnumerationSpec(domain, (0, 1, 2, 3))
    # 4^9 tables; exhaustive scan stops at the first hit (table number 268)
    verdict = search_isp_not_pr(spec, budget=4**9)
    assert not verdict.holds, "expected an ISP-but-not-PR table in this universe"
    assert verdict.details["scope"] == "exhausted-universe"
    doc = json.loads(json.dumps(verdict_to_dict(verdict)))
    reloaded = scf_from_dict(doc["counterexample"]["scf"])
    rep_docs = doc["counterexample"]["reports"]
    assert rep_docs[0]["property"] == "isp" and rep_docs[0]["holds"]
    pr_doc = rep_docs[1]
    witness = witness_from_dict(pr_doc["witness"], reloaded)
    assert revalidate_witness(reloaded, "pr", witness)
    from prefrev import check_isp, check_pr

    assert check_isp(reloaded).holds
    assert not check_pr(reloaded).holds


def test_search_random_sampling_is_seeded():
    from prefrev import search_isp_not_pr

    alts = AlternativeSet.letters(4)
    orders = [
        parse_order("a~b>c~d", alts),
        parse_order("d>c>a~b", alts),
        parse_order("b~c>a~d", alts),
    ]
    domain = Domain.shared(FeasibleSet.explicit(alts, orders), 2)
    spec = EnumerationSpec(domain, (0, 1, 2, 3))
    one = search_isp_not_pr(spec, budget=50, seed=11)
    two = search_isp_not_pr(spec, budget=50, seed=11)
    assert one.details["scope"] == "budget-exhausted"
    assert verdict_to_dict(one) == verdict_to_dict(two)


def test_parallel_search_on_fresh_domains_matches_sequential():
    # Each run builds a fresh domain, so the worker threads meet a checker
    # context that nobody has built yet.
    from prefrev import search_isp_not_pr

    def fresh_spec():
        alts = AlternativeSet.letters(4)
        orders = [
            parse_order(text, alts) for text in ("a~b>c~d", "d>c>a~b", "b~c>a~d")
        ]
        return EnumerationSpec(
            Domain.shared(FeasibleSet.explicit(alts, orders), 2), (0, 1, 2, 3)
        )

    expected = verdict_to_dict(search_isp_not_pr(fresh_spec(), 2000, seed=250522))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            verdict = search_isp_not_pr(fresh_spec(), 2000, seed=250522, parallelism=2)
            assert verdict_to_dict(verdict) == expected
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# quotient reduction
# ---------------------------------------------------------------------------


def peak_order(position, k=5):
    seq = list(range(position, k)) + list(range(position - 1, -1, -1))
    ranks = [0] * k
    for level, x in enumerate(seq):
        ranks[x] = level
    return WeakOrder(tuple(ranks))


@pytest.fixture
def median_society():
    alts = AlternativeSet.numbered(5)
    fs = FeasibleSet.single_peaked(alts, strict=True)
    domain = Domain.shared(fs, 100)
    phi = builtin("median-peaks", domain)
    p = Profile((peak_order(1),) * 40 + (peak_order(2),) * 35 + (peak_order(3),) * 25)
    q = Profile((peak_order(3),) * 40 + (peak_order(2),) * 35 + (peak_order(4),) * 25)
    return phi, p, q


def test_quotient_reduction_acceptance_scenario(median_society):
    phi, p, q = median_society
    result = quotient_reduce(phi, p, q, samples=100, seed=3)
    assert result.alpha == 3
    assert result.case == "shared"
    assert result.outcome_p != result.outcome_q
    assert result.hypothesis == {"kind": "complete-domain", "verified": True}
    assert result.witness_class is not None
    cls, voter = result.witness_lift
    assert voter == min(result.classes[cls].voters)
    assert result.lift_valid
    assert result.samples_agreed == result.samples_checked == 100
    # direct per-voter re-check of the lifted witness
    a, b = result.outcome_p, result.outcome_q
    assert p[voter] != q[voter]
    assert p[voter].weakly_prefers(a, b)
    assert q[voter].weakly_prefers(b, a)


def test_quotient_classes_partition_voters(median_society):
    phi, p, q = median_society
    result = quotient_reduce(phi, p, q, samples=5, seed=0)
    seen = sorted(v for cls in result.classes for v in cls.voters)
    assert seen == list(range(100))
    for cls in result.classes:
        for v in cls.voters:
            assert (p[v], q[v]) == (cls.rep_p, cls.rep_q)
    assert evaluate(result.quotient_scf, result.quotient_p) == result.outcome_p
    assert evaluate(result.quotient_scf, result.quotient_q) == result.outcome_q


def test_quotient_single_class():
    alts = AlternativeSet.numbered(3)
    fs = FeasibleSet.single_peaked(alts, strict=True)
    phi = builtin("median-peaks", Domain.shared(fs, 10))
    w = peak_order(0, 3)
    w2 = peak_order(2, 3)
    result = quotient_reduce(phi, Profile((w,) * 10), Profile((w2,) * 10), samples=10)
    assert result.alpha == 1
    assert result.quotient_scf.domain.n == 1


def test_quotient_equal_profiles_need_no_witness(median_society):
    phi, p, _ = median_society
    result = quotient_reduce(phi, p, p, samples=10, seed=1)
    assert result.outcome_p == result.outcome_q
    assert result.witness_class is None
    assert result.samples_agreed == 10


def test_quotient_pairs_case_for_mixed_domains(abc):
    strict = FeasibleSet.universal_strict(abc)
    weak = FeasibleSet.universal_weak(abc)
    domain = Domain((weak, strict, strict))
    phi = builtin("dictator-tiebreak", domain, voter=0)
    p = Profile((parse_order("a>b>c", abc),) * 3)
    q = Profile((parse_order("b>a>c", abc),) * 3)
    result = quotient_reduce(phi, p, q, samples=20, seed=2)
    assert result.case == "pairs"
    assert result.alpha == 1
    assert result.hypothesis["kind"] == "range-le-3"
    with pytest.raises(ArgumentError, match="mixed"):
        quotient_reduce(phi, p, q, mode="shared")


def test_quotient_requires_rule_body(abc):
    domain = Domain.shared(FeasibleSet.universal_strict(abc), 2)
    table = Scf.from_table(domain, [0] * 36)
    p = Profile((parse_order("a>b>c", abc),) * 2)
    with pytest.raises(ArgumentError, match="rule"):
        quotient_reduce(table, p, p)


def test_quotient_determinism(median_society):
    phi, p, q = median_society
    alts = phi.domain.alts
    one = quotient_to_dict(quotient_reduce(phi, p, q, samples=50, seed=9), alts)
    two = quotient_to_dict(quotient_reduce(phi, p, q, samples=50, seed=9), alts)
    assert json.dumps(one) == json.dumps(two)


def test_verify_thm_infinite_wrapper(median_society):
    phi, p, q = median_society
    verdict = verify_thm_infinite(phi, p, q, samples=50, seed=4)
    assert verdict.holds
    assert verdict.theorem == "thm-infinite"
    assert verdict.details["alpha"] == 3
