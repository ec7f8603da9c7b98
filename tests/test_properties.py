"""Property checkers: witnesses, oracle agreement, determinism, counts."""

import itertools
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from prefrev import (
    AlternativeSet,
    Domain,
    FeasibleSet,
    ManipulationWitness,
    Profile,
    ResourceGuardError,
    Scf,
    builtin,
    check_apr,
    check_dictator,
    check_gsp,
    check_isp,
    check_pr,
    check_pr_apr,
    enumerate_strict_orders,
    evaluate,
    parse_order,
    report_to_dict,
    revalidate_witness,
)
from prefrev import properties
from prefrev.properties import witness_from_dict, witness_to_dict

from conftest import (
    naive_apr_holds,
    naive_gsp_holds,
    naive_isp_holds,
    naive_pr_holds,
    reference_gsp_scan,
)


@pytest.fixture
def weak2(abc):
    return Domain.shared(FeasibleSet.universal_weak(abc), 2)


@pytest.fixture
def paper_rule(weak2):
    return builtin("paper-example", weak2)


# ---------------------------------------------------------------------------
# fixed rules
# ---------------------------------------------------------------------------


def test_constant_holds_everything(weak2):
    phi = builtin("constant", weak2, alternative="b")
    for check in (check_isp, check_gsp, check_pr, check_apr):
        report = check(phi)
        assert report.holds and report.witness is None


def test_paper_rule_is_dictatorial_but_not_isp(paper_rule):
    dictator = check_dictator(paper_rule)
    assert dictator.holds and dictator.witness == 0
    assert revalidate_witness(paper_rule, "dictator", dictator.witness)

    isp = check_isp(paper_rule)
    assert not isp.holds
    assert revalidate_witness(paper_rule, "isp", isp.witness)

    pr = check_pr(paper_rule)
    assert not pr.holds
    assert revalidate_witness(paper_rule, "pr", pr.witness)

    assert not check_apr(paper_rule).holds
    assert not check_gsp(paper_rule).holds


def test_paper_rule_inversion_manipulation(paper_rule, abc):
    # voter 2 gains by reporting the inverse of their true order
    p1 = parse_order("a~b>c", abc)
    p2 = parse_order("b>a>c", abc)
    truthful = Profile((p1, p2))
    witness = ManipulationWitness(
        coalition=(1,),
        truthful=truthful,
        deviation=(p2.invert(),),
        outcome_true=evaluate(paper_rule, truthful),
        outcome_dev=evaluate(paper_rule, Profile((p1, p2.invert()))),
    )
    assert (witness.outcome_true, witness.outcome_dev) == (0, 1)
    assert revalidate_witness(paper_rule, "isp", witness)
    # every weak order with b strictly above a works the same way
    for p2 in FeasibleSet.universal_weak(abc):
        if not p2.strictly_prefers(1, 0):
            continue
        truthful = Profile((p1, p2))
        deviated = Profile((p1, p2.invert()))
        out, dev = evaluate(paper_rule, truthful), evaluate(paper_rule, deviated)
        assert (out, dev) == (0, 1)
        assert p2.strictly_prefers(dev, out)


def test_dictator_rule_passes_all(weak2):
    phi = builtin("dictator-tiebreak", weak2, voter=0)
    assert check_isp(phi).holds
    assert check_gsp(phi).holds
    assert check_pr(phi).holds
    assert check_apr(phi).holds
    report = check_dictator(phi)
    assert report.holds and report.witness == 0


def test_dictator_outcome_always_in_top_set(weak2, abc):
    phi = builtin("dictator-tiebreak", weak2, voter=1)
    from prefrev import iter_profiles

    for profile in iter_profiles(weak2):
        assert evaluate(phi, profile) in profile[1].top_set()


def test_constant_fails_dictatorship_on_strict_domain(abc):
    domain = Domain.shared(FeasibleSet.universal_strict(abc), 2)
    phi = builtin("constant", domain, alternative="c")
    report = check_dictator(phi)
    assert not report.holds
    assert len(report.witness) == 2  # one counter-profile per candidate
    assert revalidate_witness(phi, "dictator", report.witness)


def test_plurality_control_is_group_manipulable(abc):
    domain = Domain.shared(FeasibleSet.universal_strict(abc), 3)
    phi = builtin("plurality-tiebreak", domain)
    report = check_gsp(phi)
    assert not report.holds
    assert len(report.witness.coalition) >= 1
    assert revalidate_witness(phi, "gsp", report.witness)


def test_median_is_fully_strategy_proof():
    alts = AlternativeSet.numbered(3)
    fs = FeasibleSet.single_peaked(alts, strict=True)
    for n in (2, 3):
        phi = builtin("median-peaks", Domain.shared(fs, n))
        assert check_isp(phi).holds
        assert check_gsp(phi).holds
        assert check_pr(phi).holds
        assert check_apr(phi).holds


# ---------------------------------------------------------------------------
# agreement with the naive definitional oracles
# ---------------------------------------------------------------------------


def _random_tables(domain, count, seed):
    rng = random.Random(seed)
    size = domain.profile_count()
    k = domain.k
    for _ in range(count):
        yield Scf.from_table(domain, [rng.randrange(k) for _ in range(size)])


def _oracle_domains():
    abc = AlternativeSet.letters(3)
    strict = FeasibleSet.universal_strict(abc)
    two = FeasibleSet.explicit(
        abc, [parse_order("a~b>c", abc), parse_order("c>a~b", abc)]
    )
    three = FeasibleSet.explicit(
        abc,
        [
            parse_order("a~b>c", abc),
            parse_order("c>a~b", abc),
            parse_order("a>b~c", abc),
        ],
    )
    return [
        Domain.shared(two, 2),
        Domain.shared(three, 2),
        Domain((two, three)),
        Domain.shared(two, 3),
        Domain.shared(strict, 1),
    ]


@pytest.mark.parametrize("domain_index", range(5))
def test_checkers_agree_with_naive_oracles(domain_index):
    domain = _oracle_domains()[domain_index]
    for scf in _random_tables(domain, 40, seed=domain_index):
        assert check_isp(scf).holds == naive_isp_holds(scf)
        assert check_gsp(scf).holds == naive_gsp_holds(scf)
        assert check_pr(scf).holds == naive_pr_holds(scf)
        assert check_apr(scf).holds == naive_apr_holds(scf)


@pytest.mark.parametrize("domain_index", range(5))
def test_failing_witnesses_revalidate(domain_index):
    domain = _oracle_domains()[domain_index]
    for scf in _random_tables(domain, 40, seed=100 + domain_index):
        for prop, check in (
            ("isp", check_isp), ("gsp", check_gsp),
            ("pr", check_pr), ("apr", check_apr),
        ):
            report = check(scf)
            if not report.holds:
                assert revalidate_witness(scf, prop, report.witness)


def test_gsp_equals_apr_and_chain_on_random_tables(abc):
    domain = Domain.shared(
        FeasibleSet.explicit(
            abc, [parse_order("a>b>c", abc), parse_order("c>b>a", abc)]
        ),
        2,
    )
    for scf in _random_tables(domain, 60, seed=7):
        isp, gsp = check_isp(scf), check_gsp(scf)
        both = check_pr_apr(scf)
        assert gsp.holds == both["apr"].holds
        if both["pr"].holds:
            assert both["apr"].holds
        if gsp.holds:
            assert isp.holds


# ---------------------------------------------------------------------------
# scan bookkeeping
# ---------------------------------------------------------------------------


def test_checked_counts_on_holding_reports(weak2):
    phi = builtin("constant", weak2, alternative="a")
    n_profiles = 169
    assert check_isp(phi).checked == n_profiles * (12 + 12)
    assert check_gsp(phi).checked == n_profiles * (n_profiles - 1)
    assert check_pr(phi).checked == n_profiles * (n_profiles - 1)


def test_checked_count_is_witness_ordinal(paper_rule):
    # first manipulation sits at profile (a~b~c, a~b>c): 24 + 13 cases scanned
    report = check_isp(paper_rule)
    assert report.checked == 37
    truthful = report.witness.truthful
    assert [order.ranks for order in truthful.orders] == [(0, 0, 0), (0, 0, 1)]


def test_gsp_checked_count_is_witness_ordinal(paper_rule):
    report = check_gsp(paper_rule)
    assert report.checked == 181
    assert report.witness.coalition == (1,)
    assert revalidate_witness(paper_rule, "gsp", report.witness)


def test_pr_apr_shared_scan_matches_individual(paper_rule):
    both = check_pr_apr(paper_rule)
    pr, apr = check_pr(paper_rule), check_apr(paper_rule)
    assert report_to_dict(both["pr"]) == report_to_dict(pr)
    assert report_to_dict(both["apr"]) == report_to_dict(apr)


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_parallelism_does_not_change_reports(paper_rule, workers):
    for check in (check_isp, check_gsp, check_pr, check_apr):
        seq = report_to_dict(check(paper_rule, parallelism=1))
        par = report_to_dict(check(paper_rule, parallelism=workers))
        assert json.dumps(seq) == json.dumps(par)


def test_guard_rejects_oversized_domains(abc):
    big = Domain.shared(FeasibleSet.universal_weak(abc), 8)
    phi = builtin("constant", big, alternative="a")
    with pytest.raises(ResourceGuardError):
        check_isp(phi)
    with pytest.raises(ResourceGuardError):
        check_pr(phi)


def test_gsp_case_guard(abc):
    domain = Domain.shared(FeasibleSet.universal_weak(abc), 2)
    phi = builtin("constant", domain, alternative="a")
    with pytest.raises(ResourceGuardError):
        check_gsp(phi, max_cases=100)


# ---------------------------------------------------------------------------
# exact-ordinal GSP oracle, block boundaries, shared contexts
# ---------------------------------------------------------------------------


def _reference_gsp_doc(scf):
    holds, checked, witness = reference_gsp_scan(scf)
    doc = {"property": "gsp", "holds": holds}
    if witness is not None:
        doc["witness"] = witness_to_dict("gsp", witness, scf)
    doc["checked"] = checked
    return doc


def test_gsp_matches_reference_on_whole_strict_universe(abc):
    strict = sorted(enumerate_strict_orders(3), key=lambda o: o.ranks)[:3]
    domain = Domain.shared(FeasibleSet.explicit(abc, strict), 2)
    holding = 0
    for values in itertools.product(range(3), repeat=9):
        scf = Scf.from_table(domain, values)
        expected = _reference_gsp_doc(scf)
        holding += expected["holds"]
        for workers in (1, 2):
            assert report_to_dict(check_gsp(scf, parallelism=workers)) == expected
    assert holding == 11


def _uneven_tables(count, seed):
    """Tables on 1-3 voters with 1-5 weak orders each, over k = 2..4.

    Outcomes come from a random subset of the alternatives, so some tables
    hold and the failing ones fail at varied depths.
    """
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(2, 4)
        alts = AlternativeSet.letters(k)
        weak = list(FeasibleSet.universal_weak(alts))
        sizes = [rng.randint(1, min(5, len(weak))) for _ in range(rng.randint(1, 3))]
        feasible = tuple(FeasibleSet.explicit(alts, rng.sample(weak, m)) for m in sizes)
        domain = Domain(feasible)
        outcomes = rng.sample(range(k), rng.randint(1, k))
        yield Scf.from_table(
            domain, [rng.choice(outcomes) for _ in range(domain.profile_count())]
        )


@pytest.mark.parametrize("cells", [None, 1, 40])
def test_pair_scan_matches_reference_on_uneven_domains(monkeypatch, cells):
    # cells=1 makes every profile row its own block; 40 splits rows unevenly.
    tables = list(_uneven_tables(300, seed=2024))
    pair_docs = []
    for scf in tables:
        both = check_pr_apr(scf)
        pair_docs.append((report_to_dict(both["pr"]), report_to_dict(both["apr"])))
    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    outcomes = set()
    for scf, (pr_doc, apr_doc) in zip(tables, pair_docs):
        expected = _reference_gsp_doc(scf)
        outcomes.add((expected["holds"], 1 in map(len, scf.domain.feasible)))
        for workers in (1, 2):
            assert report_to_dict(check_gsp(scf, parallelism=workers)) == expected
            both = check_pr_apr(scf, parallelism=workers)
            assert report_to_dict(both["pr"]) == pr_doc
            assert report_to_dict(both["apr"]) == apr_doc
            assert report_to_dict(check_apr(scf, parallelism=workers)) == apr_doc
    # holding and failing tables, with and without single-order voters
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_checkers_on_fresh_domains_across_threads(abc):
    weak = FeasibleSet.universal_weak(abc)
    checks = (check_isp, check_gsp, check_pr, check_apr, check_dictator)

    def reports(phi):
        return [json.dumps(report_to_dict(check(phi))) for check in checks]

    expected = reports(builtin("plurality-tiebreak", Domain.shared(weak, 2)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(40):
                # A fresh domain whose context exists but whose scan arrays
                # no thread has built yet.
                phi = builtin("plurality-tiebreak", Domain.shared(weak, 2))
                check_dictator(phi)
                futures = [pool.submit(reports, phi) for _ in range(4)]
                for future in futures:
                    assert future.result(timeout=60) == expected
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_witness_serialization_round_trip(paper_rule):
    for prop, check in (
        ("isp", check_isp), ("gsp", check_gsp),
        ("pr", check_pr), ("apr", check_apr),
    ):
        report = check(paper_rule)
        data = witness_to_dict(prop, report.witness, paper_rule)
        again = witness_from_dict(data, paper_rule)
        assert again == report.witness
        assert revalidate_witness(paper_rule, prop, again)


def test_dictator_failure_witness_round_trip(abc):
    domain = Domain.shared(FeasibleSet.universal_strict(abc), 2)
    phi = builtin("constant", domain, alternative="c")
    report = check_dictator(phi)
    assert not report.holds
    data = witness_to_dict("dictator", report.witness, phi)
    assert data["type"] == "dictator-failure"
    again = witness_from_dict(data, phi)
    assert again == report.witness
    assert revalidate_witness(phi, "dictator", again)


def test_report_to_dict_shape(paper_rule):
    doc = report_to_dict(check_isp(paper_rule))
    assert list(doc) == ["property", "holds", "witness", "checked"]
    assert doc["witness"]["type"] == "manipulation"
    assert doc["witness"]["coalition"] == [2]  # 1-based voters externally
    timed = report_to_dict(check_isp(paper_rule), include_timing=True)
    assert "elapsed_ms" in timed


def test_pr_witness_analysis_is_complete(paper_rule):
    report = check_pr(paper_rule)
    violation = report.witness
    assert violation.outcome_p != violation.outcome_q
    assert len(violation.analysis) == 2
    assert not any(
        rec.weak_pref_p and rec.weak_pref_q and rec.changed
        for rec in violation.analysis
    )
