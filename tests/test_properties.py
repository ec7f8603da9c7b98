"""Property checkers: witnesses, oracle agreement, determinism, counts."""

import dataclasses
import gc
import itertools
import json
import math
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from prefrev import (
    AlternativeSet,
    Domain,
    FeasibleSet,
    ManipulationWitness,
    ParseError,
    PrefrevError,
    Profile,
    ResourceGuardError,
    Scf,
    WeakOrder,
    builtin,
    check_apr,
    check_dictator,
    check_gsp,
    check_isp,
    check_pr,
    check_pr_apr,
    enumerate_strict_orders,
    evaluate,
    format_order,
    iter_profiles,
    parse_order,
    range_of,
    report_to_dict,
    revalidate_witness,
    tabulate,
)
from prefrev import properties
from prefrev.properties import witness_from_dict, witness_to_dict

from conftest import (
    naive_apr_holds,
    naive_gsp_holds,
    naive_isp_holds,
    naive_pr_holds,
    reference_dictator_scan,
    reference_gsp_scan,
    reference_isp_scan,
    reference_pair_scan,
    reference_table,
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


def _word_edge_domain(sizes):
    """Weak orders on 4 alternatives, the first m of them for a voter with m
    orders: pair-pass rows of 63, 64 or 65 bits for sizes (3, 21), (4, 4, 4)
    and (5, 13)."""
    weak = FeasibleSet.universal_weak(AlternativeSet.letters(4))
    return Domain(tuple(FeasibleSet.explicit(weak.alts, weak.orders[:m]) for m in sizes))


@pytest.mark.parametrize(
    "domain_index", [0, 1, 2, 3, 4, (3, 21), (4, 4, 4), (5, 13)],
    ids=lambda d: str(d) if isinstance(d, int) else "x".join(map(str, d)),
)
def test_checkers_agree_with_naive_oracles(domain_index):
    # The word-edge domains also run a holding dictator and a constant
    # table, where a padding bit taken for a violation would break the
    # verdict, and compare the witness and `checked` with the reference
    # scans.
    if isinstance(domain_index, int):
        domain, tables = _oracle_domains()[domain_index], []
    else:
        domain = _word_edge_domain(domain_index)
        tables = [
            tabulate(builtin("dictator-tiebreak", domain, voter=domain.n - 1)),
            Scf.from_table(domain, [2] * domain.profile_count()),
        ]
    seed = domain_index if isinstance(domain_index, int) else sum(domain_index)
    for scf in tables + list(_random_tables(domain, 40, seed=seed)):
        if tables:
            _assert_pair_pass(scf)
        both = check_pr_apr(scf)
        assert check_isp(scf).holds == naive_isp_holds(scf)
        assert check_gsp(scf).holds == naive_gsp_holds(scf)
        assert check_pr(scf).holds == both["pr"].holds == naive_pr_holds(scf)
        assert check_apr(scf).holds == both["apr"].holds == naive_apr_holds(scf)


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
def test_parallelism_does_not_change_reports(capsys, tmp_path, paper_rule, workers):
    # Every scan is serial: the CLI flag is parsed and changes no byte of
    # any checker's report, each run on its own.
    from prefrev import save_scf
    from prefrev.cli import main

    path = str(tmp_path / "paper.json")
    save_scf(paper_rule, path)
    for prop in ("isp", "gsp", "pr", "apr"):
        outs = []
        for flag in ("1", str(workers)):
            argv = ["check", path, "--properties", prop, "--output", "json"]
            assert main(argv + ["--parallelism", flag]) == 2
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["reports"] == [report_to_dict(properties.CHECKERS[prop](paper_rule))]


def test_guard_rejects_oversized_domains(abc):
    # 8 voters x 13 weak orders: 13^8 profiles, past the default profile
    # guard, which every reader of a rule's table meets in tabulate.
    big = Domain.shared(FeasibleSet.universal_weak(abc), 8)
    phi = builtin("constant", big, alternative="a")
    guard = "profile space has 815730721 profiles, guard is 10000000"
    calls = [*properties.CHECKERS.values(), check_pr_apr,
             lambda scf: properties.run_checkers(scf, list(properties.CHECKERS)),
             range_of, lambda scf: next(iter_profiles(scf.domain))]
    for call in calls:
        with pytest.raises(ResourceGuardError, match=guard):
            call(phi)
    # Refused before the rule's arrays or the domain's scan data are built.
    assert "_arrays" not in phi.__dict__ and "_scan_context" not in big.__dict__


def test_gsp_case_guard(monkeypatch, abc):
    # 169 profiles: 28,392 ordered pairs, past a guard of 100.
    monkeypatch.setattr(properties, "PAIR_GUARD", 100)
    domain = Domain.shared(FeasibleSet.universal_weak(abc), 2)
    phi = builtin("constant", domain, alternative="a")
    guard = "pairwise scan needs 28392 ordered pairs, guard is 100"
    for check in (check_gsp, check_pr_apr):
        with pytest.raises(ResourceGuardError, match=guard):
            check(phi)


def test_gsp_scans_every_ordered_pair_within_the_guard(abc):
    # 4 voters x 13 weak orders: 28,561 profiles and 815,702,160 ordered
    # pairs, under the pair guard that PR and APR have on the same pass.
    domain = Domain.shared(FeasibleSet.universal_weak(abc), 4)
    report = check_gsp(builtin("plurality-tiebreak", domain))
    assert not report.holds and report.checked == 171_403
    assert revalidate_witness(report.scf, "gsp", report.witness)
    report = check_gsp(builtin("dictator-tiebreak", domain, voter=0))
    assert report.holds and report.checked == 815_702_160


# ---------------------------------------------------------------------------
# exact-ordinal GSP oracle, block boundaries, shared contexts
# ---------------------------------------------------------------------------


def _reference_doc(scf, prop, scan, *args):
    """``report_to_dict``'s form of a reference scan's result."""
    holds, checked, witness = scan(scf, *args)
    doc = {"property": prop, "holds": holds}
    if witness is not None:
        doc["witness"] = witness_to_dict(prop, witness, scf)
    doc["checked"] = checked
    return doc


def _reference_gsp_doc(scf):
    return _reference_doc(scf, "gsp", reference_gsp_scan)


def _pair_docs(scf):
    return (
        _reference_gsp_doc(scf),
        _reference_doc(scf, "pr", reference_pair_scan, "pr"),
        _reference_doc(scf, "apr", reference_pair_scan, "apr"),
    )


def test_gsp_matches_reference_on_whole_strict_universe(abc):
    strict = sorted(enumerate_strict_orders(3), key=lambda o: o.ranks)[:3]
    domain = Domain.shared(FeasibleSet.explicit(abc, strict), 2)
    holding = 0
    for values in itertools.product(range(3), repeat=9):
        scf = Scf.from_table(domain, values)
        expected = _reference_gsp_doc(scf)
        holding += expected["holds"]
        assert report_to_dict(check_gsp(scf)) == expected
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
    # The pair checkers take no blocks, so cells=1 and 40, which split the
    # other scans' blocks, change nothing.
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
        assert report_to_dict(check_gsp(scf)) == expected
        both = check_pr_apr(scf)
        assert report_to_dict(both["pr"]) == pr_doc
        assert report_to_dict(both["apr"]) == apr_doc
        assert report_to_dict(check_apr(scf)) == apr_doc
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


def test_a_pr_violation_revalidates_only_under_its_own_kind(pr_not_apr_rule, paper_rule):
    scf = pr_not_apr_rule
    report = check_pr(scf)
    data = witness_to_dict("pr", report.witness, scf)
    assert (data["kind"], data["profile_p"], data["profile_q"]) == (
        "pr", ["a>b>c", "b>a>c"], ["a>c>b", "b>c>a"]
    )
    assert revalidate_witness(scf, "pr", report.witness)
    assert not revalidate_witness(scf, "apr", report.witness)
    as_apr = dataclasses.replace(report.witness, kind="apr")
    assert not revalidate_witness(scf, "apr", as_apr)
    # An APR violation is a PR violation too, but its witness is filed as
    # APR's.
    apr = check_apr(paper_rule).witness
    assert revalidate_witness(paper_rule, "apr", apr)
    assert not revalidate_witness(paper_rule, "pr", apr)
    for kind in ("zz", "PR", None, ["pr"]):
        with pytest.raises(ParseError, match="is neither 'pr' nor 'apr'"):
            witness_from_dict({**data, "kind": kind}, scf)


@pytest.mark.parametrize("prop", ["pr", "apr", "dictator"])
def test_a_witness_of_another_propertys_type_is_an_argument_error(paper_rule, prop):
    # A manipulation stands only for ISP and GSP: filed under a property
    # that reports another type, it is refused, not read as that type.
    witness = check_isp(paper_rule).witness
    with pytest.raises(PrefrevError) as info:
        revalidate_witness(paper_rule, prop, witness)
    assert str(info.value) == f"a 'manipulation' witness does not stand for property {prop!r}"
    for fits, types in properties.WITNESS_TYPES.items():
        assert ("manipulation" in types) == (fits in ("isp", "gsp"))
    with pytest.raises(PrefrevError, match="unknown property 'zz'"):
        revalidate_witness(paper_rule, "zz", witness)


def test_a_pr_analysis_needs_one_entry_per_voter(paper_rule):
    # A truncated analysis names voters 1..m in order, m < n: it is refused
    # when read, not when re-validation indexes past it.
    data = witness_to_dict("pr", check_pr(paper_rule).witness, paper_rule)
    with pytest.raises(ParseError) as info:
        witness_from_dict({**data, "analysis": data["analysis"][:1]}, paper_rule)
    assert str(info.value) == "PR analysis needs 2 entries, one per voter; it has 1"


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


# ---------------------------------------------------------------------------
# the batched verdict kernel
# ---------------------------------------------------------------------------


def test_table_verdicts_match_the_checkers_on_a_whole_universe():
    # Every table of 2 voters x 3 strict orders into k=3: 19,683 tables.
    abc = AlternativeSet.letters(3)
    strict = sorted(enumerate_strict_orders(3), key=lambda o: o.ranks)
    domain = Domain.shared(FeasibleSet.explicit(abc, strict[:3]), 2)
    import numpy as np

    tables = np.array(list(itertools.product(range(3), repeat=9)), dtype=np.uint8)
    verdicts = properties.table_verdicts(domain, tables, properties.CHECKERS)
    assert {p: int(v.sum()) for p, v in verdicts.items()} == {
        "isp": 11, "gsp": 11, "pr": 11, "apr": 11, "dictator": 2,
    }
    for i, row in enumerate(tables):
        scf = Scf.from_table(domain, row)
        both = check_pr_apr(scf)
        got = (check_isp(scf).holds, check_gsp(scf).holds, both["pr"].holds,
               both["apr"].holds, check_dictator(scf).holds)
        want = tuple(bool(verdicts[p][i]) for p in ("isp", "gsp", "pr", "apr", "dictator"))
        assert got == want, i


def _uneven_domain(rng):
    """1-3 voters, k = 2-4, each voter a sample of the weak orders (some
    voters get a single one)."""
    from prefrev import enumerate_weak_orders

    k = rng.randint(2, 4)
    alts = AlternativeSet.letters(k)
    weak = list(enumerate_weak_orders(k))
    n = rng.randint(1, 3)
    most = min(3 if n == 3 else 5, len(weak))
    return Domain(tuple(
        FeasibleSet.explicit(
            alts, rng.sample(weak, 1 if rng.random() < 0.15 else rng.randint(2, most))
        )
        for _ in range(n)
    ))


def _seeded_table(rng, domain):
    """A dictator rule, a table on two alternatives, or one on all of them."""
    count, k = domain.profile_count(), domain.k
    kind = rng.randrange(3)
    if kind == 0:
        voter = rng.randrange(domain.n)
        return tabulate(builtin("dictator-tiebreak", domain, voter=voter))
    values = rng.sample(range(k), 2) if kind == 1 else range(k)
    return Scf.from_table(domain, [rng.choice(values) for _ in range(count)])


def _assert_kernel_matches_oracles(domain, scfs):
    import numpy as np

    block = np.stack([scf.table for scf in scfs])
    verdicts = properties.table_verdicts(domain, block, properties.CHECKERS)
    for i, scf in enumerate(scfs):
        want = {
            "isp": naive_isp_holds(scf),
            "gsp": naive_gsp_holds(scf),
            "pr": naive_pr_holds(scf),
            "apr": naive_apr_holds(scf),
            "dictator": check_dictator(scf).holds,
        }
        assert {p: bool(v[i]) for p, v in verdicts.items()} == want, i
    return verdicts


@pytest.mark.parametrize("cells", [None, 1, 40])
def test_table_verdicts_match_the_naive_oracles_on_uneven_domains(monkeypatch, cells):
    # cells=1 gives every table of the block its own pass of the pair
    # verdicts and splits the dictatorship check's blocks; 40 splits them
    # unevenly.
    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    rng = random.Random(20240511)
    seen = {p: set() for p in properties.CHECKERS}
    shapes = set()
    for _ in range(60):
        domain = _uneven_domain(rng)
        shapes.add((domain.n, min(len(fs) for fs in domain.feasible)))
        verdicts = _assert_kernel_matches_oracles(
            domain, [_seeded_table(rng, domain) for _ in range(5)]
        )
        for prop, holds in verdicts.items():
            seen[prop].update(bool(x) for x in holds)
    assert all(outcomes == {True, False} for outcomes in seen.values())
    assert {n for n, _ in shapes} == {1, 2, 3}
    assert any(smallest == 1 for _, smallest in shapes)  # a singleton feasible set


def _drop_kept_rows(domain):
    """Drop the rows a domain's scan context keeps, its ISP rows and its
    elimination words, so that the next call builds its own."""
    ctx = domain._scan_context
    vars(ctx).pop("isp_rows", None)
    ctx.eliminations.clear()


@pytest.mark.parametrize("cells", [None, 1, 40])
def test_table_verdicts_without_cached_rows_match_the_naive_oracles(monkeypatch, cells):
    # Every call starts from a context that keeps no rows, so it builds its
    # ISP rows and the elimination words of its own sections.
    import numpy as np

    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    rng = random.Random(20240512)
    seen = {p: set() for p in properties.CHECKERS}
    for _ in range(40):
        domain = _uneven_domain(rng)
        scfs = [_seeded_table(rng, domain) for _ in range(5)]
        for per_call in (scfs, scfs[:1]):
            _drop_kept_rows(domain)
            verdicts = _assert_kernel_matches_oracles(domain, per_call)
            for prop, holds in verdicts.items():
                seen[prop].update(bool(x) for x in holds)
    assert all(outcomes == {True, False} for outcomes in seen.values())
    # The whole 19,683-table universe: a call for fewer properties reads the
    # words built for all of them, and gives the verdicts of a context that
    # keeps no rows.
    domain = _strict_prefix_domain(3, 2, 3)
    tables = np.array(list(itertools.product(range(3), repeat=9)), dtype=np.uint8)
    kept = properties.table_verdicts(domain, tables, properties.CHECKERS)
    for props in (("isp",), ("gsp",), ("pr",), ("apr",), ("pr", "apr"), ("isp", "gsp")):
        verdicts = properties.table_verdicts(domain, tables, props)
        assert list(domain._scan_context.eliminations) == [("gsp", "acc", "pr")]
        assert {p: v.tolist() for p, v in verdicts.items()} == {p: kept[p].tolist() for p in props}
    _drop_kept_rows(domain)
    fresh = properties.table_verdicts(domain, tables, properties.CHECKERS)
    assert {p: v.tolist() for p, v in fresh.items()} == {p: v.tolist() for p, v in kept.items()}


@pytest.mark.parametrize("cache", [None, 0])
def test_isp_verdict_rows_lie_inside_the_other_pair_rows(monkeypatch, cache):
    # The search relies on it: a pair that breaks ISP breaks GSP, PR and APR
    # too, so a table outside ISP fails all four properties and a search by
    # ISP alone keeps every table where any of them holds.  Here over whole
    # universes of small uneven domains, where ISP tables are not rare;
    # cache=0 drops the context's rows before each block.
    import numpy as np

    props = ("isp", "gsp", "pr", "apr")
    rng = random.Random(20240513)
    isp = strict = walked = 0
    while walked < 100:
        domain = _uneven_domain(rng)
        if domain.k ** domain.profile_count() > 5000:
            continue
        walked += 1
        values = itertools.product(range(domain.k), repeat=domain.profile_count())
        tables = np.array(list(values), dtype=np.uint8)
        for lo in range(0, len(tables), 1000):
            if cache == 0:
                _drop_kept_rows(domain)
            verdicts = properties.table_verdicts(domain, tables[lo : lo + 1000], props)
            for prop in props[1:]:
                assert not (verdicts[prop] & ~verdicts["isp"]).any(), prop
            isp += int((~verdicts["isp"]).sum())
            strict += int((verdicts["isp"] & ~verdicts["gsp"]).sum())
    # Not vacuous: ISP breaks somewhere, and GSP where ISP does not.
    assert isp and strict


@pytest.mark.parametrize("orders, voters", [
    (("a~b>c~d", "d>c>a~b", "b~c>a~d"), 2),
    (("a~b>c", "c>a~b", "a>b~c"), 2),
    (("a~b>c", "c>a~b"), 3),
    # Each voter's first m orders: the first 2-voter universe's tables,
    # with a third voter who never changes.
    (("a~b>c~d", "d>c>a~b", "b~c>a~d"), (3, 3, 1)),
])
@pytest.mark.parametrize("cells", [None, 7])
def test_table_verdicts_match_the_oracles_on_every_verdict_pattern(
    monkeypatch, orders, voters, cells
):
    # Random tables rarely tell the properties apart, so walk the first
    # 4,096 canonical tables of a weak-order universe and check up to three
    # tables of each verdict pattern the kernel reports, ISP-but-not-PR
    # tables included.  cells=7 gives each profile row its own pass.
    import numpy as np

    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)

    alts = AlternativeSet.letters(len(orders[0].replace("~", ">").split(">")))
    parsed = [parse_order(text, alts) for text in orders]
    if isinstance(voters, int):
        domain = Domain.shared(FeasibleSet.explicit(alts, parsed), voters)
    else:
        domain = Domain(tuple(FeasibleSet.explicit(alts, parsed[:m]) for m in voters))
    count = domain.profile_count()
    numbers = np.arange(4096)
    tables = np.stack(
        [(numbers // alts.k ** (count - 1 - p)) % alts.k for p in range(count)], axis=1
    ).astype(np.uint8)
    verdicts = properties.table_verdicts(domain, tables, properties.CHECKERS)
    # The kernel's ISP counts the voters who changed; a miscount would move
    # an ISP table into a failing pattern, where no pick may show it, so
    # every ISP verdict is compared with check_isp's line method.
    assert verdicts["isp"].tolist() == [
        check_isp(Scf.from_table(domain, table)).holds for table in tables
    ]
    patterns = {}
    for i in range(len(tables)):
        key = tuple(bool(verdicts[p][i]) for p in properties.CHECKERS)
        patterns.setdefault(key, []).append(i)
    picked = [i for rows in patterns.values() for i in rows[:3]]
    _assert_kernel_matches_oracles(domain, [Scf.from_table(domain, tables[i]) for i in picked])
    assert len(patterns) >= 3


def _strict_prefix_domain(k, voters, orders):
    alts = AlternativeSet.letters(k)
    strict = sorted(enumerate_strict_orders(k), key=lambda o: o.ranks)
    return Domain.shared(FeasibleSet.explicit(alts, strict[:orders]), voters)


def test_table_verdicts_split_a_table_larger_than_a_block():
    # 2 voters x 30 strict orders at k=5: 900 profiles, 1.6M (voter, P, Q)
    # cells, past a block, decided with no array over the pairs.
    import numpy as np

    domain = _strict_prefix_domain(5, 2, 30)
    count = domain.profile_count()
    assert domain.n * count * count > properties._BLOCK_CELLS
    rng = random.Random(7)
    dictator = tabulate(builtin("dictator-tiebreak", domain, voter=1))
    late = [0] * count
    late[-1] = 4
    scfs = [
        dictator,
        Scf.from_table(domain, late),
        Scf.from_table(domain, [rng.choice((0, 3)) for _ in range(count)]),
    ]
    block = np.stack([scf.table for scf in scfs])
    verdicts = properties.table_verdicts(domain, block, properties.CHECKERS)
    for i, scf in enumerate(scfs):
        both = check_pr_apr(scf)
        want = {
            "dictator": check_dictator(scf).holds,
            "isp": check_isp(scf).holds,
            "gsp": check_gsp(scf).holds,
            "pr": both["pr"].holds,
            "apr": both["apr"].holds,
        }
        assert {p: bool(v[i]) for p, v in verdicts.items()} == want, i
    assert all(verdicts[p][0] for p in properties.CHECKERS)
    assert not verdicts["gsp"][1]


def test_table_verdicts_split_a_large_table_without_cached_rows(monkeypatch):
    # The same 900-profile domain, with passes of one table and a context
    # that keeps no rows: each pass builds nothing twice and gives the
    # verdicts of one pass over the block.
    import numpy as np

    domain = _strict_prefix_domain(5, 2, 30)
    count = domain.profile_count()
    rng = random.Random(7)
    scfs = [
        tabulate(builtin("dictator-tiebreak", domain, voter=0)),
        Scf.from_table(domain, [0] * (count - 1) + [2]),
        Scf.from_table(domain, [rng.choice((1, 4)) for _ in range(count)]),
    ]
    want = properties.table_verdicts(
        domain, np.stack([scf.table for scf in scfs]), properties.CHECKERS
    )
    assert want["isp"][0] and not want["gsp"][1]
    monkeypatch.setattr(properties, "_BLOCK_CELLS", 8 * count)
    for per_block in (scfs, scfs[1:2]):
        fresh = _strict_prefix_domain(5, 2, 30)
        block = np.stack([scf.table for scf in per_block])
        verdicts = properties.table_verdicts(fresh, block, properties.CHECKERS)
        assert list(fresh._scan_context.eliminations) == [("gsp", "acc", "pr")]
        rows = [scfs.index(scf) for scf in per_block]
        assert {p: v.tolist() for p, v in verdicts.items()} == {
            p: v[rows].tolist() for p, v in want.items()
        }


@pytest.mark.parametrize("cache", [None, 0])
@pytest.mark.parametrize("cells", [None, 1, 100])
@pytest.mark.parametrize("k, sizes", [
    (3, (3, 7)),   # elimination rows of 3 * 9 bits: one uint32 word
    (4, (4, 4)),   # 3 * 16 bits: one uint64 word
    (5, (13,)),    # 3 * 25 bits: two uint64 words
])
def test_table_verdicts_on_rows_around_a_word(monkeypatch, k, sizes, cells, cache):
    # cache=0 drops the context's rows before each call, so that every call
    # builds its own.
    from prefrev import enumerate_weak_orders

    rng = random.Random(k * 100 + len(sizes))
    alts = AlternativeSet.letters(k)
    weak = list(enumerate_weak_orders(k))
    domain = Domain(tuple(FeasibleSet.explicit(alts, rng.sample(weak, m)) for m in sizes))
    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    seen = {p: set() for p in properties.CHECKERS}
    for _ in range(4):
        if cache == 0:
            _drop_kept_rows(domain)
        verdicts = _assert_kernel_matches_oracles(
            domain, [_seeded_table(rng, domain) for _ in range(6)]
        )
        for prop, holds in verdicts.items():
            seen[prop].update(bool(x) for x in holds)
    assert all(outcomes == {True, False} for outcomes in seen.values())
    words = domain._scan_context.eliminations[("gsp", "acc", "pr")][0]
    assert words.dtype.itemsize * words.shape[1] * 8 == {3: 32, 4: 64, 5: 128}[k]


def test_table_verdicts_apply_the_pair_guards():
    import numpy as np

    guard = "pairwise scan needs 2176735680 ordered pairs, guard is 2000000000"
    # 3 voters x 36 strict orders: 46,656 profiles, over 2*10^9 ordered pairs.
    domain = _strict_prefix_domain(5, 3, 36)
    table = np.zeros((1, domain.profile_count()), dtype=np.uint8)
    for props in (("isp",), ("gsp",), ("pr", "apr"), ("isp", "gsp", "dictator")):
        with pytest.raises(ResourceGuardError, match=guard):
            properties.table_verdicts(domain, table, props)
    # The refusal comes before the whole-space digits or any row is built.
    ctx = domain._scan_context
    assert "digits" not in vars(ctx) and "isp_rows" not in vars(ctx)
    assert not ctx.eliminations
    # The checkers raise the same guard; the ISP and dictatorship checkers
    # do not scan pairs.
    phi = Scf.from_table(domain, table[0])
    for check in (check_gsp, check_pr, check_apr, check_pr_apr):
        with pytest.raises(ResourceGuardError, match=guard):
            check(phi)
    assert check_isp(phi).holds and not check_dictator(phi).holds
    # Dictatorship is not a pair property: no guard, and a constant table
    # has no dictator.
    assert not properties.table_verdicts(domain, table, ("dictator",))["dictator"][0]


# ---------------------------------------------------------------------------
# the serial scans, the table verdicts' passes and the domain's scan context
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cells", [None, 1, 7, 40])
def test_isp_and_dictator_match_the_reference_scans(monkeypatch, cells):
    # cells=1 gives every profile its own block; 7 and 40 split the ISP
    # rows and the dictatorship voters unevenly.
    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    rng = random.Random(1306)
    seen, shapes = set(), set()
    for _ in range(100):
        domain = _uneven_domain(rng)
        shapes.add((domain.n, min(len(fs) for fs in domain.feasible)))
        tables = [_seeded_table(rng, domain) for _ in range(2)]
        tables.append(Scf.from_table(domain, [rng.randrange(domain.k)] * domain.profile_count()))
        for scf in tables:
            isp = _reference_doc(scf, "isp", reference_isp_scan)
            dictator = _reference_doc(scf, "dictator", reference_dictator_scan)
            seen.update({("isp", isp["holds"]), ("dictator", dictator["holds"])})
            assert report_to_dict(check_isp(scf)) == isp
            assert report_to_dict(check_dictator(scf)) == dictator
    assert seen == {(p, h) for p in ("isp", "dictator") for h in (True, False)}
    assert {n for n, _ in shapes} == {1, 2, 3}
    assert any(smallest == 1 for _, smallest in shapes)  # a singleton feasible set


def _isp_domain(rng, k):
    """1-3 voters, each a sample of the weak orders on k alternatives; about
    one voter in five has a single order."""
    from prefrev import enumerate_weak_orders

    alts = AlternativeSet.letters(k)
    weak = list(enumerate_weak_orders(k))
    n = rng.randint(1, 3)
    most = min(4 if n == 3 else 7, len(weak))
    return Domain(tuple(
        FeasibleSet.explicit(
            alts, rng.sample(weak, 1 if rng.random() < 0.2 else rng.randint(min(2, most), most))
        )
        for _ in range(n)
    ))


@pytest.mark.parametrize("cells", [None, 1, 24])
def test_isp_matches_the_reference_scan_on_seeded_tables(monkeypatch, cells):
    # 700 tables a block size, so 2,100 in all: n = 1-3, k = 1-4, holding
    # rules (dictators, constants) and random tables on two alternatives
    # or on all.  The patched sizes set both the chunks a domain's lines
    # are cut into and the blocks of chunks a scan takes.
    if cells is not None:
        monkeypatch.setattr(properties, "_FIRST_CELLS", cells)
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    rng = random.Random(1606)
    seen = set()
    for _ in range(350):
        domain = _isp_domain(rng, rng.randint(1, 4))
        count, k = domain.profile_count(), domain.k
        scfs = [
            tabulate(builtin("dictator-tiebreak", domain, voter=rng.randrange(domain.n))),
            Scf.from_table(domain, [rng.randrange(k)] * count),
            Scf.from_table(domain, [rng.randrange(k) for _ in range(count)]),
            Scf.from_table(domain, [rng.choice(rng.sample(range(k), min(k, 2))) for _ in range(count)]),
        ]
        for scf in rng.sample(scfs, 2):
            doc = _reference_doc(scf, "isp", reference_isp_scan)
            assert report_to_dict(check_isp(scf)) == doc
            seen.add(("holds", doc["holds"]))
            seen.add(("n", domain.n))
            seen.add(("k", k))
            seen.add(("single", min(len(fs) for fs in domain.feasible) == 1))
    assert seen == {("holds", True), ("holds", False), ("single", True), ("single", False)} | {
        ("n", n) for n in (1, 2, 3)
    } | {("k", k) for k in (1, 2, 3, 4)}


@pytest.mark.parametrize("cells", [None, 1, 7, 60])
def test_key_blocks_give_every_profiles_orders_and_lines(monkeypatch, cells):
    # Each voter's blocks are boxes of consecutive cells of a table given
    # whole, whose cells are its profiles, on uneven domains: voters with
    # one, two or more orders, in every place.  Each cell's key reads the
    # voter's order and phi, and its set is the voter's line through it.
    import numpy as np

    from prefrev.scf import class_grid

    if cells is not None:
        monkeypatch.setattr(properties, "_FIRST_CELLS", cells)
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    rng = random.Random(cells)
    alts = AlternativeSet.letters(3)
    weak = list(FeasibleSet.universal_weak(alts))
    for sizes in ((3, 1, 2, 3), (1, 5), (2, 2, 2), (13, 1, 1), (4, 3, 2, 1), (1, 1, 7, 2)):
        domain = Domain(tuple(FeasibleSet.explicit(alts, weak[:m]) for m in sizes))
        ctx = domain._scan_context
        table = np.array([rng.randrange(3) for _ in range(ctx.count)], np.uint8)
        grid = class_grid(Scf.from_table(domain, table))
        for v in range(ctx.n):
            others = [u for u in range(ctx.n) if u != v]
            line = np.ravel_multi_index(ctx.digits[others], [sizes[u] for u in others])
            present = np.arange(ctx.count // sizes[v]).reshape(
                math.prod(sizes[:v]), math.prod(sizes[v + 1:]), 1
            )
            blocks = list(ctx.key_blocks(grid, v, present))
            ends = np.cumsum([keys.size for _, keys, _ in blocks])
            assert [lo for lo, _, _ in blocks] == [0, *ends[:-1]] and ends[-1] == ctx.count
            keys = np.concatenate([keys.reshape(-1) for _, keys, _ in blocks])
            sets = np.concatenate([
                np.broadcast_to(at, keys.shape + (1,)).reshape(-1) for _, keys, at in blocks
            ])
            assert (keys == (ctx.order_base[v] + ctx.digits[v]) * ctx.k + table).all()
            assert (sets == line).all(), (sizes, v)


@pytest.mark.parametrize("cells", [1, 7, 60, 1 << 12])
def test_context_digits_and_chunks_match_the_division_formulas(monkeypatch, cells):
    # The grid-built digits are what dividing each profile number by the
    # strides gave, dtype included.  Block i of each voter's key_blocks
    # holds at most cells / n * 2**i cells, never more than the serial
    # block, and its keys read the voter's digit as the division gives it.
    import numpy as np

    from prefrev.scf import class_grid

    monkeypatch.setattr(properties, "_FIRST_CELLS", cells)
    alts = AlternativeSet.letters(3)
    weak = list(FeasibleSet.universal_weak(alts))
    for sizes in ((3, 1, 2, 3), (1, 5), (2, 2, 2), (13, 1, 1), (7,), (1, 1, 7, 2), (13, 13, 13, 13)):
        domain = Domain(tuple(FeasibleSet.explicit(alts, weak[:m]) for m in sizes))
        ctx = domain._scan_context
        n, count, k = ctx.n, ctx.count, ctx.k
        idx = np.arange(count, dtype=np.min_scalar_type(count))
        digits = np.stack([
            (idx // stride) % size for stride, size in zip(ctx.strides, sizes)
        ]).astype(np.min_scalar_type(max(sizes)))
        assert ctx.digits.dtype == digits.dtype
        assert (ctx.digits == digits).all()
        grid = class_grid(Scf.from_table(domain, np.zeros(count, np.uint8)))
        for v in range(n):
            blocks = [keys for _, keys, _ in ctx.key_blocks(grid, v)]
            first, most = max(1, cells // n), min(properties._SERIAL_CELLS, properties._BLOCK_CELLS)
            assert all(b.size <= min(first << i, most) for i, b in enumerate(blocks))
            keys = np.concatenate([keys.reshape(-1) for keys in blocks])
            assert (keys == (ctx.order_base[v] + digits[v]) * k).all()


@pytest.mark.parametrize("cells", [1, 6, 20])
def test_isp_failure_in_the_first_middle_and_last_block(monkeypatch, cells):
    # Every order ranks c last, so in a constant-a table with c at one
    # profile the first ISP failure is there: the voters at that profile
    # gain a by leaving it, and no one else gains c by moving to it.
    from prefrev.scf import class_grid

    monkeypatch.setattr(properties, "_FIRST_CELLS", cells)
    monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    alts = AlternativeSet.letters(3)
    orders = [parse_order(text, alts) for text in ("a>b>c", "b>a>c", "a~b>c")]
    domain = Domain(tuple(
        FeasibleSet.explicit(alts, orders[:m]) for m in (3, 1, 2, 3)
    ))
    count = domain.profile_count()
    zeros = class_grid(Scf.from_table(domain, [0] * count))
    starts = [lo for lo, _, _ in domain._scan_context.key_blocks(zeros, 0)]
    assert len(starts) >= 3
    for profile in (0, starts[len(starts) // 2], count - 1):
        values = [0] * count
        values[profile] = 2
        scf = Scf.from_table(domain, values)
        doc = _reference_doc(scf, "isp", reference_isp_scan)
        assert (doc["checked"] - 1) // 5 == profile  # 2 + 0 + 1 + 2 cases a profile
        assert report_to_dict(check_isp(scf)) == doc
    assert report_to_dict(check_isp(Scf.from_table(domain, [0] * count))) == {
        "property": "isp", "holds": True, "checked": 5 * count,
    }


def test_isp_on_bit_rows_wider_than_a_byte():
    # k = 10: the outcome sets and the better-than rows take two bytes.
    rng = random.Random(10)
    alts = AlternativeSet.letters(10)

    def weak_order():
        levels = [rng.randrange(4) for _ in range(10)]
        used = sorted(set(levels))
        return WeakOrder(tuple(used.index(level) for level in levels))

    for _ in range(30):
        domain = Domain(tuple(
            FeasibleSet.explicit(alts, [weak_order() for _ in range(rng.randint(1, 6))])
            for _ in range(rng.randint(1, 3))
        ))
        count = domain.profile_count()
        for values in (
            [rng.randrange(10) for _ in range(count)],
            [rng.choice((1, 8, 9)) for _ in range(count)],
        ):
            scf = Scf.from_table(domain, values)
            assert report_to_dict(check_isp(scf)) == _reference_doc(scf, "isp", reference_isp_scan)


def test_isp_checked_count_on_a_holding_weak_dictator():
    # 75 weak orders a voter: 5,625 profiles and 74 + 74 deviations each.
    domain = Domain.shared(FeasibleSet.universal_weak(AlternativeSet.letters(4)), 2)
    report = check_isp(tabulate(builtin("dictator-tiebreak", domain, voter=1)))
    assert report.holds
    assert report.checked == 5625 * (74 + 74) == 832_500


def _edge_domain():
    alts = AlternativeSet.letters(3)

    def orders(*texts):
        return FeasibleSet.explicit(alts, [parse_order(text, alts) for text in texts])

    return Domain((orders("a~b>c", "c>a~b", "a>b~c"), orders("a>b>c", "c>b>a", "b>a~c")))


# Tables on _edge_domain (9 profiles, 8 GSP and 8 PR/APR cases a row), by
# the block of the first GSP, PR and APR violation when blocks hold 5 rows:
# the last block is the short one, rows 5-8.
_EDGE_TABLES = {
    "first": ((0, 0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0)),
    "last": ((0, 0, 0, 0, 0, 0, 0, 0, 1), (1, 1, 1)),
    "split": ((0, 1, 1, 0, 1, 1, 0, 1, 0), (1, 0, 1)),
}


@pytest.mark.parametrize("cells", [120, 90, 80, 72, 40, 32, 20, 16, 8, 1, None])
def test_buffered_pair_pass_on_first_last_and_split_blocks(monkeypatch, cells):
    # The tables put the first violation in the first, the last and a
    # middle block of 5 P rows.  table_verdicts takes no P rows apart: it
    # takes the tables in passes of _BLOCK_CELLS // 72 (8 bytes a profile),
    # so every cells value here gives passes of one table and the default
    # one pass.  Each call is made with the context's rows kept and dropped.
    # The checkers, which take no blocks, give the reference scans' docs.
    import numpy as np

    domain = _edge_domain()
    expected = {}
    for name, (values, blocks) in _EDGE_TABLES.items():
        scf = Scf.from_table(domain, values)
        docs = _pair_docs(scf)
        assert tuple((doc["checked"] - 1) // 8 // 5 for doc in docs) == blocks
        assert not any(doc["holds"] for doc in docs)
        assert not (naive_gsp_holds(scf) or naive_pr_holds(scf) or naive_apr_holds(scf))
        expected[name] = (scf, docs)
    constant = Scf.from_table(domain, [0] * 9)
    for name, (scf, docs) in expected.items():
        _assert_pair_pass(scf, docs)
    tables = np.stack([constant.table] + [scf.table for scf, _ in expected.values()])
    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    for drop in (True, False):
        for props in (("gsp",), ("pr",), ("apr",), ("gsp", "pr", "apr")):
            for table in tables:  # one table a call, and all at once
                if drop:
                    _drop_kept_rows(domain)
                verdicts = properties.table_verdicts(domain, table[None], props)
                assert [bool(verdicts[p][0]) for p in props] == [not table.any()] * len(props)
            verdicts = properties.table_verdicts(domain, tables, props)
            assert all(verdicts[p].tolist() == [True, False, False, False] for p in props)


def test_a_domain_and_its_scan_context_die_together(abc):
    import numpy as np

    domain = Domain.shared(FeasibleSet.universal_weak(abc), 2)
    phi = tabulate(builtin("plurality-tiebreak", domain))
    for check in properties.CHECKERS.values():
        check(phi)
    properties.table_verdicts(domain, np.stack([phi.table]), properties.CHECKERS)
    assert domain._scan_context.eliminations
    alive = weakref.ref(domain)
    del domain, phi
    gc.collect()
    assert alive() is None


# ---------------------------------------------------------------------------
# the pair checkers, and table verdicts on a context that keeps no rows
# ---------------------------------------------------------------------------


def _assert_pair_pass(scf, docs=None):
    docs = docs or _pair_docs(scf)
    both = check_pr_apr(scf)
    got = (check_gsp(scf), both["pr"], both["apr"])
    assert tuple(map(report_to_dict, got)) == docs
    assert report_to_dict(check_pr(scf)) == docs[1]
    assert report_to_dict(check_apr(scf)) == docs[2]
    return docs


@pytest.mark.parametrize("cells", [None, 1, 40])
def test_pair_pass_through_cache_flushes(monkeypatch, cells):
    # table_verdicts against the checkers, one table a call (so cells
    # changes no pass).  The context's rows are flushed before each table:
    # the call for all three properties builds words over their three
    # sections, and the calls for one property then read those words.  The
    # checkers give the reference scans' docs.
    tables = [(scf, _pair_docs(scf)) for scf in _uneven_tables(120, seed=77)]
    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    for scf, docs in tables:
        _assert_pair_pass(scf, docs)
        _drop_kept_rows(scf.domain)
        props = ("gsp", "pr", "apr")
        verdicts = properties.table_verdicts(scf.domain, scf.table[None], props)
        assert [bool(verdicts[p][0]) for p in props] == [doc["holds"] for doc in docs]
        for prop, doc in zip(props, docs):
            alone = properties.table_verdicts(scf.domain, scf.table[None], (prop,))
            assert bool(alone[prop][0]) == doc["holds"]
        assert list(scf.domain._scan_context.eliminations) == [("gsp", "acc", "pr")]


@pytest.mark.parametrize("cells", [None, 1, 7])
def test_pair_pass_on_one_voter_and_single_order_voters(monkeypatch, cells):
    rng = random.Random(31)
    alts = AlternativeSet.letters(4)
    weak = list(FeasibleSet.universal_weak(alts))
    domains = [Domain((FeasibleSet.explicit(alts, weak),))]  # 75 profiles
    domains += [Domain((FeasibleSet.explicit(alts, rng.sample(weak, m)),)) for m in (1, 2, 9)]
    one = FeasibleSet.explicit(alts, [weak[3]])
    domains += [
        Domain((one, FeasibleSet.explicit(alts, rng.sample(weak, 6)))),
        Domain((FeasibleSet.explicit(alts, rng.sample(weak, 5)), one, one)),
        Domain((one, one)),
    ]
    if cells is not None:
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    seen = set()
    for domain in domains:
        count = domain.profile_count()
        for values in (
            [rng.randrange(4) for _ in range(count)],
            [rng.choice((0, 2)) for _ in range(count)],
            [0] * count,
        ):
            docs = _assert_pair_pass(Scf.from_table(domain, values))
            seen.update(doc["holds"] for doc in docs)
    assert seen == {True, False}


# In canonical (rank vector) order, so the first strictly prefers b to a.
_B_OVER_A = ["b~c>a", "b>a>c", "c>a>b", "b>c>a", "c>b>a"]


@pytest.mark.parametrize("sizes", [
    (2, 4), (4, 4), (3, 3), (3, 4), (4, 5), (2, 3, 2), (2, 2, 2, 2), (5,),
])
def test_pair_pass_finds_a_violation_in_the_last_bit(sizes):
    # Every voter's first order strictly prefers b to a, and the table is a
    # everywhere but at the last profile.  Row 0 is the first with a
    # violation and its only one is Q = count - 1, where every voter has
    # changed: the last column of the first failing row.
    alts = AlternativeSet.letters(3)
    domain = Domain(tuple(
        FeasibleSet.explicit(alts, [parse_order(text, alts) for text in _B_OVER_A[:m]])
        for m in sizes
    ))
    count = domain.profile_count()
    scf = Scf.from_table(domain, [0] * (count - 1) + [1])
    docs = _assert_pair_pass(scf)
    for doc in docs[1:]:
        assert doc["checked"] == count - 1
        assert doc["witness"]["profile_q"] == [
            format_order(fs[len(fs) - 1], alts) for fs in domain.feasible
        ]
    assert docs[0]["witness"]["coalition"] == list(range(1, len(sizes) + 1))
    assert not any(doc["holds"] for doc in docs)


def _random_weak_order(rng, k):
    levels = [rng.randrange(k) for _ in range(k)]
    used = sorted(set(levels))
    return WeakOrder(tuple(used.index(level) for level in levels))


def _pair_oracle_tables(rng, k, n):
    """A domain of n voters over k alternatives, one set shared by all or
    one per voter, about one voter in five with a single order, and its
    tables: a dictator and a constant, which hold every pair property; a
    random table on all alternatives and one on two; and a table that
    differs from a constant only at the last profile."""
    alts = AlternativeSet.letters(k)
    most = (12, 6, 3, 2)[n - 1]

    def feasible():
        size = 1 if rng.random() < 0.2 else rng.randint(2, most)
        return FeasibleSet.explicit(alts, [_random_weak_order(rng, k) for _ in range(size)])

    shared = rng.random() < 0.3
    domain = Domain.shared(feasible(), n) if shared else Domain(
        tuple(feasible() for _ in range(n))
    )
    count = domain.profile_count()
    two = rng.sample(range(k), min(2, k))
    late = [two[0]] * count
    late[-1] = two[-1]
    tables = [
        tabulate(builtin("dictator-tiebreak", domain, voter=rng.randrange(n))),
        Scf.from_table(domain, [rng.randrange(k)] * count),
        Scf.from_table(domain, [rng.randrange(k) for _ in range(count)]),
        Scf.from_table(domain, [rng.choice(two) for _ in range(count)]),
        Scf.from_table(domain, late),
    ]
    return shared, tables


def test_pair_checkers_match_the_reference_scans_on_seeded_tables():
    # 1-4 voters over 1-6 alternatives: at k >= 5 the 3 k^2 bits of
    # check_pr_apr's words span two 64-bit words, and at k = 6 APR's 2 k^2
    # do too.  Every checker gives the reference scans' docs.
    rng = random.Random(2027)
    seen = set()
    for _ in range(800):
        k, n = rng.randint(1, 6), rng.randint(1, 4)
        shared, tables = _pair_oracle_tables(rng, k, n)
        domain = tables[0].domain
        seen.update({("k", k), ("n", n), ("shared", shared)})
        seen.add(("single", min(map(len, domain.feasible)) == 1))
        for scf in rng.sample(tables, 2) + tables[-1:]:
            docs = _assert_pair_pass(scf)
            seen.update((doc["property"], doc["holds"]) for doc in docs)
    assert seen == {("k", k) for k in range(1, 7)} | {("n", n) for n in range(1, 5)} | {
        (key, flag) for key in ("shared", "single", "gsp", "pr", "apr") for flag in (True, False)
    }


def test_pair_checkers_on_words_of_many_bits():
    # k = 10: GSP's and PR's 100 bits take two words, APR's 200 four and
    # check_pr_apr's 300 five.
    rng = random.Random(11)
    alts = AlternativeSet.letters(10)
    seen = set()
    for _ in range(12):
        domain = Domain(tuple(
            FeasibleSet.explicit(alts, [_random_weak_order(rng, 10) for _ in range(rng.randint(1, 5))])
            for _ in range(rng.randint(1, 3))
        ))
        count = domain.profile_count()
        for values in (
            [rng.randrange(10) for _ in range(count)],
            [rng.choice((1, 8, 9)) for _ in range(count)],
            tabulate(builtin("dictator-tiebreak", domain, voter=0)).table,
        ):
            docs = _assert_pair_pass(Scf.from_table(domain, values))
            seen.update(doc["holds"] for doc in docs)
    assert seen == {True, False}


def test_pair_checkers_count_every_pair_on_a_holding_weak_dictator():
    # 75 weak orders a voter: 5,625 profiles and 5,624 cases each.
    domain = Domain.shared(FeasibleSet.universal_weak(AlternativeSet.letters(4)), 2)
    phi = tabulate(builtin("dictator-tiebreak", domain, voter=1))
    reports = [check_gsp(phi), check_pr(phi), check_apr(phi), *check_pr_apr(phi).values()]
    assert [(r.holds, r.checked) for r in reports] == [(True, 5625 * 5624)] * 5
    assert 5625 * 5624 == 31_635_000


def test_gsp_takes_the_canonical_first_of_a_packed_row():
    # At P = (0, 0) two deviations reach b: both voters to (1, 1), column 6,
    # and voter 1 alone to (3, 0), column 15.  Single voters come first, so
    # the witness is the later column.
    alts = AlternativeSet.letters(3)
    fs = FeasibleSet.explicit(alts, [parse_order(t, alts) for t in _B_OVER_A])
    domain = Domain.shared(fs, 2)
    values = [0] * 25
    values[6] = values[15] = 1
    scf = Scf.from_table(domain, values)
    doc = _assert_pair_pass(scf)[0]
    assert doc["witness"]["coalition"] == [1]
    assert doc["checked"] == 3  # voter 1's third other order


def _naive_dictator_valid(scf, voter):
    from prefrev import iter_profiles

    table = reference_table(scf)
    return all(
        int(out) in p[voter].top_set() for p, out in zip(iter_profiles(scf.domain), table)
    )


def test_dictator_revalidation_matches_a_per_profile_check():
    rng = random.Random(404)
    seen = set()
    for _ in range(40):
        domain = _uneven_domain(rng)
        scf = _seeded_table(rng, domain)
        for voter in range(domain.n):
            valid = revalidate_witness(scf, "dictator", voter)
            assert valid == _naive_dictator_valid(scf, voter)
            seen.add(valid)
    assert seen == {True, False}
    weak2 = Domain.shared(FeasibleSet.universal_weak(AlternativeSet.letters(3)), 2)
    rule = builtin("dictator-tiebreak", weak2, voter=1)
    assert revalidate_witness(rule, "dictator", 1)
    assert not revalidate_witness(rule, "dictator", 0)
