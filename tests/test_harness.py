"""Theorem suites, counterexample search, and the quotient reduction."""

import dataclasses
import json
import os
import random

import numpy as np
import pytest

from prefrev import (
    AlternativeSet,
    ArgumentError,
    Domain,
    EnumerationSpec,
    FeasibleSet,
    Profile,
    PropertyReport,
    ResourceGuardError,
    Scf,
    WeakOrder,
    builtin,
    enumerate_scfs,
    enumerate_weak_orders,
    evaluate,
    parse_order,
    quotient_reduce,
    revalidate_witness,
    scf_to_dict,
    verdict_to_dict,
    verify_prop_apr_gsp,
    verify_summary_equivalence,
    verify_thm_complete,
    verify_thm_infinite,
    verify_thm_range3,
)
from prefrev import harness, properties
from prefrev import scf as scf_module
from prefrev.harness import quotient_to_dict


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


@pytest.mark.parametrize("guard", [None, 0], ids=["guard", "guard-0"])
@pytest.mark.parametrize("complete", [True, False], ids=["complete", "incomplete"])
def test_one_hypothesis_for_summary_equivalence_and_search(monkeypatch, complete, guard):
    from prefrev import domains, search_isp_not_pr

    if complete:
        domain = strict_prefix_domain(4, 2, 3)
    else:
        alts = AlternativeSet.letters(4)
        orders = [parse_order(t, alts) for t in ("a~b>c~d", "b~c>a~d", "d>c>a~b")]
        domain = Domain.shared(FeasibleSet.explicit(alts, orders), 2)
    if guard is not None:
        # A set whose completeness check the guard refuses is not certified.
        monkeypatch.setattr(domains, "COMPLETENESS_GUARD", guard)
    certified = complete and guard is None
    spec = EnumerationSpec(domain, (0, 1, 2, 3))
    verdict = verify_summary_equivalence(dataclasses.replace(spec, limit=50))
    assert verdict.details["equality_hypothesis"] == (
        "complete-domain" if certified else None
    )
    search = search_isp_not_pr(spec, budget=10)
    if certified:
        assert search.details == {"reason": "provably futile: every feasible set is complete"}
    else:
        assert search.details["scope"] == "budget-exhausted"


def test_range_hypothesis_runs_no_completeness_check(spec81, monkeypatch):
    from prefrev import domains, search_isp_not_pr

    def refuse(fs):
        raise AssertionError("is_complete called under the range hypothesis")

    monkeypatch.setattr(domains, "is_complete", refuse)
    verdict = verify_summary_equivalence(spec81)
    assert verdict.details["equality_hypothesis"] == "range-le-3"
    assert search_isp_not_pr(spec81, budget=10).details == {
        "reason": "provably futile: target range has at most 3 alternatives"
    }


def _cli_json(capsys, *argv):
    from prefrev.cli import main

    code = main([*argv, "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    del doc["command"]
    return code, doc


def test_suites_parallel_determinism(capsys, spec81):
    # spec81 as CLI flags: 2 voters, the first 2 strict orders at k=3.
    universe = ("--k", "3", "--voters", "2", "--orders-per-voter", "2")
    for fn, suite in ((verify_prop_apr_gsp, "prop-apr-gsp"),
                      (verify_thm_range3, "thm-range3"),
                      (verify_summary_equivalence, "summary-equivalence")):
        expected = verdict_to_dict(fn(spec81))
        for workers in ("1", "8"):
            code, doc = _cli_json(capsys, "verify", suite, *universe,
                                  "--parallelism", workers)
            assert (code, doc) == (0, {"seed": 0, **expected})


def test_walk_refuses_a_universe_past_the_pair_guard_before_any_block(monkeypatch):
    # 3 voters x 36 strict orders: 46,656 profiles, over 2*10^9 ordered pairs.
    advanced = []

    def spy_search(spec, total, props):
        advanced.append(total)
        yield from real_search(spec, total, props)

    real_search = harness._search
    monkeypatch.setattr(harness, "_search", spy_search)
    domain = strict_prefix_domain(5, 3, 36)
    spec = EnumerationSpec(domain, (0, 1, 2), limit=1)
    guard = "pairwise scan needs 2176735680 ordered pairs, guard is 2000000000"
    for suite in (verify_prop_apr_gsp, verify_thm_range3, verify_summary_equivalence):
        with pytest.raises(ResourceGuardError, match=guard):
            suite(spec)
    ctx = domain._scan_context
    assert advanced == [] and "digits" not in vars(ctx) and ctx.verdict_rows is None


def _flip(monkeypatch, prop, wrong, checker=True):
    """Give the wrong ``prop`` verdict on the tables whose bytes are in
    ``wrong``: in the search's verdict blocks, where a table the search
    prunes is put back at its place in table order, and with ``checker``
    also in the full checker, alone or in the PR/APR pass."""
    real_search = harness._search

    def flaky_search(spec, total, props):
        found = {}
        for rows, verdicts in real_search(spec, total, props):
            for i, row in enumerate(rows):
                found[row.tobytes()] = {p: bool(v[i]) for p, v in verdicts.items()}
        for raw in wrong:
            row = np.frombuffer(raw, dtype=np.uint8)
            if prop not in props or harness._table_number(spec, row) >= total:
                continue
            if raw not in found:
                kernel = properties.table_verdicts(spec.domain, row[None], props)
                found[raw] = {p: bool(v[0]) for p, v in kernel.items()}
            found[raw][prop] = not found[raw][prop]
        order = sorted(found, key=lambda raw: harness._table_number(
            spec, np.frombuffer(raw, dtype=np.uint8)))
        if order:
            rows = np.stack([np.frombuffer(raw, dtype=np.uint8) for raw in order])
            yield rows, {p: np.array([found[raw][p] for raw in order]) for p in props}

    monkeypatch.setattr(harness, "_search", flaky_search)
    if not checker:
        return

    def flipped(report):
        if report.scf.table.tobytes() in wrong:
            report = dataclasses.replace(report, holds=not report.holds)
        return report

    real_one = properties.CHECKERS[prop]
    real_pair = properties.check_pr_apr

    def flaky_pair(scf, **kwargs):
        reports = real_pair(scf, **kwargs)
        if prop in reports:
            reports[prop] = flipped(reports[prop])
        return reports

    monkeypatch.setitem(
        properties.CHECKERS, prop, lambda scf, **kwargs: flipped(real_one(scf, **kwargs))
    )
    monkeypatch.setattr(properties, "check_pr_apr", flaky_pair)


def test_suites_report_the_canonical_first_counterexample(spec81, monkeypatch):
    # GSP gives the wrong verdict on tables 14 and 58 (1-based), so APR and
    # ISP disagree with it there and nowhere else.
    tables = list(enumerate_scfs(spec81))
    wrong = {tables[13].table.tobytes(), tables[57].table.tobytes()}
    _flip(monkeypatch, "gsp", wrong)
    verdict = verify_prop_apr_gsp(spec81)
    assert not verdict.holds and verdict.checked == 14
    assert list(verdict.counterexample[0].table) == list(tables[13].table)
    for suite in (verify_thm_range3, verify_summary_equivalence):
        verdict = suite(spec81)
        assert not verdict.holds and verdict.checked == 81
        assert list(verdict.counterexample[0].table) == list(tables[13].table)


def _holds_everywhere(scf):
    return all(properties.CHECKERS[p](scf).holds for p in ("isp", "gsp", "pr", "apr"))


@pytest.mark.parametrize(
    "suite,flip,pair",
    [
        (verify_summary_equivalence, "apr", ("pr", "apr")),
        (verify_summary_equivalence, "gsp", ("apr", "gsp")),
        (verify_summary_equivalence, "isp", ("gsp", "isp")),
        (verify_summary_equivalence, "pr", ("isp", "pr")),
        (verify_thm_range3, "pr", ("isp", "pr")),
        (verify_thm_range3, "gsp", ("isp", "gsp")),
        (verify_prop_apr_gsp, "gsp", ("gsp", "apr")),
    ],
)
def test_suites_report_the_first_broken_relation(spec81, monkeypatch, suite, flip, pair):
    # Every property holds on table 42 (a, a, a, b), so flipping one of them
    # there breaks only the relations that name it.
    table = list(enumerate_scfs(spec81))[41]
    assert list(table.table) == [1, 1, 1, 2] and _holds_everywhere(table)
    _flip(monkeypatch, flip, {table.table.tobytes()})
    verdict = suite(spec81)
    assert not verdict.holds
    assert verdict.checked == (42 if suite is verify_prop_apr_gsp else 81)
    scf, reports = verdict.counterexample
    assert list(scf.table) == list(table.table)
    assert [(r.property, r.holds) for r in reports] == [(p, p != flip) for p in pair]


def test_kernel_and_checker_disagreement_is_an_error(spec81, monkeypatch):
    tables = list(enumerate_scfs(spec81))
    _flip(monkeypatch, "gsp", {tables[13].table.tobytes()}, checker=False)
    for suite in (verify_prop_apr_gsp, verify_thm_range3, verify_summary_equivalence):
        with pytest.raises(RuntimeError, match="disagree on gsp"):
            suite(spec81)


def test_thm_range3_cross_checks_pr_on_a_table_without_isp(spec81, monkeypatch):
    # Table 14 is not ISP.  GSP is flipped there in the kernel and the
    # checker, so ISP and GSP disagree, and PR in the kernel only.
    table = list(enumerate_scfs(spec81))[13]
    assert not properties.CHECKERS["isp"](table).holds
    wrong = {table.table.tobytes()}
    _flip(monkeypatch, "gsp", wrong)
    _flip(monkeypatch, "pr", wrong, checker=False)
    with pytest.raises(RuntimeError, match="disagree on pr"):
        verify_thm_range3(spec81)


#: The properties named by the relations of prop-apr-gsp, thm-range3,
#: summary-equivalence and isp-not-pr.
_SUITE_PROPS = [("gsp", "apr"), ("isp", "pr", "gsp"), ("pr", "apr", "gsp", "isp"),
                ("isp", "pr")]


def _leaves(blocks):
    """``(rows, verdicts)`` blocks as a list of (table, verdicts) pairs."""
    return [
        (row.tolist(), {p: bool(v[i]) for p, v in verdicts.items()})
        for rows, verdicts in blocks
        for i, row in enumerate(rows)
    ]


def _searched(spec, props):
    total = harness._require_universe(spec, harness.DEFAULT_TABLE_GUARD)
    return _leaves(harness._search(spec, total, props))


def _walked(spec, props):
    """The oracle of the search: every table of the walk, decided by the
    verdict kernel, less those where every property fails."""
    total = harness._require_universe(spec, harness.DEFAULT_TABLE_GUARD)
    blocks = []
    for _, rows in harness._table_blocks(spec, total):
        verdicts = properties.table_verdicts(spec.domain, rows, props)
        some = np.logical_or.reduce([verdicts[p] for p in props])
        blocks.append((rows[some], {p: v[some] for p, v in verdicts.items()}))
    return _leaves(blocks)


def test_suite_verdicts_do_not_depend_on_the_block_size(spec81, monkeypatch):
    specs = [
        spec81,
        EnumerationSpec(strict_prefix_domain(3, 2, 3), (0, 1, 2), limit=700),
        EnumerationSpec(weak_pair_domain(), (0, 1, 2)),
        EnumerationSpec(strict_prefix_domain(3, 2, 3), (0, 2), limit=200),
        EnumerationSpec(strict_prefix_domain(3, 2, 3), (0, 1, 2), limit=1),
    ]
    suites = (verify_prop_apr_gsp, verify_thm_range3, verify_summary_equivalence)
    tables = list(enumerate_scfs(spec81))
    wrong = {tables[13].table.tobytes(), tables[57].table.tobytes()}

    def run_all():
        clean = [verdict_to_dict(suite(spec)) for suite in suites for spec in specs]
        with monkeypatch.context() as patch:
            _flip(patch, "gsp", wrong)
            flipped = [verdict_to_dict(suite(spec81)) for suite in suites]
        searched = [_searched(spec, props) for spec in specs for props in _SUITE_PROPS]
        return clean, flipped, searched

    expected = run_all()
    assert [doc["holds"] for doc in expected[1]] == [False] * 3
    # The search gives the walk's tables where some property holds, in
    # table order, with the kernel's verdicts.
    walked = [_walked(spec, props) for spec in specs for props in _SUITE_PROPS]
    assert expected[2] == walked and all(walked)
    default, chunk = harness._block_size, harness._chunk_size
    for per_table in (1, 5, 37):
        monkeypatch.setattr(harness, "_block_size", lambda domain: per_table)
        monkeypatch.setattr(harness, "_chunk_size", lambda props, words: per_table)
        assert run_all() == expected, per_table
    # Row blocks inside the kernel: one profile row, or a few, at a time.
    monkeypatch.setattr(harness, "_block_size", default)
    monkeypatch.setattr(harness, "_chunk_size", chunk)
    for cells in (1, 100):
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
        assert run_all() == expected, cells
    # Without cached rows, as with them.
    monkeypatch.setattr(properties, "_KEY_CACHE_BYTES", 0)
    assert run_all() == expected
    # 4 profiles at k=3: one 8-byte word of (Q, y) cells a row.
    assert default(spec81.domain) == (1 << 16) // (4 * 8)
    # A prefix of the search holds a row per property and one of cells,
    # whatever the number of profiles.
    assert chunk(("isp", "pr"), 1) == (1 << 16) // (3 * 8)
    assert chunk(("isp",), 8) == (1 << 16) // (2 * 8 * 8)


def _single_peaked_strict(alts):
    return FeasibleSet.single_peaked(alts, strict=True)


@pytest.mark.parametrize("voters, k, feasible, isp", [
    (2, 3, FeasibleSet.universal_strict, 17),
    (2, 4, _single_peaked_strict, 80),
    (3, 3, _single_peaked_strict, 186),
], ids=["2x-universal-strict-k3", "2x-single-peaked-strict-k4",
        "3x-single-peaked-strict-k3"])
def test_search_counts_the_isp_tables_past_the_table_guard(voters, k, feasible, isp):
    # The counts of an independent program that lists ISP tables by option
    # sets; 3^36, 4^64 and 3^64 tables are far past the walk.
    domain = Domain.shared(feasible(AlternativeSet.letters(k)), voters)
    spec = EnumerationSpec(domain, tuple(range(k)))
    total = k ** domain.profile_count()
    assert total > harness.DEFAULT_TABLE_GUARD
    leaves = _leaves(harness._search(spec, total, ("isp",)))
    assert len(leaves) == isp and all(v["isp"] for _, v in leaves)


def test_search_counts_on_the_benchmark_universes():
    spec = EnumerationSpec(strict_prefix_domain(3, 2, 3), (0, 1, 2))
    assert len(_searched(spec, ("isp",))) == 11
    alts = AlternativeSet.letters(4)
    orders = [parse_order(text, alts) for text in ("a~b>c~d", "d>c>a~b", "b~c>a~d")]
    spec = EnumerationSpec(
        Domain.shared(FeasibleSet.explicit(alts, orders), 2), (0, 1, 2, 3)
    )
    leaves = _searched(spec, ("isp", "pr"))
    assert [sum(v[p] for _, v in leaves) for p in ("isp", "pr")] == [778, 738]


def _leaf_specs():
    """The benchmark's 3^9 tables, the 4^9-table isp-not-pr universe and
    seeded small specs, some of them bounded by a limit."""
    alts = AlternativeSet.letters(4)
    orders = [parse_order(text, alts) for text in ("a~b>c~d", "d>c>a~b", "b~c>a~d")]
    specs = [
        EnumerationSpec(strict_prefix_domain(3, 2, 3), (0, 1, 2)),
        EnumerationSpec(Domain.shared(FeasibleSet.explicit(alts, orders), 2), (0, 1, 2, 3)),
    ]
    rng = random.Random(20261021)
    abc = AlternativeSet.letters(3)
    weak = list(enumerate_weak_orders(3))
    for _ in range(24):
        sizes = rng.choice(((2, 3), (3, 3), (4, 2), (1, 7), (5,), (2, 2, 2)))
        domain = Domain(tuple(FeasibleSet.explicit(abc, rng.sample(weak, m)) for m in sizes))
        target = tuple(rng.sample(range(3), rng.randint(2, 3)))
        specs.append(EnumerationSpec(domain, target, limit=rng.choice((None, rng.randrange(1, 4000)))))
    return specs


def test_no_table_holds_gsp_pr_or_apr_without_isp():
    # A pair that breaks ISP breaks GSP, PR and APR too, so the search's
    # leaves by ISP alone are exact.  Tested over whole universes, not
    # assumed.
    props = ("isp", "gsp", "pr", "apr")
    seen = set()
    for spec in _leaf_specs():
        total = harness._require_universe(spec, harness.DEFAULT_TABLE_GUARD)
        for _, rows in harness._table_blocks(spec, total):
            verdicts = properties.table_verdicts(spec.domain, rows, props)
            other = verdicts["gsp"] | verdicts["pr"] | verdicts["apr"]
            assert not (other & ~verdicts["isp"]).any()
            seen.update(zip(verdicts["isp"].tolist(), other.tolist()))
    assert seen == {(True, True), (True, False), (False, False)}


def test_a_search_by_isp_alone_leaves_the_tables_of_every_suite():
    # Each suite's search gives exactly the ISP search's tables where one
    # of its properties holds, with the kernel's verdicts.
    for spec in _leaf_specs():
        isp = np.array([table for table, _ in _searched(spec, ("isp",))], dtype=np.uint8)
        for props in _SUITE_PROPS:
            verdicts = properties.table_verdicts(spec.domain, isp, props)
            some = np.logical_or.reduce([verdicts[p] for p in props])
            assert _searched(spec, props) == _leaves(
                [(isp[some], {p: v[some] for p, v in verdicts.items()})]
            )


def _key_columns(monkeypatch):
    """The (Q, y) columns of every key-row builder made, in build order: a
    :class:`_CellRows` with columns, not a kept one."""
    made = []
    init = properties._CellRows.__init__

    def spy(self, ctx, props, cols):
        if cols is not None:
            made.append([divmod(int(cell), ctx.k) for cell in cols])
        init(self, ctx, props, cols)

    monkeypatch.setattr(properties._CellRows, "__init__", spy)
    return made


def test_verdict_rows_past_the_cache_come_from_one_builder_per_call(monkeypatch):
    monkeypatch.setattr(properties, "_KEY_CACHE_BYTES", 0)
    made = _key_columns(monkeypatch)
    spec = EnumerationSpec(strict_prefix_domain(3, 2, 3), (0, 2))
    # Tables 0..2^5 - 1 have digit 0 at the first 4 of the 9 profiles, so
    # the search's columns are (P, 0) there and (P, y) for y in the target
    # at the last 5.
    list(harness._search(spec, 2 ** 5, ("isp", "pr")))
    assert made == [[(p, 0) for p in range(4)] + [(p, y) for p in range(4, 9) for y in (0, 2)]]
    assert spec.domain._scan_context.verdict_rows is None
    # table_verdicts' columns are the distinct cells its tables use.
    made.clear()
    _, tables = next(harness._table_blocks(spec, 6, random.Random(5)))
    properties.table_verdicts(spec.domain, tables, ("gsp", "apr"))
    used = sorted({(p, int(x)) for row in tables for p, x in enumerate(row)})
    assert made == [used]


def test_search_and_sampled_verdicts_share_one_kept_source(monkeypatch):
    made = _key_columns(monkeypatch)
    spec = EnumerationSpec(strict_prefix_domain(3, 2, 3), (0, 1, 2))
    ctx = spec.domain._scan_context
    list(harness._search(spec, 3 ** 9, ("isp", "pr")))
    kept = ctx.verdict_rows
    # The kept source holds its rows alone: no key rows, no columns.
    assert kept is not None and kept.cols is None
    assert set(vars(kept)) == {"props", "cols", "words", "kept"}
    _, tables = next(harness._table_blocks(spec, 50, random.Random(3)))
    properties.table_verdicts(spec.domain, tables, ("isp", "pr", "dictator"))
    assert ctx.verdict_rows is kept and len(made) == 1
    assert made[0] == [(p, y) for p in range(9) for y in range(3)]


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


def test_thm_complete_tabulates_the_rule_once(abc, monkeypatch):
    phi = builtin(
        "dictator-tiebreak", Domain.shared(FeasibleSet.universal_weak(abc), 2), voter=1
    )
    factory = scf_module._RULE_KERNELS["dictator-tiebreak"]
    seen = []

    def recording(*args):
        kernel = factory(*args)

        def run(digits):
            seen.append(digits.copy())
            return kernel(digits)

        return run

    monkeypatch.setitem(scf_module._RULE_KERNELS, "dictator-tiebreak", recording)
    verdict = verify_thm_complete(phi)
    # The kernel reads only voter 2's order: it sees each of their 13
    # orders once, in index order, beside voter 1's first order.
    assert np.concatenate(seen).tolist() == [[0, d] for d in range(13)]
    assert verdict_to_dict(verdict) == {
        "theorem": "thm-complete",
        "universe": "dictator-tiebreak on 2 voters; orders per voter [13,13]; k=3",
        "holds": True,
        "checked": 28392,
        "details": {
            "admissible": True,
            "completeness": [{"orders": 13, "complete": True, "checked": 630}],
            "isp_checked": 4056,
            "pairs_scanned": 28392,
            "pairs_total": 28392,
        },
    }
    # A counterexample names the supplied rule, not its table.
    monkeypatch.setattr(
        harness, "check_pr", lambda scf, **_: PropertyReport("pr", False, None, 1, 0.0, scf)
    )
    doc = verdict_to_dict(verify_thm_complete(phi))
    assert doc["counterexample"]["scf"] == scf_to_dict(phi)


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


def test_thm_complete_certifies_sets_up_to_the_first_incomplete_one(abc, monkeypatch):
    from prefrev import domains

    middle = FeasibleSet.explicit(abc, [parse_order(o, abc) for o in ("a~b~c", "a~b>c")])
    domain = Domain(
        (FeasibleSet.universal_strict(abc), middle, FeasibleSet.universal_weak(abc))
    )
    certified, real = [], domains.is_complete
    monkeypatch.setattr(domains, "is_complete", lambda fs: certified.append(fs) or real(fs))
    verdict = verify_thm_complete(builtin("constant", domain, alternative="a"))
    # Voter 2's set is not complete, so voter 3's @universal-weak is never
    # certified.
    assert certified == list(domain.feasible[:2])
    assert verdict_to_dict(verdict) == {
        "theorem": "thm-complete",
        "universe": "constant on 3 voters; orders per voter [6,2,13]; k=3",
        "holds": True,
        "checked": 0,
        "details": {
            "admissible": False,
            "reason": "voter 2's feasible set is not complete",
            "completeness": [
                {"orders": 6, "complete": True, "checked": 162},
                {"orders": 2, "complete": False, "checked": 1},
            ],
        },
    }


@pytest.mark.parametrize("radix", [1, 2, 3, 4])
def test_universe_size_is_the_bounded_power(radix):
    def loop(count, cap):
        size = 1
        for _ in range(count):
            size *= radix
            if size > cap:
                return None
        return size

    for voters, per_voter in ((1, 1), (1, 2), (1, 5), (2, 3), (2, 6), (3, 4)):
        spec = EnumerationSpec(strict_prefix_domain(4, voters, per_voter), range(radix))
        count = spec.domain.profile_count()
        power = radix**count
        for cap in (0, 1, power - 1, power, power + 1, 10**8):
            assert harness._universe_size(spec, cap) == loop(count, cap), (count, cap)


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


def test_search_refuses_a_spec_with_a_limit():
    from prefrev import search_isp_not_pr

    # The budget alone bounds the search; the refusal names it.
    spec = EnumerationSpec(strict_prefix_domain(4, 2, 3), (0, 1, 2, 3), limit=5)
    with pytest.raises(ArgumentError, match="bounded by --budget"):
        search_isp_not_pr(spec, 300)


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


def test_search_reports_isp_against_pr(monkeypatch):
    # The universe of test_search_exhausts_small_incomplete_universe has no
    # ISP table without PR; every property holds on table 11, and PR is
    # flipped there.  The flipped report has no witness to re-validate.
    from prefrev import search_isp_not_pr

    alts = AlternativeSet.letters(4)
    orders = [parse_order("a~b>c~d", alts), parse_order("d>c>a~b", alts)]
    domain = Domain.shared(FeasibleSet.explicit(alts, orders), 2)
    spec = EnumerationSpec(domain, (0, 1, 2, 3))
    assert search_isp_not_pr(spec, budget=256).holds
    table = list(enumerate_scfs(spec))[10]
    assert _holds_everywhere(table)
    _flip(monkeypatch, "pr", {table.table.tobytes()})
    monkeypatch.setattr(harness, "revalidate_witness", lambda scf, prop, w: w is None)
    verdict = search_isp_not_pr(spec, budget=256)
    assert not verdict.holds
    assert verdict.checked == verdict.details["tables_examined"] == 11
    scf, reports = verdict.counterexample
    assert list(scf.table) == list(table.table)
    assert [(r.property, r.holds) for r in reports] == [("isp", True), ("pr", False)]


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


@pytest.mark.parametrize("seed", [0, 11, 2024])
@pytest.mark.parametrize("radix", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 39])
def test_bulk_draws_equal_randrange_and_leave_the_same_state(seed, radix):
    # The sampled isp-not-pr walk draws a block's profiles at once; it must
    # give what one randrange per profile gives and leave the generator as
    # that loop does, whatever CPython's word layout: this fails loudly on
    # a version where it changes.
    spec = EnumerationSpec(strict_prefix_domain(3, 2, 3), (0, 1, 2))
    block = harness._block_size(spec.domain) * spec.domain.profile_count()
    for count in (0, 1, 2, block):
        bulk, loop = random.Random(seed), random.Random(seed)
        bulk.random(), loop.random()
        drawn = harness._draws(bulk, radix, count)
        assert drawn.tolist() == [loop.randrange(radix) for _ in range(count)]
        assert bulk.getstate() == loop.getstate()
        assert bulk.random() == loop.random()


@pytest.mark.parametrize("per_table", [None, 1, 7])
def test_search_verdicts_match_the_recorded_ones(monkeypatch, per_table):
    # Recorded from the per-table checker walk: a seeded sample that meets
    # its counterexample at table 3,924, and the exhausted universe that
    # meets one at table 268.
    from prefrev import search_isp_not_pr

    path = os.path.join(os.path.dirname(__file__), "data", "isp_not_pr_verdicts.json")
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    if per_table is not None:
        monkeypatch.setattr(harness, "_block_size", lambda domain: per_table)
    alts = AlternativeSet.letters(4)
    orders = [parse_order(text, alts) for text in ("a~b>c~d", "d>c>a~b", "b~c>a~d")]
    domain = Domain.shared(FeasibleSet.explicit(alts, orders), 2)
    spec = EnumerationSpec(domain, (0, 1, 2, 3))
    for case in recorded.values():
        verdict = search_isp_not_pr(spec, case["budget"], seed=case["seed"])
        assert verdict_to_dict(verdict) == case["verdict"]


def test_parallel_search_on_fresh_domains_matches_sequential(capsys):
    # Each CLI run builds a fresh domain, whose scan context nobody has
    # built yet; --parallelism changes nothing.
    from prefrev import search_isp_not_pr

    alts = AlternativeSet.letters(4)
    texts = ("a~b>c~d", "d>c>a~b", "b~c>a~d")
    orders = [parse_order(text, alts) for text in texts]
    spec = EnumerationSpec(
        Domain.shared(FeasibleSet.explicit(alts, orders), 2), (0, 1, 2, 3)
    )
    expected = verdict_to_dict(search_isp_not_pr(spec, 2000, seed=250522))
    for workers in ("1", "2"):
        _, doc = _cli_json(
            capsys, "verify", "isp-not-pr", "--k", "4", "--voters", "2",
            "--orders", ";".join(texts), "--budget", "2000", "--seed", "250522",
            "--parallelism", workers,
        )
        assert doc == expected


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


_GUARDED = {"kind": "complete-domain", "verified": False,
            "note": "completeness undecided within guard"}


@pytest.mark.parametrize("sets,rule,guard,case,hypothesis", [
    ("strict", "dictator-tiebreak", None, "shared",
     {"kind": "complete-domain", "verified": True}),
    ("three", "dictator-tiebreak", None, "shared",
     {"kind": "range-le-3", "verified": True, "range": 3}),
    ("four", "dictator-tiebreak", None, "shared",
     {"kind": "complete-domain", "verified": False}),
    ("strict", "dictator-tiebreak", 0, "shared", _GUARDED),
    ("three", "dictator-tiebreak", 0, "shared",
     {"kind": "range-le-3", "verified": True, "range": 3}),
    ("mixed", "dictator-tiebreak", None, "pairs",
     {"kind": "range-le-3", "verified": True, "range": 2}),
    ("mixed", "plurality-tiebreak", None, "pairs",
     {"kind": "range-le-3", "verified": False, "range": 4}),
], ids=["complete", "incomplete-range-3", "incomplete-range-4", "guard-range-4",
        "guard-range-3", "pairs-range-2", "pairs-range-4"])
def test_quotient_hypothesis_on_every_branch(
    monkeypatch, abcd, sets, rule, guard, case, hypothesis
):
    # A shared set is certified first; past an incomplete or refused one,
    # the collapsed range decides if it is at most 3.  The pairs case has
    # only the range.
    from prefrev import domains

    def explicit(*texts):
        return FeasibleSet.explicit(abcd, [parse_order(t, abcd) for t in texts])

    tops = ("a>b~c~d", "b>a~c~d", "c>a~b~d", "d>a~b~c")
    strict = FeasibleSet.universal_strict(abcd)
    feasible = {
        "strict": (strict,) * 4,
        "three": (explicit(*tops[:3]),) * 4,
        "four": (explicit(*tops),) * 4,
        "mixed": (FeasibleSet.universal_weak(abcd), strict, strict, strict),
    }[sets]
    if guard is not None:
        monkeypatch.setattr(domains, "COMPLETENESS_GUARD", guard)
    if sets == "mixed":
        p = ("a>b>c>d", "c>a>b>d", "d>a>b>c", "a>b>c>d")
        q = ("b>a>c>d", "d>a>b>c", "b>a>c>d", "c>a>b>d")
    elif sets == "strict":
        p, q = ("a>b>c>d",) * 4, ("b>a>c>d",) * 4
    else:
        p, q = (tops[0],) * 4, (tops[1],) * 4
    params = {"voter": 0} if rule == "dictator-tiebreak" else {}
    phi = builtin(rule, Domain(feasible), **params)
    result = quotient_reduce(
        phi, Profile(tuple(parse_order(t, abcd) for t in p)),
        Profile(tuple(parse_order(t, abcd) for t in q)), samples=0,
    )
    assert result.case == case
    assert result.hypothesis == hypothesis
    assert list(result.hypothesis) == list(hypothesis)  # the JSON key order


@pytest.fixture
def median_thousand():
    # 1,000 voters: sample blocks of 65 rows.
    alts = AlternativeSet.numbered(5)
    fs = FeasibleSet.single_peaked(alts, strict=True)
    phi = builtin("median-peaks", Domain.shared(fs, 1000))
    p = Profile((peak_order(1),) * 400 + (peak_order(2),) * 350 + (peak_order(3),) * 250)
    q = Profile((peak_order(3),) * 400 + (peak_order(2),) * 350 + (peak_order(4),) * 250)
    return phi, p, q


@pytest.fixture
def median_mixed():
    # 600 voters on two feasible sets: the pairs case, sample blocks of 109.
    # The last class keeps its order, so its feasible set has one order and
    # the classes draw from sets of different sizes.
    alts = AlternativeSet.numbered(5)
    full = FeasibleSet.single_peaked(alts, strict=True)
    part = FeasibleSet.explicit(alts, list(full)[:5] + [peak_order(p) for p in (1, 3, 4)])
    phi = builtin("median-peaks", Domain(tuple(full if v % 3 else part for v in range(600))))
    peaks = [(1, 3)] * 250 + [(3, 4)] * 250 + [(4, 4)] * 100
    p = Profile(tuple(peak_order(a) for a, _ in peaks))
    q = Profile(tuple(peak_order(b) for _, b in peaks))
    return phi, p, q


def _record_sample_kernels(monkeypatch, side, change=None):
    """Record the digit blocks the sample check hands one side's kernel
    (``side`` is "cloned" for the collapsed function), optionally changing
    that side's outcomes with ``change``."""
    seen = []
    kernel_of = harness.rule_kernel

    def recording(scf):
        kernel = kernel_of(scf)
        if (scf.rule.name == "cloned") != (side == "cloned"):
            return kernel

        def run(digits):
            seen.append(digits.copy())
            out = kernel(digits)
            return out if change is None else change(out)

        return run

    monkeypatch.setattr(harness, "rule_kernel", recording)
    return seen


@pytest.mark.parametrize("society,samples", [("median_thousand", 131), ("median_mixed", 219)])
@pytest.mark.parametrize("seed", [0, 5, 11, 123])
def test_quotient_sample_check_draws_as_a_per_sample_loop(
    request, monkeypatch, society, samples, seed
):
    phi, p, q = request.getfixturevalue(society)
    seen = _record_sample_kernels(monkeypatch, "cloned")
    result = quotient_reduce(phi, p, q, samples=samples, seed=seed)
    assert result.case == {"median_thousand": "shared", "median_mixed": "pairs"}[society]
    step = scf_module._EVAL_CELLS // phi.domain.n
    assert [len(block) for block in seen] == [step, step, 1]
    rng = random.Random(seed)
    loop = [
        [rng.randrange(len(fs)) for fs in result.quotient_scf.domain.feasible]
        for _ in range(samples)
    ]
    assert np.concatenate(seen).tolist() == loop
    assert result.samples_agreed == result.samples_checked == samples


@pytest.mark.parametrize("side", ["cloned", "median-peaks"])
def test_quotient_sample_check_counts_disagreements(monkeypatch, median_thousand, side):
    # Either side of the check, given a wrong outcome on every odd row of a
    # block, loses those samples, and the theorem verdict fails.
    phi, p, q = median_thousand

    def shift_odd_rows(out):
        out = out.copy()
        out[1::2] = (out[1::2] + 1) % phi.domain.k
        return out

    _record_sample_kernels(monkeypatch, side, shift_odd_rows)
    result = quotient_reduce(phi, p, q, samples=131, seed=0)
    assert (result.samples_checked, result.samples_agreed) == (131, 131 - 32 - 32)
    assert not verify_thm_infinite(phi, p, q, samples=131, seed=0).holds
    assert verify_thm_infinite(phi, p, q, samples=1, seed=0).holds


def test_quotient_sample_check_is_not_vacuous(monkeypatch, median_thousand):
    # The collapsed function counts each class once per voter, and phi's
    # kernel reads every voter: they are two computations.  A clone that
    # counts the last class as 100 voters, not 250, still gives P's and Q's
    # outcomes, but other samples tell the two apart.
    phi, p, q = median_thousand
    weights = scf_module._weights

    def lighter(domain, assignment):
        counts = weights(domain, assignment)
        if counts is not None:
            counts[2] = 100
        return counts

    monkeypatch.setattr(scf_module, "_weights", lighter)
    result = quotient_reduce(phi, p, q, samples=300, seed=0)
    assert 0 < result.samples_agreed < result.samples_checked == 300


def test_quotient_sample_check_keeps_the_membership_check(monkeypatch, abc):
    # Taken as shared, a mixed domain samples voter 1's weak orders for the
    # whole class; the strict voters 2 and 3 lack most of them.
    strict = FeasibleSet.universal_strict(abc)
    weak = FeasibleSet.universal_weak(abc)
    phi = builtin("dictator-tiebreak", Domain((weak, strict, strict)), voter=0)
    p = Profile((parse_order("a>b>c", abc),) * 3)
    monkeypatch.setattr(Domain, "is_shared", lambda self: True)
    with pytest.raises(ArgumentError, match="voter 2's order is outside"):
        quotient_reduce(phi, p, p, samples=50, seed=0)


def test_quotient_rejects_a_negative_sample_count(median_society):
    phi, p, q = median_society
    with pytest.raises(ArgumentError, match="negative"):
        quotient_reduce(phi, p, q, samples=-1)
    assert quotient_reduce(phi, p, q, samples=0).samples_checked == 0


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
