"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one line
``ACCEPTANCE <n> PASS (<elapsed> <= <budget>): <summary>`` on success (visible
with ``pytest -s``); the test name itself carries the criterion number, so a
plain ``pytest -v`` run also reads as one pass/fail line per criterion.

Library results are stashed so the determinism criterion can compare them
byte-for-byte against CLI runs at ``--parallelism 1`` and ``--parallelism 8``.
"""

import itertools
import json
import math
import time

from prefrev import (
    AlternativeSet,
    Axis,
    Domain,
    EnumerationSpec,
    FeasibleSet,
    ManipulationWitness,
    Profile,
    WeakOrder,
    builtin,
    check_dictator,
    check_gsp,
    check_isp,
    check_pr,
    check_pr_apr,
    enumerate_single_peaked,
    enumerate_strict_orders,
    enumerate_weak_orders,
    evaluate,
    is_complete,
    is_resolvent,
    is_single_peaked,
    make_sp_resolvent,
    make_w_ab,
    make_w_prime,
    parse_order,
    quotient_reduce,
    report_to_dict,
    revalidate_witness,
    verdict_to_dict,
    verify_prop_apr_gsp,
    verify_summary_equivalence,
    verify_thm_complete,
    verify_thm_range3,
)
from prefrev.cli import main
from prefrev.domains import admissible_pair
from prefrev.scf import dumps_canonical, save_scf

_BASELINE: dict[str, str] = {}


def _criterion(number, budget, summary, fn):
    t0 = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t0
    limit = "no budget" if budget is None else f"<= {budget}s"
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:7.2f}s {limit}): {summary}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def _strict_universe(per_voter):
    alts = AlternativeSet.letters(3)
    strict = sorted(enumerate_strict_orders(3), key=lambda o: o.ranks)
    fs = FeasibleSet.explicit(alts, strict[:per_voter])
    return EnumerationSpec(Domain.shared(fs, 2), (0, 1, 2))


def _weak_universe():
    alts = AlternativeSet.letters(3)
    orders = [parse_order("a~b>c", alts), parse_order("c>a~b", alts)]
    return EnumerationSpec(Domain.shared(FeasibleSet.explicit(alts, orders), 2), (0, 1, 2))


def _specimens():
    sp5 = FeasibleSet.single_peaked(AlternativeSet.numbered(5), strict=True)
    uw3 = FeasibleSet.universal_weak(AlternativeSet.letters(3))
    uw4 = FeasibleSet.universal_weak(AlternativeSet.letters(4))
    return [
        ("median-peaks k=5 n=2", builtin("median-peaks", Domain.shared(sp5, 2))),
        ("median-peaks k=5 n=3", builtin("median-peaks", Domain.shared(sp5, 3))),
        ("dictator k=3 n=3", builtin("dictator-tiebreak", Domain.shared(uw3, 3), voter=0)),
        ("dictator k=4 n=2", builtin("dictator-tiebreak", Domain.shared(uw4, 2), voter=0)),
    ]


def test_criterion_01_enumeration_counts():
    def body():
        bell = [1]
        for m in range(1, 6):
            bell.append(sum(math.comb(m, j) * bell[m - j] for j in range(1, m + 1)))
        assert bell[1:] == [1, 3, 13, 75, 541]
        for k in range(1, 6):
            assert len(list(enumerate_weak_orders(k))) == bell[k]
            assert len(list(enumerate_strict_orders(k))) == math.factorial(k)
            assert len(list(enumerate_single_peaked(k, strict=True))) == 2 ** (k - 1)

    _criterion(1, 1, "enumeration counts match the recurrence oracles", body)


def test_criterion_02_apr_equals_gsp_over_universes():
    def body():
        for name, spec, expected in (
            ("81", _strict_universe(2), 81),
            ("19683", _strict_universe(3), 19683),
        ):
            verdict = verify_prop_apr_gsp(spec)
            assert verdict.holds, f"discrepancy in the {name}-table universe"
            assert verdict.checked == expected
            _BASELINE[f"prop-apr-gsp-{name}"] = dumps_canonical(verdict_to_dict(verdict))

    _criterion(2, 60, "check_gsp == check_apr on all 81 + 19683 tables", body)


def test_criterion_03_range3_theorem_over_universes():
    def body():
        for name, spec, expected in (
            ("81", _strict_universe(2), 81),
            ("19683", _strict_universe(3), 19683),
            ("weak-81", _weak_universe(), 81),
        ):
            verdict = verify_thm_range3(spec)
            assert verdict.holds, f"violation in the {name}-table universe"
            assert verdict.checked == expected
            assert verdict.details["isp_tables"] == verdict.details["gsp_tables"]
            _BASELINE[f"thm-range3-{name}"] = dumps_canonical(verdict_to_dict(verdict))

    _criterion(3, 60, "every ISP table satisfies PR; #ISP == #GSP (incl. weak orders)", body)


def test_criterion_04_implication_chain():
    def body():
        for spec in (_strict_universe(2), _strict_universe(3), _weak_universe()):
            verdict = verify_summary_equivalence(spec)
            assert verdict.holds
            d = verdict.details
            assert d["pr_tables"] <= d["apr_tables"]
            assert d["apr_tables"] == d["gsp_tables"]
            assert d["gsp_tables"] <= d["isp_tables"]

    _criterion(4, None, "{PR} <= {APR} = {GSP} <= {ISP} over every universe", body)


def test_criterion_05_completeness_certificates():
    def body():
        assert is_complete(FeasibleSet.universal_weak(AlternativeSet.letters(3))).complete
        assert is_complete(FeasibleSet.universal_weak(AlternativeSet.letters(4))).complete
        sp5 = FeasibleSet.single_peaked(AlternativeSet.numbered(5), strict=True)
        assert is_complete(sp5).complete
        alts = AlternativeSet.letters(3)
        only = parse_order("a~b>c", alts)
        report = is_complete(FeasibleSet.explicit(alts, [only]))
        assert not report.complete
        assert (report.gap.p, report.gap.q, report.gap.a, report.gap.b) == (
            only, only, 0, 2,
        )

    _criterion(5, 30, "universal weak k=3,4 and strict SP k=5 complete; exact gap", body)


def test_criterion_06_resolvent_constructors_exhaustive():
    def body():
        k = 4
        orders = list(enumerate_weak_orders(k))
        quadruples = 0
        for p, q in itertools.product(orders, repeat=2):
            for a in range(k):
                for b in range(k):
                    if a == b or not admissible_pair(p, q, a, b):
                        continue
                    quadruples += 1
                    if q.strictly_prefers(a, b):
                        assert is_resolvent(make_w_ab(a, b, k), a, b, p, q)
                        assert is_resolvent(make_w_prime(a, b, p, q), a, b, p, q)
                    if p.strictly_prefers(b, a):
                        assert is_resolvent(make_w_ab(b, a, k), a, b, p, q)
                        assert is_resolvent(make_w_prime(b, a, q, p), a, b, p, q)
        assert quadruples > 0

        k6 = 6
        axis = Axis.identity(k6)
        sp = list(enumerate_single_peaked(k6, axis, strict=True))
        assert len(sp) == 32
        for p, q in itertools.product(sp, repeat=2):
            for a in range(k6):
                for b in range(k6):
                    if a == b or not admissible_pair(p, q, a, b):
                        continue
                    w = make_sp_resolvent(a, b, p, q, axis)
                    assert is_resolvent(w, a, b, p, q)
                    assert is_single_peaked(w, axis)

    _criterion(6, 300, "w_ab + w_prime exhaustive at k=4; sp resolvent at k=6", body)


def test_criterion_07_complete_domain_specimens():
    def body():
        for name, phi in _specimens():
            verdict = verify_thm_complete(phi)
            assert verdict.holds and verdict.details["admissible"], name
            count = phi.domain.profile_count()
            assert verdict.details["pairs_scanned"] == count * (count - 1), name
            _BASELINE[f"thm-complete-{name}"] = dumps_canonical(
                verdict_to_dict(verdict)
            )
        # the k=4 n=2 scan covers 5625 * 5624 ordered pairs
        assert 5625 * 5624 == 31_635_000

    _criterion(7, 600, "ISP + PR exhaustive for median and dictator specimens", body)


def test_criterion_08_paper_example_rule():
    def body():
        alts = AlternativeSet.letters(3)
        domain = Domain.shared(FeasibleSet.universal_weak(alts), 2)
        phi = builtin("paper-example", domain)

        dictator = check_dictator(phi)
        assert dictator.holds and dictator.witness == 0

        isp = check_isp(phi)
        assert not isp.holds
        assert revalidate_witness(phi, "isp", isp.witness)

        # the known manipulation: P1 = a~b>c, some P2 with b above a,
        # deviation Q2 = inverse of P2
        p1 = parse_order("a~b>c", alts)
        p2 = parse_order("b>a>c", alts)
        truthful = Profile((p1, p2))
        inversion = ManipulationWitness(
            coalition=(1,),
            truthful=truthful,
            deviation=(p2.invert(),),
            outcome_true=evaluate(phi, truthful),
            outcome_dev=evaluate(phi, Profile((p1, p2.invert()))),
        )
        assert (inversion.outcome_true, inversion.outcome_dev) == (0, 1)
        assert revalidate_witness(phi, "isp", inversion)

        pr = check_pr(phi)
        assert not pr.holds
        assert revalidate_witness(phi, "pr", pr.witness)

    _criterion(8, 5, "paper-example rule: dictatorial, not ISP (inversion witness), not PR", body)


def test_criterion_09_quotient_reduction():
    def body():
        def peak(position, k=5):
            seq = list(range(position, k)) + list(range(position - 1, -1, -1))
            ranks = [0] * k
            for level, x in enumerate(seq):
                ranks[x] = level
            return WeakOrder(tuple(ranks))

        alts = AlternativeSet.numbered(5)
        fs = FeasibleSet.single_peaked(alts, strict=True)
        phi = builtin("median-peaks", Domain.shared(fs, 100))
        p = Profile((peak(1),) * 40 + (peak(2),) * 35 + (peak(3),) * 25)
        q = Profile((peak(3),) * 40 + (peak(2),) * 35 + (peak(4),) * 25)
        assert evaluate(phi, p) != evaluate(phi, q)
        result = quotient_reduce(phi, p, q, samples=100, seed=0)
        assert result.alpha == 3
        assert result.samples_agreed == result.samples_checked == 100
        assert result.witness_lift is not None and result.lift_valid
        cls, voter = result.witness_lift
        a, b = result.outcome_p, result.outcome_q
        assert p[voter] != q[voter]
        assert p[voter].weakly_prefers(a, b)
        assert q[voter].weakly_prefers(b, a)

    _criterion(9, 10, "100-voter society: alpha=3, 100/100 blow-ups agree, lift valid", body)


def test_criterion_10_determinism_across_parallelism(capsys, tmp_path):
    def cli_doc(*argv):
        """The JSON document of one CLI run, the same bytes at 1 and 8."""
        outs = []
        for workers in ("1", "8"):
            assert main([*argv, "--output", "json", "--parallelism", workers]) in (0, 2)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], f"--parallelism changed the output of {argv}"
        doc = json.loads(outs[0])
        del doc["command"], doc["seed"]
        return doc

    def body():
        assert _BASELINE, "criteria 2, 3 and 7 must run first"
        # The universes of criteria 2 and 3 as CLI flags.
        universes = {
            "81": ("--orders-per-voter", "2"),
            "19683": ("--orders-per-voter", "3"),
            "weak-81": ("--orders", "a~b>c;c>a~b"),
        }
        reruns = {}
        for suite, names in (
            ("prop-apr-gsp", ("81", "19683")),
            ("thm-range3", ("81", "19683", "weak-81")),
        ):
            for name in names:
                doc = cli_doc("verify", suite, "--k", "3", "--voters", "2", *universes[name])
                reruns[f"{suite}-{name}"] = dumps_canonical(doc)
        for i, (name, phi) in enumerate(_specimens()):
            path = tmp_path / f"specimen{i}.json"
            save_scf(phi, path)
            doc = cli_doc("verify", "thm-complete", "--scf", str(path))
            reruns[f"thm-complete-{name}"] = dumps_canonical(doc)
        for key, doc in reruns.items():
            assert _BASELINE[key] == doc, f"the CLI changed the report for {key}"
        # witness-bearing reports must be byte-identical as well
        alts = AlternativeSet.letters(3)
        phi = builtin(
            "paper-example", Domain.shared(FeasibleSet.universal_weak(alts), 2)
        )
        path = tmp_path / "paper.json"
        save_scf(phi, path)
        doc = cli_doc("check", str(path), "--properties", "isp,gsp,pr,apr")
        both = check_pr_apr(phi)
        docs = [report_to_dict(check_isp(phi)), report_to_dict(check_gsp(phi)),
                report_to_dict(both["pr"]), report_to_dict(both["apr"])]
        assert doc["reports"] == docs
        assert all("witness" in d for d in docs)

    _criterion(10, None, "criteria 2, 3, 7 byte-identical at --parallelism 1 and 8", body)
