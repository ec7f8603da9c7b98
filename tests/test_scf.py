"""Profiles, indexing, built-in rules, tabulation, and the scf file format."""

import json
import random

import pytest

from prefrev import (
    AlternativeSet,
    ArgumentError,
    ConstructionError,
    Domain,
    FeasibleSet,
    Profile,
    Scf,
    builtin,
    evaluate,
    iter_profiles,
    load_scf,
    parse_order,
    profile_at,
    profile_index,
    range_of,
    save_scf,
    tabulate,
)
from prefrev import scf as scf_module
from prefrev.cli import main
from prefrev.orders import Axis, is_single_peaked
from prefrev.scf import dumps_canonical, scf_from_dict, scf_to_dict


@pytest.fixture
def weak2(abc):
    return Domain.shared(FeasibleSet.universal_weak(abc), 2)


@pytest.fixture
def strict2(abc):
    return Domain.shared(FeasibleSet.universal_strict(abc), 2)


# ---------------------------------------------------------------------------
# profile indexing
# ---------------------------------------------------------------------------


def test_profile_index_bijection_exhaustive(weak2):
    for i, profile in enumerate(iter_profiles(weak2)):
        assert profile_index(weak2, profile) == i
        assert profile_at(weak2, i) == profile


def test_profile_index_voter0_most_significant(weak2):
    fs = weak2.feasible[0]
    p = Profile((fs[2], fs[5]))
    assert profile_index(weak2, p) == 2 * 13 + 5


def test_profile_index_bijection_sampled():
    alts = AlternativeSet.letters(4)
    domain = Domain.shared(FeasibleSet.universal_weak(alts), 3)
    count = domain.profile_count()
    rng = random.Random(42)
    for _ in range(500):
        i = rng.randrange(count)
        assert profile_index(domain, profile_at(domain, i)) == i


def test_profile_outside_domain(abc, weak2):
    strict = FeasibleSet.universal_strict(abc)
    small = Domain.shared(strict, 2)
    tied = parse_order("a~b>c", abc)
    with pytest.raises(ArgumentError):
        profile_index(small, Profile((tied, tied)))
    with pytest.raises(ArgumentError):
        profile_index(weak2, Profile((tied,)))
    with pytest.raises(ArgumentError):
        profile_at(weak2, 169)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_constant_rule(weak2, abc):
    phi = builtin("constant", weak2, alternative="c")
    for profile in iter_profiles(weak2):
        assert evaluate(phi, profile) == 2


def test_dictator_tiebreak(weak2, abc):
    phi = builtin("dictator-tiebreak", weak2, voter=0)
    p1 = parse_order("b~c>a", abc)
    p2 = parse_order("a>b>c", abc)
    assert evaluate(phi, Profile((p1, p2))) == 1  # alphabetical pick from {b, c}
    assert evaluate(phi, Profile((p2, p1))) == 0


def test_paper_example_rule(weak2, abc):
    phi = builtin("paper-example", weak2)
    p = Profile((parse_order("a~b>c", abc), parse_order("b>a>c", abc)))
    # voter 2's inverted report ranks a above b inside the tied top set
    assert evaluate(phi, p) == 0
    unique = Profile((parse_order("c>a>b", abc), parse_order("b>a>c", abc)))
    assert evaluate(phi, unique) == 2


def test_median_peaks_rule():
    alts = AlternativeSet.numbered(3)
    fs = FeasibleSet.single_peaked(alts, strict=True)
    dom3 = Domain.shared(fs, 3)
    phi = builtin("median-peaks", dom3)
    peak1 = parse_order("1>2>3", alts)
    peak3 = parse_order("3>2>1", alts)
    assert evaluate(phi, Profile((peak1, peak3, peak3))) == 2
    dom2 = Domain.shared(fs, 2)
    even = builtin("median-peaks", dom2)
    # left median on even societies
    assert evaluate(even, Profile((peak1, peak3))) == 0


def test_median_requires_strict_single_peaked(weak2):
    with pytest.raises(ArgumentError, match="single-peaked"):
        builtin("median-peaks", weak2)


def test_plurality_tiebreak(strict2, abc):
    phi = builtin("plurality-tiebreak", strict2)
    a_top = parse_order("a>b>c", abc)
    b_top = parse_order("b>a>c", abc)
    assert evaluate(phi, Profile((b_top, b_top))) == 1
    assert evaluate(phi, Profile((a_top, b_top))) == 0  # tie broken alphabetically
    # voters with tied tops do not vote
    weak = Domain.shared(FeasibleSet.universal_weak(abc), 2)
    phi2 = builtin("plurality-tiebreak", weak)
    tied = parse_order("a~b~c", abc)
    assert evaluate(phi2, Profile((tied, parse_order("c>a>b", abc)))) == 2


def test_builtin_validation(weak2, strict2):
    with pytest.raises(ArgumentError):
        builtin("constant", weak2)
    with pytest.raises(ArgumentError):
        builtin("dictator-tiebreak", weak2, voter=5)
    with pytest.raises(ArgumentError):
        builtin("paper-example", Domain.shared(weak2.feasible[0], 3))
    with pytest.raises(ArgumentError):
        builtin("nonsense", weak2)
    with pytest.raises(ArgumentError):
        builtin("constant", weak2, alternative="a", extra=1)
    with pytest.raises(ArgumentError):
        builtin("plurality-tiebreak", strict2, tiebreak=["a", "b"])


def test_evaluate_rejects_foreign_profile(strict2, abc):
    phi = builtin("constant", strict2, alternative="a")
    with pytest.raises(ArgumentError):
        evaluate(phi, Profile((parse_order("a~b>c", abc),) * 2))


# ---------------------------------------------------------------------------
# tabulation and range
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,params",
    [
        ("constant", {"alternative": "b"}),
        ("dictator-tiebreak", {"voter": 1}),
        ("paper-example", {}),
        ("plurality-tiebreak", {}),
    ],
)
def test_tabulate_agrees_pointwise(weak2, name, params):
    phi = builtin(name, weak2, **params)
    table = tabulate(phi)
    assert table.body_kind == "table"
    assert tabulate(table) is table
    for profile in iter_profiles(weak2):
        assert evaluate(table, profile) == evaluate(phi, profile)


def test_tabulate_median():
    alts = AlternativeSet.numbered(3)
    fs = FeasibleSet.single_peaked(alts, strict=True)
    domain = Domain.shared(fs, 2)
    phi = builtin("median-peaks", domain)
    assert len(tabulate(phi).table) == 16


def test_range_of(weak2, abc):
    assert range_of(builtin("constant", weak2, alternative="c")) == {2}
    assert range_of(builtin("dictator-tiebreak", weak2, voter=0)) == {0, 1, 2}
    two_valued = Scf.from_table(
        Domain.shared(FeasibleSet.explicit(abc, [parse_order("a>b>c", abc)]), 2),
        [1],
    )
    assert range_of(two_valued) == {1}


def test_table_validation(abc):
    domain = Domain.shared(FeasibleSet.universal_strict(abc), 1)
    with pytest.raises(ConstructionError):
        Scf.from_table(domain, [0, 1])  # wrong length
    with pytest.raises(ConstructionError):
        Scf.from_table(domain, [7] * 6)  # out of range
    with pytest.raises(ConstructionError):
        Scf(domain)  # no body


def test_cloned_rule_keeps_voter_positions(abc):
    fs = FeasibleSet.universal_strict(abc)
    base_domain = Domain.shared(fs, 4)
    phi = builtin("dictator-tiebreak", base_domain, voter=2)
    clone = builtin(
        "cloned", Domain.shared(fs, 2), base=phi.rule, assignment=(0, 1, 1, 0)
    )
    a_top = parse_order("a>b>c", abc)
    c_top = parse_order("c>b>a", abc)
    # original voter 2 receives class 1's report
    assert evaluate(clone, Profile((a_top, c_top))) == 2
    # a valid cloned rule loads back from its file form
    loaded = scf_from_dict(json.loads(json.dumps(scf_to_dict(clone))))
    assert loaded.rule == clone.rule
    assert evaluate(loaded, Profile((a_top, c_top))) == 2


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_scf_json_round_trip_rule(tmp_path, weak2):
    phi = builtin("dictator-tiebreak", weak2, voter=1, tiebreak=["c", "b", "a"])
    path = tmp_path / "scf.json"
    save_scf(phi, path)
    loaded = load_scf(path)
    assert loaded.rule == phi.rule
    assert loaded.domain == phi.domain
    again = tmp_path / "again.json"
    save_scf(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_scf_json_round_trip_table(tmp_path, abc):
    fs = FeasibleSet.explicit(abc, [parse_order("a>b>c", abc), parse_order("c>b>a", abc)])
    domain = Domain.shared(fs, 2)
    phi = Scf.from_table(domain, [0, 1, 2, 0])
    path = tmp_path / "table.json"
    save_scf(phi, path)
    loaded = load_scf(path)
    assert list(loaded.table) == [0, 1, 2, 0]
    again = tmp_path / "again.json"
    save_scf(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_scf_json_domain_file_reference(tmp_path, abc):
    (tmp_path / "dom.txt").write_text(
        "alternatives: a,b,c\nvoter 1: @universal-strict\nvoter 2: @universal-strict\n"
    )
    doc = {
        "alternatives": ["a", "b", "c"],
        "voters": 2,
        "domain": "dom.txt",
        "rule": {"name": "constant", "params": {"alternative": "b"}},
    }
    path = tmp_path / "scf.json"
    path.write_text(dumps_canonical(doc))
    phi = load_scf(path)
    assert phi.domain.profile_count() == 36
    assert evaluate(phi, profile_at(phi.domain, 0)) == 1


def test_scf_json_errors(tmp_path, abc):
    from prefrev import ParseError

    with pytest.raises(ParseError):
        scf_from_dict({"alternatives": ["a", "b"], "voters": 1})
    with pytest.raises(ParseError):
        scf_from_dict(
            {
                "alternatives": ["a", "b"],
                "voters": 2,
                "domain": {"voters": [{"preset": "@universal-weak"}]},
                "rule": {"name": "constant", "params": {"alternative": "a"}},
            }
        )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_scf(bad)


def test_scf_json_rejects_inconsistent_rule(weak2):
    doc = json.loads(dumps_canonical(scf_to_dict(builtin("paper-example", weak2))))
    doc["rule"] = {"name": "median-peaks", "params": {}}
    with pytest.raises(ArgumentError, match="single-peaked"):
        scf_from_dict(doc)


def test_rule_params_from_dict_missing_field(tmp_path, capsys, weak2):
    # A file's params reach builtin, which names the missing one.
    doc = scf_to_dict(builtin("dictator-tiebreak", weak2, voter=0))
    del doc["rule"]["params"]["voter"]
    with pytest.raises(ArgumentError, match="'voter'"):
        scf_from_dict(doc)
    path = tmp_path / "scf.json"
    path.write_text(dumps_canonical(doc))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'voter'" in err


def test_median_peaks_checks_a_shared_feasible_set_once(monkeypatch):
    calls = []

    def counting(order, axis):
        calls.append(order)
        return is_single_peaked(order, axis)

    monkeypatch.setattr(scf_module, "is_single_peaked", counting)
    doc = {
        "alternatives": ["1", "2", "3", "4", "5"],
        "voters": 1000,
        "domain": {"voters": [{"preset": "@single-peaked-strict"}] * 1000},
        "rule": {"name": "median-peaks", "params": {}},
    }
    assert scf_from_dict(doc).rule.name == "median-peaks"
    assert 0 < len(calls) <= 16


def test_equal_feasible_sets_share_rows_and_one_median_peaks_check(monkeypatch, abc):
    # Equal copies, not one object: rows, checks and errors go by equality,
    # and an error names the first voter with the set.
    weak, copy = FeasibleSet.universal_weak(abc), FeasibleSet.universal_weak(abc)
    assert weak == copy and weak is not copy
    base, ranks, top = scf_module._order_arrays(Domain((weak, copy, weak)))
    assert base.tolist() == [0, 0, 0]
    assert ranks.tolist() == [list(order.ranks) for order in weak]
    assert len(top) == len(weak)
    peaks = FeasibleSet.single_peaked(abc, strict=True)
    calls = []

    def counting(order, axis):
        calls.append(order)
        return is_single_peaked(order, axis)

    monkeypatch.setattr(scf_module, "is_single_peaked", counting)
    domain = Domain((peaks, FeasibleSet.single_peaked(abc, strict=True), peaks))
    assert builtin("median-peaks", domain).rule.name == "median-peaks"
    assert calls == list(peaks)
    with pytest.raises(ArgumentError, match="voter 2 admits a~b~c"):
        builtin("median-peaks", Domain((peaks, weak, copy)))


def _rules_in_file_form(abc):
    strict = Domain.shared(FeasibleSet.universal_strict(abc), 3)
    peaks = Domain.shared(
        FeasibleSet.single_peaked(abc, Axis((1, 0, 2)), strict=True), 3
    )
    base = {"name": "dictator-tiebreak", "params": {"voter": 3, "tiebreak": "cab"}}
    cloned = {
        "alternatives": ["a", "b", "c"],
        "voters": 2,
        "domain": {"voters": [{"preset": "@universal-strict"}] * 2},
        "rule": {"name": "cloned", "params": {"base": base, "assignment": [2, 1, 2]}},
    }
    return [
        builtin("constant", strict, alternative="c"),
        builtin("dictator-tiebreak", strict, voter=1, tiebreak=["c", "a", "b"]),
        builtin("paper-example", Domain.shared(FeasibleSet.universal_weak(abc), 2)),
        builtin("median-peaks", peaks, axis="bac"),
        builtin("plurality-tiebreak", strict, tiebreak=["b", "c", "a"]),
        scf_from_dict(cloned),
    ]


def test_every_rule_survives_save_and_load_byte_for_byte(tmp_path, abc):
    rules = _rules_in_file_form(abc)
    assert {phi.rule.name for phi in rules} == set(scf_module._RULE_KERNELS)
    for phi in rules:
        path, again = tmp_path / "scf.json", tmp_path / "again.json"
        save_scf(phi, path)
        loaded = load_scf(path)
        assert loaded.rule == phi.rule
        save_scf(loaded, again)
        assert path.read_bytes() == again.read_bytes()
        assert path.read_text() == dumps_canonical(scf_to_dict(phi))


def test_voters_naming_one_preset_share_one_feasible_set():
    doc = {
        "alternatives": ["a", "b", "c"],
        "voters": 3,
        "domain": {"voters": [{"preset": "@single-peaked"}] * 3},
        "rule": {"name": "constant", "params": {"alternative": "a"}},
    }
    feasible = scf_from_dict(doc).domain.feasible
    assert feasible[0] is feasible[1] is feasible[2]


def test_scf_json_preserves_presets(weak2):
    doc = scf_to_dict(builtin("paper-example", weak2))
    assert doc["domain"]["voters"][0] == {"preset": "@universal-weak"}
    again = scf_from_dict(json.loads(dumps_canonical(doc)))
    assert again.domain == weak2
