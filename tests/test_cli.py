"""End-to-end CLI behaviour: output, exit codes, determinism, replay."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from prefrev import (
    AlternativeSet,
    Domain,
    FeasibleSet,
    builtin,
    save_scf,
)
from prefrev.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def paper_scf_path(tmp_path, abc):
    domain = Domain.shared(FeasibleSet.universal_weak(abc), 2)
    path = tmp_path / "paper.json"
    save_scf(builtin("paper-example", domain), path)
    return str(path)


@pytest.fixture
def constant_scf_path(tmp_path, abc):
    domain = Domain.shared(FeasibleSet.universal_strict(abc), 2)
    path = tmp_path / "constant.json"
    save_scf(builtin("constant", domain, alternative="a"), path)
    return str(path)


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


def test_orders_weak(capsys):
    code, out, _ = run(capsys, "orders", "--k", "3", "--kind", "weak")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "13 orders"
    assert len(lines) == 14


def test_orders_strict(capsys):
    code, out, _ = run(capsys, "orders", "--k", "3", "--kind", "strict")
    assert code == 0
    assert out.strip().splitlines()[-1] == "6 orders"


def test_orders_single_peaked_strict(capsys):
    code, out, _ = run(
        capsys, "orders", "--k", "5", "--kind", "single-peaked", "--strict"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "16 orders"
    assert lines[0] == "1>2>3>4>5"


def test_orders_json(capsys):
    code, out, _ = run(
        capsys, "orders", "--k", "3", "--kind", "weak", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 13 and len(doc["orders"]) == 13


def test_orders_guard_is_an_error(capsys):
    code, _, err = run(capsys, "orders", "--k", "9", "--kind", "weak")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# domain-complete
# ---------------------------------------------------------------------------


def test_domain_complete_universal(capsys, tmp_path):
    path = tmp_path / "dom.txt"
    path.write_text("alternatives: a,b,c\nvoter 1: @universal-weak\n")
    code, out, _ = run(capsys, "domain-complete", str(path))
    assert code == 0
    assert "complete" in out


def test_domain_complete_singleton_gap(capsys, tmp_path):
    path = tmp_path / "dom.txt"
    path.write_text("alternatives: a,b,c\nvoter 1:\na~b>c\n")
    code, out, _ = run(capsys, "domain-complete", str(path), "--output", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["complete"] is False
    gap = doc["voters"][0]["gap"]
    assert gap == {"p": "a~b>c", "q": "a~b>c", "a": "a", "b": "c"}


def test_domain_complete_parse_error(capsys, tmp_path):
    path = tmp_path / "dom.txt"
    path.write_text("alternatives: a,b,c\nvoter 1:\na>>c\n")
    code, _, err = run(capsys, "domain-complete", str(path))
    assert code == 1
    assert "line 3" in err


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "domain-complete", "/nonexistent/file")
    assert code == 1


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_paper_example(capsys, paper_scf_path):
    code, out, _ = run(
        capsys, "check", paper_scf_path,
        "--properties", "isp,pr,dictator", "--output", "json",
    )
    assert code == 2
    doc = json.loads(out)
    by_prop = {rep["property"]: rep for rep in doc["reports"]}
    assert not by_prop["isp"]["holds"]
    assert not by_prop["pr"]["holds"]
    assert by_prop["dictator"]["holds"]
    assert by_prop["dictator"]["witness"]["voter"] == 1


def test_check_constant_all_manipulation_properties_hold(capsys, constant_scf_path):
    code, out, _ = run(
        capsys, "check", constant_scf_path, "--properties", "isp,gsp,pr,apr"
    )
    assert code == 0
    assert "FAILS" not in out


def test_check_recheck_witness(capsys, tmp_path, paper_scf_path):
    code, out, _ = run(
        capsys, "check", paper_scf_path,
        "--properties", "isp,pr", "--output", "json",
    )
    assert code == 2
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code2, out2, _ = run(
        capsys, "check", paper_scf_path, "--recheck-witness", str(report_path)
    )
    assert code2 == 0
    assert "re-validates" in out2


def test_check_recheck_rejects_tampered_witness(capsys, tmp_path, paper_scf_path):
    code, out, _ = run(
        capsys, "check", paper_scf_path, "--properties", "isp", "--output", "json"
    )
    doc = json.loads(out)
    doc["reports"][0]["witness"]["outcome_dev"] = "c"  # break the strict gain
    report_path = tmp_path / "tampered.json"
    report_path.write_text(json.dumps(doc))
    code2, out2, _ = run(
        capsys, "check", paper_scf_path, "--recheck-witness", str(report_path)
    )
    assert code2 == 2
    assert "INVALID" in out2


def _voter_zero_dictator(report):
    return {"reports": [{"property": "dictator", "holds": True,
                         "witness": {"type": "dictator", "voter": 0}}]}


def _voter_zero_candidate(report):
    report["reports"][0]["witness"]["candidates"][0]["voter"] = 0
    return report


def _voter_zero_coalition(report):
    witness = report["reports"][0]["witness"]
    witness["coalition"] = [0]
    witness["deviation"] = {"0": witness["deviation"]["2"]}
    return report


def _analysis_voters(*voters):
    def edit(report):
        for rec, voter in zip(report["reports"][0]["witness"]["analysis"], voters):
            rec["voter"] = voter
        return report
    return edit


@pytest.mark.parametrize("scf, prop, edit", [
    ("dictator", "dictator", _voter_zero_dictator),
    ("constant", "dictator", _voter_zero_candidate),
    ("paper", "isp", _voter_zero_coalition),
    ("paper", "pr", _analysis_voters(11, 12)),
    ("paper", "pr", _analysis_voters(2, 1)),
], ids=["dictator", "dictator-failure", "manipulation", "pr-violation",
        "analysis-order"])
def test_recheck_rejects_voters_outside_the_society(
    capsys, request, tmp_path, abc, scf, prop, edit
):
    # Voter numbers are 1-based: 0 would index the last voter, and 11 or 12
    # name voters a 2-voter society does not have.
    if scf == "dictator":
        domain = Domain.shared(FeasibleSet.universal_weak(abc), 2)
        scf_path = str(tmp_path / "dictator.json")
        save_scf(builtin("dictator-tiebreak", domain, voter=1), scf_path)
    else:
        scf_path = request.getfixturevalue(f"{scf}_scf_path")
    _, out, _ = run(capsys, "check", scf_path, "--properties", prop, "--output", "json")
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(edit(json.loads(out))))
    code, out, err = run(capsys, "check", scf_path, "--recheck-witness", str(report_path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "voter" in err


def test_check_json_determinism_across_parallelism(capsys, paper_scf_path):
    outs = []
    for workers in ("1", "8"):
        code, out, _ = run(
            capsys, "check", paper_scf_path,
            "--properties", "isp,gsp,pr,apr,dictator",
            "--output", "json", "--parallelism", workers,
        )
        assert code == 2
        outs.append(out)
    assert outs[0] == outs[1]


_SCF_DOC = {
    "alternatives": ["a", "b"],
    "voters": 2,
    "domain": {"voters": [{"preset": "@universal-weak"}] * 2},
    "rule": {"name": "constant", "params": {"alternative": "a"}},
}


def _scf_with(**fields):
    return json.dumps({**_SCF_DOC, **fields})


def _cloned_scf(assignment, voter):
    """A cloned dictator rule on 2 voters with strict orders over a, b."""
    base = {"name": "dictator-tiebreak",
            "params": {"voter": voter, "tiebreak": ["a", "b"]}}
    return _scf_with(
        domain={"voters": [{"preset": "@universal-strict"}] * 2},
        rule={"name": "cloned", "params": {"base": base, "assignment": assignment}},
    )


# Ranks are int8 and tables uint8, so 130 alternatives is past the limit.
_WIDE_NAMES = [f"x{i}" for i in range(130)]
_WIDE_TABLE_SCF = json.dumps({
    "alternatives": _WIDE_NAMES,
    "voters": 1,
    "domain": {"voters": [{"orders": [">".join(_WIDE_NAMES)]}]},
    "table": ["x0"],
})

_WITNESS_NO_COALITION = json.dumps({"reports": [{
    "property": "isp", "holds": False, "checked": 1,
    "witness": {"type": "manipulation", "truthful": ["a>b>c", "a>b>c"]},
}]})


@pytest.mark.parametrize("argv, text, env, expected", [
    (["check", "{file}"], _scf_with(voters="two"), None, 1),
    (["check", "{file}"], "[1, 2]", None, 1),
    (["verify", "thm-complete", "--rule", "dictator-tiebreak", "--params", "{bad"],
     None, None, 1),
    (["check", "{scf}", "--recheck-witness", "{file}"], "not json", None, 1),
    (["check", "{scf}", "--recheck-witness", "{file}"], _WITNESS_NO_COALITION, None, 1),
    (["check", "{scf}"], None, "two", 2),
    (["check", "{file}"], _scf_with(domain=5), None, 1),
    (["check", "{scf}", "--recheck-witness", "{file}"], '{"reports": [1]}', None, 1),
    (["check", "{file}"], _scf_with(alternatives=[1, 2]), None, 1),
    (["check", "{file}"], _scf_with(domain={"voters": [{"preset": 5}] * 2}), None, 1),
    (["verify", "thm-complete", "--rule", "dictator-tiebreak",
      "--params", '{"voter": "x"}'], None, None, 1),
    (["check", "{file}", "--properties", "isp"], _cloned_scf([5], voter=1), None, 1),
    (["check", "{file}", "--properties", "isp"], _cloned_scf([1, 2], voter=3), None, 1),
    (["check", "{file}", "--properties", "isp,pr"], _WIDE_TABLE_SCF, None, 1),
], ids=["voters-not-int", "scf-is-a-list", "params-not-json",
        "witness-not-json", "witness-no-coalition", "env-parallelism",
        "domain-not-object", "report-not-object", "alternatives-not-names",
        "preset-not-text", "params-voter-not-int", "cloned-assignment-outside",
        "cloned-base-voter-outside", "too-many-alternatives"])
def test_malformed_input_is_a_clean_error(
    capsys, monkeypatch, tmp_path, paper_scf_path, argv, text, env, expected
):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    if env is not None:
        monkeypatch.setenv("PREFREV_PARALLELISM", env)
    argv = [
        a.replace("{file}", str(path)).replace("{scf}", paper_scf_path) for a in argv
    ]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code == expected
    assert "error:" in capsys.readouterr().err


def _node_paths(doc, path=()):
    """The path to every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _node_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _node_paths(value, path + (i,))


def _replace_node(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_TOKENS = ("a", "b", "a>b", "a~b", "@universal-weak", "@single-peaked(axis=b,a)",
           "preset", "orders", "voters", "manipulation", "pr-violation",
           "dictator", "isp", "pr", "holds", "witness")
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False) | st.text(max_size=3)
    | st.sampled_from(_TOKENS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_TOKENS) | st.text(max_size=3), inner,
                      max_size=3),
    max_leaves=6,
)


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Valid small documents to mutate: two scf files and a check report."""
    root = tmp_path_factory.mktemp("fuzz")
    alts = AlternativeSet.letters(3)
    paper = root / "paper.json"
    save_scf(builtin("paper-example",
                     Domain.shared(FeasibleSet.universal_weak(alts), 2)), paper)
    code, report, _ = _main_quietly(["check", str(paper), "--output", "json"])
    assert code == 2
    mixed = {"voters": [{"preset": "@universal-strict"}, {"orders": ["a>b", "a~b"]}]}
    docs = {
        "rule": {**_SCF_DOC, "domain": mixed, "rule": {
            "name": "dictator-tiebreak", "params": {"voter": 2, "tiebreak": ["b", "a"]},
        }},
        "table": {"alternatives": ["a", "b"], "voters": 2, "domain": mixed,
                  "table": ["a", "b", "b", "a"]},
        "report": json.loads(report),
    }
    return root, str(paper), docs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_document_ends_cleanly(fuzz_inputs, data):
    # One node of a valid scf file or check report is replaced by a small
    # JSON value; the CLI must answer with an exit code, never a traceback.
    root, paper, docs = fuzz_inputs
    kind = data.draw(st.sampled_from(sorted(docs)))
    doc = docs[kind]
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    fuzzed = root / "fuzzed.json"
    fuzzed.write_text(json.dumps(_replace_node(doc, path, data.draw(_SMALL_JSON))))
    if kind == "report":
        argv = ["check", paper, "--recheck-witness", str(fuzzed)]
    else:
        argv = ["check", str(fuzzed)]
    code, _, err = _main_quietly(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_prop_apr_gsp(capsys):
    code, out, _ = run(
        capsys, "verify", "prop-apr-gsp",
        "--voters", "2", "--orders-per-voter", "2", "--k", "3",
        "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] and doc["checked"] == 81


@pytest.mark.parametrize("suite", ["prop-apr-gsp", "thm-range3", "summary-equivalence"])
def test_verify_table_over_the_gsp_guard_is_an_error(capsys, suite):
    # One table of 2 voters x 120 orders: 14,400 profiles, so its group
    # manipulation scan is past the guard before any table is decided.
    code, out, err = run(
        capsys, "verify", suite, "--k", "5", "--orders-per-voter", "120",
        "--voters", "2", "--target", "a,b,c", "--limit", "1",
    )
    assert code == 1 and out == ""
    assert err == (
        "error: group manipulation scan needs 207345600 cases, guard is 100000000\n"
    )


def test_verify_thm_range3_with_explicit_weak_orders(capsys):
    code, out, _ = run(
        capsys, "verify", "thm-range3",
        "--voters", "2", "--k", "3", "--orders", "a~b>c;c>a~b",
        "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["isp_tables"] == doc["details"]["gsp_tables"]


def test_verify_thm_complete_rule(capsys):
    code, out, _ = run(
        capsys, "verify", "thm-complete",
        "--rule", "median-peaks", "--feasible", "@single-peaked-strict",
        "--k", "5", "--voters", "2", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["holds"]


def test_verify_feasible_takes_the_domain_file_preset_syntax(capsys):
    # --axis is appended to a bare preset; a preset with its own argument
    # is taken as written.
    common = ("verify", "thm-complete", "--rule", "median-peaks", "--k", "4",
              "--params", '{"axis": ["b", "a", "c", "d"]}', "--output", "json")
    outs = []
    for feasible in (("--feasible", "@single-peaked-strict", "--axis", "b,a,c,d"),
                     ("--feasible", "@single-peaked-strict(axis=b,a,c,d)")):
        code, out, _ = run(capsys, *common, *feasible)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, _, err = run(capsys, *common, "--feasible", "@nowhere")
    assert code == 1 and "unknown preset" in err


def test_verify_thm_complete_rule_default_feasible(capsys):
    # the feasible preset defaults to whatever the rule needs
    code, out, _ = run(
        capsys, "verify", "thm-complete",
        "--rule", "median-peaks", "--k", "5", "--voters", "2",
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["holds"]


def test_verify_isp_not_pr_futile(capsys):
    code, out, _ = run(
        capsys, "verify", "isp-not-pr",
        "--voters", "2", "--orders-per-voter", "2", "--k", "3",
        "--budget", "10", "--output", "json",
    )
    assert code == 0
    assert "at most 3" in json.loads(out)["details"]["reason"]


@pytest.mark.parametrize(
    "theorem,flags,message",
    [
        ("isp-not-pr", ("--k", "4", "--budget", "-5"), "table budget -5 is negative"),
        ("thm-range3", ("--limit", "-1"), "table limit -1 is negative"),
    ],
)
def test_verify_rejects_negative_counts(capsys, theorem, flags, message):
    code, out, err = run(
        capsys, "verify", theorem, "--voters", "2", "--orders-per-voter", "3",
        *flags, "--output", "json",
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_verify_limit_zero_checks_no_table(capsys):
    code, out, _ = run(capsys, "verify", "prop-apr-gsp", "--limit", "0", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == 0 and doc["universe"].endswith("; 0 tables")


def test_verify_orders_flag_with_per_voter_groups(capsys):
    # '|' separates voters, ';' separates orders within a voter
    code, out, _ = run(
        capsys, "verify", "summary-equivalence",
        "--voters", "2", "--k", "3",
        "--orders", "a>b>c;a>c>b|b>a>c;c>b>a",
        "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] and doc["details"]["tables"] == 81


def test_orders_with_custom_axis(capsys):
    code, out, _ = run(
        capsys, "orders", "--k", "3", "--kind", "single-peaked", "--strict",
        "--names", "a,b,c", "--axis", "b,a,c",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "4 orders"
    # peaks must be contiguous along the b,a,c arrangement
    assert "b>a>c" in lines


def test_verify_unknown_property_error(capsys, paper_scf_path):
    code, _, err = run(capsys, "check", paper_scf_path, "--properties", "zzz")
    assert code == 1
    assert "unknown property" in err


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------


@pytest.fixture
def quotient_files(tmp_path):
    alts = AlternativeSet.numbered(5)
    fs = FeasibleSet.single_peaked(alts, strict=True)
    scf_path = tmp_path / "median.json"
    save_scf(builtin("median-peaks", Domain.shared(fs, 100)), scf_path)
    p = tmp_path / "p.profile"
    p.write_text(
        "alternatives: 1,2,3,4,5\n"
        "40 x 2>3>4>5>1\n35 x 3>4>5>2>1\n25 x 4>5>3>2>1\n"
    )
    q = tmp_path / "q.profile"
    q.write_text(
        "alternatives: 1,2,3,4,5\n"
        "40 x 4>5>3>2>1\n35 x 3>4>5>2>1\n25 x 5>4>3>2>1\n"
    )
    return str(scf_path), str(p), str(q)


def test_quotient_command(capsys, quotient_files):
    scf, p, q = quotient_files
    code, out, _ = run(
        capsys, "quotient", "--scf", scf, "--profile-p", p, "--profile-q", q,
        "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 3
    assert doc["witness"]["valid"] is True
    assert doc["samples_agreed"] == doc["samples_checked"] == 100


def test_quotient_exit_code_is_the_theorem_verdict(capsys, tmp_path):
    # The outcomes differ and no class witnesses a reversal, but the shared
    # feasible set is incomplete and the range is 4, so no hypothesis holds
    # and the infinite-society theorem requires no witness: exit 0.
    orders = ["a>b>c>d", "b>a>c>d", "c>d>a>b", "d>c>b>a"]
    scf = tmp_path / "plurality.json"
    scf.write_text(json.dumps({
        "alternatives": ["a", "b", "c", "d"],
        "voters": 3,
        "domain": {"voters": [{"orders": orders}] * 3},
        "rule": {"name": "plurality-tiebreak", "params": {}},
    }))
    p = tmp_path / "p.profile"
    p.write_text("alternatives: a,b,c,d\na>b>c>d\n2 x b>a>c>d\n")
    q = tmp_path / "q.profile"
    q.write_text("alternatives: a,b,c,d\na>b>c>d\nb>a>c>d\nd>c>b>a\n")
    code, out, _ = run(
        capsys, "quotient", "--scf", str(scf), "--profile-p", str(p),
        "--profile-q", str(q), "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    del doc["scf"]
    assert doc == {
        "command": "quotient",
        "alpha": 3,
        "case": "shared",
        "classes": [
            {"rep_p": "a>b>c>d", "rep_q": "a>b>c>d", "voters": [1]},
            {"rep_p": "b>a>c>d", "rep_q": "b>a>c>d", "voters": [2]},
            {"rep_p": "b>a>c>d", "rep_q": "d>c>b>a", "voters": [3]},
        ],
        "outcome_p": "b",
        "outcome_q": "a",
        "hypothesis": {"kind": "complete-domain", "verified": False},
        "samples_checked": 100,
        "samples_agreed": 100,
        "seed": 0,
        "witness": None,
    }


def test_quotient_rejects_a_negative_sample_count(capsys, quotient_files):
    scf, p, q = quotient_files
    code, out, err = run(
        capsys, "quotient", "--scf", scf, "--profile-p", p, "--profile-q", q,
        "--samples", "-1", "--output", "json",
    )
    assert (code, out, err) == (1, "", "error: sample count -1 is negative\n")


def test_quotient_seed_recorded_and_deterministic(capsys, quotient_files):
    scf, p, q = quotient_files
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "quotient", "--scf", scf, "--profile-p", p, "--profile-q", q,
            "--seed", "5", "--output", "json",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["seed"] == 5
