"""End-to-end CLI behaviour: output, exit codes, determinism, replay."""

import argparse
import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from prefrev import (
    AlternativeSet,
    Axis,
    Domain,
    FeasibleSet,
    builtin,
    enumerate_single_peaked,
    enumerate_strict_orders,
    enumerate_weak_orders,
    format_order,
    parse_alternatives,
    save_scf,
)
from prefrev import cli
from prefrev.cli import build_parser, main
from prefrev.scf import dumps_canonical


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
    for output in ("text", "json"):
        code, out, err = run(
            capsys, "orders", "--k", "9", "--kind", "weak", "--output", output
        )
        assert code == 1
        assert "error:" in err
        assert out == ""


@pytest.mark.parametrize(
    "args, kind, strict, axis",
    [
        (("--k", "4", "--kind", "weak"), "weak", False, None),
        (("--k", "4", "--kind", "strict"), "strict", False, None),
        (("--k", "1", "--kind", "weak"), "weak", False, None),
        (("--k", "5", "--kind", "single-peaked"), "single-peaked", False, None),
        (("--k", "4", "--kind", "single-peaked", "--strict", "--axis", "3,1,4,2"),
         "single-peaked", True, (2, 0, 3, 1)),
        (("--k", "3", "--kind", "weak", "--names", "x,\u00e9,\"q", "--seed", "5"),
         "weak", False, None),
    ],
)
def test_orders_stream_the_canonical_document(capsys, args, kind, strict, axis):
    # The streamed bytes are the ones the whole document dumps to.
    argv = dict(zip(args[::2], args[1::2]))
    k = int(argv["--k"])
    if "--names" in argv:
        alts = parse_alternatives(argv["--names"])
    elif kind == "single-peaked":
        alts = AlternativeSet.numbered(k)
    else:
        alts = AlternativeSet.default(k)
    if kind == "weak":
        orders = enumerate_weak_orders(k)
    elif kind == "strict":
        orders = enumerate_strict_orders(k)
    else:
        orders = enumerate_single_peaked(
            k, None if axis is None else Axis(axis), strict=strict
        )
    rendered = [format_order(order, alts) for order in orders]
    doc = {
        "command": "orders",
        "seed": int(argv.get("--seed", 0)),
        "k": k,
        "kind": kind,
        "strict": strict,
        "orders": rendered,
        "count": len(rendered),
    }
    code, out, _ = run(capsys, "orders", *args, "--output", "json")
    assert code == 0 and out == dumps_canonical(doc)
    code, out, _ = run(capsys, "orders", *args)
    assert code == 0
    assert out == "".join(line + "\n" for line in rendered + [f"{len(rendered)} orders"])


# ---------------------------------------------------------------------------
# domain-complete
# ---------------------------------------------------------------------------


def test_domain_complete_universal(capsys, tmp_path):
    path = tmp_path / "dom.txt"
    path.write_text("alternatives: a,b,c\nvoter 1: @universal-weak\n")
    code, out, _ = run(capsys, "domain-complete", str(path))
    assert code == 0
    assert "complete" in out


def test_domain_complete_universal_weak_k5(capsys, tmp_path):
    path = tmp_path / "dom.txt"
    path.write_text("alternatives: a,b,c,d,e\nvoter 1: @universal-weak\n")
    code, out, _ = run(capsys, "domain-complete", str(path), "--output", "json")
    assert code == 0
    voter = json.loads(out)["voters"][0]
    assert (voter["complete"], voter["checked"], voter["orders"]) == (True, 3956340, 541)


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


def test_domain_file_that_is_not_utf8_is_an_error(capsys, tmp_path):
    path = tmp_path / "dom.txt"
    path.write_bytes(b"alternatives: a,b,c\nvoter 1:\na>b\xff>c\n")
    message = f"error: {path}: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"
    assert run(capsys, "domain-complete", str(path)) == (1, "", message)
    # A domain file that an scf file names is reported under its own name.
    scf = tmp_path / "constant.json"
    scf.write_text(json.dumps({
        "alternatives": ["a", "b", "c"], "voters": 1, "domain": "dom.txt",
        "rule": {"name": "constant", "params": {"alternative": "a"}},
    }))
    assert run(capsys, "check", str(scf)) == (1, "", message)


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


def test_recheck_judges_a_pr_violation_by_its_own_kind(capsys, tmp_path, pr_not_apr_rule):
    # PR's witness pair, filed under APR, is no APR violation; a kind other
    # than pr and apr is a malformed witness.
    scf_path = str(tmp_path / "rule.json")
    save_scf(pr_not_apr_rule, scf_path)
    _, out, _ = run(capsys, "check", scf_path, "--properties", "pr", "--output", "json")
    doc = json.loads(out)
    report_path = tmp_path / "report.json"
    doc["reports"][0]["property"] = "apr"
    report_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", scf_path, "--recheck-witness", str(report_path))
    assert (code, out, err) == (2, "apr: witness INVALID\ninvalid witness\n", "")
    doc["reports"][0]["property"] = "pr"
    doc["reports"][0]["witness"]["kind"] = "zz"
    report_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", scf_path, "--recheck-witness", str(report_path))
    assert (code, out) == (1, "")
    assert err == f"error: {report_path}: PR violation kind 'zz' is neither 'pr' nor 'apr'\n"


@pytest.mark.parametrize("prop", ["pr", "dictator"])
def test_recheck_refuses_a_witness_filed_under_another_property(
    capsys, tmp_path, paper_scf_path, prop
):
    # An ISP manipulation filed under PR or dictatorship is one error line
    # naming the file, the witness type and the property.
    _, out, _ = run(capsys, "check", paper_scf_path, "--properties", "isp", "--output", "json")
    doc = json.loads(out)
    doc["reports"][0]["property"] = prop
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", paper_scf_path, "--recheck-witness", str(report_path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {report_path}: a 'manipulation' witness does not stand for property {prop!r}\n"
    )


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


def _truncated_analysis(report):
    del report["reports"][0]["witness"]["analysis"][1:]
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
    ("paper", "pr", _truncated_analysis),
], ids=["dictator", "dictator-failure", "manipulation", "pr-violation",
        "analysis-order", "analysis-length"])
def test_recheck_rejects_voters_outside_the_society(
    capsys, request, tmp_path, abc, scf, prop, edit
):
    # Voter numbers are 1-based: 0 would index the last voter, and 11 or 12
    # name voters a 2-voter society does not have.  An analysis needs one
    # entry per voter.
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
    assert err.startswith(f"error: {report_path}: ") and "voter" in err


def _pr_kind(kind):
    def edit(report):
        report["reports"][0]["witness"]["kind"] = kind
        return report
    return edit


@pytest.mark.parametrize("prop, edit, message", [
    ("pr", _truncated_analysis, "PR analysis needs 2 entries, one per voter; it has 1"),
    ("pr", _pr_kind("zz"), "PR violation kind 'zz' is neither 'pr' nor 'apr'"),
    ("isp", _voter_zero_coalition, "witness names voter 0; voters are 1..2"),
], ids=["analysis-length", "pr-kind", "voter"])
def test_recheck_names_the_report_in_witness_errors(
    capsys, tmp_path, paper_scf_path, prop, edit, message
):
    # A malformed witness is an error in the report file, named like the
    # report's other errors.
    _, out, _ = run(capsys, "check", paper_scf_path, "--properties", prop, "--output", "json")
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(edit(json.loads(out))))
    code, out, err = run(capsys, "check", paper_scf_path, "--recheck-witness", str(report_path))
    assert (code, out, err) == (1, "", f"error: {report_path}: {message}\n")


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


def _cloned_scf(assignment, voter, **extra):
    """A cloned dictator rule on 2 voters with strict orders over a, b;
    ``extra`` joins the base rule's params."""
    base = {"name": "dictator-tiebreak",
            "params": {"voter": voter, "tiebreak": ["a", "b"], **extra}}
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
    (["check", "{scf}"], None, "two", 1),
    (["check", "{file}"], _scf_with(domain=5), None, 1),
    (["check", "{scf}", "--recheck-witness", "{file}"], '{"reports": [1]}', None, 1),
    (["check", "{file}"], _scf_with(alternatives=[1, 2]), None, 1),
    (["check", "{file}"], _scf_with(domain={"voters": [{"preset": 5}] * 2}), None, 1),
    (["verify", "thm-complete", "--rule", "dictator-tiebreak",
      "--params", '{"voter": "x"}'], None, None, 1),
    (["check", "{file}", "--properties", "isp"], _cloned_scf([5], voter=1), None, 1),
    (["check", "{file}", "--properties", "isp"], _cloned_scf([1, 2], voter=3), None, 1),
    (["check", "{file}", "--properties", "isp,pr"], _WIDE_TABLE_SCF, None, 1),
    (["check", "{scf}", "--properties", ""], None, None, 1),
    (["check", "{scf}", "--properties", " , "], None, None, 1),
    (["check"], None, None, 1),
    (["orders", "--k", "3", "--parallelism", "two"], None, None, 1),
    (["verify", "no-such-theorem"], None, None, 1),
    ([], None, None, 1),
], ids=["voters-not-int", "scf-is-a-list", "params-not-json",
        "witness-not-json", "witness-no-coalition", "env-parallelism",
        "domain-not-object", "report-not-object", "alternatives-not-names",
        "preset-not-text", "params-voter-not-int", "cloned-assignment-outside",
        "cloned-base-voter-outside", "too-many-alternatives", "no-properties",
        "blank-properties", "missing-file", "parallelism-not-int",
        "unknown-theorem", "no-command"])
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
    # Usage errors too: argparse's own exit code, 2, is the witness code.
    assert main(argv) == expected
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["check", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: prefrev")


@pytest.mark.parametrize("argv, text, key", [
    (["check", "{file}"],
     _scf_with(rule={"name": "dictator-tiebreak",
                     "params": {"voter": 1, "tie_break": ["b", "a"]}}),
     "tie_break"),
    (["check", "{file}"],
     _scf_with(rule={"name": "paper-example", "params": {"voter": 1}}), "voter"),
    (["check", "{file}"], _cloned_scf([1, 2], voter=1, tiebrake=["b", "a"]),
     "tiebrake"),
    (["verify", "thm-complete", "--rule", "median-peaks", "--k", "3",
      "--params", '{"axs": ["3", "2", "1"]}'], None, "axs"),
], ids=["file-tie_break", "paper-example-param", "cloned-base-key", "params-axs"])
def test_unknown_rule_parameter_is_an_error_naming_it(capsys, tmp_path, argv, text, key):
    path = tmp_path / "scf.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("argv, text, voter", [
    (["check", "{file}"],
     _scf_with(rule={"name": "dictator-tiebreak", "params": {"voter": 3}}), 3),
    (["verify", "thm-complete", "--rule", "dictator-tiebreak",
      "--params", '{"voter": 0}'], None, 0),
], ids=["file-voter-3", "params-voter-0"])
def test_dictator_voter_out_of_range_is_named_1_based(capsys, tmp_path, argv, text, voter):
    path = tmp_path / "scf.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert (code, out, err) == (1, "", f"error: dictator voter {voter} outside 1..2\n")


def _dictator_rule(voter):
    return {"name": "dictator-tiebreak", "params": {"voter": voter}}


@pytest.mark.parametrize("text, message", [
    (_scf_with(rule=_dictator_rule(True)), "voter must be an integer, not True"),
    (_scf_with(rule=_dictator_rule(1.7)), "voter must be an integer, not 1.7"),
    (_scf_with(rule={"name": "constant", "params": {"alternative": 1.5}}),
     "an alternative must be an integer, not 1.5"),
    (_scf_with(rule={"name": "plurality-tiebreak", "params": {"tiebreak": [0, 1.9]}}),
     "an alternative must be an integer, not 1.9"),
    (_scf_with(voters="2"), "'voters' must be an integer, not '2'"),
    (_scf_with(voters=2.0), "'voters' must be an integer, not 2.0"),
    (_cloned_scf([1, True], voter=1), "an assigned voter must be an integer, not True"),
], ids=["voter-true", "voter-float", "alternative-float", "tiebreak-float",
        "voters-text", "voters-float", "assignment-true"])
def test_integers_in_scf_files_are_checked_not_coerced(capsys, tmp_path, text, message):
    # true and 1.7 once read as voter 1, and 1.5 and 1.9 as alternative b.
    path = tmp_path / "scf.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (1, "", f"error: {path}: malformed document: {message}\n")


@pytest.mark.parametrize("params, message", [
    ('{"voter": true}', "voter must be an integer, not True"),
    ('{"voter": 2.0}', "voter must be an integer, not 2.0"),
])
def test_integers_in_params_are_checked_not_coerced(capsys, params, message):
    code, out, err = run(capsys, "verify", "thm-complete", "--rule", "dictator-tiebreak",
                         "--params", params)
    assert (code, out, err) == (1, "", f"error: --params: malformed document: {message}\n")


@pytest.mark.parametrize("voter", [True, 1.0])
def test_a_witness_voter_must_be_an_integer(capsys, tmp_path, voter):
    # A dictator witness naming voter true once re-validated as voter 1.
    domain = Domain.shared(FeasibleSet.universal_weak(AlternativeSet.letters(3)), 2)
    scf_path = str(tmp_path / "dictator.json")
    save_scf(builtin("dictator-tiebreak", domain, voter=0), scf_path)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({"reports": [{
        "property": "dictator", "holds": True,
        "witness": {"type": "dictator", "voter": voter},
    }]}))
    code, out, err = run(capsys, "check", scf_path, "--recheck-witness", str(report_path))
    assert (code, out, err) == (1, "", (
        f"error: {report_path}: malformed document: "
        f"a witness voter must be an integer, not {voter!r}\n"
    ))


def test_integers_may_be_numpy_integers(abc):
    import numpy as np

    domain = Domain.shared(FeasibleSet.universal_weak(abc), 2)
    rule = builtin("dictator-tiebreak", domain, voter=np.int64(1), tiebreak=[np.uint8(2), 0, 1])
    assert rule.rule.params == {"voter": 1, "tiebreak": (2, 0, 1)}
    with pytest.raises(TypeError, match="voter must be an integer, not True"):
        builtin("dictator-tiebreak", domain, voter=True)


_THM_COMPLETE = ("verify", "thm-complete", "--k", "3")


@pytest.mark.parametrize("argv, message", [
    (("--rule", "dictator-tiebreak", "--params", '{"voter": 1}', "--axis", "b,a,c"),
     "--axis applies only to a bare single-peaked preset, not to '@universal-weak'"),
    (("--rule", "median-peaks", "--feasible", "@single-peaked(axis=c,a,b)",
      "--axis", "b,a,c"),
     "--axis applies only to a bare single-peaked preset, "
     "not to '@single-peaked(axis=c,a,b)'"),
    (("--rule", "constant", "--params", '{"alternative": "a"}',
      "--feasible", "@universal-strict", "--axis", "b,a,c"),
     "--axis applies only to a bare single-peaked preset, not to '@universal-strict'"),
    (("--rule", "constant", "--params", '{"alternative": "a"}',
      "--feasible", "@universal-weak(axis=c,b,a)"),
     "preset @universal-weak takes no axis"),
], ids=["default-preset", "preset-with-axis", "universal-preset", "universal-axis"])
def test_an_axis_is_never_dropped(capsys, argv, message):
    code, out, err = run(capsys, *_THM_COMPLETE, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_universal_preset_with_an_axis_names_its_line(capsys, tmp_path):
    path = tmp_path / "axis.domain"
    path.write_text("alternatives: a,b,c\nvoter 1: @universal-weak\n"
                    "voter 2: @universal-strict(axis=c,b,a)\n")
    code, out, err = run(capsys, "domain-complete", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: line 3: preset @universal-strict takes no axis\n"


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
    # One table of 3 voters x 36 orders: 46,656 profiles, so its pair scan
    # is past the guard before any table is decided.
    code, out, err = run(
        capsys, "verify", suite, "--k", "5", "--orders-per-voter", "36",
        "--voters", "3", "--target", "a,b,c", "--limit", "1",
    )
    assert code == 1 and out == ""
    assert err == (
        "error: pairwise scan needs 2176735680 ordered pairs, guard is 2000000000\n"
    )


def test_check_gsp_within_the_pair_guard(capsys, tmp_path):
    # 4 voters x 13 weak orders: 815,702,160 ordered pairs, within the guard.
    domain = Domain.shared(FeasibleSet.universal_weak(AlternativeSet.letters(3)), 4)
    path = tmp_path / "plurality.json"
    save_scf(builtin("plurality-tiebreak", domain), path)
    code, out, _ = run(capsys, "check", str(path), "--properties", "gsp", "--output", "json")
    assert code == 2
    (report,) = json.loads(out)["reports"]
    assert (report["holds"], report["checked"]) == (False, 171_403)


@pytest.mark.parametrize("name, rule, params, expected_code, checked, digest", [
    ("dict6.json", "dictator-tiebreak", {"voter": 3, "tiebreak": ["a", "b", "c"]}, 0,
     (347_530_248, 5_266_211), "ec463bca7f4ed0e8449ed0b254aae835088a95af49ca52e8e60b7e7e1a399499"),
    ("plur6.json", "plurality-tiebreak", {"tiebreak": ["c", "a", "b"]}, 2,
     (135, 402_240), "526211e5de4b657b51eec08949ecbd9abd4959bdd3725752793ee56d82c8137d"),
])
def test_six_voter_checks_walk_the_classes_the_rule_reads(
    capsys, tmp_path, monkeypatch, name, rule, params, expected_code, checked, digest
):
    # 6 voters x @universal-weak k=3, 4,826,809 profiles.  ISP and
    # dictatorship walk each voter's orders against the other voters'
    # classes; stdout is the bytes (sha256) that scanning every profile
    # printed, witnesses and checked counts included.
    import hashlib

    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps({
        "alternatives": ["a", "b", "c"], "voters": 6,
        "domain": {"voters": [{"preset": "@universal-weak"}] * 6},
        "rule": {"name": rule, "params": params},
    }))
    code, out, _ = run(capsys, "check", name, "--properties", "isp,dictator", "--output", "json")
    assert code == expected_code
    assert tuple(r["checked"] for r in json.loads(out)["reports"]) == checked
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        ("prop-apr-gsp", ("--orders-per-voter", "-2"),
         "--orders-per-voter is -2; it must be at least 1"),
        ("prop-apr-gsp", ("--orders-per-voter", "0"),
         "--orders-per-voter is 0; it must be at least 1"),
    ],
)
def test_verify_rejects_negative_counts(capsys, theorem, flags, message):
    code, out, err = run(
        capsys, "verify", theorem, "--voters", "2", "--orders-per-voter", "3",
        *flags, "--output", "json",
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


_UNIVERSE = ("--k", "3", "--voters", "2", "--orders-per-voter", "2")


@pytest.mark.parametrize("argv, message", [
    (("verify", "isp-not-pr", "--k", "4", "--orders-per-voter", "3",
      "--budget", "100", "--max-tables", "0"),
     "unrecognized arguments: --max-tables 0"),
    (("verify", "isp-not-pr", "--k", "4", "--orders-per-voter", "3",
      "--max-profiles", "5"),
     "unrecognized arguments: --max-profiles 5"),
    (("verify", "prop-apr-gsp", *_UNIVERSE, "--max-profiles", "1"),
     "unrecognized arguments: --max-profiles 1"),
    (("verify", "thm-range3", *_UNIVERSE, "--max-profiles", "1"),
     "unrecognized arguments: --max-profiles 1"),
    (("verify", "summary-equivalence", *_UNIVERSE, "--max-profiles", "1"),
     "unrecognized arguments: --max-profiles 1"),
    (("verify", "thm-complete", "--rule", "median-peaks", "--k", "3",
      "--max-tables", "1"),
     "unrecognized arguments: --max-tables 1"),
    (("orders", "--k", "3", "--max-profiles", "1"),
     "unrecognized arguments: --max-profiles 1"),
    (("orders", "--k", "3", "--max-tables", "1"),
     "unrecognized arguments: --max-tables 1"),
    (("domain-complete", "PATH", "--max-profiles", "1"),
     "unrecognized arguments: --max-profiles 1"),
    (("domain-complete", "PATH", "--max-tables", "1"),
     "unrecognized arguments: --max-tables 1"),
    (("quotient", "--scf", "PATH", "--profile-p", "PATH", "--profile-q", "PATH",
      "--max-profiles", "1"),
     "unrecognized arguments: --max-profiles 1"),
    (("quotient", "--scf", "PATH", "--profile-p", "PATH", "--profile-q", "PATH",
      "--max-tables", "1"),
     "unrecognized arguments: --max-tables 1"),
    (("check", "SCF", "--max-tables", "1"),
     "unrecognized arguments: --max-tables 1"),
    (("check", "SCF", "--recheck-witness", "PATH", "--max-profiles", "1"),
     "check --recheck-witness takes no --max-profiles"),
])
def test_guard_flags_a_command_does_not_apply_are_refused(
    capsys, paper_scf_path, argv, message
):
    # PATH stands for a file that is never read; the refusal comes first.
    argv = [paper_scf_path if a == "SCF" else "missing.txt" if a == "PATH" else a
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("check", "SCF", "--max-profiles", "8"), "profile space has 169 profiles, guard is 8"),
    (("verify", "thm-range3", *_UNIVERSE, "--max-tables", "80"),
     "table universe exceeds 80; set a limit or shrink the spec"),
    (("verify", "thm-complete", "--rule", "median-peaks", "--k", "3",
      "--max-profiles", "15"),
     "profile space has 16 profiles, guard is 15"),
])
def test_guard_flags_a_command_applies_act(capsys, paper_scf_path, argv, message):
    argv = [paper_scf_path if a == "SCF" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_verify_isp_not_pr_refuses_a_limit(capsys):
    code, out, err = run(
        capsys, "verify", "isp-not-pr", "--voters", "2", "--orders-per-voter", "3",
        "--k", "4", "--limit", "5", "--budget", "300", "--output", "json",
    )
    # --budget alone bounds the search, so its parser has no --limit.
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --limit 5\n")


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _long_flags(parser: argparse.ArgumentParser) -> dict[str, bool]:
    """Each long flag of a parser, with whether it takes a value."""
    return {flag: action.nargs != 0 for action in parser._actions
            for flag in action.option_strings if flag.startswith("--")}


#: Flags that make a run of each theorem valid, and small.
_THEOREM_BASE = {"thm-complete": ("--rule", "median-peaks")}


def test_each_theorem_refuses_the_flags_only_another_theorem_reads(capsys):
    theorems = {name: _long_flags(p)
                for name, p in _subparsers(_subparsers(build_parser("1"))["verify"]).items()}
    assert set(theorems) == {"prop-apr-gsp", "thm-range3", "summary-equivalence",
                             "isp-not-pr", "thm-complete"}
    for theorem, own in theorems.items():
        foreign = {flag: takes_value for other in theorems.values()
                   for flag, takes_value in other.items() if flag not in own}
        assert foreign, theorem
        base = _THEOREM_BASE.get(theorem, ("--orders-per-voter", "2"))
        for flag, takes_value in foreign.items():
            given = (flag, "1") if takes_value else (flag,)
            code, out, err = run(capsys, "verify", theorem, *base, *given)
            assert (code, out, err) == (
                1, "", f"error: unrecognized arguments: {' '.join(given)}\n"
            ), (theorem, flag)


@pytest.mark.parametrize("argv, message", [
    (("verify", "thm-range3", "--voters", "2", "--orders-per-voter", "2", "--k", "3",
      "--budget", "5"), "unrecognized arguments: --budget 5"),
    (("verify", "thm-complete", "--rule", "median-peaks", "--k", "4", "--voters", "2",
      "--limit", "3"), "unrecognized arguments: --limit 3"),
    # "2" is also the default, which argparse's own test of a group misses.
    (("verify", "thm-range3", "--k", "3", "--orders", "a>b>c", "--orders-per-voter", "2"),
     "argument --orders-per-voter: not allowed with argument --orders"),
    # An empty --orders lists no orders; it does not stand for the default.
    (("verify", "thm-range3", "--orders", ""), "feasible set must be non-empty"),
    (("verify", "thm-complete", "--scf", "F", "--rule", "median-peaks"),
     "argument --rule: not allowed with argument --scf"),
    (("verify", "thm-complete"), "one of the arguments --scf --rule is required"),
    (("orders", "--k", "2", "--kind", "weak", "--strict"),
     "--strict applies only to --kind single-peaked"),
    (("orders", "--k", "3", "--kind", "strict", "--axis", "b,a,c"),
     "--axis applies only to --kind single-peaked"),
    (("orders", "--k", "3", "--names", "x,y"), "--names lists 2 alternatives; --k is 3"),
    (("orders", "--k", "2", "--kind", "single-peaked", "--names", "x,y,z"),
     "--names lists 3 alternatives; --k is 2"),
    (("verify", "prop-apr-gsp", "--names", "x,y,z,w"),
     "--names lists 4 alternatives; --k is 3"),
    (("verify", "thm-complete", "--rule", "constant", "--names", "x,y"),
     "--names lists 2 alternatives; --k is 3"),
    (("orders", "--k", "0"), "need at least one alternative"),
    (("verify", "prop-apr-gsp", "--k", "3", "--orders-per-voter", "7"),
     "only 6 strict orders exist at k=3"),
])
def test_flags_that_contradict_each_other_are_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("verify", "thm-range3", "--orders-per-voter", "2", "--target", ""),
     "--target lists no alternative"),
    (("verify", "isp-not-pr", "--k", "4", "--target", " "), "--target lists no alternative"),
    (("orders", "--k", "3", "--names", ""), "--names lists no alternative"),
    (("verify", "thm-range3", "--k", "3", "--names", ""), "--names lists no alternative"),
    (("verify", "thm-complete", "--rule", "constant", "--names", " "),
     "--names lists no alternative"),
])
def test_empty_target_and_names_are_refused(capsys, argv, message):
    # An empty --target or --names lists nothing, as an empty --orders
    # does; it does not stand for the default.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", [
    ("--k", "3"), ("--voters", "2"), ("--params", "{}"),
    ("--feasible", "@universal-weak"), ("--axis", "a,b,c"), ("--names", "a,b,c"),
])
def test_verify_thm_complete_scf_refuses_the_rule_flags(capsys, paper_scf_path, flag):
    # The rule's defaults, given explicitly, are refused all the same.
    code, out, err = run(capsys, "verify", "thm-complete", "--scf", paper_scf_path, *flag)
    assert (code, out, err) == (
        1, "", f"error: argument {flag[0]}: not allowed with argument --scf\n"
    )


def test_verify_orders_per_voter_builds_only_the_orders_it_keeps(capsys, monkeypatch):
    pulled = []

    def counted(k):
        for order in enumerate_strict_orders(k):
            pulled.append(order)
            yield order

    monkeypatch.setattr(cli, "enumerate_strict_orders", counted)
    code, out, _ = run(capsys, "verify", "thm-range3", "--k", "8",
                       "--orders-per-voter", "2", "--target", "a,b,c")
    assert code == 0 and out.endswith("holds\n")
    assert len(pulled) == 2


def test_verify_limit_zero_checks_no_table(capsys):
    code, out, _ = run(capsys, "verify", "prop-apr-gsp", "--limit", "0", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == 0 and doc["universe"].endswith("; 0 tables")


@pytest.mark.parametrize("max_tables", ["10", "1000"])
def test_verify_limit_past_the_universe_walks_it_once(capsys, max_tables):
    # 81 tables, 7 of them ISP, whether or not the universe is past the
    # table guard: the limit never takes the walk round it again.
    code, out, _ = run(
        capsys, "verify", "thm-range3", "--voters", "2", "--orders-per-voter", "2",
        "--k", "3", "--max-tables", max_tables, "--limit", "162",
    )
    assert code == 0
    assert "; 81 tables\nchecked 81 cases\n  tables: 81\n  isp_tables: 7\n" in out


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


def test_orders_axis_takes_the_preset_axis_syntax(capsys):
    outs = []
    for axis in ("1..3", "1,2,3"):
        code, out, _ = run(
            capsys, "orders", "--k", "3", "--kind", "single-peaked", "--axis", axis
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, out, err = run(
        capsys, "orders", "--k", "3", "--kind", "single-peaked", "--axis", "1,1,2"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: bad axis '1,1,2'")


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


def test_quotient_profile_errors_name_the_file_and_the_line(capsys, quotient_files):
    scf, p, q = quotient_files
    with open(p, "a") as fh:
        fh.write("1 x 2>3>9>5>1\n")
    code, out, err = run(
        capsys, "quotient", "--scf", scf, "--profile-p", p, "--profile-q", q,
    )
    assert (code, out, err) == (1, "", f"error: {p}: line 5: unknown alternative '9'\n")


@pytest.mark.parametrize(
    "body, message",
    [
        # The count is refused before 10^11 orders are listed.
        (b"100000000000 x 2>3>4>5>1\n",
         "line 2: 100000000000 voters so far; the scf has 100"),
        (b"40 x 2>3>4>5>1\n# more\n61 x 3>4>5>2>1\n",
         "line 4: 101 voters so far; the scf has 100"),
        (b"40 x 2>3>4>5>1\n59 x 3>4>5>2>1\n", "the scf has 100 voters; the file lists 99"),
        (b"100 x 2>3>4>5>1\n\xff\n", "line 3: byte 0xff is not UTF-8 (invalid start byte)"),
    ],
)
def test_quotient_profile_file_errors_end_cleanly(capsys, quotient_files, body, message):
    scf, p, q = quotient_files
    with open(p, "wb") as fh:
        fh.write(b"alternatives: 1,2,3,4,5\n" + body)
    code, out, err = run(
        capsys, "quotient", "--scf", scf, "--profile-p", p, "--profile-q", q,
    )
    assert (code, out, err) == (1, "", f"error: {p}: {message}\n")


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
