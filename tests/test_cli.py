"""End-to-end CLI behaviour: output, exit codes, determinism, replay."""

import json

import pytest

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


_SCF_VOTERS_NOT_INT = json.dumps({
    "alternatives": ["a", "b"],
    "voters": "two",
    "domain": {"voters": [{"preset": "@universal-weak"}] * 2},
    "rule": {"name": "constant", "params": {"alternative": "a"}},
})
_WITNESS_NO_COALITION = json.dumps({"reports": [{
    "property": "isp", "holds": False, "checked": 1,
    "witness": {"type": "manipulation", "truthful": ["a>b>c", "a>b>c"]},
}]})


@pytest.mark.parametrize("argv, text, env, expected", [
    (["check", "{file}"], _SCF_VOTERS_NOT_INT, None, 1),
    (["check", "{file}"], "[1, 2]", None, 1),
    (["verify", "thm-complete", "--rule", "dictator-tiebreak", "--params", "{bad"],
     None, None, 1),
    (["check", "{scf}", "--recheck-witness", "{file}"], "not json", None, 1),
    (["check", "{scf}", "--recheck-witness", "{file}"], _WITNESS_NO_COALITION, None, 1),
    (["check", "{scf}"], None, "two", 2),
], ids=["voters-not-int", "scf-is-a-list", "params-not-json",
        "witness-not-json", "witness-no-coalition", "env-parallelism"])
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
