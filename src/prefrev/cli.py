"""Command-line front end.

Exit codes follow one convention across subcommands: 0 when the checked
property or theorem holds, 2 when a witness or counterexample was found,
1 on errors (bad files, guard violations, inconsistent parameters).

Structured (``--output json``) reports are byte-deterministic for a given
seed: volatile fields such as elapsed time are only included with
``--timings``, and the worker count never changes any reported value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ParseError, PrefrevError
from .orders import (
    AlternativeSet,
    Axis,
    enumerate_single_peaked,
    enumerate_strict_orders,
    enumerate_weak_orders,
    format_order,
    parse_alternatives,
    parse_order,
)
from .domains import (
    DEFAULT_PROFILE_GUARD,
    Domain,
    FeasibleSet,
    ResolventGap,
    _parse_preset,
    is_complete,
    parse_domain_file,
)
from .scf import (
    Profile,
    Scf,
    builtin,
    decoding,
    dumps_canonical,
    load_json,
    load_scf,
    rule_params_from_dict,
    tabulate,
)
from .properties import (
    CHECKERS,
    report_to_dict,
    revalidate_witness,
    run_checkers,
    witness_from_dict,
)
from .harness import (
    EnumerationSpec,
    search_isp_not_pr,
    verdict_to_dict,
    verify_prop_apr_gsp,
    verify_summary_equivalence,
    verify_thm_complete,
    verify_thm_infinite,
    verify_thm_range3,
)

EXIT_HOLDS = 0
EXIT_ERROR = 1
EXIT_WITNESS = 2

_PROPERTY_ORDER = ("isp", "gsp", "pr", "apr", "dictator")


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--parallelism",
        type=int,
        # A string default goes through ``type`` too, so a bad value in the
        # environment is reported like a bad --parallelism.
        default=os.environ.get("PREFREV_PARALLELISM", "1"),
        help="accepted for compatibility: every scan runs serially, so "
        "results are identical for any value",
    )
    parser.add_argument("--timings", action="store_true",
                        help="include elapsed times in structured output")
    parser.add_argument("--max-profiles", type=int, default=None)
    parser.add_argument("--max-tables", type=int, default=None)


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        sys.stdout.write(dumps_canonical(doc))
    else:
        for line in text_lines:
            print(line)


def _alts_for(args) -> AlternativeSet:
    if getattr(args, "names", None):
        return parse_alternatives(args.names)
    if getattr(args, "kind", None) == "single-peaked":
        return AlternativeSet.numbered(args.k)
    return AlternativeSet.default(args.k)


def _axis_for(args, alts: AlternativeSet) -> Axis:
    if getattr(args, "axis", None):
        names = [t.strip() for t in args.axis.split(",")]
        return Axis(tuple(alts.index_of(name) for name in names))
    return Axis.identity(alts.k)


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


def cmd_orders(args) -> int:
    alts = _alts_for(args)
    if args.kind == "weak":
        orders = enumerate_weak_orders(alts.k)
    elif args.kind == "strict":
        orders = enumerate_strict_orders(alts.k)
    else:
        axis = _axis_for(args, alts)
        orders = enumerate_single_peaked(alts.k, axis, strict=args.strict)
    # Rendered one at a time: the orders themselves are never all alive.
    rendered = [format_order(order, alts) for order in orders]
    doc = {
        "command": "orders",
        "seed": args.seed,
        "k": alts.k,
        "kind": args.kind,
        "strict": bool(args.strict),
        "orders": rendered,
        "count": len(rendered),
    }
    _emit(args, doc, rendered + [f"{len(rendered)} orders"])
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# domain-complete
# ---------------------------------------------------------------------------


def _gap_to_dict(gap: ResolventGap, alts) -> dict:
    return {
        "p": format_order(gap.p, alts),
        "q": format_order(gap.q, alts),
        "a": alts.names[gap.a],
        "b": alts.names[gap.b],
    }


def cmd_domain_complete(args) -> int:
    domain = parse_domain_file(args.file)
    alts = domain.alts
    seen: dict[FeasibleSet, dict] = {}
    voter_reports = []
    any_gap = False
    for v, fs in enumerate(domain.feasible, start=1):
        if fs not in seen:
            report = is_complete(fs)
            seen[fs] = {
                "complete": report.complete,
                "checked": report.checked,
                "gap": None if report.gap is None else _gap_to_dict(report.gap, alts),
            }
        entry = dict(seen[fs])
        entry["voter"] = v
        entry["orders"] = len(fs)
        any_gap = any_gap or not entry["complete"]
        voter_reports.append(entry)
    doc = {
        "command": "domain-complete",
        "seed": args.seed,
        "file": os.fspath(args.file),
        "complete": not any_gap,
        "voters": voter_reports,
    }
    lines = []
    for entry in voter_reports:
        if entry["complete"]:
            lines.append(
                f"voter {entry['voter']}: complete "
                f"({entry['orders']} orders, {entry['checked']} quadruples checked)"
            )
        else:
            gap = entry["gap"]
            lines.append(
                f"voter {entry['voter']}: INCOMPLETE; no ({gap['a']},{gap['b']})-resolvent "
                f"of P={gap['p']}, Q={gap['q']}"
            )
    lines.append("complete" if not any_gap else "incomplete")
    _emit(args, doc, lines)
    return EXIT_HOLDS if not any_gap else EXIT_WITNESS


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _render_report(doc: dict) -> list[str]:
    lines = [f"{doc['property']}: {'holds' if doc['holds'] else 'FAILS'}"
             + f" ({doc['checked']} cases)"]
    witness = doc.get("witness")
    if witness is not None:
        lines.append("  witness: " + json.dumps(witness))
    return lines


def cmd_check(args) -> int:
    scf = load_scf(args.scf)
    if args.recheck_witness:
        data = load_json(args.recheck_witness)
        if not isinstance(data, dict):
            raise ParseError(f"{args.recheck_witness}: report must be a JSON object")
        results = []
        all_valid = True
        with decoding(args.recheck_witness):
            for rep in data.get("reports", [data]):
                if rep.get("holds", False) and "witness" not in rep:
                    continue
                prop = rep["property"]
                witness = witness_from_dict(rep["witness"], scf)
                valid = revalidate_witness(scf, prop, witness)
                all_valid = all_valid and valid
                results.append({"property": prop, "valid": valid})
        doc = {"command": "recheck-witness", "seed": args.seed,
               "scf": os.fspath(args.scf), "results": results,
               "all_valid": all_valid}
        lines = [f"{r['property']}: witness {'re-validates' if r['valid'] else 'INVALID'}"
                 for r in results] + ["ok" if all_valid else "invalid witness"]
        _emit(args, doc, lines)
        return EXIT_HOLDS if all_valid else EXIT_WITNESS

    wanted = [p.strip() for p in args.properties.split(",") if p.strip()]
    for prop in wanted:
        if prop not in CHECKERS:
            raise PrefrevError(f"unknown property {prop!r}")
    max_profiles = (
        DEFAULT_PROFILE_GUARD if args.max_profiles is None else args.max_profiles
    )
    # One table serves every checker; witnesses read only the domain.
    scf = tabulate(scf, max_profiles)
    reports = run_checkers(scf, wanted, max_profiles=max_profiles)
    ordered = [reports[p] for p in _PROPERTY_ORDER if p in reports]
    report_docs = [report_to_dict(r, include_timing=args.timings) for r in ordered]
    doc = {
        "command": "check",
        "scf": os.fspath(args.scf),
        "seed": args.seed,
        "reports": report_docs,
    }
    lines = []
    for rep in report_docs:
        lines.extend(_render_report(rep))
    any_witness = any(not r.holds for r in ordered)
    _emit(args, doc, lines)
    return EXIT_WITNESS if any_witness else EXIT_HOLDS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _universe_domain(args) -> Domain:
    alts = _alts_for(args)
    if args.orders:
        per_voter = []
        for chunk in args.orders.split("|"):
            orders = [parse_order(text, alts) for text in chunk.split(";") if text.strip()]
            per_voter.append(FeasibleSet.explicit(alts, orders))
        if len(per_voter) == 1:
            per_voter = per_voter * args.voters
        if len(per_voter) != args.voters:
            raise PrefrevError(
                f"--orders describes {len(per_voter)} voters, expected {args.voters}"
            )
        return Domain(tuple(per_voter))
    strict = sorted(enumerate_strict_orders(alts.k), key=lambda o: o.ranks)
    if args.orders_per_voter > len(strict):
        raise PrefrevError(
            f"only {len(strict)} strict orders exist at k={alts.k}"
        )
    fs = FeasibleSet.explicit(alts, strict[: args.orders_per_voter])
    return Domain.shared(fs, args.voters)


def _universe_spec(args) -> EnumerationSpec:
    domain = _universe_domain(args)
    if args.target:
        target = tuple(
            domain.alts.index_of(t.strip()) for t in args.target.split(",")
        )
    else:
        target = tuple(range(domain.k))
    return EnumerationSpec(domain, target, limit=args.limit)


def _specimen_scf(args) -> Scf:
    if args.scf:
        return load_scf(args.scf)
    if not args.rule:
        raise PrefrevError("thm-complete needs --scf FILE or --rule NAME")
    alts = _alts_for(args)
    preset = args.feasible
    if preset is None:
        preset = (
            "@single-peaked-strict" if args.rule == "median-peaks"
            else "@universal-weak"
        )
    if args.axis and "(" not in preset:
        preset += f"(axis={args.axis})"
    domain = Domain.shared(_parse_preset(preset, alts, line=None), args.voters)
    # --params follows the scf file conventions (1-based voters, names)
    try:
        raw = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ParseError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("--params must be a JSON object")
    with decoding("--params"):
        params = rule_params_from_dict(args.rule, raw, alts)
    return builtin(args.rule, domain, **params)


def cmd_verify(args) -> int:
    universe_kwargs = {} if args.max_tables is None else {"max_tables": args.max_tables}
    if args.theorem == "prop-apr-gsp":
        verdict = verify_prop_apr_gsp(_universe_spec(args), **universe_kwargs)
    elif args.theorem == "thm-range3":
        verdict = verify_thm_range3(_universe_spec(args), **universe_kwargs)
    elif args.theorem == "summary-equivalence":
        verdict = verify_summary_equivalence(_universe_spec(args), **universe_kwargs)
    elif args.theorem == "thm-complete":
        kwargs = {} if args.max_profiles is None else {"max_profiles": args.max_profiles}
        verdict = verify_thm_complete(_specimen_scf(args), **kwargs)
    elif args.theorem == "isp-not-pr":
        verdict = search_isp_not_pr(_universe_spec(args), args.budget, seed=args.seed)
    else:
        raise PrefrevError(f"unknown theorem {args.theorem!r}")
    doc = {
        "command": "verify",
        "seed": args.seed,
        **verdict_to_dict(verdict, include_timing=args.timings),
    }
    lines = [
        f"theorem {verdict.theorem} over {verdict.universe}",
        f"checked {verdict.checked} cases",
    ]
    for key, value in verdict.details.items():
        lines.append(f"  {key}: {value}")
    lines.append("holds" if verdict.holds else "COUNTEREXAMPLE FOUND")
    _emit(args, doc, lines)
    return EXIT_HOLDS if verdict.holds else EXIT_WITNESS


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------


def _parse_profile_file(path, alts) -> Profile:
    orders = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if not header_seen:
            key, _, value = stripped.partition(":")
            if key.strip() != "alternatives":
                raise PrefrevError(
                    f"{path}: line {lineno}: expected 'alternatives:' header"
                )
            declared = parse_alternatives(value)
            if declared != alts:
                raise PrefrevError(
                    f"{path}: alternatives do not match the scf"
                )
            header_seen = True
            continue
        count = 1
        body = stripped
        if "x" in stripped:
            head, _, rest = stripped.partition("x")
            if head.strip().isdigit():
                count = int(head.strip())
                body = rest.strip()
        order = parse_order(body, alts)
        orders.extend([order] * count)
    if not orders:
        raise PrefrevError(f"{path}: no orders found")
    return Profile(tuple(orders))


def cmd_quotient(args) -> int:
    scf = load_scf(args.scf)
    alts = scf.domain.alts
    p = _parse_profile_file(args.profile_p, alts)
    q = _parse_profile_file(args.profile_q, alts)
    verdict = verify_thm_infinite(scf, p, q, samples=args.samples, seed=args.seed)
    result = {key: value for key, value in verdict.details.items() if key != "reason"}
    if result["case"] == "pairs" and not result["hypothesis"]["verified"]:
        raise PrefrevError(
            "voters have differing feasible sets and neither supported case "
            "applies (shared complete set, or collapsed range of at most 3)"
        )
    doc = {"command": "quotient", "scf": os.fspath(args.scf), **result}
    lines = [f"society of {scf.domain.n} voters collapses to alpha={result['alpha']}"]
    for i, cls in enumerate(result["classes"], start=1):
        lines.append(
            f"  class {i}: {len(cls['voters'])} voters, "
            f"P={cls['rep_p']}, Q={cls['rep_q']}"
        )
    lines.append(f"outcomes: {result['outcome_p']} vs {result['outcome_q']}")
    lines.append(
        f"consistency: {result['samples_agreed']}/{result['samples_checked']} "
        "sampled blow-ups agree"
    )
    witness = result["witness"]
    if result["outcome_p"] == result["outcome_q"]:
        lines.append("outcomes equal: no witness needed")
    elif witness is not None:
        lines.append(
            f"reversal witness: class {witness['class']}, lifted voter "
            f"{witness['lifted_voter']}, valid={witness['valid']}"
        )
    else:
        lines.append("no reversal witness at class level")
    _emit(args, doc, lines)
    return EXIT_HOLDS if verdict.holds else EXIT_WITNESS


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefrev",
        description="verify strategy-proofness and preference-reversal "
        "properties of social choice functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orders = sub.add_parser("orders", help="enumerate orders")
    p_orders.add_argument("--k", type=int, required=True)
    p_orders.add_argument("--kind", choices=("weak", "strict", "single-peaked"),
                          default="weak")
    p_orders.add_argument("--strict", action="store_true",
                          help="restrict single-peaked enumeration to strict orders")
    p_orders.add_argument("--axis", default=None)
    p_orders.add_argument("--names", default=None)
    _common_options(p_orders)
    p_orders.set_defaults(fn=cmd_orders)

    p_dom = sub.add_parser("domain-complete", help="decide domain completeness")
    p_dom.add_argument("file")
    _common_options(p_dom)
    p_dom.set_defaults(fn=cmd_domain_complete)

    p_check = sub.add_parser("check", help="check properties of an scf file")
    p_check.add_argument("scf")
    p_check.add_argument("--properties", default="isp,gsp,pr,apr,dictator")
    p_check.add_argument("--recheck-witness", default=None,
                         help="re-validate witnesses from a previous report")
    _common_options(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_verify = sub.add_parser("verify", help="run a theorem suite")
    p_verify.add_argument(
        "theorem",
        choices=("prop-apr-gsp", "thm-range3", "summary-equivalence",
                 "thm-complete", "isp-not-pr"),
    )
    p_verify.add_argument("--k", type=int, default=3)
    p_verify.add_argument("--voters", type=int, default=2)
    p_verify.add_argument("--orders-per-voter", type=int, default=2)
    p_verify.add_argument("--orders", default=None,
                          help="explicit orders: voters split by '|', orders by ';'")
    p_verify.add_argument("--target", default=None,
                          help="comma-separated target range (default: all)")
    p_verify.add_argument("--limit", type=int, default=None)
    p_verify.add_argument("--budget", type=int, default=10000)
    p_verify.add_argument("--scf", default=None)
    p_verify.add_argument("--rule", default=None)
    p_verify.add_argument("--params", default=None, help="rule params as JSON")
    p_verify.add_argument(
        "--feasible", default=None,
        help="feasible-set preset in domain-file syntax, such as "
        "@single-peaked(axis=c,a,b) (default: matches the rule)",
    )
    p_verify.add_argument("--axis", default=None)
    p_verify.add_argument("--names", default=None)
    _common_options(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_quot = sub.add_parser("quotient", help="quotient-reduce a replicated society")
    p_quot.add_argument("--scf", required=True)
    p_quot.add_argument("--profile-p", required=True)
    p_quot.add_argument("--profile-q", required=True)
    p_quot.add_argument("--samples", type=int, default=100)
    _common_options(p_quot)
    p_quot.set_defaults(fn=cmd_quotient)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PrefrevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
