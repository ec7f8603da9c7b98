"""Command-line front end.

Exit codes follow one convention across subcommands: 0 when the checked
property or theorem holds, 2 when a witness or counterexample was found,
1 on errors (bad files, guard violations, inconsistent parameters, and
usage errors such as a missing argument or a value that is not a number).

Structured (``--output json``) reports are byte-deterministic for a given
seed: volatile fields such as elapsed time are only included with
``--timings``.  Every scan is serial: ``--parallelism`` (or
``PREFREV_PARALLELISM``) must be an integer and changes nothing.  Each
command and theorem takes exactly the flags it reads; any other is an error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from .errors import ArgumentError, ParseError, PrefrevError
from .orders import (
    AlternativeSet,
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
    _parse_axis_arg,
    _parse_preset,
    certificates,
    parse_domain_file,
    parse_profile_file,
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
    DEFAULT_TABLE_GUARD,
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


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        sys.stdout.write(dumps_canonical(doc))
    else:
        for line in text_lines:
            print(line)


def _alts_for(names: str | None, k: int, numbered: bool = False) -> AlternativeSet:
    """The k alternatives ``--names`` lists, or k default names."""
    if names is None:
        return AlternativeSet.numbered(k) if numbered else AlternativeSet.default(k)
    if not names.strip():
        raise ArgumentError("--names lists no alternative")
    alts = parse_alternatives(names)
    if alts.k != k:
        raise ArgumentError(f"--names lists {alts.k} alternatives; --k is {k}")
    return alts


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


def cmd_orders(args) -> int:
    if args.kind != "single-peaked" and (args.strict or args.axis is not None):
        flag = "--strict" if args.strict else "--axis"
        raise ArgumentError(f"{flag} applies only to --kind single-peaked")
    alts = _alts_for(args.names, args.k, numbered=args.kind == "single-peaked")
    if args.kind == "weak":
        orders = enumerate_weak_orders(alts.k)
    elif args.kind == "strict":
        orders = enumerate_strict_orders(alts.k)
    else:
        axis = _parse_axis_arg(args.axis or "", alts, line=None)
        orders = enumerate_single_peaked(alts.k, axis, strict=args.strict)
    # The enumeration guard raises on the first pull, before any output.
    head = list(itertools.islice(orders, 1))
    # Each order is written as it is enumerated, in the bytes
    # ``dumps_canonical`` gives the whole document; no list of them is kept.
    write = sys.stdout.write
    count = 0
    if args.output == "json":
        header = dumps_canonical({
            "command": "orders",
            "seed": args.seed,
            "k": alts.k,
            "kind": args.kind,
            "strict": bool(args.strict),
        })
        write(header[: -len("\n}\n")] + ',\n  "orders": [')
        # encode_basestring_ascii is what json.dumps applies to a string
        # under ensure_ascii.
        sep = "\n    "
        for order in itertools.chain(head, orders):
            write(sep + encode_basestring_ascii(format_order(order, alts)))
            sep = ",\n    "
            count += 1
        write(("\n  ]" if count else "]") + f',\n  "count": {count}\n}}\n')
    else:
        for order in itertools.chain(head, orders):
            write(format_order(order, alts) + "\n")
            count += 1
        write(f"{count} orders\n")
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# domain-complete
# ---------------------------------------------------------------------------


def cmd_domain_complete(args) -> int:
    domain = parse_domain_file(args.file)
    alts = domain.alts
    found = []  # by Domain.distinct's set number
    for _, fs, report in certificates(domain):
        gap = report.gap
        found.append({
            "complete": report.complete,
            "checked": report.checked,
            "gap": None if gap is None else {
                "p": format_order(gap.p, alts),
                "q": format_order(gap.q, alts),
                "a": alts.names[gap.a],
                "b": alts.names[gap.b],
            },
        })
    voter_reports = [
        {**found[i], "voter": v + 1, "orders": len(domain.feasible[v])}
        for v, i in enumerate(domain.distinct[1])
    ]
    complete = all(entry["complete"] for entry in found)
    doc = {
        "command": "domain-complete",
        "seed": args.seed,
        "file": os.fspath(args.file),
        "complete": complete,
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
    lines.append("complete" if complete else "incomplete")
    _emit(args, doc, lines)
    return EXIT_HOLDS if complete else EXIT_WITNESS


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
        if args.max_profiles is not None:
            raise ArgumentError("check --recheck-witness takes no --max-profiles")
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
                try:
                    witness = witness_from_dict(rep["witness"], scf)
                    valid = revalidate_witness(scf, prop, witness)
                except (ArgumentError, ParseError) as exc:
                    raise ParseError(f"{args.recheck_witness}: {exc}") from None
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
    if not wanted:
        raise PrefrevError("--properties names no property")
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
    alts = _alts_for(args.names, args.k)
    if args.orders is not None:
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
    count = 2 if args.orders_per_voter is None else args.orders_per_voter
    if count < 1:
        raise PrefrevError(f"--orders-per-voter is {count}; it must be at least 1")
    strict = list(itertools.islice(enumerate_strict_orders(alts.k), count))
    if len(strict) < count:
        raise PrefrevError(
            f"only {math.factorial(alts.k)} strict orders exist at k={alts.k}"
        )
    return Domain.shared(FeasibleSet.explicit(alts, strict), args.voters)


def _universe_spec(args, limit: int | None = None) -> EnumerationSpec:
    domain = _universe_domain(args)
    if args.target is not None and not args.target.strip():
        raise ArgumentError("--target lists no alternative")
    names = domain.alts.names if args.target is None else args.target.split(",")
    target = tuple(domain.alts.index_of(name.strip()) for name in names)
    return EnumerationSpec(domain, target, limit=limit)


def _specimen_scf(args) -> Scf:
    if args.scf is not None:  # then none of the flags the rule is built from
        given = [name for name in ("k", "voters", "params", "feasible", "axis", "names")
                 if getattr(args, name) is not None]
        if given:
            raise ArgumentError(f"argument --{given[0]}: not allowed with argument --scf")
        return load_scf(args.scf)
    alts = _alts_for(args.names, 3 if args.k is None else args.k)
    preset = args.feasible
    if preset is None:
        preset = "@single-peaked-strict" if args.rule == "median-peaks" else "@universal-weak"
    if args.axis is not None:
        if preset not in ("@single-peaked", "@single-peaked-strict"):
            raise ArgumentError(
                f"--axis applies only to a bare single-peaked preset, not to {preset!r}"
            )
        preset += f"(axis={args.axis})"
    voters = 2 if args.voters is None else args.voters
    domain = Domain.shared(_parse_preset(preset, alts, line=None), voters)
    # --params follows the scf file conventions (1-based voters, names)
    try:
        raw = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ParseError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("--params must be a JSON object")
    with decoding("--params"):
        return builtin(args.rule, domain, **rule_params_from_dict(raw))


def cmd_verify(args) -> int:
    verdict = args.run(args)
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


def cmd_quotient(args) -> int:
    scf = load_scf(args.scf)
    alts = scf.domain.alts
    p = Profile(parse_profile_file(args.profile_p, alts, scf.domain.n))
    q = Profile(parse_profile_file(args.profile_q, alts, scf.domain.n))
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end like every other error:
    ``error: …`` on stderr and exit 1 (argparse's own exit 2 is the
    witness code).  Subcommand parsers are made of the same class."""

    def error(self, message):
        raise ArgumentError(message)


def _common_options(parallelism: str) -> argparse.ArgumentParser:
    """The flags every command takes, as a parent parser."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--parallelism",
        type=int,
        # A string default goes through ``type`` at each parse, so a bad
        # value in the environment is reported like a bad --parallelism.
        default=parallelism,
        help="accepted for compatibility: must be an integer, and changes "
        "nothing, since every scan runs serially",
    )
    parser.add_argument("--timings", action="store_true",
                        help="include elapsed times in structured output")
    return parser


def _universe_options() -> argparse.ArgumentParser:
    """The flags of a table universe, as a parent parser."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--voters", type=int, default=2)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--orders", default=None,
                        help="explicit orders: voters split by '|', orders by ';'")
    # None, not 2: argparse takes a given value equal to the default as
    # not given, so the group would let "--orders-per-voter 2" through.
    source.add_argument("--orders-per-voter", type=int, default=None,
                        help="the first M strict orders for every voter (default: 2)")
    parser.add_argument("--target", default=None,
                        help="comma-separated target range (default: all)")
    parser.add_argument("--names", default=None)
    return parser


def build_parser(parallelism: str) -> argparse.ArgumentParser:
    """The parser of every subcommand; ``parallelism`` is the string
    default of ``--parallelism``."""
    parser = _Parser(
        prog="prefrev",
        description="verify strategy-proofness and preference-reversal "
        "properties of social choice functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_options(parallelism)]
    universe = [_universe_options(), *common]

    p_orders = sub.add_parser("orders", parents=common, help="enumerate orders")
    p_orders.add_argument("--k", type=int, required=True)
    p_orders.add_argument("--kind", choices=("weak", "strict", "single-peaked"),
                          default="weak")
    p_orders.add_argument("--strict", action="store_true",
                          help="restrict single-peaked enumeration to strict orders")
    p_orders.add_argument("--axis", default=None)
    p_orders.add_argument("--names", default=None)
    p_orders.set_defaults(fn=cmd_orders)

    p_dom = sub.add_parser("domain-complete", parents=common,
                           help="decide domain completeness")
    p_dom.add_argument("file")
    p_dom.set_defaults(fn=cmd_domain_complete)

    p_check = sub.add_parser("check", parents=common, help="check properties of an scf file")
    p_check.add_argument("scf")
    p_check.add_argument("--properties", default="isp,gsp,pr,apr,dictator")
    p_check.add_argument("--recheck-witness", default=None,
                         help="re-validate witnesses from a previous report")
    p_check.add_argument("--max-profiles", type=int, default=None)
    p_check.set_defaults(fn=cmd_check)

    p_verify = sub.add_parser("verify", help="run a theorem suite")
    theorems = p_verify.add_subparsers(dest="theorem", required=True)
    p_verify.set_defaults(fn=cmd_verify)
    for name, suite in (("prop-apr-gsp", verify_prop_apr_gsp),
                        ("thm-range3", verify_thm_range3),
                        ("summary-equivalence", verify_summary_equivalence)):
        p_suite = theorems.add_parser(name, parents=universe)
        p_suite.add_argument("--limit", type=int, default=None)
        p_suite.add_argument("--max-tables", type=int, default=DEFAULT_TABLE_GUARD)
        p_suite.set_defaults(run=lambda args, suite=suite: suite(
            _universe_spec(args, args.limit), max_tables=args.max_tables))

    p_search = theorems.add_parser("isp-not-pr", parents=universe)
    p_search.add_argument("--budget", type=int, default=10000)
    p_search.set_defaults(run=lambda args: search_isp_not_pr(
        _universe_spec(args), args.budget, seed=args.seed))

    p_complete = theorems.add_parser("thm-complete", parents=common)
    specimen = p_complete.add_mutually_exclusive_group(required=True)
    specimen.add_argument("--scf", default=None)
    specimen.add_argument("--rule", default=None)
    # None stands for a flag not given: --scf refuses every one of these.
    p_complete.add_argument("--k", type=int, default=None, help="default: 3")
    p_complete.add_argument("--voters", type=int, default=None, help="default: 2")
    p_complete.add_argument("--params", default=None, help="rule params as JSON")
    p_complete.add_argument(
        "--feasible", default=None,
        help="feasible-set preset in domain-file syntax, such as "
        "@single-peaked(axis=c,a,b) (default: matches the rule)",
    )
    p_complete.add_argument("--axis", default=None)
    p_complete.add_argument("--names", default=None)
    p_complete.add_argument("--max-profiles", type=int, default=DEFAULT_PROFILE_GUARD)
    p_complete.set_defaults(run=lambda args: verify_thm_complete(
        _specimen_scf(args), max_profiles=args.max_profiles))

    p_quot = sub.add_parser("quotient", parents=common,
                            help="quotient-reduce a replicated society")
    p_quot.add_argument("--scf", required=True)
    p_quot.add_argument("--profile-p", required=True)
    p_quot.add_argument("--profile-q", required=True)
    p_quot.add_argument("--samples", type=int, default=100)
    p_quot.set_defaults(fn=cmd_quotient)
    return parser


#: The parser is built once per process for each ``PREFREV_PARALLELISM``
#: value: building it costs about 2 ms, more than a small theorem suite.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser(os.environ.get("PREFREV_PARALLELISM", "1")).parse_args(argv)
        return args.fn(args)
    except PrefrevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
