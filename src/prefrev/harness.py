"""Exhaustive and randomized verification of the equivalence theorems.

The suites enumerate every table over a small profile space and compare the
property checkers against each other:

* ``prop-apr-gsp``: the almost-preference-reversal checker and the group
  manipulation search agree on every table.
* ``thm-range3``: with at most three values in the target range, every
  individually strategy-proof table satisfies preference reversal, and the
  ISP and GSP table counts coincide.
* ``summary-equivalence``: the implication chain
  {PR} <= {APR} = {GSP} <= {ISP} as sets, with all four equal whenever the
  range-at-most-3 or complete-domain hypothesis applies.
* ``thm-complete``: specimen verification (complete feasible sets + ISP
  imply PR) of one named rule.  The table universes of complete domains
  are far past ``--max-tables``, which bounds every universe suite, though
  the search below lists their ISP tables through ``--limit`` (80 of the
  4^64 tables on 2 voters with single-peaked strict orders over 4
  alternatives, 127 of the 4^13824 on 3 voters with every strict order).
* ``isp-not-pr``: bounded search for an ISP table violating PR on domains
  where neither theorem forbids one; it never claims non-existence beyond
  the searched space.

Each universe suite declares only its relations between property classes,
``(a, "<=", b)`` (every table with a has b) or ``(a, "==", b)``, in the
order it reports them, and the properties whose table counts it reports.
One driver, ``_suite``, checks them by one walk (``_walk``) and builds the
verdict.  A table where every property the relations name fails breaks no
relation and adds to no count, so the walk decides only the others, which
``_search`` lists in canonical order (base-|target| numerals, profile 0
most significant) up to the universe size or the spec's limit.  A table
that breaks ISP breaks every pair property, so the search builds tables
profile by profile and drops a prefix, with all of its tables, once it
breaks ISP: each new cell is tested against the outcomes of its earlier
line neighbours (the profiles that differ from it in one voter), in a
conflict table per (voter, order pair) built for that profile's lines.  A
prefix carries only its digits.
The leaves are exactly the ISP tables, and ``table_verdicts`` decides
their other properties.  No witness is built.  ``prop-apr-gsp`` and
``isp-not-pr`` stop at the first table that breaks a relation, and
``checked`` is its 1-based table number.  ``thm-range3``
and ``summary-equivalence`` visit every table the search leaves, sum the
counted verdicts and keep the first such table.  Only that one table
becomes an :class:`Scf`: the full checker of every property the relations
name runs on it, a verdict that differs from the kernel's is a
``RuntimeError``, and the reports of the first relation it breaks are the
counterexample.  The walk is serial.  A universe whose tables are past the
checkers' pair guard is refused before anything is built.  When the
universe is past its budget, ``isp-not-pr`` walks a seeded sample instead,
in uint8 blocks (``_table_blocks``) decided by ``table_verdicts``, which
also serves ``enumerate_scfs``' filters.

Whether a theorem forbids an ISP table without PR is decided in one place,
``_hypothesis``: the range hypothesis (at most three target alternatives)
first, then the complete-domain one.  That one certifies the distinct
feasible sets with ``domains.certificates``, in the order of their first
voters, up to the first set that is not complete; a set the completeness
guard refuses is not certified.
Under either, ``summary-equivalence`` adds ISP <= PR to its relations and
``isp-not-pr`` returns at once, naming it.

The quotient reduction simulates the infinite-society argument on large
replicated finite societies: voters are collapsed into classes by their
(P, Q) report pair, the collapsed function is built by cloning class
representatives, and a preference-reversal witness found at class level is
lifted back to a concrete voter.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .errors import ArgumentError, ResourceGuardError
from .orders import WeakOrder, format_order
from .domains import (
    DEFAULT_PROFILE_GUARD,
    Domain,
    FeasibleSet,
    certificates,
)
from .scf import (
    _EVAL_CELLS,
    Profile,
    Scf,
    _as_int,
    builtin,
    evaluate,
    range_of,
    rule_kernel,
    scf_to_dict,
    tabulate,
)
from .properties import (
    CHECKERS,
    PropertyReport,
    _require_pairs,
    check_isp,
    check_pr,
    report_to_dict,
    revalidate_witness,
    run_checkers,
    table_verdicts,
)

#: Ceiling on full table-universe enumerations (|target| ** |profiles|).
DEFAULT_TABLE_GUARD = 100_000_000

#: Blocks of tables hold about this many bytes at 8 a profile, and a chunk
#: of the search's prefixes looks up about this many conflict rows.
_TABLE_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class EnumerationSpec:
    """A table universe: domain, target range, optional filters and cap.

    The target's entries and the limit are integers, checked and not
    coerced (:func:`~prefrev.scf._as_int`): a float or a bool is a
    TypeError.
    """

    domain: Domain
    target: tuple[int, ...]
    filters: tuple[str, ...] = ()
    limit: int | None = None

    def __post_init__(self):
        target = tuple(sorted(set(_as_int(x, "a target alternative") for x in self.target)))
        object.__setattr__(self, "target", target)
        if self.limit is not None:
            object.__setattr__(self, "limit", _as_int(self.limit, "a table limit"))
        if not target:
            raise ArgumentError("target range must be non-empty")
        if target[0] < 0 or target[-1] >= self.domain.k:
            raise ArgumentError("target range outside the alternative set")
        for prop in self.filters:
            if prop not in CHECKERS:
                raise ArgumentError(f"unknown filter property {prop!r}")
        if self.limit is not None and self.limit < 0:
            raise ArgumentError(f"table limit {self.limit} is negative")

    def describe(self) -> str:
        sizes = ",".join(str(len(fs)) for fs in self.domain.feasible)
        names = ",".join(self.domain.alts.names[x] for x in self.target)
        return (
            f"{self.domain.n} voters; orders per voter [{sizes}]; "
            f"k={self.domain.k}; target {{{names}}}"
        )


def _universe_size(spec: EnumerationSpec, cap: int) -> int | None:
    """|target| ** |profiles| when it fits under ``cap``, else None.  Past
    ``cap.bit_length() + 1`` profiles a target of two or more is over
    ``cap``, so the power is taken at most that far."""
    count = spec.domain.profile_count()
    size = len(spec.target) ** min(count, cap.bit_length() + 1)
    return size if size <= cap else None


def _block_size(domain: Domain) -> int:
    """Tables per block: about ``_TABLE_BLOCK_BYTES`` at 8 bytes a profile,
    one word of ``table_verdicts``' elimination.  A table larger than that
    is a block of its own."""
    return max(1, _TABLE_BLOCK_BYTES // (8 * domain.profile_count()))


def _table_blocks(
    spec: EnumerationSpec, total: int, rng: random.Random | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """``total`` tables as ``(first table number, uint8 rows)`` blocks.

    Table t is t written in base |target| with profile 0 the most
    significant digit, so the walk order is the canonical order every suite
    reports its first counterexample in.  Digits are peeled off the table
    numbers, never off |target| ** count, so a limit into a universe past
    the int64 range still works, and only until the numbers are 0.  With
    ``rng`` the tables are drawn from it instead, one profile after another.
    """
    count = spec.domain.profile_count()
    radix = len(spec.target)
    target = np.array(spec.target, dtype=np.uint8)
    step = _block_size(spec.domain)
    for lo in range(0, total, step):
        rows = min(step, total - lo)
        if rng is not None:
            yield lo, target[_draws(rng, radix, rows * count).reshape(rows, count)]
            continue
        numbers = np.arange(lo, lo + rows, dtype=np.int64)
        digits = np.zeros((rows, count), dtype=np.intp)
        # Once the largest number is peeled to 0, the digits left are 0.
        for p in range(count - 1, -1, -1):
            if not numbers[-1]:
                break
            digits[:, p] = numbers % radix
            numbers //= radix
        yield lo, target[digits]


def _draws(rng: random.Random, radix: int, m: int) -> np.ndarray:
    """``[rng.randrange(radix) for _ in range(m)]`` as an array, leaving
    ``rng`` in the same state, from bulk ``getrandbits`` calls.

    CPython's ``randrange(radix)`` takes 32-bit Mersenne Twister words,
    keeps the top ``radix.bit_length()`` bits of each and rejects values
    from ``radix`` up; ``getrandbits(32 * m)`` returns the next m words,
    the first least significant.  Only as many words are drawn as values
    are still needed, so none is drawn ahead.
    """
    out = np.empty(m, dtype=np.intp)
    shift, done = 32 - radix.bit_length(), 0
    while done < m:
        need = m - done
        bits = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        values = np.frombuffer(bits, dtype="<u4") >> shift
        kept = values[values < radix]
        out[done : done + len(kept)] = kept
        done += len(kept)
    return out


def _search(
    spec: EnumerationSpec, total: int, props
) -> Iterator[tuple[np.ndarray, dict]]:
    """The tables among the first ``total`` where some property in ``props``
    holds, as ``(uint8 rows, verdicts)`` blocks in table order; ``verdicts``
    maps each property to a bool per row, as :func:`table_verdicts` gives.

    A table that breaks ISP breaks every pair property: an ISP violation
    at (P, Q) has one changed voter, who does not keep phi(P), so no voter
    does, and the pair breaks GSP, APR and PR too.  So the tables are built
    profile by profile in table order, and a prefix that breaks ISP is
    dropped with all of its tables.  ISP is a property of lines: a new cell
    (p, x) can conflict only with the outcomes of p's earlier line
    neighbours, the profiles q < p that differ from p in one voter v.  x at
    p and y at q conflict where y is strictly better than x under v's order
    at p, or x than y under v's order at q.  Each expansion of profile p
    reads a conflict table of those (voter, order pair)s alone, ORed from
    rows per order, built from ``_Ctx.beats``, of the x below and above
    each y: a table of every pair of a voter's orders would take m_v^2
    rows.  A prefix carries only its digits.  The leaves are exactly the ISP
    tables; :func:`table_verdicts` decides their other properties, and
    those where no property in ``props`` holds are left out.

    ``total`` bounds the digits: the one prefix equal to the leading digits
    of ``total - 1`` takes no larger next digit, and its leading 0s are the
    first node.  Prefixes are expanded depth first in even chunks of at most
    ``_TABLE_BLOCK_BYTES / sum(m_v - 1)`` prefixes, about that many conflict
    rows looked up a chunk, so at most count * |target| chunks are live at
    once.  ``total`` is at most the universe size.
    """
    if not total:
        return
    ctx = spec.domain._scan_context
    count, radix = ctx.count, len(spec.target)
    target = np.array(spec.target, dtype=np.uint8)
    # high[p]: digit p of the last table number.
    high, last = np.zeros(count, dtype=np.intp), total - 1
    for p in range(count - 1, -1, -1):
        if not last:
            break
        last, high[p] = divmod(last, radix)
    depth = next((p for p in range(count - 1) if high[p]), count - 1)
    # below[g, y] and above[g, y]: the digits x, packed, that y is strictly
    # better than under order g, and that are strictly better than y.
    beats = ctx.beats[:, target][:, :, target]  # [g, x, y]: y over x under g
    below = np.packbits(beats.transpose(0, 2, 1), axis=-1, bitorder="little")
    above = np.packbits(beats, axis=-1, bitorder="little")
    voter = ctx.voter_of
    digit_of = np.arange(len(voter)) - ctx.order_base[voter]
    strides = np.array(ctx.strides)

    def line(p):
        """p's earlier line neighbours q_j, their conflict table, whose row
        j * radix + y holds the x at p that conflict with y at q_j, and the
        row offsets j * radix.  p and q_j differ in one voter, at orders h
        and g: x and y conflict where y is strictly better than x under h,
        or x than y under g."""
        d = ctx.digits[:, p][voter]  # p's digit of each order's voter
        g = np.flatnonzero(digit_of < d)  # the neighbours' orders
        q = p + (digit_of[g] - d[g]) * strides[voter[g]]
        table = below[g - digit_of[g] + d[g]] | above[g]
        return q, table.reshape(-1, table.shape[-1]), np.arange(len(g)) * radix

    verdict_props = tuple(prop for prop in props if prop != "isp")
    step = max(1, _TABLE_BLOCK_BYTES // max(1, sum(ctx.sizes) - ctx.n))
    digit = np.arange(radix)
    stack = [(depth, np.zeros((1, count), dtype=np.uint8))]
    while stack:
        p, prefixes = stack.pop()
        neighbours, table, rows = line(p)
        seen = table.take(rows + prefixes[:, neighbours], axis=0)
        seen = np.bitwise_or.reduce(seen, axis=1)
        live = np.unpackbits(seen, axis=1, count=radix, bitorder="little") == 0
        if (prefixes[-1, :p] == high[:p]).all():  # the one bounded prefix is the last
            live[-1] &= digit <= high[p]
        i, j = np.nonzero(live)
        if not len(i):
            continue
        # A prefix's row has room for every digit; where each prefix has one
        # child, the digit is written in place.
        if len(i) != len(prefixes) or (i != np.arange(len(i))).any():
            prefixes = prefixes[i]
        prefixes[:, p] = j
        if p + 1 < count:
            size = -(-len(i) // -(-len(i) // step))  # even chunks of at most step
            for lo in reversed(range(0, len(i), size)):
                stack.append((p + 1, prefixes[lo : lo + size]))
            continue
        tables = target[prefixes]
        verdicts = table_verdicts(spec.domain, tables, verdict_props) if verdict_props else {}
        if "isp" in props:
            verdicts["isp"] = np.ones(len(tables), dtype=bool)
        some = np.logical_or.reduce([verdicts[prop] for prop in props])
        yield tables[some], {prop: verdicts[prop][some] for prop in props}


def _table_number(spec: EnumerationSpec, row) -> int:
    """The 0-based number of the table ``row``: its base-|target| numeral."""
    return functools.reduce(
        lambda number, x: number * len(spec.target) + spec.target.index(x), row, 0
    )


#: Where a relation between two verdict arrays is broken.
_BREAKS = {"<=": lambda a, b: a & ~b, "==": np.not_equal}


def _walk(spec, total, relations, counts=None, rng=None):
    """The first of ``total`` tables that breaks one of ``relations``.

    Each relation is ``(a, "<=", b)`` or ``(a, "==", b)`` over the pair
    properties.  The tables are the first ``total`` in table order, from
    :func:`_search`: a table where every named property fails breaks no
    relation and adds to no count, so only the others are decided.  With
    ``rng`` they are a sample of ``total`` drawn from it instead, decided
    by :func:`table_verdicts`.  With a non-empty ``counts``, every table is
    walked and the tables where each of its properties holds are added up
    in it; otherwise the walk stops at the first breaking table.  The full
    checkers of every named property run on that table, and any verdict
    that differs from the kernel's is a RuntimeError.  Returns ``(its
    1-based number, (its Scf, the reports of a and b))`` for the first
    relation it breaks, or None.  The pair guard is checked before
    anything is built.
    """
    _require_pairs(spec.domain.profile_count())
    props = tuple(dict.fromkeys(p for a, _, b in relations for p in (a, b)))
    if rng is None:
        blocks = ((None, *block) for block in _search(spec, total, props))
    else:
        blocks = (
            (lo, rows, table_verdicts(spec.domain, rows, props))
            for lo, rows in _table_blocks(spec, total, rng)
        )
    first = None
    for lo, rows, verdicts in blocks:
        for prop in counts or ():
            counts[prop] += int(verdicts[prop].sum())
        if first is None:
            broken = [_BREAKS[op](verdicts[a], verdicts[b]) for a, op, b in relations]
            flagged = functools.reduce(np.logical_or, broken)
            if flagged.any():
                i = int(flagged.argmax())
                rel = next(r for r, mask in zip(relations, broken) if mask[i])
                number = _table_number(spec, rows[i]) if lo is None else lo + i
                first = number, rows[i], rel, {p: verdicts[p][i] for p in props}
                if not counts:
                    break
    if first is None:
        return None
    number, row, (a, _, b), verdicts = first
    scf = Scf.from_table(spec.domain, row)
    reports = run_checkers(scf, props)
    for prop in props:
        if reports[prop].holds != verdicts[prop]:
            raise RuntimeError(
                f"verdict kernel and checker disagree on {prop} for a table"
            )
    return number + 1, (scf, (reports[a], reports[b]))


def enumerate_scfs(
    spec: EnumerationSpec, max_tables: int = DEFAULT_TABLE_GUARD
) -> Iterator[Scf]:
    """All total tables into the target range, ascending as base-R numerals."""
    for _, rows in _table_blocks(spec, _require_universe(spec, max_tables)):
        if spec.filters:
            verdicts = table_verdicts(spec.domain, rows, spec.filters)
            rows = rows[np.logical_and.reduce([verdicts[p] for p in spec.filters])]
        for row in rows:
            yield Scf.from_table(spec.domain, row)


@dataclass
class TheoremVerdict:
    theorem: str
    universe: str
    checked: int
    holds: bool
    counterexample: tuple[Scf, tuple[PropertyReport, ...]] | None
    details: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    elapsed: float = 0.0


def verdict_to_dict(verdict: TheoremVerdict, include_timing: bool = False) -> dict:
    doc: dict[str, Any] = {
        "theorem": verdict.theorem,
        "universe": verdict.universe,
        "holds": verdict.holds,
        "checked": verdict.checked,
    }
    if verdict.seed is not None:
        doc["seed"] = verdict.seed
    doc["details"] = verdict.details
    if verdict.counterexample is not None:
        scf, reports = verdict.counterexample
        doc["counterexample"] = {
            "scf": scf_to_dict(scf),
            "reports": [report_to_dict(r, include_timing) for r in reports],
        }
    if include_timing:
        doc["elapsed_ms"] = round(verdict.elapsed * 1000.0, 3)
    return doc


# ---------------------------------------------------------------------------
# Universe scans
# ---------------------------------------------------------------------------


def _require_universe(spec: EnumerationSpec, max_tables: int) -> int:
    """The number of tables to walk: the universe, or the limit if smaller.
    Without a limit, a universe past ``max_tables`` is refused."""
    spec.domain.require_enumerable()
    if spec.limit is not None:
        size = _universe_size(spec, spec.limit)
        return spec.limit if size is None else size
    size = _universe_size(spec, max_tables)
    if size is None:
        raise ResourceGuardError(
            f"table universe exceeds {max_tables}; set a limit or shrink the spec"
        )
    return size


def _certified(domain: Domain) -> bool | None:
    """Whether every feasible set of ``domain`` is certified complete, up to
    the first that is not; None if the completeness guard refuses one first."""
    try:
        return all(report.complete for _, _, report in certificates(domain))
    except ResourceGuardError:
        return None


def _hypothesis(spec: EnumerationSpec) -> str | None:
    """Which theorem forbids an ISP table without PR on ``spec``, if any:
    ``"range-le-3"`` (at most three target alternatives) before
    ``"complete-domain"`` (every feasible set :func:`_certified`)."""
    if len(spec.target) <= 3:
        return "range-le-3"
    return "complete-domain" if _certified(spec.domain) else None


def _decimal(count: int, what: str) -> str:
    """``count`` in decimal.  Past the interpreter's limit on int-to-str
    digits it is an ArgumentError naming ``what``, so callers format their
    counts before any walk."""
    try:
        return str(count)
    except ValueError:
        raise ArgumentError(f"{what} has too many digits to print") from None


def _suite(theorem, spec, t0, total, relations, counted=(), **details):
    """The verdict of walking ``relations`` over ``total`` tables of ``spec``.

    With ``counted``, every table is visited and the tables where each
    counted property holds are reported as ``<prop>_tables``; otherwise the
    walk stops at the first table that breaks a relation.  ``details`` go
    last.  ``elapsed`` runs from ``t0``, so it covers the caller's guard
    and hypothesis checks too.
    """
    universe = f"{spec.describe()}; {_decimal(total, 'the table count')} tables"
    counts = dict.fromkeys(counted, 0)
    found = _walk(spec, total, relations, counts)
    checked, counterexample = found or (total, None)
    return TheoremVerdict(
        theorem=theorem,
        universe=universe,
        checked=total if counted else checked,
        holds=counterexample is None,
        counterexample=counterexample,
        details={"tables": total, **{f"{p}_tables": counts[p] for p in counted},
                 **details},
        elapsed=time.perf_counter() - t0,
    )


def verify_prop_apr_gsp(
    spec: EnumerationSpec,
    *,
    max_tables: int = DEFAULT_TABLE_GUARD,
) -> TheoremVerdict:
    """Group strategy-proofness coincides with almost preference reversal."""
    t0 = time.perf_counter()
    total = _require_universe(spec, max_tables)
    return _suite("prop-apr-gsp", spec, t0, total, [("gsp", "==", "apr")])


def verify_thm_range3(
    spec: EnumerationSpec,
    *,
    max_tables: int = DEFAULT_TABLE_GUARD,
) -> TheoremVerdict:
    """With |target| <= 3, ISP implies PR; corollary: #ISP equals #GSP."""
    if len(spec.target) > 3:
        raise ArgumentError("thm-range3 needs a target range of at most 3")
    t0 = time.perf_counter()
    total = _require_universe(spec, max_tables)
    relations = [("isp", "<=", "pr"), ("isp", "==", "gsp")]
    return _suite("thm-range3", spec, t0, total, relations, ("isp", "gsp"))


def verify_summary_equivalence(
    spec: EnumerationSpec,
    *,
    max_tables: int = DEFAULT_TABLE_GUARD,
) -> TheoremVerdict:
    """The chain {PR} <= {APR} = {GSP} <= {ISP}, with equality under hypotheses."""
    t0 = time.perf_counter()
    total = _require_universe(spec, max_tables)
    hypothesis = _hypothesis(spec)
    relations = [("pr", "<=", "apr"), ("apr", "==", "gsp"), ("gsp", "<=", "isp")]
    if hypothesis is not None:
        relations.append(("isp", "<=", "pr"))
    return _suite(
        "summary-equivalence", spec, t0, total, relations,
        ("pr", "apr", "gsp", "isp"), equality_hypothesis=hypothesis,
    )


# ---------------------------------------------------------------------------
# Complete-domain theorem on specimens
# ---------------------------------------------------------------------------


def _describe_scf(scf: Scf) -> str:
    body = scf.rule.name if scf.rule is not None else "table"
    sizes = ",".join(str(len(fs)) for fs in scf.domain.feasible)
    return (
        f"{body} on {scf.domain.n} voters; orders per voter [{sizes}]; "
        f"k={scf.domain.k}"
    )


def verify_thm_complete(
    phi: Scf,
    *,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> TheoremVerdict:
    """Complete feasible sets + ISP imply PR, checked on one supplied scf.

    Inputs failing a hypothesis (an incomplete feasible set, or an scf that
    is not ISP) yield a vacuous verdict labeled inadmissible instead of a
    theorem failure.
    """
    t0 = time.perf_counter()
    completeness, reason = [], None
    for v, fs, report in certificates(phi.domain):
        completeness.append(
            {"orders": len(fs), "complete": report.complete, "checked": report.checked}
        )
        if not report.complete:
            reason = f"voter {v + 1}'s feasible set is not complete"
            break
    else:
        table = tabulate(phi, max_profiles)
        isp = check_isp(table)
        if not isp.holds:
            reason = "scf is not individually strategy-proof"
    checked, counterexample = 0, None
    if reason is not None:
        details = {"admissible": False, "reason": reason, "completeness": completeness}
    else:
        pr = check_pr(table)
        count = phi.domain.profile_count()
        checked, counterexample = pr.checked, None if pr.holds else (phi, (isp, pr))
        details = {
            "admissible": True,
            "completeness": completeness,
            "isp_checked": isp.checked,
            "pairs_scanned": pr.checked,
            "pairs_total": count * (count - 1),
        }
    return TheoremVerdict(
        "thm-complete", _describe_scf(phi), checked, counterexample is None,
        counterexample, details, elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Bounded counterexample search (ISP without PR)
# ---------------------------------------------------------------------------


def search_isp_not_pr(
    spec: EnumerationSpec,
    budget: int,
    *,
    seed: int = 0,
) -> TheoremVerdict:
    """Look for an ISP table violating PR; report honestly about the scope.

    Immediately futile when the target range has at most three alternatives
    or every feasible set is complete, since the theorems then prove no such
    table exists.  Otherwise scans the whole universe if it fits the budget,
    or a seeded random sample of ``budget`` tables; a spec with a ``limit``
    is refused, since the budget alone bounds the search.
    """
    budget = _as_int(budget, "a table budget")
    if budget < 0:
        raise ArgumentError(f"table budget {budget} is negative")
    if spec.limit is not None:
        raise ArgumentError(
            "isp-not-pr takes no table limit: the search is bounded by --budget"
        )
    t0 = time.perf_counter()
    universe = f"{spec.describe()}; budget {_decimal(budget, 'the table budget')}"
    hypothesis = _hypothesis(spec)
    if hypothesis is not None:
        reason = {
            "range-le-3": "target range has at most 3 alternatives",
            "complete-domain": "every feasible set is complete",
        }[hypothesis]
        return TheoremVerdict(
            "isp-not-pr", universe, 0, True, None,
            {"reason": f"provably futile: {reason}"}, seed, time.perf_counter() - t0,
        )
    spec.domain.require_enumerable()
    size = _universe_size(spec, budget)
    if size is not None:
        total, rng, scope = size, None, "exhausted-universe"
    else:
        total, rng, scope = budget, random.Random(seed), "budget-exhausted"
    relations = [("isp", "<=", "pr")]
    checked, counterexample = _walk(spec, total, relations, rng=rng) or (total, None)
    if counterexample is not None:
        scf, (_, pr) = counterexample
        if not revalidate_witness(scf, "pr", pr.witness):
            raise RuntimeError("search produced a witness that fails revalidation")
    details = {"scope": scope, "tables_examined": checked}
    return TheoremVerdict(
        "isp-not-pr", universe, checked, counterexample is None, counterexample,
        details, seed, time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Quotient reduction (infinite societies, simulated by replication)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientClass:
    rep_p: WeakOrder
    rep_q: WeakOrder
    voters: tuple[int, ...]


@dataclass
class QuotientResult:
    classes: tuple[QuotientClass, ...]
    alpha: int
    case: str  # "shared" | "pairs"
    quotient_scf: Scf
    quotient_p: Profile
    quotient_q: Profile
    outcome_p: int
    outcome_q: int
    hypothesis: dict[str, Any]
    witness_class: int | None
    witness_lift: tuple[int, int] | None
    lift_valid: bool | None
    samples_checked: int
    samples_agreed: int
    seed: int


def quotient_reduce(
    phi: Scf,
    p_profile: Profile,
    q_profile: Profile,
    *,
    samples: int = 100,
    seed: int = 0,
) -> QuotientResult:
    """Collapse voters with identical (P_v, Q_v) pairs into a small society.

    The collapsed function clones each class representative back onto the
    original voters, so it agrees with ``phi`` on every blown-up profile by
    construction; this is sampled ``samples`` times as a consistency check.
    The check draws each sample's class digits with ``random.Random(seed)``,
    one ``randrange`` per class, sample after sample, and takes the samples
    in blocks of about ``_EVAL_CELLS`` (sample, voter) cells.  Per block, the
    collapsed function's kernel runs on the class digits alone, counting
    each class once per voter in it (O(rows * alpha)), and ``phi``'s own
    kernel on each voter's digit looked up in their own feasible set (an
    order missing there is an ArgumentError), so the two sides are two
    computations; a sample agrees where their outcomes are equal.
    If the outcomes differ and a hypothesis (range at most 3, or a shared
    complete feasible set) is verified, the preference-reversal witness at
    class level is located and lifted to the least voter of its class.
    """
    if phi.rule is None:
        raise ArgumentError("quotient reduction needs a rule-based scf")
    if samples < 0:
        raise ArgumentError(f"sample count {samples} is negative")
    domain = phi.domain
    case = "shared" if domain.is_shared() else "pairs"
    outcome_p = evaluate(phi, p_profile)
    outcome_q = evaluate(phi, q_profile)

    index: dict[tuple[WeakOrder, WeakOrder], int] = {}
    voters: list[list[int]] = []
    assignment = []
    for v in range(domain.n):
        key = (p_profile[v], q_profile[v])
        if key not in index:
            index[key] = len(voters)
            voters.append([])
        idx = index[key]
        voters[idx].append(v)
        assignment.append(idx)
    classes = tuple(
        QuotientClass(rep_p, rep_q, tuple(members))
        for (rep_p, rep_q), members in zip(index.keys(), voters)
    )
    alpha = len(classes)

    alts = domain.alts
    if case == "shared":
        qdomain = Domain.shared(domain.feasible[0], alpha)
    else:
        qdomain = Domain(
            tuple(
                FeasibleSet.explicit(alts, {c.rep_p, c.rep_q}) for c in classes
            )
        )
    quotient = builtin("cloned", qdomain, base=phi.rule, assignment=assignment)
    quotient_p = Profile(tuple(c.rep_p for c in classes))
    quotient_q = Profile(tuple(c.rep_q for c in classes))
    if evaluate(quotient, quotient_p) != outcome_p or (
        evaluate(quotient, quotient_q) != outcome_q
    ):
        raise RuntimeError("quotient construction disagrees with the original scf")

    hypothesis: dict[str, Any] = {"kind": None, "verified": False}
    if case == "shared":
        complete = _certified(qdomain)
        hypothesis = {"kind": "complete-domain", "verified": bool(complete)}
        if complete is None:
            hypothesis["note"] = "completeness undecided within guard"
    if not hypothesis["verified"]:
        try:
            rng_size = len(range_of(quotient))
            verified = rng_size <= 3
            if verified or hypothesis["kind"] is None:
                hypothesis = {
                    "kind": "range-le-3", "verified": verified, "range": rng_size,
                }
        except ResourceGuardError:
            pass

    witness_class = None
    witness_lift = None
    lift_valid = None
    if outcome_p != outcome_q:
        for i, cls in enumerate(classes):
            if (
                cls.rep_p != cls.rep_q
                and cls.rep_p.weakly_prefers(outcome_p, outcome_q)
                and cls.rep_q.weakly_prefers(outcome_q, outcome_p)
            ):
                witness_class = i
                break
        if witness_class is not None:
            voter = min(classes[witness_class].voters)
            witness_lift = (witness_class, voter)
            lift_valid = (
                p_profile[voter] != q_profile[voter]
                and p_profile[voter].weakly_prefers(outcome_p, outcome_q)
                and q_profile[voter].weakly_prefers(outcome_q, outcome_p)
            )

    # The voters of one class with one feasible set form a group.
    # lookup[start[g] + d]: the digit, in group g's set, of the order d of
    # its class's set, or -1 where group g's set lacks it.
    sets, number = domain.distinct
    groups: dict[tuple[int, int], int] = {}
    group = np.array(
        [groups.setdefault(key, len(groups)) for key in zip(assignment, number)]
    )
    start, lookup = [], []
    for c, i in groups:
        start.append(len(lookup))
        found = (sets[i].index_of(order) for order in qdomain.feasible[c])
        lookup.extend(-1 if d is None else d for d in found)
    lookup = np.array(lookup).astype(np.min_scalar_type(-max(map(len, sets))))
    start = np.array(start, dtype=np.intp)
    drawn = np.array([c for c, _ in groups], dtype=np.intp)
    sizes = [len(fs) for fs in qdomain.feasible]
    quotient_outcomes, phi_outcomes = rule_kernel(quotient), rule_kernel(phi)
    rng = random.Random(seed)
    agreed = 0
    step = max(1, _EVAL_CELLS // domain.n)
    for lo in range(0, samples, step):
        rows = min(step, samples - lo)
        draws = [rng.randrange(m) for _ in range(rows) for m in sizes]
        digits = np.array(draws, dtype=np.intp).reshape(rows, alpha)
        found = lookup[start + digits[:, drawn]]
        blown = found[:, group]
        if (found < 0).any():
            v = int(np.nonzero(blown < 0)[1][0])
            raise ArgumentError(f"voter {v + 1}'s order is outside their feasible set")
        agreed += int(np.count_nonzero(quotient_outcomes(digits) == phi_outcomes(blown)))
    return QuotientResult(
        classes=classes,
        alpha=alpha,
        case=case,
        quotient_scf=quotient,
        quotient_p=quotient_p,
        quotient_q=quotient_q,
        outcome_p=outcome_p,
        outcome_q=outcome_q,
        hypothesis=hypothesis,
        witness_class=witness_class,
        witness_lift=witness_lift,
        lift_valid=lift_valid,
        samples_checked=samples,
        samples_agreed=agreed,
        seed=seed,
    )


def quotient_to_dict(result: QuotientResult, alts) -> dict:
    doc = {
        "alpha": result.alpha,
        "case": result.case,
        "classes": [
            {
                "rep_p": format_order(c.rep_p, alts),
                "rep_q": format_order(c.rep_q, alts),
                "voters": [v + 1 for v in c.voters],
            }
            for c in result.classes
        ],
        "outcome_p": alts.names[result.outcome_p],
        "outcome_q": alts.names[result.outcome_q],
        "hypothesis": result.hypothesis,
        "samples_checked": result.samples_checked,
        "samples_agreed": result.samples_agreed,
        "seed": result.seed,
    }
    if result.witness_class is not None:
        cls, voter = result.witness_lift
        doc["witness"] = {
            "class": cls + 1,
            "lifted_voter": voter + 1,
            "valid": result.lift_valid,
        }
    else:
        doc["witness"] = None
    return doc


def verify_thm_infinite(
    phi: Scf,
    p_profile: Profile,
    q_profile: Profile,
    *,
    samples: int = 100,
    seed: int = 0,
) -> TheoremVerdict:
    """Verdict wrapper around :func:`quotient_reduce` for one profile pair."""
    t0 = time.perf_counter()
    result = quotient_reduce(
        phi, p_profile, q_profile, samples=samples, seed=seed
    )
    if result.outcome_p == result.outcome_q:
        holds = result.samples_agreed == result.samples_checked
        reason = "outcomes equal: nothing to witness"
    elif not result.hypothesis.get("verified"):
        holds = result.samples_agreed == result.samples_checked
        reason = "hypothesis not verified: witness not required"
    else:
        holds = (
            result.witness_class is not None
            and bool(result.lift_valid)
            and result.samples_agreed == result.samples_checked
        )
        reason = "witness lifted" if holds else "no liftable witness found"
    return TheoremVerdict(
        theorem="thm-infinite",
        universe=_describe_scf(phi),
        checked=result.samples_checked,
        holds=holds,
        counterexample=None,
        details={"reason": reason, **quotient_to_dict(result, phi.domain.alts)},
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )
