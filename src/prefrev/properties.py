"""Decision procedures with witnesses: ISP, GSP, PR, APR, dictatorship.

Every checker scans a fixed canonical order and reports the first failure
it meets; ``checked`` counts the cases up to and including the witness (or
all of them when the property holds).  Blocks are reduced in scan order, so
both are the same for any worker count.  ISP scans profiles, then voters,
then each voter's other orders; dictatorship scans voters, then profiles.

GSP, PR and APR are constraints on ordered profile pairs (P, Q) and share
one numpy pass.  With x = phi(P) and y = phi(Q), voter v *keeps* x if P_v
!= Q_v and x is weakly best against y under P_v, and *accepts* y if P_v !=
Q_v and y is weakly best against x under Q_v.  Where x != y, GSP fails if
no voter keeps x (every voter who changed strictly gains; they are the
coalition, and a passive member would add nothing), APR fails if no voter
keeps x or none accepts y, and PR fails if no single voter does both.

Row P has count - 1 cases, one per Q != P.  PR and APR take them left to
right.  GSP takes them by coalition size, then coalition, then the members'
new orders in canonical product order, so a case's place in the row is a
key: the coalition's offset plus the mixed-radix index of the new orders,
each member's truthful order skipped.  The key is computed only over the
violations of the first row that has any.  Blocks hold about
``_BLOCK_CELLS`` (voter, row, column) cells, so an early failure stops in a
small first block.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import ArgumentError, ResourceGuardError
from .orders import WeakOrder, format_order
from .domains import DEFAULT_PROFILE_GUARD, Domain
from .scf import Profile, Scf, evaluate, profile_at, profile_strides, tabulate

#: Pairwise scans ((P, Q) pairs, and the equally sized normalized GSP
#: deviation space) get their own ceilings on top of the profile guard.
DEFAULT_PAIR_GUARD = 2_000_000_000
DEFAULT_GSP_GUARD = 100_000_000

_ISP_BLOCK = 2048
_BLOCK_CELLS = 1 << 20


# ---------------------------------------------------------------------------
# Witnesses and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManipulationWitness:
    """A coalition (possibly a single voter) that gains by misreporting.

    Every member's deviation differs from their truthful report, and every
    member strictly prefers ``outcome_dev`` to ``outcome_true`` under their
    truthful order.
    """

    coalition: tuple[int, ...]
    truthful: Profile
    deviation: tuple[WeakOrder, ...]
    outcome_true: int
    outcome_dev: int

    def deviated_profile(self) -> Profile:
        return self.truthful.replace_many(dict(zip(self.coalition, self.deviation)))


@dataclass(frozen=True)
class VoterAnalysis:
    voter: int
    weak_pref_p: bool  # phi(P) weakly best against phi(Q) under P_v
    weak_pref_q: bool  # phi(Q) weakly best against phi(P) under Q_v
    changed: bool


@dataclass(frozen=True)
class PrViolation:
    """An ordered profile pair with differing outcomes and no witnessing voter."""

    kind: str  # "pr" | "apr"
    profile_p: Profile
    profile_q: Profile
    outcome_p: int
    outcome_q: int
    analysis: tuple[VoterAnalysis, ...]


@dataclass(frozen=True)
class DictatorCounter:
    voter: int
    profile: Profile
    outcome: int


@dataclass
class PropertyReport:
    property: str
    holds: bool
    witness: Any
    checked: int
    elapsed: float
    scf: Scf = field(repr=False, compare=False, default=None)


# ---------------------------------------------------------------------------
# Domain context (cached per Domain instance)
# ---------------------------------------------------------------------------


class _Ctx:
    """Per-domain scan data.  Lazy members are built in locals and published
    by one assignment, so threads sharing a context never see them half built."""

    __slots__ = (
        "domain", "n", "sizes", "strides", "count",
        "ranks", "arrays", "tops", "coalitions",
    )

    def __init__(self, domain: Domain):
        self.domain = domain
        self.n = domain.n
        self.sizes = tuple(len(fs) for fs in domain.feasible)
        self.strides = profile_strides(domain)
        self.count = domain.profile_count()
        self.ranks = tuple(
            tuple(order.ranks for order in fs) for fs in domain.feasible
        )
        self.arrays = None
        self.tops = None
        self.coalitions = None

    def build_arrays(self):
        """``(digits, rank_rows, rank_base)``: each voter's order index and
        that order's rank vector at every profile, and the flat offsets of
        ``rank_rows`` rows to which an outcome table is added."""
        if self.arrays is None:
            idx = np.arange(self.count)
            digits = np.stack([
                (idx // stride) % size
                for stride, size in zip(self.strides, self.sizes)
            ])
            rank_rows = np.stack([
                np.array(ranks, dtype=np.int8)[d]
                for ranks, d in zip(self.ranks, digits)
            ])
            base = np.arange(digits.size).reshape(digits.shape) * rank_rows.shape[2]
            self.arrays = (digits, rank_rows, base)
        return self.arrays

    def build_tops(self) -> None:
        if self.tops is None:
            self.tops = tuple(
                tuple(order.top_set() for order in fs) for fs in self.domain.feasible
            )

    def coalition_offsets(self) -> dict[tuple[int, ...], int]:
        """GSP cases of a profile row before each coalition's first: by size,
        then lexicographically, coalition C holding prod(m_v - 1) cases.
        Voters with one feasible order never change and are left out."""
        if self.coalitions is None:
            active = [v for v in range(self.n) if self.sizes[v] > 1]
            offsets = {}
            acc = 0
            for size in range(1, len(active) + 1):
                for coalition in itertools.combinations(active, size):
                    offsets[coalition] = acc
                    acc += math.prod(self.sizes[v] - 1 for v in coalition)
            self.coalitions = offsets
        return self.coalitions


_CTX_CACHE: dict[int, _Ctx] = {}


def _ctx_for(domain: Domain) -> _Ctx:
    ctx = _CTX_CACHE.get(id(domain))
    if ctx is None or ctx.domain is not domain:
        if len(_CTX_CACHE) > 64:
            _CTX_CACHE.clear()
        ctx = _Ctx(domain)
        _CTX_CACHE[id(domain)] = ctx
    return ctx


def _prepare(scf: Scf, max_profiles: int, want_list: bool = True):
    table = tabulate(scf, max_profiles).table
    return _ctx_for(scf.domain), table, table.tolist() if want_list else None


def _digits_at(sizes, index):
    digits = [0] * len(sizes)
    for v in range(len(sizes) - 1, -1, -1):
        digits[v] = index % sizes[v]
        index //= sizes[v]
    return digits


def _advance(digits, sizes) -> None:
    v = len(sizes) - 1
    while v >= 0:
        digits[v] += 1
        if digits[v] < sizes[v]:
            return
        digits[v] = 0
        v -= 1


# ---------------------------------------------------------------------------
# Deterministic block scanning
# ---------------------------------------------------------------------------


def _scan_blocks(num_items, cases_per_item, scan_block, parallelism, block_size):
    """Run ``scan_block(lo, hi) -> (scanned, payload|None)`` over fixed blocks.

    Returns ``(checked, payload)`` where ``checked`` is the canonical ordinal
    of the witness case (or the full case count).  The result does not depend
    on the block size or on the worker schedule: blocks before the first
    failing one are fully scanned by construction.
    """
    blocks = [
        (lo, min(lo + block_size, num_items))
        for lo in range(0, num_items, block_size)
    ]
    acc = 0
    if parallelism <= 1:
        for lo, hi in blocks:
            scanned, payload = scan_block(lo, hi)
            if payload is not None:
                return acc + scanned, payload
            acc += (hi - lo) * cases_per_item
        return acc, None
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        for (lo, hi), result in zip(blocks, pool.map(lambda b: scan_block(*b), blocks)):
            scanned, payload = result
            if payload is not None:
                return acc + scanned, payload
            acc += (hi - lo) * cases_per_item
    return acc, None


# ---------------------------------------------------------------------------
# ISP
# ---------------------------------------------------------------------------


def check_isp(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> PropertyReport:
    """No single voter can gain by misreporting."""
    t0 = time.perf_counter()
    ctx, _, tbl = _prepare(scf, max_profiles)
    n, sizes, strides, ranks = ctx.n, ctx.sizes, ctx.strides, ctx.ranks
    cases_per_profile = sum(m - 1 for m in sizes)

    def scan_block(lo, hi):
        digits = _digits_at(sizes, lo)
        scanned = 0
        for pidx in range(lo, hi):
            out = tbl[pidx]
            for v in range(n):
                d = digits[v]
                rk = ranks[v][d]
                r_out = rk[out]
                base = pidx - d * strides[v]
                stride = strides[v]
                for w in range(sizes[v]):
                    if w == d:
                        continue
                    scanned += 1
                    dev = tbl[base + w * stride]
                    if rk[dev] < r_out:
                        return scanned, (pidx, v, w, out, dev)
            _advance(digits, sizes)
        return scanned, None

    checked, payload = _scan_blocks(
        ctx.count, cases_per_profile, scan_block, parallelism, _ISP_BLOCK
    )
    witness = None
    if payload is not None:
        pidx, v, w, out, dev = payload
        witness = ManipulationWitness(
            (v,), profile_at(scf.domain, pidx),
            (scf.domain.feasible[v][w],), out, dev,
        )
    return PropertyReport(
        "isp", payload is None, witness, checked, time.perf_counter() - t0, scf
    )


# ---------------------------------------------------------------------------
# GSP / PR / APR (one pair-constraint pass)
# ---------------------------------------------------------------------------


def _gsp_first(ctx, digits, i, cols):
    """Row i's canonically first deviation among ``cols``, and its ordinal.

    A column's coalition is the set of voters whose order changed; its
    ordinal is the coalition's offset plus the mixed-radix index of the
    members' new orders, each counted without the member's truthful one.
    """
    offsets, sizes = ctx.coalition_offsets(), ctx.sizes
    di = digits[:, i].tolist()
    best = None
    for j, dj in zip(cols.tolist(), digits[:, cols].T.tolist()):
        coalition = tuple(v for v in range(ctx.n) if dj[v] != di[v])
        key = 0
        for v in coalition:
            key = key * (sizes[v] - 1) + dj[v] - (dj[v] > di[v])
        key += offsets[coalition]
        if best is None or key < best[0]:
            best = (key, j)
    return best[1], best[0] + 1


def _pair_scan(scf, wanted, parallelism, max_profiles, limit):
    """One pass over ordered profile pairs for the ``wanted`` properties.

    Row i of a block is P, column j is Q; the masks are the module
    docstring's *keeps* and *accepts*, stacked over voters.
    """
    t0 = time.perf_counter()
    ctx, table, _ = _prepare(scf, max_profiles, want_list=False)
    count = ctx.count
    total = count * (count - 1)
    if total > limit:
        what = "group manipulation" if "gsp" in wanted else "pairwise"
        unit = "cases" if "gsp" in wanted else "ordered pairs"
        raise ResourceGuardError(
            f"{what} scan needs {total} {unit}, guard is {limit}"
        )
    digits, rank_rows, rank_base = ctx.build_arrays()
    own = rank_rows.reshape(-1)[rank_base + table]
    # keep[v, p, z]: phi(p) is weakly better than z under voter v's order at p.
    keep = own[:, :, None] <= rank_rows
    if "pr" in wanted or "apr" in wanted:
        accept = np.ascontiguousarray(keep.transpose(0, 2, 1))

    def scan_block(lo, hi, props):
        ti = table[lo:hi]
        neq = ti[:, None] != table
        changed = digits[:, lo:hi, None] != digits[:, None, :]
        kept = np.take(keep[:, lo:hi], table, axis=2)
        kept &= changed
        any_kept = kept.any(axis=0)
        viol = {}
        if "gsp" in props:
            viol["gsp"] = neq & ~any_kept
        if "pr" in props or "apr" in props:
            accepted = accept[:, ti]
            accepted &= changed
            if "pr" in props:
                viol["pr"] = neq & ~(kept & accepted).any(axis=0)
            if "apr" in props:
                viol["apr"] = neq & ~(any_kept & accepted.any(axis=0))
        found = {}
        for prop, mask in viol.items():
            pos = int(mask.argmax())
            if mask.flat[pos]:
                r, j = divmod(pos, count)
                if prop == "gsp":
                    j, nth = _gsp_first(ctx, digits, lo + r, mask[r].nonzero()[0])
                else:
                    nth = j - (j > lo + r) + 1
                found[prop] = (r * (count - 1) + nth, (lo + r, j))
        return found

    step = max(1, _BLOCK_CELLS // (ctx.n * count))
    blocks = [(lo, min(lo + step, count)) for lo in range(0, count, step)]
    pool = None
    if parallelism > 1 and len(blocks) > 1:
        pool = ThreadPoolExecutor(max_workers=parallelism)
    # ``live`` is read when a block starts.  Blocks are consumed in order, so
    # a property leaves it only after every earlier block is consumed.
    live = tuple(wanted)
    results: dict[str, tuple[int, tuple[int, int] | None]] = {}
    acc = 0
    try:
        scans = (pool.map if pool else map)(lambda b: scan_block(*b, live), blocks)
        for (lo, hi), found in zip(blocks, scans):
            for prop in live:
                if prop in found:
                    ordinal, pair = found[prop]
                    results[prop] = (acc + ordinal, pair)
            live = tuple(prop for prop in live if prop not in results)
            if not live:
                break
            acc += (hi - lo) * (count - 1)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    for prop in live:
        results[prop] = (total, None)

    elapsed = time.perf_counter() - t0
    reports = {}
    for prop in wanted:
        checked, pair = results[prop]
        witness = None
        if pair is not None:
            if prop == "gsp":
                witness = _gsp_witness(scf, digits, *pair, table)
            else:
                witness = _pr_violation(scf, prop, *pair, table)
        reports[prop] = PropertyReport(
            prop, pair is None, witness, checked, elapsed, scf
        )
    return reports


def _gsp_witness(scf, digits, i, j, table) -> ManipulationWitness:
    di, dj = digits[:, i].tolist(), digits[:, j].tolist()
    coalition = tuple(v for v in range(scf.domain.n) if di[v] != dj[v])
    deviation = tuple(scf.domain.feasible[v][dj[v]] for v in coalition)
    return ManipulationWitness(
        coalition, profile_at(scf.domain, i), deviation, int(table[i]), int(table[j])
    )


def _pr_violation(scf, kind, i, j, table) -> PrViolation:
    p = profile_at(scf.domain, i)
    q = profile_at(scf.domain, j)
    a, b = int(table[i]), int(table[j])
    analysis = tuple(
        VoterAnalysis(
            v,
            p[v].weakly_prefers(a, b),
            q[v].weakly_prefers(b, a),
            p[v] != q[v],
        )
        for v in range(scf.domain.n)
    )
    return PrViolation(kind, p, q, a, b, analysis)


def check_gsp(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
    max_cases: int = DEFAULT_GSP_GUARD,
) -> PropertyReport:
    """No coalition can make every member strictly better off.

    Only deviations where every coalition member changes their report are
    enumerated; a manipulation with a passive member induces one by the
    sub-coalition of active members, so nothing is lost.
    """
    return _pair_scan(scf, ("gsp",), parallelism, max_profiles, max_cases)["gsp"]


def check_pr(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
    max_pairs: int = DEFAULT_PAIR_GUARD,
) -> PropertyReport:
    """Preference reversal: one voter witnesses both weak comparisons and changed."""
    return _pair_scan(scf, ("pr",), parallelism, max_profiles, max_pairs)["pr"]


def check_apr(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
    max_pairs: int = DEFAULT_PAIR_GUARD,
) -> PropertyReport:
    """Almost preference reversal: the two sides may be witnessed by different voters."""
    return _pair_scan(scf, ("apr",), parallelism, max_profiles, max_pairs)["apr"]


def check_pr_apr(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
    max_pairs: int = DEFAULT_PAIR_GUARD,
) -> dict[str, PropertyReport]:
    """Both pairwise properties from a single scan."""
    return _pair_scan(scf, ("pr", "apr"), parallelism, max_profiles, max_pairs)


# ---------------------------------------------------------------------------
# Dictatorship
# ---------------------------------------------------------------------------


def check_dictator(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> PropertyReport:
    """Some voter always receives one of their top alternatives."""
    t0 = time.perf_counter()
    ctx, _, tbl = _prepare(scf, max_profiles)
    ctx.build_tops()
    sizes = ctx.sizes
    checked = 0
    counters: list[DictatorCounter] = []
    dictator = None
    for v in range(ctx.n):
        tops = ctx.tops[v]
        digits = _digits_at(sizes, 0)
        counter = None
        for pidx in range(ctx.count):
            checked += 1
            if tbl[pidx] not in tops[digits[v]]:
                counter = DictatorCounter(v, profile_at(scf.domain, pidx), tbl[pidx])
                break
            _advance(digits, sizes)
        if counter is None:
            dictator = v
            break
        counters.append(counter)
    holds = dictator is not None
    witness = dictator if holds else tuple(counters)
    return PropertyReport(
        "dictator", holds, witness, checked, time.perf_counter() - t0, scf
    )


# ---------------------------------------------------------------------------
# Witness re-validation (independent of the checker internals)
# ---------------------------------------------------------------------------


def revalidate_witness(scf: Scf, prop: str, witness: Any) -> bool:
    """Recompute a witness with plain :func:`evaluate` calls."""
    if prop in ("isp", "gsp"):
        w: ManipulationWitness = witness
        if not w.coalition or len(w.coalition) != len(set(w.coalition)):
            return False
        if prop == "isp" and len(w.coalition) != 1:
            return False
        if evaluate(scf, w.truthful) != w.outcome_true:
            return False
        deviated = w.deviated_profile()
        if evaluate(scf, deviated) != w.outcome_dev:
            return False
        for v, dev_order in zip(w.coalition, w.deviation):
            if dev_order == w.truthful[v]:
                return False
            if not w.truthful[v].strictly_prefers(w.outcome_dev, w.outcome_true):
                return False
        return True
    if prop in ("pr", "apr"):
        v: PrViolation = witness
        a = evaluate(scf, v.profile_p)
        b = evaluate(scf, v.profile_q)
        if a != v.outcome_p or b != v.outcome_q or a == b:
            return False
        for voter in range(scf.domain.n):
            wp = v.profile_p[voter].weakly_prefers(a, b)
            wq = v.profile_q[voter].weakly_prefers(b, a)
            ch = v.profile_p[voter] != v.profile_q[voter]
            rec = v.analysis[voter]
            if (wp, wq, ch) != (rec.weak_pref_p, rec.weak_pref_q, rec.changed):
                return False
        if v.kind == "pr":
            return not any(
                r.weak_pref_p and r.weak_pref_q and r.changed for r in v.analysis
            )
        return not (
            any(r.weak_pref_p and r.changed for r in v.analysis)
            and any(r.weak_pref_q and r.changed for r in v.analysis)
        )
    if prop == "dictator":
        if isinstance(witness, int):
            from .scf import iter_profiles

            return all(
                evaluate(scf, p) in p[witness].top_set()
                for p in iter_profiles(scf.domain)
            )
        counters: tuple[DictatorCounter, ...] = witness
        if sorted(c.voter for c in counters) != list(range(scf.domain.n)):
            return False
        return all(
            evaluate(scf, c.profile) == c.outcome
            and c.outcome not in c.profile[c.voter].top_set()
            for c in counters
        )
    raise ArgumentError(f"unknown property {prop!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CHECKERS: dict[str, Callable[..., PropertyReport]] = {
    "isp": check_isp,
    "gsp": check_gsp,
    "pr": check_pr,
    "apr": check_apr,
    "dictator": check_dictator,
}


def _profile_strs(profile: Profile, alts) -> list[str]:
    return [format_order(order, alts) for order in profile.orders]


def witness_to_dict(prop: str, witness: Any, scf: Scf):
    alts = scf.domain.alts
    if witness is None:
        return None
    if isinstance(witness, ManipulationWitness):
        return {
            "type": "manipulation",
            "coalition": [v + 1 for v in witness.coalition],
            "truthful": _profile_strs(witness.truthful, alts),
            "deviation": {
                str(v + 1): format_order(order, alts)
                for v, order in zip(witness.coalition, witness.deviation)
            },
            "outcome_true": alts.names[witness.outcome_true],
            "outcome_dev": alts.names[witness.outcome_dev],
        }
    if isinstance(witness, PrViolation):
        return {
            "type": "pr-violation",
            "kind": witness.kind,
            "profile_p": _profile_strs(witness.profile_p, alts),
            "profile_q": _profile_strs(witness.profile_q, alts),
            "outcome_p": alts.names[witness.outcome_p],
            "outcome_q": alts.names[witness.outcome_q],
            "analysis": [
                {
                    "voter": rec.voter + 1,
                    "weak_pref_p": rec.weak_pref_p,
                    "weak_pref_q": rec.weak_pref_q,
                    "changed": rec.changed,
                }
                for rec in witness.analysis
            ],
        }
    if isinstance(witness, int):
        return {"type": "dictator", "voter": witness + 1}
    return {
        "type": "dictator-failure",
        "candidates": [
            {
                "voter": c.voter + 1,
                "counter_profile": _profile_strs(c.profile, alts),
                "outcome": alts.names[c.outcome],
            }
            for c in witness
        ],
    }


def witness_from_dict(data: dict, scf: Scf):
    """Rebuild a witness from its serialized form (for replay/recheck)."""
    from .orders import parse_order

    alts = scf.domain.alts

    def _profile(items):
        return Profile(tuple(parse_order(text, alts) for text in items))

    kind = data["type"]
    if kind == "manipulation":
        coalition = tuple(v - 1 for v in data["coalition"])
        return ManipulationWitness(
            coalition,
            _profile(data["truthful"]),
            tuple(parse_order(data["deviation"][str(v + 1)], alts) for v in coalition),
            alts.index_of(data["outcome_true"]),
            alts.index_of(data["outcome_dev"]),
        )
    if kind == "pr-violation":
        p = _profile(data["profile_p"])
        q = _profile(data["profile_q"])
        analysis = tuple(
            VoterAnalysis(
                rec["voter"] - 1, rec["weak_pref_p"], rec["weak_pref_q"], rec["changed"]
            )
            for rec in data["analysis"]
        )
        return PrViolation(
            data["kind"], p, q,
            alts.index_of(data["outcome_p"]), alts.index_of(data["outcome_q"]),
            analysis,
        )
    if kind == "dictator":
        return data["voter"] - 1
    if kind == "dictator-failure":
        return tuple(
            DictatorCounter(
                c["voter"] - 1, _profile(c["counter_profile"]),
                alts.index_of(c["outcome"]),
            )
            for c in data["candidates"]
        )
    raise ArgumentError(f"unknown witness type {kind!r}")


def report_to_dict(report: PropertyReport, include_timing: bool = False) -> dict:
    """Canonical structured form; timing is volatile and off by default."""
    doc = {"property": report.property, "holds": report.holds}
    witness = witness_to_dict(report.property, report.witness, report.scf)
    if witness is not None:
        doc["witness"] = witness
    doc["checked"] = report.checked
    if include_timing:
        doc["elapsed_ms"] = round(report.elapsed * 1000.0, 3)
    return doc
