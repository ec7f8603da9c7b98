"""Decision procedures with witnesses: ISP, GSP, PR, APR, dictatorship.

Every checker scans a fixed canonical order and reports the first failure
it meets; ``checked`` counts the cases up to and including the witness (or
all of them when the property holds).  Every scan is a numpy pass over
blocks of profile rows, so the answer never depends on the block size.

ISP takes profiles, then voters, then each voter's other orders: a row of
sum(m_v - 1) single-voter deviations, whose targets come from the digits
and strides of the profile index.  Dictatorship takes voters, then
profiles: a voter is served where phi(P) has rank 0 under their order.
Both run serially, in blocks that start at about ``_FIRST_CELLS`` cells and
double, so an early failure stays cheap, and they build no array over the
whole profile space.

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
violations of the first row that has any.

Voter v's masks depend on P only through (v, P_v, phi(P)), so the pass
builds them per such key, not per pair: a *keeps* row over Q, and for PR
and APR an *accepts* row, each bit-packed (``np.packbits``, little bit
order), plus one packed ``phi(Q) != x`` row per alternative x.  A block of
P rows gathers its n rows per profile and combines them with bitwise
operations; only the first row with a violation is unpacked.  Rows are
built the first time a block needs them and kept in a cache of at most
``_KEY_CACHE_BYTES`` (never less than one block's keys, which it flushes
to when full), so the cost is about (sum of m_v) * k rows plus n packed
rows per profile instead of n * count**2 bytes.  Blocks grow from about
``_FIRST_CELLS`` to about ``_BLOCK_CELLS`` gathered bytes.  Every scan is
serial; ``parallelism`` is accepted and has no effect on any result.

Table universes ask only for verdicts, on many small tables.
:func:`table_verdicts` decides all five properties for a whole block of
tables in one numpy pass over the same masks, unpacked, with a table axis
added, the checkers' pair guards and row blocks of about ``_BLOCK_CELLS``
cells, and returns one bool per table and property: no scan order, no
``checked`` count and no witness.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import ArgumentError, ParseError, ResourceGuardError
from .orders import WeakOrder, format_order
from .domains import DEFAULT_PROFILE_GUARD, Domain
from .scf import Profile, Scf, evaluate, profile_at, profile_strides, tabulate

#: Pairwise scans ((P, Q) pairs, and the equally sized normalized GSP
#: deviation space) get their own ceilings on top of the profile guard.
DEFAULT_PAIR_GUARD = 2_000_000_000
DEFAULT_GSP_GUARD = 100_000_000

#: The largest block: (voter, P, table, Q) cells in :func:`table_verdicts`,
#: packed bytes gathered per block in the pair pass.  At 2^17 a pair-pass
#: block's arrays stay below glibc's default mmap threshold (128 KiB), so
#: they are reused from the heap and not page-faulted in again each block.
_BLOCK_CELLS = 1 << 17
_FIRST_CELLS = 1 << 12
_SERIAL_CELLS = 1 << 14
#: Most bytes of packed key rows the pair pass keeps at once.
_KEY_CACHE_BYTES = 1 << 24


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
    """Per-domain scan data, kept on the domain (``Domain._scan_context``).
    Lazy members are built in locals and published by one assignment, so
    threads sharing a context never see them half built."""

    __slots__ = (
        "n", "sizes", "strides", "count", "radix", "rank_table", "order_base",
        "deviations", "digits", "arrays", "coalitions",
    )

    def __init__(self, domain: Domain):
        self.n = domain.n
        self.sizes = tuple(len(fs) for fs in domain.feasible)
        self.strides = profile_strides(domain)
        self.count = domain.profile_count()
        # rank_table[order_base[v] + d, z]: the rank of z under voter v's
        # order d; rank 0 is the top class.
        self.rank_table = np.array(
            [order.ranks for fs in domain.feasible for order in fs], dtype=np.int8
        )
        self.order_base = np.cumsum((0,) + self.sizes[:-1])
        self.radix = (np.array(self.strides), np.array(self.sizes))
        # ISP's cases at a profile, by voter v and slot j < m_v - 1: the
        # voter, the slot and v's stride.
        voter = np.repeat(np.arange(self.n), [m - 1 for m in self.sizes])
        slot = np.concatenate([np.arange(m - 1) for m in self.sizes])
        self.deviations = (voter, slot, self.radix[0][voter])
        self.digits = None
        self.arrays = None
        self.coalitions = None

    def build_digits(self):
        """``(n, count)``: each voter's order index at every profile, in the
        smallest unsigned dtype that holds it."""
        if self.digits is None:
            idx = np.arange(self.count, dtype=np.min_scalar_type(self.count))
            self.digits = np.stack([
                (idx // stride) % size
                for stride, size in zip(self.strides, self.sizes)
            ]).astype(np.min_scalar_type(max(self.sizes)))
        return self.digits

    def build_arrays(self):
        """``(digits, rank_rows, rank_base)``: :meth:`build_digits`, each
        voter's rank vector at every profile, and the flat offsets of
        ``rank_rows`` rows to which an outcome table is added."""
        if self.arrays is None:
            digits = self.build_digits()
            rank_rows = self.rank_table[self.order_base[:, None] + digits]
            base = np.arange(digits.size).reshape(digits.shape) * rank_rows.shape[2]
            self.arrays = (digits, rank_rows, base)
        return self.arrays

    def own_ranks(self, table, lo, hi):
        """``(digits, rows, own)`` for profiles lo..hi-1, each ``(hi - lo, n)``:
        voter v's order index at P, that order's flat offset in
        ``rank_table``, and the rank of phi(P) under it.  Computed per block,
        so the serial scans need no whole-space arrays."""
        strides, sizes = self.radix
        digits = np.arange(lo, hi)[:, None] // strides % sizes
        rows = (self.order_base + digits) * self.rank_table.shape[1]
        own = self.rank_table.reshape(-1)[rows + table[lo:hi, None]]
        return digits, rows, own

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


def _prepare(scf: Scf, max_profiles: int):
    return scf.domain._scan_context, tabulate(scf, max_profiles).table


def _growing_blocks(count, per_row, most=_SERIAL_CELLS):
    """``(lo, hi)`` profile ranges covering ``range(count)``, ``per_row``
    cells a profile.  The first block holds about ``_FIRST_CELLS`` cells, so
    an early failure stays cheap, and each next one twice as many, up to
    ``most`` (never past ``_BLOCK_CELLS``).  At the default, ISP's and
    dictatorship's int64 temporaries stay in cache and are not
    page-faulted."""
    per_row = max(1, per_row)
    rows = max(1, min(_FIRST_CELLS, _BLOCK_CELLS) // per_row)
    most = max(1, min(most, _BLOCK_CELLS) // per_row)
    lo = 0
    while lo < count:
        hi = min(lo + rows, count)
        yield lo, hi
        lo, rows = hi, min(2 * rows, most)


# ---------------------------------------------------------------------------
# ISP
# ---------------------------------------------------------------------------


def check_isp(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> PropertyReport:
    """No single voter can gain by misreporting.

    A profile row has one case per voter v and other order of v, taken in
    that order: slot j of v is order ``j + (j >= d)``, d being v's truthful
    order, so the deviation is profile ``P + (j + (j >= d) - d) * stride_v``.
    It fails where v ranks phi(deviation) above phi(P).
    """
    t0 = time.perf_counter()
    ctx, table = _prepare(scf, max_profiles)
    voter, slot, stride = ctx.deviations
    flat_ranks = ctx.rank_table.reshape(-1)
    per_row = len(voter)
    checked = ctx.count * per_row
    witness = None
    blocks = _growing_blocks(ctx.count, per_row) if per_row else ()
    for lo, hi in blocks:
        digits, rows, own = ctx.own_ranks(table, lo, hi)
        d = digits[:, voter]
        dev = np.arange(lo, hi)[:, None] + (slot + (slot >= d) - d) * stride
        dev_out = table[dev]
        fails = flat_ranks[rows[:, voter] + dev_out] < own[:, voter]
        pos = int(fails.argmax())
        if fails.flat[pos]:
            r, c = divmod(pos, per_row)
            v, j = int(voter[c]), int(slot[c])
            order = scf.domain.feasible[v][j + (j >= d[r, c])]
            witness = ManipulationWitness(
                (v,), profile_at(scf.domain, lo + r), (order,),
                int(table[lo + r]), int(dev_out[r, c]),
            )
            checked = lo * per_row + pos + 1
            break
    return PropertyReport(
        "isp", witness is None, witness, checked, time.perf_counter() - t0, scf
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


def _require_pairs(count, props, limit) -> int:
    """The ordered profile pairs a scan for ``props`` walks, within ``limit``."""
    total = count * (count - 1)
    if total > limit:
        what = "group manipulation" if "gsp" in props else "pairwise"
        unit = "cases" if "gsp" in props else "ordered pairs"
        raise ResourceGuardError(
            f"{what} scan needs {total} {unit}, guard is {limit}"
        )
    return total


def _violations(kept, accepted, neq, props, axis, single=None):
    """The violation masks of the module docstring, one per property.

    ``kept`` and ``accepted`` carry the voters on ``axis`` (``accepted`` may
    be None when neither PR nor APR is asked for); ``neq`` marks the pairs
    with different outcomes and ``single`` those where exactly one voter
    changed, both without the voter axis.  ISP fails where that voter does
    not keep.  Only bitwise operations are used, so the masks may be bool
    arrays or rows of bits packed into uint8 whose padding bits are 0 in
    ``neq``.
    """
    any_kept = np.bitwise_or.reduce(kept, axis=axis)
    viol = {}
    if "pr" in props:
        viol["pr"] = neq & ~np.bitwise_or.reduce(kept & accepted, axis=axis)
    if "apr" in props:
        viol["apr"] = neq & ~(any_kept & np.bitwise_or.reduce(accepted, axis=axis))
    if "isp" in props:
        viol["isp"] = single & ~any_kept
    if "gsp" in props:
        viol["gsp"] = neq & ~any_kept
    return viol


class _KeyRows:
    """The pair pass's rows over Q, one per key (v, d, x), bit-packed and
    built the first time a block needs them.

    Key (v, d, x) is voter v reporting order d at an outcome x; its global
    id is ``(order_base[v] + d) * k + x``, and ``slot[id]`` is its place in
    ``rows`` or -1.  ``rows[s, 0]`` is the key's *keeps* row and, when PR or
    APR is scanned, ``rows[s, 1]`` its *accepts* row.  ``rows`` has room for
    ``limit`` keys, but its pages become resident only as rows are written;
    when a block needs more than are free, every row is dropped and the
    block's own are built again.
    """

    def __init__(self, ctx, table, digits, pairwise, limit):
        self.ctx, self.digits, self.limit = ctx, digits, limit
        k = self.k = ctx.rank_table.shape[1]
        # le[r, a, b]: a is weakly better than b under global order r.
        self.le = ctx.rank_table[:, :, None] <= ctx.rank_table[:, None, :]
        self.voter_of = np.repeat(np.arange(ctx.n), ctx.sizes)
        is_out = table == np.arange(k)[:, None]
        # Packed over Q: phi(Q) == y, and phi(Q) != x.
        self.outcome = np.packbits(is_out, axis=1, bitorder="little")
        self.neq = np.packbits(~is_out, axis=1, bitorder="little")
        self.accepts = None
        if pairwise:
            # accepts[x, v]: phi(Q) is weakly better than x under Q_v, packed.
            by_x = np.ascontiguousarray(self.le.transpose(2, 0, 1)).reshape(k, -1)
            at_q = (ctx.order_base[:, None].astype(np.int32) + digits) * k + table
            self.accepts = np.packbits(
                np.take(by_x, at_q, axis=1), axis=2, bitorder="little"
            )
        self.slot = np.full(len(ctx.rank_table) * k, -1, dtype=np.int64)
        self.rows = np.empty((limit, 1 + pairwise, self.neq.shape[1]), dtype=np.uint8)
        self.used = 0

    def slots(self, ids):
        """The slots of ``ids`` (any shape), once every one is built."""
        slots = self.slot[ids]
        if slots.min() < 0:
            missing = np.unique(ids[slots < 0])
            if self.used + len(missing) > self.limit:
                self.slot[:] = -1
                self.used, missing = 0, np.unique(ids)
            # Build a few keys at a time, so the unpacked temporaries stay
            # within a block's size.
            step = max(1, _BLOCK_CELLS // self.digits.shape[1])
            for at in range(0, len(missing), step):
                part = missing[at : at + step]
                self.rows[self.used : self.used + len(part)] = self.build(part)
                self.slot[part] = np.arange(self.used, self.used + len(part))
                self.used += len(part)
            slots = self.slot[ids]
        return slots

    def build(self, ids):
        """The packed rows of the keys ``ids``, shaped like ``rows``: for key
        (v, d, x), keeps[q] = Q_v != d and x is weakly better than phi(Q)
        under d; accepts[q] = Q_v != d and phi(Q) is weakly better than x
        under Q_v."""
        order, x = np.divmod(ids, self.k)
        v = self.voter_of[order]
        d = (order - self.ctx.order_base[v]).astype(self.digits.dtype)
        stay = np.packbits(self.digits[v] == d[:, None], axis=1, bitorder="little")
        worse = self.outcome * self.le[order, x][:, :, None]
        rows = [np.bitwise_or.reduce(worse, axis=1) & ~stay]
        if self.accepts is not None:
            rows.append(self.accepts[x, v] & ~stay)
        return np.stack(rows, axis=1)


def _pair_scan(scf, wanted, max_profiles, limit):
    """One pass over ordered profile pairs for the ``wanted`` properties.

    Row P of a block gathers, for each voter v, the packed rows of its key
    (v, P_v, phi(P)) from a :class:`_KeyRows`, and the packed ``phi(Q) !=
    phi(P)`` row; :func:`_violations` combines them.  Only the first row
    with a violation is unpacked.
    """
    t0 = time.perf_counter()
    ctx, table = _prepare(scf, max_profiles)
    count, n = ctx.count, ctx.n
    total = _require_pairs(count, wanted, limit)
    digits = ctx.build_digits()
    k = ctx.rank_table.shape[1]
    pairwise = "pr" in wanted or "apr" in wanted
    width = (count + 7) // 8
    # A profile row gathers n key rows of this many packed bytes.
    row_bytes = width * (1 + pairwise)
    # The cache holds at least the largest block's keys, as _growing_blocks
    # sizes it, and never more keys than there are.
    most = max(1, _BLOCK_CELLS // (n * row_bytes))
    fits = _KEY_CACHE_BYTES // row_bytes
    keys = _KeyRows(
        ctx, table, digits, pairwise, min(len(ctx.rank_table) * k, max(n * most, fits))
    )
    live = tuple(wanted)
    results: dict[str, tuple[int, tuple[int, int] | None]] = {}
    for lo, hi in _growing_blocks(count, n * row_bytes, _BLOCK_CELLS):
        ti = table[lo:hi]
        slots = keys.slots((ctx.order_base[:, None] + digits[:, lo:hi]) * k + ti)
        rows = keys.rows[slots]
        accepted = rows[:, :, 1] if pairwise else None
        viol = _violations(rows[:, :, 0], accepted, keys.neq[ti], live, 0)
        for prop, mask in viol.items():
            if mask.any():
                r = int(mask.any(axis=1).argmax())
                i = lo + r
                cols = np.flatnonzero(
                    np.unpackbits(mask[r], count=count, bitorder="little")
                )
                if prop == "gsp":
                    j, nth = _gsp_first(ctx, digits, i, cols)
                else:
                    j = int(cols[0])
                    nth = j - (j > i) + 1
                results[prop] = (i * (count - 1) + nth, (i, j))
        live = tuple(prop for prop in live if prop not in results)
        if not live:
            break
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
    return _pair_scan(scf, ("gsp",), max_profiles, max_cases)["gsp"]


def check_pr(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
    max_pairs: int = DEFAULT_PAIR_GUARD,
) -> PropertyReport:
    """Preference reversal: one voter witnesses both weak comparisons and changed."""
    return _pair_scan(scf, ("pr",), max_profiles, max_pairs)["pr"]


def check_apr(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
    max_pairs: int = DEFAULT_PAIR_GUARD,
) -> PropertyReport:
    """Almost preference reversal: the two sides may be witnessed by different voters."""
    return _pair_scan(scf, ("apr",), max_profiles, max_pairs)["apr"]


def check_pr_apr(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
    max_pairs: int = DEFAULT_PAIR_GUARD,
) -> dict[str, PropertyReport]:
    """Both pairwise properties from a single scan."""
    return _pair_scan(scf, ("pr", "apr"), max_profiles, max_pairs)


# ---------------------------------------------------------------------------
# Dictatorship
# ---------------------------------------------------------------------------


def check_dictator(
    scf: Scf,
    *,
    parallelism: int = 1,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> PropertyReport:
    """Some voter always receives one of their top alternatives.

    Voter v is served at P when phi(P) has rank 0 under v's order at P.  The
    canonical scan takes voters in order, each over every profile until the
    first one where they are not served; the profile blocks find each
    voter's first such profile at once.
    """
    t0 = time.perf_counter()
    ctx, table = _prepare(scf, max_profiles)
    first = np.full(ctx.n, -1)
    for lo, hi in _growing_blocks(ctx.count, ctx.n):
        unserved = ctx.own_ranks(table, lo, hi)[2] != 0
        found = (first < 0) & unserved.any(axis=0)
        first[found] = lo + unserved.argmax(axis=0)[found]
        if (first >= 0).all():
            break
    checked = 0
    counters: list[DictatorCounter] = []
    dictator = None
    for v, pidx in enumerate(first.tolist()):
        if pidx < 0:
            checked += ctx.count
            dictator = v
            break
        checked += pidx + 1
        counters.append(DictatorCounter(v, profile_at(scf.domain, pidx), int(table[pidx])))
    holds = dictator is not None
    witness = dictator if holds else tuple(counters)
    return PropertyReport(
        "dictator", holds, witness, checked, time.perf_counter() - t0, scf
    )


# ---------------------------------------------------------------------------
# Verdict blocks (table universes)
# ---------------------------------------------------------------------------


def table_verdicts(
    domain: Domain, tables: np.ndarray, props
) -> dict[str, np.ndarray]:
    """Whether each property in ``props`` holds, for every row of ``tables``.

    ``tables`` is a ``(B, count)`` uint8 block, one table per row; the
    result maps each property to a length-B bool array.  The masks are
    :func:`_violations`, as in :func:`_pair_scan`, with a table axis added,
    and the P rows are taken in blocks of about ``_BLOCK_CELLS`` (voter, P,
    table, Q) cells, so a large table is split as the checkers split it.
    ISP fails where exactly one voter changed and does not keep;
    dictatorship holds where some voter gets a rank-0 (top) alternative at
    every profile.  No witness is built.  ISP, GSP, PR and APR are decided
    over ordered profile pairs and raise the checkers' pair guard: GSP's
    when GSP is asked for, the pairwise one otherwise.
    """
    ctx = domain._scan_context
    digits, rank_rows, rank_base = ctx.build_arrays()
    count = ctx.count
    # own[v, b, p]: the rank of phi_b(P) under voter v's order at P.
    own = rank_rows.reshape(-1)[rank_base[:, None, :] + tables]
    out = {}
    if "dictator" in props:
        out["dictator"] = (own == 0).all(axis=2).any(axis=0)
    pair_props = [p for p in ("isp", "gsp", "pr", "apr") if p in props]
    if not pair_props:
        return out
    limit = DEFAULT_GSP_GUARD if "gsp" in pair_props else DEFAULT_PAIR_GUARD
    _require_pairs(count, pair_props, limit)
    for prop in pair_props:
        out[prop] = np.ones(len(tables), dtype=bool)
    # Pair arrays are indexed [v, p, b, q], so the voter axis is 0 as in
    # _pair_scan.  by_alt[v, z, q] is the rank of z under voter v's order at Q.
    own_p = own.transpose(0, 2, 1)[..., None]
    own_q = own[:, None]
    by_alt = np.ascontiguousarray(rank_rows.transpose(0, 2, 1))
    step = max(1, _BLOCK_CELLS // (len(tables) * ctx.n * count))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        changed = digits[:, lo:hi, None, None] != digits[:, None, None, :]
        # np.take gives the rank of phi_b(Q) under voter v's order at P.
        kept = own_p[:, lo:hi] <= np.take(rank_rows[:, lo:hi], tables, axis=2)
        kept &= changed
        accepted = None
        if "pr" in props or "apr" in props:
            # ranks[v, b, p, q]: the rank of phi_b(P) under voter v's order at Q.
            ranks = np.take(by_alt, tables[:, lo:hi], axis=1)
            accepted = own_q <= ranks.transpose(0, 2, 1, 3)
            accepted &= changed
        neq = tables.T[lo:hi, :, None] != tables
        single = changed.sum(axis=0) == 1 if "isp" in props else None
        viol = _violations(kept, accepted, neq, pair_props, 0, single)
        for prop, mask in viol.items():
            out[prop] &= ~mask.any(axis=0).any(axis=1)
        if not any(out[prop].any() for prop in pair_props):
            break
    return out


# ---------------------------------------------------------------------------
# Witness re-validation (independent of the checker internals)
# ---------------------------------------------------------------------------


def revalidate_witness(scf: Scf, prop: str, witness: Any) -> bool:
    """Recompute a witness with plain :func:`evaluate` calls; a dictator
    against the rule's table and the voter's top sets, in one pass."""
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
            # The voter's order at profile i is i // stride % m; phi(P) must
            # be among that order's tops at every profile.
            orders = scf.domain.feasible[witness]
            tops = np.array(
                [[z in order.top_set() for z in range(scf.domain.k)] for order in orders]
            )
            table = tabulate(scf).table
            at = np.arange(len(table)) // profile_strides(scf.domain)[witness] % len(orders)
            return bool(tops[at, table].all())
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


def run_checkers(scf: Scf, props, **kwargs) -> dict[str, PropertyReport]:
    """The reports of the ``props`` checkers on ``scf``, by property; PR and
    APR, when both are asked for, come from one :func:`check_pr_apr` pass."""
    reports = check_pr_apr(scf, **kwargs) if {"pr", "apr"} <= set(props) else {}
    for prop in props:
        if prop not in reports:
            reports[prop] = CHECKERS[prop](scf, **kwargs)
    return reports


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
    """Rebuild a witness from its serialized form (for replay/recheck).

    Voter numbers are 1-based; one outside 1..n is a ParseError, and so is
    a PR analysis whose entry i does not name voter i + 1.
    """
    from .orders import parse_order

    alts = scf.domain.alts
    n = scf.domain.n

    def _profile(items):
        return Profile(tuple(parse_order(text, alts) for text in items))

    def _voter(number):
        if not isinstance(number, int) or not 1 <= number <= n:
            raise ParseError(f"witness names voter {number!r}; voters are 1..{n}")
        return number - 1

    kind = data["type"]
    if kind == "manipulation":
        coalition = tuple(_voter(v) for v in data["coalition"])
        for key in data["deviation"]:
            _voter(int(key))
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
                _voter(rec["voter"]),
                rec["weak_pref_p"], rec["weak_pref_q"], rec["changed"],
            )
            for rec in data["analysis"]
        )
        if any(rec.voter != i for i, rec in enumerate(analysis)):
            raise ParseError("PR analysis entries must name voters 1..n in order")
        return PrViolation(
            data["kind"], p, q,
            alts.index_of(data["outcome_p"]), alts.index_of(data["outcome_q"]),
            analysis,
        )
    if kind == "dictator":
        return _voter(data["voter"])
    if kind == "dictator-failure":
        return tuple(
            DictatorCounter(
                _voter(c["voter"]), _profile(c["counter_profile"]),
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
