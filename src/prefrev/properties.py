"""Decision procedures with witnesses: ISP, GSP, PR, APR, dictatorship.

Every checker scans a fixed canonical order and reports the first failure
it meets; ``checked`` counts the cases up to and including the witness (or
all of them when the property holds).  Every scan is a numpy pass over
blocks of profile rows, so the answer never depends on the block size.

ISP takes profiles, then voters, then each voter's other orders: a row of
sum(m_v - 1) single-voter deviations.  It is decided by lines.  Voter v's
line through P is the m_v profiles that differ from P at most in v's
order, and P has a failing deviation of v exactly when some outcome on
that line is ranked above phi(P) by v's order at P.  One pass ORs the
table's one-hot outcome rows along each voter's axis into the outcome set
of every line; then each (P, v) is one AND of that set with the packed row
of what v's order ranks above phi(P): n * count tests of ceil(k / 8) bytes
instead of count * sum(m_v - 1) deviations.  Only the first failing line
is walked, to find its slot.  Dictatorship takes voters, then profiles: a
voter is served where phi(P) has rank 0 under their order.  Both run
serially, over blocks of whole chunks of profiles (:meth:`_Ctx.key_blocks`)
that start at about ``_FIRST_CELLS`` cells and double, so an early failure
stays cheap.  No block divides per profile or builds an array over the
whole profile space; ISP's line pass alone builds a one-hot copy of the
table and count / m_v outcome sets for each voter v.

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

Voter v's masks depend on P only through (v, P_v, phi(P)), so one builder,
:class:`_KeyRows`, makes them per such key, not per pair: a *keeps* row over
the columns Q, and for PR and APR an *accepts* row, each bit-packed
(``np.packbits``, little bit order), plus one packed ``phi(Q) != x`` row
per alternative x.  A block of P rows gathers its n rows per profile and
combines them with bitwise operations; only the first row with a violation
is unpacked.  Rows are built the first time a block needs them and kept in
a cache of at most ``_KEY_CACHE_BYTES`` (never less than one block's keys,
which it flushes to when full), so the cost is about (sum of m_v) * k rows
plus n packed rows per profile instead of n * count**2 bytes.  Blocks grow
from about ``_FIRST_CELLS`` to about ``_BLOCK_CELLS`` gathered bytes.
Every scan is serial.  GSP gathers only the *keeps* rows, half the bytes
per pair that PR and APR gather, so one guard on the number of ordered
pairs, ``PAIR_GUARD``, bounds all three.

Table universes ask only for verdicts, on many small tables.
:func:`table_verdicts` decides all five properties for a whole block of
tables and returns one bool per table and property: no scan order, no
``checked`` count and no witness.  It and ``harness._search`` read their
per-cell verdict rows from one source, :class:`_CellRows`, which builds
them from the same :class:`_KeyRows`, kept on the domain's context or
built per call past ``_KEY_CACHE_BYTES``.  Dictatorship gathers each
voter's rank-0 set at (P, t[P]).  The pass has the checkers' pair guard
and takes P rows in blocks of about ``_BLOCK_CELLS`` bytes.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .errors import ArgumentError, ParseError, ResourceGuardError
from .orders import WeakOrder, format_order
from .domains import DEFAULT_PROFILE_GUARD, Domain
from .scf import Profile, Scf, evaluate, profile_at, profile_strides, tabulate

#: Most ordered profile pairs (P, Q) a GSP, PR, APR or ISP pair scan walks,
#: on top of the profile guard.
PAIR_GUARD = 2_000_000_000

#: The largest block: packed bytes gathered per block in the pair pass and
#: in :func:`table_verdicts`, and per call of :meth:`_KeyRows.violations`
#: for the verdict rows.  At 2^17 a pair-pass block's arrays stay below
#: glibc's default mmap threshold (128 KiB), so they are reused from the
#: heap and not page-faulted in again each block.
_BLOCK_CELLS = 1 << 17
_FIRST_CELLS = 1 << 12
_SERIAL_CELLS = 1 << 14
#: Most bytes of packed key rows the pair pass keeps at once, and of
#: verdict rows a domain's context keeps.
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
    Each array past the rank table is a cached property built on first use,
    so a scan builds only what it reads; ``verdict_rows`` holds the kept
    :class:`_CellRows` of the last properties asked for, or None."""

    def __init__(self, domain: Domain):
        self.n = domain.n
        self.sizes = tuple(len(fs) for fs in domain.feasible)
        self.strides = profile_strides(domain)
        self.count = domain.profile_count()
        # rank_table[order_base[v] + d, z]: the rank of z under voter v's
        # order d; rank 0 is the top class.
        self.rank_table = np.concatenate([fs.rank_rows for fs in domain.feasible])
        self.k = self.rank_table.shape[1]
        self.order_base = np.cumsum((0,) + self.sizes[:-1])
        self.verdict_rows = None

    @cached_property
    def digits(self):
        """``(n, count)``: each voter's order index at every profile, in the
        smallest unsigned dtype that holds it."""
        idx = np.arange(self.count, dtype=np.min_scalar_type(self.count))
        return np.stack([
            (idx // stride) % size for stride, size in zip(self.strides, self.sizes)
        ]).astype(np.min_scalar_type(max(self.sizes)))

    @cached_property
    def le(self):
        """``le[g, a, b]``: a is weakly better than b under global order g.
        Only pair scans read it, so the pair guard bounds its size."""
        return self.rank_table[:, :, None] <= self.rank_table[:, None, :]

    @cached_property
    def by_x(self):
        """``by_x[x, g * k + y]``: y is weakly better than x under order g."""
        return np.ascontiguousarray(self.le.transpose(2, 0, 1)).reshape(self.k, -1)

    @cached_property
    def voter_of(self):
        """The voter of each global order."""
        return np.repeat(np.arange(self.n), self.sizes)

    @cached_property
    def isp_rows(self):
        """``(better, onehot)``, rows over the alternatives bit-packed in
        little bit order: ``better[g * k + x]`` holds what global order g
        ranks strictly above x, ``onehot[x]`` holds x alone."""
        ranks, k = self.rank_table, self.k
        better = (ranks[:, None, :] < ranks[:, :, None]).reshape(-1, k)
        return (
            np.packbits(better, axis=1, bitorder="little"),
            np.packbits(np.eye(k, dtype=bool), axis=1, bitorder="little"),
        )

    @cached_property
    def chunks(self):
        """What :meth:`key_blocks` needs of the domain: ``(span,
        line_strides, tail)``.

        The serial scans take profiles in chunks of ``span`` consecutive
        ones, the largest stride (or the whole space) of at most about
        ``_FIRST_CELLS / n`` profiles.  In profile ``c * span + s`` a voter
        whose stride is below ``span`` reads their order from s, and the
        others from the chunk's first profile, ``c * span``.
        ``tail`` holds the keys less phi and the line numbers of each
        profile s of chunk 0; chunk c adds to both.  ``line_strides[v, u]``
        is voter u's stride in the numbering of voter v's lines: C order
        over the other voters' orders, after the lines of voters 0..v-1.
        """
        strides = np.array(self.strides)[:, None]
        sizes = np.array(self.sizes)[:, None]
        cap = max(1, _FIRST_CELLS // self.n)
        span = next(s for s in (self.count,) + self.strides if s <= cap)
        # Voter v's lines leave out v's axis, so a voter u before v
        # strides m_v times less.
        before = np.tri(self.n, dtype=bool)
        line_strides = np.where(before, strides.T // sizes, strides.T)
        np.fill_diagonal(line_strides, 0)
        digits = np.arange(span) // strides % sizes
        keys = (self.order_base[:, None] + digits) * self.k
        line_base = np.cumsum([0] + [self.count // m for m in self.sizes[:-1]])
        lines = line_strides @ digits + line_base[:, None]
        return span, line_strides, (keys[:, None], lines[:, None])

    def key_blocks(self, table, lines=False):
        """``(lo, keys, lines)`` for blocks of consecutive profiles from lo,
        whole chunks sized by :func:`_growing_blocks`; both ``(n, rows)``.
        ``keys[v, r]`` is ``g * k + phi(P)``, g being voter v's global order
        at P = lo + r: the flat place of phi(P)'s rank under g in
        ``rank_table`` and of its row in ISP's ``better``.  ``lines[v, r]``
        numbers v's line through P (or is None unless asked for).  Nothing
        is divided per profile, and no block builds a whole-space array."""
        span, line_strides, (tail_keys, tail_lines) = self.chunks
        strides, sizes = np.array(self.strides)[:, None], np.array(self.sizes)[:, None]
        chunks = table.reshape(-1, span)
        for lo, hi in _growing_blocks(self.count // span, self.n * span):
            keys, at = tail_keys, tail_lines
            if span < self.count:
                digits = np.arange(lo, hi) * span // strides % sizes
                keys = keys + (digits * self.k)[:, :, None]
                if lines:
                    at = at + (line_strides @ digits)[:, :, None]
            keys = (keys + chunks[lo:hi]).reshape(self.n, -1)
            yield lo * span, keys, at.reshape(self.n, -1) if lines else None

    @cached_property
    def coalitions(self) -> dict[tuple[int, ...], int]:
        """GSP cases of a profile row before each coalition's first: by size,
        then lexicographically, coalition C holding prod(m_v - 1) cases.
        Voters with one feasible order never change and are left out."""
        active = [v for v in range(self.n) if self.sizes[v] > 1]
        offsets = {}
        acc = 0
        for size in range(1, len(active) + 1):
            for coalition in itertools.combinations(active, size):
                offsets[coalition] = acc
                acc += math.prod(self.sizes[v] - 1 for v in coalition)
        return offsets


def _prepare(scf: Scf, max_profiles: int):
    return scf.domain._scan_context, tabulate(scf, max_profiles).table


def _growing_blocks(count, per_row, most=_SERIAL_CELLS):
    """``(lo, hi)`` ranges covering ``range(count)`` of rows (profiles, or
    chunks of them), ``per_row`` cells a row.  The first block holds about
    ``_FIRST_CELLS`` cells, so an early failure stays cheap, and each next
    one twice as many, up to ``most`` (never past ``_BLOCK_CELLS``).  At
    the default, ISP's and dictatorship's int64 temporaries stay in cache
    and are not page-faulted."""
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
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> PropertyReport:
    """No single voter can gain by misreporting.

    A profile row has one case per voter v and other order of v, taken in
    that order: slot j of v is order ``e = j + (j >= d)``, d being v's
    truthful order, and fails where v ranks phi at ``P + (e - d) *
    stride_v`` above phi(P).  Those targets are v's line through P, so
    (P, v) has a failing slot exactly when the line's outcome set meets
    the alternatives d ranks above phi(P): one AND of packed rows per
    (P, v).  Only the first failing line is walked for its slot.
    """
    t0 = time.perf_counter()
    ctx, table = _prepare(scf, max_profiles)
    better, onehot = ctx.isp_rows
    # present[lines[v, r]]: the outcomes on voter v's line through P.
    cube = onehot.take(table, axis=0).reshape(ctx.sizes + (-1,))
    present = np.concatenate([
        np.bitwise_or.reduce(cube, axis=v).reshape(-1, onehot.shape[1])
        for v in range(ctx.n)
    ])
    per_row = sum(ctx.sizes) - ctx.n
    checked = ctx.count * per_row
    witness = None
    for lo, keys, lines in ctx.key_blocks(table, lines=True):
        fails = (
            present.take(lines, axis=0) & better.take(keys, axis=0)
        ).any(axis=2)
        hit = fails.any(axis=0)
        r = int(hit.argmax())
        if hit[r]:
            i, v = lo + r, int(fails[:, r].argmax())
            d = i // ctx.strides[v] % ctx.sizes[v]
            ranks = ctx.rank_table[ctx.order_base[v] + d]
            line = table[i + (np.arange(ctx.sizes[v]) - d) * ctx.strides[v]]
            e = int((ranks[line] < ranks[table[i]]).argmax())
            witness = ManipulationWitness(
                (v,), profile_at(scf.domain, i), (scf.domain.feasible[v][e],),
                int(table[i]), int(line[e]),
            )
            checked = i * per_row + sum(ctx.sizes[:v]) - v + e - (e > d) + 1
            break
    return PropertyReport(
        "isp", witness is None, witness, checked, time.perf_counter() - t0, scf
    )


# ---------------------------------------------------------------------------
# GSP / PR / APR (one pair-constraint pass)
# ---------------------------------------------------------------------------


def _gsp_first(ctx, i, cols):
    """Row i's canonically first deviation among ``cols``, and its ordinal.

    A column's coalition is the set of voters whose order changed; its
    ordinal is the coalition's offset plus the mixed-radix index of the
    members' new orders, each counted without the member's truthful one.
    """
    offsets, sizes, digits = ctx.coalitions, ctx.sizes, ctx.digits
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


def _require_pairs(count) -> int:
    """The ordered pairs of ``count`` profiles, within ``PAIR_GUARD``."""
    total = count * (count - 1)
    if total > PAIR_GUARD:
        raise ResourceGuardError(
            f"pairwise scan needs {total} ordered pairs, guard is {PAIR_GUARD}"
        )
    return total


def _violations(kept, accepted, neq, props, single=None):
    """The violation masks of the module docstring, one per property, as
    rows of bits packed into uint8.

    ``kept`` and ``accepted`` carry the voters on their first axis
    (``accepted`` may be None when neither PR nor APR is asked for);
    ``neq`` marks the pairs with different outcomes and ``single`` those
    where exactly one voter changed.  ISP fails where that voter does not
    keep.  The padding bits of ``neq`` and ``single`` are 0, so no mask sets
    a padding bit.
    """
    any_kept = np.bitwise_or.reduce(kept, axis=0)
    viol = {}
    if "pr" in props:
        viol["pr"] = neq & ~np.bitwise_or.reduce(kept & accepted, axis=0)
    if "apr" in props:
        viol["apr"] = neq & ~(any_kept & np.bitwise_or.reduce(accepted, axis=0))
    if "isp" in props:
        viol["isp"] = single & ~any_kept
    if "gsp" in props:
        viol["gsp"] = neq & ~any_kept
    return viol


class _KeyRows:
    """The one builder of the pair masks: per key (v, d, x), packed rows
    over a list of columns (Q, y), built the first time a call needs them.

    The pair pass takes the columns (Q, phi(Q)) of one table, and
    :class:`_CellRows` every (Q, y) cell or those its caller's tables can have.
    Key (v, d, x) is voter v reporting order d at an outcome x; its global
    id is ``(order_base[v] + d) * k + x``, and ``slot[id]`` is its place in
    ``rows`` or -1.  ``rows[s, 0]`` is the key's *keeps* row and, when
    ``pairwise`` (PR or APR is asked for), ``rows[s, 1]`` its *accepts*
    row; column j is set where Q_v != d and x is weakly better than y under
    d, resp. y is weakly better than x under Q_v.  A call of
    :meth:`violations` gathers ``cell_bytes`` per cell and takes at most
    ``most`` cells, about ``_BLOCK_CELLS`` bytes.  ``rows`` has room for
    that many cells' keys, or ``_KEY_CACHE_BYTES`` of them if more, and
    never for more keys than there are; its pages become resident only as
    rows are written.  When a call needs more keys than are free, every row
    is dropped and the call's own are built again.  What depends only on
    the domain's orders (``le``, ``by_x``, ``voter_of``) is the context's.
    """

    def __init__(self, ctx, q, y, pairwise):
        self.ctx = ctx
        self.on_q = ctx.digits[:, q]
        k = ctx.k
        self.width = (len(y) + 7) // 8
        is_out = y == np.arange(k)[:, None]
        # Packed over the columns: y == z for each alternative z, and y != x.
        self.outcome = np.packbits(is_out, axis=1, bitorder="little")
        self.neq = np.packbits(~is_out, axis=1, bitorder="little")
        self.accepts = None
        if pairwise:
            # accepts[x, v]: y is weakly better than x under Q_v, packed.
            at_q = (ctx.order_base[:, None].astype(np.int32) + self.on_q) * k + y
            self.accepts = np.packbits(
                np.take(ctx.by_x, at_q, axis=1), axis=2, bitorder="little"
            )
        row_bytes = self.width * (1 + pairwise)
        self.cell_bytes = ctx.n * row_bytes
        self.most = max(1, _BLOCK_CELLS // self.cell_bytes)
        keys = len(ctx.rank_table) * k
        limit = min(keys, max(ctx.n * self.most, _KEY_CACHE_BYTES // row_bytes))
        self.slot = np.full(keys, -1, dtype=np.int64)
        self.rows = np.empty((limit, 1 + pairwise, self.width), dtype=np.uint8)
        self.used = 0

    def slots(self, ids):
        """The slots of ``ids`` (any shape), once every one is built."""
        slots = self.slot[ids]
        if slots.min() < 0:
            missing = np.unique(ids[slots < 0])
            if self.used + len(missing) > len(self.rows):
                self.slot[:] = -1
                self.used, missing = 0, np.unique(ids)
            # Build a few keys at a time, so the unpacked temporaries stay
            # within a block's size.
            step = max(1, _BLOCK_CELLS // self.on_q.shape[1])
            for at in range(0, len(missing), step):
                part = missing[at : at + step]
                self.rows[self.used : self.used + len(part)] = self.build(part)
                self.slot[part] = np.arange(self.used, self.used + len(part))
                self.used += len(part)
            slots = self.slot[ids]
        return slots

    def changed(self, order):
        """For each global order g in ``order``, the packed row of the
        columns where g's voter reports another order."""
        v = self.ctx.voter_of[order]
        d = (order - self.ctx.order_base[v]).astype(self.on_q.dtype)
        return np.packbits(self.on_q[v] != d[:, None], axis=1, bitorder="little")

    @cached_property
    def moved(self):
        """Every global order's :meth:`changed` row."""
        return self.changed(np.arange(len(self.ctx.rank_table)))

    def build(self, ids):
        """The packed rows of the keys ``ids``, shaped like ``rows``."""
        order, x = np.divmod(ids, self.ctx.k)
        v = self.ctx.voter_of[order]
        changed = self.changed(order)
        worse = self.outcome * self.ctx.le[order, x][:, :, None]
        rows = [np.bitwise_or.reduce(worse, axis=1) & changed]
        if self.accepts is not None:
            rows.append(self.accepts[x, v] & changed)
        return np.stack(rows, axis=1)

    def violations(self, p, x, props):
        """The packed violation rows of the cells (P, x) over the columns,
        one ``(cells, width)`` uint8 array per property in ``props``.

        ``p`` (an index array or a slice of profiles) and ``x`` give the
        cells, at most ``most`` of them.  Each cell gathers the rows of its
        n keys (v, P_v, x) and :func:`_violations` combines them.  For ISP,
        ``single`` is "some voter changed and no two did", from every
        order's :meth:`changed` row, built when ISP is first asked for.
        """
        at = self.ctx.order_base[:, None] + self.ctx.digits[:, p]
        rows = self.rows[self.slots(at * self.ctx.k + x)]
        single = None
        if "isp" in props:
            one = two = 0
            for moved in self.moved[at]:
                two = two | one & moved
                one = one | moved
            single = one & ~two
        accepted = rows[:, :, 1] if self.accepts is not None else None
        return _violations(rows[:, :, 0], accepted, self.neq[x], props, single)


def _pair_scan(scf, wanted, max_profiles):
    """One pass over ordered profile pairs for the ``wanted`` properties.

    Row P of a block gathers, for each voter v, the packed rows of its key
    (v, P_v, phi(P)) over the table's columns (Q, phi(Q)) from a
    :class:`_KeyRows`, and the packed ``phi(Q) != phi(P)`` row.  Only the
    first row with a violation is unpacked.
    """
    t0 = time.perf_counter()
    ctx, table = _prepare(scf, max_profiles)
    count = ctx.count
    total = _require_pairs(count)
    keys = _KeyRows(ctx, slice(None), table, "pr" in wanted or "apr" in wanted)
    live = tuple(wanted)
    results: dict[str, tuple[int, tuple[int, int] | None]] = {}
    for lo, hi in _growing_blocks(count, keys.cell_bytes, _BLOCK_CELLS):
        viol = keys.violations(slice(lo, hi), table[lo:hi], live)
        for prop, mask in viol.items():
            if mask.any():
                r = int(mask.any(axis=1).argmax())
                i = lo + r
                cols = np.flatnonzero(
                    np.unpackbits(mask[r], count=count, bitorder="little")
                )
                if prop == "gsp":
                    j, nth = _gsp_first(ctx, i, cols)
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
                witness = _gsp_witness(scf, ctx.digits, *pair, table)
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
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> PropertyReport:
    """No coalition can make every member strictly better off.

    Only deviations where every coalition member changes their report are
    enumerated; a manipulation with a passive member induces one by the
    sub-coalition of active members, so nothing is lost.
    """
    return _pair_scan(scf, ("gsp",), max_profiles)["gsp"]


def check_pr(
    scf: Scf,
    *,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> PropertyReport:
    """Preference reversal: one voter witnesses both weak comparisons and changed."""
    return _pair_scan(scf, ("pr",), max_profiles)["pr"]


def check_apr(
    scf: Scf,
    *,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> PropertyReport:
    """Almost preference reversal: the two sides may be witnessed by different voters."""
    return _pair_scan(scf, ("apr",), max_profiles)["apr"]


def check_pr_apr(
    scf: Scf,
    *,
    max_profiles: int = DEFAULT_PROFILE_GUARD,
) -> dict[str, PropertyReport]:
    """Both pairwise properties from a single scan."""
    return _pair_scan(scf, ("pr", "apr"), max_profiles)


# ---------------------------------------------------------------------------
# Dictatorship
# ---------------------------------------------------------------------------


def check_dictator(
    scf: Scf,
    *,
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
    for lo, keys, _ in ctx.key_blocks(table):
        unserved = ctx.rank_table.reshape(-1)[keys] != 0
        found = (first < 0) & unserved.any(axis=1)
        first[found] = lo + unserved.argmax(axis=1)[found]
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


class _CellRows:
    """The one source of verdict rows, made by :func:`_cell_source`.

    A pair's violation depends on the table only through x = phi(P) and
    y = phi(Q), so a :class:`_KeyRows` given cells (Q, y) as its columns
    gives, per cell (P, x), the packed row of the cells that break a
    property against it: bit j is set where the pair (P, Q) breaks it if
    phi(P) = x and phi(Q) = y, (Q, y) being column j; the padding bits are
    0.  A table t breaks the property exactly when its rows at the cells
    (P, t[P]), ORed over P, meet t's own one-hot row {(Q, t[Q])} over the
    same columns: count * ``words`` words gathered per table.

    With ``cols`` None the columns are every cell, and the rows of every
    cell are built at once and kept; the key rows are then dropped.
    Otherwise the columns are ``cols``, the sorted cells a caller's tables
    can have, and :meth:`rows` builds the rows asked for at each call,
    ``keys.most`` cells at a time.
    """

    def __init__(self, ctx, props, cols):
        self.props, self.cols, self.kept = props, cols, None
        cells = np.arange(ctx.count * ctx.k) if cols is None else cols
        self.words = -(-len(cells) // 64)
        self.keys = _KeyRows(ctx, *np.divmod(cells, ctx.k), "pr" in props or "apr" in props)
        if cols is None:
            self.kept, self.keys = self.rows(cells), None

    def rows(self, at):
        """The ``(*at.shape, len(props), words)`` uint64 verdict rows of the
        flat (P, x) cells ``at`` (``P * k + x``).  Unless they are kept,
        ``at`` is one-dimensional and its cells are distinct."""
        if self.kept is not None:
            return self.kept[at]
        keys = self.keys
        out = np.zeros((len(at), len(self.props), self.words * 8), dtype=np.uint8)
        for lo in range(0, len(at), keys.most):
            viol = keys.violations(*np.divmod(at[lo : lo + keys.most], keys.ctx.k), self.props)
            for i, prop in enumerate(self.props):
                out[lo : lo + keys.most, i, : keys.width] = viol[prop]
        return out.view(np.uint64)

    def onehot(self, at):
        """Packed uint64 rows over the columns, row i with the cells ``at[i]``."""
        place = at if self.cols is None else np.searchsorted(self.cols, at)
        bits = np.zeros((len(at), self.words * 64), dtype=bool)
        bits[np.arange(len(at))[:, None], place] = True
        return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def _cell_source(ctx, props, cols) -> _CellRows:
    """The verdict-row source of the pair properties ``props`` on ``ctx``'s
    domain.  Rows of every cell that fit in ``_KEY_CACHE_BYTES`` are kept
    on the context (``verdict_rows``) for the last ``props`` asked for;
    past that, a source over ``cols()``, the sorted cells the caller's
    tables can have, serves the one call."""
    kept = ctx.verdict_rows
    if kept is None or kept.props != props:
        size = ctx.count * ctx.k
        fits = size * len(props) * -(-size // 64) * 8 <= _KEY_CACHE_BYTES
        ctx.verdict_rows = None  # the old rows go before new ones are built
        ctx.verdict_rows = kept = _CellRows(ctx, props, None) if fits else None
    return kept if kept is not None else _CellRows(ctx, props, cols())


def table_verdicts(
    domain: Domain, tables: np.ndarray, props
) -> dict[str, np.ndarray]:
    """Whether each property in ``props`` holds, for every row of ``tables``.

    ``tables`` is a ``(B, count)`` uint8 block, one table per row; the
    result maps each property to a length-B bool array.  A table breaks a
    pair property exactly when the verdict rows of its cells, ORed over P,
    meet its one-hot row of cells (:class:`_CellRows`; past the cache, over
    the cells these tables use).  The P rows are taken in blocks of about
    ``_BLOCK_CELLS`` gathered bytes, so a large table is split as the
    checkers split it.  Dictatorship holds where some voter gets a rank-0
    (top) alternative at every profile.  No witness is built.  ISP, GSP, PR
    and APR are decided over ordered profile pairs, so asking for any of
    them raises the checkers' pair guard before anything is built.
    """
    ctx = domain._scan_context
    count, k = ctx.count, ctx.k
    pair_props = tuple(p for p in ("isp", "gsp", "pr", "apr") if p in props)
    if pair_props:
        _require_pairs(count)
    # at[b, p]: table b's cell (P, phi_b(P)).
    at = tables + np.arange(0, count * k, k)
    out = {}
    if "dictator" in props:
        tops = (ctx.rank_table == 0)[ctx.order_base[:, None] + ctx.digits]
        out["dictator"] = tops.reshape(ctx.n, -1)[:, at].all(axis=2).any(axis=0)
    if not pair_props:
        return out
    source = _cell_source(ctx, pair_props, lambda: np.unique(at))
    blocks, words = len(tables), source.words
    onehot = source.onehot(at)
    step = max(1, _BLOCK_CELLS // (blocks * len(pair_props) * words * 8))
    # met[b, i]: the OR of table b's rows so far; the AND with its one-hot
    # row distributes over it.
    met = np.zeros((blocks, len(pair_props), words), dtype=np.uint64)
    for lo in range(0, count, step):
        cells = at[:, lo : lo + step].T
        if source.cols is None:
            hits = source.rows(cells)
        else:
            # Each distinct cell of the block is built once.
            used = np.unique(cells)
            hits = source.rows(used)[np.searchsorted(used, cells)]
        met |= np.bitwise_or.reduce(hits, axis=0)
        holds = ~(met & onehot[:, None]).any(axis=2)
        if not holds.any():
            break
    out.update((prop, holds[:, i]) for i, prop in enumerate(pair_props))
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
