"""Decision procedures with witnesses: ISP, GSP, PR, APR, dictatorship.

Every checker scans a fixed canonical order and reports the first failure
it meets; ``checked`` counts the cases up to and including the witness (or
all of them when the property holds).  The checkers read a table through
the grid it was tabulated over (:class:`~prefrev.scf.Grid`): one cell per
combination of the voters' classes, a class being the orders whose
difference the rule does not read.  Classes are numbered by their least
order, so C order over any grid is profile order over the cells' least
profiles, and a table given whole is its own grid with every voter read
whole.  A check therefore costs what the rule reads, not the profile
count, and its answer never depends on the grid or the block size.

ISP takes profiles, then voters, then each voter's other orders: a row of
sum(m_v - 1) single-voter deviations.  It is decided by lines.  Voter v's
line through P is the m_v profiles that differ from P at most in v's
order, and P has a failing deviation of v exactly when some outcome on
that line is ranked above phi(P) by v's order at P.  Both depend on the
other voters only through their classes, so voter v is decided on m_v *
prod(c_u, u != v) cells: v's whole order, the others' classes.  One pass
ORs the grid's one-hot outcome rows along v's axis into the outcome set of
every line; then each cell is one AND of that set with the packed row of
what v's order ranks above phi: tests of ceil(k / 8) bytes instead of
count * sum(m_v - 1) deviations.  The voters' cells are walked in blocks
(:meth:`_Ctx.key_blocks`), one block of each voter in turn; a voter stops
at its first failing cell, or once its next block starts past the least
failing (profile, voter) found.  The witness and ``checked`` come from
the least profile of the first failing cell, whose line alone is walked,
to find its slot.  Dictatorship takes voters, then profiles: a voter
is served where phi(P) has rank 0 under their order.  Each voter's cells
are walked in turn until their first unserved cell, and the first voter
with none is the dictator; no later voter is walked.  Blocks start at
about ``_FIRST_CELLS / n`` cells and double, so an early failure stays
cheap.  No block divides per cell or builds an array over the whole grid;
ISP's line pass alone builds a one-hot copy of the grid and its outcome
sets per voter.

GSP, PR and APR are constraints on ordered profile pairs (P, Q).  With x =
phi(P) and y = phi(Q), voter v *keeps* x if P_v != Q_v and x is weakly best
against y under P_v, and *accepts* y if P_v != Q_v and y is weakly best
against x under Q_v.  Where x != y, GSP fails if no voter keeps x (every
voter who changed strictly gains; they are the coalition, and a passive
member would add nothing), APR fails if no voter keeps x or none accepts y,
and PR fails if no single voter does both.

Each failure is a conjunction over the voters of a condition on (P_v, Q_v)
and the two outcomes alone, one section of ``_SECTIONS`` each: for GSP, Q_v
= P_v or y is strictly better than x under P_v; for "no voter accepts"
(section "acc"), Q_v = P_v or x is strictly better than y under Q_v; for
PR, any of the three.  APR fails where the gsp or the acc section does.  So
:func:`_pair_scan` eliminates one voter axis at a time.  Each profile holds
one word array with a bit per (section, x, y), seeded with the bits of its
own outcome y, and each voter's step ORs and ANDs it along that voter's
axis with masks of the voter's orders, built once per domain
(:meth:`_Ctx.elimination`, reused by a scan over fewer sections).  The
words are seeded from the grid; at voter v, whose axis holds c_v classes,
the ORs run over the classes (the ``after`` rows ORed per class) before
one ``take`` spreads them to v's m_v orders.  A voter of one class, read
for nothing, is skipped: their step is the identity (T | before & T | T &
after = T), and their digit in the first failing P is 0.  After the last
voter, P fails a property where its bits (phi(P), y != phi(P)) meet the
property's sections: about 7 * n numpy operations over at most count rows
of ceil(sections * k**2 / 64) words, however many pairs there are.  Only
the first failing P's row is then computed over the profiles Q, for its
witness.

Row P has count - 1 cases, one per Q != P.  PR and APR take them left to
right.  GSP takes them by coalition size, then coalition, then the members'
new orders in canonical product order, so a case's place in the row is a
key: the coalition's offset plus the mixed-radix index of the new orders,
each member's truthful order skipped.  The key is computed only over the
violations of the first row that has any.  Every scan is serial.  One
guard on the number of ordered pairs, ``PAIR_GUARD``, bounds all three
properties and the verdict rows below.

Table universes ask only for verdicts, on many small tables.
:func:`table_verdicts` decides all five properties for a whole block of
tables and returns one bool per table and property: no scan order, no
``checked`` count and no witness.  It and ``harness._search`` read their
per-cell verdict rows from one source, :class:`_CellRows`, which reads the
checkers' sections.  Voter v's condition depends on P only through (v,
P_v, phi(P)), so the source builds it per such key, not per pair: a key
row per section over the columns (Q, y), bit-packed (``np.packbits``,
little bit order), kept in a cache of at most ``_KEY_CACHE_BYTES``.  A
cell (P, x) ANDs its n keys' rows, ORs the sections its property fails on
and keeps the columns where y != x; ISP, which fails on GSP's section,
keeps those where exactly one voter changed.  The verdict rows of every
cell are kept on the domain's context, or built per call over the cells
the call's tables can have past ``_KEY_CACHE_BYTES``.  Dictatorship
gathers each voter's rank-0 set at (P, t[P]).  The pass has the checkers'
pair guard and takes P rows in blocks of about ``_BLOCK_CELLS`` bytes.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Any, Callable

import numpy as np

from .errors import ArgumentError, ParseError, ResourceGuardError
from .orders import WeakOrder, format_order
from .domains import DEFAULT_PROFILE_GUARD, Domain
from .scf import Profile, Scf, _as_int, class_grid, evaluate, profile_at, profile_strides, tabulate

#: Most ordered profile pairs (P, Q) the GSP, PR and APR checkers and the
#: verdict rows of ISP, GSP, PR and APR admit, on top of the profile guard.
PAIR_GUARD = 2_000_000_000

#: The sections of the pair conditions, one per condition of the module
#: docstring, in the order of :func:`_pair_scan`'s words and of
#: :class:`_CellRows`' key rows.  Every section is met where Q_v = P_v; its
#: flags ``(before, after)`` say whether it is also met where y is strictly
#: better than x under P_v, and where x is strictly better than y under Q_v.
_SECTIONS = {"gsp": (True, False), "acc": (False, True), "pr": (True, True)}
#: The sections each pair property fails on.  ISP fails on GSP's where
#: exactly one voter changed.
_FAILS_ON = {"isp": ("gsp",), "gsp": ("gsp",), "pr": ("pr",), "apr": ("gsp", "acc")}

#: The largest block: packed bytes gathered per block in
#: :func:`table_verdicts` and per block of :meth:`_CellRows.build`.  At
#: 2^17 a block's arrays stay below glibc's default mmap threshold (128
#: KiB), so they are reused from the heap and not page-faulted in again.
_BLOCK_CELLS = 1 << 17
_FIRST_CELLS = 1 << 12
_SERIAL_CELLS = 1 << 14
#: Most bytes of packed key rows a :class:`_CellRows` keeps at once, and of
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
    :class:`_CellRows` of the last properties asked for, or None, and
    ``eliminations`` the :meth:`elimination` words built so far."""

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
        self.eliminations = {}

    @cached_property
    def digits(self):
        """``(n, count)``: each voter's order index at every profile, in the
        smallest unsigned dtype that holds it; the grid of the set sizes,
        with no profile number divided."""
        dtype = np.min_scalar_type(max(self.sizes))
        return np.indices(self.sizes, dtype).reshape(self.n, self.count)

    @cached_property
    def beats(self):
        """``beats[g, x, y]``: y is strictly better than x under global order
        g.  Every pair condition is read from it, by :meth:`elimination`,
        :func:`_failing_sections` and :class:`_CellRows`, always behind the
        pair guard, which bounds its size."""
        return self.rank_table[:, None, :] < self.rank_table[:, :, None]

    def elimination(self, sections):
        """The words :func:`_pair_scan` eliminates with over ``sections``,
        built once per domain: ``(seed, before, after, own, fails_on)``,
        rows of :func:`_pack_words` in which bit ``s * k * k + x * k + y``
        stands for (section s, x, y) over the sections the words hold.
        Words already built for a superset of ``sections`` are reused.

        ``seed[y]`` sets (s, x, y) for every s and x.  ``before[g]`` sets
        the bits where y is strictly better than x under global order g, in
        the gsp and pr sections; ``after[g]`` those where x is strictly
        better than y under g, in the acc and pr sections.  ``own[x]`` sets
        (s, x, y) for every s and y != x, and ``fails_on[p]`` every bit of
        the sections property p fails on."""
        got = next((e for held, e in self.eliminations.items() if set(sections) <= set(held)), None)
        if got is None:
            k, g, shape = self.k, len(self.rank_table), (len(sections), self.k, self.k)
            eye = np.eye(k, dtype=bool)
            beats = self.beats[:, None]
            on_before, on_after = np.array([_SECTIONS[s] for s in sections]).T[:, :, None, None]
            fails = [[s in on for s in sections] for on in _FAILS_ON.values()]
            words = _pack_words(np.concatenate([
                np.broadcast_to(eye[:, None, None], (k,) + shape),
                beats & on_before,
                beats.transpose(0, 1, 3, 2) & on_after,
                np.broadcast_to((eye[:, :, None] & ~eye)[:, None], (k,) + shape),
                np.broadcast_to(np.array(fails)[:, :, None, None], (len(fails),) + shape),
            ]))
            cuts = list(itertools.accumulate((0, k, g, g, k, len(fails))))
            *got, fails = (words[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
            got = self.eliminations[sections] = (*got, dict(zip(_FAILS_ON, fails)))
        return got

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

    def key_blocks(self, grid, v, present=None, past=None):
        """``(lo, keys, sets)`` for blocks of voter v's cells of ``grid``
        (:class:`~prefrev.scf.Grid`), in C order from cell lo: v's orders
        on axis v, and each other voter's classes, or orders where they are
        read whole.  Viewed as ``(A, m_v, B)``, the cells before and after
        v's axis, each block is a box of :func:`_boxes` and ``keys`` has
        its shape: ``g * k + phi`` at each cell, g being v's global order
        there, the flat place of phi's rank under g in ``rank_table`` and
        of its row in ISP's ``better``.  ``sets`` is ``present[a, b]`` at
        each cell's line, shaped to broadcast against ``keys``, or None
        without ``present``.  The walk ends before a block whose first cell
        ``past`` accepts.  Nothing is divided per cell, and no block builds
        an array over the whole grid."""
        values, codes, m = grid.values, grid.codes[v], self.sizes[v]
        outcomes = values.reshape(math.prod(values.shape[:v]), values.shape[v], -1)
        a_size, _, b_size = outcomes.shape
        # Keys less phi, int32 unless they need more.
        index = np.promote_types(np.int32, np.min_scalar_type(self.rank_table.size))
        offsets = ((self.order_base[v] + np.arange(m)) * self.k).astype(index)
        for a0, a1, d0, d1, b0, b1 in _boxes(a_size, m, b_size, self.n):
            lo = (a0 * m + d0) * b_size + b0
            if past is not None and past(lo):
                return
            rows = outcomes[a0:a1, :, b0:b1]
            rows = rows[:, d0:d1] if codes is None else rows.take(codes[d0:d1], axis=1)
            sets = None if present is None else present[a0:a1, None, b0:b1]
            yield lo, offsets[d0:d1, None] + rows, sets

    def least_profile(self, grid, v, cell):
        """The least profile of voter v's cell ``cell`` of ``grid`` (as
        :meth:`key_blocks` numbers them): each other voter's least order of
        their class, where they are keyed."""
        profile = 0
        for u in range(self.n - 1, -1, -1):
            m = self.sizes[u] if u == v else grid.values.shape[u]
            cell, d = divmod(cell, m)
            least = grid.least[u]
            profile += self.strides[u] * (d if least is None or u == v else int(least[d]))
        return profile

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


def _pack_words(bits):
    """A bool array ``(rows, s, k, k)`` as rows of words over the bits of
    each row: one word of the smallest unsigned type that holds them all,
    or as many uint64 words as it takes; bit b is bit b % w of word b // w,
    w bits a word."""
    bits = bits.reshape(len(bits), -1)
    size = bits.shape[-1]
    dtype = next((t for t in (np.uint8, np.uint16, np.uint32) if size <= 8 * t().itemsize), np.uint64)
    width = 8 * dtype().itemsize
    padded = np.zeros(bits.shape[:-1] + (-(-size // width) * width,), bool)
    padded[..., :size] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view(dtype)


def _prepare(scf: Scf, max_profiles: int):
    """The domain's scan context, and the table and grid of ``scf``."""
    scf = tabulate(scf, max_profiles)
    return scf.domain._scan_context, scf.table, class_grid(scf)


def _boxes(a_size, m, b_size, voters):
    """``(a0, a1, d0, d1, b0, b1)``: the blocks of consecutive cells of an
    ``(a_size, m, b_size)`` array in C order, each a box: whole rows of a,
    part of one a's rows of d, or part of one (a, d)'s row of b.  The first
    block holds about ``_FIRST_CELLS / voters`` cells, so an early failure
    stays cheap when ``voters`` walks take turns, and each next one twice as
    many, up to ``_SERIAL_CELLS`` (never past ``_BLOCK_CELLS``), where
    ISP's and dictatorship's temporaries stay in cache and are not
    page-faulted."""
    cells = max(1, min(_FIRST_CELLS, _BLOCK_CELLS) // voters)
    most = max(1, min(_SERIAL_CELLS, _BLOCK_CELLS))
    a = d = b = 0
    while a < a_size:
        if d == b == 0 and cells >= m * b_size:
            box = (a, min(a_size, a + cells // (m * b_size)), 0, m, 0, b_size)
        elif b == 0 and cells >= b_size:
            box = (a, a + 1, d, min(m, d + cells // b_size), 0, b_size)
        else:
            box = (a, a + 1, d, d + 1, b, min(b_size, b + cells))
        yield box
        a, d, b = box[1] - 1, box[3] - 1, box[5]
        if b == b_size:
            b, d = 0, d + 1
        if d == m:
            d, a = 0, a + 1
        cells = min(2 * cells, most)


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
    the alternatives d ranks above phi(P): one AND of packed rows per cell
    of v's grid, v's order against the others' classes.  Only the first
    failing line is walked for its slot.
    """
    t0 = time.perf_counter()
    ctx, table, grid = _prepare(scf, max_profiles)
    better, onehot = ctx.isp_rows
    # present[a, b]: the outcomes on voter v's line through the cells
    # (a, ., b), those before and after v's axis: an OR along it.
    cube = onehot.take(grid.values, axis=0)
    shape = grid.values.shape
    best = (ctx.count, ctx.n)  # the least failing (profile, voter) found
    walks = {}
    for v in range(ctx.n):
        present = np.bitwise_or.reduce(
            cube.reshape(math.prod(shape[:v]), shape[v], -1, cube.shape[-1]), axis=1
        )
        walks[v] = ctx.key_blocks(grid, v, present, past=lambda cell, v=v: (
            best[0] < ctx.count and (ctx.least_profile(grid, v, cell), v) > best
        ))
    del cube
    while walks:
        for v, blocks in list(walks.items()):
            block = next(blocks, None)
            if block is not None:
                lo, keys, sets = block
                fails = (sets & better.take(keys, axis=0)).any(axis=-1)
                r = int(fails.argmax())
                if not fails.flat[r]:
                    continue
                best = min(best, (ctx.least_profile(grid, v, lo + r), v))
            del walks[v]
    per_row = sum(ctx.sizes) - ctx.n
    checked = ctx.count * per_row
    witness = None
    i, v = best
    if i < ctx.count:
        d = i // ctx.strides[v] % ctx.sizes[v]
        ranks = ctx.rank_table[ctx.order_base[v] + d]
        line = table[i + (np.arange(ctx.sizes[v]) - d) * ctx.strides[v]]
        e = int((ranks[line] < ranks[table[i]]).argmax())
        witness = ManipulationWitness(
            (v,), profile_at(scf.domain, i), (scf.domain.feasible[v][e],),
            int(table[i]), int(line[e]),
        )
        checked = i * per_row + sum(ctx.sizes[:v]) - v + e - (e > d) + 1
    return PropertyReport(
        "isp", witness is None, witness, checked, time.perf_counter() - t0, scf
    )


# ---------------------------------------------------------------------------
# GSP / PR / APR (one pair-constraint pass)
# ---------------------------------------------------------------------------


def _sections(props):
    """The sections the properties ``props`` fail on, in ``_SECTIONS`` order."""
    return tuple(s for s in _SECTIONS if any(s in _FAILS_ON[p] for p in props))


def _meets(same, before, after, sections):
    """Where a voter meets each condition of ``sections``, stacked on a new
    second-to-last axis, from three arrays that broadcast, bool or packed
    bits alike: where Q_v = P_v, where y is strictly better than x under
    P_v, and where x is strictly better than y under Q_v (the last two read
    from :attr:`_Ctx.beats`)."""
    rows = []
    for section in sections:
        on_before, on_after = _SECTIONS[section]
        met = same | before if on_before else same
        rows.append(met | after if on_after else met)
    return np.stack(rows, axis=-2)


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


def _pair_scan(scf, wanted, max_profiles):
    """GSP, PR and APR decided by eliminating one voter axis at a time.

    Over ``sections``, the ones the ``wanted`` properties fail on, each
    cell of the grid holds words of :meth:`_Ctx.elimination`, seeded with
    the bits (s, x, phi(Q)) of its own outcome.  Once voters 0..v are
    eliminated, the words at R hold (s, x, y) where some Q with phi(Q) = y,
    Q_u = R_u or in R_u's class for every u > v, meets section s's
    condition against P_u = R_u at every u <= v.  A voter's condition is
    Q_v = P_v, or ``before`` at P_v, or ``after`` at Q_v, so eliminating
    v's axis is ``T | (before[d] & OR_e T[e]) | OR_e (T[e] & after[e])``
    along it, e over v's orders, where T[e] is the words at e's class: the
    ORs run over the classes, with the ``after`` rows of each class ORed,
    and one ``take`` spreads T to v's orders.  A voter of one class is
    skipped, as the step is then the identity.  After the last voter, P
    fails a property where its bits (phi(P), y), y != phi(P), meet the
    property's sections.  Only the first failing P's row is computed over
    the profiles Q, by :func:`_failing_sections`.
    """
    t0 = time.perf_counter()
    ctx, table, grid = _prepare(scf, max_profiles)
    count = ctx.count
    total = _require_pairs(count)
    sections = _sections(wanted)
    seed, before, after, own, fails_on = ctx.elimination(sections)
    with_after = any(_SECTIONS[s][1] for s in sections)
    words = seed.take(grid.values, axis=0)
    # Voter v's axis is in front when v is eliminated, where a reduction
    # along it is fast, and then moves to the back: after the last voter
    # the axes are in order again.
    to_back, ones = (*range(1, ctx.n), 0, ctx.n), (1,) * (ctx.n - 1)
    for v, m in enumerate(ctx.sizes):
        c, codes = len(words), grid.codes[v]
        if c == 1:
            # One class: the step is the identity, T | before & T | T &
            # after = T, and P's digit here is 0.
            words = words.reshape(words.shape[1:-1] + words.shape[:1] + words.shape[-1:])
            continue
        at = slice(int(ctx.order_base[v]), int(ctx.order_base[v]) + m)
        step = before[at].reshape(m, *ones, -1) & np.bitwise_or.reduce(words, axis=0, keepdims=True)
        if with_after:
            after_v = after[at]
            if codes is not None:  # OR the after rows of each class
                after_v = np.zeros((c,) + after_v.shape[1:], after_v.dtype)
                np.bitwise_or.at(after_v, codes, after[at])
            step |= np.bitwise_or.reduce(words & after_v.reshape(c, *ones, -1), axis=0, keepdims=True)
        if codes is not None:  # spread the classes to v's orders
            words = words.take(codes, axis=0)
        words |= step
        del step  # so that the copy below is the only other full-size array
        words = words.transpose(to_back).copy()
    # Voters of one class keep their axis of 1: P's digit there is 0.
    read = words.shape[:-1]
    outcomes = table.reshape(ctx.sizes)[tuple(slice(m) for m in read)].reshape(-1)
    words = words.reshape(len(outcomes), -1) & own.take(outcomes, axis=0)
    results: dict[str, tuple[int, tuple[int, int] | None]] = {}
    rows = {}
    for prop in wanted:
        hit = (words & fails_on[prop]).any(axis=1)
        i = int(hit.argmax())
        if not hit[i]:
            results[prop] = (total, None)
            continue
        i = sum(s * int(d) for s, d in zip(ctx.strides, np.unravel_index(i, read)))
        if i not in rows:
            rows[i] = _failing_sections(ctx, table, i, sections)
        fails = [sections.index(s) for s in _FAILS_ON[prop]]
        cols = np.flatnonzero(np.bitwise_or.reduce(rows[i][fails]) & (table != table[i]))
        if prop == "gsp":
            j, nth = _gsp_first(ctx, i, cols)
        else:
            j = int(cols[0])
            nth = j - (j > i) + 1
        results[prop] = (i * (count - 1) + nth, (i, j))

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


def _failing_sections(ctx, table, i, sections):
    """``(len(sections), count)``: whether every voter meets each section's
    condition at the pair (P, Q), per profile Q, P being profile i.  The
    conditions at each global order as Q_v and each y = phi(Q) are one
    ``(orders * k)`` table with a bit per section; voter v's part is
    gathered at ``digits[v] * k + phi``."""
    x, k, base = table[i], ctx.k, ctx.order_base
    bit = 1 << np.arange(len(sections), dtype=np.uint8)
    at_p = (base + ctx.digits[:, i])[ctx.voter_of]  # P_v, for each order of v
    same = (np.arange(len(at_p)) == at_p)[:, None]
    bits = (bit @ _meets(same, ctx.beats[at_p, x], ctx.beats[:, :, x], sections)).reshape(-1)
    meets = bit.sum(dtype=np.uint8)
    for v, m in enumerate(ctx.sizes):
        at = ctx.digits[v].astype(np.min_scalar_type(m * k)) * k + table
        meets = meets & bits[base[v] * k : (base[v] + m) * k].take(at)
    return meets & bit[:, None] != 0


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
    """Both PR and APR from a single scan."""
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
    first one where they are not served.  That depends on the others only
    through their classes, so each voter's cells of the grid are walked in
    turn, until the first unserved one, whose least profile is the
    voter's; the first voter with none is the dictator.
    """
    t0 = time.perf_counter()
    ctx, table, grid = _prepare(scf, max_profiles)
    ranks = ctx.rank_table.reshape(-1)
    checked = 0
    counters: list[DictatorCounter] = []
    dictator = None
    for v in range(ctx.n):
        for lo, keys, _ in ctx.key_blocks(grid, v):
            unserved = ranks[keys] != 0
            r = int(unserved.argmax())
            if unserved.flat[r]:
                i = ctx.least_profile(grid, v, lo + r)
                checked += i + 1
                counters.append(DictatorCounter(v, profile_at(scf.domain, i), int(table[i])))
                break
        else:
            checked += ctx.count
            dictator = v
            break
    holds = dictator is not None
    witness = dictator if holds else tuple(counters)
    return PropertyReport(
        "dictator", holds, witness, checked, time.perf_counter() - t0, scf
    )


# ---------------------------------------------------------------------------
# Verdict blocks (table universes)
# ---------------------------------------------------------------------------


class _CellRows:
    """The one source of verdict rows, made by :meth:`of`.

    A pair's violation depends on the table only through x = phi(P) and
    y = phi(Q), so with cells (Q, y) as its columns a source gives, per
    cell (P, x), the packed row of the cells that break a property against
    it: bit j is set where the pair (P, Q) breaks it if phi(P) = x and
    phi(Q) = y, (Q, y) being column j; the padding bits are 0.  A table t
    breaks the property exactly when its rows at the cells (P, t[P]), ORed
    over P, meet t's own one-hot row {(Q, t[Q])} over the same columns:
    count * ``words`` words gathered per table.

    With ``cols`` None the columns are every cell, and a throwaway source
    over them builds the rows of every cell at once; this one keeps those
    rows alone (``kept``).  Otherwise the columns are ``cols``, the sorted
    cells a caller's tables can have, and :meth:`rows` builds the rows
    asked for at each call from key rows.  Voter v's condition depends on P
    only through the key (v, P_v, x): key (v, d, x), global id
    ``(order_base[v] + d) * k + x``, has one packed row per section of
    ``sections`` over the columns, set where Q_v = d or v meets the
    section's condition (:func:`_meets`) at x and y, built the first time a
    call needs it.  ``slot[id]`` is its place in ``key_rows`` or -1.
    :meth:`build` takes at most ``most`` cells at a time, about
    ``_BLOCK_CELLS`` bytes of n key rows each; ``key_rows`` has room for
    that many cells' keys, or ``_KEY_CACHE_BYTES`` of them if more, and
    never for more keys than there are, and its pages become resident only
    as rows are written.  When a call needs more keys than are free, every
    key row is dropped and the call's own are built again.  What depends
    only on the domain's orders (``beats``, ``voter_of``) is the context's.
    """

    def __init__(self, ctx, props, cols):
        self.props, self.cols = props, cols
        cells = np.arange(ctx.count * ctx.k) if cols is None else cols
        self.words = -(-len(cells) // 64)
        if cols is None:
            self.kept = _CellRows(ctx, props, cells).build(cells)
            return
        self.ctx, self.sections = ctx, _sections(props)
        q, self.y = np.divmod(cols, ctx.k)
        self.on_q = ctx.digits[:, q]
        self.width = (len(cols) + 7) // 8
        # Packed over the columns: y != x, for each alternative x, and
        # after[x, v], x strictly better than y under Q_v.
        self.neq = np.packbits(self.y != np.arange(ctx.k)[:, None], axis=1, bitorder="little")
        x_first = ctx.beats.transpose(2, 0, 1).reshape(ctx.k, -1)  # [x, g * k + y]
        at_q = (ctx.order_base[:, None] + self.on_q) * ctx.k + self.y
        self.after = np.packbits(x_first.take(at_q, axis=1), axis=2, bitorder="little")
        row_bytes = self.width * len(self.sections)
        self.most = max(1, _BLOCK_CELLS // (ctx.n * row_bytes))
        keys = len(ctx.rank_table) * ctx.k
        limit = min(keys, max(ctx.n * self.most, _KEY_CACHE_BYTES // row_bytes))
        self.slot = np.full(keys, -1, dtype=np.int64)
        self.key_rows = np.empty((limit, len(self.sections), self.width), dtype=np.uint8)
        self.used = 0

    @classmethod
    def of(cls, ctx, props, cols) -> _CellRows:
        """The verdict-row source of the pair properties ``props`` on
        ``ctx``'s domain.  Rows of every cell that fit in
        ``_KEY_CACHE_BYTES`` are kept on the context (``verdict_rows``) for
        the last ``props`` asked for; past that, a source over ``cols()``,
        the sorted cells the caller's tables can have, serves the one
        call."""
        kept = ctx.verdict_rows
        if kept is None or kept.props != props:
            size = ctx.count * ctx.k
            fits = size * len(props) * -(-size // 64) * 8 <= _KEY_CACHE_BYTES
            ctx.verdict_rows = None  # the old rows go before new ones are built
            ctx.verdict_rows = kept = cls(ctx, props, None) if fits else None
        return kept if kept is not None else cls(ctx, props, cols())

    def rows(self, at):
        """The ``(*at.shape, len(props), words)`` uint64 verdict rows of the
        flat (P, x) cells ``at`` (``P * k + x``), of any shape.  Unless they
        are kept, each distinct cell's rows are built once a call."""
        if self.cols is None:
            return self.kept[at]
        used, inverse = np.unique(at, return_inverse=True)
        return self.build(used)[inverse.reshape(at.shape)]

    def onehot(self, at):
        """Packed uint64 rows over the columns, row i with the cells ``at[i]``."""
        place = at if self.cols is None else np.searchsorted(self.cols, at)
        bits = np.zeros((len(at), self.words * 64), dtype=bool)
        bits[np.arange(len(at))[:, None], place] = True
        return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)

    def build(self, cells):
        """The uint64 rows of the distinct flat cells ``cells``, as
        :meth:`rows` gives them, ``most`` cells at a time.

        Each cell (P, x) ANDs the rows of its n keys (v, P_v, x) per
        section; a property ORs its sections and keeps the columns where y
        != x or, for ISP, where some voter changed and no two did, from the
        :attr:`moved` rows.  The padding bits of those masks are 0, so no
        row sets one.
        """
        ctx, k = self.ctx, self.ctx.k
        out = np.zeros((len(cells), len(self.props), self.words * 8), dtype=np.uint8)
        for lo in range(0, len(cells), self.most):
            p, x = np.divmod(cells[lo : lo + self.most], k)
            at = ctx.order_base[:, None] + ctx.digits[:, p]
            met = np.bitwise_and.reduce(self.key_rows[self.slots(at * k + x)], axis=0)
            met = dict(zip(self.sections, met.transpose(1, 0, 2)))
            neq = self.neq[x]
            for i, prop in enumerate(self.props):
                mask = neq
                if prop == "isp":
                    one = two = 0
                    for moved in self.moved[at]:
                        two = two | one & moved
                        one = one | moved
                    mask = one & ~two
                fails = reduce(np.bitwise_or, map(met.get, _FAILS_ON[prop]))
                out[lo : lo + self.most, i, : self.width] = fails & mask
        return out.view(np.uint64)

    def slots(self, ids):
        """The slots of the key ids ``ids`` (any shape), once every one is
        built."""
        slots = self.slot[ids]
        if slots.min() < 0:
            missing = np.unique(ids[slots < 0])
            if self.used + len(missing) > len(self.key_rows):
                self.slot[:] = -1
                self.used, missing = 0, np.unique(ids)
            # Build a few keys at a time, so the unpacked temporaries stay
            # within a block's size.
            step = max(1, _BLOCK_CELLS // self.on_q.shape[1])
            for at in range(0, len(missing), step):
                part = missing[at : at + step]
                self.key_rows[self.used : self.used + len(part)] = self.build_keys(part)
                self.slot[part] = np.arange(self.used, self.used + len(part))
                self.used += len(part)
            slots = self.slot[ids]
        return slots

    @cached_property
    def moved(self):
        """For each global order g, the packed row of the columns where g's
        voter reports another order."""
        voter = self.ctx.voter_of
        d = (np.arange(len(voter)) - self.ctx.order_base[voter]).astype(self.on_q.dtype)
        return np.packbits(self.on_q[voter] != d[:, None], axis=1, bitorder="little")

    def build_keys(self, ids):
        """The packed rows of the key ids ``ids``, shaped like
        ``key_rows``; their padding bits may be set, and :meth:`build`
        clears them."""
        ctx = self.ctx
        order, x = np.divmod(ids, ctx.k)
        before = np.packbits(ctx.beats[order, x].take(self.y, axis=1), axis=1, bitorder="little")
        after = self.after[x, ctx.voter_of[order]]
        return _meets(~self.moved[order], before, after, self.sections)


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
    source = _CellRows.of(ctx, pair_props, lambda: np.unique(at))
    blocks, words = len(tables), source.words
    onehot = source.onehot(at)
    step = max(1, _BLOCK_CELLS // (blocks * len(pair_props) * words * 8))
    # met[b, i]: the OR of table b's rows so far; the AND with its one-hot
    # row distributes over it.
    met = np.zeros((blocks, len(pair_props), words), dtype=np.uint64)
    for lo in range(0, count, step):
        met |= np.bitwise_or.reduce(source.rows(at[:, lo : lo + step].T), axis=0)
        holds = ~(met & onehot[:, None]).any(axis=2)
        if not holds.any():
            break
    out.update((prop, holds[:, i]) for i, prop in enumerate(pair_props))
    return out


# ---------------------------------------------------------------------------
# Witness re-validation (independent of the checker internals)
# ---------------------------------------------------------------------------


#: The witness types each property reports, as files name them.
WITNESS_TYPES = {
    "isp": ("manipulation",),
    "gsp": ("manipulation",),
    "pr": ("pr-violation",),
    "apr": ("pr-violation",),
    "dictator": ("dictator", "dictator-failure"),
}


def _witness_type(witness) -> str:
    """A witness's type, as files name it; else its class name."""
    for name, cls in (
        ("manipulation", ManipulationWitness), ("pr-violation", PrViolation),
        ("dictator", int), ("dictator-failure", tuple),
    ):
        if isinstance(witness, cls):
            return name
    return type(witness).__name__


def revalidate_witness(scf: Scf, prop: str, witness: Any) -> bool:
    """Recompute a witness with plain :func:`evaluate` calls; a dictator
    against the rule's table and the voter's top sets, in one pass.  A PR
    violation re-validates only under the property of its own ``kind``.
    A witness of a type the property does not report is an ArgumentError."""
    if prop not in WITNESS_TYPES:
        raise ArgumentError(f"unknown property {prop!r}")
    kind = _witness_type(witness)
    if kind not in WITNESS_TYPES[prop]:
        raise ArgumentError(f"a {kind!r} witness does not stand for property {prop!r}")
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
        if v.kind != prop:
            return False
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
        if prop == "pr":
            return not any(
                r.weak_pref_p and r.weak_pref_q and r.changed for r in v.analysis
            )
        return not (
            any(r.weak_pref_p and r.changed for r in v.analysis)
            and any(r.weak_pref_q and r.changed for r in v.analysis)
        )
    if kind == "dictator":
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
    kind = _witness_type(witness)
    if kind == "manipulation":
        return {
            "type": kind,
            "coalition": [v + 1 for v in witness.coalition],
            "truthful": _profile_strs(witness.truthful, alts),
            "deviation": {
                str(v + 1): format_order(order, alts)
                for v, order in zip(witness.coalition, witness.deviation)
            },
            "outcome_true": alts.names[witness.outcome_true],
            "outcome_dev": alts.names[witness.outcome_dev],
        }
    if kind == "pr-violation":
        return {
            "type": kind,
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
    if kind == "dictator":
        return {"type": kind, "voter": witness + 1}
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

    Voter numbers are 1-based integers: one of another type is a TypeError
    (:func:`~prefrev.scf._as_int`), and one outside 1..n is a ParseError, as
    are a PR analysis without n entries or whose entry i does not name
    voter i + 1, and a PR kind other than "pr" and "apr".
    """
    from .orders import parse_order

    alts = scf.domain.alts
    n = scf.domain.n

    def _profile(items):
        return Profile(tuple(parse_order(text, alts) for text in items))

    def _voter(number):
        voter = _as_int(number, "a witness voter")
        if not 1 <= voter <= n:
            raise ParseError(f"witness names voter {number!r}; voters are 1..{n}")
        return voter - 1

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
        if data["kind"] not in ("pr", "apr"):
            raise ParseError(f"PR violation kind {data['kind']!r} is neither 'pr' nor 'apr'")
        p = _profile(data["profile_p"])
        q = _profile(data["profile_q"])
        analysis = tuple(
            VoterAnalysis(
                _voter(rec["voter"]),
                rec["weak_pref_p"], rec["weak_pref_q"], rec["changed"],
            )
            for rec in data["analysis"]
        )
        if len(analysis) != n:
            raise ParseError(f"PR analysis needs {n} entries, one per voter; it has {len(analysis)}")
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
