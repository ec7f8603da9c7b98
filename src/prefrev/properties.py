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
properties and the table verdicts below.

Table universes ask only for verdicts, on many small tables.
:func:`table_verdicts` decides all five properties for a whole block of
tables and returns one bool per table and property: no scan order, no
``checked`` count and no witness.  It uses the checkers' own encodings,
with the block's tables as one more axis behind the voter axes: ISP by
lines, from the one-hot outcome rows and packed better-than rows of
:attr:`_Ctx.isp_rows`, and GSP, PR and APR by the voter elimination of
:func:`_eliminate` over :meth:`_Ctx.elimination` words, the step
:func:`_pair_scan` takes.  Dictatorship gathers each voter's rank-0 set at
(P, t[P]).  The pass has the checkers' pair guard.
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
from .domains import Domain
from .scf import Profile, Scf, _as_int, class_grid, evaluate, profile_at, profile_strides, tabulate

#: Most ordered profile pairs (P, Q) the GSP, PR and APR checkers and the
#: table verdicts of ISP, GSP, PR and APR admit, on top of the profile guard.
PAIR_GUARD = 2_000_000_000

#: The sections of the pair conditions, one per condition of the module
#: docstring, in the order of :func:`_pair_scan`'s words.  Every section
#: is met where Q_v = P_v; its flags ``(before, after)`` say whether it is
#: also met where y is strictly better than x under P_v, and where x is
#: strictly better than y under Q_v.
_SECTIONS = {"gsp": (True, False), "acc": (False, True), "pr": (True, True)}
#: The sections each pair property fails on.  ISP fails on GSP's where
#: exactly one voter changed.
_FAILS_ON = {"isp": ("gsp",), "gsp": ("gsp",), "pr": ("pr",), "apr": ("gsp", "acc")}

#: The largest block: cells per block of :func:`_boxes`, and bytes of
#: words per pass of :func:`table_verdicts`.  At 2^17 a block's arrays stay
#: below glibc's default mmap threshold (128 KiB), so they are reused from
#: the heap and not page-faulted in again.
_BLOCK_CELLS = 1 << 17
_FIRST_CELLS = 1 << 12
_SERIAL_CELLS = 1 << 14


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
    so a scan builds only what it reads; ``eliminations`` holds the
    :meth:`elimination` words built so far."""

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
        :func:`_failing_sections` and the ISP conflicts of
        ``harness._search``, always behind the pair guard, which bounds its
        size."""
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


def _prepare(scf: Scf):
    """The domain's scan context, and the table and grid of ``scf``."""
    scf = tabulate(scf)
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


def check_isp(scf: Scf) -> PropertyReport:
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
    ctx, table, grid = _prepare(scf)
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
    second-to-last axis, from three bool arrays that broadcast: where Q_v
    = P_v, where y is strictly better than x under P_v, and where x is
    strictly better than y under Q_v (the last two read from
    :attr:`_Ctx.beats`)."""
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


def _eliminate(ctx, sections, values, codes):
    """The words of :meth:`_Ctx.elimination` over ``sections``, seeded from
    the outcomes ``values``, with every voter's axis eliminated; and the
    ``own`` and ``fails_on`` words to read them with.

    ``values`` holds the voters' axes, then any axes of the caller's own
    (the tables of :func:`table_verdicts`).  ``codes[v]`` maps voter v's
    orders to the classes on v's axis, or is None where the axis holds the
    orders.  Voter v's axis is in front when v is eliminated, where a
    reduction along it is fast, and then moves behind the other voters':
    after the last voter the axes are in order again, and the axis of a
    voter of one class is 1 long.
    """
    seed, before, after, own, fails_on = ctx.elimination(sections)
    with_after = any(_SECTIONS[s][1] for s in sections)
    n, words = ctx.n, seed.take(values, axis=0)
    ones = (1,) * (words.ndim - 2)
    for v, m in enumerate(ctx.sizes):
        c, at = len(words), slice(int(ctx.order_base[v]), int(ctx.order_base[v]) + m)
        if c == 1:
            # One class: the step is the identity, T | before & T | T &
            # after = T, and P's digit here is 0.
            words = words.reshape(words.shape[1:n] + (1,) + words.shape[n:])
            continue
        step = before[at].reshape(m, *ones, -1) & np.bitwise_or.reduce(words, axis=0, keepdims=True)
        if with_after:
            after_v = after[at]
            if codes[v] is not None:  # OR the after rows of each class
                after_v = np.zeros((c,) + after_v.shape[1:], after_v.dtype)
                np.bitwise_or.at(after_v, codes[v], after[at])
            step |= np.bitwise_or.reduce(
                words & after_v.reshape(c, *ones, -1), axis=0, keepdims=True
            )
        if codes[v] is not None:  # spread the classes to v's orders
            words = words.take(codes[v], axis=0)
        words |= step
        del step  # so that the copy below is the only other full-size array
        words = words.transpose(*range(1, n), 0, *range(n, words.ndim)).copy()
    return words, own, fails_on


def _pair_scan(scf, wanted):
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
    and one ``take`` spreads T to v's orders (:func:`_eliminate`, which
    :func:`table_verdicts` takes too).  A voter of one class is skipped, as
    the step is then the identity.  After the last voter, P fails a
    property where its bits (phi(P), y), y != phi(P), meet the property's
    sections.  Only the first failing P's row is computed over the profiles
    Q, by :func:`_failing_sections`.
    """
    t0 = time.perf_counter()
    ctx, table, grid = _prepare(scf)
    count = ctx.count
    total = _require_pairs(count)
    sections = _sections(wanted)
    words, own, fails_on = _eliminate(ctx, sections, grid.values, grid.codes)
    # Voters of one class keep their axis of 1: P's digit there is 0.
    read = words.shape[:-1]
    outcomes = table.reshape(ctx.sizes)[tuple(slice(m) for m in read)].reshape(-1)
    words = words.reshape(len(outcomes), -1) & own.take(outcomes, axis=0)
    reports, rows = {}, {}
    for prop in wanted:
        hit = (words & fails_on[prop]).any(axis=1)
        i = int(hit.argmax())
        checked, witness = total, None
        if hit[i]:
            i = sum(s * int(d) for s, d in zip(ctx.strides, np.unravel_index(i, read)))
            if i not in rows:
                rows[i] = _failing_sections(ctx, table, i, sections)
            fails = [sections.index(s) for s in _FAILS_ON[prop]]
            cols = np.flatnonzero(np.bitwise_or.reduce(rows[i][fails]) & (table != table[i]))
            if prop == "gsp":
                j, nth = _gsp_first(ctx, i, cols)
                witness = _gsp_witness(scf, ctx.digits, i, j, table)
            else:
                j = int(cols[0])
                nth = j - (j > i) + 1
                witness = _pr_violation(scf, prop, i, j, table)
            checked = i * (count - 1) + nth
        reports[prop] = PropertyReport(
            prop, witness is None, witness, checked, time.perf_counter() - t0, scf
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


def check_gsp(scf: Scf) -> PropertyReport:
    """No coalition can make every member strictly better off.

    Only deviations where every coalition member changes their report are
    enumerated; a manipulation with a passive member induces one by the
    sub-coalition of active members, so nothing is lost.
    """
    return _pair_scan(scf, ("gsp",))["gsp"]


def check_pr(scf: Scf) -> PropertyReport:
    """Preference reversal: one voter witnesses both weak comparisons and changed."""
    return _pair_scan(scf, ("pr",))["pr"]


def check_apr(scf: Scf) -> PropertyReport:
    """Almost preference reversal: the two sides may be witnessed by different voters."""
    return _pair_scan(scf, ("apr",))["apr"]


def check_pr_apr(scf: Scf) -> dict[str, PropertyReport]:
    """Both PR and APR from a single scan."""
    return _pair_scan(scf, ("pr", "apr"))


# ---------------------------------------------------------------------------
# Dictatorship
# ---------------------------------------------------------------------------


def check_dictator(scf: Scf) -> PropertyReport:
    """Some voter always receives one of their top alternatives.

    Voter v is served at P when phi(P) has rank 0 under v's order at P.  The
    canonical scan takes voters in order, each over every profile until the
    first one where they are not served.  That depends on the others only
    through their classes, so each voter's cells of the grid are walked in
    turn, until the first unserved one, whose least profile is the
    voter's; the first voter with none is the dictator.
    """
    t0 = time.perf_counter()
    ctx, table, grid = _prepare(scf)
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


def table_verdicts(
    domain: Domain, tables: np.ndarray, props
) -> dict[str, np.ndarray]:
    """Whether each property in ``props`` holds, for every row of ``tables``.

    ``tables`` is a ``(B, count)`` uint8 block, one table per row; the
    result maps each property to a length-B bool array.  The pair
    properties are decided by the checkers' own encodings, with the tables
    as one more axis behind the voter axes (:func:`_pair_verdicts`), in
    passes of about ``_BLOCK_CELLS`` bytes at 8 a profile.  Dictatorship
    holds where some voter gets a rank-0 (top) alternative at every
    profile.  No witness is built.  ISP, GSP, PR and APR are decided over
    ordered profile pairs, so asking for any of them raises the checkers'
    pair guard before anything is built.
    """
    ctx = domain._scan_context
    count, k = ctx.count, ctx.k
    pair_props = tuple(p for p in ("isp", "gsp", "pr", "apr") if p in props)
    if pair_props:
        _require_pairs(count)
    out = {}
    if "dictator" in props:
        at = tables + np.arange(0, count * k, k)
        tops = (ctx.rank_table == 0)[ctx.order_base[:, None] + ctx.digits]
        out["dictator"] = tops.reshape(ctx.n, -1)[:, at].all(axis=2).any(axis=0)
    if pair_props:
        step = max(1, _BLOCK_CELLS // (8 * count))
        parts = [
            _pair_verdicts(ctx, tables[lo : lo + step].T, pair_props)
            for lo in range(0, len(tables) or 1, step)
        ]
        out.update((p, np.concatenate([part[p] for part in parts])) for p in pair_props)
    return out


def _pair_verdicts(ctx, values, props):
    """Whether each pair property in ``props`` holds, for each table of the
    ``(count, B)`` outcomes ``values``, a table a column.

    ISP by lines, as :func:`check_isp`: a table fails where, for some
    voter, the OR of its one-hot outcomes along the voter's axis meets the
    packed row of what the voter's order ranks above phi(P).  GSP, PR and
    APR by :func:`_eliminate`, as :func:`_pair_scan`: a table fails a
    property where some P's bits (phi(P), y), y != phi(P), meet the
    property's sections.
    """
    shape = ctx.sizes + values.shape[1:]
    fails = {}
    if "isp" in props:
        better, onehot = ctx.isp_rows
        lines = onehot.take(values, axis=0).reshape(shape + onehot.shape[1:])
        fails["isp"] = np.zeros(values.shape[1], dtype=bool)
        for v, m in enumerate(ctx.sizes):
            if m > 1:  # a voter of one order has no other to report
                keys = (ctx.order_base[v] + ctx.digits[v, :, None]) * ctx.k + values
                met = better.take(keys, axis=0).reshape(lines.shape)
                met &= np.bitwise_or.reduce(lines, axis=v, keepdims=True)
                fails["isp"] |= met.reshape(values.shape + onehot.shape[1:]).any(axis=(0, 2))
    rest = [p for p in props if p != "isp"]
    if rest:
        codes = (None,) * ctx.n
        words, own, fails_on = _eliminate(ctx, _sections(rest), values.reshape(shape), codes)
        words = words.reshape(values.shape + own.shape[1:]) & own.take(values, axis=0)
        for prop in rest:
            fails[prop] = (words & fails_on[prop]).any(axis=(0, 2))
    return {p: ~fails[p] for p in props}


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

CHECKERS: dict[str, Callable[[Scf], PropertyReport]] = {
    "isp": check_isp,
    "gsp": check_gsp,
    "pr": check_pr,
    "apr": check_apr,
    "dictator": check_dictator,
}


def run_checkers(scf: Scf, props) -> dict[str, PropertyReport]:
    """The reports of the ``props`` checkers on ``scf``, by property; PR and
    APR, when both are asked for, come from one :func:`check_pr_apr` pass."""
    reports = check_pr_apr(scf) if {"pr", "apr"} <= set(props) else {}
    for prop in props:
        if prop not in reports:
            reports[prop] = CHECKERS[prop](scf)
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
