"""Feasible preference sets, resolvent constructions, and domain completeness.

A *resolvent* is the pivotal object: an order W resolves a P-indifference at
``a`` when it pushes strictly below ``a`` everything that P ranks weakly
below ``a``.  A feasible set is *complete* when, for every pair of member
orders (P, Q) and every admissible ordered pair of alternatives (a, b), some
member simultaneously resolves the P-indifference at ``a`` and the
Q-indifference at ``b``.  Completeness is what lets individual
strategy-proofness propagate to the preference-reversal property, so this
module provides both the decision procedure and constructors for the
standard complete families.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ArgumentError, ConstructionError, ParseError, ResourceGuardError
from .orders import (
    AlternativeSet,
    Axis,
    WeakOrder,
    enumerate_single_peaked,
    enumerate_strict_orders,
    enumerate_weak_orders,
    format_order,
    is_single_peaked,
    parse_alternatives,
    parse_order,
    weak_order_from_levels,
)

#: Hard ceiling on materialized profile spaces (tables, exhaustive scans).
DEFAULT_PROFILE_GUARD = 10_000_000

#: Ceiling on the byte ANDs performed by :func:`is_complete`: each of the
#: m^2 * k^2 cells (p, q, a, b) of an m-order set ANDs two bit rows over the
#: members, ceil(m / 8) bytes each.
COMPLETENESS_GUARD = 1_000_000_000

#: uint64 words one block of the completeness pass ANDs (1 MB).
_BLOCK_WORDS = 1 << 17


@dataclass(frozen=True)
class FeasibleSet:
    """A voter's finite set of admissible orders, deduplicated and sorted.

    ``preset`` keeps the exact shorthand the set was built from, when there
    is one, so files can round-trip; an explicit list has None.  Equality
    ignores it: a preset and an explicit list of its orders are one set.
    """

    alts: AlternativeSet
    orders: tuple[WeakOrder, ...]
    preset: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.orders:
            raise ConstructionError("feasible set must be non-empty")
        k = self.alts.k
        for order in self.orders:
            if order.k != k:
                raise ConstructionError(
                    f"order on {order.k} alternatives in a k={k} feasible set"
                )
        ranks = [order.ranks for order in self.orders]
        if any(a >= b for a, b in zip(ranks, ranks[1:])):
            raise ConstructionError(
                "orders must be strictly ascending in canonical (rank-vector) order"
            )

    def __len__(self) -> int:
        return len(self.orders)

    def __iter__(self) -> Iterator[WeakOrder]:
        return iter(self.orders)

    def __getitem__(self, i: int) -> WeakOrder:
        return self.orders[i]

    def __contains__(self, order: WeakOrder) -> bool:
        return order in self._positions

    @cached_property
    def _positions(self) -> dict[WeakOrder, int]:
        return {order: i for i, order in enumerate(self.orders)}

    def index_of(self, order: WeakOrder) -> int | None:
        """Canonical position of ``order`` in the set, or None."""
        return self._positions.get(order)

    @cached_property
    def rank_rows(self) -> np.ndarray:
        """``rank_rows[d, x]``: the rank of x under order d, read-only int8."""
        rows = np.array([order.ranks for order in self.orders], dtype=np.int8)
        rows.setflags(write=False)
        return rows

    @classmethod
    def explicit(
        cls, alts: AlternativeSet, orders: Iterable[WeakOrder]
    ) -> "FeasibleSet":
        return cls(alts, tuple(sorted(set(orders), key=lambda o: o.ranks)))

    @classmethod
    def universal_weak(cls, alts: AlternativeSet) -> "FeasibleSet":
        orders = tuple(enumerate_weak_orders(alts.k))
        return cls(alts, orders, preset="@universal-weak")

    @classmethod
    def universal_strict(cls, alts: AlternativeSet) -> "FeasibleSet":
        orders = tuple(enumerate_strict_orders(alts.k))
        return cls(alts, orders, preset="@universal-strict")

    @classmethod
    def single_peaked(
        cls, alts: AlternativeSet, axis: Axis | None = None, strict: bool = False
    ) -> "FeasibleSet":
        if axis is None:
            axis = Axis.identity(alts.k)
        if axis.k != alts.k:
            raise ConstructionError("axis length does not match alternative count")
        orders = tuple(enumerate_single_peaked(alts.k, axis, strict=strict))
        name = "@single-peaked-strict" if strict else "@single-peaked"
        if axis != Axis.identity(alts.k):
            name += "(axis=" + ",".join(alts.names[x] for x in axis.order) + ")"
        return cls(alts, orders, preset=name)


def with_w_ab_completion(base: FeasibleSet) -> FeasibleSet:
    """Extend a set with the canonical two-top orders for every ordered pair.

    The result is always complete: for any admissible (P, Q, a, b) one of
    the added orders is the required resolvent.
    """
    k = base.alts.k
    extra = [
        make_w_ab(a, b, k) for a in range(k) for b in range(k) if a != b
    ]
    return FeasibleSet.explicit(base.alts, list(base.orders) + extra)


@dataclass(frozen=True)
class Domain:
    """Per-voter feasible sets; the profile space is their cartesian product."""

    feasible: tuple[FeasibleSet, ...]

    def __post_init__(self):
        if not self.feasible:
            raise ConstructionError("domain needs at least one voter")
        alts = self.feasible[0].alts
        for fs in self.feasible:
            if fs.alts != alts:
                raise ConstructionError("all voters must share one alternative set")

    @property
    def n(self) -> int:
        return len(self.feasible)

    @property
    def alts(self) -> AlternativeSet:
        return self.feasible[0].alts

    @property
    def k(self) -> int:
        return self.alts.k

    @classmethod
    def shared(cls, fs: FeasibleSet, n: int) -> "Domain":
        if n < 1:
            raise ConstructionError("domain needs at least one voter")
        return cls((fs,) * n)

    @cached_property
    def distinct(self) -> tuple[tuple[FeasibleSet, ...], tuple[int, ...]]:
        """``(sets, number)``: the distinct feasible sets in first-voter
        order, voter v's being ``sets[number[v]]``.  Compared by equality,
        identity first, never hashed: a set's hash walks every order."""
        sets: list[FeasibleSet] = []
        for fs in self.feasible:
            if fs not in sets:
                sets.append(fs)
        return tuple(sets), tuple(sets.index(fs) for fs in self.feasible)

    def is_shared(self) -> bool:
        return len(self.distinct[0]) == 1

    def profile_count(self) -> int:
        count = 1
        for fs in self.feasible:
            count *= len(fs)
        return count

    @cached_property
    def _scan_context(self):
        """The property checkers' scan data, built on first use and kept
        exactly as long as this domain."""
        from .properties import _Ctx

        return _Ctx(self)

    def require_enumerable(self, guard: int = DEFAULT_PROFILE_GUARD) -> int:
        count = self.profile_count()
        if count > guard:
            raise ResourceGuardError(
                f"profile space has {count} profiles, guard is {guard}"
            )
        return count


# ---------------------------------------------------------------------------
# Resolvents
# ---------------------------------------------------------------------------


def resolves_indifference_at(w: WeakOrder, p: WeakOrder, a: int) -> bool:
    """True iff every x != a with a weakly above x in p is strictly below a in w."""
    pa, wa = p.ranks[a], w.ranks[a]
    for x in range(p.k):
        if x != a and pa <= p.ranks[x] and wa >= w.ranks[x]:
            return False
    return True


def is_resolvent(w: WeakOrder, a: int, b: int, p: WeakOrder, q: WeakOrder) -> bool:
    """True iff w resolves the p-indifference at a and the q-indifference at b."""
    if a == b:
        raise ArgumentError("resolvent pair needs two distinct alternatives")
    return resolves_indifference_at(w, p, a) and resolves_indifference_at(w, q, b)


def admissible_pair(p: WeakOrder, q: WeakOrder, a: int, b: int) -> bool:
    """A resolvent can exist only if not (a weakly above b in p and b weakly above a in q)."""
    return not (p.weakly_prefers(a, b) and q.weakly_prefers(b, a))


def make_w_ab(a: int, b: int, k: int) -> WeakOrder:
    """The canonical order a > b > everything else tied at the bottom."""
    if a == b:
        raise ArgumentError("make_w_ab needs two distinct alternatives")
    ranks = [2] * k
    ranks[a] = 0
    ranks[b] = 1
    return WeakOrder(tuple(ranks))


def make_w_prime(a: int, b: int, p: WeakOrder, q: WeakOrder) -> WeakOrder:
    """Four-block resolvent for the case where q strictly prefers a to b.

    Levels, best first: {a}; the part of a's p-lower-contour that is not in
    b's q-lower-contour, merged with every otherwise unplaced alternative;
    {b}; b's q-lower-contour.  Empty middle or bottom blocks are dropped.
    For the mirror case (p strictly prefers b to a) call
    ``make_w_prime(b, a, q, p)``.
    """
    if a == b:
        raise ArgumentError("make_w_prime needs two distinct alternatives")
    if not q.strictly_prefers(a, b):
        raise ArgumentError(
            "make_w_prime(a, b, p, q) requires a strictly above b in q"
        )
    k = p.k
    lqb = q.lower_contour(b)
    lpa = p.lower_contour(a)
    unplaced = set(range(k)) - {a, b} - lpa - lqb
    middle = ((lpa - lqb) | unplaced) - {a, b}
    bottom = lqb - {a, b}
    levels: list[list[int]] = [[a]]
    if middle:
        levels.append(sorted(middle))
    levels.append([b])
    if bottom:
        levels.append(sorted(bottom))
    return weak_order_from_levels(levels, k)


def make_sp_resolvent(
    a: int, b: int, p: WeakOrder, q: WeakOrder, axis: Axis | None = None
) -> WeakOrder:
    """A single-peaked resolvent for single-peaked p, q on the axis.

    Case "p strictly prefers b to a": the output peaks at b, walks from b
    towards a (which puts a above b's far-side neighbour), then finishes the
    far side, then the remaining near-side tail.  The case "q strictly
    prefers a to b" swaps the roles of a and b.  The result is a strict
    order; it is post-validated against both oracles, so a linearization
    bug surfaces instead of shipping.
    """
    if a == b:
        raise ArgumentError("make_sp_resolvent needs two distinct alternatives")
    if axis is None:
        axis = Axis.identity(p.k)
    if not is_single_peaked(p, axis) or not is_single_peaked(q, axis):
        raise ArgumentError("make_sp_resolvent requires single-peaked p and q")
    if p.strictly_prefers(b, a):
        top, anchor = b, a
    elif q.strictly_prefers(a, b):
        top, anchor = a, b
    else:
        raise ArgumentError(
            "no admissible case: need b strictly above a in p, "
            "or a strictly above b in q"
        )
    k = p.k
    pt, pa_ = axis.positions[top], axis.positions[anchor]
    if pt < pa_:
        positions = list(range(pt, k)) + list(range(pt - 1, -1, -1))
    else:
        positions = (
            list(range(pt, pa_ - 1, -1))
            + list(range(pt + 1, k))
            + list(range(pa_ - 1, -1, -1))
        )
    ranks = [0] * k
    for rank, pos in enumerate(positions):
        ranks[axis.order[pos]] = rank
    w = WeakOrder(tuple(ranks))
    if not is_resolvent(w, a, b, p, q) or not is_single_peaked(w, axis):
        raise RuntimeError(
            f"single-peaked linearization failed for a={a}, b={b}, "
            f"p={p.ranks}, q={q.ranks}"
        )
    return w


def find_resolvent(
    fs: FeasibleSet, a: int, b: int, p: WeakOrder, q: WeakOrder
) -> WeakOrder | None:
    """Canonically first member of ``fs`` resolving (p at a, q at b), if any."""
    if a == b:
        raise ArgumentError("resolvent pair needs two distinct alternatives")
    if p not in fs or q not in fs:
        raise ArgumentError("find_resolvent expects p and q inside the feasible set")
    for w in fs:
        if is_resolvent(w, a, b, p, q):
            return w
    return None


@dataclass(frozen=True)
class ResolventGap:
    """Witness that a feasible set is incomplete: no member resolves this quadruple."""

    p: WeakOrder
    q: WeakOrder
    a: int
    b: int


@dataclass(frozen=True)
class CompletenessReport:
    complete: bool
    gap: ResolventGap | None
    checked: int


def is_complete(fs: FeasibleSet) -> CompletenessReport:
    """Decide completeness; on failure return the lexicographically first gap.

    The scan order is (p, q) by canonical member index, then ordered pairs
    (a, b); inadmissible quadruples are skipped and ``checked`` counts the
    admissible ones up to and including the gap.  One ``einsum`` builds, for
    each member p and point a, a bit row over the members w that resolve the
    p-indifference at a.  A quadruple is covered when the rows of (p, a) and
    (q, b) share a bit; blocks of (p, q) pairs AND the rows as uint64 words,
    so ``COMPLETENESS_GUARD`` bounds the m^2 * k^2 * ceil(m / 8) byte ANDs.
    """
    m, k = len(fs), fs.alts.k
    cost = m * m * k * k * -(-m // 8)
    if cost > COMPLETENESS_GUARD:
        raise ResourceGuardError(
            f"completeness pass needs {cost} byte ANDs, guard is {COMPLETENESS_GUARD}"
        )
    ranks = fs.rank_rows
    # weak[p, a, x]: a weakly above x in p.  w resolves the p-indifference at
    # a unless some x != a is weakly below a in p and weakly above a in w;
    # the x = a term is 1 for every (p, a, w), so a resolvent scores exactly 1.
    weak = ranks[:, :, None] <= ranks[:, None, :]
    clashes = np.einsum("pax,wxa->paw", weak.view(np.uint8), weak.view(np.uint8))
    words = -(-m // 64)
    bits = np.zeros((m, k, 64 * words), dtype=bool)
    bits[:, :, :m] = clashes == 1
    # rows[word, p, a]: one uint64 word of the (p, a) row.
    rows = np.packbits(bits, axis=-1).view(np.uint64).transpose(2, 0, 1).copy()
    weak_ba = weak.transpose(0, 2, 1)
    strict = ranks[:, :, None] < ranks[:, None, :]
    strict_ba = strict.transpose(0, 2, 1)
    q_step = max(1, _BLOCK_WORDS // (k * k * words))
    p_step = max(1, q_step // m)  # whole p rows only when every q fits
    checked = 0
    for p0 in range(0, m, p_step):
        ps = slice(p0, p0 + p_step)
        for q0 in range(0, m, q_step):
            qs = slice(q0, q0 + q_step)
            # admissible[i, j, a, b]: not (a weakly above b in p and b weakly
            # above a in q); false on the diagonal a == b.
            admissible = ~(weak[ps, None] & weak_ba[None, qs])
            # Completeness of the orders forces one of the two constructive
            # cases on every admissible quadruple.
            assert not (admissible & ~strict_ba[ps, None] & ~strict[None, qs]).any()
            shared = rows[0, ps, None, :, None] & rows[0, None, qs, None, :]
            for word in rows[1:]:
                shared |= word[ps, None, :, None] & word[None, qs, None, :]
            gaps = admissible & (shared == 0)
            if gaps.any():
                first = int(gaps.argmax())
                checked += int(np.count_nonzero(admissible.reshape(-1)[: first + 1]))
                i, j, a, b = (int(x) for x in np.unravel_index(first, gaps.shape))
                gap = ResolventGap(fs[p0 + i], fs[q0 + j], a, b)
                return CompletenessReport(False, gap, checked)
            checked += int(np.count_nonzero(admissible))
    return CompletenessReport(True, None, checked)


def certificates(domain: Domain) -> Iterator[tuple[int, FeasibleSet, CompletenessReport]]:
    """``(first voter, set, is_complete(set))`` for each ``Domain.distinct``
    set, in order.  A set is decided only when the caller reaches it, so a
    caller that stops at an incomplete set decides no later one."""
    sets, number = domain.distinct
    for i, fs in enumerate(sets):
        yield number.index(i), fs, is_complete(fs)


# ---------------------------------------------------------------------------
# Domain file format
# ---------------------------------------------------------------------------

_PRESET_NAMES = {
    "@universal-weak",
    "@universal-strict",
    "@single-peaked",
    "@single-peaked-strict",
}


def _parse_axis_arg(arg: str, alts: AlternativeSet, line: int) -> Axis:
    arg = arg.strip()
    if arg == f"1..{alts.k}" or arg == "":
        return Axis.identity(alts.k)
    try:
        names = [t.strip() for t in arg.split(",")]
        return Axis(tuple(alts.index_of(name) for name in names))
    except (ParseError, ConstructionError) as exc:
        raise ParseError(f"bad axis {arg!r}: {exc}", line=line) from None


def _shared_presets(alts: AlternativeSet):
    """``preset(token, line)``: the set a preset token names over ``alts``,
    built once per token, so voters naming one token share it."""
    built: dict[str, FeasibleSet] = {}

    def preset(token, line):
        if token not in built:
            built[token] = _parse_preset(token, alts, line)
        return built[token]

    return preset


def _parse_preset(token: str, alts: AlternativeSet, line: int) -> FeasibleSet:
    name, _, rest = token.partition("(")
    axis = Axis.identity(alts.k)
    if rest:
        body = rest.rstrip()
        if not body.endswith(")"):
            raise ParseError(f"unbalanced parenthesis in preset {token!r}", line=line)
        body = body[:-1].strip()
        if body:
            key, _, value = body.partition("=")
            if key.strip() != "axis":
                raise ParseError(f"unknown preset argument {body!r}", line=line)
            if name in ("@universal-weak", "@universal-strict"):
                raise ParseError(f"preset {name} takes no axis", line=line)
            axis = _parse_axis_arg(value, alts, line)
    if name == "@universal-weak":
        return FeasibleSet.universal_weak(alts)
    if name == "@universal-strict":
        return FeasibleSet.universal_strict(alts)
    if name == "@single-peaked":
        return FeasibleSet.single_peaked(alts, axis)
    if name == "@single-peaked-strict":
        return FeasibleSet.single_peaked(alts, axis, strict=True)
    raise ParseError(
        f"unknown preset {name!r} (expected one of {sorted(_PRESET_NAMES)})",
        line=line,
    )


def _split_lines(text: str) -> list[str]:
    """``text``'s lines as text-mode ``open`` reads them: ended by CR LF, CR
    or LF only, not by the form feeds and other ends ``splitlines`` knows."""
    return re.split(r"\r\n|\r|\n", text)


def _read_lines(text: str) -> tuple[AlternativeSet, list[tuple[int, str]]]:
    """The ``alternatives: a,b,c`` header of a domain or profile file, and
    its other lines as ``(line number, text)``, without blank lines and
    ``#`` comments."""
    alts: AlternativeSet | None = None
    lines = []
    for lineno, raw in enumerate(_split_lines(text), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if alts is not None:
            lines.append((lineno, stripped))
            continue
        key, _, value = stripped.partition(":")
        if key.strip() != "alternatives":
            raise ParseError("expected header line 'alternatives: ...'", line=lineno)
        alts = _at_line(lineno, parse_alternatives, value)
    if alts is None:
        raise ParseError("empty file: missing 'alternatives:' header")
    return alts, lines


def _at_line(lineno: int, parse, *args):
    """``parse(*args)``, with a ParseError it raises placed at ``lineno``."""
    try:
        return parse(*args)
    except ParseError as exc:
        raise ParseError(str(exc), line=lineno) from None


def parse_domain_text(text: str) -> Domain:
    """Parse the domain file format.

    Header line ``alternatives: a,b,c``; then one block per voter:
    ``voter <i>:`` followed by one order per line in ``a~b>c`` notation, or a
    preset shorthand on the header line itself, e.g.
    ``voter 2: @single-peaked(axis=1..5)``.  Blank lines and ``#`` comments
    are ignored.
    """
    alts, body = _read_lines(text)
    preset = _shared_presets(alts)
    blocks: list[tuple[int, str, list[tuple[int, str]]]] = []
    for lineno, stripped in body:
        if stripped.startswith("voter"):
            header, _, rest = stripped.partition(":")
            voter_id = header[len("voter"):].strip()
            if not voter_id.isdigit():
                raise ParseError(f"bad voter header {stripped!r}", line=lineno)
            expected = len(blocks) + 1
            if int(voter_id) != expected:
                raise ParseError(
                    f"expected 'voter {expected}:', got voter {voter_id}", line=lineno
                )
            blocks.append((lineno, rest.strip(), []))
            continue
        if not blocks:
            raise ParseError(f"unexpected line {stripped!r} before any voter", line=lineno)
        blocks[-1][2].append((lineno, stripped))
    if not blocks:
        raise ParseError("domain file declares no voters")

    feasible: list[FeasibleSet] = []
    for header_line, inline, lines in blocks:
        if inline:
            if lines:
                raise ParseError(
                    "voter block mixes a preset with explicit orders",
                    line=lines[0][0],
                )
            if not inline.startswith("@"):
                raise ParseError(f"expected a preset, got {inline!r}", line=header_line)
            feasible.append(preset(inline, header_line))
            continue
        if not lines:
            raise ParseError(
                f"voter {len(feasible) + 1} has no orders", line=header_line
            )
        orders = [_at_line(lineno, parse_order, line, alts) for lineno, line in lines]
        feasible.append(FeasibleSet.explicit(alts, orders))
    return Domain(tuple(feasible))


def _read_file(path, parse, *args):
    """``parse(text, *args)`` on the text of the UTF-8 file ``path``.  A
    byte that is not UTF-8 and every ParseError of ``parse`` become one
    ParseError that names the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data.decode("utf-8"), *args)
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; count lines as _read_lines does.
        line = len(_split_lines(data[: exc.start].decode("utf-8")))
        bad = f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
    except ParseError as exc:
        bad = exc
    raise ParseError(f"{path}: {bad}")


def parse_domain_file(path) -> Domain:
    """The domain in the UTF-8 file ``path``; errors name the file and line."""
    return _read_file(path, parse_domain_text)


def parse_profile_file(path, alts: AlternativeSet, voters: int) -> tuple[WeakOrder, ...]:
    """The orders of a profile file for an scf over ``alts`` with
    ``voters`` voters, voter by voter.

    After the ``alternatives:`` header (the scf's), each line holds one
    order in ``a~b>c`` notation, or ``<count> x <order>`` for ``count``
    voters: digits, ``x`` and whitespace, so ``1x>2x>3x`` is one order.
    Blank lines and ``#`` comments are ignored.  The file must list
    exactly ``voters`` voters, and a line that takes them past it is an
    error before its orders are repeated.  Errors name the file and the
    line.
    """
    return _read_file(path, _parse_profile_text, alts, voters)


def _parse_profile_text(text, alts, voters):
    declared, lines = _read_lines(text)
    if declared != alts:
        raise ParseError("alternatives do not match the scf")
    orders: list[WeakOrder] = []
    for lineno, line in lines:
        counted = re.fullmatch(r"([0-9]+)\s*x\s+(.*)", line)
        count, body = (int(counted[1]), counted[2]) if counted else (1, line)
        order = _at_line(lineno, parse_order, body, alts)
        if len(orders) + count > voters:
            raise ParseError(
                f"{len(orders) + count} voters so far; the scf has {voters}",
                line=lineno,
            )
        orders.extend([order] * count)
    if not orders:
        raise ParseError("no orders found")
    if len(orders) < voters:
        raise ParseError(f"the scf has {voters} voters; the file lists {len(orders)}")
    return tuple(orders)


def format_domain(domain: Domain) -> str:
    """Serialize a domain back to the file format (presets kept when known)."""
    lines = ["alternatives: " + ",".join(domain.alts.names)]
    for v, fs in enumerate(domain.feasible, start=1):
        if fs.preset is not None:
            lines.append(f"voter {v}: {fs.preset}")
        else:
            lines.append(f"voter {v}:")
            lines.extend(format_order(order, domain.alts) for order in fs)
    return "\n".join(lines) + "\n"
