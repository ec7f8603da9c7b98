"""Weak, strict and single-peaked preference orders over a finite alternative set.

A weak order is stored as a rank vector: ``ranks[x] = r`` puts alternative
``x`` in indifference level ``r``, with level 0 the most preferred.  Levels
are contiguous (the values used are exactly ``0 .. L-1``), which makes the
encoding canonical: equality, hashing and the lexicographic enumeration
order used throughout the package all come straight from the tuple.

Alternatives are plain integers in ``range(k)``.  Names only exist at the
boundary: :class:`AlternativeSet` maps indices to display names, and
:func:`parse_order` / :func:`format_order` implement the ``a~b>c`` notation
used by the CLI and the file formats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ConstructionError, ParseError, ResourceGuardError

#: Largest alternative count accepted by the enumerators.  There are 545835
#: weak orders at k = 8 already; products over several voters explode well
#: before that, so anything larger fails fast with a resource error.
MAX_ENUMERATION_K = 8

#: Largest alternative count of any alternative set.  The scans store ranks
#: as int8 and outcome tables as uint8, so ranks 0..127 must fit.
MAX_ALTERNATIVES = 128

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_FORBIDDEN_NAME_CHARS = set(" \t\r\n>~,;:@()[]{}")


@dataclass(frozen=True)
class AlternativeSet:
    """The ambient set of alternatives, with display names for I/O."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ConstructionError("need at least one alternative")
        if len(names) > MAX_ALTERNATIVES:
            raise ConstructionError(
                f"{len(names)} alternatives; at most {MAX_ALTERNATIVES} are supported"
            )
        if len(set(names)) != len(names):
            raise ConstructionError("alternative names must be pairwise distinct")
        for name in names:
            if not name or any(c in _FORBIDDEN_NAME_CHARS for c in name):
                raise ConstructionError(f"invalid alternative name {name!r}")

    @property
    def k(self) -> int:
        return len(self.names)

    @classmethod
    def letters(cls, k: int) -> "AlternativeSet":
        """Alternatives named a, b, c, ... (k at most 26)."""
        if not 1 <= k <= 26:
            raise ConstructionError("letter names only available for 1 <= k <= 26")
        return cls(tuple(_LETTERS[:k]))

    @classmethod
    def numbered(cls, k: int) -> "AlternativeSet":
        """Alternatives named 1 .. k, the convention for single-peaked axes."""
        if k < 1:
            raise ConstructionError("need at least one alternative")
        return cls(tuple(str(i + 1) for i in range(k)))

    @classmethod
    def default(cls, k: int) -> "AlternativeSet":
        return cls.letters(k) if 1 <= k <= 26 else cls.numbered(k)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown alternative {name!r}") from None


class Relation(Enum):
    """Outcome of comparing two alternatives under a weak order."""

    STRICTLY_BETTER = "strictly-better"
    INDIFFERENT = "indifferent"
    STRICTLY_WORSE = "strictly-worse"


@dataclass(frozen=True)
class WeakOrder:
    """A complete transitive preference relation, encoded as a rank vector.

    ``x`` is weakly preferred to ``y`` iff ``ranks[x] <= ranks[y]``.  The
    derived relation is complete and transitive by construction, so the
    invariants live entirely in the rank vector: non-empty, and the set of
    values used is exactly ``{0, ..., L-1}`` for some number of levels L.
    """

    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if not ranks:
            raise ConstructionError("rank vector must be non-empty")
        values = set(ranks)
        if min(values) < 0 or values != set(range(len(values))):
            raise ConstructionError(
                f"rank vector {ranks} is not contiguous from level 0"
            )

    def __hash__(self) -> int:
        # The dataclass's own hash, computed at the first dict or set lookup
        # and kept; the same value keeps every set's iteration order.
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((self.ranks,))
            object.__setattr__(self, "_hash", value)
        return value

    @property
    def k(self) -> int:
        return len(self.ranks)

    @property
    def num_levels(self) -> int:
        return max(self.ranks) + 1

    def weakly_prefers(self, x: int, y: int) -> bool:
        return self.ranks[x] <= self.ranks[y]

    def strictly_prefers(self, x: int, y: int) -> bool:
        return self.ranks[x] < self.ranks[y]

    def indifferent(self, x: int, y: int) -> bool:
        return self.ranks[x] == self.ranks[y]

    def top_set(self) -> frozenset[int]:
        """The level-0 indifference class; never empty."""
        return frozenset(x for x, r in enumerate(self.ranks) if r == 0)

    def lower_contour(self, x: int) -> frozenset[int]:
        """All alternatives other than ``x`` weakly below ``x``."""
        rx = self.ranks[x]
        return frozenset(y for y, r in enumerate(self.ranks) if r >= rx and y != x)

    def invert(self) -> "WeakOrder":
        """Reverse the order; levels flip, ties are preserved."""
        top = self.num_levels - 1
        return WeakOrder(tuple(top - r for r in self.ranks))

    def is_strict(self) -> bool:
        return self.num_levels == self.k

    def levels(self) -> tuple[tuple[int, ...], ...]:
        """Indifference classes from best to worst, each sorted by index."""
        out: list[list[int]] = [[] for _ in range(self.num_levels)]
        for x, r in enumerate(self.ranks):
            out[r].append(x)
        return tuple(tuple(level) for level in out)


def prefers(order: WeakOrder, x: int, y: int) -> Relation:
    """Trichotomy of ``x`` against ``y`` under ``order``."""
    rx, ry = order.ranks[x], order.ranks[y]
    if rx < ry:
        return Relation.STRICTLY_BETTER
    if rx == ry:
        return Relation.INDIFFERENT
    return Relation.STRICTLY_WORSE


def weak_order_from_levels(
    levels: Sequence[Iterable[int]], k: int | None = None
) -> WeakOrder:
    """Build a weak order from indifference classes listed best-first.

    The classes must partition ``range(k)``; ``k`` defaults to the total
    number of listed alternatives.
    """
    seen: dict[int, int] = {}
    for level_no, level in enumerate(levels):
        members = list(level)
        if not members:
            raise ConstructionError(f"level {level_no} is empty")
        for x in members:
            if x in seen:
                raise ConstructionError(
                    f"alternative {x} in two levels ({seen[x]} and {level_no})"
                )
            seen[x] = level_no
    if k is None:
        k = len(seen)
    out_of_range = sorted(x for x in seen if not 0 <= x < k)
    if out_of_range:
        raise ConstructionError(f"alternatives {out_of_range} outside range(0, {k})")
    missing = sorted(set(range(k)) - seen.keys())
    if missing:
        raise ConstructionError(f"missing alternatives {missing}")
    return WeakOrder(tuple(seen[x] for x in range(k)))


# ---------------------------------------------------------------------------
# Single-peakedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """Left-to-right spatial arrangement of the alternatives.

    ``order[p]`` is the alternative sitting at axis position ``p``.  The
    default is the identity arrangement, i.e. alternative i at position i.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(x) for x in self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(len(order))):
            raise ConstructionError(f"axis {order} is not a permutation")

    @property
    def k(self) -> int:
        return len(self.order)

    @classmethod
    def identity(cls, k: int) -> "Axis":
        return cls(tuple(range(k)))

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """Inverse permutation: ``positions[x]`` is the position of x."""
        pos = [0] * self.k
        for p, x in enumerate(self.order):
            pos[x] = p
        return tuple(pos)


def peak_position(order: WeakOrder, axis: Axis) -> int | None:
    """Axis position of the unique top alternative, or None if the top is tied."""
    top = order.top_set()
    if len(top) != 1:
        return None
    return axis.positions[next(iter(top))]


def is_single_peaked(order: WeakOrder, axis: Axis | None = None) -> bool:
    """Unique top, and strictly falling preference moving away from it.

    Strictness is required within each side of the peak; comparisons across
    opposite sides are unconstrained, so cross-side ties are permitted.
    """
    if axis is None:
        axis = Axis.identity(order.k)
    seq = [order.ranks[x] for x in axis.order]
    peak = peak_position(order, axis)
    if peak is None:
        return False
    for p in range(peak, len(seq) - 1):
        if seq[p] >= seq[p + 1]:
            return False
    for p in range(peak, 0, -1):
        if seq[p] >= seq[p - 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _check_enumeration_k(k: int) -> None:
    if k < 1:
        raise ConstructionError("need at least one alternative")
    if k > MAX_ENUMERATION_K:
        raise ResourceGuardError(
            f"enumeration guarded at k <= {MAX_ENUMERATION_K}, got k = {k}"
        )


def _contiguous_rank_vectors(k: int) -> Iterator[tuple[int, ...]]:
    # Depth-first over positions, values tried ascending, pruned by how many
    # levels below the running maximum are still unused; output is therefore
    # lexicographic without an explicit sort.
    vec = [0] * k
    used = [False] * (k + 1)

    def rec(i: int, n_used: int, max_used: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield tuple(vec)
            return
        remaining = k - i - 1
        for v in range(k):
            new_max = v if v > max_used else max_used
            new_used = n_used + (0 if used[v] else 1)
            if (new_max + 1) - new_used > remaining:
                continue
            was = used[v]
            vec[i] = v
            used[v] = True
            yield from rec(i + 1, new_used, new_max)
            used[v] = was

    yield from rec(0, 0, -1)


def enumerate_weak_orders(k: int) -> Iterator[WeakOrder]:
    """All weak orders on k alternatives, lexicographic in the rank vector."""
    _check_enumeration_k(k)
    for vec in _contiguous_rank_vectors(k):
        yield WeakOrder(vec)


def enumerate_strict_orders(k: int) -> Iterator[WeakOrder]:
    """All k! strict orders, in the same canonical (lexicographic) order."""
    _check_enumeration_k(k)
    for vec in itertools.permutations(range(k)):
        yield WeakOrder(vec)


def enumerate_single_peaked(
    k: int, axis: Axis | None = None, strict: bool = False
) -> Iterator[WeakOrder]:
    """Single-peaked orders on the axis, lexicographic in the rank vector;
    2^(k-1) of them when strict.

    The peak is level 0, and each next level takes the ranked interval's
    left neighbour on the axis, its right neighbour or, for weak orders,
    both; so every order is built once and none is filtered out.
    """
    _check_enumeration_k(k)
    if axis is None:
        axis = Axis.identity(k)
    found = []
    # seq[p]: the level of the alternative at axis position p, for lo..hi;
    # a call writes only positions outside its interval.
    seq = [0] * k

    def grow(lo: int, hi: int, level: int) -> None:
        if hi - lo == k - 1:
            found.append(tuple(seq[p] for p in axis.positions))
            return
        if lo:
            seq[lo - 1] = level
            grow(lo - 1, hi, level + 1)
        if hi < k - 1:
            seq[hi + 1] = level
            grow(lo, hi + 1, level + 1)
            if lo and not strict:
                seq[lo - 1] = level
                grow(lo - 1, hi + 1, level + 1)

    for peak in range(k):
        seq[peak] = 0
        grow(peak, peak, 1)
    for ranks in sorted(found):
        yield WeakOrder(ranks)


# ---------------------------------------------------------------------------
# Textual notation:  levels separated by '>', ties inside a level by '~'
# ---------------------------------------------------------------------------


def parse_order(text: str, alts: AlternativeSet) -> WeakOrder:
    """Parse ``a~b>c`` notation.  Whitespace around tokens is ignored."""
    levels: list[list[int]] = []
    for part in text.split(">"):
        names = [token.strip() for token in part.split("~")]
        if any(not name for name in names):
            raise ParseError(f"empty level in order {text.strip()!r}")
        levels.append([alts.index_of(name) for name in names])
    seen: set[int] = set()
    for level in levels:
        for x in level:
            if x in seen:
                raise ParseError(
                    f"alternative {alts.names[x]!r} listed twice in {text.strip()!r}"
                )
            seen.add(x)
    missing = sorted(set(range(alts.k)) - seen)
    if missing:
        names = ", ".join(alts.names[x] for x in missing)
        raise ParseError(f"order {text.strip()!r} does not mention: {names}")
    return weak_order_from_levels(levels, alts.k)


def format_order(order: WeakOrder, alts: AlternativeSet) -> str:
    """Render in ``a~b>c`` notation; parse of the result round-trips."""
    return ">".join(
        "~".join(alts.names[x] for x in level) for level in order.levels()
    )


def parse_alternatives(text: str) -> AlternativeSet:
    """Parse a comma-separated alternative list such as ``a,b,c``."""
    names = [token.strip() for token in text.split(",")]
    if any(not name for name in names):
        raise ParseError(f"empty alternative name in {text.strip()!r}")
    try:
        return AlternativeSet(tuple(names))
    except ConstructionError as exc:
        raise ParseError(str(exc)) from None
