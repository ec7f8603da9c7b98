"""Social choice functions: profiles, built-in rules, tables, and the file format.

A profile space is indexed mixed-radix with voter 0 most significant: the
digit of voter v is the canonical position of their order inside their
feasible set.  Every scan in the package walks this index ascending, which
is what makes witnesses reproducible across runs and worker counts.

An :class:`Scf` body is either a table (one alternative per profile index)
or a named rule with parameters.  Rules evaluate on societies of any size,
which the quotient reduction relies on; tables require the profile space to
fit the guard.

Rules are evaluated in numpy over blocks of profile digits.  Each rule has
one kernel, built once per scf from arrays over its voters' feasible sets
(rank rows, the unique top, and the peak position), that maps a
``(rows, n)`` block of digits to the rows' outcomes.  A cloned rule runs its
base rule's kernel on its own class columns, never on the blown-up
society: the base rule's voter v reads column ``assignment[v]``, and the
anonymous rules (median-peaks, plurality-tiebreak) count each class once
per voter assigned to it, so a clone costs its class count, not its
voters.  :func:`evaluate` makes a one-row call, and the quotient reduction
feeds its sampled profiles.

Beside its kernel, each rule declares what the kernel reads of each
voter's order (:func:`rule_reads`), from the same arrays: nothing (every
voter of a constant, every voter but a dictator), a key (plurality's and
the median's unique top, or a spare class for a tied top; the paper
example's first voter's set of tops), or the whole order (the dictator's,
the paper example's second voter's, each class's of a clone).
:func:`tabulate` runs the kernel on the grid of one order per class of
equal key, in blocks of whole chunks of :func:`chunk_digits` (each block's
chunk heads added to the one chunk's digits, no profile number divided),
and spreads the grid over the profile space with one ``take`` per keyed
voter.  Blocks hold about ``_EVAL_CELLS`` (row, voter) cells.  Voters of
one feasible set and one key share their classes, found by one
``np.unique``.  Classes are numbered by their least order, so C order over
the grid is profile order over the cells' least profiles.  A voter whose
whole order is read keeps all their orders in the grid, so a rule that
reads every voter whole runs on every profile.

The table keeps its grid (:class:`Grid`, :func:`class_grid`), and the
property checkers walk it in place of the profile space; a table given
whole is its own grid, every voter read whole.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import ArgumentError, ConstructionError, ParseError, PrefrevError
from .orders import (
    AlternativeSet,
    Axis,
    WeakOrder,
    format_order,
    parse_order,
    is_single_peaked,
)
from .domains import (
    DEFAULT_PROFILE_GUARD,
    Domain,
    FeasibleSet,
    parse_domain_file,
    _shared_presets,
)


@dataclass(frozen=True)
class Profile:
    """One order per voter."""

    orders: tuple[WeakOrder, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        if not self.orders:
            raise ConstructionError("profile must cover at least one voter")

    @property
    def n(self) -> int:
        return len(self.orders)

    def __getitem__(self, v: int) -> WeakOrder:
        return self.orders[v]

    def replace(self, v: int, order: WeakOrder) -> "Profile":
        orders = list(self.orders)
        orders[v] = order
        return Profile(tuple(orders))

    def replace_many(self, changes: dict[int, WeakOrder]) -> "Profile":
        orders = list(self.orders)
        for v, order in changes.items():
            orders[v] = order
        return Profile(tuple(orders))


def profile_strides(domain: Domain) -> tuple[int, ...]:
    """Mixed-radix strides, voter 0 most significant."""
    strides = [1] * domain.n
    for v in range(domain.n - 2, -1, -1):
        strides[v] = strides[v + 1] * len(domain.feasible[v + 1])
    return tuple(strides)


def profile_digits(domain: Domain, profile: Profile) -> tuple[int, ...]:
    if profile.n != domain.n:
        raise ArgumentError(
            f"profile has {profile.n} voters, domain has {domain.n}"
        )
    digits = []
    for v, order in enumerate(profile.orders):
        d = domain.feasible[v].index_of(order)
        if d is None:
            raise ArgumentError(
                f"voter {v + 1}'s order is outside their feasible set"
            )
        digits.append(d)
    return tuple(digits)


def profile_index(domain: Domain, profile: Profile) -> int:
    """Encode a profile as its canonical index; inverse of :func:`profile_at`."""
    digits = profile_digits(domain, profile)
    strides = profile_strides(domain)
    return sum(d * s for d, s in zip(digits, strides))


def chunk_digits(sizes: Sequence[int], cells: int):
    """``(span, tail, head)``: the profile space of voters with ``sizes``
    orders, in chunks of ``span`` consecutive profiles, the largest stride
    (or the whole space) of at most ``cells / n``.  ``tail`` ``(n, span)``
    holds the digits of chunk 0, built once from the sizes of the voters
    whose stride is below ``span``.  ``head(lo, hi)`` ``(n, hi - lo)``
    holds those of the first profiles of chunks lo..hi-1, from the chunk
    numbers alone.  Profile ``c * span + s`` has the digits ``head[c] +
    tail[s]``: no profile number is divided.
    """
    strides = np.cumprod((1,) + tuple(sizes[:0:-1]))[::-1]
    cap = max(1, cells // len(sizes))
    span = next(int(s) for s in (strides[0] * sizes[0], *strides) if s <= cap)
    tail = np.indices([m if s < span else 1 for m, s in zip(sizes, strides)])
    radix = np.array([strides, sizes])[:, :, None]

    def head(lo, hi):
        return np.arange(lo, hi) * span // radix[0] % radix[1]

    return span, tail.reshape(len(sizes), span), head


def profile_at(domain: Domain, index: int) -> Profile:
    count = domain.profile_count()
    if not 0 <= index < count:
        raise ArgumentError(f"profile index {index} outside [0, {count})")
    orders = []
    for v in range(domain.n - 1, -1, -1):
        m = len(domain.feasible[v])
        orders.append(domain.feasible[v][index % m])
        index //= m
    return Profile(tuple(reversed(orders)))


def iter_profiles(domain: Domain) -> Iterator[Profile]:
    """All profiles in canonical index order (odometer walk)."""
    domain.require_enumerable()
    sizes = [len(fs) for fs in domain.feasible]
    digits = [0] * domain.n
    while True:
        yield Profile(tuple(domain.feasible[v][digits[v]] for v in range(domain.n)))
        v = domain.n - 1
        while v >= 0:
            digits[v] += 1
            if digits[v] < sizes[v]:
                break
            digits[v] = 0
            v -= 1
        if v < 0:
            return


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

RULE_NAMES = (
    "constant",
    "dictator-tiebreak",
    "paper-example",
    "median-peaks",
    "plurality-tiebreak",
)


@dataclass(frozen=True, eq=True)
class Rule:
    """A named pure evaluation procedure with normalized parameters.

    Rules are compared (params is a plain dict) but never hashed.
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)


#: Rule kernels take digit blocks of about this many (row, voter) cells.
_EVAL_CELLS = 1 << 16


def _order_arrays(domain: Domain):
    """``(base, ranks, top)`` for the rule kernels and their reads.

    Voter v's order d has rank vector ``ranks[base[v] + d]`` and unique top
    alternative ``top[base[v] + d]``, or k when the top is tied.  Voters
    with equal feasible sets share its rows (``Domain.distinct``), so a
    large society built from a few sets costs a few rows.  ``base`` has the
    smallest integer type that holds every row number and ``top`` is uint8,
    so a block of a large society gathers few bytes.
    """
    sets, number = domain.distinct
    sizes = [len(fs) for fs in sets]
    base = np.cumsum([0] + sizes[:-1]).astype(np.min_scalar_type(-sum(sizes)))
    ranks = np.concatenate([fs.rank_rows for fs in sets])
    tops = ranks == 0
    top = np.where(tops.sum(axis=1) == 1, tops.argmax(axis=1), domain.k)
    return base[list(number)], ranks, top.astype(np.uint8)


def _weights(domain, assignment):
    """Voters per column: None (one each) without an assignment."""
    return None if assignment is None else np.bincount(assignment, minlength=domain.n)


def _tally(bins, width, weights):
    """``counts[b, r]``: the voters of row r whose column holds b in
    ``bins``, column c counting ``weights[c]`` voters (one without weights).
    Bin-major, so a sum over the bins runs along whole rows of counts."""
    rows = len(bins)
    flat = bins.astype(np.intp)
    flat *= rows
    flat += np.arange(rows)[:, None]
    if weights is not None:
        weights = np.broadcast_to(weights, bins.shape).ravel()
    return np.bincount(flat.ravel(), weights, minlength=width * rows).reshape(width, rows)


def _nothing(arrays):
    """A key that puts every order row in one class: a voter the kernel
    does not read."""
    return np.zeros(len(arrays[2]), dtype=np.uint8)


def _kernel_constant(params, domain, arrays, assignment=None):
    alternative = params["alternative"]
    return lambda digits: np.full(len(digits), alternative, dtype=np.intp)


def _reads_constant(params, domain, arrays):
    return (_nothing(arrays),) * domain.n


def _kernel_dictator(params, domain, arrays, assignment=None):
    base, ranks, _ = arrays
    v = (assignment or range(domain.n))[params["voter"]]
    tiebreak = np.array(params["tiebreak"])
    # The first alternative of the tie-break among each order's tops.
    choice = tiebreak[(ranks[:, tiebreak] == 0).argmax(axis=1)]
    return lambda digits: choice[base[v] + digits[:, v]]


def _reads_dictator(params, domain, arrays):
    # The dictator's whole order; nothing of anyone else's.
    reads = [_nothing(arrays)] * domain.n
    reads[params["voter"]] = None
    return tuple(reads)


def _kernel_paper_example(params, domain, arrays, assignment=None):
    # Voter 1 picks; a tie among their tops is settled by the best of those
    # tops under voter 2's inverted report, alphabetically first if several.
    # Alternative x scores (level of x in voter 2's inverted report, x's
    # alphabetical place), and the least score among voter 1's tops wins.
    base, ranks, _ = arrays
    first, second = assignment or (0, 1)
    k = domain.k
    names = domain.alts.names
    alphabetical = np.empty(k, dtype=np.intp)
    alphabetical[sorted(range(k), key=lambda x: names[x])] = np.arange(k)
    inverted = ranks.max(axis=1, keepdims=True) - ranks
    score = inverted.astype(np.intp) * k + alphabetical
    excluded = np.intp(k * k)

    def kernel(digits):
        tops = ranks[base[first] + digits[:, first]] == 0
        return np.where(tops, score[base[second] + digits[:, second]], excluded).argmin(axis=1)

    return kernel


def _reads_paper_example(params, domain, arrays):
    # Voter 1's set of tops, and voter 2's whole order.
    tops = np.unique(arrays[1] == 0, axis=0, return_inverse=True)[1]
    return tops.reshape(-1), None


def _kernel_median_peaks(params, domain, arrays, assignment=None):
    base, _, top = arrays
    axis = Axis(params["axis"])
    # Feasible sets are strict, so every top is unique.
    peak = np.array(axis.positions, dtype=np.uint8)[top]
    order = np.array(axis.order)
    weights = _weights(domain, assignment)
    voters = domain.n if assignment is None else len(assignment)
    middle = (voters - 1) // 2

    def kernel(digits):
        # The left median is at the first axis position with more than
        # ``middle`` peaks at or left of it.
        below = _tally(np.take(peak, base + digits), domain.k, weights).cumsum(axis=0)
        return order[(below[:-1] <= middle).sum(axis=0)]

    return kernel


def _kernel_plurality(params, domain, arrays, assignment=None):
    base, _, top = arrays
    tiebreak = np.array(params["tiebreak"])
    weights = _weights(domain, assignment)

    def kernel(digits):
        # A voter with a tied top votes in the spare bin k.
        counts = _tally(np.take(top, base + digits), domain.k + 1, weights)[tiebreak]
        return tiebreak[(counts == counts.max(axis=0)).argmax(axis=0)]

    return kernel


def _reads_top(params, domain, arrays):
    # Each voter's unique top, or the spare bin k when it is tied (the
    # median's peak is its top).
    return (arrays[2],) * domain.n


def _kernel_cloned(params, domain, arrays):
    base = params["base"]
    return _RULE_KERNELS[base.name](base.params, domain, arrays, params["assignment"])


def _reads_cloned(params, domain, arrays):
    # Every class's whole order.
    return (None,) * domain.n


#: Rule name -> kernel factory ``(params, domain, arrays) -> kernel``, with
#: the domain's :func:`_order_arrays`.  A kernel maps a ``(rows, n)`` block
#: of feasible-set digits to the rows' outcomes.  A built-in rule's factory
#: also takes a clone's ``assignment``: the rule's voter v then reads column
#: ``assignment[v]``, and an anonymous rule counts column c once per voter
#: assigned to it.
_RULE_KERNELS: dict[str, Callable] = {
    "constant": _kernel_constant,
    "dictator-tiebreak": _kernel_dictator,
    "paper-example": _kernel_paper_example,
    "median-peaks": _kernel_median_peaks,
    "plurality-tiebreak": _kernel_plurality,
    "cloned": _kernel_cloned,
}

#: Rule name -> ``(params, domain, arrays) -> reads``: what the rule's
#: kernel reads of each voter's order (see :func:`rule_reads`).
_RULE_READS: dict[str, Callable] = {
    "constant": _reads_constant,
    "dictator-tiebreak": _reads_dictator,
    "paper-example": _reads_paper_example,
    "median-peaks": _reads_top,
    "plurality-tiebreak": _reads_top,
    "cloned": _reads_cloned,
}


# ---------------------------------------------------------------------------
# Scf
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid:
    """A rule's outcomes over the classes of orders its kernel tells apart.

    ``values`` has one axis per voter.  Where ``codes[v]`` is None, axis v
    holds voter v's orders: v is read whole.  Otherwise it holds v's
    classes: ``codes[v][d]`` is the class of v's order d, and
    ``least[v][c]`` the least order of class c.  Classes are numbered by
    their least order, so C order over any grid is profile order over the
    cells' least profiles.  Every profile's outcome is the value at the
    cell of its orders' classes.
    """

    values: np.ndarray
    codes: tuple
    least: tuple


@dataclass(frozen=True, eq=False)
class Scf:
    """A total map from the profile space to alternatives.  A table made
    by :func:`tabulate` keeps the ``grid`` it was evaluated on."""

    domain: Domain
    rule: Rule | None = None
    table: np.ndarray | None = None
    grid: Grid | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.rule is None) == (self.table is None):
            raise ConstructionError("scf needs exactly one body: rule or table")
        if self.table is not None:
            table = np.asarray(self.table, dtype=np.uint8)
            if table.ndim != 1 or len(table) != self.domain.profile_count():
                raise ConstructionError(
                    "table length must equal the profile count"
                )
            if table.size and int(table.max()) >= self.domain.k:
                raise ConstructionError("table contains an out-of-range alternative")
            table.setflags(write=False)
            object.__setattr__(self, "table", table)

    @property
    def body_kind(self) -> str:
        return "table" if self.table is not None else "rule"

    @classmethod
    def from_table(cls, domain: Domain, values: Sequence[int]) -> "Scf":
        return cls(domain, table=np.asarray(values, dtype=np.uint8))

    @classmethod
    def from_rule(cls, domain: Domain, rule: Rule) -> "Scf":
        if rule.name not in _RULE_KERNELS:
            raise ConstructionError(f"unknown rule {rule.name!r}")
        return cls(domain, rule=rule)

    @cached_property
    def _arrays(self):
        # Built once for both the rule's kernel and its reads.
        return _order_arrays(self.domain)

    @cached_property
    def _kernel(self) -> Callable[[np.ndarray], np.ndarray]:
        # Kept with the scf: witness re-validation evaluates one profile at
        # a time, and building a kernel costs up to eight one-row calls.
        return _RULE_KERNELS[self.rule.name](self.rule.params, self.domain, self._arrays)


def rule_kernel(scf: Scf) -> Callable[[np.ndarray], np.ndarray]:
    """The rule's kernel: maps a ``(rows, n)`` block of feasible-set digits
    (voter v's order index in their feasible set) to the rows' outcomes."""
    return scf._kernel


def rule_reads(scf: Scf) -> tuple:
    """What the rule's kernel reads of each voter's order, one entry per
    voter: None for the whole order, or a key over the rows of
    :func:`_order_arrays` (voter v's order d is row ``base[v] + d``).  The
    kernel gives the same outcome whichever orders of equal key the voters
    report; a key equal on every row means the voter is not read."""
    return _RULE_READS[scf.rule.name](scf.rule.params, scf.domain, scf._arrays)


def evaluate(scf: Scf, profile: Profile) -> int:
    """The chosen alternative; raises ArgumentError off the domain."""
    if scf.table is not None:
        return int(scf.table[profile_index(scf.domain, profile)])
    digits = profile_digits(scf.domain, profile)  # membership check
    return int(rule_kernel(scf)(np.array([digits], dtype=np.intp))[0])


def tabulate(scf: Scf, guard: int = DEFAULT_PROFILE_GUARD) -> Scf:
    """Materialize a rule into a table; idempotent on tables.  The one
    place a profile guard is set: every other reader takes the default.

    The kernel runs on the least order of each class of :func:`rule_reads`,
    and one ``take`` per keyed voter spreads its outcomes over the profiles.
    Voters of one feasible set (``Domain.distinct``) and one key share one
    ``np.unique``; its classes are renumbered by their least order.  The
    table keeps the grid of classes as its :class:`Grid`.
    """
    if scf.table is not None:
        return scf
    domain = scf.domain
    domain.require_enumerable(guard)
    kernel, base = rule_kernel(scf), scf._arrays[0]
    number = domain.distinct[1]
    grid = [len(fs) for fs in domain.feasible]
    codes, least, shared = [None] * domain.n, [None] * domain.n, {}
    reads = rule_reads(scf)  # held for the loop, so no key's id is reused
    for v, key in enumerate(reads):
        if key is None:
            continue
        classes = shared.get((number[v], id(key)))
        if classes is None:
            row = int(base[v])  # the set's end row may not fit base's type
            _, first, inverse = np.unique(
                key[row:row + grid[v]], return_index=True, return_inverse=True
            )
            by_least = np.argsort(first)  # renumber the classes by least order
            classes = shared[number[v], id(key)] = (first[by_least], np.argsort(by_least)[inverse])
        least[v], codes[v] = classes
        grid[v] = len(least[v])
    span, tail, head = chunk_digits(grid, _EVAL_CELLS)
    step = max(1, _EVAL_CELLS // (domain.n * span))
    values = np.empty((math.prod(grid) // span, span), dtype=np.uint8)
    for lo in range(0, len(values), step):
        hi = min(lo + step, len(values))
        digits = (head(lo, hi).T[:, None] + tail.T).reshape(-1, domain.n)
        for v, first in enumerate(least):
            if first is not None:
                digits[:, v] = first[digits[:, v]]
        values[lo:hi] = kernel(digits).reshape(-1, span)
    kept = values = values.reshape(grid)
    kept.setflags(write=False)
    # Spread from the last voter to the first, so the largest take, along
    # the first axis, copies whole rows.
    for v in reversed(range(domain.n)):
        if codes[v] is not None:
            values = values.take(codes[v], axis=v)
    return Scf(domain, table=values.ravel(), grid=Grid(kept, tuple(codes), tuple(least)))


def class_grid(scf: Scf) -> Grid:
    """The grid of a table: the one :func:`tabulate` kept, or, for a table
    given whole, the table itself with every voter read whole."""
    if scf.grid is not None:
        return scf.grid
    n = scf.domain.n
    sizes = tuple(len(fs) for fs in scf.domain.feasible)
    return Grid(scf.table.reshape(sizes), (None,) * n, (None,) * n)


def range_of(scf: Scf) -> frozenset[int]:
    """Exact image of the profile space."""
    return frozenset(int(x) for x in np.unique(tabulate(scf).table))


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------


def _as_int(value, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool.  Any
    other value is a TypeError naming ``what``, which :func:`decoding`
    reports as a malformed document."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"{what} must be an integer, not {value!r}")


def _as_alt(value, alts: AlternativeSet) -> int:
    if isinstance(value, str):
        return alts.index_of(value)
    x = _as_int(value, "an alternative")
    if not 0 <= x < alts.k:
        raise ArgumentError(f"alternative index {x} outside range(0, {alts.k})")
    return x


def _as_tiebreak(value, alts: AlternativeSet) -> tuple[int, ...]:
    if value is None:
        order = sorted(range(alts.k), key=lambda x: alts.names[x])
        return tuple(order)
    tie = tuple(_as_alt(v, alts) for v in value)
    if sorted(tie) != list(range(alts.k)):
        raise ArgumentError("tiebreak must list every alternative exactly once")
    return tie


def _as_axis(value, alts: AlternativeSet) -> Axis:
    if value is None:
        return Axis.identity(alts.k)
    if isinstance(value, Axis):
        axis = value
    else:
        axis = Axis(tuple(_as_alt(v, alts) for v in value))
    if axis.k != alts.k:
        raise ArgumentError("axis length does not match alternative count")
    return axis


def builtin(name: str, domain: Domain, /, **params) -> Scf:
    """Construct one of the built-in rules, validated against the domain.

    Names: ``constant(alternative)``, ``dictator-tiebreak(voter, tiebreak)``,
    ``paper-example`` (two voters, alphabetical tie-break),
    ``median-peaks(axis)`` (left median for even societies; needs strict
    single-peaked feasible sets), ``plurality-tiebreak(tiebreak)`` (a
    deliberately manipulable control), and ``cloned(base, assignment)``: the
    :class:`Rule` ``base`` evaluated on the profile blown up along
    ``assignment``, original voter v receiving the report of voter
    ``assignment[v]`` (the quotient reduction's collapsed rule).  The base
    rule is validated on the blown-up society, but evaluated on this one's
    columns, with each column counted once per voter assigned to it.  Voters are
    0-based; alternatives are indices or names.  This is the only place that
    knows a rule's parameters: an unknown or missing one is an ArgumentError,
    and a voter or index that is not an integer a TypeError.
    """
    alts = domain.alts
    if name == "constant":
        if "alternative" not in params:
            raise ArgumentError("constant rule needs an 'alternative' parameter")
        norm = {"alternative": _as_alt(params.pop("alternative"), alts)}
    elif name == "dictator-tiebreak":
        if "voter" not in params:
            raise ArgumentError("dictator-tiebreak needs a 'voter' parameter")
        voter = _as_int(params.pop("voter"), "voter")
        if not 0 <= voter < domain.n:
            raise ArgumentError(f"dictator voter {voter + 1} outside 1..{domain.n}")
        norm = {
            "voter": voter,
            "tiebreak": _as_tiebreak(params.pop("tiebreak", None), alts),
        }
    elif name == "paper-example":
        if domain.n != 2:
            raise ArgumentError("paper-example is defined for exactly two voters")
        norm = {}
    elif name == "median-peaks":
        axis = _as_axis(params.pop("axis", None), alts)
        sets, number = domain.distinct
        for i, fs in enumerate(sets):
            for order in fs:
                if not order.is_strict() or not is_single_peaked(order, axis):
                    raise ArgumentError(
                        f"median-peaks needs strict single-peaked feasible sets; "
                        f"voter {number.index(i) + 1} admits {format_order(order, alts)}"
                    )
        norm = {"axis": axis.order}
    elif name == "plurality-tiebreak":
        norm = {"tiebreak": _as_tiebreak(params.pop("tiebreak", None), alts)}
    elif name == "cloned":
        for key in ("base", "assignment"):
            if key not in params:
                raise ArgumentError(f"cloned needs a {key!r} parameter")
        base = params.pop("base")
        assignment = tuple(_as_int(c, "an assigned voter") for c in params.pop("assignment"))
        if base.name == "cloned":
            raise ArgumentError("cannot clone rule 'cloned'")
        for c in assignment:
            if not 0 <= c < domain.n:
                raise ArgumentError(
                    f"cloned rule assigns voter {c + 1}, outside 1..{domain.n}"
                )
        # the base rule runs on the blown-up society, one voter per entry
        blown = Domain(tuple(domain.feasible[c] for c in assignment))
        try:
            base = builtin(base.name, blown, **base.params).rule
        except ArgumentError as exc:
            raise ArgumentError(f"cloned rule base on {blown.n} voters: {exc}") from None
        norm = {"base": base, "assignment": assignment}
    else:
        raise ArgumentError(f"unknown built-in rule {name!r}")
    if params:
        raise ArgumentError(f"unexpected parameters for {name}: {sorted(params)}")
    return Scf.from_rule(domain, Rule(name, norm))


# ---------------------------------------------------------------------------
# File format (canonical JSON)
# ---------------------------------------------------------------------------


def dumps_canonical(doc: Any) -> str:
    """Deterministic JSON used by every structured output in the package."""
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def domain_to_dict(domain: Domain) -> dict:
    voters = []
    for fs in domain.feasible:
        if fs.preset is not None:
            voters.append({"preset": fs.preset})
        else:
            voters.append(
                {"orders": [format_order(order, domain.alts) for order in fs]}
            )
    return {"voters": voters}


def domain_from_dict(data: dict, alts: AlternativeSet) -> Domain:
    preset = _shared_presets(alts)
    feasible = []
    for i, entry in enumerate(data["voters"], start=1):
        if "preset" in entry:
            feasible.append(preset(entry["preset"], None))
        elif "orders" in entry:
            orders = [parse_order(text, alts) for text in entry["orders"]]
            feasible.append(FeasibleSet.explicit(alts, orders))
        else:
            raise ParseError(f"voter {i}: expected 'preset' or 'orders'")
    return Domain(tuple(feasible))


def rule_params_to_dict(rule: Rule, alts: AlternativeSet) -> dict:
    """A rule's parameters in file conventions: voters 1-based, alternatives
    by name, a clone's base as a nested ``{name, params}``."""
    doc = {}
    for key, value in rule.params.items():
        if key == "voter":
            value = value + 1
        elif key == "assignment":
            value = [c + 1 for c in value]
        elif key == "alternative":
            value = alts.names[value]
        elif key in ("tiebreak", "axis"):
            value = [alts.names[x] for x in value]
        elif key == "base":
            value = {"name": value.name, "params": rule_params_to_dict(value, alts)}
        doc[key] = value
    return doc


def rule_params_from_dict(data: dict) -> dict:
    """:func:`builtin` keywords from file conventions: voters back to
    0-based, a nested base to a :class:`Rule`.  Alternatives stay names,
    which builtin takes, and every other key passes through for builtin to
    refuse."""
    params = {**data}
    if "voter" in params:
        params["voter"] = _as_int(params["voter"], "voter") - 1
    if "assignment" in params:
        params["assignment"] = [_as_int(c, "an assigned voter") - 1 for c in params["assignment"]]
    if "base" in params:
        base = params["base"]
        params["base"] = Rule(base["name"], rule_params_from_dict(base.get("params", {})))
    return params


def scf_to_dict(scf: Scf) -> dict:
    alts = scf.domain.alts
    doc = {
        "alternatives": list(alts.names),
        "voters": scf.domain.n,
        "domain": domain_to_dict(scf.domain),
    }
    if scf.rule is not None:
        doc["rule"] = {
            "name": scf.rule.name,
            "params": rule_params_to_dict(scf.rule, alts),
        }
    else:
        doc["table"] = [alts.names[int(x)] for x in scf.table]
    return doc


@contextmanager
def decoding(source):
    """Report a document of the wrong shape as one ParseError naming ``source``.

    Decoders index into JSON values as if their shape were right; a wrong
    shape surfaces as a lookup, type or value error, which becomes a
    ParseError here.  The package's own errors pass through unchanged.
    """
    try:
        yield
    except PrefrevError:
        raise
    except KeyError as exc:
        raise ParseError(f"{source}: missing field {exc.args[0]!r}") from None
    except (TypeError, AttributeError, IndexError, ValueError, OverflowError) as exc:
        raise ParseError(f"{source}: malformed document: {exc}") from None


def scf_from_dict(
    data: dict, base_dir: str = ".", source: str = "scf document"
) -> Scf:
    if not isinstance(data, dict):
        raise ParseError(f"{source} must be a JSON object")
    with decoding(source):
        alts = AlternativeSet(tuple(data["alternatives"]))
        voters = _as_int(data["voters"], "'voters'")
        dom_field = data["domain"]
        if isinstance(dom_field, str):
            domain = parse_domain_file(os.path.join(base_dir, dom_field))
            if domain.alts != alts:
                raise ParseError("referenced domain file uses different alternatives")
        else:
            domain = domain_from_dict(dom_field, alts)
        if domain.n != voters:
            raise ParseError(
                f"'voters' is {voters} but the domain lists {domain.n} voters"
            )
        if "rule" in data:
            rule = data["rule"]
            params = rule_params_from_dict(rule.get("params", {}))
            return builtin(rule["name"], domain, **params)
        if "table" in data:
            values = [alts.index_of(name) for name in data["table"]]
            return Scf.from_table(domain, values)
        raise ParseError("scf document needs either 'rule' or 'table'")


def save_scf(scf: Scf, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(scf_to_dict(scf)))


def load_json(path) -> Any:
    """The JSON document in ``path``; undecodable text is a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from None


def load_scf(path) -> Scf:
    base_dir = os.path.dirname(os.fspath(path)) or "."
    return scf_from_dict(load_json(path), base_dir=base_dir, source=os.fspath(path))
