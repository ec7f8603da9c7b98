"""Order representation, comparison, enumeration, and the text notation."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefrev import (
    AlternativeSet,
    Axis,
    ConstructionError,
    ParseError,
    Relation,
    ResourceGuardError,
    WeakOrder,
    enumerate_single_peaked,
    enumerate_strict_orders,
    enumerate_weak_orders,
    format_order,
    is_single_peaked,
    parse_alternatives,
    parse_order,
    peak_position,
    prefers,
    weak_order_from_levels,
)


def ordered_bell(n):
    # a(0) = 1, a(n) = sum_{j=1..n} C(n, j) * a(n - j)
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, j) * a[m - j] for j in range(1, m + 1)))
    return a[n]


def naive_single_peaked(order, axis):
    # Definition scan: unique top; closer to the peak on the same side is
    # strictly better; nothing is required across sides.
    tops = order.top_set()
    if len(tops) != 1:
        return False
    peak = axis.positions[next(iter(tops))]
    seq = [order.ranks[x] for x in axis.order]
    for x in range(len(seq)):
        for y in range(x + 1, len(seq)):
            if peak <= x and not seq[x] < seq[y]:
                return False
            if y <= peak and not seq[y] < seq[x]:
                return False
    return True


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_from_levels_encoding():
    assert weak_order_from_levels([[0, 1], [2]]).ranks == (0, 0, 1)
    assert weak_order_from_levels([[0], [1], [2]]).ranks == (0, 1, 2)


def test_from_levels_duplicate():
    with pytest.raises(ConstructionError, match="alternative 0 in two levels"):
        weak_order_from_levels([[0], [0, 1]])


def test_from_levels_empty_and_missing():
    with pytest.raises(ConstructionError, match="empty"):
        weak_order_from_levels([[0], []], k=2)
    with pytest.raises(ConstructionError, match="missing"):
        weak_order_from_levels([[0], [2]], k=3)


def test_rank_vector_must_be_contiguous():
    with pytest.raises(ConstructionError):
        WeakOrder((0, 2))
    with pytest.raises(ConstructionError):
        WeakOrder((1, 1))
    with pytest.raises(ConstructionError):
        WeakOrder(())


def test_weak_order_hash_is_the_dataclass_hash_kept_after_the_first_lookup():
    import copy
    import pickle

    orders = list(enumerate_weak_orders(3))
    for order in orders:
        assert "_hash" not in vars(order)
        assert hash(order) == hash((order.ranks,)) == order.__dict__["_hash"]
        for twin in (copy.deepcopy(order), pickle.loads(pickle.dumps(order)),
                     WeakOrder(order.ranks)):
            assert twin == order and hash(twin) == hash(order)
    # The same values as the dataclass's hash, so sets iterate as before.
    assert list(set(orders)) == list(set(WeakOrder(o.ranks) for o in orders))
    assert repr(orders[0]) == "WeakOrder(ranks=(0, 0, 0))"


def test_alternative_set_validation():
    with pytest.raises(ConstructionError):
        AlternativeSet(("a", "a"))
    with pytest.raises(ConstructionError):
        AlternativeSet(("a", "b c"))
    with pytest.raises(ConstructionError):
        AlternativeSet(())
    assert AlternativeSet.letters(3).names == ("a", "b", "c")
    assert AlternativeSet.numbered(2).names == ("1", "2")
    # ranks are stored as int8: 128 alternatives fit, 129 do not
    assert AlternativeSet.numbered(128).k == 128
    with pytest.raises(ConstructionError, match="at most 128"):
        AlternativeSet.numbered(129)
    # default names are letters up to 26, then numbers; below 1 there are none
    for k in (0, -3):
        with pytest.raises(ConstructionError, match="^need at least one alternative$"):
            AlternativeSet.default(k)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def test_prefers_trichotomy_examples(abc):
    w = parse_order("a~b>c", abc)
    assert prefers(w, 0, 1) is Relation.INDIFFERENT
    assert prefers(w, 0, 2) is Relation.STRICTLY_BETTER
    assert prefers(w, 2, 0) is Relation.STRICTLY_WORSE


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_prefers_is_complete_and_transitive(k):
    for order in enumerate_weak_orders(k):
        for x in range(k):
            for y in range(k):
                rel = prefers(order, x, y)
                back = prefers(order, y, x)
                if rel is Relation.STRICTLY_BETTER:
                    assert back is Relation.STRICTLY_WORSE
                elif rel is Relation.INDIFFERENT:
                    assert back is Relation.INDIFFERENT
        for x, y, z in itertools.product(range(k), repeat=3):
            if order.weakly_prefers(x, y) and order.weakly_prefers(y, z):
                assert order.weakly_prefers(x, z)


def test_top_set_and_lower_contour(abc):
    assert parse_order("a~b>c", abc).top_set() == {0, 1}
    assert parse_order("a>b>c", abc).top_set() == {0}
    assert parse_order("a~b~c", abc).top_set() == {0, 1, 2}
    assert parse_order("a~b>c", abc).lower_contour(0) == {1, 2}
    assert parse_order("a>b>c", abc).lower_contour(2) == set()
    # oracle: everything x is not strictly worse than, minus x itself
    w = parse_order("a>b~c", abc)
    oracle = {
        y for y in range(3)
        if y != 1 and prefers(w, 1, y) is not Relation.STRICTLY_WORSE
    }
    assert w.lower_contour(1) == oracle == {2}


def test_top_set_characterization():
    for k in (1, 2, 3, 4):
        everything = set(range(k))
        for order in enumerate_weak_orders(k):
            expected = {
                x for x in range(k)
                if order.lower_contour(x) | {x} == everything
            }
            assert order.top_set() == expected


def test_invert(abc):
    assert format_order(parse_order("a>b>c", abc).invert(), abc) == "c>b>a"
    assert format_order(parse_order("a~b>c", abc).invert(), abc) == "c>a~b"
    flat = parse_order("a~b~c", abc)
    assert flat.invert() == flat


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_invert_is_involution(k):
    for order in enumerate_weak_orders(k):
        assert order.invert().invert() == order


def test_is_strict(abc):
    assert parse_order("a>b>c", abc).is_strict()
    assert not parse_order("a~b>c", abc).is_strict()
    assert WeakOrder((0,)).is_strict()


# ---------------------------------------------------------------------------
# single-peakedness
# ---------------------------------------------------------------------------


def test_single_peaked_examples():
    alts = AlternativeSet.numbered(3)
    axis = Axis.identity(3)
    assert is_single_peaked(parse_order("2>3>1", alts), axis)
    assert not is_single_peaked(parse_order("1>3>2", alts), axis)
    assert is_single_peaked(parse_order("2>1~3", alts), axis)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_single_peaked_matches_definition_scan(k):
    identity = Axis.identity(k)
    shuffled = Axis(tuple(reversed(range(k))))
    for order in enumerate_weak_orders(k):
        assert is_single_peaked(order, identity) == naive_single_peaked(order, identity)
        assert is_single_peaked(order, shuffled) == naive_single_peaked(order, shuffled)


def test_peak_position():
    alts = AlternativeSet.numbered(3)
    axis = Axis.identity(3)
    assert peak_position(parse_order("2>3>1", alts), axis) == 1
    assert peak_position(parse_order("1~2>3", alts), axis) is None


def test_axis_validation():
    with pytest.raises(ConstructionError):
        Axis((0, 0, 1))
    assert Axis((2, 0, 1)).positions == (1, 2, 0)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 3), (3, 13), (4, 75), (5, 541), (6, 4683)])
def test_weak_order_counts_match_recurrence(k, expected):
    assert ordered_bell(k) == expected
    orders = list(enumerate_weak_orders(k))
    assert len(orders) == expected
    assert len(set(orders)) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_weak_order_enumeration_is_lexicographic(k):
    ranks = [order.ranks for order in enumerate_weak_orders(k)]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_strict_orders(k):
    orders = list(enumerate_strict_orders(k))
    assert len(orders) == math.factorial(k)
    assert all(order.is_strict() for order in orders)
    weak = [o for o in enumerate_weak_orders(k) if o.is_strict()]
    assert sorted(orders, key=lambda o: o.ranks) == weak


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError):
        list(enumerate_weak_orders(9))
    with pytest.raises(ResourceGuardError):
        list(enumerate_strict_orders(9))
    with pytest.raises(ConstructionError):
        list(enumerate_weak_orders(0))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_single_peaked_strict_counts(k):
    orders = list(enumerate_single_peaked(k, strict=True))
    assert len(orders) == 2 ** (k - 1)
    brute = [
        o for o in enumerate_strict_orders(k)
        if naive_single_peaked(o, Axis.identity(k))
    ]
    assert set(orders) == set(brute)


def test_single_peaked_weak_count_matches_scan():
    axis = Axis.identity(3)
    brute = [o for o in enumerate_weak_orders(3) if naive_single_peaked(o, axis)]
    assert list(enumerate_single_peaked(3)) == brute
    assert len(brute) == 5


def test_single_peaked_counts_are_axis_independent():
    # relabeling the axis permutes the family, never changes its size
    for axis in (Axis((1, 3, 0, 2)), Axis((3, 2, 1, 0))):
        assert sum(1 for _ in enumerate_single_peaked(4, axis, strict=True)) == 8
        assert sum(1 for _ in enumerate_single_peaked(4, axis)) == sum(
            1 for _ in enumerate_single_peaked(4)
        )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_single_peaked_enumeration_is_the_filtered_universe(k):
    # Grown from the peak, the family must be exactly the universal
    # enumeration filtered by is_single_peaked, in the same order.
    rng = random.Random(k)
    axes = [Axis.identity(k), Axis(tuple(reversed(range(k))))]
    axes += [Axis(tuple(rng.sample(range(k), k))) for _ in range(3)]
    weak, strict = list(enumerate_weak_orders(k)), list(enumerate_strict_orders(k))
    for axis in axes:
        for universe, is_strict in ((weak, False), (strict, True)):
            want = [order for order in universe if is_single_peaked(order, axis)]
            assert list(enumerate_single_peaked(k, axis, strict=is_strict)) == want


# ---------------------------------------------------------------------------
# notation
# ---------------------------------------------------------------------------


def test_parse_format_round_trip():
    for k in (1, 2, 3, 4):
        alts = AlternativeSet.letters(k)
        for order in enumerate_weak_orders(k):
            assert parse_order(format_order(order, alts), alts) == order


def test_parse_ignores_whitespace(abc):
    assert parse_order(" a ~ b > c ", abc) == parse_order("a~b>c", abc)


def test_parse_errors(abc):
    with pytest.raises(ParseError, match="unknown alternative"):
        parse_order("a~b>d", abc)
    with pytest.raises(ParseError, match="twice"):
        parse_order("a~a>b~c", abc)
    with pytest.raises(ParseError, match="empty level"):
        parse_order("a>>b~c", abc)
    with pytest.raises(ParseError, match="does not mention"):
        parse_order("a>b", abc)


def test_parse_alternatives():
    assert parse_alternatives("a, b ,c").names == ("a", "b", "c")
    with pytest.raises(ParseError):
        parse_alternatives("a,,b")
    with pytest.raises(ParseError):
        parse_alternatives("a,a")


# ---------------------------------------------------------------------------
# properties (randomized)
# ---------------------------------------------------------------------------


@st.composite
def weak_orders(draw, max_k=6):
    k = draw(st.integers(1, max_k))
    raw = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    # dense-rank the raw scores to get a contiguous rank vector
    scale = sorted(set(raw))
    return WeakOrder(tuple(scale.index(r) for r in raw))


@given(weak_orders())
@settings(max_examples=200, deadline=None)
def test_random_orders_satisfy_invariants(order):
    values = set(order.ranks)
    assert values == set(range(len(values)))
    assert order.invert().invert() == order
    assert order.top_set()
    alts = AlternativeSet.default(order.k)
    assert parse_order(format_order(order, alts), alts) == order
