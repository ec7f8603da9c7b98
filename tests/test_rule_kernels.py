"""The numpy rule kernels against the per-profile rule oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefrev import (
    AlternativeSet,
    Axis,
    Domain,
    FeasibleSet,
    Profile,
    Scf,
    builtin,
    enumerate_single_peaked,
    enumerate_weak_orders,
    parse_order,
    tabulate,
)
from prefrev import scf as scf_module
from prefrev.domains import _parse_preset
from prefrev.properties import CHECKERS, check_pr_apr, report_to_dict
from prefrev.scf import rule_kernel

from conftest import reference_evaluate, reference_table

# Names whose alphabetical order differs from their index order, so the
# paper example's alphabetical tie-break is exercised.
_NAMES = ("x", "b", "ab", "a")


@st.composite
def rule_scfs(draw, voters=6):
    """A rule on a drawn domain of 1 to ``voters`` voters.

    Voters draw their feasible sets from a small pool, so some share one
    set; sets are arbitrary subsets of the weak orders (strict single-peaked
    orders for median-peaks), so tops are often tied.  A cloned rule runs a
    drawn base rule on a society blown up from a few classes.
    """
    k = draw(st.integers(2, 4))
    alts = AlternativeSet(tuple(draw(st.permutations(_NAMES[:k]))))
    builtins = sorted(scf_module.RULE_NAMES)
    name = draw(st.sampled_from(builtins + ["cloned"]))
    base_name = draw(st.sampled_from(builtins)) if name == "cloned" else name
    if base_name == "median-peaks":
        axis = Axis(tuple(draw(st.permutations(range(k)))))
        universe = list(enumerate_single_peaked(k, axis, strict=True))
    else:
        axis = None
        universe = list(enumerate_weak_orders(k))
    subsets = st.lists(st.sampled_from(universe), min_size=1, max_size=6)
    pool = [
        FeasibleSet.explicit(alts, draw(subsets))
        for _ in range(draw(st.integers(1, 3)))
    ]
    n = 2 if base_name == "paper-example" else draw(st.integers(1, voters))
    if name == "cloned":
        classes = draw(st.integers(1, 3))
        assignment = draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
        domain = Domain(tuple(draw(st.sampled_from(pool)) for _ in range(classes)))
        blown = Domain(tuple(domain.feasible[c] for c in assignment))
    else:
        domain = blown = Domain(tuple(draw(st.sampled_from(pool)) for _ in range(n)))
    tiebreak = tuple(draw(st.permutations(range(k))))
    params = {
        "constant": {"alternative": draw(st.integers(0, k - 1))},
        "dictator-tiebreak": {"voter": draw(st.integers(0, n - 1)), "tiebreak": tiebreak},
        "paper-example": {},
        "median-peaks": {"axis": axis},
        "plurality-tiebreak": {"tiebreak": tiebreak},
    }[base_name]
    rule = builtin(base_name, blown, **params).rule
    if name == "cloned":
        return builtin("cloned", domain, base=rule, assignment=assignment)
    return Scf.from_rule(domain, rule)


@st.composite
def rule_cases(draw):
    """``(scf, digit rows)``: a drawn rule, and rows to evaluate."""
    scf = draw(rule_scfs())
    row = st.tuples(*(st.integers(0, len(fs) - 1) for fs in scf.domain.feasible))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return scf, rows


@settings(max_examples=300, deadline=None)
@given(rule_cases())
def test_kernels_match_the_rule_oracle(case):
    scf, rows = case
    outcomes = rule_kernel(scf)(np.array(rows, dtype=np.intp))
    expected = [
        reference_evaluate(
            scf, Profile(tuple(fs[d] for fs, d in zip(scf.domain.feasible, row)))
        )
        for row in rows
    ]
    assert outcomes.tolist() == expected


@settings(max_examples=300, deadline=None)
@given(rule_scfs(voters=4))
def test_tabulate_over_the_classes_matches_the_oracle(scf):
    # Tabulating over the grid of classes gives the table of the
    # per-profile oracle, and of the kernel run on every profile: the
    # tabulation with every voter's whole order read.
    table = tabulate(scf).table.tobytes()
    assert table == reference_table(scf).tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scf_module, "rule_reads", lambda scf: (None,) * scf.domain.n)
        assert tabulate(scf).table.tobytes() == table


def _reports(scf):
    """Every checker's report on ``scf``, PR and APR also from one pass."""
    docs = [report_to_dict(check(scf)) for check in CHECKERS.values()]
    return docs + [report_to_dict(r) for r in check_pr_apr(scf).values()]


def _assert_grid_scans_match_the_whole_table(scf):
    """The checkers give the same reports on the rule's tabulated grid, on
    its table given whole (every voter read whole), and on the grid of
    every voter read whole."""
    table = tabulate(scf)
    expected = _reports(Scf.from_table(scf.domain, table.table))
    assert _reports(table) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scf_module, "rule_reads", lambda scf: (None,) * scf.domain.n)
        assert _reports(tabulate(scf)) == expected


@settings(max_examples=150, deadline=None)
@given(rule_scfs(voters=4))
def test_checkers_on_the_grid_match_the_whole_table(scf):
    _assert_grid_scans_match_the_whole_table(scf)


@pytest.mark.parametrize("cells", [None, 1])
def test_grid_scans_match_on_seeded_keyed_domains(monkeypatch, cells):
    # Plurality and the paper example on 2 or 3 voters with larger sets
    # than the drawn rules: a class holds orders with different after rows,
    # and with one-cell blocks a voter's walk starts a block at the least
    # failing profile another voter has found.
    from prefrev import properties

    if cells is not None:
        monkeypatch.setattr(properties, "_FIRST_CELLS", cells)
        monkeypatch.setattr(properties, "_BLOCK_CELLS", cells)
    rng = random.Random(3)
    for k in (3, 4):
        alts = AlternativeSet.letters(k)
        weak = list(enumerate_weak_orders(k))
        for _ in range(20):
            n = rng.randint(2, 3)
            domain = Domain(tuple(
                FeasibleSet.explicit(alts, rng.sample(weak, rng.randint(2, 6))) for _ in range(n)
            ))
            _assert_grid_scans_match_the_whole_table(
                builtin("plurality-tiebreak", domain, tiebreak=tuple(rng.sample(range(k), k)))
            )
            if n == 2:
                _assert_grid_scans_match_the_whole_table(builtin("paper-example", domain))


def test_a_keyed_voter_with_a_class_per_order_holds_classes():
    # Three strict orders with three tops: plurality reads a key with as
    # many classes as orders, and the grid says so itself; the other voter
    # has two classes of three orders.
    alts = AlternativeSet.letters(3)
    tops = FeasibleSet.explicit(alts, [parse_order(t, alts) for t in ("a>b>c", "b>a>c", "c>a>b")])
    shared = FeasibleSet.explicit(alts, [parse_order(t, alts) for t in ("a>b>c", "a>c>b", "b>a>c")])
    for feasible in ((tops, shared), (shared, tops), (tops, tops, shared)):
        phi = builtin("plurality-tiebreak", Domain(feasible), tiebreak=(2, 1, 0))
        grid = tabulate(phi).grid
        for v, fs in enumerate(feasible):
            assert grid.codes[v] is not None
            assert grid.values.shape[v] == (3 if fs is tops else 2)
        _assert_grid_scans_match_the_whole_table(phi)


def test_a_constant_rule_reads_no_voter():
    alts = AlternativeSet.letters(3)
    domain = Domain.shared(FeasibleSet.universal_weak(alts), 3)
    phi = builtin("constant", domain, alternative=1)
    assert tabulate(phi).grid.values.shape == (1, 1, 1)
    _assert_grid_scans_match_the_whole_table(phi)


def test_grid_scans_on_an_int8_row_numbering():
    # Sets of 75 and 53 orders: 128 rows, numbered in int8; slice bounds
    # must not wrap.
    alts = AlternativeSet.letters(4)
    weak = list(enumerate_weak_orders(4))
    domain = Domain((FeasibleSet.explicit(alts, weak), FeasibleSet.explicit(alts, weak[:53])))
    assert scf_module._order_arrays(domain)[0].dtype == np.int8
    for phi in (
        builtin("plurality-tiebreak", domain), builtin("paper-example", domain),
        builtin("dictator-tiebreak", domain, voter=1),
    ):
        _assert_grid_scans_match_the_whole_table(phi)


def _preset_rules(domain, preset):
    """Every built-in rule ``domain`` admits, with default and reversed
    tie-breaks and the first and last voter as dictator."""
    k, n = domain.k, domain.n
    reverse = tuple(range(k - 1, -1, -1))
    yield builtin("constant", domain, alternative=k - 1)
    for voter in (0, n - 1):
        yield builtin("dictator-tiebreak", domain, voter=voter)
        yield builtin("dictator-tiebreak", domain, voter=voter, tiebreak=reverse)
    yield builtin("plurality-tiebreak", domain)
    yield builtin("plurality-tiebreak", domain, tiebreak=reverse)
    if n == 2:
        yield builtin("paper-example", domain)
    if preset.startswith("@single-peaked-strict"):
        axis = domain.feasible[0].preset.partition("axis=")[2].rstrip(")")
        params = {"axis": axis.split(",")} if axis else {}
        yield builtin("median-peaks", domain, **params)


_PRESETS = [
    (k, preset)
    for k in (2, 3)
    for preset in (
        "@universal-weak", "@universal-strict", "@single-peaked", "@single-peaked-strict",
    )
] + [(3, "@single-peaked-strict(axis=b,a,c)")]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k,preset", _PRESETS)
def test_tabulate_matches_the_reference_table_on_presets(k, n, preset):
    alts = AlternativeSet.letters(k)
    domain = Domain.shared(_parse_preset(preset, alts, line=None), n)
    for phi in _preset_rules(domain, preset):
        table = tabulate(phi).table
        assert table.tobytes() == reference_table(phi).tobytes(), phi.rule


def test_tabulate_matches_the_reference_table_across_blocks():
    # 28,561 profiles: not a multiple of the block rows, so the last block
    # is a short one.
    alts = AlternativeSet.letters(3)
    domain = Domain.shared(FeasibleSet.universal_weak(alts), 4)
    count = domain.profile_count()
    assert count % (scf_module._EVAL_CELLS // domain.n) != 0
    assert count > scf_module._EVAL_CELLS // domain.n
    for phi in _preset_rules(domain, "@universal-weak"):
        assert tabulate(phi).table.tobytes() == reference_table(phi).tobytes(), phi.rule


def test_tabulate_reads_the_last_row_of_an_int8_row_numbering():
    # Sets of 75 and 53 orders: 128 rows, numbered in int8, whose last row
    # ends past int8.
    alts = AlternativeSet.letters(4)
    weak = list(enumerate_weak_orders(4))
    domain = Domain((FeasibleSet.explicit(alts, weak), FeasibleSet.explicit(alts, weak[:53])))
    assert scf_module._order_arrays(domain)[0].dtype == np.int8
    for name in ("plurality-tiebreak", "paper-example"):
        phi = builtin(name, domain)
        assert tabulate(phi).table.tobytes() == reference_table(phi).tobytes(), name


def test_tabulate_blocks_of_a_clone_count_its_class_columns(monkeypatch):
    # A clone's kernel reads one column per class, never one per original
    # voter: its blocks are sized by those columns like any rule's, and
    # every profile is still tabulated once.
    alts = AlternativeSet.letters(3)
    fs = FeasibleSet.universal_weak(alts)
    base = builtin("plurality-tiebreak", Domain.shared(fs, 40)).rule
    clone = builtin(
        "cloned", Domain.shared(fs, 2), base=base, assignment=[0] * 15 + [1] * 25
    )
    monkeypatch.setattr(scf_module, "_EVAL_CELLS", 2 * 7)
    factory = scf_module._RULE_KERNELS["plurality-tiebreak"]
    shapes = []

    def recording(*args):
        kernel = factory(*args)

        def run(digits):
            shapes.append(digits.shape)
            return kernel(digits)

        return run

    monkeypatch.setitem(scf_module._RULE_KERNELS, "plurality-tiebreak", recording)
    table = tabulate(clone).table
    assert [rows for rows, _ in shapes] == [7] * 24 + [1]
    assert {cols for _, cols in shapes} == {2}
    assert table.tobytes() == reference_table(clone).tobytes()


#: Set sizes with one voter, a one-order voter first, in the middle and
#: last, and unequal sets.
_GRIDS = [(5,), (2, 6), (1, 4, 3), (4, 1, 3), (3, 4, 1), (2, 5, 3, 4)]


def _grid_rules(sizes):
    """Every built-in rule and two clones on voters with ``sizes`` orders:
    weak orders at k=4, and strict single-peaked ones for the median."""
    alts = AlternativeSet.letters(4)
    weak = list(enumerate_weak_orders(4))
    strict = list(enumerate_single_peaked(4, Axis.identity(4), strict=True))
    domain = Domain(tuple(FeasibleSet.explicit(alts, weak[5 * v:5 * v + m]) for v, m in enumerate(sizes)))
    peaked = Domain(tuple(FeasibleSet.explicit(alts, strict[v:v + m]) for v, m in enumerate(sizes)))
    n, reverse = len(sizes), (3, 1, 2, 0)
    yield builtin("constant", domain, alternative=2)
    for voter in (0, n - 1):
        yield builtin("dictator-tiebreak", domain, voter=voter, tiebreak=reverse)
    yield builtin("plurality-tiebreak", domain, tiebreak=reverse)
    if n == 2:
        yield builtin("paper-example", domain)
    yield builtin("median-peaks", peaked)
    assignment = [n - 1, 0, 0] + list(range(n))
    for rule, on in (("plurality-tiebreak", domain), ("median-peaks", peaked)):
        blown = Domain(tuple(on.feasible[c] for c in assignment))
        base = builtin(rule, blown).rule
        yield builtin("cloned", on, base=base, assignment=assignment)


def _grid_size(phi):
    """The profiles tabulate runs the kernel on: per voter, one order of
    each class the rule cannot tell apart, counted from the orders."""
    feasible, params = phi.domain.feasible, phi.rule.params
    if phi.rule.name == "constant":
        per_voter = [1] * len(feasible)
    elif phi.rule.name == "dictator-tiebreak":
        per_voter = [len(fs) if v == params["voter"] else 1 for v, fs in enumerate(feasible)]
    elif phi.rule.name == "paper-example":
        per_voter = [len({order.top_set() for order in feasible[0]}), len(feasible[1])]
    elif phi.rule.name in ("plurality-tiebreak", "median-peaks"):
        # A tied top counts in one spare class.
        per_voter = [
            len({top if len(top) == 1 else None for top in (o.top_set() for o in fs)})
            for fs in feasible
        ]
    else:  # a clone reads every class's whole order
        per_voter = [len(fs) for fs in feasible]
    return int(np.prod(per_voter))


@pytest.mark.parametrize("sizes", _GRIDS, ids=lambda sizes: "x".join(map(str, sizes)))
def test_tabulate_builds_digits_from_the_grid(monkeypatch, sizes):
    # The kernel sees one row per point of the grid of classes, in blocks
    # of whole chunks, each chunk's digits its head plus the first chunk's,
    # at every block size from one cell to one block past the profile
    # space.  The clones read whole orders, so their grid is the profile
    # space: one block below and at its count, and many blocks past it,
    # some with a short last one.
    n, count = len(sizes), int(np.prod(sizes))
    rows = []
    factory = scf_module.rule_kernel

    def recording(scf):
        kernel = factory(scf)

        def run(digits):
            rows.append(len(digits))
            return kernel(digits)

        return run

    monkeypatch.setattr(scf_module, "rule_kernel", recording)
    seen = set()
    for phi in _grid_rules(sizes):
        expected, grid = reference_table(phi).tobytes(), _grid_size(phi)
        for cells in [1] + [n * cap for cap in range(1, count + 2)]:
            monkeypatch.setattr(scf_module, "_EVAL_CELLS", cells)
            rows.clear()
            assert tabulate(phi).table.tobytes() == expected, (cells, phi.rule)
            assert sum(rows) == grid and max(rows) * n <= max(cells, n)
            cap = max(1, cells // n)
            regime = (cap > grid) - (cap < grid)
            assert (len(rows) == 1) == (regime >= 0)
            if phi.rule.name == "cloned":
                seen |= {regime, "short last" if rows[-1] < rows[0] else "whole last"}
    assert seen == {-1, 0, 1, "short last", "whole last"}


@st.composite
def clone_cases(draw):
    """``(clone, blown rule scf, class digit rows)``: a built-in rule on a
    society blown up from classes of 1 to 40 voters, and rows to evaluate.

    The median's society is drawn even or odd, so both sides of the left
    median are met; the paper example has two voters in one or two classes.
    """
    k = draw(st.integers(2, 5))
    alts = AlternativeSet.letters(k)
    name = draw(st.sampled_from(sorted(scf_module.RULE_NAMES)))
    if name == "median-peaks":
        axis = Axis(tuple(draw(st.permutations(range(k)))))
        universe = list(enumerate_single_peaked(k, axis, strict=True))
    else:
        universe = list(enumerate_weak_orders(k))
    subsets = st.lists(st.sampled_from(universe), min_size=1, max_size=8)
    if name == "paper-example":
        sizes = draw(st.sampled_from([[2], [1, 1]]))
    else:
        sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
        if name == "median-peaks" and sum(sizes) % 2 != draw(st.integers(0, 1)):
            sizes[0] += 1
    classes = Domain(tuple(
        FeasibleSet.explicit(alts, draw(subsets)) for _ in sizes
    ))
    assignment = draw(st.permutations(
        [c for c, size in enumerate(sizes) for _ in range(size)]
    ))
    blown = Domain(tuple(classes.feasible[c] for c in assignment))
    tiebreak = tuple(draw(st.permutations(range(k))))
    params = {
        "constant": {"alternative": draw(st.integers(0, k - 1))},
        "dictator-tiebreak": {
            "voter": draw(st.integers(0, blown.n - 1)), "tiebreak": tiebreak,
        },
        "paper-example": {},
        "median-peaks": {"axis": axis if name == "median-peaks" else None},
        "plurality-tiebreak": {"tiebreak": tiebreak},
    }[name]
    phi = builtin(name, blown, **params)
    clone = builtin("cloned", classes, base=phi.rule, assignment=assignment)
    row = st.tuples(*(st.integers(0, len(fs) - 1) for fs in classes.feasible))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return clone, phi, np.array(rows, dtype=np.intp)


@settings(max_examples=300, deadline=None)
@given(clone_cases())
def test_clone_kernels_match_the_blown_up_society(case):
    # The clone's kernel reads the class columns, with the class sizes as
    # voter counts; the base rule's kernel reads every voter's column, and
    # the oracle evaluates every voter's order.
    clone, phi, rows = case
    assignment = np.array(clone.rule.params["assignment"])
    outcomes = rule_kernel(clone)(rows).tolist()
    assert outcomes == rule_kernel(phi)(rows[:, assignment]).tolist()
    blown = [
        Profile(tuple(fs[d] for fs, d in zip(phi.domain.feasible, row)))
        for row in rows[:, assignment]
    ]
    assert outcomes == [reference_evaluate(phi, profile) for profile in blown]
