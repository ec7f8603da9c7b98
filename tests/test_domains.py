"""Resolvent constructions, completeness decisions, and the domain file format."""

import itertools
import random

import numpy as np
import pytest

from conftest import reference_is_complete
from prefrev import domains
from prefrev.domains import certificates, parse_domain_file, parse_profile_file
from prefrev import (
    AlternativeSet,
    ArgumentError,
    Axis,
    Domain,
    FeasibleSet,
    ParseError,
    ResourceGuardError,
    admissible_pair,
    enumerate_single_peaked,
    enumerate_weak_orders,
    find_resolvent,
    format_domain,
    format_order,
    is_complete,
    is_resolvent,
    is_single_peaked,
    make_sp_resolvent,
    make_w_ab,
    make_w_prime,
    parse_alternatives,
    parse_domain_text,
    parse_order,
    resolves_indifference_at,
    with_w_ab_completion,
)


def admissible_quadruples(k):
    orders = list(enumerate_weak_orders(k))
    for p, q in itertools.product(orders, repeat=2):
        for a in range(k):
            for b in range(k):
                if a != b and admissible_pair(p, q, a, b):
                    yield p, q, a, b


# ---------------------------------------------------------------------------
# resolving indifference
# ---------------------------------------------------------------------------


def test_resolves_indifference_examples(abc):
    assert resolves_indifference_at(
        parse_order("a>b>c", abc), parse_order("a~b~c", abc), 0
    )
    assert not resolves_indifference_at(
        parse_order("a~b>c", abc), parse_order("a~b>c", abc), 0
    )
    # only c sits weakly below a here, and it drops strictly below
    assert resolves_indifference_at(
        parse_order("b>a>c", abc), parse_order("b>a>c", abc), 0
    )


def test_is_resolvent_paper_example(abc):
    w = parse_order("a>b>c", abc)
    q = parse_order("a>b>c", abc)
    for p in enumerate_weak_orders(3):
        assert is_resolvent(w, 0, 1, p, q)


def test_is_resolvent_impossible_pair(abc):
    # a weakly above b in p and b weakly above a in q: no w can resolve both
    p = parse_order("a~b>c", abc)
    q = parse_order("b>a>c", abc)
    assert admissible_pair(p, q, 0, 1) is False
    for w in enumerate_weak_orders(3):
        assert not is_resolvent(w, 0, 1, p, q)


def test_is_resolvent_all_indifferent(abc):
    flat = parse_order("a~b~c", abc)
    p = parse_order("a~b>c", abc)
    assert not is_resolvent(flat, 0, 2, p, p)


def test_is_resolvent_rejects_equal_pair(abc):
    w = parse_order("a>b>c", abc)
    with pytest.raises(ArgumentError):
        is_resolvent(w, 1, 1, w, w)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_make_w_ab_examples():
    abcd = AlternativeSet.letters(4)
    assert format_order(make_w_ab(0, 1, 4), abcd) == "a>b>c~d"
    abc = AlternativeSet.letters(3)
    assert format_order(make_w_ab(1, 0, 3), abc) == "b>a>c"
    ab = AlternativeSet.letters(2)
    assert format_order(make_w_ab(0, 1, 2), ab) == "a>b"
    with pytest.raises(ArgumentError):
        make_w_ab(1, 1, 3)


@pytest.mark.parametrize("k", [2, 3])
def test_make_w_ab_resolves_exhaustively(k):
    for p, q, a, b in admissible_quadruples(k):
        if q.strictly_prefers(a, b):
            assert is_resolvent(make_w_ab(a, b, k), a, b, p, q)
        if p.strictly_prefers(b, a):
            assert is_resolvent(make_w_ab(b, a, k), a, b, p, q)


def test_make_w_prime_example():
    abcd = AlternativeSet.letters(4)
    p = parse_order("a~c>b>d", abcd)
    q = parse_order("a>b>c~d", abcd)
    w = make_w_prime(0, 1, p, q)
    assert format_order(w, abcd) == "a>b>c~d"
    assert is_resolvent(w, 0, 1, p, q)


def test_make_w_prime_two_alternatives():
    ab = AlternativeSet.letters(2)
    w = make_w_prime(0, 1, parse_order("a~b", ab), parse_order("a>b", ab))
    assert format_order(w, ab) == "a>b"


def test_make_w_prime_empty_bottom(abc):
    # b at the very bottom of q: its lower contour is empty, block omitted
    p = parse_order("a>c>b", abc)
    q = parse_order("a>c>b", abc)
    w = make_w_prime(0, 1, p, q)
    assert is_resolvent(w, 0, 1, p, q)
    assert w.ranks[1] == max(w.ranks)


def test_make_w_prime_precondition(abc):
    p = parse_order("a~b~c", abc)
    q = parse_order("b>a>c", abc)
    with pytest.raises(ArgumentError):
        make_w_prime(0, 1, p, q)


@pytest.mark.parametrize("k", [2, 3])
def test_make_w_prime_resolves_exhaustively(k):
    for p, q, a, b in admissible_quadruples(k):
        if q.strictly_prefers(a, b):
            assert is_resolvent(make_w_prime(a, b, p, q), a, b, p, q)
        elif p.strictly_prefers(b, a):
            assert is_resolvent(make_w_prime(b, a, q, p), a, b, p, q)


def test_make_sp_resolvent_frozen_examples():
    alts = AlternativeSet.numbered(5)
    # top b=2 left of a=4
    p = parse_order("2>3>4>5>1", alts)
    q = parse_order("4>5>3>2>1", alts)
    w = make_sp_resolvent(3, 1, p, q)
    assert format_order(w, alts) == "2>3>4>5>1"
    # top b=4 right of a=2
    p2 = parse_order("4>5>3>2>1", alts)
    q2 = parse_order("2>3>4>5>1", alts)
    w2 = make_sp_resolvent(1, 3, p2, q2)
    assert format_order(w2, alts) == "4>3>2>5>1"


def test_make_sp_resolvent_two_alternatives():
    alts = AlternativeSet.numbered(2)
    p = parse_order("2>1", alts)
    q = parse_order("1>2", alts)
    w = make_sp_resolvent(0, 1, p, q)
    assert format_order(w, alts) == "2>1"


def test_make_sp_resolvent_preconditions():
    alts = AlternativeSet.numbered(3)
    not_sp = parse_order("1>3>2", alts)
    sp = parse_order("2>3>1", alts)
    with pytest.raises(ArgumentError):
        make_sp_resolvent(0, 2, not_sp, sp)
    # inadmissible: a weakly above b in p, b weakly above a in q
    with pytest.raises(ArgumentError):
        make_sp_resolvent(1, 2, parse_order("2>3>1", alts), parse_order("3>2>1", alts))


def test_make_sp_resolvent_on_shuffled_axis():
    axis = Axis((2, 0, 3, 1))
    orders = list(enumerate_single_peaked(4, axis, strict=True))
    assert len(orders) == 8
    for p, q in itertools.product(orders, repeat=2):
        for a in range(4):
            for b in range(4):
                if a == b or not admissible_pair(p, q, a, b):
                    continue
                w = make_sp_resolvent(a, b, p, q, axis)
                assert is_resolvent(w, a, b, p, q)
                assert is_single_peaked(w, axis)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_make_sp_resolvent_exhaustive(k):
    axis = Axis.identity(k)
    orders = list(enumerate_single_peaked(k, axis, strict=True))
    for p, q in itertools.product(orders, repeat=2):
        for a in range(k):
            for b in range(k):
                if a == b or not admissible_pair(p, q, a, b):
                    continue
                w = make_sp_resolvent(a, b, p, q, axis)
                # constructor post-validates; re-assert through the public oracles
                assert is_resolvent(w, a, b, p, q)


# ---------------------------------------------------------------------------
# find_resolvent / is_complete
# ---------------------------------------------------------------------------


def test_find_resolvent_universal(abc):
    fs = FeasibleSet.universal_weak(abc)
    for p, q, a, b in admissible_quadruples(3):
        assert find_resolvent(fs, a, b, p, q) is not None


def test_find_resolvent_returns_canonical_first(abc):
    fs = FeasibleSet.universal_weak(abc)
    p = parse_order("a~b~c", abc)
    q = parse_order("a>b>c", abc)
    found = find_resolvent(fs, 0, 1, p, q)
    scan = next(w for w in fs if is_resolvent(w, 0, 1, p, q))
    assert found == scan


def test_find_resolvent_absent_and_errors(abc):
    only = parse_order("a~b>c", abc)
    fs = FeasibleSet.explicit(abc, [only])
    assert find_resolvent(fs, 0, 2, only, only) is None
    with pytest.raises(ArgumentError):
        find_resolvent(fs, 0, 2, parse_order("a>b>c", abc), only)
    # inadmissible quadruple: absent for every feasible set
    full = FeasibleSet.universal_weak(abc)
    p = parse_order("a~b>c", abc)
    assert find_resolvent(full, 0, 1, p, p) is None


def test_is_complete_universal_weak(abc):
    report = is_complete(FeasibleSet.universal_weak(abc))
    assert report.complete and report.gap is None


def test_is_complete_universal_strict(abc):
    assert is_complete(FeasibleSet.universal_strict(abc)).complete


def test_is_complete_single_peaked_strict():
    alts = AlternativeSet.numbered(5)
    fs = FeasibleSet.single_peaked(alts, strict=True)
    assert is_complete(fs).complete


def test_is_complete_singleton_gap(abc):
    only = parse_order("a~b>c", abc)
    report = is_complete(FeasibleSet.explicit(abc, [only]))
    assert not report.complete
    assert report.gap.p == only and report.gap.q == only
    assert (report.gap.a, report.gap.b) == (0, 2)


def test_with_w_ab_completion(abc):
    base = FeasibleSet.explicit(abc, [parse_order("a~b>c", abc)])
    assert not is_complete(base).complete
    assert is_complete(with_w_ab_completion(base)).complete


def test_is_complete_decides_universal_weak_k5():
    # 541 orders: 541^2 * 5^2 * 68 = 497,557,700 byte ANDs, inside the guard.
    report = is_complete(FeasibleSet.universal_weak(AlternativeSet.letters(5)))
    assert (report.complete, report.gap, report.checked) == (True, None, 3_956_340)


def test_is_complete_guard():
    fs = FeasibleSet.universal_weak(AlternativeSet.letters(6))
    message = "completeness pass needs 462645595944 byte ANDs, guard is 1000000000"
    with pytest.raises(ResourceGuardError) as info:
        is_complete(fs)
    assert str(info.value) == message


def _report(report):
    return report.complete, report.gap, report.checked


def _preset_sets():
    for k in range(1, 6):
        alts = AlternativeSet.letters(k)
        yield FeasibleSet.universal_weak(alts)
        yield FeasibleSet.universal_strict(alts)
        for strict in (False, True):
            yield FeasibleSet.single_peaked(alts, strict=strict)
            reversed_axis = Axis(tuple(reversed(range(k))))
            yield FeasibleSet.single_peaked(alts, reversed_axis, strict=strict)
    alts = AlternativeSet.letters(4)
    shuffled = Axis((2, 0, 3, 1))
    yield FeasibleSet.single_peaked(alts, shuffled)
    yield FeasibleSet.single_peaked(alts, shuffled, strict=True)
    for base in (
        FeasibleSet.explicit(alts, [parse_order("a~b>c~d", alts)]),
        FeasibleSet.single_peaked(alts, shuffled, strict=True),
        FeasibleSet.explicit(
            AlternativeSet.letters(5), [parse_order("a~b~c>d>e", AlternativeSet.letters(5))]
        ),
    ):
        yield with_w_ab_completion(base)


def test_is_complete_matches_the_loop_on_every_preset():
    for fs in _preset_sets():
        assert _report(is_complete(fs)) == _report(reference_is_complete(fs)), fs.preset


def test_is_complete_matches_the_loop_on_random_subsets(monkeypatch):
    rng = random.Random(20260419)
    universes = [FeasibleSet.universal_weak(AlternativeSet.letters(k)) for k in (3, 4)]
    gaps = 0
    for _ in range(300):
        full = rng.choice(universes)
        size = rng.randint(1, min(30, len(full)))
        fs = FeasibleSet.explicit(full.alts, rng.sample(full.orders, size))
        expected = _report(reference_is_complete(fs))
        gaps += not expected[0]
        for words in (domains._BLOCK_WORDS, 1, 40, 1000):
            monkeypatch.setattr(domains, "_BLOCK_WORDS", words)
            assert _report(is_complete(fs)) == expected
    assert 0 < gaps < 300


def test_is_complete_gap_in_the_first_and_the_last_block(abc, monkeypatch):
    # One (p, q) pair a block: the first gap sits in block p * m + q.
    monkeypatch.setattr(domains, "_BLOCK_WORDS", 1)
    first = FeasibleSet.explicit(abc, [parse_order("a~b>c", abc)] + [
        parse_order(text, abc) for text in ("a>b>c", "c>b>a")
    ])
    last = FeasibleSet.explicit(
        abc, [parse_order(text, abc) for text in ("a>b>c", "b>a>c", "c>a~b")]
    )
    for fs, pair in ((first, (0, 0)), (last, (2, 2))):
        report = is_complete(fs)
        assert (fs.index_of(report.gap.p), fs.index_of(report.gap.q)) == pair
        assert _report(report) == _report(reference_is_complete(fs))
    assert is_complete(last).checked == 35
    # A (p, q) pair is 9 words here: blocks of 1 and 2 pairs, one p row
    # (3 pairs), two p rows and every pair.
    for words in (9, 18, 27, 54, 81):
        monkeypatch.setattr(domains, "_BLOCK_WORDS", words)
        for fs in (first, last):
            assert _report(is_complete(fs)) == _report(reference_is_complete(fs))


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------


def test_domain_counts_and_guards(abc):
    fs = FeasibleSet.universal_weak(abc)
    domain = Domain.shared(fs, 2)
    assert domain.profile_count() == 169
    assert domain.require_enumerable() == 169
    big = Domain.shared(fs, 8)
    assert big.profile_count() == 13**8
    with pytest.raises(ResourceGuardError):
        big.require_enumerable()


def test_domain_rejects_mixed_alternatives(abc):
    other = AlternativeSet.letters(4)
    with pytest.raises(Exception):
        Domain((FeasibleSet.universal_weak(abc), FeasibleSet.universal_weak(other)))


def test_feasible_set_canonical_order(abc):
    a, b = parse_order("a>b>c", abc), parse_order("a~b>c", abc)
    fs = FeasibleSet.explicit(abc, [a, b, a])
    assert fs.orders == (b, a)  # sorted by rank vector, deduplicated
    assert fs.index_of(a) == 1
    assert b in fs


# ---------------------------------------------------------------------------
# domain files
# ---------------------------------------------------------------------------

GOOD_FILE = """\
alternatives: a,b,c
voter 1: @universal-weak
voter 2:
a~b>c
c>a~b
"""


def test_parse_domain_text():
    domain = parse_domain_text(GOOD_FILE)
    assert domain.n == 2
    assert len(domain.feasible[0]) == 13
    assert len(domain.feasible[1]) == 2
    assert domain.feasible[0].preset == "@universal-weak"


def test_parse_domain_presets():
    text = (
        "alternatives: 1,2,3\n"
        "voter 1: @single-peaked(axis=1..3)\n"
        "voter 2: @single-peaked-strict\n"
        "voter 3: @universal-strict\n"
    )
    domain = parse_domain_text(text)
    assert len(domain.feasible[0]) == 5
    assert len(domain.feasible[1]) == 4
    assert len(domain.feasible[2]) == 6


def test_parse_domain_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_domain_text("voters: a,b\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_domain_text("alternatives: a,b\nvoter 1:\na>>b\n")
    with pytest.raises(ParseError, match="expected 'voter 1:'"):
        parse_domain_text("alternatives: a,b\nvoter 2:\na>b\n")
    with pytest.raises(ParseError, match="no orders"):
        parse_domain_text("alternatives: a,b\nvoter 1:\n")
    with pytest.raises(ParseError, match="unknown preset"):
        parse_domain_text("alternatives: a,b\nvoter 1: @weird\n")


def test_voters_naming_one_preset_token_share_one_set():
    text = (
        "alternatives: a,b,c\n"
        "voter 1: @universal-weak\nvoter 2: @single-peaked\n"
        "voter 3: @universal-weak\nvoter 4:\na>b>c\nvoter 5: @universal-weak\n"
    )
    domain = parse_domain_text(text)
    weak = domain.feasible[0]
    assert domain.feasible[2] is weak and domain.feasible[4] is weak
    assert domain.feasible[1] is not weak
    assert format_domain(domain) == text
    assert domain.distinct == ((weak, domain.feasible[1], domain.feasible[3]), (0, 1, 0, 2, 0))


def test_distinct_sets_by_equality_identity_first(abc, monkeypatch):
    weak, copy = FeasibleSet.universal_weak(abc), FeasibleSet.universal_weak(abc)
    strict = FeasibleSet.universal_strict(abc)
    domain = Domain((strict, weak, copy, strict, weak))
    assert domain.distinct == ((strict, weak), (0, 1, 1, 0, 1))
    assert domain.distinct[0][1] is weak
    assert not domain.is_shared() and Domain((weak, copy)).is_shared()
    # A shared object is never compared field by field, and nothing is hashed.
    monkeypatch.setattr(FeasibleSet, "__eq__", lambda self, other: 1 / 0)
    monkeypatch.setattr(FeasibleSet, "__hash__", lambda self: 1 / 0)
    assert Domain((weak,) * 4).distinct == ((weak,), (0, 0, 0, 0))


def test_rank_rows_are_the_rank_vectors_read_only(abc):
    for fs in (FeasibleSet.universal_weak(abc), FeasibleSet.single_peaked(abc)):
        rows = fs.rank_rows
        assert rows.dtype == np.int8
        assert rows.tolist() == [list(order.ranks) for order in fs]
        assert fs.rank_rows is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 1


def test_format_domain_round_trip():
    domain = parse_domain_text(GOOD_FILE)
    text = format_domain(domain)
    again = parse_domain_text(text)
    assert again == domain
    assert format_domain(again) == text


def test_comments_and_blank_lines_ignored():
    text = "# header\nalternatives: a,b\n\nvoter 1:  # block\na>b\nb>a\n"
    domain = parse_domain_text(text)
    assert len(domain.feasible[0]) == 2


def test_profile_file_reads_counts_and_names_that_end_in_x(tmp_path):
    path = tmp_path / "p.profile"
    # ``1x>2x>3x`` is one order: its digits are not followed by x and space.
    path.write_text(
        "# society\nalternatives: 1x,2x,3x\n1x>2x>3x\n\n"
        "2x 2x>1x>3x  # two voters\n3 x 3x~2x>1x\n"
    )
    alts = parse_alternatives("1x,2x,3x")
    expected = ["1x>2x>3x"] + ["2x>1x>3x"] * 2 + ["3x~2x>1x"] * 3
    assert parse_profile_file(path, alts, 6) == tuple(
        parse_order(text, alts) for text in expected
    )
    path.write_text("alternatives: 1,2,3\n40 x 2>3>1\n1>2>3\n")
    alts = parse_alternatives("1,2,3")
    orders = parse_profile_file(path, alts, 41)
    assert orders == (parse_order("2>3>1", alts),) * 40 + (parse_order("1>2>3", alts),)


@pytest.mark.parametrize(
    "text, message",
    [
        ("alternatives: a,b,c\na>b>c\n1 x a>z>c\n", "line 3: unknown alternative 'z'"),
        ("alternatives: a,b,c\n\n# c\n2x a>>c\n", "line 4: empty level in order 'a>>c'"),
        ("a>b>c\n", "line 1: expected header line 'alternatives: ...'"),
        ("alternatives: a,,c\n", "line 1: empty alternative name in 'a,,c'"),
        ("alternatives: a,c,b\na>b>c\n", "alternatives do not match the scf"),
        ("alternatives: a,b,c\n# none\n", "no orders found"),
        ("# none\n", "empty file: missing 'alternatives:' header"),
        # A count is checked against the scf's 3 voters before it is expanded.
        ("alternatives: a,b,c\n2 x a>b>c\nc>b>a\nb>a>c\n",
         "line 4: 4 voters so far; the scf has 3"),
        ("alternatives: a,b,c\n100000000000 x a>b>c\n",
         "line 2: 100000000000 voters so far; the scf has 3"),
        ("alternatives: a,b,c\n2 x a>b>c\n", "the scf has 3 voters; the file lists 2"),
        ("alternatives: a,b,c\r\n\na>b\udcff>c\n",
         "line 3: byte 0xff is not UTF-8 (invalid start byte)"),
        ("alternatives: a,b,c\f\n\u2028\na>b\udcff>c\n",
         "line 3: byte 0xff is not UTF-8 (invalid start byte)"),
        ("alternatives: a,b,c\x85\n3 x a>>c\n", "line 2: empty level in order 'a>>c'"),
    ],
)
def test_profile_file_errors_name_the_file_and_the_line(tmp_path, text, message):
    path = tmp_path / "p.profile"
    # Lone surrogates stand for bytes that are not UTF-8.
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as exc:
        parse_profile_file(path, parse_alternatives("a,b,c"), 3)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "data, message",
    [
        (b"alternatives: a,b\nvoter 1:\na>>b\n", "line 3: empty level in order 'a>>b'"),
        (b"alternatives: a,b\nvoter 1:\nb>a\na\xe9>b\n",
         "line 4: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
        # Lines end only at \r\n, \r and \n: form feeds, vertical tabs,
        # \x1c-\x1e, \x85 and U+2028/2029 do not end one.
        (b"alternatives: a,b\f\nvoter 1:\na>>b\n", "line 3: empty level in order 'a>>b'"),
        (b"# x\xc2\x85y\xe2\x80\xa8z\xe2\x80\xa9\nalternatives: a,b\r\nvoter 1:\na>>b\n",
         "line 4: empty level in order 'a>>b'"),
        (b"alternatives: a,b\x0b\x1c\x1d\x1e\rvoter 1:\r\nb>a\f\na\xe9>b\n",
         "line 4: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    ],
)
def test_domain_file_errors_name_the_file_and_the_line(tmp_path, data, message):
    path = tmp_path / "d.domain"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        parse_domain_file(path)
    assert str(exc.value) == f"{path}: {message}"


def test_certificates_one_per_distinct_set_in_first_voter_order(abc, monkeypatch):
    a = FeasibleSet.universal_strict(abc)
    b = FeasibleSet.explicit(abc, [parse_order("a~b>c", abc)])
    c = FeasibleSet.universal_weak(abc)
    # Voter 3's set is a copy of voter 1's: equal, so not certified again.
    domain = Domain((a, b, FeasibleSet.universal_strict(abc), c))
    got = [(v, fs, report.complete) for v, fs, report in certificates(domain)]
    assert got == [(0, a, True), (1, b, False), (3, c, True)]
    # Each set is decided only when the caller reaches it.
    decided = []
    real = domains.is_complete
    monkeypatch.setattr(domains, "is_complete", lambda fs: decided.append(fs) or real(fs))
    for _, fs, report in certificates(domain):
        if not report.complete:
            break
    assert decided == [a, b]
