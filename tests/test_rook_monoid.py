import sys

import pytest

from conftest import all_partial_injections, icn_pairs_literal
from rookpaths import (
    PartialInjection,
    catalan,
    compose,
    count_icn,
    enumerate_icn,
    format_two_line,
    identity_map,
    is_order_decreasing,
    is_order_preserving,
    parse_two_line,
    to_rook_matrix,
    zero_map,
)
from rookpaths import rook_monoid

SIGMA = PartialInjection(4, ((1, 1), (3, 2), (4, 3)))


def test_partial_injection_validation():
    with pytest.raises(ValueError):
        PartialInjection(3, ((1, 4),))  # image out of range
    with pytest.raises(ValueError):
        PartialInjection(3, ((0, 1),))  # source out of range
    with pytest.raises(ValueError):
        PartialInjection(3, ((2, 1), (1, 2)))  # sources not sorted
    with pytest.raises(ValueError):
        PartialInjection(3, ((1, 2), (2, 2)))  # repeated image
    with pytest.raises(ValueError):
        PartialInjection(0, ())
    # Entries are taken as given, never converted: no floats, no digit strings.
    with pytest.raises(ValueError, match="integers"):
        PartialInjection(3, ((2.9, 1.5),))
    with pytest.raises(ValueError, match="integers"):
        PartialInjection(3, (("2", "1"),))
    with pytest.raises(ValueError, match="integers"):
        PartialInjection(3, ((True, 1),))
    with pytest.raises(ValueError, match="ambient size"):
        PartialInjection(True, ())


def test_identity_and_zero_maps():
    assert identity_map(2).pairs == ((1, 1), (2, 2))
    assert zero_map(4).pairs == ()
    assert compose(zero_map(3), identity_map(3)) == zero_map(3)
    with pytest.raises(ValueError):
        identity_map(0)
    with pytest.raises(ValueError):
        zero_map(-1)


def test_compose_laws():
    assert compose(SIGMA, identity_map(4)) == SIGMA
    assert compose(identity_map(4), SIGMA) == SIGMA
    assert compose(SIGMA, zero_map(4)) == zero_map(4)
    assert compose(zero_map(4), SIGMA) == zero_map(4)


def test_compose_definition():
    f = PartialInjection(3, ((2, 1), (3, 2)))
    g = PartialInjection(3, ((1, 1), (2, 2)))
    assert compose(f, g) == PartialInjection(3, ((2, 1),))


def test_compose_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        compose(identity_map(3), identity_map(4))


def test_order_predicates():
    assert is_order_preserving(SIGMA)
    assert is_order_decreasing(SIGMA)
    assert not is_order_preserving(PartialInjection(2, ((1, 2), (2, 1))))
    assert is_order_preserving(zero_map(5))
    assert is_order_decreasing(identity_map(2))
    assert not is_order_decreasing(PartialInjection(3, ((2, 3),)))


def test_rook_matrix_of_sigma():
    m = to_rook_matrix(SIGMA)
    assert m.entries == (
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
    )
    assert to_rook_matrix(zero_map(2)).entries == ((0, 0), (0, 0))
    assert to_rook_matrix(identity_map(3)).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rook_matrix_triangularity_characterizes_order_decreasing():
    for n in range(1, 5):
        for f in all_partial_injections(n):
            assert is_order_decreasing(f) == to_rook_matrix(f).is_upper_triangular()


def test_two_line_notation():
    assert parse_two_line("1 3 4 / 1 2 3", 4) == SIGMA
    assert parse_two_line("/", 3) == zero_map(3)
    assert format_two_line(SIGMA) == "1 3 4 / 1 2 3"
    assert format_two_line(zero_map(3)) == "/"
    # Display form listing every source, with x at the undefined one.
    assert parse_two_line("1 2 3 4 / 1 x 2 3", 4) == SIGMA


def test_two_line_parse_errors():
    with pytest.raises(ValueError):
        parse_two_line("1 1 / 1 2", 3)  # repeated source
    with pytest.raises(ValueError):
        parse_two_line("1 2 / 1", 3)  # ragged
    with pytest.raises(ValueError):
        parse_two_line("1 2 1 2", 3)  # no slash
    with pytest.raises(ValueError):
        parse_two_line("1 / q", 3)  # bad token


def test_two_line_round_trip():
    for n in range(1, 6):
        for f in enumerate_icn(n):
            assert parse_two_line(format_two_line(f), n) == f


def test_enumerate_icn_against_predicate_filter():
    # Sorting the filtered brute force by (sources, images) gives the
    # expected listing in both content and order.
    for n in range(1, 6):
        brute = sorted(
            (
                f
                for f in all_partial_injections(n)
                if is_order_preserving(f) and is_order_decreasing(f)
            ),
            key=lambda f: (f.sources, f.images),
        )
        assert enumerate_icn(n) == brute
    assert len(enumerate_icn(1)) == 2
    assert len(enumerate_icn(2)) == 5
    assert len(enumerate_icn(3)) == 14


def test_enumerate_icn_cardinality_is_catalan():
    for n in range(1, 11):
        assert count_icn(n) == len(enumerate_icn(n)) == catalan(n + 1)


def test_enumerate_icn_is_sorted_and_bounded():
    elements = enumerate_icn(3)
    keys = [(f.sources, f.images) for f in elements]
    assert keys == sorted(keys)
    # count_icn has the listing's domain and message.
    for bad in (0, 11, True):
        for fn in (enumerate_icn, count_icn):
            with pytest.raises(ValueError) as refused:
                fn(bad)
            assert str(refused.value) == f"n must be within 1..10, got {bad!r}"


def test_enumerate_icn_cap_is_a_prefix_of_the_listing():
    for n in range(1, 8):
        elements = enumerate_icn(n)
        # No listing holds sys.maxsize maps, so a larger cap cuts nothing.
        for cap in [*range(1, len(elements) + 2), sys.maxsize, sys.maxsize + 1, 10**30]:
            assert enumerate_icn(n, cap) == elements[:cap]


def test_enumerate_icn_cap_cuts_the_walk_between_and_inside_domains():
    # Caps at the first map of each domain size, at both ends of the
    # domain (1, n), after which the walk climbs back to the root, inside
    # the maps of the last 3-source domain, at c_(n+1) and one past it.
    for n in (8, 9, 10):
        expected = icn_pairs_literal(n)
        firsts = [next(i for i, p in enumerate(expected) if len(p) == k) for k in range(n + 1)]
        ends = [i for i, p in enumerate(expected) if [s for s, _ in p] == [1, n]]
        last3 = expected.index(((n - 2, 1), (n - 1, 2), (n, 3)))
        caps = {i + 1 for i in firsts} | {ends[0], ends[0] + 1, ends[-1] + 1, ends[-1] + 2}
        caps |= {last3 + 2, last3 + n - 3, len(expected), len(expected) + 1}
        for cap in sorted(caps):
            maps = enumerate_icn(n, cap)
            assert [f.pairs for f in maps] == expected[:cap], (n, cap)
            assert all(f.n == n and list(vars(f)) == ["n", "pairs"] for f in maps)
    assert len(expected) == catalan(11)


def last_pair_key(pairs):
    """The row key of a map's last pair: its source s and the image x
    before it (0 for a map of one pair)."""
    return pairs[-1][0], pairs[-2][1] if len(pairs) > 1 else 0


def test_enumerate_icn_builds_each_last_pair_row_once(monkeypatch):
    rows = []
    last_pairs = rook_monoid._last_pairs
    monkeypatch.setattr(rook_monoid, "_last_pairs",
                        lambda s, x: rows.append((s, x)) or last_pairs(s, x))
    for n in range(1, 11):
        rows.clear()
        expected = icn_pairs_literal(n)
        maps = enumerate_icn(n)
        assert [f.pairs for f in maps] == expected, n
        # One row per key (s, x), at most n^2 of them.
        assert sorted(rows) == sorted({last_pair_key(p) for p in expected if p}), n
        assert len(rows) <= n * n
    # The maps share their pairs: each pair is an object of one row, the
    # s - x pairs (s, t) with x < t <= s.
    distinct = len({id(pair) for f in maps for pair in f.pairs})
    assert distinct == sum(s - x for s, x in rows)
    assert distinct < sum(len(f.pairs) for f in maps) // 4
    # A capped listing builds rows only for the domains up to the one that
    # holds its last map (here (1, 2, 3, 4); monoid-list's cap + 1 reaches
    # the next).
    rows.clear()
    expected = icn_pairs_literal(10)
    assert [f.pairs for f in enumerate_icn(10, 5)] == expected[:5]
    reached = [s for s, _ in expected[4]]
    assert rows and set(rows) <= {last_pair_key(p) for p in expected
                                  if p and [s for s, _ in p] <= reached}


def test_enumerate_icn_refuses_a_bad_cap():
    # The cap rule of first_items, not islice's own error or a silent list.
    for bad in (True, 0, -1, 2.5, "3"):
        with pytest.raises(ValueError) as refused:
            enumerate_icn(3, bad)
        assert str(refused.value) == f"cap must be a positive count, got {bad!r}"


def test_associativity_exhaustive():
    for n in range(1, 5):
        elements = enumerate_icn(n)
        for f in elements:
            for g in elements:
                fg = compose(f, g)
                for h in elements:
                    assert compose(fg, h) == compose(f, compose(g, h))


def test_closure_exhaustive():
    for n in range(1, 6):
        elements = set(enumerate_icn(n))
        for f in elements:
            for g in elements:
                assert compose(f, g) in elements


def test_predicates_stable_under_composition():
    for n in range(1, 5):
        maps = all_partial_injections(n)
        preserving = [f for f in maps if is_order_preserving(f)]
        decreasing = [f for f in maps if is_order_decreasing(f)]
        for f in preserving:
            for g in preserving:
                assert is_order_preserving(compose(f, g))
        for f in decreasing:
            for g in decreasing:
                assert is_order_decreasing(compose(f, g))
