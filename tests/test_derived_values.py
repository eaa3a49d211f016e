"""Values the library derives from checked values skip the public checks.

Each test rebuilds every derived value of a small exhaustive range through
its public constructor, which runs every check, and asserts that it comes
out equal: the same fields, of the same types, set in the same order.  The
builders that derive values are also run with the checks made to raise, and
every value class is frozen.
"""

import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from itertools import combinations, product
from operator import le

import pytest

from conftest import all_partial_injections
from rookpaths import (
    Direction,
    HeightSequence,
    IntMatrix,
    LatticePath,
    ModuleVector,
    PartialInjection,
    Subset,
    act,
    basis_vector,
    catalan_family_subset,
    compose,
    dim_submodule,
    downset,
    enumerate_below,
    enumerate_icn,
    format_module_vector,
    heights_from_path,
    identity_map,
    interval_family_subset,
    iter_below,
    mixed_family_subset,
    parse_module_vector,
    path_from_heights,
    subset_meet,
    to_rook_matrix,
)
from rookpaths.exact_math import trusted, trusted_all
from rookpaths.icn_modules import _heights_for_subset


def rebuilt(value):
    """value through its public constructor; raises if a check fails."""
    if isinstance(value, HeightSequence):
        return HeightSequence(value.direction, value.heights)
    if isinstance(value, Subset):
        return Subset(value.n, value.elems)
    return PartialInjection(value.n, value.pairs)


def assert_checked(value):
    again = rebuilt(value)
    assert again == value, value
    # Same field types (a list is never equal to a tuple, but check anyway)
    # and the same attribute order, which keeps the instances' key sharing.
    assert [type(x) for x in vars(again).values()] == [type(x) for x in vars(value).values()]
    assert list(vars(again)) == list(vars(value))


def height_sequences():
    """Every monotone height sequence of length <= 4 with heights <= 5."""
    for k in range(1, 5):
        for heights in product(range(6), repeat=k):
            for direction in Direction:
                try:
                    yield HeightSequence(direction, heights)
                except ValueError:
                    pass


def subsets(n):
    return [Subset(n, c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]


def test_iter_below_and_mirror():
    for h in height_sequences():
        assert_checked(h.mirror())
        for x in iter_below(h):
            assert_checked(x)


def test_downset_meet_and_heights_for_subset():
    for n in range(1, 7):
        every = subsets(n)
        for s in every:
            for t in downset(s):
                assert Subset(n, t).elems == t
            for t in every:
                if len(t) == len(s):
                    assert_checked(subset_meet(s, t))
            if s.elems:
                assert_checked(_heights_for_subset(s))


def test_enumerate_icn_and_act():
    for n in range(1, 7):
        basis = [basis_vector(s) for s in subsets(n)]
        for f in enumerate_icn(n):
            assert_checked(f)
            for v in basis:
                for t in act(f, v).terms:
                    assert_checked(t)


def test_compose():
    for n in range(1, 6):
        elements = enumerate_icn(n)
        for f in elements:
            for g in elements:
                assert_checked(compose(f, g))


def test_canonical_paths_and_their_heights():
    for k in range(1, 6):
        for heights in product(range(5), repeat=k):
            for direction in Direction:
                try:
                    h = HeightSequence(direction, heights)
                except ValueError:
                    continue
                p = path_from_heights(h)
                again = LatticePath(p.start, p.steps, p.direction)
                assert again == p, h
                assert list(vars(again)) == list(vars(p))
                assert_checked(heights_from_path(p))


def test_rook_matrices_and_family_subsets():
    for n in range(1, 4):
        for f in all_partial_injections(n):
            m = to_rook_matrix(f)
            assert IntMatrix(m.entries) == m
    for k in range(1, 8):
        assert_checked(catalan_family_subset(k))
        for m in range(6):
            assert_checked(interval_family_subset(m, k))
        for m in range(2, k + 1):
            assert_checked(mixed_family_subset(k, m))
    assert mixed_family_subset(5, 2) == Subset(7, (2, 4, 5, 6, 7))


def per_instance_bytes(build, n=1000):
    """Traced bytes that n values from build() keep alive, per value: the
    least of three runs, so that a first run's warm-up does not count."""
    least = float("inf")
    for _ in range(3):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [build() for _ in range(n)]
            least = min(least, (tracemalloc.get_traced_memory()[0] - before) / n)
        finally:
            tracemalloc.stop()
        del kept
    return least


def test_trusted_values_share_their_keys():
    # A value whose fields went in through its __dict__ keeps a dict object
    # of its own (about 60 bytes more); one whose fields were set in
    # declaration order keeps them inline, as a checked one does.  A checked
    # value may hold fresh copies of its fields, so it may take more.
    cases = [
        (HeightSequence, (Direction.DECREASING, (2, 1))),
        (LatticePath, ((0, 1), ((0, -1), (1, 0)), Direction.DECREASING)),
        (IntMatrix, (((1, 2), (3, 4)),)),
        (Subset, (3, (1, 3))),
        (PartialInjection, (3, ((2, 1),))),
    ]
    for cls, values in cases:
        made, checked = trusted(cls, *values), cls(*values)
        assert made == checked
        assert sys.getsizeof(vars(made)) == sys.getsizeof(vars(checked)), cls
        assert (per_instance_bytes(lambda: trusted(cls, *values))
                <= per_instance_bytes(lambda: cls(*values))), cls


def test_values_built_in_bulk_match_trusted_and_checked_ones():
    cases = [
        (HeightSequence, Direction.INCREASING, [(0,), (1, 2), (2, 2, 5)]),
        (HeightSequence, Direction.DECREASING, [(2, 1), (0,), (7, 7, 0)]),
        (PartialInjection, 3, [(), ((2, 1),), ((1, 1), (3, 2))]),
    ]
    for cls, first, seconds in cases:
        made = trusted_all(cls, first, iter(seconds))
        assert len(made) == len(seconds)
        for value, second in zip(made, seconds):
            one, checked = trusted(cls, first, second), cls(first, second)
            assert type(value) is cls and value == one == checked
            fields_in_order = [list(vars(v).items()) for v in (value, one, checked)]
            assert fields_in_order[0] == fields_in_order[1] == fields_in_order[2]
            assert sys.getsizeof(vars(value)) == sys.getsizeof(vars(checked)), cls
    assert trusted_all(PartialInjection, 3, []) == []
    with pytest.raises(ValueError):
        trusted_all(LatticePath, (0, 0), [()])  # three fields


def test_listings_built_in_bulk():
    for h in height_sequences():
        for x in enumerate_below(h, 10**6).items:
            assert_checked(x)
    for n in range(1, 10):
        # Each domain of {1..n} in lexicographic order, then the ranges
        # below it, by the checked constructor.
        universe = range(1, n + 1)
        domains = sorted(c for k in range(n + 1) for c in combinations(universe, k))
        expected = [PartialInjection(n, tuple(zip(dom, ran))) for dom in domains
                    for ran in combinations(universe, len(dom)) if all(map(le, ran, dom))]
        made = enumerate_icn(n)
        assert made == expected, n
        assert [list(vars(f).items()) for f in made] == [list(vars(f).items()) for f in expected]
        assert enumerate_icn(n, 7) == expected[:7]


def test_derived_values_are_not_checked_again(monkeypatch):
    boundaries = [HeightSequence.decreasing((3, 1, 1)), HeightSequence.increasing((0, 2, 2))]
    paths = [path_from_heights(h) for h in boundaries]
    f = identity_map(3)

    def refuse(value):
        raise AssertionError(f"{type(value).__name__} checked again")

    for cls in (Subset, LatticePath, HeightSequence, IntMatrix):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert catalan_family_subset(3).elems == (2, 4, 6)
    assert interval_family_subset(2, 3).elems == (3, 4, 5)
    assert mixed_family_subset(4, 2).elems == (2, 4, 5, 6)
    assert [path_from_heights(h) for h in boundaries] == paths
    assert [heights_from_path(p) for p in paths] == boundaries
    assert to_rook_matrix(f).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_value_classes_are_frozen():
    s = Subset(4, (1,))
    v = ModuleVector(4, {s: 1, Subset(4, (2,)): 0})
    h = HeightSequence.decreasing((2, 1))
    values = [h, path_from_heights(h), s, identity_map(2), IntMatrix(((1,),)), v]
    for value in values:
        for field in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
    with pytest.raises(FrozenInstanceError):
        v.n = 5
    # The terms are read-only, so a vector's dimension is that of its text.
    with pytest.raises(TypeError):
        v.terms[Subset(4, (4,))] = Fraction(0)
    with pytest.raises(TypeError):
        del v.terms[s]
    assert dim_submodule(v) == dim_submodule(parse_module_vector(format_module_vector(v), 4)) == 1
    # Equality, repr and hashing are those of the hand-written class.
    assert v == ModuleVector(4, {s: Fraction(1)}) == parse_module_vector("1:{1}", 4)
    assert v != ModuleVector(5, {Subset(5, (1,)): 1})
    assert v != ModuleVector(4, {s: 2})
    assert ModuleVector(4) == ModuleVector(4, {}) != ModuleVector(3)
    assert (v == "1:{1}") is False
    assert repr(v) == "ModuleVector(4, '1:{1}')"
    assert repr(ModuleVector(3)) == "ModuleVector(3, '0')"
    with pytest.raises(TypeError):
        hash(v)
