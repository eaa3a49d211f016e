"""Values the library derives from checked values skip the public checks.

Each test rebuilds every derived value of a small exhaustive range through
its public constructor, which runs every check, and asserts that it comes
out equal: the same fields, of the same types, set in the same order.
"""

from itertools import combinations, product

from rookpaths import (
    Direction,
    HeightSequence,
    PartialInjection,
    Subset,
    act,
    basis_vector,
    compose,
    downset,
    enumerate_icn,
    iter_below,
    subset_meet,
)
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
