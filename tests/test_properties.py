"""Property tests of the closed-form routes against the brute-force oracles.

The examples are derived from each test's name (the ``rookpaths`` profile
in conftest.py), so every run checks the same inputs.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    det_bareiss_eager,
    det_cofactor,
    dim_submodule_literal,
    iterative_literal,
    reduced_support_literal,
)
from rookpaths import (
    HeightSequence,
    IntMatrix,
    ModuleVector,
    Subset,
    count_below_decreasing_iterative,
    count_below_increasing_determinant,
    count_below_oracle,
    det_exact,
    dim_principal_incl_excl,
    dim_submodule,
    dim_submodule_oracle,
    downset,
    iter_below,
    reduced_support,
)

decreasing_boundaries = st.lists(st.integers(0, 40), min_size=1, max_size=12).map(
    lambda heights: HeightSequence.decreasing(sorted(heights, reverse=True))
)
increasing_boundaries = st.lists(st.integers(0, 40), min_size=1, max_size=12).map(
    lambda heights: HeightSequence.increasing(sorted(heights))
)
subsets_of_14 = st.sets(st.integers(1, 14)).map(lambda elems: Subset(14, tuple(sorted(elems))))
coefficients = st.sampled_from([Fraction(c) for c in (-3, -1, 1, 2, "5/2")])


@st.composite
def antichain_vectors(draw):
    """A vector over {1..n}, n <= 14, whose reduced support is an antichain of
    one or two subset sizes, plus 0-3 terms each below one generator.
    Distinct subsets of one size and one element sum are incomparable."""
    n = draw(st.integers(1, 14))
    gens = []
    for k in sorted(draw(st.sets(st.integers(0, n), min_size=1, max_size=2))):
        by_sum: dict[int, list[tuple[int, ...]]] = {}
        for c in combinations(range(1, n + 1), k):
            by_sum.setdefault(sum(c), []).append(c)
        members = by_sum[draw(st.sampled_from(sorted(by_sum)))]
        gens += draw(st.lists(st.sampled_from(members), min_size=1, max_size=6, unique=True))
    terms = {Subset(n, g): draw(coefficients) for g in gens}
    for _ in range(draw(st.integers(0, 3))):
        lowered = list(draw(st.sampled_from(gens)))
        if not lowered:
            continue
        i = draw(st.integers(0, len(lowered) - 1))
        lowest = lowered[i - 1] + 1 if i else 1
        if lowered[i] > lowest:
            lowered[i] = draw(st.integers(lowest, lowered[i] - 1))
            terms[Subset(n, tuple(lowered))] = draw(coefficients)
    return ModuleVector(n, terms)


@st.composite
def module_vectors(draw):
    """A vector over {1..n}, n <= 8, with up to 12 terms of any sizes."""
    n = draw(st.integers(1, 8))
    subsets = st.sets(st.integers(1, n)).map(lambda elems: Subset(n, tuple(sorted(elems))))
    return ModuleVector(n, draw(st.dictionaries(subsets, coefficients, max_size=12)))


@st.composite
def square_matrices(draw):
    """An n x n matrix, n <= 7, with entries in -3..3 and a share of zeros
    drawn per matrix, from 1/7 to 25/31 of them."""
    n = draw(st.integers(0, 7))
    entries = st.sampled_from((0,) * draw(st.integers(0, 24)) + tuple(range(-3, 4)))
    row = st.lists(entries, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@given(square_matrices())
def test_lazy_bareiss_matches_the_eager_one_and_the_cofactor_expansion(rows):
    expected = det_cofactor(rows)
    assert det_exact(IntMatrix(tuple(map(tuple, rows)))) == det_bareiss_eager(rows) == expected


def test_iterative_route_matches_the_literal_formula_and_the_oracle_exhaustive():
    # Every decreasing sequence with k <= 6 and top height <= 6.
    total = 0
    for k in range(1, 7):
        for lam in iter_below(HeightSequence.decreasing((6,) * k)):
            total += 1
            expected = iterative_literal(lam.heights)
            assert count_below_decreasing_iterative(lam) == expected == count_below_oracle(lam)
    assert total == 1715


@given(decreasing_boundaries)
def test_iterative_route_matches_the_literal_formula_and_the_oracle(lam):
    expected = iterative_literal(lam.heights)
    assert count_below_decreasing_iterative(lam) == expected == count_below_oracle(lam)


@given(increasing_boundaries)
def test_determinant_route_matches_the_oracle(a):
    assert count_below_increasing_determinant(a) == count_below_oracle(a)


@given(subsets_of_14)
def test_inclusion_exclusion_matches_the_downset(s):
    assert dim_principal_incl_excl(s) == len(downset(s))


@given(antichain_vectors())
def test_dim_submodule_matches_the_literal_sum_and_the_oracle(v):
    assert dim_submodule(v) == dim_submodule_literal(v) == dim_submodule_oracle(v)


@given(module_vectors())
def test_reduced_support_matches_the_all_pairs_rule(v):
    assert reduced_support(v) == reduced_support_literal(v)
