"""Property tests of the closed-form routes against the brute-force oracles.

The examples are derived from each test's name (the ``rookpaths`` profile
in conftest.py), so every run checks the same inputs.
"""

from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    GAMMA_ROUTES,
    by_each_gamma_route,
    det_bareiss_eager,
    det_cofactor,
    dim_submodule_literal,
    gammas_literal,
    hessenberg_det_literal,
    iterative_literal,
    reduced_support_literal,
)
from rookpaths import (
    HeightSequence,
    IntMatrix,
    ModuleVector,
    Subset,
    compute_gammas,
    count_below_decreasing_iterative,
    count_below_increasing_determinant,
    count_below_oracle,
    det_exact,
    dim_principal_incl_excl,
    dim_principal_oracle,
    dim_submodule,
    dim_submodule_oracle,
    downset,
    iter_below,
    parse_module_vector,
    reduced_form,
    reduced_support,
)
from rookpaths import lattice_paths

# Up to 50 more copies of the top height lead a decreasing boundary, the
# flat run whose gammas are 0 and whose row indices the recursion skips.
leading_runs = st.integers(0, 50)


def _led_by_run(heights, run):
    """The decreasing heights after `run` more copies of the top one."""
    heights = sorted(heights, reverse=True)
    return HeightSequence.decreasing(heights[:1] * run + heights)


decreasing_boundaries = st.builds(
    _led_by_run, st.lists(st.integers(0, 40), min_size=1, max_size=12), leading_runs
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
def walked_boundaries(draw):
    """A decreasing boundary of length up to 80, led by a flat run of up to
    50 more, whose drops h_i - h_(i+1) take the entries of the gamma
    recursion's rows both ways in one row: walked where the drop is at most
    an entry's bottom, across flat runs (0), staircase steps (1), short
    drops (2-4) and drops up to the bottoms (5-80); taken afresh in a flat
    run's zero tail and where a drop, up to 10^4, exceeds the bottom."""
    k = draw(st.integers(1, 80))
    drop = st.one_of(st.just(0), st.just(1), st.integers(2, 4), st.integers(5, 80),
                     st.integers(5, 10**4))
    drops = draw(st.lists(drop, min_size=k - 1, max_size=k - 1))
    return _led_by_run(accumulate(drops, initial=draw(st.integers(0, 5))), draw(leading_runs))


@st.composite
def gamma_boundaries(draw):
    """A decreasing boundary of length up to 40, led by a flat run of up to
    50 more, whose drops pick the gamma recursion's route: mostly flat runs
    and steps of 1-2 (pushed), drops up to 80 and 10^6 (walked), drops that
    take the pushed series' every kind of step (none for a flat step, up to
    as many prefix sums as its list has entries, and one product past
    that, up to 10^30), and at most one drop of up to 10^9 anywhere, a
    single huge drop."""
    k = draw(st.integers(1, 40))
    small = st.integers(0, 2)
    drop = draw(st.sampled_from([small, st.one_of(small, st.integers(3, 80)),
                                 st.one_of(small, st.integers(3, 10**6)),
                                 st.one_of(small, st.integers(3, 40), st.integers(41, 10**30),
                                           st.just(10**30))]))
    drops = draw(st.lists(drop, min_size=k - 1, max_size=k - 1))
    if drops and draw(st.booleans()):
        drops[draw(st.integers(0, len(drops) - 1))] = draw(st.integers(0, 10**9))
    return _led_by_run(accumulate(drops, initial=draw(st.integers(0, 5))), draw(leading_runs))


@st.composite
def module_vectors(draw):
    """A vector over {1..n}, n <= 8, with up to 12 terms of any sizes."""
    n = draw(st.integers(1, 8))
    subsets = st.sets(st.integers(1, n)).map(lambda elems: Subset(n, tuple(sorted(elems))))
    return ModuleVector(n, draw(st.dictionaries(subsets, coefficients, max_size=12)))


@st.composite
def vector_texts(draw):
    """(n, text, vector): the text of up to 8 terms over {1..n}, n <= 6,
    whose subsets may repeat, with int or fraction coefficients, some of
    them padded, and the vector of their sums built by the checked
    constructor."""
    n = draw(st.integers(1, 6))
    subsets = st.sets(st.integers(1, n)).map(lambda elems: tuple(sorted(elems)))
    coeffs = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    terms = draw(st.lists(
        st.tuples(coeffs, subsets, st.sampled_from(["", " ", "\t"])), min_size=1, max_size=8
    ))
    text = ";".join(f"{pad}{c}{pad}:{{{','.join(map(str, s))}}}" for c, s, pad in terms)
    sums: dict[tuple[int, ...], Fraction] = {}
    for c, s, _ in terms:
        sums[s] = sums.get(s, 0) + c
    return n, text, ModuleVector(n, {Subset(n, s): Fraction(c) for s, c in sums.items()})


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


@pytest.mark.parametrize("past", [-1, 67])
def test_walked_routes_match_the_literal_references_exhaustive(past):
    # Every decreasing sequence with k <= 7 and heights <= 7, lifted by
    # past + 1 so that every height exceeds `past`: -1 leaves the heights as
    # they are, 67 lifts them to 68..75.  The gamma recursion walks each entry
    # whose bottom is at least the drop and takes the rest afresh, and the
    # determinant walks every row.  The lift leaves the gammas alone (they read
    # height differences only) and moves the counts and the determinant's
    # rows to large tops.
    total = 0
    for k in range(1, 8):
        for lam in iter_below(HeightSequence.decreasing((7,) * k)):
            total += 1
            h = tuple(x + past + 1 for x in lam.heights)
            lam = HeightSequence.decreasing(h)
            assert compute_gammas(lam) == gammas_literal(h)
            assert count_below_decreasing_iterative(lam) == iterative_literal(h)
            assert count_below_increasing_determinant(lam.mirror()) == hessenberg_det_literal(h[::-1])
    assert total == 6434


@given(walked_boundaries())
def test_walked_routes_match_the_literal_references(lam):
    h = lam.heights
    assert compute_gammas(lam) == gammas_literal(h)
    assert count_below_decreasing_iterative(lam) == iterative_literal(h)
    assert count_below_increasing_determinant(lam.mirror()) == hessenberg_det_literal(h[::-1])


def test_both_gamma_routes_match_the_literal_references_exhaustive():
    # Every decreasing sequence with k <= 7 and heights <= 7, then the same
    # before a flat tail of 20, after one drop of 10^6, and after a flat run
    # of two at 10^9 above it: each route forced, and the route
    # compute_gammas picks, which is the push on long flat tails and small
    # drops and the walk past them.
    chosen = Counter()

    def counted(name):
        route = getattr(lattice_paths, name)

        def call(*args):
            chosen[name] += 1
            return route(*args)
        return call

    total = 0
    for k in range(1, 8):
        for base in iter_below(HeightSequence.decreasing((7,) * k)):
            b, top = base.heights, base.heights[0]
            for h in (b, b + b[-1:] * 20, (top + 10**6, *b), (top + 10**9,) * 2 + b):
                total += 1
                lam = HeightSequence.decreasing(h)
                with pytest.MonkeyPatch.context() as m:
                    for name in GAMMA_ROUTES:
                        m.setattr(lattice_paths, name, counted(name))
                    compute_gammas(lam)
                assert by_each_gamma_route(compute_gammas, lam) == [gammas_literal(h)] * 3
                count = iterative_literal(h)
                assert by_each_gamma_route(count_below_decreasing_iterative, lam) == [count] * 3
    assert total == 4 * 6434
    assert min(chosen[name] for name in GAMMA_ROUTES) > 1000, chosen


@given(gamma_boundaries())
def test_both_gamma_routes_match_the_literal_references(lam):
    h = lam.heights
    assert by_each_gamma_route(compute_gammas, lam) == [gammas_literal(h)] * 3
    count = iterative_literal(h)
    assert by_each_gamma_route(count_below_decreasing_iterative, lam) == [count] * 3


@given(increasing_boundaries)
def test_determinant_route_matches_the_oracle(a):
    assert count_below_increasing_determinant(a) == count_below_oracle(a)


@given(subsets_of_14)
def test_inclusion_exclusion_matches_the_downset(s):
    assert dim_principal_incl_excl(s) == len(downset(s))


@given(st.sets(st.integers(1, 60), max_size=30))
def test_subset_oracle_matches_inclusion_exclusion(elems):
    s = Subset(60, tuple(sorted(elems)))
    assert dim_principal_oracle(s) == dim_principal_incl_excl(s)


@given(antichain_vectors())
def test_dim_submodule_matches_the_literal_sum_and_the_oracle(v):
    assert dim_submodule(v) == dim_submodule_literal(v) == dim_submodule_oracle(v)


@given(module_vectors())
def test_reduced_support_matches_the_all_pairs_rule(v):
    assert reduced_support(v) == reduced_support_literal(v)


@given(module_vectors())
def test_reduced_form_is_the_checked_sum_over_the_reduced_support(v):
    formed = reduced_form(v)
    assert formed == ModuleVector(v.n, {s: 1 for s in reduced_support(v)})
    assert list(formed.terms) == sorted(formed.terms, key=lambda s: (len(s.elems), s.elems))


@given(vector_texts())
def test_a_parsed_vector_equals_the_checked_one(case):
    n, text, expected = case
    v = parse_module_vector(text, n)
    assert v == expected
    assert type(v.terms) is MappingProxyType
    assert all(type(c) is Fraction and c for c in v.terms.values())
