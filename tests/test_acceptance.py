"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every comparison is exact; the only tolerances are the stated wall-clock
budgets, which are asserted with time.perf_counter.
"""

import random
import time
from itertools import combinations

from conftest import random_module_vector
from rookpaths import (
    HeightSequence,
    Subset,
    act,
    basis_vector,
    binomial,
    catalan,
    catalan_family_subset,
    compose,
    count_below_decreasing_iterative,
    count_below_increasing_determinant,
    count_below_oracle,
    dim_catalan_family,
    dim_interval_family,
    dim_mixed_family,
    dim_principal_incl_excl,
    dim_principal_iterative,
    dim_submodule,
    dim_submodule_oracle,
    downset,
    enumerate_icn,
    interval_family_subset,
    iter_below,
    mixed_family_subset,
    parse_module_vector,
    reduced_form,
    reduced_support,
    subset_leq,
    submodule_equal,
    verify_identity_cor34,
)

dec = HeightSequence.decreasing

CATALAN_TAIL = [2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]

EXAMPLE_TEXT = "1:{};-2:{1};1:{3};5:{1,2};3:{4,7};-2:{5,6};1:{1,2,3}"
EXAMPLE_RED = {(), (3,), (5, 6), (4, 7), (1, 2, 3)}


def _report(num, text):
    print(f"criterion {num:2d}: PASS - {text}")


def _decreasing_sweep():
    for k in range(1, 7):
        for h in iter_below(dec((6,) * k)):
            yield h


def test_criterion_01_reference_count_three_ways():
    lam = dec((4, 2))
    # Warm-up outside the timed region.
    count_below_decreasing_iterative(lam)
    start = time.perf_counter()
    iterative = count_below_decreasing_iterative(lam)
    mirrored = count_below_increasing_determinant(lam.mirror())
    oracle = count_below_oracle(lam)
    elapsed = time.perf_counter() - start
    assert iterative == mirrored == oracle == 12
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    _report(1, f"(4,2) counted as 12 three ways in {elapsed * 1e6:.0f} us")


def test_criterion_02_catalan_staircase_and_modules():
    start = time.perf_counter()
    for k in range(1, 11):
        expected = CATALAN_TAIL[k - 1]
        assert catalan(k + 1) == expected
        staircase = dec(tuple(range(k, 0, -1)))
        assert count_below_decreasing_iterative(staircase) == expected
        assert dim_principal_iterative(catalan_family_subset(k)) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    _report(2, f"staircase counts and module dimensions hit c_2..c_11 in {elapsed:.3f} s")


def test_criterion_03_interval_dimensions():
    cases = 0
    for m in range(0, 10):
        for k in range(1, 11 - m):
            s = interval_family_subset(m, k)
            expected = binomial(m + k, k)
            assert dim_principal_iterative(s) == expected
            assert dim_interval_family(m, k) == expected
            cases += 1
    _report(3, f"interval family equals C(m+k,k) in all {cases} cases with m+k <= 10")


def test_criterion_04_mixed_dimensions():
    cases = 0
    for m in range(2, 9):
        for k in range(m, 9):
            closed = dim_mixed_family(k, m)
            brute = len(downset(mixed_family_subset(k, m)))
            assert closed == brute
            cases += 1
    for k in range(2, 9):
        assert dim_mixed_family(k, k) == catalan(k + 1)
    _report(4, f"mixed family closed form equals brute force in all {cases} cases")


def test_criterion_05_oracle_equivalence_sweep():
    start = time.perf_counter()
    total = 0
    for lam in _decreasing_sweep():
        total += 1
        iterative = count_below_decreasing_iterative(lam)
        mirrored = count_below_increasing_determinant(lam.mirror())
        oracle = count_below_oracle(lam)
        assert iterative == mirrored == oracle, lam
    elapsed = time.perf_counter() - start
    assert total == 1715
    assert elapsed < 10.0, f"took {elapsed:.3f} s"
    _report(5, f"three methods agree on all {total} sequences in {elapsed:.3f} s")


def test_criterion_06_determinant_identity_sweep():
    checked = 0
    for lam in _decreasing_sweep():
        if len(lam) < 2:
            continue
        det_side, iter_side, equal = verify_identity_cor34(lam)
        assert equal and det_side == iter_side, lam
        checked += 1
    _report(6, f"determinant identity holds on all {checked} sequences with k >= 2")


def test_criterion_07_three_dimension_routes():
    start = time.perf_counter()
    count = 0
    for k in range(1, 9):
        for elems in combinations(range(1, 9), k):
            s = Subset(8, elems)
            reference = len(downset(s))
            assert dim_principal_iterative(s) == reference, s
            assert dim_principal_incl_excl(s) == reference, s
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 255
    assert elapsed < 30.0, f"took {elapsed:.3f} s"
    _report(7, f"both formulas match the downset count on all 255 subsets in {elapsed:.3f} s")


def test_criterion_08_worked_example_dimension():
    v = parse_module_vector(EXAMPLE_TEXT, 7)
    oracle = dim_submodule_oracle(v)
    assert oracle == 24
    assert dim_submodule(v) == oracle
    _report(8, "seven-term example vector has dimension 24 by formula and union oracle")


def test_criterion_09_monoid_suite():
    sizes = [len(enumerate_icn(n)) for n in range(1, 8)]
    assert sizes == CATALAN_TAIL[:7]
    for n in range(1, 5):
        elements = enumerate_icn(n)
        elements_set = set(elements)
        basis = [
            basis_vector(Subset(n, elems))
            for k in range(n + 1)
            for elems in combinations(range(1, n + 1), k)
        ]
        for f in elements:
            for g in elements:
                fg = compose(f, g)
                assert fg in elements_set
                for h in elements:
                    assert compose(fg, h) == compose(f, compose(g, h))
                for v in basis:
                    assert act(fg, v) == act(f, act(g, v))
    _report(9, f"sizes {sizes}; associativity, closure and action compatibility hold for n <= 4")


def test_criterion_10_reduced_generator_suite():
    rng = random.Random(97531)
    for _ in range(500):
        v = random_module_vector(rng, max_n=10, max_terms=6)
        # reduced_support returns a plain frozenset, so the antichain is
        # checked here.
        members = list(reduced_support(v))
        for s in members:
            for t in members:
                if s != t:
                    assert not subset_leq(s, t)
        assert submodule_equal(v, reduced_form(v))
    v = parse_module_vector(EXAMPLE_TEXT, 7)
    assert {s.elems for s in reduced_support(v)} == EXAMPLE_RED
    _report(10, "500 random vectors reduce correctly; example reduced support is exact")
