import math
import random
from fractions import Fraction
from itertools import combinations, count

import pytest

from conftest import (
    coefficient_literal,
    incl_excl_literal,
    independent_antichain,
    mixed_family_literal,
    random_module_vector,
)
from rookpaths import (
    ModuleVector,
    PartialInjection,
    Subset,
    act,
    basis_vector,
    binomial,
    catalan,
    catalan_family_subset,
    compose,
    dim_catalan_family,
    dim_interval_family,
    dim_mixed_family,
    dim_principal_incl_excl,
    dim_principal_iterative,
    dim_principal_oracle,
    dim_submodule,
    dim_submodule_oracle,
    downset,
    enumerate_icn,
    format_module_vector,
    interval_family_subset,
    iter_downset,
    mixed_family_subset,
    parse_module_vector,
    reduced_form,
    reduced_support,
    subset_leq,
    subset_meet,
    submodule_equal,
    zero_vector,
)
from rookpaths import icn_modules
from rookpaths.icn_modules import (
    MAX_INCL_EXCL_WORK,
    MAX_ORACLE_WALK,
    MAX_SUBMODULE_WORK,
)
from rookpaths import lattice_paths
from rookpaths.lattice_paths import MAX_ORACLE_CELLS, MAX_STAIRCASE_WORK

SIGMA = PartialInjection(4, ((1, 1), (3, 2), (4, 3)))

# The seven-term worked example over {1..7}.
EXAMPLE_TEXT = "1:{};-2:{1};1:{3};5:{1,2};3:{4,7};-2:{5,6};1:{1,2,3}"
EXAMPLE_RED = {(), (3,), (5, 6), (4, 7), (1, 2, 3)}


def subsets_of(n, size=None):
    sizes = range(n + 1) if size is None else [size]
    for k in sizes:
        for elems in combinations(range(1, n + 1), k):
            yield Subset(n, elems)


# ------------------------------------------------------------------ subsets


def test_subset_validation():
    with pytest.raises(ValueError):
        Subset(4, (2, 2))
    with pytest.raises(ValueError):
        Subset(4, (3, 1))
    with pytest.raises(ValueError):
        Subset(4, (0,))
    with pytest.raises(ValueError):
        Subset(4, (5,))
    # Entries are taken as given, never converted: no floats, no digit strings.
    with pytest.raises(ValueError, match="integers"):
        Subset(5, (2.7, 3.2))
    with pytest.raises(ValueError, match="integers"):
        Subset(5, ("2", "3"))
    # A bool is not an int here, though isinstance(True, int) holds.
    with pytest.raises(ValueError, match="integers"):
        Subset(4, (True, 2))
    with pytest.raises(ValueError, match="ambient size"):
        Subset(True, ())
    assert len(Subset(4, ())) == 0


def test_subset_leq():
    assert subset_leq(Subset(4, (1, 3)), Subset(4, (2, 3)))
    assert not subset_leq(Subset(4, (2,)), Subset(4, (1, 2)))
    assert not subset_leq(Subset(4, (1, 2)), Subset(4, (2,)))
    assert not subset_leq(Subset(4, (2, 3)), Subset(4, (1, 4)))
    with pytest.raises(ValueError):
        subset_leq(Subset(4, (1,)), Subset(5, (1,)))


def test_subset_meet():
    assert subset_meet(Subset(4, (1, 4)), Subset(4, (2, 3))) == Subset(4, (1, 3))
    assert subset_meet(Subset(7, (5, 6)), Subset(7, (4, 7))) == Subset(7, (4, 6))
    s = Subset(5, (2, 5))
    assert subset_meet(s, s) == s
    with pytest.raises(ValueError):
        subset_meet(Subset(4, (1,)), Subset(4, (1, 2)))
    with pytest.raises(ValueError, match="ambient sizes differ"):
        subset_meet(Subset(4, (1,)), Subset(5, (1,)))


def test_meet_is_greatest_lower_bound():
    n = 5
    for k in range(1, n + 1):
        all_k = list(subsets_of(n, k))
        for s in all_k:
            for t in all_k:
                m = subset_meet(s, t)
                assert subset_leq(m, s) and subset_leq(m, t)
                for w in all_k:
                    if subset_leq(w, s) and subset_leq(w, t):
                        assert subset_leq(w, m)


# ------------------------------------------------------------------ vectors


def test_module_vector_normalization():
    v = ModuleVector(4, {Subset(4, (1,)): Fraction(1, 2), Subset(4, (2,)): 0})
    assert set(v.terms) == {Subset(4, (1,))}
    assert zero_vector(3).is_zero()
    with pytest.raises(ValueError):
        ModuleVector(4, {Subset(5, (1,)): 1})
    with pytest.raises(ValueError, match="ambient size"):
        ModuleVector(True)
    # Coefficients are ints or Fractions, taken as given: a float would be
    # stored as its binary value and a string parsed.
    for coeff in [0.1, "1/2", True, 2.0]:
        with pytest.raises(ValueError, match="coefficients"):
            ModuleVector(4, {Subset(4, (1,)): coeff})
    v = ModuleVector(4, {Subset(4, (1,)): 3, Subset(4, (2,)): Fraction(-1, 2)})
    assert format_module_vector(v) == "3:{1};-1/2:{2}"


def test_parse_and_format_round_trip():
    v = parse_module_vector(EXAMPLE_TEXT, 7)
    assert len(v.terms) == 7
    assert parse_module_vector(format_module_vector(v), 7) == v
    assert format_module_vector(zero_vector(3)) == "0"
    assert parse_module_vector("0", 3) == zero_vector(3)
    assert parse_module_vector("3/2:{2,4}", 5).terms[Subset(5, (2, 4))] == Fraction(3, 2)
    # Repeated subsets accumulate; exact cancellation gives the zero vector.
    assert parse_module_vector("1:{1};-1:{1}", 3) == zero_vector(3)


# Coefficient texts at the edges of what int() and Fraction read: digit
# groups (which Fraction reads only from Python 3.11 on, and int() on every
# version), a non-ASCII digit, padding, signs, other bases, exponents,
# ratios, a zero denominator, more digits than the int digit limit, and an
# exponent past it.
COEFFICIENT_TEXTS = [
    "1_0", "1__0", "_1", "\u0663", "\xa03\t", "\t-2\xa0", "+3", "-0", "0x10", "1e2",
    "1.5e3", "3/2", "3/0", "9" * 4301, "1e99999",
]


def test_parsed_coefficients_read_as_fraction_reads_them():
    for text in COEFFICIENT_TEXTS:
        vector = f"{text}:{{2}};1:{{1}}"
        try:
            value = coefficient_literal(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                parse_module_vector(vector, 3)
            assert str(caught.value) == str(exc), text
        else:
            v = parse_module_vector(vector, 3)
            assert v == ModuleVector(3, {Subset(3, (2,)): value, Subset(3, (1,)): 1}), text
            assert all(type(c) is Fraction for c in v.terms.values()), text


def test_parse_module_vector_errors():
    for bad in ["1:(1)", "x:{1}", "1:{1,}", "{1}", "1:{0}", "1:{9}", "1/0:{1}"]:
        with pytest.raises(ValueError):
            parse_module_vector(bad, 5)


# ------------------------------------------------------------------- action


def test_action_on_basis_vectors():
    v13 = basis_vector(Subset(4, (1, 3)))
    assert act(SIGMA, v13) == basis_vector(Subset(4, (1, 2)))
    assert act(SIGMA, basis_vector(Subset(4, (2,)))).is_zero()
    v = parse_module_vector("2:{1,3};1:{2};-1:{}", 4)
    assert act(PartialInjection(4, tuple((i, i) for i in range(1, 5))), v) == v


def test_action_is_linear():
    v = parse_module_vector("2:{1,3};5:{3,4}", 4)
    image = act(SIGMA, v)
    assert image == parse_module_vector("2:{1,2};5:{2,3}", 4)


def test_action_rejects_bad_maps():
    not_op = PartialInjection(4, ((1, 2), (2, 1)))
    not_od = PartialInjection(4, ((2, 3),))
    v = basis_vector(Subset(4, (1,)))
    with pytest.raises(ValueError):
        act(not_op, v)
    with pytest.raises(ValueError):
        act(not_od, v)
    with pytest.raises(ValueError):
        act(SIGMA, basis_vector(Subset(5, (1,))))


def test_action_compatibility_exhaustive():
    for n in range(1, 5):
        elements = enumerate_icn(n)
        basis = [basis_vector(s) for s in subsets_of(n)]
        for f in elements:
            for g in elements:
                fg = compose(f, g)
                for v in basis:
                    assert act(fg, v) == act(f, act(g, v))


def test_action_preserves_cardinality():
    for n in range(1, 5):
        for f in enumerate_icn(n):
            dom = set(f.sources)
            for s in subsets_of(n):
                image = act(f, basis_vector(s))
                if set(s.elems) <= dom:
                    (t,) = image.terms
                    assert len(t) == len(s)
                else:
                    assert image.is_zero()


# ----------------------------------------------------------------- downsets


def test_downset_listing():
    assert downset(Subset(4, (2,))) == [(1,), (2,)]
    assert downset(Subset(5, (1, 2, 3))) == [(1, 2, 3)]
    assert len(downset(Subset(6, (2, 4)))) == 5
    assert downset(Subset(6, (2, 4))) == [
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
    ]
    assert downset(Subset(3, ())) == [()]


def test_downset_matches_lexicographic_brute_force():
    # combinations() lists subsets lexicographically, so filtering it by
    # T <= S gives the expected listing in both content and order.
    for n in range(1, 8):
        for s in subsets_of(n):
            expected = [
                t
                for t in combinations(range(1, n + 1), len(s))
                if all(a <= b for a, b in zip(t, s.elems))
            ]
            assert list(iter_downset(s)) == expected, s
            assert downset(s) == expected


def test_downset_containment_characterizes_order():
    n = 6
    for k in range(1, n + 1):
        all_k = list(subsets_of(n, k))
        for s in all_k:
            down_s = set(downset(s))
            for t in all_k:
                assert (set(downset(t)) <= down_s) == subset_leq(t, s)


def test_downset_intersection_is_meet():
    n = 6
    for k in range(1, n + 1):
        all_k = list(subsets_of(n, k))
        for s in all_k:
            down_s = set(downset(s))
            for t in all_k:
                expected = set(downset(subset_meet(s, t)))
                assert down_s & set(downset(t)) == expected


# ---------------------------------------------------------- reduced support


def test_reduced_support_of_worked_example():
    v = parse_module_vector(EXAMPLE_TEXT, 7)
    assert {s.elems for s in reduced_support(v)} == EXAMPLE_RED
    formed = reduced_form(v)
    assert format_module_vector(formed) == "1:{};1:{3};1:{4,7};1:{5,6};1:{1,2,3}"


def test_reduced_support_edge_cases():
    assert reduced_support(zero_vector(5)) == frozenset()
    assert reduced_form(zero_vector(5)).is_zero()
    v = ModuleVector(4, {Subset(4, (1, 2)): 3})
    assert {s.elems for s in reduced_support(v)} == {(1, 2)}
    assert reduced_form(v) == basis_vector(Subset(4, (1, 2)))


def _spy_le(monkeypatch, calls):
    """Record the first argument of every element comparison the reduced
    support makes (through icn_modules.le)."""
    monkeypatch.setattr(icn_modules, "le", lambda a, b: calls.append(a) or a <= b)


def test_reduced_support_compares_each_term_with_the_kept_maxima_only(monkeypatch):
    # In descending order each one-element term is compared with the single
    # maximum {3000} only, one element comparison each; comparing every pair
    # of terms takes 3000^2.
    calls = []
    _spy_le(monkeypatch, calls)
    n = 3000
    v = ModuleVector(n, {Subset(n, (e,)): 1 for e in range(1, n + 1)})
    assert reduced_support(v) == {Subset(n, (n,))}
    assert len(calls) == n - 1


def test_reduced_support_work_bound(monkeypatch):
    # The t terms {i, 2t + 1 - i} form an antichain: the j-th one (from 0) is
    # compared with the j kept before it, 2j units, t (t - 1) units in all.
    # Each such comparison reads both elements (the first is below, the
    # second above), so the element comparisons count the units.
    def antichain(t):
        return ModuleVector(2 * t, {Subset(2 * t, (i, 2 * t + 1 - i)): 1 for i in range(1, t + 1)})

    assert 1000 * 999 <= MAX_SUBMODULE_WORK < 1001 * 1000
    compared = []
    monkeypatch.setattr(icn_modules, "MAX_SUBMODULE_WORK", 100)
    _spy_le(monkeypatch, compared)
    assert len(reduced_support(antichain(10))) == 10  # 90 units
    assert len(compared) == 90
    compared.clear()
    with pytest.raises(ValueError, match="^reduced-support work exceeds bound 100$"):
        reduced_support(antichain(11))  # 110 units
    # The bound holds before the last term is compared, not after.
    assert len(compared) == 90
    # A term is charged for every maximum kept before it, of any size: after
    # the five 2-subsets {i, 11 - i} (20 units), {10} costs 5 units and {9}
    # 6, 31 in all.
    v = ModuleVector(10, {**antichain(5).terms, Subset(10, (10,)): 1, Subset(10, (9,)): 1})
    monkeypatch.setattr(icn_modules, "MAX_SUBMODULE_WORK", 31)
    assert len(reduced_support(v)) == 6
    monkeypatch.setattr(icn_modules, "MAX_SUBMODULE_WORK", 30)
    with pytest.raises(ValueError, match="^reduced-support work exceeds bound 30$"):
        reduced_support(v)


def test_reduced_support_exhaustive_on_up_to_four_subsets():
    # Every set of up to 4 of the 32 subsets of {1..5}, against the maximal
    # ones found by comparing every pair of element tuples.
    universe = [Subset(5, c) for k in range(6) for c in combinations(range(1, 6), k)]
    for r in range(5):
        for chosen in combinations(universe, r):
            elems = [s.elems for s in chosen]
            maximal = {
                e for e in elems
                if not any(e != t and len(e) == len(t) and all(a <= b for a, b in zip(e, t))
                           for t in elems)
            }
            v = ModuleVector(5, dict.fromkeys(chosen, 1))
            assert {s.elems for s in reduced_support(v)} == maximal, elems


def test_submodule_equal():
    v = parse_module_vector(EXAMPLE_TEXT, 7)
    assert submodule_equal(v, reduced_form(v))
    w = parse_module_vector("1:{1,3};1:{2,3}", 4)
    assert submodule_equal(w, parse_module_vector("1:{2,3}", 4))
    assert not submodule_equal(
        basis_vector(Subset(3, (1,))), basis_vector(Subset(3, (2,)))
    )
    with pytest.raises(ValueError, match="ambient sizes differ"):
        submodule_equal(basis_vector(Subset(3, (1,))), basis_vector(Subset(4, (1,))))


def test_reduced_generator_random_vectors():
    rng = random.Random(424242)
    for _ in range(500):
        v = random_module_vector(rng)
        # reduced_support returns a plain frozenset, so the antichain is
        # checked here.
        members = list(reduced_support(v))
        for s in members:
            for t in members:
                if s != t:
                    assert not subset_leq(s, t)
        assert submodule_equal(v, reduced_form(v))


# --------------------------------------------------------------- dimensions


def test_dim_principal_examples():
    assert dim_principal_iterative(Subset(8, (4,))) == 4
    assert dim_principal_iterative(Subset(8, (2, 4))) == 5
    assert dim_principal_iterative(Subset(8, (2, 4, 6))) == 14
    assert dim_principal_iterative(Subset(8, (3, 4))) == 6
    assert dim_principal_iterative(Subset(8, ())) == 1
    assert dim_principal_incl_excl(Subset(8, (2,))) == 2
    assert dim_principal_incl_excl(Subset(8, (2, 4))) == 5
    assert dim_principal_incl_excl(Subset(8, (1, 2))) == 1
    assert dim_principal_incl_excl(Subset(8, ())) == 1


def test_dim_principal_incl_excl_bound():
    # The work k^3 * bit_length(max S): {1..k} just past the bound, and the
    # top 300 of {1..10^100} far past it (65 s under the former size bound).
    k = next(k for k in count(1) if k**3 * k.bit_length() > MAX_INCL_EXCL_WORK)
    for s in (Subset(k, tuple(range(1, k + 1))),
              Subset(10**100, tuple(range(10**100 - 299, 10**100 + 1)))):
        with pytest.raises(ValueError, match=f"bound {MAX_INCL_EXCL_WORK}"):
            dim_principal_incl_excl(s)
    # 21 elements, past the bound of the former sum over all 2^k subsets.
    for s in (Subset(25, tuple(range(1, 22))), Subset(41, tuple(range(1, 42, 2)))):
        assert dim_principal_incl_excl(s) == dim_principal_iterative(s)


def test_inclusion_exclusion_matches_the_literal_sum_on_every_subset_of_10():
    for s in subsets_of(10):
        assert dim_principal_incl_excl(s) == incl_excl_literal(s) == dim_principal_iterative(s), s


def test_three_way_dimension_agreement():
    for s in subsets_of(8):
        if len(s) == 0:
            continue
        reference = len(downset(s))
        assert dim_principal_iterative(s) == reference
        assert dim_principal_incl_excl(s) == reference


def test_dimension_monotone_along_order():
    n = 6
    for k in range(1, n + 1):
        all_k = list(subsets_of(n, k))
        for s in all_k:
            ds = dim_principal_iterative(s)
            for t in all_k:
                if subset_leq(t, s):
                    assert dim_principal_iterative(t) <= ds


def test_special_family_subsets():
    assert catalan_family_subset(3) == Subset(6, (2, 4, 6))
    assert interval_family_subset(2, 2) == Subset(4, (3, 4))
    assert mixed_family_subset(3, 2) == Subset(5, (2, 4, 5))
    assert mixed_family_subset(4, 4) == Subset(8, (2, 4, 6, 8))


def test_dim_special_parameter_ranges():
    # The mixed closed form is stated for m >= 2 only; smaller m goes
    # through the general route instead.  A builder and its closed form
    # share one check, so floats and bools are refused with the rule.
    for fn, args, rule in [
        (dim_catalan_family, (0,), "k must be an integer >= 1, got 0"),
        (catalan_family_subset, (True,), "k must be an integer >= 1, got True"),
        (dim_interval_family, (-1, 2), "m must be an integer >= 0, got -1"),
        (dim_interval_family, (2, 0), "k must be an integer >= 1, got 0"),
        (dim_interval_family, (0.5, 2), "m must be an integer >= 0, got 0.5"),
        (dim_interval_family, (True, 2), "m must be an integer >= 0, got True"),
        (interval_family_subset, (True, 2), "m must be an integer >= 0, got True"),
        (dim_mixed_family, (4, 1), "m must be an integer in 2..4, got 1"),
        (dim_mixed_family, (2, 3), "m must be an integer in 2..2, got 3"),
        (dim_mixed_family, (4.0, 2), "k must be an integer >= 2, got 4.0"),
        (mixed_family_subset, (3, 2.0), "m must be an integer in 2..3, got 2.0"),
    ]:
        with pytest.raises(ValueError) as info:
            fn(*args)
        assert str(info.value) == rule, (fn, args)


def test_catalan_family_matches_both_routes():
    for k in range(1, 7):
        s = catalan_family_subset(k)
        assert dim_catalan_family(k) == catalan(k + 1)
        assert dim_principal_iterative(s) == catalan(k + 1)
        assert len(downset(s)) == catalan(k + 1)


def test_interval_family_matches_brute_force():
    for m in range(0, 6):
        for k in range(1, 6):
            s = interval_family_subset(m, k)
            assert dim_interval_family(m, k) == dim_principal_iterative(s) == len(downset(s))


def test_mixed_family_matches_brute_force():
    for m in range(2, 7):
        for k in range(m, 7):
            s = mixed_family_subset(k, m)
            assert dim_mixed_family(k, m) == len(downset(s))
    for k in range(2, 7):
        assert dim_mixed_family(k, k) == dim_catalan_family(k)


def test_mixed_family_matches_the_literal_recursion_and_the_iterative_count():
    for k in range(2, 61):
        for m in range(2, k + 1):
            assert dim_mixed_family(k, m) == mixed_family_literal(k, m), (k, m)
    for m in (2, 80, 159, 160):
        assert dim_mixed_family(160, m) == mixed_family_literal(160, m), m
    # The general route shares no code with the specialized recursion.
    for k in range(2, 26):
        for m in range(2, k + 1):
            assert dim_mixed_family(k, m) == dim_principal_iterative(mixed_family_subset(k, m))


def test_mixed_family_matches_the_subset_oracle_at_large_k():
    # The ballot number against the oracle's DP over the subset, which takes
    # no binomial: its tops s_i - i are 1, ..., m and then k - m tops of m.
    for k in (500, 10**4):
        for m in range(2, 41):
            s = mixed_family_subset(k, m)
            assert dim_mixed_family(k, m) == dim_principal_oracle(s), (k, m)


def test_mixed_family_cost_follows_m():
    # One binomial for any pair, like its siblings: m = 2 is C(k+2, 2) - 1
    # for any k, and m = 400 with k of 333 bits, which the staircase work
    # bound once refused, is the ballot number.
    assert dim_mixed_family(10**9, 2) == (10**9 + 1) * (10**9 + 2) // 2 - 1
    k = 10**100
    assert dim_mixed_family(k, 400) == (k - 398) * math.comb(k + 401, 400) // (k + 2)
    # The Catalan staircase just past cor35's work bound answers too.
    k = next(k for k in count(2) if k * k * k.bit_length() * (k + k.bit_length())
             > MAX_STAIRCASE_WORK)
    assert dim_mixed_family(k, k) == catalan(k + 1)


def test_dim_submodule_examples():
    v = parse_module_vector(EXAMPLE_TEXT, 7)
    assert dim_submodule(v) == 24
    assert dim_submodule_oracle(v) == 24
    w = parse_module_vector("1:{3};1:{1,2}", 4)
    assert dim_submodule(w) == 4
    single = basis_vector(Subset(9, (3, 7)))
    assert dim_submodule(single) == dim_principal_iterative(Subset(9, (3, 7)))
    assert dim_submodule(zero_vector(5)) == 0
    assert dim_submodule_oracle(basis_vector(Subset(5, ()))) == 1


def test_dim_submodule_top_module():
    # v_{n-k+1..n} generates the whole size-k graded piece.
    assert dim_submodule_oracle(basis_vector(Subset(4, (3, 4)))) == 6
    for n in range(1, 7):
        for k in range(0, n + 1):
            top = Subset(n, tuple(range(n - k + 1, n + 1)))
            assert dim_submodule(basis_vector(top)) == binomial(n, k)


def test_dim_submodule_oracle_bound(monkeypatch):
    # The top subset of each size: all 2^16 subsets of {1..16}, walked once.
    tops = {Subset(16, tuple(range(17 - k, 17))): 1 for k in range(17)}
    assert MAX_ORACLE_WALK // 17 >= 2**16
    assert dim_submodule_oracle(ModuleVector(16, tops)) == 2**16
    # All 4368 5-subsets of {1..16}: only {12..16} is walked, the others are
    # skipped as already in its downset.
    fives = {Subset(16, c): 1 for c in combinations(range(1, 17), 5)}
    assert dim_submodule_oracle(ModuleVector(16, fives)) == 4368
    # Terms of up to 3 elements may walk 100 // 4 = 25 subsets, counted over
    # every term walked: {2,4,6} has 14 below it, {1,5} 4, {3,6} 12 and
    # {3,5,7} 28.  {1,3,5} (5 below) and {2,4,5} (9) lie below {2,4,6} and
    # are not walked.
    monkeypatch.setattr(icn_modules, "MAX_ORACLE_WALK", 100)
    assert dim_submodule_oracle(parse_module_vector("1:{2,4,6};1:{1,5}", 8)) == 14 + 4
    assert dim_submodule_oracle(parse_module_vector("1:{1,3,5};1:{2,4,5};1:{2,4,6}", 8)) == 14
    for text in ["1:{3,5,7}", "1:{2,4,6};1:{3,6}"]:
        with pytest.raises(ValueError, match="^oracle walk exceeds bound 25 subsets of up to 3"):
            dim_submodule_oracle(parse_module_vector(text, 8))


def test_dim_principal_oracle_counts_the_walked_downset():
    for k in range(10):
        for elems in combinations(range(1, 10), k):
            s = Subset(9, elems)
            assert dim_principal_oracle(s) == dim_submodule_oracle(basis_vector(s)), elems


def test_dim_principal_oracle_shares_no_code_with_the_other_routes(monkeypatch):
    # No height sequence, no binomial and no meet, so it checks both the
    # iterative route and inclusion-exclusion.
    def broken(*args):
        raise AssertionError("called")

    for name in ("_heights_for_subset", "binomial", "subset_meet", "iter_downset"):
        monkeypatch.setattr(icn_modules, name, broken)
    monkeypatch.setattr(lattice_paths, "binomial", broken)
    assert dim_principal_oracle(catalan_family_subset(30)) == catalan(31)
    assert dim_principal_oracle(interval_family_subset(40, 30)) == binomial(70, 30)
    # Past the downset walk: 9.8 * 10^9 subsets lie below this one.
    assert dim_principal_oracle(Subset(60, tuple(range(20, 61, 5)))) == 9835923040


def test_dim_principal_oracle_cell_bound():
    # Refused before any row is allocated, over the bound in both
    # orientations of the shifted tops s_i - i: 12,507,500 cells for the
    # even staircase {2, 4, ..., 10000}, and 10,001,000 for the top 1000 of
    # {1..11000}, whose conjugate takes 10,010,000.
    for s in (Subset(10000, tuple(range(2, 10001, 2))),
              Subset(11000, tuple(range(10001, 11001)))):
        with pytest.raises(ValueError, match=f"exceed bound {MAX_ORACLE_CELLS}"):
            dim_principal_oracle(s)
    # Every subset the walk answers fits: its plan costs at most its cells
    # sum(s_i - i + 1), at most its downset plus its size.  {1..5000} is
    # alone below itself: its shifted tops are all 0.
    s = Subset(5000, tuple(range(1, 5001)))
    assert dim_principal_oracle(s) == dim_submodule_oracle(basis_vector(s)) == 1


def test_dim_submodule_work_bound(monkeypatch):
    # r generators of size r hold 2^r - 1 meets: r (2^r - 1 - r) units for
    # taking them and r^2 (2^r - 1) for their dimensions, after r^2 (r - 1) / 2
    # for finding the reduced support, which comes to 639,468 at r = 12 and
    # 1,491,607 at r = 13.
    assert 639_468 <= MAX_SUBMODULE_WORK < 1_491_607
    # Only the staircase {2, 4, ..., 24} itself is below none of the twelve.
    v = ModuleVector(24, {Subset(24, g): 1 for g in independent_antichain(12)})
    assert dim_submodule(v) == dim_catalan_family(12) - 1
    v = ModuleVector(26, {Subset(26, g): 1 for g in independent_antichain(13)})
    with pytest.raises(ValueError, match=f"bound {MAX_SUBMODULE_WORK}"):
        dim_submodule(v)
    # The bound holds before the meets are taken, not after: 13 units each,
    # on top of the 1014 units the reduced support took.
    taken = []
    monkeypatch.setattr(icn_modules, "MAX_SUBMODULE_WORK", 1114)
    monkeypatch.setattr(icn_modules, "subset_meet", lambda s, t: taken.append(s) or subset_meet(s, t))
    with pytest.raises(ValueError, match="^reduced-support and inclusion-exclusion work exceeds bound 1114$"):
        dim_submodule(v)
    assert 0 < 13 * len(taken) <= 100


def test_reduced_support_and_dim_submodule_share_one_budget(monkeypatch):
    # The antichain {i, 21 - i} takes 90 units to reduce, within a bound of
    # 100, and its first meets then take dim_submodule over that same bound.
    v = ModuleVector(20, {Subset(20, (i, 21 - i)): 1 for i in range(1, 11)})
    monkeypatch.setattr(icn_modules, "MAX_SUBMODULE_WORK", 100)
    assert len(reduced_support(v)) == 10
    with pytest.raises(ValueError, match="^reduced-support and inclusion-exclusion work"):
        dim_submodule(v)
    monkeypatch.setattr(icn_modules, "MAX_SUBMODULE_WORK", 10**6)
    assert dim_submodule(v) == dim_submodule_oracle(v)


def test_dim_submodule_matches_oracle_random():
    rng = random.Random(13579)
    for _ in range(500):
        v = random_module_vector(rng, max_n=12)
        assert dim_submodule(v) == dim_submodule_oracle(v)
