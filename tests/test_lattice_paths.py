import random
from itertools import combinations_with_replacement, product

import pytest

from conftest import cor35_rhs_literal
from rookpaths import (
    Direction,
    HeightSequence,
    IntMatrix,
    LatticePath,
    binomial,
    catalan,
    compute_gammas,
    count_below_decreasing_iterative,
    count_below_increasing_determinant,
    count_below_oracle,
    det_exact,
    enumerate_below,
    heights_from_path,
    is_below,
    iter_below,
    path_from_heights,
    verify_identity_cor34,
    verify_identity_cor35,
)

dec = HeightSequence.decreasing
inc = HeightSequence.increasing


def all_decreasing(k, top):
    """Every weakly decreasing tuple of length k with entries in 0..top."""
    return [h.heights for h in iter_below(dec((top,) * k))]


def all_increasing(k, top):
    return [h.heights for h in iter_below(inc((top,) * k))]


# ---------------------------------------------------------------- sequences


def test_height_sequence_validation():
    with pytest.raises(ValueError):
        HeightSequence(Direction.DECREASING, ())
    with pytest.raises(ValueError):
        dec((1, 2))
    with pytest.raises(ValueError):
        inc((2, 1))
    with pytest.raises(ValueError):
        dec((3, -1))
    with pytest.raises(ValueError, match="integers"):
        HeightSequence.decreasing([True])
    assert dec((3, 3, 0)).heights == (3, 3, 0)


def test_mirror_flips_direction_and_order():
    assert dec((4, 2)).mirror() == inc((2, 4))
    assert inc((1, 2)).mirror() == dec((2, 1))


# -------------------------------------------------------------------- paths


def test_canonical_decreasing_path():
    p = path_from_heights(dec((4, 3, 3, 1, 1)))
    assert p.start == (0, 4)
    assert p.end == (5, 0)
    assert heights_from_path(p) == dec((4, 3, 3, 1, 1))


def test_canonical_increasing_path():
    p = path_from_heights(inc((1, 3, 3, 4, 4)))
    assert p.start == (0, 0)
    assert p.end == (5, 4)
    assert heights_from_path(p) == inc((1, 3, 3, 4, 4))


def test_flat_paths_round_trip():
    p = path_from_heights(dec((0,)))
    assert p.start == (0, 0) and p.end == (1, 0)
    assert p.steps == ((1, 0),)
    assert heights_from_path(p) == dec((0,))
    q = path_from_heights(inc((0, 0)))
    assert heights_from_path(q) == inc((0, 0))


def test_noncanonical_path_heights():
    # Vertical prefix, then two horizontal steps at height 2.
    p = LatticePath((0, 3), ((0, -1), (1, 0), (1, 0)))
    assert heights_from_path(p) == dec((2, 2))


def test_path_validation():
    with pytest.raises(ValueError):
        LatticePath((1, 0), ((1, 0),))  # translated start
    with pytest.raises(ValueError):
        LatticePath((0, 1), ((0, -1), (0, 1)))  # mixed verticals
    with pytest.raises(ValueError):
        LatticePath((0, 0), ((0, -1),))  # leaves the quadrant
    with pytest.raises(ValueError):
        LatticePath((0, 1), ((0, 1),), Direction.DECREASING)  # step not allowed
    with pytest.raises(ValueError):
        heights_from_path(LatticePath((0, 2), ((0, -1),)))  # no horizontal step
    with pytest.raises(ValueError, match="integers"):
        LatticePath((0, True), ())  # a bool coordinate
    for step in [(True, 0), (1.0, 0)]:
        with pytest.raises(ValueError, match="integers"):
            LatticePath((0, 0), (step,))


def test_round_trip_on_exhaustive_range():
    for k in range(1, 5):
        for heights in all_decreasing(k, 4):
            h = dec(heights)
            assert heights_from_path(path_from_heights(h)) == h
        for heights in all_increasing(k, 4):
            h = inc(heights)
            assert heights_from_path(path_from_heights(h)) == h


# ----------------------------------------------------------------- is_below


def test_is_below():
    assert is_below(dec((3, 2, 0)), dec((4, 3, 3)))
    assert not is_below(dec((4, 4)), dec((4, 3)))
    assert is_below(dec((2, 1)), dec((2, 1)))
    assert not is_below(dec((1, 0)), dec((2, 1, 0)))  # length mismatch
    with pytest.raises(ValueError):
        is_below(dec((1,)), inc((1,)))


# ------------------------------------------------------------------- gammas


def test_gamma_boundary_values():
    for heights in [(5,), (3, 1), (4, 4, 2), (6, 5, 1, 0)]:
        g = compute_gammas(dec(heights))
        assert g[0] == 1
        if len(heights) >= 2:
            assert g[1] == 0


def test_gamma_small_case():
    assert compute_gammas(dec((3, 2, 1))) == (1, 0, -1)


def test_gamma_needs_decreasing():
    with pytest.raises(ValueError):
        compute_gammas(inc((1, 2)))


def test_gamma_depends_on_prefix_only():
    # gamma_j only reads the heights before position j, so shortening the
    # tail cannot change the earlier coefficients.
    for heights in [(6, 4, 4, 2, 1), (3, 3, 3, 3), (5, 2, 0, 0)]:
        full = compute_gammas(dec(heights))
        for j in range(1, len(heights)):
            assert compute_gammas(dec(heights[:j])) == full[:j]


# ------------------------------------------------------------------- counts


def test_iterative_count_values():
    assert count_below_decreasing_iterative(dec((4, 2))) == 12
    assert count_below_decreasing_iterative(dec((4,))) == 5
    assert count_below_decreasing_iterative(dec((3, 2, 1))) == 14
    assert count_below_decreasing_iterative(dec((0, 0))) == 1


def test_determinant_count_values():
    assert count_below_increasing_determinant(inc((1, 2))) == 5
    assert count_below_increasing_determinant(inc((2, 2))) == 6
    assert count_below_increasing_determinant(inc((0, 0))) == 1


def test_oracle_count_values():
    assert count_below_oracle(dec((4, 2))) == 12
    assert count_below_oracle(dec((2, 1))) == 5
    assert count_below_oracle(inc((1, 2))) == 5


def test_counts_reject_wrong_direction():
    with pytest.raises(ValueError):
        count_below_decreasing_iterative(inc((1, 2)))
    with pytest.raises(ValueError):
        count_below_increasing_determinant(dec((2, 1)))


def test_oracle_equivalence_exhaustive():
    # Every decreasing sequence with k <= 6 and top height <= 6.
    total = 0
    for k in range(1, 7):
        for heights in all_decreasing(k, 6):
            total += 1
            lam = dec(heights)
            assert count_below_decreasing_iterative(lam) == count_below_oracle(lam)
    assert total == 1715


def test_determinant_equivalence_exhaustive():
    for k in range(1, 7):
        for heights in all_increasing(k, 6):
            a = inc(heights)
            assert count_below_increasing_determinant(a) == count_below_oracle(a)


def test_determinant_route_matches_bareiss_on_random_boundaries():
    # Past the exhaustive range: the Hessenberg expansion against the Bareiss
    # determinant of the full matrix C(a_i + 1, j - i + 1).
    rng = random.Random(1985)
    for _ in range(300):
        k = rng.randint(1, 12)
        a = sorted(rng.randint(0, 40) for _ in range(k))
        matrix = IntMatrix(
            tuple(tuple(binomial(a[i] + 1, j - i + 1) for j in range(k)) for i in range(k))
        )
        assert count_below_increasing_determinant(inc(a)) == det_exact(matrix), a


def test_oracle_refuses_boundaries_over_its_cell_bound():
    # Heights of 2^63 and more: refused before any table is allocated.
    with pytest.raises(ValueError, match="exceed bound 10000000"):
        count_below_oracle(dec((2**63,)))
    with pytest.raises(ValueError, match="exceed bound 10000000"):
        count_below_oracle(inc((0, 2**64)))


def test_mirror_symmetry_exhaustive():
    for k in range(1, 7):
        for heights in all_decreasing(k, 6):
            lam = dec(heights)
            assert count_below_decreasing_iterative(lam) == count_below_increasing_determinant(
                lam.mirror()
            )


def test_count_monotone_in_boundary():
    rng = random.Random(987)
    for _ in range(300):
        k = rng.randint(1, 6)
        upper = tuple(sorted((rng.randint(0, 9) for _ in range(k)), reverse=True))
        lower = tuple(
            sorted((rng.randint(0, u) for u in upper), reverse=True)
        )
        lower = tuple(min(lower[i], upper[i]) for i in range(k))
        assert count_below_decreasing_iterative(dec(lower)) <= count_below_decreasing_iterative(
            dec(upper)
        )


def test_trailing_zero_is_neutral():
    for k in range(1, 6):
        for heights in all_decreasing(k, 5):
            lam = dec(heights)
            extended = dec(heights + (0,))
            assert count_below_decreasing_iterative(extended) == count_below_decreasing_iterative(
                lam
            )


def test_catalan_staircase():
    for k in range(1, 11):
        lam = dec(tuple(range(k, 0, -1)))
        assert count_below_decreasing_iterative(lam) == catalan(k + 1)
    assert count_below_increasing_determinant(inc(range(1, 161))) == catalan(161)


# -------------------------------------------------------------- enumeration


def test_enumerate_below_listing():
    result = enumerate_below(dec((2, 1)), 10)
    assert [h.heights for h in result.items] == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert not result.truncated


def test_enumerate_below_degenerate_and_truncated():
    result = enumerate_below(dec((0,)), 10)
    assert [h.heights for h in result.items] == [(0,)]
    assert not result.truncated
    result = enumerate_below(dec((1,)), 1)
    assert [h.heights for h in result.items] == [(0,)]
    assert result.truncated


def test_enumerate_below_rejects_zero_cap():
    with pytest.raises(ValueError):
        enumerate_below(dec((1,)), 0)


def test_iter_below_matches_lexicographic_brute_force():
    # product() lists tuples lexicographically, so filtering it gives the
    # expected listing in both content and order.
    for k in range(1, 5):
        for bound in combinations_with_replacement(range(4), k):
            for h in (inc(bound), dec(bound[::-1])):
                step = -1 if h.direction is Direction.DECREASING else 1
                expected = [
                    x
                    for x in product(range(max(bound) + 1), repeat=k)
                    if all(a <= b for a, b in zip(x, h.heights))
                    and all(step * (b - a) >= 0 for a, b in zip(x, x[1:]))
                ]
                listed = [u.heights for u in iter_below(h)]
                assert listed == expected, h
                assert all(u.direction is h.direction for u in iter_below(h))


def test_enumeration_size_matches_count():
    # Removing boxes from a staircase of rows is the same count, so the
    # number of enumerated sequences equals the closed-form value.
    for k in range(1, 6):
        for heights in all_decreasing(k, 5):
            lam = dec(heights)
            expected = count_below_oracle(lam)
            result = enumerate_below(lam, expected + 1)
            assert len(result.items) == expected
            assert not result.truncated
            assert result.items == sorted(result.items, key=lambda h: h.heights)


# --------------------------------------------------------------- identities


def test_identity_cor34_values():
    assert verify_identity_cor34(dec((4, 2))) == (12, 12, True)
    assert verify_identity_cor34(dec((3, 2, 1))) == (14, 14, True)
    assert verify_identity_cor34(dec((3, 3))) == (10, 10, True)


def test_identity_cor34_needs_length_two():
    with pytest.raises(ValueError):
        verify_identity_cor34(dec((4,)))


def test_identity_cor34_exhaustive():
    for k in range(2, 7):
        for heights in all_decreasing(k, 6):
            lam = dec(heights)
            det_side, iter_side, equal = verify_identity_cor34(lam)
            assert equal and det_side == iter_side
            assert det_side == count_below_increasing_determinant(lam.mirror())


def test_identity_cor35_values():
    assert verify_identity_cor35(2) == (5, 5, True)
    assert verify_identity_cor35(3) == (14, 14, True)
    assert verify_identity_cor35(5) == (132, 132, True)


def test_identity_cor35_range():
    # The binomial tables against the literal double sums of the paper.
    for k in [*range(2, 61), 160]:
        lhs, rhs, equal = verify_identity_cor35(k)
        assert equal and lhs == rhs == catalan(k + 1), k
        assert rhs == cor35_rhs_literal(k), k
    with pytest.raises(ValueError):
        verify_identity_cor35(1)
