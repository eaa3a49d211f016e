import random
import sys
import tracemalloc
from bisect import bisect_left
from itertools import (
    accumulate, chain, combinations, combinations_with_replacement, groupby, islice, product
)
from collections import deque
from operator import le, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    by_each_gamma_route,
    cor35_rhs_literal,
    count_below_dp_literal,
    gammas_literal,
    hessenberg_det_literal,
    monotone_below_odometer,
    oracle_plan_reference,
)
from rookpaths import (
    BelowEnumeration,
    Direction,
    HeightSequence,
    IntMatrix,
    LatticePath,
    ListedHeights,
    Subset,
    binomial,
    catalan,
    compute_gammas,
    count_below_decreasing_iterative,
    count_below_increasing_determinant,
    count_below_oracle,
    det_exact,
    enumerate_below,
    enumerate_icn,
    heights_from_path,
    is_below,
    iter_below,
    iter_downset,
    path_from_heights,
    verify_identity_cor34,
    verify_identity_cor35,
)
from rookpaths import lattice_paths
from rookpaths.lattice_paths import (
    MAX_STAIRCASE_WORK,
    MAX_TAIL_LENGTH,
    MAX_TAIL_ROWS,
    _count_below,
    _oracle_plan,
    _runs,
    _tail_length,
    iter_monotone_below,
)

dec = HeightSequence.decreasing
inc = HeightSequence.increasing
DEC, INC = Direction.DECREASING, Direction.INCREASING


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
    # A step that is no unit step is named as such, not as a mixed path.
    for step in [(2, 0), (1, 1), (0, 2), (-1, 0)]:
        with pytest.raises(ValueError) as refused:
            LatticePath((0, 3), ((1, 0), (0, -1), step, (0, 1)))
        assert str(refused.value) == f"step {step} is not a unit step (1, 0), (0, 1) or (0, -1)"


def test_path_checks_its_direction():
    # The rule and message of HeightSequence, not a KeyError.
    for bad in ("dec", "inc", 0):
        for build in (lambda d: LatticePath((0, 1), ((0, -1), (1, 0)), d),
                      lambda d: HeightSequence(d, (1,))):
            with pytest.raises(ValueError) as refused:
                build(bad)
            assert str(refused.value) == f"bad direction {bad!r}"
    assert LatticePath((0, 1), ((0, -1), (1, 0))).direction is Direction.DECREASING
    assert LatticePath((0, 0), ((1, 0), (0, 1))).direction is Direction.INCREASING
    assert LatticePath((0, 0), ((1, 0),)).direction is Direction.DECREASING


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


def test_determinant_route_calls_no_binomial(monkeypatch):
    # It walks every row from the empty one, small tops included.
    def no_binomial(n, r):
        raise AssertionError(f"binomial({n}, {r}) called")

    monkeypatch.setattr(lattice_paths, "binomial", no_binomial)
    rng = random.Random(1985)
    boundaries = [range(1, k + 1) for k in range(1, 41)]
    boundaries += [(h,) * k for h in (0, 1, 66, 67, 100, 10**4) for k in (1, 2, 12, 40)]
    boundaries += [sorted(rng.randint(0, 40) for _ in range(rng.randint(1, 12)))
                   for _ in range(200)]
    for a in map(tuple, boundaries):
        assert count_below_increasing_determinant(inc(a)) == hessenberg_det_literal(a), a


def test_gamma_recursion_takes_afresh_only_binomials_within_the_largest_drop(monkeypatch):
    # Both routes walk every nonzero entry whose bottom r is at least three
    # times the drop d in a_i = h_i - i, small tops included.  So an entry
    # taken afresh lies in a flat run's zero tail, C(r - 2 + d, r), or has
    # r < 3 d: either way min(r, n - r) < 3 d = 3 (height drop + 1), at most
    # three times the boundary's largest height drop plus 2.  Whole rows
    # taken afresh fail here, on either route.
    largest_drop = 0

    def short_binomial(n, r):
        assert min(r, n - r) <= 3 * largest_drop + 2, f"binomial({n}, {r}) taken afresh"
        return binomial(n, r)

    monkeypatch.setattr(lattice_paths, "binomial", short_binomial)
    rng = random.Random(1985)
    boundaries = [range(k, 0, -1) for k in range(1, 41)]
    boundaries += [(h,) * k for h in (0, 1, 66, 67, 100, 10**4) for k in (1, 2, 12, 40)]
    for top_drop in (1, 3, 12):
        for _ in range(200):
            drops = [rng.randint(0, top_drop) for _ in range(rng.randint(0, 39))]
            boundaries.append(list(accumulate(drops, initial=rng.randint(0, 40)))[::-1])
    for h in map(tuple, boundaries):
        largest_drop = max(map(sub, h, h[1:]), default=0)
        assert by_each_gamma_route(compute_gammas, dec(h)) == [gammas_literal(h)] * 3, h


def test_gamma_recursion_pushes_small_drops_and_walks_large_ones(monkeypatch):
    # The staircase k = 160 drops D = 318 in a_i = h_i - i over its t = 159
    # indices past h_1: 4 D^2 <= t (t + 1)^2, so it is pushed.  Heights
    # 10^6 (160..1) drop 10^6 + 1 an index, 4 D^2 > t (t + 1)^2: walked.
    def refused(a, run):
        raise AssertionError("route not expected here")

    for heights, other in [(range(160, 0, -1), "_walked_gammas"),
                           ([10**6 * i for i in range(160, 0, -1)], "_pushed_gammas")]:
        h = tuple(heights)
        with monkeypatch.context() as m:
            m.setattr(lattice_paths, other, refused)
            assert compute_gammas(dec(h)) == gammas_literal(h)


def test_gamma_recursion_skips_a_leading_flat_run(monkeypatch):
    # gamma_2..gamma_301 are 0 across the 300 equal heights, so the rows
    # hold index 1 and the six indices past the run.  Each drop of 1000
    # exceeds every bottom, so every entry is taken afresh: 27 binomials
    # with the count's closing sum, where rows over the run take ~1800.
    calls = 0

    def counted_binomial(n, r):
        nonlocal calls
        calls += 1
        return binomial(n, r)

    monkeypatch.setattr(lattice_paths, "binomial", counted_binomial)
    lam = dec((10**4,) * 300 + tuple(range(9000, 3999, -1000)))
    assert count_below_decreasing_iterative(lam) == count_below_increasing_determinant(lam.mirror())
    assert calls < len(lam), calls


def test_iterative_count_skips_a_leading_flat_run_in_its_closing_sum(monkeypatch):
    # gamma_i is 0 across the 300 equal heights, so the closing sum takes
    # its first term and its first term past the run afresh and walks the
    # small drops after it: with the gamma rows, 28 binomials and perm
    # steps, where walking the closing sum over the run took ~630.
    calls = 0

    def counted(f):
        def call(*args):
            nonlocal calls
            calls += 1
            return f(*args)
        return call

    monkeypatch.setattr(lattice_paths, "binomial", counted(binomial))
    monkeypatch.setattr(lattice_paths, "perm", counted(lattice_paths.perm))
    lam = dec((10**4,) * 300 + (9999, 9998, 9997, 9995, 9990))
    assert count_below_decreasing_iterative(lam) == count_below_increasing_determinant(lam.mirror())
    assert calls < len(lam) // 10, calls


def test_oracle_refuses_boundaries_over_its_cell_bound():
    # Over the bound in both orientations, refused before any row is
    # allocated: the staircase 1..5000 (12,507,500 cells either way), 1000
    # tops of 10^4 (10,001,000 cells, and their conjugate, 10^4 tops of 1000,
    # 10,010,000), and 20 heights of 2^8000, whose conjugate is one run of
    # 2^8000 tops of 20, one product of rows of 21 numbers of up to
    # 20 * 8001 bits: 21^2 * 157^2 = 10,870,209 cells.
    for h in (inc(range(1, 5001)), dec((10**4,) * 1000), dec((2**8000,) * 20)):
        with pytest.raises(ValueError, match="exceed bound 10000000"):
            count_below_oracle(h)
    for bounds, step in (((10**4,) * 1000, 0), (tuple(range(10001, 11001)), 1)):
        with pytest.raises(ValueError, match="exceed bound 10000000"):
            _count_below(bounds, step)


def test_oracle_squares_long_runs_in_the_cheaper_orientation():
    # One height 2^63 and 20 heights of 10^30 were refused as 2^63 + 1 and
    # 2 * 10^31 cells; their conjugates are one short run each, taken as
    # one product.  20 heights of 2^400 cost 21^2 * 8^2 = 28,224 cells.
    assert count_below_oracle(dec((2**63,))) == 2**63 + 1
    assert count_below_oracle(inc((0, 2**64))) == 2**64 + 1
    assert count_below_oracle(dec((10**30,) * 20)) == binomial(10**30 + 20, 20)
    assert _oracle_plan((2**400,) * 20)[0] == 21**2 * 8**2
    assert count_below_oracle(dec((2**400,) * 20)) == binomial(2**400 + 20, 20)
    assert _count_below((2**63,), 1) == 2**63
    # The top 10 of {1..10^6}: ten tops of 999,990, or 999,990 tops of 10.
    assert _count_below(tuple(range(999991, 10**6 + 1)), 1) == binomial(10**6, 10)


def test_flat_boundaries_square_their_conjugate_run(monkeypatch):
    # 20 heights of 10^4 are 10^4 conjugate tops of 20: one product on a row
    # of 21 with the walked series C(10^4 - 1 + j, j), j < 21, and no prefix
    # sum, where one prefix sum a height took 200,020 cells.
    walked, summed = [], []

    def recorded(iterable, *args, **kwargs):
        (walked if "initial" in kwargs else summed).append(iterable)
        return accumulate(iterable, *args, **kwargs)

    cells, runs, weight = _oracle_plan((10**4,) * 20)
    assert (cells, list(runs), weight) == (21**2, [(21, 10**4)], 1)
    monkeypatch.setattr(lattice_paths, "accumulate", recorded)
    assert count_below_oracle(dec((10**4,) * 20)) == binomial(10**4 + 20, 20)
    assert walked == [range(1, 21)]
    assert not any(isinstance(row, list) for row in summed)


def listed(bounds, step):
    return sum(1 for _ in chain.from_iterable(_runs(bounds, step)))


def takes_step(bounds, step):
    """True iff bounds rise by at least step from b_1 >= step, as _runs needs."""
    return all(b - a >= step for a, b in zip((0, *bounds), bounds))


def test_stepped_dp_counts_what_the_runs_list():
    bounds = [b for k in range(5) for b in combinations_with_replacement(range(7), k)]
    subsets = [s for k in range(10) for s in combinations(range(1, 10), k)]
    for b in bounds + subsets:
        for step in (0, 1):
            if takes_step(b, step):
                assert _count_below(b, step) == listed(b, step), (b, step)
    assert _count_below((), 0) == _count_below((), 1) == 1


@given(st.one_of(
    st.lists(st.integers(0, 5), max_size=14).map(lambda xs: (tuple(sorted(xs)), 0)),
    st.sets(st.integers(1, 15)).map(lambda s: (tuple(sorted(s)), 1)),
))
def test_stepped_dp_counts_what_the_runs_list_on_longer_bounds(bounds_and_step):
    assert _count_below(*bounds_and_step) == listed(*bounds_and_step)


def runs_and_gaps(rng):
    """Weakly increasing tops from 0..3 in runs of up to 300, with a few
    gaps of up to 300 between them."""
    tops, top = [], rng.randint(0, 3)
    for _ in range(rng.randint(0, 4)):
        top += rng.choice((0, 1, 2, rng.randint(0, 300)))
        tops += [top] * rng.choice((1, 2, rng.randint(1, 300)))
    return tuple(tops)


def test_runs_dp_counts_what_one_prefix_sum_a_top_counts():
    bounds = [b for k in range(6) for b in combinations_with_replacement(range(9), k)]
    rng = random.Random(21)
    bounds += [runs_and_gaps(rng) for _ in range(400)]
    for b in bounds:
        assert _count_below(b, 0) == count_below_dp_literal(b, 0), b
        # The subset whose shifted tops are b.
        s = tuple(t + i for i, t in enumerate(b, 1))
        assert _count_below(s, 1) == count_below_dp_literal(s, 1), s


@given(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 300)), max_size=4),
       st.integers(0, 1))
def test_runs_dp_counts_what_one_prefix_sum_a_top_counts_on_long_runs(runs, step):
    tops = tuple(sorted(t for t, length in runs for _ in range(length)))
    bounds = tuple(t + i for i, t in enumerate(tops, 1)) if step else tops
    assert _count_below(bounds, step) == count_below_dp_literal(bounds, step)


def plan_cells_literal(tops):
    """The cheaper estimate of the tops and of their conjugate, the number
    of tops >= v for v = t_k, ..., 1, taking each run of L tops t one
    prefix sum at a time, L n cells, or as one product, n^2 w cells,
    n = t + 1, whichever is fewer."""
    def runs(tops):
        return [(t, len(list(g))) for t, g in groupby(tops)]

    bits = sum(min(t, length) * (t + length).bit_length() for t, length in runs(tops))
    weight = (bits // 1024 + 1) ** 2
    conjugate = [len(tops) - bisect_left(tops, v) for v in range(max(tops, default=0), 0, -1)]
    return min(sum(min(length * (t + 1), (t + 1) ** 2 * weight) for t, length in runs(x))
               for x in (tops, conjugate))


def test_oracle_plan_takes_the_cheaper_orientation_exhaustive():
    # A run of 2 zeros is a product from (0, 0) on, and the single top 14 is
    # one of its conjugate, 14 tops of 1.
    tops_list = [t for k in range(6) for t in combinations_with_replacement(range(15), k)]
    for tops in tops_list:
        assert _oracle_plan(tops)[0] == plan_cells_literal(tops), tops


@given(st.one_of(
    st.lists(st.integers(0, 60), max_size=40),
    # Staircases raised by 0..2 a step, whose runs are mostly no longer
    # than their tops in either orientation.
    st.lists(st.integers(0, 2), max_size=60).map(
        lambda raised: [len(raised) - i + x for i, x in enumerate(raised)]),
    # Runs of up to 400 tops of up to 400, whose numbers may pass 1024 bits.
    st.lists(st.tuples(st.integers(0, 400), st.integers(1, 400)), max_size=3).map(
        lambda runs: [t for t, length in runs for _ in range(length)]),
))
def test_oracle_plan_takes_the_cheaper_orientation(heights):
    tops = tuple(sorted(heights))
    assert _oracle_plan(tops)[0] == plan_cells_literal(tops)


def planned(plan):
    cells, runs, weight = plan
    return cells, list(runs), weight


def test_oracle_plan_matches_the_reference_planner_exhaustive(monkeypatch):
    # Every weakly increasing tops of k <= 7 entries of 0..7, as _count_below
    # plans them for bounds of either step: the tops themselves for step 0,
    # the subset t_i + i for step 1.
    seen, plan = [], lattice_paths._oracle_plan
    monkeypatch.setattr(lattice_paths, "_oracle_plan",
                        lambda tops: seen.append(tuple(tops)) or plan(tops))
    tops_list = [t for k in range(8) for t in combinations_with_replacement(range(8), k)]
    for tops in tops_list:
        assert planned(plan(tops)) == planned(oracle_plan_reference(tops)), tops
        for step, bounds in ((0, tops), (1, tuple(t + i for i, t in enumerate(tops, 1)))):
            assert _count_below(bounds, step) == count_below_dp_literal(bounds, step)
            assert seen.pop() == tops
    # The staircase 1..10 is planned without counting its runs.
    monkeypatch.setattr(lattice_paths, "Counter", None)
    assert planned(plan(tuple(range(1, 11)))) == (65, [(t + 1, 1) for t in range(1, 11)], 1)


@given(st.one_of(
    st.lists(st.integers(0, 60), max_size=40),
    # Distinct tops, on both sides of the shortcut's bounds t_1 <= k + 1
    # and k <= t_k <= t_1 + k.
    st.sets(st.integers(0, 80), max_size=40),
    st.lists(st.tuples(st.integers(0, 400), st.integers(1, 400)), max_size=3).map(
        lambda runs: [t for t, length in runs for _ in range(length)]),
))
def test_oracle_plan_matches_the_reference_planner(heights):
    tops = tuple(sorted(heights))
    assert planned(_oracle_plan(tops)) == planned(oracle_plan_reference(tops))


def test_stepped_dp_cells_skip_what_a_strict_prefix_cannot_reach(monkeypatch):
    # Step 1 counts its cells on the shifted tops b_i - i: 1, 2, 3 here, so 9
    # cells and not sum(b_i + 1) = 15.
    monkeypatch.setattr(lattice_paths, "MAX_ORACLE_CELLS", 9)
    assert _count_below((2, 4, 6), 1) == 14
    monkeypatch.setattr(lattice_paths, "MAX_ORACLE_CELLS", 8)
    with pytest.raises(ValueError, match="exceed bound 8"):
        _count_below((2, 4, 6), 1)


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


def test_walked_routes_agree_with_the_oracle_at_length_1000():
    # The last is a raised staircase with height drops 0: 292, 1: 464, 2: 194
    # and 3: 49, whose rows of the gamma recursion are walked across all four.
    stair, raised = dec(range(1000, 0, -1)), dec(range(1004, 4, -1))
    rng = random.Random(1000)
    uneven = dec(sorted((1000 - i + rng.randint(0, 2) for i in range(1000)), reverse=True))
    for lam in (stair, raised, uneven):
        count = count_below_decreasing_iterative(lam)
        assert count == count_below_increasing_determinant(lam.mirror()) == count_below_oracle(lam)
    assert count_below_decreasing_iterative(stair) == catalan(1001)


def test_walked_and_fresh_rows_agree_with_the_oracle_at_length_300():
    # A raised staircase: height drops 0: 77, 1: 154, 2: 58 and 3: 10, so
    # its rows of the gamma recursion walk most entries across drops of 1 to
    # 4 in a_i = h_i - i and take afresh the zero tails and the few entries
    # whose bottom is below the drop.
    rng = random.Random(300)
    lam = dec(sorted((300 - i + rng.randint(0, 2) for i in range(300)), reverse=True))
    count = count_below_decreasing_iterative(lam)
    assert count == count_below_increasing_determinant(lam.mirror()) == count_below_oracle(lam)


# -------------------------------------------------------------- enumeration


def test_enumerate_below_listing():
    result = enumerate_below(dec((2, 1)), 10)
    assert result.items == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert not result.truncated


def test_enumerate_below_degenerate_and_truncated():
    result = enumerate_below(dec((0,)), 10)
    assert result.items == [(0,)]
    assert not result.truncated
    result = enumerate_below(dec((1,)), 1)
    assert result.items == [(0,)]
    assert result.truncated


def test_enumerate_below_rejects_zero_cap():
    with pytest.raises(ValueError):
        enumerate_below(dec((1,)), 0)


def test_enumerate_below_listing_bound(monkeypatch):
    # 30 units list at most 30 // 3 = 10 sequences of length 2: (3, 3) has
    # exactly 10 below it and (4, 4) has 15.
    assert lattice_paths.MAX_LIST_WORK // 8 >= 2300  # the longest listings benchmarked
    monkeypatch.setattr(lattice_paths, "MAX_LIST_WORK", 30)
    listed = []
    monkeypatch.setattr(lattice_paths, "iter_monotone_below",
                        lambda bounds, direction: (listed.append(x) or x
                                                   for x in iter_monotone_below(bounds, direction)))
    assert enumerate_below(dec((3, 3)), 100) == ([x.heights for x in iter_below(dec((3, 3)))], False)
    result = enumerate_below(dec((4, 4)), 10)
    assert len(result.items) == 10 and result.truncated
    listed.clear()
    for cap in (11, 100):
        with pytest.raises(ValueError, match="^listing exceeds bound 10 sequences of length 2$"):
            enumerate_below(dec((4, 4)), cap)
    # Refused once the eleventh is listed, not after the whole listing.
    assert len(listed) == 2 * 11


def test_enumerate_below_lists_the_heights_of_iter_below():
    # Every boundary of k <= 4 entries in 0..4, in both directions, at caps
    # 1, its count, one past it and one past sys.maxsize (which no listing
    # holds): the items are iter_below's heights as tuples of plain ints,
    # cut at the cap, each its own .heights, and truncated says whether any
    # was cut.
    for k in range(1, 5):
        for h in [dec(x) for x in all_decreasing(k, 4)] + [inc(x) for x in all_increasing(k, 4)]:
            every = [x.heights for x in iter_below(h)]
            for cap in (1, len(every), len(every) + 1, sys.maxsize + 1):
                result = enumerate_below(h, cap)
                assert type(result) is BelowEnumeration
                assert result.items == every[:cap], (h, cap)
                for x in result.items:
                    assert type(x) is ListedHeights and x.heights is x, (h, cap)
                    assert all(type(e) is int for e in x), (h, cap)
                assert result.truncated is (cap < len(every)), (h, cap)


def test_iter_below_matches_lexicographic_brute_force():
    # product() and combinations() list tuples lexicographically, so
    # filtering them gives the expected listing in both content and order.
    for k in range(6):
        for bound in combinations_with_replacement(range(5), k):
            for direction, h in ((INC, bound), (DEC, bound[::-1])):
                step = -1 if direction is DEC else 1
                expected = [
                    x
                    for x in product(range(max(bound, default=0) + 1), repeat=k)
                    if all(a <= b for a, b in zip(x, h))
                    and all(step * (b - a) >= 0 for a, b in zip(x, x[1:]))
                ]
                assert list(iter_monotone_below(h, direction)) == expected, h
                if k:
                    below = list(iter_below(HeightSequence(direction, h)))
                    assert [u.heights for u in below] == expected, h
                    assert all(u.direction is direction for u in below)
    for k in range(10):
        for s in combinations(range(1, 10), k):
            expected = [t for t in combinations(range(1, 10), k)
                        if all(a <= b for a, b in zip(t, s))]
            assert list(iter_downset(Subset(9, s))) == expected, s


@given(st.sampled_from([DEC, INC]),
       st.lists(st.integers(0, 6), max_size=8).map(lambda xs: tuple(sorted(xs))))
def test_runs_of_the_last_entry_match_the_per_item_odometer(direction, bound):
    h = bound[::-1] if direction is DEC else bound
    assert list(iter_monotone_below(h, direction)) == list(monotone_below_odometer(h, direction))


def test_enumerator_edge_cases():
    for direction in (DEC, INC):
        assert list(iter_monotone_below((), direction)) == [()]
        # An odometer, not a recursion: 20,000 entries list at once.
        assert list(iter_monotone_below((0,) * 20_000, direction)) == [(0,) * 20_000]
    assert list(iter_downset(Subset(1, ()))) == [()]
    assert list(iter_downset(Subset(3, (3,)))) == [(1,), (2,), (3,)]
    # A run of last entries is lazy: the first items come from a run of 10^30 + 1.
    assert list(islice(iter_monotone_below((5, 10**30), INC), 3)) == [(0, 0), (0, 1), (0, 2)]


def subsets_below(s, least=1):
    """The strictly increasing tuples t <= s with t_1 >= least, by brute force."""
    return [t for t in combinations(range(least, max(s, default=0) + 1), len(s))
            if all(map(le, t, s))]


# Row bounds and tail caps for the tail-table sweeps, and the tail lengths
# the sweep below takes under each: (0, 16) walks every bound without a
# table, a row bound of 6 puts the table's edge among small bounds, the caps
# 2 and 3 cut tails that would be longer, and the library's limits take
# tails of up to 5 entries on the sweep's bounds.
TABLE_LIMITS = [(0, 16, {1}), (6, 16, {1, 2, 3, 4}), (30, 2, {1, 2}), (30, 3, {1, 2, 3}),
                (MAX_TAIL_ROWS, MAX_TAIL_LENGTH, {1, 2, 3, 4, 5})]


def walks_below(h, s):
    """The walks below h in both directions and below the subset s, each
    against its per-item reference.  Returns the tail lengths the walks
    took."""
    for direction, bound in ((INC, h), (DEC, h[::-1])):
        assert (list(iter_monotone_below(bound, direction))
                == list(monotone_below_odometer(bound, direction))), (bound, direction)
    assert list(iter_downset(Subset(max(s, default=1), s))) == subsets_below(s), s
    return {_tail_length(h), _tail_length(h[::-1]), _tail_length(s)}


@pytest.mark.parametrize("rows, length, lengths", TABLE_LIMITS)
def test_tail_table_walks_match_the_per_item_references(monkeypatch, rows, length, lengths):
    monkeypatch.setattr(lattice_paths, "MAX_TAIL_ROWS", rows)
    monkeypatch.setattr(lattice_paths, "MAX_TAIL_LENGTH", length)
    taken = set()
    bounds = [b for k in range(6) for b in combinations_with_replacement(range(5), k)]
    subsets = [s for k in range(9) for s in combinations(range(1, 9), k)]
    for b, s in zip(bounds, subsets):
        taken |= walks_below(b, s)
    for b in bounds[len(subsets):]:
        taken |= walks_below(b, ())
    for s in subsets[len(bounds):]:
        taken |= walks_below((), s)
    assert taken == lengths


@given(st.sampled_from(TABLE_LIMITS),
       st.lists(st.integers(0, 6), max_size=10).map(lambda xs: tuple(sorted(xs))),
       st.sets(st.integers(1, 14)).map(lambda s: tuple(sorted(s))))
def test_tail_table_walks_match_the_per_item_references_on_longer_bounds(limits, h, s):
    rows, length, _ = limits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_paths, "MAX_TAIL_ROWS", rows)
        patch.setattr(lattice_paths, "MAX_TAIL_LENGTH", length)
        walks_below(h, s)


def test_tail_table_edge_cases():
    # 20,000 zeros take a tail of the cap's length: no recursion builds it.
    assert _tail_length((0,) * 20_000) == MAX_TAIL_LENGTH
    # Past the row bound the last entries run lazily, here over 10^30 + 1.
    assert _tail_length((1, 5, 10**30)) == 1
    assert list(islice(iter_monotone_below((1, 5, 10**30), INC), 3)) == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2)]
    # A head bound of 10^30 takes every row from one table, the 9 tuples
    # below (3, 2), over 10^5 items.
    bound = (10**30, 3, 2)
    assert _tail_length(bound) == 2
    assert (list(islice(iter_monotone_below(bound, DEC), 10**5))
            == list(islice(monotone_below_odometer(bound, DEC), 10**5)))
    tracemalloc.start()
    try:
        deque(islice(iter_monotone_below(bound, DEC), 10**5), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000


# Three walks whose tables take long runs, each with its reference listing.
LONG_RUNS = [((8, 7, 5, 4, 3, 3, 1), None,
              list(monotone_below_odometer((8, 7, 5, 4, 3, 3, 1), DEC))),
             ((1, 2, 3, 4, 5, 7, 8), 0, list(monotone_below_odometer((1, 2, 3, 4, 5, 7, 8), INC))),
             (tuple(range(2, 17, 2)), 1, subsets_below(tuple(range(2, 17, 2))))]


def spy_tail_rows(monkeypatch):
    """The tails _tail_rows is asked for, in call order."""
    tails, tail_rows = [], lattice_paths._tail_rows
    monkeypatch.setattr(lattice_paths, "_tail_rows",
                        lambda tail, *args: tails.append(tail) or tail_rows(tail, *args))
    return tails


def tail_chain(bounds):
    """The tails a walk below bounds tables, one a level: each the last
    _tail_length entries of the one before."""
    tails = []
    while (m := _tail_length(bounds)) > 1:
        bounds = bounds[-m:]
        tails.append(bounds)
    return tails


def test_tail_table_takes_long_runs(monkeypatch):
    # The last entry alone would take one run a (k - 1)-prefix: 1544, 561
    # and 1430 runs.  The tables take a tenth of that at most.
    for (bounds, step, reference), plain in zip(LONG_RUNS, (1544, 561, 1430)):
        assert list(chain.from_iterable(_runs(bounds, step))) == reference
        assert len({x[:-1] for x in reference}) == plain
        assert sum(1 for _ in _runs(bounds, step)) <= plain // 10
    tails = spy_tail_rows(monkeypatch)
    list(iter_downset(Subset(16, tuple(range(2, 17, 2)))))
    list(iter_monotone_below((1, 2, 3, 4, 5, 7, 8), INC))
    list(iter_monotone_below((8, 7, 5, 4, 3, 3, 1), DEC))
    # One table a level, each built by the walk on the tail above it.
    assert tails == [(12, 14, 16), (14, 16),
                     (4, 5, 7, 8), (5, 7, 8), (7, 8),
                     (5, 4, 3, 3, 1), (4, 3, 3, 1), (3, 3, 1), (3, 1)]
    # enumerate_icn walks no bound: it builds each domain's maps from its
    # parent domain's.
    enumerate_icn(8)
    assert len(tails) == 9


def test_tail_tables_nest_on_proper_suffixes_at_most_the_tail_cap_deep(monkeypatch):
    # A table is built inside the walk one level up, so the depth of the
    # build is the length of the chain of tails.  20,000 zeros table 15
    # tails, of 16 entries down to 2; 13 ones table 11, of 12 down to 2,
    # the first at the row bound (2^12 = MAX_TAIL_ROWS).
    tails, tail_rows = [], lattice_paths._tail_rows
    depth = deepest = 0

    def spied(tail, step, first):
        nonlocal depth, deepest
        tails.append(tail)
        depth += 1
        deepest = max(deepest, depth)
        try:
            return tail_rows(tail, step, first)
        finally:
            depth -= 1

    monkeypatch.setattr(lattice_paths, "_tail_rows", spied)
    ones = [(0,) * (13 - i) + (1,) * i for i in range(14)]
    for bound, direction, listed, longest in (((0,) * 20_000, DEC, [(0,) * 20_000], 16),
                                              ((1,) * 13, INC, ones, 12)):
        tails.clear()
        deepest = 0
        assert list(iter_monotone_below(bound, direction)) == listed
        assert [len(t) for t in tails] == list(range(longest, 1, -1))
        assert all(t == bound[-len(t):] for t in tails)
        assert deepest == len(tails) <= MAX_TAIL_LENGTH


def test_a_walk_builds_one_table_a_level_not_one_a_row(monkeypatch):
    # Every walk of the sweep asks _tail_rows once for each tail of its
    # chain, in order, however many prefixes share a row.
    tails = spy_tail_rows(monkeypatch)
    bounds = [b for k in range(9) for b in combinations_with_replacement(range(4), k)]
    for b in bounds:
        for walk, bound in ((iter_monotone_below(b, INC), b),
                            (iter_monotone_below(b[::-1], DEC), b[::-1])):
            tails.clear()
            deque(walk, 0)
            assert tails == tail_chain(bound), bound
    for k in range(11):
        for s in combinations(range(1, 11), k):
            tails.clear()
            assert list(iter_downset(Subset(10, s))) == subsets_below(s), s
            assert tails == tail_chain(s), s


def test_a_capped_walk_builds_at_most_one_whole_table_a_level(monkeypatch):
    # The first five items of each walk draw every nested walk once and
    # whole: every tuple below a decreasing tail, every one below a weakly
    # increasing tail from 0, and a strict tail's subsets from one past the
    # last entry of the first prefix above it.  (2, 4, ..., 16) walks the
    # prefixes (1, ..., 5), ... so its table holds the subsets below
    # (12, 14, 16) from 6, whose own walk starts at (6,) and tables the
    # pairs below (14, 16) from 7.
    walks, runs = [], lattice_paths._runs

    def spied(bounds, step, **kwargs):
        drawn = [bounds, 0]
        walks.append(drawn)
        for run in runs(bounds, step, **kwargs):
            run = list(run)
            drawn[1] += len(run)
            yield run

    def odometer(tail, direction):
        return sum(1 for _ in monotone_below_odometer(tail, direction))

    monkeypatch.setattr(lattice_paths, "_runs", spied)
    nested = [[[t, odometer(t, DEC)] for t in ((5, 4, 3, 3, 1), (4, 3, 3, 1), (3, 3, 1), (3, 1))],
              [[t, odometer(t, INC)] for t in ((4, 5, 7, 8), (5, 7, 8), (7, 8))],
              [[(12, 14, 16), len(subsets_below((12, 14, 16), 6))],
               [(14, 16), len(subsets_below((14, 16), 7))]]]
    for (bounds, step, reference), tables in zip(LONG_RUNS, nested):
        walks.clear()
        walk = chain.from_iterable(lattice_paths._runs(bounds, step))
        assert list(islice(walk, 5)) == reference[:5]
        assert walks[1:] == tables, bounds


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
            assert result.items == sorted(result.items)


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


def test_cor34_matrix_determinant_matches_the_oracle():
    # Bareiss on the lower Hessenberg matrix C(h_i + 1, i - j + 1) itself,
    # against the DP count, for boundaries up to length 60.
    rng = random.Random(34)
    for _ in range(120):
        k = rng.randint(1, 60)
        h = sorted((rng.randint(0, 60) for _ in range(k)), reverse=True)
        matrix = IntMatrix(
            tuple(tuple(binomial(h[i] + 1, i - j + 1) for j in range(k)) for i in range(k))
        )
        assert det_exact(matrix) == count_below_oracle(dec(h)), h


def test_identity_cor34_builds_the_literal_matrix(monkeypatch):
    # Each walked band row against one fresh binomial per entry, and zeros
    # past the band j <= i + 1.
    matrices = []

    def recording(m):
        matrices.append(m)
        return det_exact(m)

    monkeypatch.setattr(lattice_paths, "det_exact", recording)
    boundaries = [h for k in range(2, 8) for h in all_decreasing(k, 7)]
    boundaries += [(10**30,) * 4, (10050,) * 20, tuple(range(160, 0, -1))]
    for h in boundaries:
        k = len(h)
        verify_identity_cor34(dec(h))
        assert matrices.pop().entries == tuple(
            tuple(binomial(h[i] + 1, i - j + 1) if j <= i + 1 else 0 for j in range(k))
            for i in range(k)), h
    assert not matrices


def test_identity_cor34_on_the_staircase_of_length_300():
    # The Catalan staircase (300, 299, ..., 1), of c_301 paths; about 0.02 s.
    c = catalan(301)
    assert verify_identity_cor34(dec(range(300, 0, -1))) == (c, c, True)


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


def test_identity_cor35_work_bound():
    # k^2 b (k + b), b the bit length of k: k = 1025 is the last within it.
    assert 1025**2 * 11 * (1025 + 11) <= MAX_STAIRCASE_WORK < 1026**2 * 11 * (1026 + 11)
    message = ("staircase work m^2 b (m + b), b = bit_length(k), exceeds bound "
               f"{MAX_STAIRCASE_WORK}")
    for k in (1026, 10**5):
        with pytest.raises(ValueError) as refused:
            verify_identity_cor35(k)
        assert str(refused.value) == message


def test_gamma_k_on_the_mixed_family_boundary():
    # The folded count closes with gamma_k and gamma_{k+1}, read from the
    # boundary (m repeated k-m+1 times, then m-1, ..., 1) with h_k repeated:
    # gamma_k = 0 at m = 2 and -1 at m = 3.
    for k in range(2, 41):
        for m, gamma_k in [(2, 0), (3, -1)]:
            if m <= k:
                lam = dec((m,) * (k - m + 1) + tuple(range(m - 1, 0, -1)) + (1,))
                assert compute_gammas(lam)[k - 1] == gamma_k, (k, m)
