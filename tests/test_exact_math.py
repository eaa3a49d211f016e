import random
from itertools import product

import pytest

from conftest import det_bareiss_eager, det_cofactor, hockey_left_literal
from rookpaths import IntMatrix, binomial, catalan, det_exact, hockey_stick_sides
from rookpaths.exact_math import MAX_HOCKEY_WORK


def test_binomial_small_cases():
    assert binomial(6, 2) == 15
    assert binomial(3, 5) == 0
    assert binomial(4, 0) == 1
    assert binomial(5, -1) == 0


def test_binomial_rejects_negative_upper_index():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal_recurrence():
    for n in range(1, 61):
        assert binomial(n, 0) == 1
        assert binomial(n, n) == 1
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_catalan_values():
    assert catalan(1) == 1
    assert catalan(3) == 5
    assert catalan(5) == 42


def test_catalan_integrality():
    for n in range(1, 26):
        assert catalan(n) * (n + 1) == binomial(2 * n, n)


def test_catalan_rejects_nonpositive():
    with pytest.raises(ValueError):
        catalan(0)
    with pytest.raises(ValueError):
        catalan(-3)
    with pytest.raises(ValueError, match="got True"):
        catalan(True)


def test_det_exact_small_cases():
    assert det_exact(IntMatrix(((2, 1), (1, 3)))) == 5
    assert det_exact(IntMatrix(())) == 1
    assert det_exact(IntMatrix(((1, 2), (3, 4)))) == -2


def test_det_exact_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact(IntMatrix(((1, 2, 3), (4, 5, 6))))
    with pytest.raises(ValueError):
        det_exact(IntMatrix(((),)))


def test_det_exact_singular_and_pivoting():
    assert det_exact(IntMatrix(((0, 1), (0, 2)))) == 0
    assert det_exact(IntMatrix(((0, 1), (1, 0)))) == -1
    assert det_exact(IntMatrix(((0, 0, 1), (0, 1, 0), (1, 0, 0)))) == -1


def random_shaped_rows(rng, n):
    """An n x n matrix with entries in -4..4 or, in one draw of two, up to
    10^30 in size, of one shape drawn at random (dense, lower or upper
    Hessenberg, banded, or stale), and a density, also drawn, for its
    nonzeros.  A stale matrix has rows 0..t-1 zero in columns 0..t but for
    a zero-free diagonal, row t zero in columns 0..t, and dense rows below
    it, zero-free in column t.  So a column j > t whose last nonzero entry
    in rows < t is in row s - 1, s >= 1, stays stale from step s on, and
    turns nonzero at step t under the row swap that t's zero pivot forces."""
    size = rng.choice([4, 10**30])
    shapes = ["dense", "lower", "upper", "band"] + ["stale"] * (n >= 3)
    shape = rng.choice(shapes)
    density = rng.random()

    def entry(nonzero=False):
        value = rng.randint(-size, size) if nonzero or rng.random() < density else 0
        return value or (rng.choice([-1, 1]) if nonzero else 0)

    if shape == "stale":
        t = rng.randint(1, n - 2)
        return [[entry(i == j) if i == j or (i < t and j > t) else 0 for j in range(n)]
                for i in range(t)] + [[0] * (t + 1) + [entry() for _ in range(n - t - 1)]] + [
                    [entry(j == t) for j in range(n)] for _ in range(n - t - 1)]
    lo, hi = {"dense": (n, n), "lower": (n, 1), "upper": (1, n)}.get(
        shape, (rng.randint(0, 2), rng.randint(0, 2)))
    return [[entry() if -lo <= j - i <= hi else 0 for j in range(n)] for i in range(n)]


def test_det_exact_matches_cofactor_reference():
    rng = random.Random(20240601)
    for _ in range(1000):
        n = rng.randint(0, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_exact(IntMatrix(tuple(map(tuple, rows)))) == det_cofactor(rows)
    rng = random.Random(1968)
    for _ in range(3000):
        rows = random_shaped_rows(rng, rng.randint(0, 7))
        expected = det_cofactor(rows)
        assert det_bareiss_eager(rows) == expected, rows
        assert det_exact(IntMatrix(tuple(map(tuple, rows)))) == expected, rows


def test_det_exact_swaps_rows_under_stale_columns():
    # Step 0 leaves columns 2 and 3 stale (row 0 is zero there) with pivot 2
    # and zeroes a[1][1], so step 1 swaps rows 1 and 2 under them; the last
    # case swaps again at step 2 with column 3 still stale.
    for rows in [
        [[2, 2, 0, 0], [3, 3, 0, 2], [0, 3, 2, 0], [2, 0, 5, 1]],
        [[3, 1, 0, 0], [6, 2, 0, 1], [1, 0, 4, 7], [2, 5, 1, 3]],
        [[2, 1, 0, 0, 0], [4, 2, 0, 0, 3], [1, 1, 0, 0, 1], [5, 0, 2, 0, 1], [1, 3, 0, 4, 2]],
    ]:
        expected = det_cofactor(rows)
        assert expected != 0
        assert det_exact(IntMatrix(tuple(map(tuple, rows)))) == expected == det_bareiss_eager(rows)


def test_det_exact_zero_rows_columns_and_singular():
    rng = random.Random(6)
    for _ in range(500):
        n = rng.randint(1, 7)
        rows = random_shaped_rows(rng, n)
        i = rng.randrange(n)
        kind = rng.choice(["row", "col", "repeat"])
        for j in range(n):
            if kind == "row":
                rows[i][j] = 0
            elif kind == "col":
                rows[j][i] = 0
            else:
                rows[i][j] = rows[(i + 1) % n][j] * 2 if n > 1 else 0
        assert det_exact(IntMatrix(tuple(map(tuple, rows)))) == 0 == det_cofactor(rows), rows


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        IntMatrix(((1.5,),))
    with pytest.raises(ValueError, match="ints"):
        IntMatrix(((True,),))


def test_int_matrix_upper_triangular():
    assert IntMatrix(((1, 2), (0, 3))).is_upper_triangular()
    assert not IntMatrix(((1, 0), (2, 3))).is_upper_triangular()
    assert IntMatrix(()).is_upper_triangular()


def test_hockey_stick_examples():
    assert hockey_stick_sides(2, 3, 1) == (9, 9)
    assert hockey_stick_sides(3, 1, 2) == (3, 3)
    assert hockey_stick_sides(7, 0, 4) == (0, 0)


def test_hockey_stick_sides_agree_everywhere():
    # The walk against the literal sum, also past the first nonzero summand
    # (a < p), from a huge a, and across the middle of a row.
    more = [(0, 40, 3), (5, 30, 17), (17, 30, 5), (30, 1, 29), (3, 50, 60), (10**30, 25, 4),
            (0, 200, 100)]
    for a, b, p in [*product(range(13), repeat=3), *more]:
        left, right = hockey_stick_sides(a, b, p)
        assert left == right == hockey_left_literal(a, b, p), (a, b, p)


def test_hockey_stick_refuses_work_over_its_bound():
    # A huge b with small p, a huge a + b with p near the middle, and a
    # huge a with many summands: each refused before any binomial is taken.
    for a, b, p in [(0, 10**7, 0), (10**6, 1, 5 * 10**5), (10**100, 10**5, 10), (0, 10**100, 1)]:
        with pytest.raises(ValueError, match=f"bound {MAX_HOCKEY_WORK}"):
            hockey_stick_sides(a, b, p)
    # The central walk at b = 20000 answers; p past a + b costs nothing.
    assert hockey_stick_sides(0, 20000, 10000)[0] == binomial(20000, 10001)
    assert hockey_stick_sides(10**100, 10**100, 3 * 10**100) == (0, 0)


def test_hockey_stick_rejects_negative():
    with pytest.raises(ValueError):
        hockey_stick_sides(-1, 2, 3)
    with pytest.raises(ValueError, match="got True"):
        hockey_stick_sides(2, True, 1)
