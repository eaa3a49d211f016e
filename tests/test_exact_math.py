import random

import pytest

from rookpaths import IntMatrix, binomial, catalan, det_exact, hockey_stick_sides


def det_cofactor(rows):
    # Reference determinant by first-row expansion, independent of Bareiss.
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * entry * det_cofactor(minor)
    return total


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


def test_det_exact_matches_cofactor_reference():
    rng = random.Random(20240601)
    for _ in range(1000):
        n = rng.randint(0, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_exact(IntMatrix(tuple(map(tuple, rows)))) == det_cofactor(rows)


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
    for a in range(13):
        for b in range(13):
            for p in range(13):
                left, right = hockey_stick_sides(a, b, p)
                assert left == right


def test_hockey_stick_rejects_negative():
    with pytest.raises(ValueError):
        hockey_stick_sides(-1, 2, 3)
    with pytest.raises(ValueError, match="got True"):
        hockey_stick_sides(2, True, 1)
