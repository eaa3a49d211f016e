"""Shared brute-force helpers used as independent oracles across test modules."""

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations, permutations, repeat
from operator import add, gt, itemgetter, mul, sub

import pytest
from hypothesis import settings

from rookpaths import (
    Direction,
    HeightSequence,
    ModuleVector,
    PartialInjection,
    Subset,
    binomial,
    count_below_increasing_determinant,
    dim_principal_iterative,
    subset_leq,
    subset_meet,
)
from rookpaths import lattice_paths
from rookpaths.exact_math import bad_int_message, int_digit_limit, quoted

# Property tests draw the same examples on every run and are not timed per
# example, so a slow or busy machine cannot make them flaky.
settings.register_profile("rookpaths", derandomize=True, deadline=None, database=None)
settings.load_profile("rookpaths")


def all_partial_injections(n):
    """Every injective partial map of {1..n}, with no monotonicity filtering."""
    universe = range(1, n + 1)
    out = []
    for k in range(n + 1):
        for dom in combinations(universe, k):
            for img in permutations(universe, k):
                out.append(PartialInjection(n, tuple(zip(dom, img))))
    return out


def icn_pairs_literal(n):
    """The pairs of every order preserving, order decreasing map of {1..n}
    in the order enumerate_icn lists them: domains D and ranges R by
    combinations, kept when R is dominated by D (r_i <= s_i), sorted by
    (sources, images)."""
    universe = range(1, n + 1)
    maps = [(dom, rng) for k in range(n + 1)
            for dom in combinations(universe, k) for rng in combinations(universe, k)
            if all(r <= s for r, s in zip(rng, dom))]
    return [tuple(zip(dom, rng)) for dom, rng in sorted(maps)]


def monotone_below_odometer(bounds, direction):
    """Every weakly monotone tuple below bounds in ascending lexicographic
    order, one item per step of an odometer: after each tuple the rightmost
    entry below its cap goes up by one and every entry after it drops to its
    least value (0, or the new entry when increasing)."""
    decreasing = direction is Direction.DECREASING
    k = len(bounds)
    x = [0] * k
    while True:
        yield tuple(x)
        i = k - 1
        while i >= 0 and (x[i] >= bounds[i] or decreasing and i and x[i] >= x[i - 1]):
            i -= 1
        if i < 0:
            return
        x[i] += 1
        x[i + 1:] = [0 if decreasing else x[i]] * (k - 1 - i)


def count_below_dp_literal(bounds, step):
    """The tuples _count_below counts, by one prefix sum a bound: the row of
    prefixes ending in each value, padded with its full sum to the next top
    b_i - step * i."""
    row = [1]
    for top in [b - i for i, b in enumerate(bounds, 1)] if step else bounds:
        row = list(accumulate(row))
        row += [row[-1]] * (top + 1 - len(row))
    return sum(row)


def oracle_plan_reference(tops):
    """lattice_paths._oracle_plan as it planned every boundary before its
    shortcut for distinct tops: (cells, runs, weight) of the cheaper way to
    count below the weakly increasing tops: a run (n, L) pads the row to n entries and takes L
    prefix sums, one at a time for L n cells or as one product for
    n^2 weight cells, whichever is fewer.  The weight scales a product to
    the size of the numbers (see lattice_paths.MAX_ORACLE_CELLS).

    The conjugate of tops t_1 <= ... <= t_k, the number of tops >= v for
    v = t_k, ..., 1, has the same count (transpose the Ferrers diagram): a
    run of L equal tops becomes a gap of L, and a gap of g between distinct
    tops (t_0 = 0) a run of g.
    """
    runs = Counter(tops)
    heights, lengths = list(runs), list(runs.values())
    k, top = len(tops), heights[-1] if heights else 0

    def conjugate():
        # The conjugate's runs, lowest first: the tops above each gap, as
        # many of them as the gap is wide.
        gaps = list(map(sub, reversed(heights), chain(reversed(heights[:-1]), (0,))))
        return [c + 1 for c in accumulate(reversed(lengths))], gaps

    # A product pays only for L > n weight >= n, so for a run longer than
    # its row: L > t + 1 in the tops, and in the conjugate a gap
    # t_i - t_(i-1) (t_0 = 0) wider than its row, one more than the
    # k - i + 1 tops from t_i on.
    long = (any(map(gt, lengths, map(add, heights, repeat(1))))
            or any(map(gt, map(sub, tops, chain((0,), tops)), range(k + 1, 1, -1))))
    if not long:
        # Every run takes its L prefix sums, sum (t + 1) L = S + k cells on
        # the tops and S + t_k on the conjugate, S the sum of the tops.
        ns, ls = ([t + 1 for t in heights], lengths) if k <= top else conjugate()
        return sum(tops) + min(k, top), zip(ns, ls), 1
    # Every number the DP holds is at most the count, so at most the
    # product of C(t + L, L) <= (t + L)^min(t, L) over the runs: of at most
    # B bits.
    bits = sum(map(mul, map(min, heights, lengths),
                   map(int.bit_length, map(add, heights, lengths))))
    weight = ((bits >> 10) + 1) ** 2  # w^2, w = B // 1024 + 1
    plans = []
    for ns, ls in ([t + 1 for t in heights], lengths), conjugate():
        # A run costs n min(L, n weight) cells.
        cells = sum(map(mul, ns, map(min, ls, map(mul, ns, repeat(weight)))))
        plans.append((cells, zip(ns, ls)))
    return (*min(plans, key=itemgetter(0)), weight)


def random_subset(rng, n, max_size=None):
    size = rng.randint(0, max_size if max_size is not None else n)
    return Subset(n, tuple(sorted(rng.sample(range(1, n + 1), size))))


def random_module_vector(rng, max_n=10, max_terms=6):
    n = rng.randint(1, max_n)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))
        terms[random_subset(rng, n)] = coeff
    return ModuleVector(n, terms)


def det_cofactor(rows):
    """Determinant by first-row expansion, independent of Bareiss."""
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


def det_bareiss_eager(rows):
    """Determinant by Bareiss elimination that updates every entry below and
    right of the pivot at every step, zero pivot-row entries included."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update; the division by the previous pivot is exact.
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def hockey_left_literal(a, b, p):
    """The left side of the hockey-stick identity, one binomial per summand."""
    return sum(binomial(z, p) for z in range(a, a + b))


def incl_excl_literal(s):
    """dim <v_S> by the paper's inclusion-exclusion, term by term: the signed
    determinant count of every nonempty T inside S, and 1 for the empty T."""
    k = len(s)
    return (-1) ** k + sum(
        (-1) ** (k - m) * count_below_increasing_determinant(HeightSequence.increasing(t))
        for m in range(1, k + 1)
        for t in combinations(s.elems, m)
    )


def gammas_literal(h):
    """gamma_1..gamma_k of the decreasing heights h by the paper's recursion,
    one binomial per term."""
    g = [0, 1]  # 1-indexed
    for j in range(2, len(h) + 1):
        g.append(-sum(binomial(h[i - 1] - h[j - 2] + j - i - 1, j - i) * g[i]
                      for i in range(1, j - 1)))
    return tuple(g[1:])


GAMMA_ROUTES = ("_pushed_gammas", "_walked_gammas")


def by_each_gamma_route(f, lam):
    """[f(lam) with compute_gammas choosing its route, then f(lam) with it
    sent to each route whatever the drops]."""
    results = [f(lam)]
    for name in GAMMA_ROUTES:
        route = getattr(lattice_paths, name)
        with pytest.MonkeyPatch.context() as m:
            for other in GAMMA_ROUTES:
                m.setattr(lattice_paths, other, route)
            results.append(f(lam))
    return results


def iterative_literal(h):
    """The number of decreasing paths below the heights h as the paper writes
    it: h_1 + 1 at length 1, else the gamma recursion and the iterative
    count's three sums, one binomial per term."""
    k = len(h)
    if k == 1:
        return h[0] + 1
    g = (0, *gammas_literal(h))  # 1-indexed
    return (
        sum(binomial(h[i - 1] + k - i + 1, k + 1 - i) * g[i] for i in range(1, k))
        - sum(binomial(h[i - 1] - h[k - 1] + k - i, k + 1 - i) * g[i] for i in range(1, k))
        - sum((h[k - 1] + 1) * binomial(h[i - 1] - h[k - 2] + k - i - 1, k - i) * g[i]
              for i in range(1, k - 1))
    )


def hessenberg_det_literal(h):
    """det C(h_i + 1, j - i + 1) of the increasing heights h, expanded along
    its last column: D_0 = 1 and D_m = sum((-1)^(m-i) C(h_i+1, m-i+1) D_{i-1},
    i <= m), one binomial per term."""
    d = [1]
    for m in range(1, len(h) + 1):
        d.append(sum((-1) ** (m - i) * binomial(h[i - 1] + 1, m - i + 1) * d[i - 1]
                     for i in range(1, m + 1)))
    return d[-1]


def cor35_rhs_literal(k):
    """The right side of the Catalan staircase identity as the paper writes
    it, one binomial per term of the gamma recursion and of the three sums."""
    g = [0, 1]
    for i in range(2, k):
        g.append(-sum(binomial(2 * (i - j - 1), i - j) * g[j] for j in range(1, i - 1)))
    return (
        sum(binomial(2 * (k - i + 1), k + 1 - i) * g[i] for i in range(1, k))
        - sum(binomial(2 * (k - i), k + 1 - i) * g[i] for i in range(1, k))
        - sum(2 * binomial(2 * (k - i - 1), k - i) * g[i] for i in range(1, k - 1))
    )


def mixed_family_literal(k, m):
    """dim <v_{2,4,...,2m,2m+1,...,m+k}> as the paper writes it for k >= m >= 2:
    one binomial per term of the specialized gamma recursion and of the three
    sums, with gamma_1..gamma_k in one list."""
    g = [0] * (k + 1)  # 1-indexed
    g[1] = 1
    for i in range(2, k):
        if i <= k - m + 2:
            g[i] = 0
        elif i == k - m + 3:
            g[i] = -1
        else:
            g[i] = -binomial(m - k + 2 * i - 4, i - 1) - sum(
                binomial(2 * (i - j - 1), i - j) * g[j] for j in range(k - m + 3, i - 1)
            )
    total = (
        binomial(m + k, k)
        - binomial(m + k - 2, k)
        - 2 * binomial(m + k - 4, k - 1)
    )
    total += sum(binomial(2 * (k - i + 1), k + 1 - i) * g[i] for i in range(k - m + 3, k))
    total -= sum(binomial(2 * (k - i), k + 1 - i) * g[i] for i in range(k - m + 3, k))
    total -= sum(2 * binomial(2 * (k - i - 1), k - i) * g[i] for i in range(k - m + 3, k - 1))
    return total


def coefficient_literal(coeff_text):
    """A vector coefficient's value as parse_module_vector read every one
    before its int() fast path: exponents past the int digit limit (4300
    where the interpreter sets none) refused, then Fraction(text.strip()),
    its errors worded as the parser words them."""
    limit = int_digit_limit() or 4300
    try:
        exponent = abs(int(coeff_text.lower().partition("e")[2]))
    except ValueError:
        exponent = 0
    if exponent > limit:
        raise ValueError(f"coefficient exponents are limited to {limit}, got {quoted(coeff_text)}")
    try:
        return Fraction(coeff_text.strip())
    except (ValueError, ZeroDivisionError):
        message = f"bad coefficient {quoted(coeff_text)}"
        raise ValueError(bad_int_message(coeff_text, message)) from None


def reduced_support_literal(v):
    """The maximal subsets of the support of v, each term compared with
    every other one."""
    supp = list(v.terms)
    return frozenset(s for s in supp if not any(s != t and subset_leq(s, t) for t in supp))


def dim_submodule_literal(v):
    """dim <v> by inclusion-exclusion over the reduced support, term by term:
    the meet of every nonempty set of generators of one size."""
    red = sorted(reduced_support_literal(v), key=lambda s: (len(s), s.elems))
    return sum(
        (-1) ** (r - 1) * dim_principal_iterative(reduce(subset_meet, chosen))
        for r in range(1, len(red) + 1)
        for chosen in combinations(red, r)
        if len({len(s) for s in chosen}) == 1
    )


def independent_antichain(r):
    """r subsets of {1..2r} below the staircase {2, 4, ..., 2r}, the i-th one
    lowered at its i-th element only, so every set of them has its own meet
    and inclusion-exclusion over them has 2^r - 1 distinct terms."""
    top = range(2, 2 * r + 1, 2)
    return [tuple(e - (j == i) for j, e in enumerate(top)) for i in range(r)]
