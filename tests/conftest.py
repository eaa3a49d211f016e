"""Shared brute-force helpers used as independent oracles across test modules."""

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

from hypothesis import settings

from rookpaths import (
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


def incl_excl_literal(s):
    """dim <v_S> by the paper's inclusion-exclusion, term by term: the signed
    determinant count of every nonempty T inside S, and 1 for the empty T."""
    k = len(s)
    return (-1) ** k + sum(
        (-1) ** (k - m) * count_below_increasing_determinant(HeightSequence.increasing(t))
        for m in range(1, k + 1)
        for t in combinations(s.elems, m)
    )


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
