"""Shared brute-force helpers used as independent oracles across test modules."""

from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import settings

from rookpaths import ModuleVector, PartialInjection, Subset

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
