"""Property tests of the closed-form routes against the brute-force oracles.

The examples are derived from each test's name (the ``rookpaths`` profile
in conftest.py), so every run checks the same inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rookpaths import (
    HeightSequence,
    Subset,
    count_below_increasing_determinant,
    count_below_oracle,
    dim_principal_incl_excl,
    downset,
)

increasing_boundaries = st.lists(st.integers(0, 40), min_size=1, max_size=12).map(
    lambda heights: HeightSequence.increasing(sorted(heights))
)
subsets_of_14 = st.sets(st.integers(1, 14)).map(lambda elems: Subset(14, tuple(sorted(elems))))


@given(increasing_boundaries)
def test_determinant_route_matches_the_oracle(a):
    assert count_below_increasing_determinant(a) == count_below_oracle(a)


@settings(max_examples=40)  # a 14-element subset sums 2^14 determinants
@given(subsets_of_14)
def test_inclusion_exclusion_matches_the_downset(s):
    assert dim_principal_incl_excl(s) == len(downset(s))
