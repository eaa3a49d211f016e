"""Seeded request lists and the independent expected outputs."""

import io
import json
import random

import pytest

import reference
from workloads import WORKLOADS, build_requests, equal_sum_antichain
from rookpaths import (
    HeightSequence,
    ModuleVector,
    Subset,
    count_below_oracle,
    dim_submodule_oracle,
    downset,
    enumerate_below,
    enumerate_icn,
    format_two_line,
)
from rookpaths.cli import run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_list_and_another_seed_another(workload):
    first = json.dumps(build_requests(workload, 7)).encode()
    assert json.dumps(build_requests(workload, 7)).encode() == first
    assert json.dumps(build_requests(workload, 8)).encode() != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_lists_have_enough_requests_and_a_tenth_ask_for_json(workload):
    requests = build_requests(workload, 1)
    assert len(requests) >= 100
    with_json = sum("--json" in argv for argv in requests)
    assert with_json == round(len(requests) / 10)


def test_path_counts_match_the_library_oracle():
    rng = random.Random(0)
    cases = [(tuple(range(k, 0, -1)), True) for k in (1, 2, 5, 9)]
    cases += [((h,) * k, decreasing) for h in (0, 3, 7) for k in (1, 4) for decreasing in (True, False)]
    for _ in range(40):
        hs = sorted((rng.randint(0, 8) for _ in range(rng.randint(1, 6))), reverse=True)
        cases.append((tuple(hs), True))
        cases.append((tuple(reversed(hs)), False))
    for hs, decreasing in cases:
        h = HeightSequence.decreasing(hs) if decreasing else HeightSequence.increasing(hs)
        assert reference.count_paths_below(hs, decreasing) == count_below_oracle(h), hs


def test_path_listings_match_the_library_enumerator():
    for hs, decreasing in [((4, 2, 2, 1), True), ((0, 1, 3, 3), False), ((2,), True)]:
        h = HeightSequence.decreasing(hs) if decreasing else HeightSequence.increasing(hs)
        for cap in (1, 5, 1000):
            items, truncated = reference.list_paths_below(hs, decreasing, cap)
            result = enumerate_below(h, cap)
            assert items == [list(x.heights) for x in result.items]
            assert truncated == result.truncated


def test_subset_dimensions_match_the_downset_oracle():
    rng = random.Random(1)
    subsets = [(), (2, 4, 6, 8), (3, 4, 5, 6), (1,), (5, 6, 7)]
    subsets += [tuple(sorted(rng.sample(range(1, 11), rng.randint(1, 6)))) for _ in range(30)]
    for elems in subsets:
        assert reference.dim_subset(elems) == len(downset(Subset(10, elems))), elems


def test_union_dimensions_match_the_library_oracle():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(10, 12)
        gens = equal_sum_antichain(rng, n, 4, 3) if rng.random() < 0.5 else [
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n // 2))))
            for _ in range(rng.randint(1, 4))
        ]
        v = ModuleVector(n, {Subset(n, g): 1 for g in gens})
        expected = reference.count_subsets_below_any(reference.maximal_subsets(gens))
        assert expected == dim_submodule_oracle(v), gens


def test_monoid_listing_matches_the_library_enumerator():
    for n in range(1, 6):
        ours = [reference.two_line(d, i) for d, i in reference.monoid_elements(n)]
        assert ours == [format_two_line(f) for f in enumerate_icn(n)]
        assert len(ours) == reference.catalan(n + 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_expected_stdout_matches_the_cli_on_a_sample(workload):
    requests = build_requests(workload, 3)
    for argv in random.Random(workload).sample(requests, 15):
        out, err = io.StringIO(), io.StringIO()
        assert run(list(argv), out, err) == 0, (argv, err.getvalue())
        assert out.getvalue() == reference.expected_stdout(argv), argv
