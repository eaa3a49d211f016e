"""Traced passes: spans, self time, restored names and the layer-separation check."""

import io
import json
from collections import Counter
from pathlib import Path

import pytest

import rookpaths
import tracing
from workloads import WORKLOADS, build_requests
from rookpaths import cli

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def summaries():
    tracer = tracing.Tracer(rookpaths)
    out = {}
    for workload in WORKLOADS:
        with tracer.active():
            for i, argv in enumerate(build_requests(workload, 5)):
                code = tracer.request(i, cli.run, list(argv), io.StringIO(), io.StringIO())
                assert code == 0, argv
        out[workload] = tracing.summarize(*tracer.take())
    assert not tracer.missing
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_separation_check_passes_on_every_workload(summaries, workload):
    assert tracing.check_separation(workload, summaries[workload]) == []


def test_separation_check_flags_a_workload_on_the_wrong_layers(summaries):
    assert tracing.check_separation("paths", summaries["modules"])
    assert tracing.check_separation("modules", summaries["enumerate"])
    assert tracing.check_separation("enumerate", summaries["paths"])


def test_layer_metrics_are_the_per_layer_metrics_of_benchmark_json(summaries):
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = {m["name"] for m in spec["per_layer"]}
    traced = set(tracing.layer_metrics(summaries["paths"]))
    assert traced | {"trace.traced_requests_per_s", "trace.overhead_ratio"} == names


def test_every_request_is_one_root_span_and_work_is_counted(summaries):
    s = summaries["modules"]
    assert s["calls"][tracing.ROOT] == len(build_requests("modules", 5))
    assert s["work"]["icn_modules.dim_submodule.terms_attempted"] >= (
        s["work"]["icn_modules.dim_submodule.terms_useful"] > 0
    )
    metrics = tracing.layer_metrics(summaries["enumerate"])
    assert metrics["exact_math.det_exact.calls"] == 0
    assert 0 < metrics["rook_monoid.enumerate_icn.useful_ratio"] < 1


def test_self_time_subtracts_the_children():
    spans = [
        [tracing.ROOT, 0, 100, -1, 0, None],
        ["lattice_paths.iterative", 10, 40, 0, 0, None],
        ["lattice_paths.gammas", 20, 30, 1, 0, None],
        ["exact_math.det_exact", 50, 60, 0, 0, {"order3_sum": 8}],
    ]
    s = tracing.summarize(spans, Counter({"exact_math.binomial.calls": 3}))
    assert s["self_ns"] == {tracing.ROOT: 60, "lattice_paths.iterative": 20,
                            "lattice_paths.gammas": 10, "exact_math.det_exact": 10}
    assert s["work"]["exact_math.det_exact.order3_sum"] == 8
    assert s["work"]["exact_math.binomial.calls"] == 3


def test_tracer_restores_every_name():
    modules = [getattr(rookpaths, name) for name in tracing.MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer(rookpaths)
    with tracer.active():
        assert rookpaths.cli.dim_submodule is not before[0]["dim_submodule"]
        assert rookpaths.lattice_paths.det_exact is not before[2]["det_exact"]
    assert [dict(vars(m)) for m in modules] == before
