"""The benchmark's command line, end to end."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import speed

ROOT = Path(__file__).resolve().parents[2]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_well_formed():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmark"] and spec["command"][1] == "benchmark/run.py"
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_end_to_end_metrics_are_those_of_benchmark_json():
    fast = [1_000_000 * (i + 1) for i in range(100)]
    slow = [3 * ns for ns in fast]
    reference = [speed.REFERENCE_NS] * 100
    passes = [{"traced": False, "latencies_ns": lat, "reference_ns": reference}
              for lat in (fast, slow, fast)]
    metrics = run.end_to_end_metrics({"passes": passes, "maxrss_kb": 2048}, 0.5)
    assert set(metrics) == {m["name"] for m in _spec()["end_to_end"]}
    assert metrics["requests_per_s"] == 100 / 5.05
    assert metrics["request_ms_p50"] == 50.5
    assert metrics["peak_rss_mb"] == 2.0


def test_times_are_scaled_by_the_reference_task_measured_beside_them():
    latencies = [1_000_000 * (i + 1) for i in range(100)]
    reference = [speed.REFERENCE_NS] * 100
    # The same pass on a host at half speed, then one that slows down half-way.
    half_speed = {"latencies_ns": [2 * ns for ns in latencies], "reference_ns": [2 * ns for ns in reference]}
    slowing = {"latencies_ns": latencies[:50] + [3 * ns for ns in latencies[50:]],
               "reference_ns": reference[:50] + [3 * ns for ns in reference[50:]]}
    base = run.request_medians_ns([{"latencies_ns": latencies, "reference_ns": reference}])
    assert run.request_medians_ns([half_speed]) == base
    # Only the requests within the averaging window of the change are blurred.
    outside = [i for i in range(100) if not 45 <= i < 55]
    slowed = run.request_medians_ns([slowing])
    assert [slowed[i] for i in outside] == [base[i] for i in outside]


def test_reference_task_is_timed():
    assert speed.time_reference() > 0


def test_short_run_prints_every_metric_and_a_correct_result():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "modules", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    for metric in _spec()["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] for line in lines[:-1])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    spec = _spec()
    proc = subprocess.run(
        [*spec["command"], "--workload", "paths", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
