"""End-to-end benchmark of the rookpaths CLI, run on the sources of this checkout.

    python3 benchmark/run.py --workload paths --seed 1 --seconds 30 --trace 0

Each workload (paths, modules, enumerate; see workloads.py) is a seeded,
fixed list of CLI requests.  A fresh worker process sends them through
``rookpaths.cli.run`` in a closed loop, pass after pass, for the given
seconds, and compares every response with an expected output computed here
beforehand by routes that share no code with the library (reference.py).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of fresh ``python -m rookpaths.cli paths-count --dir dec --heights 4,2``
processes), ``requests_per_s``, ``request_ms_p50`` and ``request_ms_p90``
(from each request's median latency over the passes) and ``peak_rss_mb``
(the worker's peak resident memory).  ``--trace 1`` reports the per-layer
metrics of tracing.py, per pass over the list, plus the traced throughput
and the tracing overhead, and fails the run if the workload stops
exercising the layers it is meant for.

The worker times a fixed reference task before every request, and every
request and layer time is scaled by those reference times to a host of
fixed speed (speed.py), because the shared host's own speed swings by a
fifth within a minute.  Process start-up does not follow that task, so
``setup_s`` is scaled instead by bare ``python -c pass`` processes spawned
in turn with the CLI ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric with its unit, and ``benchmark/results/`` receives the same numbers
with the Python version, the CPU count and the commit (plus the spans of
the last traced pass).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from reference import expected_stdout
from workloads import WORKLOADS, build_requests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_ARGV = ["-m", "rookpaths.cli", "paths-count", "--dir", "dec", "--heights", "4,2"]
SETUP_SPAWNS = 15
# One cheap request per command, run before timing so that lazy set-up
# inside the process (regex caches, first imports) is done.
WARMUP = [
    ["paths-count", "--dir", "dec", "--heights", "4,2"],
    ["paths-list", "--dir", "inc", "--heights", "1,2", "--cap", "10"],
    ["dim-subset", "--n", "8", "--set", "2,4,6"],
    ["dim-vector", "--n", "7", "--vector", "1:{};1:{3};1:{4,7};1:{5,6};1:{1,2,3}"],
    ["reduce", "--n", "4", "--vector", "1:{3};-2:{1};1:{1,2}", "--json"],
    ["monoid-size", "--n", "3"],
    ["monoid-list", "--n", "2", "--cap", "3"],
    ["monoid-compose", "--n", "4", "--f", "1 3 4 / 1 2 3", "--g", "1 2 / 1 2"],
    ["verify", "--identity", "cor34", "--heights", "4,2"],
]


class BenchmarkError(Exception):
    pass


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rookpaths").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def check_import_location() -> None:
    """A fresh interpreter with the benchmark's environment imports
    rookpaths from this checkout's src, not from anywhere else."""
    proc = subprocess.run(
        [sys.executable, "-c", "import rookpaths; print(rookpaths.__file__)"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
    )
    location = Path(proc.stdout.strip()).resolve()
    if proc.returncode != 0 or not location.is_relative_to(SRC):
        raise BenchmarkError(f"rookpaths imports from {proc.stdout.strip()!r}, not {SRC}")


def _spawn(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
    )
    return time.perf_counter() - start, proc


def measure_setup() -> float:
    """Median wall time of fresh ``python -m rookpaths.cli`` processes,
    scaled by the median of bare ``python -c pass`` processes spawned in
    turn with them (speed.py)."""
    cli_times, bare_times = [], []
    for _ in range(SETUP_SPAWNS):
        bare_times.append(_spawn(["-c", "pass"])[0])
        seconds, proc = _spawn(SETUP_ARGV)
        cli_times.append(seconds)
        if proc.returncode != 0 or proc.stdout != "12\n":
            raise BenchmarkError(f"set-up request failed: {proc.returncode} {proc.stderr[-300:]}")
    return statistics.median(cli_times) * speed.INTERPRETER_START_S / statistics.median(bare_times)


def run_worker(workload: str, requests, seconds: int, trace: bool) -> dict:
    memo: dict[tuple, str] = {}

    def expected(argv):
        key = tuple(argv)
        if key not in memo:
            memo[key] = _digest(expected_stdout(argv))
        return memo[key]

    job = {
        "src": str(SRC),
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "warmup": {"requests": WARMUP, "expected": [expected(a) for a in WARMUP]},
        "requests": requests,
        "expected": [expected(a) for a in requests],
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(job), cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=2 * seconds + 60,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _rate(latencies_ns) -> float:
    return len(latencies_ns) / (sum(latencies_ns) / 1e9)


def request_medians_ns(passes) -> list[float]:
    """Each request's median latency over the passes, scaled to the
    reference host (speed.py)."""
    scaled = [speed.scaled(p["latencies_ns"], p["reference_ns"]) for p in passes]
    return [statistics.median(s[i] for s in scaled) for i in range(len(scaled[0]))]


def end_to_end_metrics(result: dict, setup_s: float) -> dict[str, float]:
    # One sample per request of the list: its median over the passes, which
    # keeps short slow spells of a shared machine out of the figures.
    latencies = request_medians_ns(result["passes"])
    deciles = statistics.quantiles([ns / 1e6 for ns in latencies], n=10)
    return {
        "setup_s": setup_s,
        "requests_per_s": _rate(latencies),
        "request_ms_p50": deciles[4],
        "request_ms_p90": deciles[8],
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }


def per_layer_metrics(result: dict) -> dict[str, float]:
    # Times of each traced pass are scaled by the reference times of that pass.
    traced_passes = [p for p in result["passes"] if p["traced"]]
    layers = [{name: value * speed.scale(p["reference_ns"]) if name.endswith("_ms") else value
               for name, value in layer.items()}
              for layer, p in zip(result["layers"], traced_passes)]
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    untraced = _rate(request_medians_ns([p for p in result["passes"] if not p["traced"]]))
    traced = _rate(request_medians_ns(traced_passes))
    metrics["trace.traced_requests_per_s"] = traced
    metrics["trace.overhead_ratio"] = untraced / traced
    return metrics


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rookpaths" / "__init__.py").is_file():
        print(f"benchmark: no rookpaths package under {SRC}", file=sys.stderr)
        return 2
    try:
        check_import_location()
        requests = build_requests(args.workload, args.seed)
        setup_s = None if args.trace else measure_setup()
        result = run_worker(args.workload, requests, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = per_layer_metrics(result)
        problems = [f"layer separation: {text}" for text in result["separation_failures"]]
    else:
        metrics = end_to_end_metrics(result, setup_s)
        problems = []
    for failure in result["failures"]:
        problems.append(f"wrong response: {json.dumps(failure)[:500]}")

    units = _units()
    env = environment()
    reference_ms = statistics.median(ns for p in result["passes"] for ns in p["reference_ns"]) / 1e6
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} requests={len(requests)} passes={len(result['passes'])} "
          f"reference_ms={reference_ms:.4f} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:16.6f} {units[name]}")
    print(f"  {'failed_ratio':48s} {result['failed'] / result['attempted']:16.6f} ratio")
    for problem in problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    for name in result.get("missing", []):
        print(f"benchmark: traced name {name} not found", file=sys.stderr)

    summary = {
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "requests": len(requests),
              "passes": len(result["passes"]), "reference_ms": reference_ms,
              **summary, "problems": problems}
    if args.trace:
        record["spans"] = result["spans"]
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
