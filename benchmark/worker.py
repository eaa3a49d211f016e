"""Closed-loop runner for one workload, in a fresh interpreter.

Reads a job from stdin as JSON: the rookpaths source directory, the request
list, the SHA-256 of each request's expected stdout, the seconds to measure
and whether to trace.  It sends the requests through ``rookpaths.cli.run``
one after another in this one thread (the next request goes out when the
previous one returns), pass after pass over the list, and checks every
response.  It writes one JSON result to stdout.

Without tracing, every pass is timed.  With tracing, untraced and traced
passes alternate, so that the tracing overhead is measured on the same
list in the same process.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing


def _pass(cli, requests, expected, tracer, failures) -> dict:
    """One pass over the list: each request's latency in ns, and the time of
    the reference task run just before it."""
    latencies, reference = [], []
    clock = time.perf_counter_ns
    for i, argv in enumerate(requests):
        reference.append(speed.time_reference())
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        if tracer is None:
            code = cli.run(list(argv), out, err)
        else:
            code = tracer.request(i, cli.run, list(argv), out, err)
        latencies.append(clock() - start)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != expected[i]:
            failures.append({"request": argv, "exit_code": code, "stderr": err.getvalue()[-300:]})
    return {"latencies_ns": latencies, "reference_ns": reference}


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import rookpaths
    from rookpaths import cli

    if not Path(rookpaths.__file__).resolve().is_relative_to(src):
        print(f"worker: rookpaths imported from {rookpaths.__file__}, not {src}", file=sys.stderr)
        return 3

    failures: list[dict] = []
    warmup = job["warmup"]
    _pass(cli, warmup["requests"], warmup["expected"], None, failures)
    attempted = len(warmup["requests"])

    requests, expected = job["requests"], job["expected"]
    tracer = tracing.Tracer(rookpaths) if job["trace"] else None
    # With tracing a unit is an untraced pass followed by a traced one.
    unit = (False, True) if tracer else (False,)
    passes, summaries, last_spans = [], [], []
    unit_seconds = []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        for traced in unit:
            if traced:
                with tracer.active():
                    timings = _pass(cli, requests, expected, tracer, failures)
                last_spans, counts = tracer.take()
                summaries.append(tracing.summarize(last_spans, counts))
            else:
                timings = _pass(cli, requests, expected, None, failures)
            passes.append({"traced": traced, **timings})
            attempted += len(requests)
        now = time.perf_counter()
        unit_seconds.append(now - unit_start)
        # Stop before a unit that would run past the deadline.
        if now - start + statistics.median(unit_seconds) > job["seconds"]:
            break

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
    }
    if tracer:
        result["layers"] = [tracing.layer_metrics(s) for s in summaries]
        result["separation_failures"] = sorted(
            {text for s in summaries for text in tracing.check_separation(job["workload"], s)}
        )
        result["missing"] = sorted(tracer.missing)
        result["spans"] = [record[:5] for record in last_spans]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
