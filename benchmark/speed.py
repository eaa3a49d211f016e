"""The host's speed of the moment, from fixed reference work timed beside
the work measured.

The benchmark runs on a few cores of a shared host whose speed swings by a
fifth or more within a minute, in the process's CPU time as much as in wall
time.  Fixed reference work timed right beside the measured work swings
with it, so every time the benchmark reports is scaled to a host of fixed
speed:

    reported = measured * REFERENCE_NS / (mean of the reference times nearby)

for requests and layers, with the reference task below, and

    setup_s = median(CLI start-up) * INTERPRETER_START_S / median(bare start-up)

for set-up, with bare ``python -c pass`` processes spawned in turn with the
CLI ones.  On paths, five 30-second runs of one commit, while the reference
task's median moved between 0.52 and 0.76 ms from run to run, had an
interquartile spread of 26% of the median in requests per second unscaled
and 3% scaled.  Medians of 15 start-ups, taken ten times in a row, ranged
over 0.126-0.176 s unscaled and 0.145-0.160 s scaled.

The reference work imports nothing from rookpaths, so no change to the
library moves it.  The task mixes the kinds of work the library's requests
do: Python loops over growing integers, tuples in a dict and a joined
string.
"""

from __future__ import annotations

import statistics
import time

# About the reference task's time on a 2-vCPU x86-64 host at its faster
# moments (CPython 3); scaled figures read as milliseconds on such a host.
REFERENCE_NS = 500_000
_RESULT = 9_328
# Wall time of a bare ``python -c pass`` process on such a host.  Process
# start-up (exec, page faults, the import system) swings apart from the
# reference task.
INTERPRETER_START_S = 0.08


def reference_task() -> int:
    row = [1] * 60
    for _ in range(60):
        for j in range(1, 60):
            row[j] += row[j - 1]
    seen = {}
    for i in range(1500):
        seen[(i % 17, i % 23)] = i
    return len(",".join(str(v) for v in row[::4])) + len(seen) * 23


def time_reference() -> int:
    """Nanoseconds one run of the reference task takes now."""
    start = time.perf_counter_ns()
    result = reference_task()
    elapsed = time.perf_counter_ns() - start
    if result != _RESULT:
        raise AssertionError(f"reference task returned {result}, not {_RESULT}")
    return elapsed


def scale(reference_ns) -> float:
    """Factor that takes the times of a pass to the reference host, from
    the reference times measured during the pass."""
    return REFERENCE_NS / statistics.fmean(reference_ns)


def scaled(times_ns, reference_ns, radius: int = 5) -> list[float]:
    """Each time taken to the reference host by the mean of the reference
    times measured next to it: its own and up to ``radius`` on either side.
    A mean, not a median, because the host also stalls the process for
    spells longer than one reference run, and a request pays for those in
    proportion to its length."""
    return [t * REFERENCE_NS / statistics.fmean(reference_ns[max(0, i - radius):i + radius + 1])
            for i, t in enumerate(times_ns)]
