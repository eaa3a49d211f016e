"""Spans around the calls into each rookpaths module, for the traced run.

The tracer rebinds module-level names (for example
``rookpaths.cli.dim_submodule`` or ``rookpaths.lattice_paths.det_exact``) to
wrappers for the duration of a traced pass and restores them afterwards.
Every call site in the package looks these names up at call time, so the
wrappers see every call between modules and inside a module alike.  A span
records its name, start, end, parent span and request id.  Spans stay in
memory until the pass ends; a layer's self time is its spans' durations
minus the time covered by their child spans.

Layers are the five modules.  ``cli.run`` is the root span of each
request, so ``cli.self_ms`` is the time in ``run`` that no library span
covers: parser build, argument parsing and rendering.  Functions called
far too often to time (``binomial``, ``subset_meet``) are only counted.
No layer queues or waits, so there is no wait-time metric.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from reference import maximal_subsets

MODULES = ("cli", "exact_math", "lattice_paths", "icn_modules", "rook_monoid")

# (span name, home module, function name)
SPANS = (
    ("exact_math.det_exact", "exact_math", "det_exact"),
    ("lattice_paths.gammas", "lattice_paths", "compute_gammas"),
    ("lattice_paths.iterative", "lattice_paths", "count_below_decreasing_iterative"),
    ("lattice_paths.determinant", "lattice_paths", "count_below_increasing_determinant"),
    ("lattice_paths.oracle", "lattice_paths", "count_below_oracle"),
    ("lattice_paths.enumerate_below", "lattice_paths", "enumerate_below"),
    ("lattice_paths.verify", "lattice_paths", "verify_identity_cor34"),
    ("lattice_paths.verify", "lattice_paths", "verify_identity_cor35"),
    ("icn_modules.dim_principal_iterative", "icn_modules", "dim_principal_iterative"),
    ("icn_modules.incl_excl", "icn_modules", "dim_principal_incl_excl"),
    ("icn_modules.dim_submodule", "icn_modules", "dim_submodule"),
    ("icn_modules.downset", "icn_modules", "downset"),
    ("icn_modules.dim_submodule_oracle", "icn_modules", "dim_submodule_oracle"),
    ("icn_modules.reduced_support", "icn_modules", "reduced_support"),
    ("icn_modules.parse_module_vector", "icn_modules", "parse_module_vector"),
    ("rook_monoid.enumerate_icn", "rook_monoid", "enumerate_icn"),
    ("rook_monoid.format_two_line", "rook_monoid", "format_two_line"),
    ("rook_monoid.compose", "rook_monoid", "compose"),
)
COUNTED = (
    ("exact_math.binomial", "exact_math", "binomial"),
    ("icn_modules.subset_meet", "icn_modules", "subset_meet"),
)
# Generators: the items they yield are counted as "<name>.items".
GENERATORS = (("icn_modules.downset", "icn_modules", "iter_downset"),)

ROOT = "cli.run"


# Work counts taken at the call: (args, result) -> {counter: amount}.
def _det_info(args, result):
    return {"order3_sum": len(args[0].entries) ** 3}


def _oracle_info(args, result):
    return {"cells": sum(h + 1 for h in args[0].heights)}


def _items_info(args, result):
    return {"items": len(getattr(result, "items", result))}


def _incl_excl_info(args, result):
    return {"terms": 2 ** len(args[0].elems)}


def _submodule_info(args, result):
    # Inclusion-exclusion walks every nonempty J inside the reduced support
    # (2^r - 1 of them); only those drawn from one subset size add a term.
    red = maximal_subsets(s.elems for s in args[0].terms)
    sizes = Counter(len(s) for s in red)
    return {
        "terms_attempted": 2 ** len(red) - 1,
        "terms_useful": sum(2 ** c - 1 for c in sizes.values()),
    }


INFO = {
    "exact_math.det_exact": _det_info,
    "lattice_paths.oracle": _oracle_info,
    "lattice_paths.enumerate_below": _items_info,
    "icn_modules.incl_excl": _incl_excl_info,
    "rook_monoid.enumerate_icn": _items_info,
}
# Taken after the pass from the stored arguments, because they cost more
# than the call bookkeeping should.
DEFERRED_INFO = {"icn_modules.dim_submodule": _submodule_info}


class Tracer:
    """Records spans and counts while ``active()`` holds the wrappers in place."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request_id = -1
        self.missing: set[str] = set()

    # ----------------------------------------------------------- wrappers

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        info = INFO.get(name)
        deferred = name in DEFERRED_INFO

        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                record[5] = info(args, result)
            elif deferred:
                record[5] = args
            return result

        return wrapper

    def _counted(self, name, fn):
        counts, key = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        counts, key = self.counts, name + ".items"

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    @contextmanager
    def active(self):
        """Rebind every traced name in every module; restore them on exit."""
        replaced = []
        kinds = ((SPANS, self._span), (COUNTED, self._counted), (GENERATORS, self._generator))
        try:
            for table, make in kinds:
                for name, home, attr in table:
                    original = getattr(self.modules[home], attr, None)
                    if original is None:
                        self.missing.add(f"{home}.{attr}")
                        continue
                    wrapper = make(name, original)
                    for module in self.modules.values():
                        for key, value in list(vars(module).items()):
                            if value is original:
                                replaced.append((module, key, original))
                                setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(replaced):
                setattr(module, key, original)

    def request(self, request_id: int, fn, *args):
        """Run one request as a root span."""
        self.request_id = request_id
        return self._span(ROOT, fn)(*args)

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        # The wrappers hold these containers, so empty them in place.
        taken = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return taken


# -------------------------------------------------------------- summaries


def summarize(spans: list[list], counts: Counter) -> dict:
    """Per-layer numbers for one traced pass over the request list."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    work: Counter = Counter(counts)
    formatted_by_request: Counter = Counter()
    enumerating_requests = set()
    for i, (name, start, end, parent, request, info) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        if name in DEFERRED_INFO and info is not None:
            info = DEFERRED_INFO[name](info, None)
        for key, amount in (info or {}).items():
            work[f"{name}.{key}"] += amount
        if name == "rook_monoid.format_two_line":
            formatted_by_request[request] += 1
        elif name == "rook_monoid.enumerate_icn":
            enumerating_requests.add(request)
    work["rook_monoid.enumerate_icn.printed"] = sum(
        formatted_by_request[r] for r in enumerating_requests
    )
    return {"self_ns": self_ns, "calls": calls, "work": work}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per_layer metrics of BENCHMARK.json from one pass summary."""
    self_ms = {name: ns / 1e6 for name, ns in summary["self_ns"].items()}
    work = summary["work"]
    metrics = {"cli.self_ms": self_ms.get(ROOT, 0.0)}
    metrics["exact_math.binomial.calls"] = work["exact_math.binomial.calls"]
    metrics["exact_math.det_exact.calls"] = summary["calls"]["exact_math.det_exact"]
    metrics["exact_math.det_exact.order3_sum"] = work["exact_math.det_exact.order3_sum"]
    metrics["exact_math.det_exact.self_ms"] = self_ms.get("exact_math.det_exact", 0.0)
    for layer in ("gammas", "iterative", "determinant", "oracle", "enumerate_below", "verify"):
        metrics[f"lattice_paths.{layer}.self_ms"] = self_ms.get(f"lattice_paths.{layer}", 0.0)
    metrics["lattice_paths.oracle.cells"] = work["lattice_paths.oracle.cells"]
    metrics["lattice_paths.enumerate_below.items"] = work["lattice_paths.enumerate_below.items"]
    for layer in ("dim_principal_iterative", "incl_excl", "dim_submodule", "downset",
                  "dim_submodule_oracle", "reduced_support", "parse_module_vector"):
        metrics[f"icn_modules.{layer}.self_ms"] = self_ms.get(f"icn_modules.{layer}", 0.0)
    metrics["icn_modules.incl_excl.terms"] = work["icn_modules.incl_excl.terms"]
    metrics["icn_modules.subset_meet.calls"] = work["icn_modules.subset_meet.calls"]
    attempted = work["icn_modules.dim_submodule.terms_attempted"]
    useful = work["icn_modules.dim_submodule.terms_useful"]
    metrics["icn_modules.dim_submodule.terms_attempted"] = attempted
    metrics["icn_modules.dim_submodule.terms_useful"] = useful
    metrics["icn_modules.dim_submodule.useful_ratio"] = _ratio(useful, attempted)
    metrics["icn_modules.downset.items"] = work["icn_modules.downset.items"]
    for layer in ("enumerate_icn", "format_two_line", "compose"):
        metrics[f"rook_monoid.{layer}.self_ms"] = self_ms.get(f"rook_monoid.{layer}", 0.0)
    built = work["rook_monoid.enumerate_icn.items"]
    metrics["rook_monoid.enumerate_icn.items"] = built
    metrics["rook_monoid.enumerate_icn.useful_ratio"] = _ratio(
        work["rook_monoid.enumerate_icn.printed"], built
    )
    return metrics


# ------------------------------------------------------ separation check

_COUNTING_ROUTES = ("lattice_paths.iterative", "lattice_paths.determinant",
                    "lattice_paths.oracle", "lattice_paths.verify")
ENUMERATORS = ("lattice_paths.enumerate_below", "icn_modules.downset",
               "icn_modules.dim_submodule_oracle", "rook_monoid.enumerate_icn")


def _enumerator_share(s: dict) -> float:
    library = sum(ns for name, ns in s["self_ns"].items() if name != ROOT)
    return _ratio(sum(s["self_ns"][name] for name in ENUMERATORS), library)


# Predictions each workload must keep: (statement, test on a pass summary).
PREDICTIONS = {
    "paths": (
        ("lattice_paths counting routes run",
         lambda s: sum(s["calls"][n] for n in _COUNTING_ROUTES) > 0),
        ("exact_math.binomial is called", lambda s: s["work"]["exact_math.binomial.calls"] > 0),
        ("no dim_submodule calls", lambda s: s["calls"]["icn_modules.dim_submodule"] == 0),
        ("no inclusion-exclusion calls", lambda s: s["calls"]["icn_modules.incl_excl"] == 0),
        ("no enumerator calls", lambda s: sum(s["calls"][n] for n in ENUMERATORS) == 0),
    ),
    "modules": (
        ("inclusion-exclusion runs", lambda s: s["calls"]["icn_modules.incl_excl"] > 0),
        ("dim_submodule runs and meets subsets",
         lambda s: s["calls"]["icn_modules.dim_submodule"] > 0
         and s["work"]["icn_modules.subset_meet.calls"] > 0),
        ("no enumerator calls", lambda s: sum(s["calls"][n] for n in ENUMERATORS) == 0),
        ("no downset items", lambda s: s["work"]["icn_modules.downset.items"] == 0),
    ),
    "enumerate": (
        ("exact_math.det_exact.calls == 0", lambda s: s["calls"]["exact_math.det_exact"] == 0),
        ("no inclusion-exclusion calls", lambda s: s["calls"]["icn_modules.incl_excl"] == 0),
        ("all three enumerators run",
         lambda s: s["work"]["lattice_paths.enumerate_below.items"] > 0
         and s["work"]["icn_modules.downset.items"] > 0
         and s["work"]["rook_monoid.enumerate_icn.items"] > 0),
        ("the enumerators hold most of the library self time",
         lambda s: _enumerator_share(s) > 0.5),
    ),
}


def check_separation(workload: str, summary: dict) -> list[str]:
    """Statements of the workload's predictions that the pass broke."""
    return [text for text, holds in PREDICTIONS[workload] if not holds(summary)]
