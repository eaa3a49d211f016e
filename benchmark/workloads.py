"""Seeded request lists for the three workloads.

A workload is a fixed list of CLI argument vectors.  The seed chooses the
inputs inside each request class (which boundary, which subsets, which
maps), never the number of requests in a class, so that lists made from
different seeds cost about the same.  About a tenth of the requests ask for
``--json``.  Every request is expected to succeed with exit code 0 and to
finish in well under a second.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from reference import count_paths_below, count_subsets_below_any, dim_subset

WORKLOADS = ("paths", "modules", "enumerate")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ------------------------------------------------------------------ paths


def _staircase_like(rng: random.Random, k: int) -> list[int]:
    # Half the boundaries are exact staircases k..1 (closed form c_{k+1}),
    # half are staircases with each step raised by 0..2 and sorted again, so
    # their numbers, and the cost of counting below them, stay alike.
    if rng.random() < 0.5:
        return list(range(k, 0, -1))
    return sorted((k - i + rng.randint(0, 2) for i in range(k)), reverse=True)


def _flat(rng: random.Random, base: int) -> list[int]:
    return [base + rng.randrange(base // 50)] * 20


# family -> (boundary maker, {variant: count})
_PATHS = {
    "stair10": (lambda rng: _staircase_like(rng, 10), {
        "auto-dec": 5, "auto-inc": 5, "iterative": 3, "determinant": 3,
        "oracle": 3, "check": 3, "cor34": 2, "cor35": 2}),
    "stair40": (lambda rng: _staircase_like(rng, 40), {
        "auto-dec": 5, "auto-inc": 5, "iterative": 3, "determinant": 3,
        "oracle": 3, "check": 3, "cor34": 2, "cor35": 2}),
    "flat100": (lambda rng: _flat(rng, 100), {
        "auto-dec": 4, "auto-inc": 4, "iterative": 3, "determinant": 3,
        "oracle": 3, "check": 3, "cor34": 2}),
    "flat10000": (lambda rng: _flat(rng, 10_000), {
        "auto-dec": 3, "auto-inc": 3, "iterative": 2, "determinant": 2,
        "oracle": 6, "check": 6, "cor34": 2}),
    # Two Bareiss determinants of order 160 (inc auto and cor34) take about
    # half of a pass; the rest keeps any single route below that share.
    "stair160": (lambda rng: _staircase_like(rng, 160), {
        "auto-dec": 6, "auto-inc": 1, "iterative": 4, "oracle": 4,
        "check": 4, "cor34": 1, "cor35": 4}),
}


def _paths_request(rng: random.Random, heights: list[int], variant: str) -> list[str]:
    k = len(heights)
    if variant == "cor35":
        return ["verify", "--identity", "cor35", "--k", str(k - rng.randrange(k // 10 + 1))]
    if variant == "cor34":
        return ["verify", "--identity", "cor34", "--heights", _csv(heights)]
    if variant == "auto-inc":
        return ["paths-count", "--dir", "inc", "--heights", _csv(reversed(heights))]
    argv = ["paths-count", "--dir", "dec", "--heights", _csv(heights)]
    if variant in ("iterative", "determinant", "oracle"):
        if rng.random() < 0.5:
            argv = ["paths-count", "--dir", "inc", "--heights", _csv(reversed(heights))]
        argv += ["--method", variant]
    elif variant == "check":
        argv += ["--check"]
    return argv


def _paths(rng: random.Random) -> list[list[str]]:
    out = []
    for make, variants in _PATHS.values():
        for variant, count in variants.items():
            for _ in range(count):
                out.append(_paths_request(rng, make(rng), variant))
    return out


# ---------------------------------------------------------------- modules


def _subset_of_size(rng: random.Random, k: int) -> tuple[int, tuple[int, ...]]:
    """(n, subset) of size k: an even staircase, an interval or a random set."""
    kind = rng.choice(("catalan", "interval", "random"))
    if kind == "catalan":
        elems = tuple(range(2, 2 * k + 1, 2))
    elif kind == "interval":
        m = rng.randint(0, 8)
        elems = tuple(range(m + 1, m + k + 1))
    else:
        elems = tuple(sorted(rng.sample(range(1, 2 * k + 1), k)))
    return elems[-1] + rng.randint(0, 2), elems


def equal_sum_antichain(rng: random.Random, n: int, k: int, r: int) -> list[tuple[int, ...]]:
    """r distinct k-subsets of {1..n} with one element sum.  Equal size and
    equal sum make them pairwise incomparable, so they form an antichain."""
    by_sum = _subsets_by_sum(n, k)
    sums = sorted(s for s, members in by_sum.items() if len(members) >= 4 * r)
    return sorted(rng.sample(by_sum[rng.choice(sums)], r))


@lru_cache(maxsize=None)
def _subsets_by_sum(n: int, k: int) -> dict[int, list[tuple[int, ...]]]:
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for c in combinations(range(1, n + 1), k):
        by_sum.setdefault(sum(c), []).append(c)
    return by_sum


def _coefficient(rng: random.Random) -> str:
    num = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
    den = rng.choice((1, 1, 1, 2, 3))
    return str(num) if den == 1 else f"{num}/{den}"


def vector_text(rng: random.Random, gens: list[tuple[int, ...]], extras: int) -> str:
    """Vector with the given reduced support plus dominated extra terms."""
    terms = list(gens)
    nonempty = [g for g in gens if g]
    for _ in range(extras if nonempty else 0):
        s = list(rng.choice(nonempty))
        i = rng.randrange(len(s))
        lowest = s[i - 1] + 1 if i > 0 else 1
        if s[i] > lowest:
            s[i] = rng.randint(lowest, s[i] - 1)
            if tuple(s) not in terms:
                terms.append(tuple(s))
    rng.shuffle(terms)
    coeffs = [_coefficient(rng) for _ in terms]
    # A leading '-' would make argparse read the value as a flag.
    coeffs[0] = coeffs[0].lstrip("-")
    return ";".join(f"{c}:{{{_csv(t)}}}" for c, t in zip(coeffs, terms))


# (n, [(subset size, generators of that size)], count)
_ANTICHAINS = [
    (16, [(5, 12)], 1),
    (16, [(5, 10)], 4),
    (18, [(6, 8)], 4),
    (14, [(4, 6)], 4),
    (20, [(5, 7), (7, 7)], 3),
    (16, [(4, 6), (6, 6)], 3),
    (14, [(3, 5), (6, 5)], 3),
]


def _antichain(rng: random.Random, n: int, shape) -> list[tuple[int, ...]]:
    gens = []
    for k, r in shape:
        gens += equal_sum_antichain(rng, n, k, r)
    return gens


def _modules(rng: random.Random) -> list[list[str]]:
    out = []
    for i in range(50):
        k = (8, 12, 16)[i % 3] if i < 12 else rng.randint(3, 10)
        n, elems = _subset_of_size(rng, k)
        out.append(["dim-subset", "--n", str(n), "--set", _csv(elems)])
    for k, count in ((8, 8), (10, 8), (11, 3), (12, 2)):
        for _ in range(count):
            n, elems = _subset_of_size(rng, k)
            out.append(["dim-subset", "--n", str(n), "--set", _csv(elems),
                        "--method", "determinant"])
    for n, shape, count in _ANTICHAINS:
        for _ in range(count):
            gens = _antichain(rng, n, shape)
            out.append(["dim-vector", "--n", str(n),
                        "--vector", vector_text(rng, gens, rng.randint(0, 3))])
    for _ in range(16):
        n = rng.randint(6, 12)
        gens = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n // 2))))
                for _ in range(rng.randint(1, 4))]
        out.append(["dim-vector", "--n", str(n), "--vector", vector_text(rng, gens, 2)])
    # The reduce requests sit around p50; every seed gets the same shapes.
    for i in range(36):
        n, shape, _ = _ANTICHAINS[i % len(_ANTICHAINS)]
        gens = _antichain(rng, n, shape)
        out.append(["reduce", "--n", str(n),
                    "--vector", vector_text(rng, gens, rng.randint(1, 4))])
    return out


# -------------------------------------------------------------- enumerate


def _random_map(rng: random.Random, n: int) -> str:
    """A random order preserving, order decreasing map in two-line form,
    sometimes written over all of 1..n with 'x' for undefined sources."""
    k = rng.randint(0, n)
    dom = sorted(rng.sample(range(1, n + 1), k))
    img = []
    lo = 1
    for d in dom:
        img.append(rng.randint(lo, d))
        lo = img[-1] + 1
    if rng.random() < 0.3:
        f = dict(zip(dom, img))
        return " ".join(map(str, range(1, n + 1))) + " / " + " ".join(
            str(f.get(s, "x")) for s in range(1, n + 1))
    return f"{' '.join(map(str, dom))} / {' '.join(map(str, img))}".strip()


def _in_band(rng: random.Random, draw, size, band: tuple[int, int]):
    # Rejection sampling: the seed picks the input, the band keeps the
    # amount of output (and so the cost) of the request class fixed.
    while True:
        item = draw(rng)
        if band[0] <= size(item) <= band[1]:
            return item


def _decreasing_heights(rng: random.Random, k: int, top: int) -> list[int]:
    return sorted((rng.randint(0, top) for _ in range(k)), reverse=True)


def _paths_list(rng: random.Random, k: int, top: int, band, cap: int) -> list[str]:
    hs = _in_band(rng, lambda r: _decreasing_heights(r, k, top),
                  lambda h: count_paths_below(tuple(h), True), band)
    if rng.random() < 0.5:
        return ["paths-list", "--dir", "dec", "--heights", _csv(hs), "--cap", str(cap)]
    return ["paths-list", "--dir", "inc", "--heights", _csv(reversed(hs)), "--cap", str(cap)]


# Subsets of {1..16} whose downsets hold 3000..5000 members: the even
# staircase {2,...,16} (4862), three intervals (3432, 3003, 3003), and
# random subsets with 3200..3800.
_ORACLE_BAND = (3200, 3800)
_CLOSED_FORM_SUBSETS = (tuple(range(2, 17, 2)), tuple(range(8, 15)),
                        tuple(range(9, 15)), tuple(range(7, 15)))


def _enumerate(rng: random.Random) -> list[list[str]]:
    out = []
    big = 1_000_000
    for k, top, band, count, cap in ((7, 9, (2000, 2300), 8, big),
                                     (7, 9, (2000, 2300), 6, rng.randint(800, 1200)),
                                     (5, 6, (100, 200), 8, big)):
        out += [_paths_list(rng, k, top, band, cap) for _ in range(count)]
    for n, count in ((6, 3), (7, 3), (8, 2), (9, 1)):
        out += [["monoid-size", "--n", str(n)]] * count
    for n, cap, count in ((6, big, 3), (7, big, 2), (7, 100, 2), (8, big, 1), (9, 5000, 1)):
        out += [["monoid-list", "--n", str(n), "--cap", str(cap)]] * count
    for _ in range(70):
        n = rng.randint(6, 9)
        out.append(["monoid-compose", "--n", str(n),
                    "--f", _random_map(rng, n), "--g", _random_map(rng, n)])
    # These downset walks sit around p90, so their cost must not depend on
    # the seed: half use --method oracle and half --check, the closed-form
    # subsets come once each, and the random ones lie in narrow bands.
    for i in range(12):
        if i < len(_CLOSED_FORM_SUBSETS):
            elems = _CLOSED_FORM_SUBSETS[i]
        else:
            elems = _in_band(rng, lambda r: tuple(sorted(r.sample(range(1, 17), r.randint(6, 8)))),
                             dim_subset, _ORACLE_BAND)
        flag = ["--method", "oracle"] if i % 2 else ["--check"]
        out.append(["dim-subset", "--n", "16", "--set", _csv(elems)] + flag)
    for i in range(8):
        gens = _in_band(rng, lambda r: _antichain(r, 14, [(5, r.randint(3, 5))]),
                        count_subsets_below_any, (1400, 1700))
        flag = ["--method", "oracle"] if i % 2 else ["--check"]
        out.append(["dim-vector", "--n", "14", "--vector", vector_text(rng, gens, 2)] + flag)
    return out


_BUILDERS = {"paths": _paths, "modules": _modules, "enumerate": _enumerate}


def build_requests(workload: str, seed: int) -> list[list[str]]:
    """The workload's request list for ``seed``: same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    requests = _BUILDERS[workload](rng)
    rng.shuffle(requests)
    for i in rng.sample(range(len(requests)), round(len(requests) / 10)):
        requests[i] = requests[i] + ["--json"]
    return requests
