"""Expected stdout of a rookpaths CLI request, computed without rookpaths.

Every value here comes from a route that shares no code with the library:
closed forms where they exist (Catalan numbers for staircases and even
staircases, C(h+k, k) for flat boundaries, C(m+k, k) for intervals,
c_{n+1} for the monoid size) and otherwise a dynamic program written for
this benchmark.  The benchmark compares the CLI's output with these texts
byte for byte, outside the timed region.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ------------------------------------------------------------ path counts


def _count_decreasing_dp(lam: tuple[int, ...]) -> int:
    # ways[v]: number of ways to fill positions i..k when position i holds v;
    # built from the last position backwards.
    ways = [1] * (lam[-1] + 1)
    for i in range(len(lam) - 2, -1, -1):
        cumulative = []
        running = 0
        for w in ways:
            running += w
            cumulative.append(running)
        nxt = len(ways) - 1
        ways = [cumulative[min(v, nxt)] for v in range(lam[i] + 1)]
    return sum(ways)


def count_paths_below(heights: tuple[int, ...], decreasing: bool) -> int:
    """Number of monotone sequences dominated by ``heights``."""
    lam = tuple(heights) if decreasing else tuple(reversed(heights))
    k = len(lam)
    if lam == tuple(range(k, 0, -1)):
        return catalan(k + 1)
    if len(set(lam)) == 1:
        return math.comb(lam[0] + k, k)
    return _count_decreasing_dp(lam)


def list_paths_below(heights: tuple[int, ...], decreasing: bool, cap: int) -> tuple[list, bool]:
    """The first ``cap`` sequences below ``heights`` in lexicographic order,
    and whether more exist; an explicit odometer, not a recursion."""
    k = len(heights)

    def low(i, seq):
        return 0 if decreasing or i == 0 else seq[i - 1]

    def high(i, seq):
        if decreasing and i > 0:
            return min(heights[i], seq[i - 1])
        return heights[i]

    seq = []
    for i in range(k):
        seq.append(low(i, seq))
    items = []
    while True:
        if len(items) == cap:
            return items, True
        items.append(list(seq))
        i = k - 1
        while i >= 0 and seq[i] == high(i, seq):
            i -= 1
        if i < 0:
            return items, False
        seq[i] += 1
        for j in range(i + 1, k):
            seq[j] = low(j, seq)


# ------------------------------------------------------- module dimensions


def _count_union_one_size(gens: list[tuple[int, ...]]) -> int:
    # Strictly increasing T of the common length with T <= S componentwise
    # for at least one generator S: a DP over positions that carries the
    # generators still dominating the prefix.
    k = len(gens[0])
    if k == 0:
        return 1
    memo: dict = {}

    def count(i: int, lo: int, alive: tuple[int, ...]) -> int:
        if i == k:
            return 1
        key = (i, lo, alive)
        if key in memo:
            return memo[key]
        total = 0
        top = max(gens[g][i] for g in alive)
        for v in range(lo, top + 1):
            still = tuple(g for g in alive if gens[g][i] >= v)
            total += count(i + 1, v + 1, still)
        memo[key] = total
        return total

    return count(0, 1, tuple(range(len(gens))))


def count_subsets_below_any(gens) -> int:
    """Size of the union of the downsets of ``gens`` (different sizes are
    disjoint pieces)."""
    by_size: dict[int, list] = {}
    for g in set(map(tuple, gens)):
        by_size.setdefault(len(g), []).append(g)
    return sum(_count_union_one_size(sorted(gs)) for gs in by_size.values())


def dim_subset(elems: tuple[int, ...]) -> int:
    k = len(elems)
    if k == 0:
        return 1
    if elems == tuple(range(2, 2 * k + 1, 2)):
        return catalan(k + 1)
    m = elems[0] - 1
    if elems == tuple(range(m + 1, m + k + 1)):
        return math.comb(m + k, k)
    return count_subsets_below_any([elems])


def parse_vector(text: str) -> dict[tuple[int, ...], Fraction]:
    """Nonzero coefficients of a vector text "c:{a,b};..." (repeats add up)."""
    text = text.strip()
    terms: dict[tuple[int, ...], Fraction] = {}
    if text in ("", "0"):
        return terms
    for part in text.split(";"):
        coeff, _, subset = part.partition(":")
        inner = subset.strip()[1:-1].strip()
        elems = tuple(int(x) for x in inner.split(",")) if inner else ()
        terms[elems] = terms.get(elems, Fraction(0)) + Fraction(coeff.strip())
    return {s: c for s, c in terms.items() if c != 0}


def _dominated(t: tuple[int, ...], s: tuple[int, ...]) -> bool:
    return t != s and len(t) == len(s) and all(a <= b for a, b in zip(t, s))


def maximal_subsets(support) -> list[tuple[int, ...]]:
    """Maximal members of the support, ordered by (size, elements)."""
    support = list(support)
    top = [s for s in support if not any(_dominated(s, t) for t in support)]
    return sorted(top, key=lambda s: (len(s), s))


# ------------------------------------------------------------ rook monoid


def monoid_elements(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(domain, range) pairs of the order preserving, order decreasing maps,
    sorted by (domain, range): all equal-size pairs, filtered."""
    out = []
    for k in range(n + 1):
        for dom in combinations(range(1, n + 1), k):
            for img in combinations(range(1, n + 1), k):
                if all(i <= d for d, i in zip(dom, img)):
                    out.append((dom, img))
    out.sort()
    return out


def two_line(dom, img) -> str:
    return f"{' '.join(map(str, dom))} / {' '.join(map(str, img))}".strip()


def parse_map(text: str) -> dict[int, int]:
    left, _, right = text.partition("/")
    return {
        int(s): int(i) for s, i in zip(left.split(), right.split()) if i not in ("x", "X")
    }


# ----------------------------------------------------------- CLI requests


def _flags(argv: list[str]) -> dict[str, object]:
    flags: dict[str, object] = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if name in ("json", "check"):
            flags[name] = True
            i += 1
        else:
            flags[name] = argv[i + 1]
            i += 2
    return flags


def _ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    return tuple(int(x) for x in text.split(",")) if text else ()


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _scalar(flags, payload: dict, value) -> str:
    if flags.get("json"):
        return _dumps({**payload, "value": str(value)})
    return f"{value}\n"


def _listing(flags, payload: dict, items: list, lines: list[str], truncated: bool) -> str:
    if flags.get("json"):
        return _dumps({**payload, "items": items, "truncated": truncated})
    return "".join(line + "\n" for line in lines)


def expected_stdout(argv: list[str]) -> str:
    """Stdout of a successful ``rookpaths`` request, exit code 0."""
    command, flags = argv[0], _flags(argv)
    if command == "paths-count":
        hs = _ints(flags["heights"])
        decreasing = flags["dir"] == "dec"
        method = flags.get("method", "auto")
        if method == "auto":
            method = "iterative" if decreasing else "determinant"
        payload = {"input": {"dir": flags["dir"], "heights": list(hs)}, "method": method}
        return _scalar(flags, payload, count_paths_below(hs, decreasing))
    if command == "paths-list":
        hs = _ints(flags["heights"])
        cap = int(flags["cap"])
        items, truncated = list_paths_below(hs, flags["dir"] == "dec", cap)
        payload = {"input": {"dir": flags["dir"], "heights": list(hs), "cap": cap}}
        lines = [",".join(map(str, item)) for item in items]
        return _listing(flags, payload, items, lines, truncated)
    if command == "dim-subset":
        elems = _ints(flags["set"])
        method = flags.get("method", "auto")
        method = "iterative" if method == "auto" else method
        payload = {"input": {"n": int(flags["n"]), "set": list(elems)}, "method": method}
        return _scalar(flags, payload, dim_subset(elems))
    if command == "dim-vector":
        gens = maximal_subsets(parse_vector(flags["vector"]))
        method = "oracle" if flags.get("method") == "oracle" else "iterative"
        payload = {"input": {"n": int(flags["n"]), "vector": flags["vector"]}, "method": method}
        return _scalar(flags, payload, count_subsets_below_any(gens))
    if command == "reduce":
        gens = maximal_subsets(parse_vector(flags["vector"]))
        formed = ";".join("1:{" + ",".join(map(str, s)) + "}" for s in gens) or "0"
        if flags.get("json"):
            return _dumps({
                "input": {"n": int(flags["n"]), "vector": flags["vector"]},
                "reduced_support": [list(s) for s in gens],
                "reduced_form": formed,
            })
        return formed + "\n"
    if command == "monoid-size":
        n = int(flags["n"])
        return _scalar(flags, {"input": {"n": n}}, catalan(n + 1))
    if command == "monoid-list":
        n, cap = int(flags["n"]), int(flags["cap"])
        elements = monoid_elements(n)
        lines = [two_line(d, i) for d, i in elements[:cap]]
        payload = {"input": {"n": n, "cap": cap}}
        return _listing(flags, payload, lines, lines, len(elements) > cap)
    if command == "monoid-compose":
        n = int(flags["n"])
        f, g = parse_map(flags["f"]), parse_map(flags["g"])
        pairs = sorted((x, f[y]) for x, y in g.items() if y in f)
        value = two_line([x for x, _ in pairs], [y for _, y in pairs])
        payload = {"input": {"n": n, "f": flags["f"], "g": flags["g"]}}
        return _scalar(flags, payload, value)
    if command == "verify":
        if flags["identity"] == "cor34":
            hs = _ints(flags["heights"])
            value = count_paths_below(hs, True)
            given = {"identity": "cor34", "heights": list(hs)}
        else:
            k = int(flags["k"])
            value = catalan(k + 1)
            given = {"identity": "cor35", "k": k}
        if flags.get("json"):
            return _dumps({"input": given, "lhs": str(value), "rhs": str(value), "equal": True})
        return f"lhs={value} rhs={value} equal=true\n"
    raise ValueError(f"no reference for command {command!r}")
