"""Monotone lattice paths, height sequences, and counts of paths below a boundary.

A decreasing path uses unit steps (1, 0) and (0, -1); an increasing path uses
(1, 0) and (0, 1).  Every monotone path starting on the y-axis is identified
with the heights of its horizontal steps, so "count the paths below v" means
"count the monotone integer sequences dominated componentwise by the height
sequence of v".  Three independent routes compute that number: an iterative
closed form driven by a recursion of correction coefficients, a binomial
determinant, and a direct dynamic-programming count that serves as the oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import accumulate, chain, islice, repeat
from math import perm
from operator import add, gt, itemgetter, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exact_math import (
    IntMatrix,
    binomial,
    catalan,
    det_exact,
    first_items,
    int_entries,
    trusted,
)

# The DP oracle's work and rows are bounded by its plan's estimate in cells
# (see _oracle_plan): L n for a run of L tops t, n = t + 1, taken one prefix
# sum at a time, and n^2 w^2 for the run taken as one product, w =
# B // 1024 + 1 for numbers of up to B bits.  At 10^7 cells the slowest
# shapes measured on CPython 3.11 (2-vCPU VM) took about 2.7 s (the
# staircase k = 4470, and so the even staircase {2, 4, ..., 8940}, and 2700
# tops 256, ..., 256 * 27 in runs of 100, whose conjugate sums numbers of
# up to ~8,000 bits) and 71 MB (the tops 512, 1024, ..., 197 * 512, one long row
# of prefix sums); the slowest product found, 2^16 tops 400 after the
# staircase 1..360, about 0.07 s.
MAX_ORACLE_CELLS = 10_000_000
# cor35's staircase work counts m^2 b (m + b) at m = k, b the bit length of
# k: k^2 products of O(k b)-bit integers by O(k)-bit table entries; k = 1025
# took about 0.3 s on CPython 3.11 (2-vCPU VM).
MAX_STAIRCASE_WORK = 12_000_000_000
# A listed sequence of length k costs k + 1 units, as a walked subset does for
# the module oracle.  At 5 * 10^5 units the slowest shapes measured through
# cli.run on CPython 3.11 (2-vCPU VM) are k = 1 and k = 2, too short for a
# table of tails: 250,000 and 166,176 lines, listed as ListedHeights, in
# 0.19-0.27 s and 0.15-0.18 s, and 59 MB and 41 MB peak RSS.  From k = 3 on
# (flat boundaries at the bound, k <= 12) they took 0.17 s at most.
MAX_LIST_WORK = 500_000
# A walk takes its last m entries from a table of tails while the product of
# (b_i + 1) over their bounds is at most MAX_TAIL_ROWS, for m up to
# MAX_TAIL_LENGTH: the table holds at most 4096 tuples of at most 16 entries.
# The walk on the tail that builds it tables a shorter tail in turn: at most
# 15 tables nest, two alive at a time.  On whole walks on CPython 3.11,
# tracemalloc put the peak at 0.88 MB for (5000, 4095, 0, ..., 0) decreasing
# (one table of 4096 16-tuples) and 3.9 MB for (0, ..., 0, 4095) increasing,
# whose 15 tables hold 4096 tuples each: ~1.5 MB for two of them, the rest
# freed tuples that CPython keeps on its free lists.
MAX_TAIL_ROWS = 4096
MAX_TAIL_LENGTH = 16


class Direction(Enum):
    DECREASING = "dec"
    INCREASING = "inc"


def _checked_direction(direction) -> Direction:
    if not isinstance(direction, Direction):
        raise ValueError(f"bad direction {direction!r}")
    return direction


@dataclass(frozen=True)
class HeightSequence:
    """Nonempty, weakly monotone sequence of nonnegative step heights."""

    direction: Direction
    heights: tuple[int, ...]

    def __post_init__(self):
        heights = int_entries(self.heights, "heights must be nonnegative integers", 0)
        object.__setattr__(self, "heights", heights)
        decreasing = _checked_direction(self.direction) is Direction.DECREASING
        if not heights:
            raise ValueError("height sequence must be nonempty")
        if list(heights) != sorted(heights, reverse=decreasing):
            raise ValueError(
                f"heights {heights} are not monotone for direction {self.direction.value!r}"
            )

    @classmethod
    def decreasing(cls, heights) -> "HeightSequence":
        return cls(Direction.DECREASING, tuple(heights))

    @classmethod
    def increasing(cls, heights) -> "HeightSequence":
        return cls(Direction.INCREASING, tuple(heights))

    def __len__(self) -> int:
        return len(self.heights)

    def mirror(self) -> "HeightSequence":
        """Same heights read right to left, which flips the direction."""
        flipped = (
            Direction.INCREASING
            if self.direction is Direction.DECREASING
            else Direction.DECREASING
        )
        return trusted(HeightSequence, flipped, self.heights[::-1])


@dataclass(frozen=True)
class LatticePath:
    """Explicit unit-step path in the closed first quadrant.

    The start must lie on the nonnegative y-axis; translated paths are
    rejected rather than reinterpreted.  ``direction`` may be omitted when
    the steps determine it (any vertical step does); an all-horizontal path
    defaults to decreasing.
    """

    start: tuple[int, int]
    steps: tuple[tuple[int, int], ...]
    direction: Direction | None = None

    def __post_init__(self):
        start = int_entries(self.start, "start coordinates must be integers")
        steps = tuple(int_entries(s, "step coordinates must be integers") for s in self.steps)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)
        if len(start) != 2 or start[0] != 0 or start[1] < 0:
            raise ValueError(f"path must start on the nonnegative y-axis, got {start}")
        seen = set(steps) - {(1, 0)}
        odd = seen - {(0, 1), (0, -1)}
        if odd:
            step = next(s for s in steps if s in odd)
            raise ValueError(f"step {step} is not a unit step (1, 0), (0, 1) or (0, -1)")
        if len(seen) > 1:
            raise ValueError("path mixes upward and downward steps")
        direction = self.direction
        if direction is None:
            direction = Direction.INCREASING if (0, 1) in seen else Direction.DECREASING
        object.__setattr__(self, "direction", _checked_direction(direction))
        # The steps are now (1, 0) and one vertical unit: a step can be wrong
        # only against the direction, and only descents lower the path.
        wrong = (0, -1 if direction is Direction.INCREASING else 1)
        if wrong in seen:
            raise ValueError(f"step {wrong} not allowed in a {direction.value} path")
        if steps.count((0, -1)) > start[1]:
            raise ValueError("path leaves the closed first quadrant")

    def points(self) -> list[tuple[int, int]]:
        return list(accumulate(self.steps, lambda p, s: (p[0] + s[0], p[1] + s[1]),
                               initial=self.start))

    @property
    def end(self) -> tuple[int, int]:
        return self.points()[-1]


def path_from_heights(h: HeightSequence) -> LatticePath:
    """Canonical path of a height sequence: (0, h_1) -> (k, 0) when
    decreasing, (0, 0) -> (k, h_k) when increasing."""
    decreasing = h.direction is Direction.DECREASING
    level = h.heights[0] if decreasing else 0
    start, unit = (0, level), (0, -1 if decreasing else 1)
    steps: list[tuple[int, int]] = []
    for height in h.heights:
        steps.extend([unit] * abs(height - level))
        steps.append((1, 0))
        level = height
    if decreasing:
        steps.extend([unit] * level)
    return trusted(LatticePath, start, tuple(steps), h.direction)


def heights_from_path(p: LatticePath) -> HeightSequence:
    """Heights of the horizontal steps; inverts path_from_heights."""
    heights = []
    y = p.start[1]
    for dx, dy in p.steps:
        if dx == 1:
            heights.append(y)
        y += dy
    if not heights:
        raise ValueError("path has no horizontal steps, so no height sequence")
    return trusted(HeightSequence, p.direction, tuple(heights))


def is_below(u: HeightSequence, v: HeightSequence) -> bool:
    """True iff u and v have equal length and 0 <= u_i <= v_i for all i."""
    if u.direction is not v.direction:
        raise ValueError("cannot compare height sequences of different directions")
    if len(u) != len(v):
        return False
    return all(a <= b for a, b in zip(u.heights, v.heights))


def _require_direction(h: HeightSequence, direction: Direction, what: str) -> None:
    if h.direction is not direction:
        raise ValueError(f"{what} needs a {direction.value} sequence, got {h.direction.value}")


def compute_gammas(lam: HeightSequence) -> tuple[int, ...]:
    """Correction coefficients gamma_1..gamma_k of a decreasing sequence.

    gamma_1 = 1 and, for j >= 2,
        gamma_j = -sum(C(h_i - h_{j-1} + j - i - 1, j - i) * gamma_i, i = 1..j-2),
    so gamma_2 = 0 (empty sum) and gamma_j depends on h_1..h_{j-1} only.

    With a_i = h_i - i the terms of gamma_j are C(a_i - a_{j-1}, j - i), and
    the step to gamma_{j+1} raises every top by the drop d = a_{j-1} - a_j
    >= 1 and every bottom by 1.  Across a leading flat run h_1 = ... = h_L
    the tops j - 1 - i of gamma_j, j <= L + 1, are below their bottoms, so
    gamma_2..gamma_{L+1} are 0 and only the terms i = 1 and i > L + 1 are
    left.  Two routes take the t = k - L indices past the run, whose drops
    sum to D = a_L - a_k: the pushed polynomial (_pushed_gammas) costs about
    t D adds at C speed, the walked rows (_walked_gammas) about t^2 / 2
    entries of a few big-integer products each.  probes/gamma_routes.py
    times the two equal where D / (t + 1) is about sqrt(t) / 2 (from 1.6 at
    t = 10 to 10 at t = 320, and past 20 at t = 640), so the tail is pushed
    while 4 D^2 <= t (t + 1)^2.

    Both routes walk a binomial to the next coefficient's by
        C(n, r) = C(n - d, r - 1) * perm(n, d) / (r * perm(n - r, d - 1)),
    d small factors up and d down where a fresh binomial takes r of each.
    They walk where the old entry is nonzero and 3 d <= r, past which the
    probe finds a fresh binomial cheaper, and take the entry afresh
    otherwise; an entry with n < r is 0 and costs no binomial.
    """
    _require_direction(lam, Direction.DECREASING, "compute_gammas")
    a = [x - i for i, x in enumerate(lam.heights)]
    run = lam.heights.count(lam.heights[0])  # L
    tail, drop = len(a) - run, a[run - 1] - a[-1]
    pushed = 4 * drop * drop <= tail * (tail + 1) ** 2
    rest = (_pushed_gammas if pushed else _walked_gammas)(a, run)
    return (1, *[0] * run, *rest)[: len(a)]  # gamma_1, gamma_2..gamma_{L+1}, the rest


def _pushed_gammas(a: list[int], run: int) -> list[int]:
    """gamma_{L+2}..gamma_k of the a_i past a leading run of L, as one
    polynomial: gamma_j = -C(a_1 - a_{j-1}, j - 1) - [x^j] H_j, where
        H_j = sum(gamma_i x^i (1 + x)^(a_i - a_{j-1}), i = L+2..j-1),
        H_{j+1} = (1 + x)^d H_j + gamma_j x^j,  d = a_{j-1} - a_j.
    H is one dense list over the degrees L+2..k, multiplied by 1 + x in
    place, one pass at C speed a unit of d, or, for d over half the list,
    by one product with the walked C(d, t).  A pass skips the zeros above
    the degrees H can reach and the degrees below k - (a_{j-1} - a_{k-1}),
    which no later [x^j'] reaches, j' <= k.  The lead term is walked along
    j."""
    n = len(a) - run - 1
    poly, gammas = [0] * n, []
    live = lead = 0  # poly[live:] is 0
    for j in range(run + 2, len(a) + 1):
        d = a[j - 3] - a[j - 2]
        if gammas:
            if 2 * d <= n:
                dead = len(a) - (a[j - 3] - a[-2]) - run - 2
                for lo in map(max, range(dead, dead + d), repeat(0)):
                    live += live < n
                    poly[lo + 1:live] = map(add, poly[lo + 1:live], poly[lo:])
            else:
                series = list(accumulate(range(1, n), lambda c, t: c * (d + 1 - t) // t,
                                         initial=1))
                poly, live = [sum(map(mul, series, poly[m::-1])) for m in range(n)], n
            poly[j - run - 3] += gammas[-1]
            live = max(live, j - run - 2)
        top, r = a[0] - a[j - 2], j - 1
        lead = (lead * perm(top, d) // (r * perm(top - r, d - 1)) if lead and 3 * d <= r
                else binomial(top, r) if top >= r else 0)
        gammas.append(-lead - poly[j - run - 2])
    return gammas


def _walked_gammas(a: list[int], run: int) -> list[int]:
    """gamma_{L+2}..gamma_k of the a_i past a leading run of L, each from
    one row of its terms over i = 1 and i > L + 1, whose last entry is
    C(0, 1) = 0.  The row is walked to the next coefficient's entry by
    entry."""
    kept = a[:1] + a[run:]  # the a_i of the rows' indices i = 1 and i > L
    gammas, row = [1, 0], [0]  # gamma_1 and gamma_{L+1}, and gamma_{L+1}'s row at i = 1
    for j in range(run + 2, len(a) + 1):
        y, d = a[j - 2], a[j - 3] - a[j - 2]
        walk = 3 * d  # the least bottom walked
        # r = j - i over the kept i: one range without a run (a chain costs ~2 % at k = 160).
        bottoms = range(j - 1, 1, -1) if run == 1 else chain((j - 1,), range(j - run - 1, 1, -1))
        row = [c * perm(x - y, d) // (r * perm(x - y - r, d - 1)) if c and walk <= r
               else binomial(x - y, r) if x - y >= r else 0
               for c, x, r in zip(row, kept, bottoms)]
        row.append(0)
        gammas.append(-sum(map(mul, row, gammas)))
    return gammas[2:]


def count_below_decreasing_iterative(lam: HeightSequence) -> int:
    """Number of decreasing lattice paths below lam, by the iterative formula.

    The paper's count for k >= 2,
        sum_{i<k} [C(h_i+k-i+1, k+1-i) - C(h_i-h_k+k-i, k+1-i)] * gamma_i
        - sum_{i<k-1} (h_k+1) * C(h_i-h_{k-1}+k-i-1, k-i) * gamma_i,
    folds by the gamma recursion: the last sum is -(h_k+1) gamma_k, and the
    subtracted half of the first is -gamma_{k+1}, which reads h_1..h_k only,
    so it is the last coefficient of lam with h_k repeated.  Hence
        count = (h_k+1) gamma_k + gamma_{k+1} + sum_{i<k} C(h_i+k-i+1, k+1-i) gamma_i,
    which is also the direct count h_1 + 1 at k = 1, where gamma_2 = 0.

    The last sum's terms C(h_i + r, r), r = k + 1 - i, are walked along i as
    the gamma rows are: the step to i + 1 lowers r by 1 and h_i by the drop
    d = h_i - h_(i+1), so C(x + r, r) becomes C(x - d + r - 1, r - 1) =
    C(x + r, r) r perm(x, d) / ((x + r) perm(x + r - 1, d)), 2d small
    factors where a fresh binomial takes r - 1 up and down.  Across a
    leading flat run h_1 = ... = h_L the terms' gamma_2..gamma_(L+1) are 0
    (see compute_gammas), so the sum takes its first term and its term at
    i = L + 2 afresh, and walks only from there; a term after a drop larger
    than its bottom is taken afresh too.
    """
    _require_direction(lam, Direction.DECREASING, "iterative count")
    h = lam.heights
    k = len(h)
    g = compute_gammas(trusted(HeightSequence, Direction.DECREASING, h + h[-1:]))
    total = (h[-1] + 1) * g[k - 1] + g[k]
    if k > 1:
        total += binomial(h[0] + k, k)  # i = 1, gamma_1 = 1
    run = h.count(h[0])  # L
    for i in range(run + 1, k - 1):  # term = C(h[i] + r, r), past gamma_(L+1)
        r, x = k - i, h[i - 1]
        d = x - h[i]
        if i > run + 1 and d <= r:
            term = term * (r + 1) * perm(x, d) // ((x + r + 1) * perm(x + r, d))
        else:
            term = binomial(h[i] + r, r)
        total += term * g[i]
    return total


def count_below_increasing_determinant(a: HeightSequence) -> int:
    """Number of increasing lattice paths below a, as det C(a_i + 1, j - i + 1).

    The matrix is upper Hessenberg with 1s on its subdiagonal; expanding along
    the last column gives D_m = sum((-1)^(m-i) C(a_i+1, m-i+1) D_{i-1}, i <= m),
    so E_m = (-1)^m D_m is -sum(C(a_i+1, m-i+1) E_{i-1}, i <= m).  Its terms
    are kept as one row over i <= m: the step to m + 1 raises every bottom r
    by 1, which multiplies C(a_i+1, r) by (a_i + 1 - r) / (r + 1), and adds
    C(a_{m+1}+1, 1).  Every row is walked from the empty one.
    """
    _require_direction(a, Direction.INCREASING, "determinant count")
    tops = [x + 1 for x in a.heights]
    e = [1]  # e[m] = (-1)^m times the leading m x m minor
    row: list[int] = []
    for m in range(1, len(tops) + 1):
        # row[i] = C(tops[i], m - i), i < m.
        row = [c * (n - r) // (r + 1) for c, n, r in zip(row, tops, range(m - 1, 0, -1))]
        row.append(tops[m - 1])
        e.append(-sum(map(mul, row, e)))
    return (-1) ** len(tops) * e[-1]


def count_below_oracle(h: HeightSequence) -> int:
    """Count monotone sequences mu with 0 <= mu_i <= h_i by dynamic programming.

    Works for either direction and is independent of both closed-form routes,
    which are cross-checked against it.  A decreasing boundary is counted as
    its mirror: reading right to left maps the sequences below one onto the
    sequences below the other.  Boundaries whose plan, on the heights or
    their conjugate, is estimated over MAX_ORACLE_CELLS cells are refused
    before any row is allocated.
    """
    hs = h.heights
    return _count_below(hs if h.direction is Direction.INCREASING else hs[::-1], 0)


def _count_below(bounds: tuple[int, ...], step: int) -> int:
    """Number of the tuples _runs(bounds, step) lists for increasing bounds:
    the x with x_i <= b_i and 0 <= x_1 <= ... <= x_k for step 0, or
    1 <= x_1 < ... < x_k for step 1.  The empty bound has one, the empty
    tuple.

    For step 1 the tuples x_i - i are those of step 0 below the tops
    b_i - i, so the rows carry no entry a strictly increasing prefix cannot
    reach.  row[m] counts the admissible prefixes ending in m, starting from
    the one empty prefix as row = [1]; the next entry is at least m, so a
    top t pads the row with zeros to n = t + 1 entries and takes its prefix
    sums.  A run of L equal tops takes L of them, which is the product of
    the row with the first n coefficients C(L - 1 + j, j) of (1 - x)^(-L),
    walked along j.  _oracle_plan says which runs take that product and in
    which of the tops and their conjugate.  Plans whose estimate exceeds
    MAX_ORACLE_CELLS are refused before anything is allocated.
    """
    tops = [b - i for i, b in enumerate(bounds, 1)] if step else bounds
    cells, runs, weight = _oracle_plan(tops)
    if cells > MAX_ORACLE_CELLS:
        raise ValueError(f"oracle cells exceed bound {MAX_ORACLE_CELLS}")
    row = [1]
    for n, length in runs:
        row += [0] * (n - len(row))
        if length <= n * weight:
            for _ in range(length):
                row = list(accumulate(row))
        else:
            series = list(accumulate(range(1, n), lambda c, j: c * (length - 1 + j) // j,
                                     initial=1))
            row = [sum(map(mul, series, row[m::-1])) for m in range(n)]
    return sum(row)


def _oracle_plan(tops: Sequence[int]) -> tuple[int, Iterable[tuple[int, int]], int]:
    """(cells, runs, weight) of the cheaper way to count below the weakly
    increasing tops: a run (n, L) pads the row to n entries and takes L
    prefix sums, one at a time for L n cells or as one product for
    n^2 weight cells, whichever is fewer.  The weight scales a product to
    the size of the numbers (see MAX_ORACLE_CELLS).

    The conjugate of tops t_1 <= ... <= t_k, the number of tops >= v for
    v = t_k, ..., 1, has the same count (transpose the Ferrers diagram): a
    run of L equal tops becomes a gap of L, and a gap of g between distinct
    tops (t_0 = 0) a run of g.
    """
    k = len(tops)
    # Distinct tops t_1 < ... < t_k are runs of 1, none longer than its row.
    # The conjugate's run i is the gap t_i - t_(i-1) on a row of k - i + 2:
    # t_1 <= k + 1 for i = 1, and for i >= 2 at most t_k - t_1 - (i - 2),
    # so none is longer if t_k - t_1 <= k.  With no long run, the tops take
    # S + k cells and the conjugate S + t_k, so the tops for k <= t_k.
    if k and tops[0] <= k + 1 and k <= tops[-1] <= tops[0] + k and len(set(tops)) == k:
        return sum(tops) + k, zip([t + 1 for t in tops], [1] * k), 1
    runs = Counter(tops)
    heights, lengths = list(runs), list(runs.values())
    top = heights[-1] if heights else 0

    def conjugate():
        # The conjugate's runs, lowest first: the tops above each gap, as
        # many of them as the gap is wide.
        gaps = list(map(sub, reversed(heights), chain(reversed(heights[:-1]), (0,))))
        return [c + 1 for c in accumulate(reversed(lengths))], gaps

    # A product pays only for L > n weight >= n, so for a run longer than
    # its row: L > t + 1 in the tops, and in the conjugate a gap
    # t_i - t_(i-1) (t_0 = 0) wider than its row, one more than the
    # k - i + 1 tops from t_i on.
    long = (any(map(gt, lengths, map(add, heights, repeat(1))))
            or any(map(gt, map(sub, tops, chain((0,), tops)), range(k + 1, 1, -1))))
    if not long:
        # Every run takes its L prefix sums, sum (t + 1) L = S + k cells on
        # the tops and S + t_k on the conjugate, S the sum of the tops.
        ns, ls = ([t + 1 for t in heights], lengths) if k <= top else conjugate()
        return sum(tops) + min(k, top), zip(ns, ls), 1
    # Every number the DP holds is at most the count, so at most the
    # product of C(t + L, L) <= (t + L)^min(t, L) over the runs: of at most
    # B bits.
    bits = sum(map(mul, map(min, heights, lengths),
                   map(int.bit_length, map(add, heights, lengths))))
    weight = ((bits >> 10) + 1) ** 2  # w^2, w = B // 1024 + 1
    plans = []
    for ns, ls in ([t + 1 for t in heights], lengths), conjugate():
        # A run costs n min(L, n weight) cells.
        cells = sum(map(mul, ns, map(min, ls, map(mul, ns, repeat(weight)))))
        plans.append((cells, zip(ns, ls)))
    return (*min(plans, key=itemgetter(0)), weight)


def _runs(bounds: tuple[int, ...], step: int | None, *,
          least: int | None = None) -> Iterator[Iterable[tuple[int, ...]]]:
    """The tuples below bounds in runs that share a prefix: decreasing ones
    for step None, and for step 0 or 1 increasing ones whose entries rise
    by at least step, from x_1 >= least (step by default).  Increasing
    bounds must rise by at least step too, from b_1 >= least.  A decreasing
    walk may start its x_1 at least too; its later entries start at 0.

    An odometer, not a recursion, so any length works.  It turns over the
    first k - m entries only: after each prefix the rightmost entry below
    its cap goes up by one and every entry after it drops to its least
    value (0, the new entry, or the new entry plus 1, 2, ... when step is
    1).  For each prefix p the run of its tails t is built at C speed as
    the tuples p + t.  The last m >= 2 entries (see _tail_length) come from
    one table of tails, which _tail_rows builds whole when the walk starts,
    by this walk on the tail.  Each such walk is at least one entry shorter
    than the last, so the tables nest at most MAX_TAIL_LENGTH deep.  When
    no m >= 2 fits, m = 1 and the run is the last entries y,
    0..min(h_k, p_(k-1)) when decreasing and p_(k-1) + step..h_k when
    increasing, which stays lazy however long.
    """
    if least is None:
        least = step or 0
    if len(bounds) < 2:
        yield zip(range(least, bounds[0] + 1)) if bounds else [()]
        return
    decreasing = step is None
    m = _tail_length(bounds)
    head, top = bounds[:-m], bounds[-1]
    k = len(head)
    x = [least, *[0] * (k - 1)] if decreasing else [least + step * j for j in range(k)]
    row = _tail_rows(bounds[-m:], step, x[-1]) if m > 1 else None
    while True:
        p = tuple(x)
        if row:
            yield map(p.__add__, row(x[-1]))
        else:
            last = range(min(top, x[-1]) + 1) if decreasing else range(x[-1] + step, top + 1)
            yield map(p.__add__, zip(last))
        i = k - 1
        while i >= 0 and (x[i] >= head[i] or decreasing and i and x[i] >= x[i - 1]):
            i -= 1
        if i < 0:
            return
        x[i] += 1
        least = 0 if decreasing else x[i]
        x[i + 1 :] = range(least + 1, least + k - i) if step else [least] * (k - 1 - i)


def _tail_length(bounds: tuple[int, ...]) -> int:
    """m, the number of last entries a walk of k >= 3 entries takes from
    its table of tails: the most, up to MAX_TAIL_LENGTH and k - 1, whose
    bounds' product of (b_i + 1), which bounds the table's size, is at most
    MAX_TAIL_ROWS.  1, for no table, when k < 3 or no m >= 2 fits."""
    m, size = 0, 1
    if len(bounds) >= 3:
        for b in islice(reversed(bounds), min(MAX_TAIL_LENGTH, len(bounds) - 1)):
            size *= b + 1
            if size > MAX_TAIL_ROWS:
                break
            m += 1
    return m if m >= 2 else 1


def _tail_rows(tail: tuple[int, ...], step: int | None, first: int):
    """row(c): the list of the tails below tail, in _runs' order, that may
    follow a prefix ending in c, where first is the c of the walk's first
    prefix.  Every row is a slice of one table, the tails in lexicographic
    order, built whole by _runs on the tail: a prefix of it, the tails of
    first entry at most c, when decreasing; a suffix, those of first entry
    at least c + step, when increasing.  No later prefix ends below first,
    so an increasing table starts at first + step."""
    table = list(chain.from_iterable(
        _runs(tail, step, least=None if step is None else first + step)))
    if step is None:
        return lambda c: table[:bisect_left(table, (c + 1,))]
    return lambda c: table[bisect_left(table, (c + step,)):]


def iter_monotone_below(
    bounds: tuple[int, ...], direction: Direction
) -> Iterator[tuple[int, ...]]:
    """Yield every weakly monotone tuple x below the bounds h, in ascending
    lexicographic order: 0 <= x_i <= min(h_i, x_{i-1}) when decreasing,
    x_{i-1} <= x_i <= h_i (and 0 <= x_1) when increasing.  Increasing bounds
    must themselves increase weakly, as height sequences do.  The empty bound
    yields the empty tuple once.  The iterator is lazy and chains the runs
    of _runs.
    """
    return chain.from_iterable(_runs(bounds, None if direction is Direction.DECREASING else 0))


def iter_below(h: HeightSequence) -> Iterator[HeightSequence]:
    """Yield every sequence below h in ascending lexicographic order."""
    return map(partial(trusted, HeightSequence, h.direction),
               iter_monotone_below(h.heights, h.direction))


class ListedHeights(tuple):
    """The heights of one listed sequence: a tuple of ints that also
    answers .heights with itself, so that code written for HeightSequence
    items, such as the benchmark's check of listings against its
    reference, reads it unchanged."""

    __slots__ = ()

    @property
    def heights(self) -> tuple[int, ...]:
        return self


class BelowEnumeration(NamedTuple):
    items: list[ListedHeights]
    truncated: bool


def enumerate_below(h: HeightSequence, cap: int) -> BelowEnumeration:
    """List the heights of the sequences below h, each a tuple of ints, in
    lexicographic order, at most cap of them.  A listing of more than
    MAX_LIST_WORK // (k + 1) sequences of length k is refused once one past
    that many has been listed.  The items are the walked tuples, each copied
    once into a ListedHeights as it is walked; iter_below yields the same
    sequences as HeightSequence values."""
    limit = MAX_LIST_WORK // (len(h) + 1)
    walk = partial(iter_monotone_below, h.heights, h.direction)
    items, truncated = first_items(cap, lambda: islice(map(ListedHeights, walk()), limit + 1))
    if len(items) > limit:
        raise ValueError(f"listing exceeds bound {limit} sequences of length {len(h)}")
    return BelowEnumeration(items, truncated)


def verify_identity_cor34(lam: HeightSequence) -> tuple[int, int, bool]:
    """Evaluate both sides of the determinant identity for a decreasing sequence.

    The left side is det C(h_i + 1, i - j + 1), taken literally by Bareiss
    elimination so that it shares no code with the determinant route; the
    matrix is lower Hessenberg, so the elimination takes O(k^2) big-int
    products and no division.  Row i is walked up its band from
    C(h_i + 1, 0) = 1, C(h_i + 1, r) = C(h_i + 1, r - 1) (h_i + 2 - r) / r,
    one product and one exact division by a small r per entry, up to
    r = min(i, h_i) + 1; its entries with r > h_i + 1 or past the band
    j <= i + 1 are 0.  The right side is the iterative count of paths below
    lam.  Returns (left, right, equal).
    """
    _require_direction(lam, Direction.DECREASING, "determinant identity")
    h = lam.heights
    k = len(h)
    if k < 2:
        raise ValueError(f"identity needs length >= 2, got {k}")
    band = []
    for i, x in enumerate(h):
        top = min(i, x) + 1  # C(x + 1, r) = 0 for r > x + 1
        walked = [1]  # C(x + 1, r) for r = 0, 1, ..., top
        for r in range(1, top + 1):
            walked.append(walked[-1] * (x + 2 - r) // r)
        # Column j holds r = i + 1 - j, for j < k.
        band.append((*[0] * (i + 1 - top), *walked[::-1], *[0] * (k - i - 2))[:k])
    m = trusted(IntMatrix, tuple(band))
    det_side = det_exact(m)
    iter_side = count_below_decreasing_iterative(lam)
    return det_side, iter_side, det_side == iter_side


def verify_identity_cor35(k: int) -> tuple[int, int, bool]:
    """Evaluate both sides of the staircase identity for the Catalan number.

    The left side is c_{k+1}; the right side is the folded iterative count
    (see count_below_decreasing_iterative) on the staircase (k, k-1, ..., 1),
    by the paper's Corollary 3.5: with gamma_1 = 1 and one table of C(2d, d),
    walked up from C(0, 0) = 1,
        gamma_i = -sum(C(2(i-j-1), i-j) * gamma_j, j < i),
        count = 2 gamma_k + gamma_{k+1} + sum(C(2(k+1-i), k+1-i) gamma_i, i < k).
    Returns (left, right, equal) for k >= 2 within MAX_STAIRCASE_WORK.
    """
    int_entries((k,), "identity needs k >= 2", 2)
    b = k.bit_length()
    if k * k * b * (k + b) > MAX_STAIRCASE_WORK:
        raise ValueError(f"staircase work m^2 b (m + b), b = bit_length(k), exceeds bound "
                         f"{MAX_STAIRCASE_WORK}")
    central = [1]  # C(2d, d) = C(2d - 2, d - 1) (4d - 2) / d
    for d in range(1, k + 1):
        central.append(central[-1] * (4 * d - 2) // d)
    shifted = [0] + [central[d - 1] * (d - 1) // d for d in range(1, k + 1)]  # C(2d-2, d)
    g = [1, 0]  # g[i - 1] = gamma_i, up to gamma_{k+1}
    for i in range(3, k + 2):
        g.append(-sum(map(mul, shifted[i - 1:0:-1], g)))
    rhs = 2 * g[k - 1] + g[k] + sum(map(mul, central[k:1:-1], g))
    lhs = catalan(k + 1)
    return lhs, rhs, lhs == rhs

