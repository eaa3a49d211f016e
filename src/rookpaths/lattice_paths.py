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

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import add, sub
from typing import Iterator, NamedTuple

from .exact_math import IntMatrix, binomial, catalan, det_exact, first_items, int_entries, trusted

# The DP oracle's work and table are bounded by its sum(h_i + 1) cells.  At
# 10^7 cells the slowest shapes measured on CPython 3.11 took about 2.3 s (a
# staircase) and 245 MB (two equal heights).
MAX_ORACLE_CELLS = 10_000_000


class Direction(Enum):
    DECREASING = "dec"
    INCREASING = "inc"


_STEPS = {
    Direction.DECREASING: frozenset({(1, 0), (0, -1)}),
    Direction.INCREASING: frozenset({(1, 0), (0, 1)}),
}


@dataclass(frozen=True)
class HeightSequence:
    """Nonempty, weakly monotone sequence of nonnegative step heights."""

    direction: Direction
    heights: tuple[int, ...]

    def __post_init__(self):
        heights = int_entries(self.heights, "heights must be nonnegative integers", 0)
        object.__setattr__(self, "heights", heights)
        if not isinstance(self.direction, Direction):
            raise ValueError(f"bad direction {self.direction!r}")
        if not heights:
            raise ValueError("height sequence must be nonempty")
        if self.direction is Direction.DECREASING:
            monotone = all(a >= b for a, b in zip(heights, heights[1:]))
        else:
            monotone = all(a <= b for a, b in zip(heights, heights[1:]))
        if not monotone:
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
        seen = {s for s in steps if s != (1, 0)}
        if seen - {(0, -1)} and seen - {(0, 1)}:
            raise ValueError("path mixes upward and downward steps")
        direction = self.direction
        if direction is None:
            if (0, -1) in seen:
                direction = Direction.DECREASING
            elif (0, 1) in seen:
                direction = Direction.INCREASING
            else:
                direction = Direction.DECREASING
        object.__setattr__(self, "direction", direction)
        allowed = _STEPS[direction]
        x, y = start
        for s in steps:
            if s not in allowed:
                raise ValueError(f"step {s} not allowed in a {direction.value} path")
            x, y = x + s[0], y + s[1]
            if y < 0:
                raise ValueError("path leaves the closed first quadrant")

    def points(self) -> list[tuple[int, int]]:
        pts = [self.start]
        x, y = self.start
        for dx, dy in self.steps:
            x, y = x + dx, y + dy
            pts.append((x, y))
        return pts

    @property
    def end(self) -> tuple[int, int]:
        return self.points()[-1]


def path_from_heights(h: HeightSequence) -> LatticePath:
    """Canonical path of a height sequence: (0, h_1) -> (k, 0) when
    decreasing, (0, 0) -> (k, h_k) when increasing."""
    steps: list[tuple[int, int]] = []
    if h.direction is Direction.DECREASING:
        start = (0, h.heights[0])
        level = h.heights[0]
        for height in h.heights:
            steps.extend([(0, -1)] * (level - height))
            steps.append((1, 0))
            level = height
        steps.extend([(0, -1)] * level)
    else:
        start = (0, 0)
        level = 0
        for height in h.heights:
            steps.extend([(0, 1)] * (height - level))
            steps.append((1, 0))
            level = height
    return LatticePath(start, tuple(steps), h.direction)


def heights_from_path(p: LatticePath) -> HeightSequence:
    """Heights of the horizontal steps; inverts path_from_heights."""
    heights = []
    x, y = p.start
    for dx, dy in p.steps:
        if dx == 1:
            heights.append(y)
        x, y = x + dx, y + dy
    if not heights:
        raise ValueError("path has no horizontal steps, so no height sequence")
    return HeightSequence(p.direction, tuple(heights))


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
    """
    _require_direction(lam, Direction.DECREASING, "compute_gammas")
    h = lam.heights
    gammas: list[int] = []
    for j in range(1, len(h) + 1):
        if j == 1:
            gammas.append(1)
            continue
        total = sum(
            binomial(h[i - 1] - h[j - 2] + j - i - 1, j - i) * gammas[i - 1]
            for i in range(1, j - 1)
        )
        gammas.append(-total)
    return tuple(gammas)


def count_below_decreasing_iterative(lam: HeightSequence) -> int:
    """Number of decreasing lattice paths below lam, by the iterative formula.

    Length 1 is the direct count h_1 + 1; for k >= 2 the count is

        sum_{i<k} [C(h_i+k-i+1, k+1-i) - C(h_i-h_k+k-i, k+1-i)] * gamma_i
        - sum_{i<k-1} (h_k+1) * C(h_i-h_{k-1}+k-i-1, k-i) * gamma_i.
    """
    _require_direction(lam, Direction.DECREASING, "iterative count")
    h = lam.heights
    k = len(h)
    if k == 1:
        return h[0] + 1
    g = compute_gammas(lam)
    first = sum(
        (
            binomial(h[i - 1] + k - i + 1, k + 1 - i)
            - binomial(h[i - 1] - h[k - 1] + k - i, k + 1 - i)
        )
        * g[i - 1]
        for i in range(1, k)
    )
    second = sum(
        (h[k - 1] + 1) * binomial(h[i - 1] - h[k - 2] + k - i - 1, k - i) * g[i - 1]
        for i in range(1, k - 1)
    )
    return first - second


def count_below_increasing_determinant(a: HeightSequence) -> int:
    """Number of increasing lattice paths below a, as det C(a_i + 1, j - i + 1).

    The matrix is upper Hessenberg with 1s on its subdiagonal; expanding along
    the last column gives D_m = sum((-1)^(m-i) C(a_i+1, m-i+1) D_{i-1}, i <= m).
    """
    _require_direction(a, Direction.INCREASING, "determinant count")
    h = a.heights
    d = [1]  # d[m] is the leading m x m minor
    for m in range(1, len(h) + 1):
        d.append(sum((-1) ** (m - i) * binomial(h[i - 1] + 1, m - i + 1) * d[i - 1]
                     for i in range(1, m + 1)))
    return d[-1]


def count_below_oracle(h: HeightSequence) -> int:
    """Count monotone sequences mu with 0 <= mu_i <= h_i by dynamic programming.

    Works for either direction and is independent of both closed-form routes,
    which are cross-checked against it.  An increasing boundary is counted as
    its mirror: reading right to left maps the sequences below one onto the
    sequences below the other.  Boundaries with more than MAX_ORACLE_CELLS
    cells sum(h_i + 1) are refused before anything is allocated.
    """
    if sum(h.heights) + len(h) > MAX_ORACLE_CELLS:
        raise ValueError(f"oracle cells sum(h_i + 1) exceed bound {MAX_ORACLE_CELLS}")
    if h.direction is Direction.INCREASING:
        h = h.mirror()
    hs = h.heights
    # cur[m] counts the admissible prefixes ending in m; the next entry is at
    # most m, so the next counts are suffix sums of these.  Reversing and
    # truncating in place keeps at most two rows alive.
    cur = [1] * (hs[0] + 1)
    for bound in hs[1:]:
        cur = list(accumulate(reversed(cur)))
        cur.reverse()
        del cur[bound + 1 :]
    return sum(cur)


def iter_monotone_below(
    bounds: tuple[int, ...], direction: Direction
) -> Iterator[tuple[int, ...]]:
    """Yield every weakly monotone tuple x below the bounds h, in ascending
    lexicographic order: 0 <= x_i <= min(h_i, x_{i-1}) when decreasing,
    x_{i-1} <= x_i <= h_i (and 0 <= x_1) when increasing.  Increasing bounds
    must themselves increase weakly, as height sequences and shifted subsets
    s_i - i do.  The empty bound yields the empty tuple once.

    An odometer, not a recursion, so any length works: after each tuple the
    rightmost entry below its cap goes up by one and every entry after it
    drops to its least value (0, or the new entry when increasing).
    """
    decreasing = direction is Direction.DECREASING
    k = len(bounds)
    x = [0] * k
    while True:
        yield tuple(x)
        i = k - 1
        while i >= 0 and (x[i] >= bounds[i] or decreasing and i and x[i] >= x[i - 1]):
            i -= 1
        if i < 0:
            return
        x[i] += 1
        x[i + 1 :] = [0 if decreasing else x[i]] * (k - 1 - i)


def iter_subsets_below(elems: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield every strictly increasing positive tuple t dominated by the
    strictly increasing positive tuple s = elems (t_i <= s_i), in ascending
    lexicographic order.  Shifting by position, u_i = t_i - i, turns these
    into the weakly increasing tuples u below s_i - i.
    """
    shift = range(1, len(elems) + 1)
    for u in iter_monotone_below(tuple(map(sub, elems, shift)), Direction.INCREASING):
        yield tuple(map(add, u, shift))


def iter_below(h: HeightSequence) -> Iterator[HeightSequence]:
    """Yield every sequence below h in ascending lexicographic order."""
    return (trusted(HeightSequence, h.direction, x)
            for x in iter_monotone_below(h.heights, h.direction))


class BelowEnumeration(NamedTuple):
    items: list[HeightSequence]
    truncated: bool


def enumerate_below(h: HeightSequence, cap: int) -> BelowEnumeration:
    """List the sequences below h in lexicographic order, at most cap of them."""
    return BelowEnumeration(*first_items(cap, lambda: iter_below(h)))


def verify_identity_cor34(lam: HeightSequence) -> tuple[int, int, bool]:
    """Evaluate both sides of the determinant identity for a decreasing sequence.

    The left side is det C(h_i + 1, i - j + 1), taken literally by Bareiss
    elimination so that it shares no code with the determinant route; the
    right side is the iterative count of paths below lam.  Returns (left,
    right, equal).
    """
    _require_direction(lam, Direction.DECREASING, "determinant identity")
    h = lam.heights
    k = len(h)
    if k < 2:
        raise ValueError(f"identity needs length >= 2, got {k}")
    m = IntMatrix(
        tuple(tuple(binomial(h[i] + 1, i - j + 1) for j in range(k)) for i in range(k))
    )
    det_side = det_exact(m)
    iter_side = count_below_decreasing_iterative(lam)
    return det_side, iter_side, det_side == iter_side


def verify_identity_cor35(k: int) -> tuple[int, int, bool]:
    """Evaluate both sides of the staircase identity for the Catalan number.

    The left side is c_{k+1}; the right side specializes the iterative count
    to the staircase (k, k-1, ..., 1), with its own coefficient recursion
    gamma_1 = 1, gamma_i = -sum(C(2(i-j-1), i-j) * gamma_j, j = 1..i-2).
    Returns (left, right, equal); requires k >= 2.
    """
    int_entries((k,), "identity needs k >= 2", 2)
    # Each coefficient depends on one index difference d only: C(2(d-1), d)
    # or C(2d, d), so one table of each, d = 0..k, holds them all.
    shifted = [0] + [binomial(2 * (d - 1), d) for d in range(1, k + 1)]
    central = [binomial(2 * d, d) for d in range(k + 1)]
    g = [0, 1]  # 1-indexed; g[i] = gamma_i
    for i in range(2, k):
        g.append(-sum(shifted[i - j] * g[j] for j in range(1, i - 1)))
    rhs = (
        sum(central[k + 1 - i] * g[i] for i in range(1, k))
        - sum(shifted[k + 1 - i] * g[i] for i in range(1, k))
        - sum(2 * shifted[k - i] * g[i] for i in range(1, k - 1))
    )
    lhs = catalan(k + 1)
    return lhs, rhs, lhs == rhs
