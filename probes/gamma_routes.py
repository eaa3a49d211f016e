"""Probe the two choices inside the gamma recursion and print where they cross.

    PYTHONPATH=src python probes/gamma_routes.py [--quick]

1. Pushed polynomial against walked rows (lattice_paths.compute_gammas).
   For tails of n indices past a leading height, and drops of a_i = h_i - i
   of growing mean, it times both routes (min of several runs) and prints
   the ratio r = (total drop) / (n + 1) of each boundary with the pushed
   route's time over the walked one's.  compute_gammas pushes while
   4 r^2 <= n, the crossover read off this table.
2. Walked entries against fresh binomials.  For tops n, bottoms r and
   drops d = f r it times one walked step,
   C(n - d, r - 1) perm(n, d) / (r perm(n - r, d - 1)), over one fresh
   math.comb(n, r).  The rows walk an entry while 3 d <= r.

Timings are wall-clock on one core and move with the host; read the
crossovers, not the digits.
"""

from __future__ import annotations

import random
import sys
import timeit
from itertools import accumulate
from math import comb, perm

from rookpaths import lattice_paths


def best(f, number: int, repeat: int = 5) -> float:
    return min(timeit.repeat(f, number=number, repeat=repeat)) / number


def route_ratios(tails, means, seed=7):
    rng = random.Random(seed)
    for n in tails:
        cells = []
        for mean in means:
            # Height drops uniform in 0..2 (mean - 1), so a-drops of the given
            # mean; a first height of at least 1 keeps the boundary off a run.
            drops = [rng.randint(0, 2 * (mean - 1)) for _ in range(n)]
            drops[0] = max(drops[0], 1)
            h = list(accumulate(drops, initial=rng.randint(0, 50)))[::-1]
            a = [x - i for i, x in enumerate(h)]
            run = h.count(h[0])
            number = max(1, int(3000 / n ** 1.5))
            pushed = best(lambda: lattice_paths._pushed_gammas(a, run), number)
            walked = best(lambda: lattice_paths._walked_gammas(a, run), number)
            ratio = (a[run - 1] - a[-1]) / (len(a) - run + 1)
            cells.append(f"{ratio:5.2f}:{pushed / walked:5.2f}")
        print(f"n={n:<4}", *cells)


def walk_ratios(bases, bottoms, fractions):
    for base in bases:
        for r in bottoms:
            cells = []
            for f in fractions:
                d = max(1, round(r * f))
                n = base + r + d
                c = comb(n - d, r - 1)
                walked = best(lambda: c * perm(n, d) // (r * perm(n - r, d - 1)), 100, 7)
                fresh = best(lambda: comb(n, r), 100, 7)
                cells.append(f"d/r={d / r:4.2f}:{walked / fresh:5.2f}")
            print(f"n-r-d={base:<10} r={r:<5}", *cells)


def main(argv):
    quick = "--quick" in argv
    print("pushed / walked time; columns are (total a-drop) / (tail + 1) : ratio")
    route_ratios((10, 40, 160) if quick else (10, 20, 40, 80, 160, 320),
                 (2, 3, 4, 6, 8, 12, 16, 32))
    print("walked step / fresh binomial time")
    walk_ratios((10**2, 10**6) if quick else (10**2, 10**4, 10**6, 10**9),
                (16, 160) if quick else (16, 40, 160, 400),
                (0.2, 0.33, 0.5, 0.75, 1.0))


if __name__ == "__main__":
    main(sys.argv[1:])
