"""Probe the table of tails that rook_monoid.enumerate_icn shares across a
listing's domains, and print which tail length and head walk pay.

    PYTHONPATH=src python probes/monoid_tails.py [--quick]

For n = 6..10 it times the pair build of the whole listing of {1..n}, the
pairs of all c_(n+1) maps with no map built (min over interleaved rounds):
- walked: every domain's ranges zipped whole, one tuple of pairs a map, as
  before the table;
- m = 1, 2, 3: a domain of k > m sources walks the ranges of its first
  k - m sources, zips each prefix's pairs, and adds the rows of one table
  keyed by (the last m sources, the prefix's last image), shared by all
  the domains; smaller domains are walked whole;
- +reuse: the same, with each head's zipped prefixes kept by the first
  domain that walks them, lazily, and reused by every later domain with
  that head.
Each cell is the time over the walked build's.

Three runs on CPython 3.11.7, 2 vCPUs, read about (walked = 1):

    n    m=1   m=2   m=3   m=1+reuse  m=2+reuse  m=3+reuse
    6    0.89  0.93  1.13    0.76       0.84       1.09
    7    0.75  0.67  0.90    0.65       0.60       0.89
    8    0.75  0.54  0.74    0.63       0.44       0.66
    9    0.71  0.45  0.53    0.60       0.34       0.50
    10   0.65  0.37  0.38    0.55       0.29       0.33

m = 2 is the fastest from n = 7 on: m = 1 takes one pair a map from the
table and zips the rest, and m = 3 makes rows of up to C(s, 3) tails, most
of them read by few prefixes.  m = 1 and m = 2 cross at n = 6 to 7 (at
n = 6, ~1 ms a listing, m = 1 with reuse leads), and m = 3 meets m = 2 only
at n = 10, the largest n enumerate_icn lists.  That is the constant 2
there.  Head reuse paid at every n, 9 % at n = 6 and 20-25 % at n = 9 and
10 with m = 2, and the listing stays lazy, so enumerate_icn reuses its
heads.  Timings move with the host; read the ratios, not the digits.
"""

from __future__ import annotations

import sys
import timeit
from itertools import chain, combinations, repeat

from rookpaths.lattice_paths import iter_subsets_below


def best_of(fs, rounds: int = 9) -> list[float]:
    """The min time of each of fs over rounds in which each runs once in
    turn, so a slow spell of the host falls on all of them."""
    times = [float("inf")] * len(fs)
    for _ in range(rounds):
        for i, f in enumerate(fs):
            times[i] = min(times[i], timeit.timeit(f, number=1))
    return times


def domains(n):
    return sorted(chain.from_iterable(combinations(range(1, n + 1), k) for k in range(n + 1)))


def walked(n):
    return list(chain.from_iterable(
        map(tuple, map(zip, repeat(dom), iter_subsets_below(dom, False))) for dom in domains(n)))


def tabled(n, m, reuse):
    tails, heads = {}, {}

    def walk_head(head):
        # Lazy: the list is read by later domains only, once it is whole.
        walk = heads[head] = []
        for p in iter_subsets_below(head, False):
            walk.append(item := (tuple(zip(head, p)), p[-1]))
            yield item

    def runs(dom):
        if len(dom) <= m:
            yield map(tuple, map(zip, repeat(dom), iter_subsets_below(dom, False)))
            return
        head, last = dom[:-m], dom[-m:]
        if reuse:
            walk = heads.get(head) or walk_head(head)
        else:
            walk = ((tuple(zip(head, p)), p[-1]) for p in iter_subsets_below(head, False))
        for pairs, x in walk:
            key = (*last, x)
            row = tails.get(key)
            if row is None:
                row = tails[key] = [tuple(zip(last, t))
                                    for t in iter_subsets_below(last, False) if t[0] > x]
            yield map(pairs.__add__, row)

    return list(chain.from_iterable(chain.from_iterable(map(runs, domains(n)))))


def main(argv):
    quick = "--quick" in argv
    sizes = (6, 8) if quick else (6, 7, 8, 9, 10)
    variants = [(m, reuse) for reuse in (False, True) for m in (1, 2, 3)]
    for n in sizes:
        expected = walked(n)
        for m, reuse in variants:
            assert tabled(n, m, reuse) == expected, (n, m, reuse)
        base, *times = best_of([lambda: walked(n)] + [
            lambda m=m, reuse=reuse: tabled(n, m, reuse) for m, reuse in variants])
        cells = [f"m={m}{'+reuse' if reuse else '':6}:{t / base:5.2f}"
                 for (m, reuse), t in zip(variants, times)]
        print(f"n={n:<3} walked {base * 1e3:7.2f} ms", *cells)


if __name__ == "__main__":
    main(sys.argv[1:])
