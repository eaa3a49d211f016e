"""Injective partial maps of {1..n} and the planar upper triangular rook monoid.

An injective partial map sends a subset of {1..n} one-to-one into {1..n}.
The maps that are both order preserving (a < b implies f(a) < f(b)) and order
decreasing (f(a) <= a) form a monoid under composition; its elements are
exactly the upper triangular rook matrices under the usual matrix encoding.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice

from .exact_math import (
    IntMatrix,
    bad_int_message,
    int_entries,
    positive_ambient,
    quoted,
    same_ambient,
    trusted,
    trusted_all,
)

# The stated domain of count_icn and enumerate_icn, and so of monoid-size and
# monoid-list: {1..n} for n up to 10, where the monoid has c_11 = 58786 maps.
MAX_ICN_N = 10


@dataclass(frozen=True)
class PartialInjection:
    """Injective partial map of {1..n}, stored as sorted (source, image) pairs."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((s, i) for s, i in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        n = positive_ambient(self.n)
        sources = [s for s, _ in pairs]
        images = [i for _, i in pairs]
        int_entries(chain(sources, images), "entries must be integers in {low}..{high}", 1, n)
        if any(a >= b for a, b in zip(sources, sources[1:])):
            raise ValueError(f"sources must be strictly increasing, got {sources}")
        if len(set(images)) != len(images):
            raise ValueError(f"images must be pairwise distinct, got {images}")

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.pairs)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(i for _, i in self.pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __repr__(self) -> str:
        return f"PartialInjection({self.n}, {format_two_line(self)!r})"


def identity_map(n: int) -> PartialInjection:
    """The identity map of {1..n}."""
    return PartialInjection(n, tuple((i, i) for i in range(1, n + 1)))


def zero_map(n: int) -> PartialInjection:
    """The map with empty domain and range; absorbing for composition."""
    return PartialInjection(n, ())


def compose(f: PartialInjection, g: PartialInjection) -> PartialInjection:
    """The composite x -> f(g(x)), defined where g(x) lies in the domain of f."""
    same_ambient(f, g)
    fm = f.as_dict()
    pairs = tuple((x, fm[y]) for x, y in g.pairs if y in fm)
    return trusted(PartialInjection, f.n, pairs)


def is_order_preserving(f: PartialInjection) -> bool:
    """True iff images increase strictly along the sorted sources."""
    imgs = f.images
    return all(a < b for a, b in zip(imgs, imgs[1:]))


def is_order_decreasing(f: PartialInjection) -> bool:
    """True iff every image is at most its source."""
    return all(i <= s for s, i in f.pairs)


def to_rook_matrix(f: PartialInjection) -> IntMatrix:
    """n x n 0/1 matrix with a 1 in row i, column j exactly when f(j) = i."""
    rows = [[0] * f.n for _ in range(f.n)]
    for src, img in f.pairs:
        rows[img - 1][src - 1] = 1
    return trusted(IntMatrix, tuple(map(tuple, rows)))


def format_two_line(f: PartialInjection) -> str:
    """Two-line text form "s1 s2 ... / i1 i2 ..."; the zero map prints as "/"."""
    p = f.pairs
    return _two_line_template(len(p)) % sum(zip(*p), ())  # the sources, then the images


@lru_cache(maxsize=64)
def _two_line_template(k: int) -> str:
    """The "%d" template of the two-line form of a map with k pairs; the
    cache is bounded, so maps of many sizes cannot grow it."""
    return " / ".join([" ".join(["%d"] * k)] * 2).strip()


def parse_two_line(text: str, n: int) -> PartialInjection:
    """Parse the two-line text form back into a map of {1..n}.

    The image slot "x" marks an undefined source (the display form that lists
    the whole of 1..n on top), and such pairs are dropped.
    """
    if text.count("/") != 1:
        raise ValueError(f"two-line text needs exactly one '/', got {quoted(text)}")
    left, _, right = text.partition("/")
    source_tokens = left.split()
    image_tokens = right.split()
    if len(source_tokens) != len(image_tokens):
        raise ValueError(
            f"{len(source_tokens)} sources but {len(image_tokens)} images in {quoted(text)}"
        )
    pairs = []
    for s_tok, i_tok in zip(source_tokens, image_tokens):
        if i_tok in ("x", "X"):
            continue
        try:
            pairs.append((int(s_tok), int(i_tok)))
        except ValueError:
            message = f"bad token pair {quoted(s_tok)}/{quoted(i_tok)} in {quoted(text)}"
            raise ValueError(bad_int_message(f"{s_tok},{i_tok}", message)) from None
    return PartialInjection(n, tuple(pairs))


def _icn_size(n: int) -> int:
    return int_entries((n,), "n must be within {low}..{high}", 1, MAX_ICN_N)[0]


def count_icn(n: int) -> int:
    """Number of order preserving, order decreasing maps of {1..n}, c_{n+1}.

    Such a map is a pair (D, R) of equal-size subsets with R dominated by D,
    that is c = |R & [1, x]| - |D & [1, x]| >= 0 for every x.  Scanning
    x = 1..n, each x moves c by +1 (in R only), by -1 (in D only, when
    c >= 1) or by 0 in two ways (in both, or in neither); the maps are the
    scans that end at c = 0.  No map is built.
    """
    ways = [1]  # ways[c]: the choices of D and R inside [1, x] that reach c
    for _ in range(_icn_size(n)):
        padded = [0, *ways, 0, 0]
        ways = [padded[c] + 2 * padded[c + 1] + padded[c + 2] for c in range(len(ways) + 1)]
    return ways[0]


def enumerate_icn(n: int, cap: int | None = None) -> list[PartialInjection]:
    """The first cap (all, for None) order preserving, order decreasing maps
    of {1..n}.

    Such a map is determined by its domain D and range R, equal-size subsets
    with R dominated by D componentwise; the sorted bijection between them is
    the map.  Output is ordered by (sources, images) lexicographically, and
    no map past the cap is built.  One depth-first walk lists the domains in
    that order, each domain before the domains that extend it: the maps of a
    domain ending in s are those of its parent, the domain without s, each
    followed by one pair (s, t) with x < t <= s, where x is the parent map's
    last image (0 for the empty map).  The rows of those last pairs are kept
    per (s, x), at most n^2 of them (see _last_pairs), so the maps of a
    listing share their pair objects.  The walk is at most n + 1 deep, a cap
    past sys.maxsize lists everything, and the maps are built in one call.
    """
    n = _icn_size(n)
    if cap is not None:
        cap = min(int_entries((cap,), "cap must be a positive count", 1)[0], sys.maxsize)
    rows: dict[tuple[int, int], list] = {}

    def row(s, x):
        found = rows.get((s, x))
        if found is None:
            found = rows[s, x] = _last_pairs(s, x)
        return found

    def walk(maps, last):
        yield maps
        for s in range(last + 1, n + 1):
            yield from walk(list(chain.from_iterable(
                [map(p.__add__, row(s, p[-1][1] if p else 0)) for p in maps])), s)

    return trusted_all(PartialInjection, n, islice(chain.from_iterable(walk([()], 0)), cap))


def _last_pairs(s: int, x: int) -> list[tuple[tuple[int, int]]]:
    """The last pair (s, t) of the maps on a domain ending in s that follow
    a parent map whose last image is x: x < t <= s, in order, each as a
    one-pair tuple to append."""
    return [((s, t),) for t in range(x + 1, s + 1)]
