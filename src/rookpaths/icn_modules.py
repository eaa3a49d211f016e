"""Subset-indexed modules for the planar upper triangular rook monoid.

The ambient module V has one basis vector v_S per subset S of {1..n}; a
monoid element f sends v_S to v_{f(S)} when S lies inside the domain of f
and kills it otherwise.  Equal-size subsets are ordered componentwise
(written increasingly), different sizes are incomparable, and the dimension
of the cyclic module generated by v_S is the number of subsets below S,
which equals a count of lattice paths below a boundary.

Dimension routes provided:
  * dim_principal_iterative  -- height-sequence substitution into the
    iterative path count,
  * dim_principal_incl_excl  -- the signed sum of binomial determinants over
    the subsets of S, taken in O(k^2) binomials by one recurrence over the
    elements of S instead of 2^k determinants,
  * dim_submodule            -- inclusion-exclusion over the reduced support
    for an arbitrary vector, kept as one signed coefficient per distinct
    meet of generators instead of one term per set of generators,
  * dim_principal_oracle     -- a dynamic program over the elements of S that
    counts the subsets T <= S directly,
  * dim_submodule_oracle     -- brute force: the union of the terms' downsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, islice
from operator import le, lt
from types import MappingProxyType
from typing import Iterator, Mapping

from .exact_math import (
    bad_int_message,
    binomial,
    catalan,
    int_digit_limit,
    int_entries,
    parse_ints,
    positive_ambient,
    quoted,
    same_ambient,
    trusted,
)
from .lattice_paths import (
    Direction,
    HeightSequence,
    _count_below,
    _runs,
    count_below_decreasing_iterative,
)
from .rook_monoid import PartialInjection, is_order_decreasing, is_order_preserving

# Inclusion-exclusion over a k-subset S takes O(k^2) binomials whose size
# grows with k and with b, the bit length of the largest element; its work
# counts k^3 b.  At 10^8 the slowest shapes measured on CPython 3.11 (2-vCPU
# VM), the top 27 of {1..2^5000}, the top 19 of {1..2^14286} and the top 14
# of {1..2^30001}, took 0.34-0.4 s; the top 215 of {1..1000} took 0.01 s.
MAX_INCL_EXCL_WORK = 100_000_000
# The reduced support and dim_submodule count their work in subset elements,
# against one budget: each term reduced costs its size times the maxima kept
# before it, each meet of two k-subsets taken k, and each meet whose dimension
# is summed k^2.  On CPython 3.11 (2-vCPU VM) a unit took 0.14-0.7 us: the
# 1000-term antichain {i, 2001 - i} came to 0.999M units and 0.14 s through
# `reduce`, and 100 equal-sum 6-subsets of {1..30} to up to 0.99M units and
# 0.64 s through `dim-vector`.
# A meet's dimension, by the iterative count, costs less: 0.04 us a unit for
# an even staircase of 150 or 500 elements, and 0.08-0.1 us for a random
# k-subset of {1..3k} at those k.
MAX_SUBMODULE_WORK = 1_000_000
# A walked k-subset costs k + 1 units.  At 5M the walks through cli.run on
# CPython 3.11 (2-vCPU VM) took 1.1-1.5 s and 230-270 MB peak RSS for k = 1
# and 2, too short for a table of tails, and 0.35-0.65 s and 75-125 MB
# for k = 4 to 16; the union of the walked subsets holds most of the memory.
MAX_ORACLE_WALK = 5_000_000


@dataclass(frozen=True)
class Subset:
    """Subset of {1..n} stored as a strictly increasing tuple (may be empty)."""

    n: int
    elems: tuple[int, ...]

    def __post_init__(self):
        n = positive_ambient(self.n)
        elems = int_entries(self.elems, "elements must be integers in {low}..{high}", 1, n)
        object.__setattr__(self, "elems", elems)
        if not all(map(lt, elems, elems[1:])):
            raise ValueError(f"elements must be strictly increasing, got {elems}")

    def __len__(self) -> int:
        return len(self.elems)

    def __repr__(self) -> str:
        inner = ",".join(str(e) for e in self.elems)
        return f"Subset({self.n}, {{{inner}}})"


def _subset_sort_key(s: Subset) -> tuple[int, tuple[int, ...]]:
    return (len(s.elems), s.elems)


def subset_leq(t: Subset, s: Subset) -> bool:
    """Componentwise order on equal-size subsets; sizes differ means incomparable."""
    same_ambient(t, s)
    return len(t.elems) == len(s.elems) and all(map(le, t.elems, s.elems))


def subset_meet(s: Subset, t: Subset) -> Subset:
    """Greatest lower bound of equal-size subsets: the componentwise minimum."""
    same_ambient(s, t)
    if len(s.elems) != len(t.elems):
        raise ValueError("meet is defined for equal-size subsets only")
    return trusted(Subset, s.n, tuple(map(min, s.elems, t.elems)))


def iter_downset(s: Subset) -> Iterator[tuple[int, ...]]:
    """Yield the elements of every subset T <= S in ascending lexicographic
    order: the strictly increasing positive tuples t with t_i <= s_i, the
    runs of _runs with step 1."""
    return chain.from_iterable(_runs(s.elems, 1))


def downset(s: Subset) -> list[tuple[int, ...]]:
    """The elements of every subset below s, in ascending lexicographic order."""
    return list(iter_downset(s))


@dataclass(frozen=True)
class ModuleVector:
    """Finite formal rational combination of basis vectors v_S.

    Coefficients must be ints (not bools) or Fractions; they are stored as
    Fractions, and only nonzero ones, so the support is structural.  The
    terms are a read-only mapping.
    """

    n: int
    terms: Mapping[Subset, Fraction] | None = None

    def __post_init__(self):
        positive_ambient(self.n)
        terms: dict[Subset, Fraction] = {}
        for subset, coeff in (self.terms or {}).items():
            if not isinstance(subset, Subset):
                raise ValueError(f"term key must be a Subset, got {subset!r}")
            same_ambient(subset, self)
            if type(coeff) is not int and not isinstance(coeff, Fraction):
                raise ValueError(f"coefficients must be ints or Fractions, got {coeff!r}")
            if coeff:
                terms[subset] = Fraction(coeff)
        object.__setattr__(self, "terms", MappingProxyType(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Subset, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: _subset_sort_key(item[0]))

    def __repr__(self) -> str:
        return f"ModuleVector({self.n}, {format_module_vector(self)!r})"


def zero_vector(n: int) -> ModuleVector:
    return ModuleVector(n)


def basis_vector(s: Subset) -> ModuleVector:
    return ModuleVector(s.n, {s: 1})


def act(f: PartialInjection, v: ModuleVector) -> ModuleVector:
    """Apply a monoid element to a vector, extended linearly over the basis.

    A term v_S survives exactly when S lies inside the domain of f, in which
    case it moves to v_{f(S)}; f must be order preserving and order decreasing,
    so f(S) lists its elements in increasing order.
    """
    same_ambient(f, v)
    if not (is_order_preserving(f) and is_order_decreasing(f)):
        raise ValueError("map must be order preserving and order decreasing")
    mapping = f.as_dict()
    domain = set(mapping)
    out: dict[Subset, Fraction] = {}
    for subset, coeff in v.terms.items():
        if set(subset.elems) <= domain:
            image = trusted(Subset, v.n, tuple(mapping[e] for e in subset.elems))
            out[image] = out.get(image, Fraction(0)) + coeff
    return ModuleVector(v.n, out)


def reduced_support(v: ModuleVector) -> frozenset[Subset]:
    """Maximal subsets of the support, an antichain; equal antichains mean
    equal submodules."""
    return frozenset(_maximal_terms(v)[0])


def _maximal_terms(v: ModuleVector) -> tuple[list[Subset], int]:
    """The maximal subsets of the support in descending (size, elements)
    order, and the work spent finding them.  A subset lies only below
    subsets of its size that come later in lexicographic order, so in that
    order a term need only be compared with the maximal terms of its size
    kept before it.  The work charges each term its size times all the
    maxima kept before it, and is checked against MAX_SUBMODULE_WORK before
    the term is compared."""
    kept: list[Subset] = []
    work = 0
    for k, group in groupby(sorted(v.terms, key=_subset_sort_key, reverse=True), key=len):
        maxima: list[tuple[int, ...]] = []  # the elements of the kept k-subsets
        for s in group:
            work += k * len(kept)
            if work > MAX_SUBMODULE_WORK:
                raise ValueError(f"reduced-support work exceeds bound {MAX_SUBMODULE_WORK}")
            e = s.elems
            if not any(all(map(le, e, t)) for t in maxima):
                maxima.append(e)
                kept.append(s)
    return kept, work


def reduced_form(v: ModuleVector) -> ModuleVector:
    """Coefficient-1 sum over the reduced support; generates the same
    submodule.  Its terms run in ascending (size, elements) order."""
    kept, _ = _maximal_terms(v)
    return trusted(ModuleVector, v.n, MappingProxyType(dict.fromkeys(reversed(kept), Fraction(1))))


def submodule_equal(v: ModuleVector, w: ModuleVector) -> bool:
    """True iff v and w generate the same submodule (same reduced support)."""
    same_ambient(v, w)
    return reduced_support(v) == reduced_support(w)


def _heights_for_subset(s: Subset) -> HeightSequence:
    # lambda_i = s_{k-i+1} - (k-i+1): the gap between S and the minimum
    # k-subset {1..k}, read from the top element down.
    elems = s.elems
    k = len(elems)
    lam = tuple(elems[k - 1 - i] - (k - i) for i in range(k))
    return trusted(HeightSequence, Direction.DECREASING, lam)


def dim_principal_iterative(s: Subset) -> int:
    """Dimension of the cyclic module generated by v_S, via the iterative count.

    Counts the subsets T <= S by translating S into the decreasing height
    sequence of its gaps; the empty subset spans the one-dimensional piece
    F v_{} by convention.
    """
    if not s.elems:
        return 1
    return count_below_decreasing_iterative(_heights_for_subset(s))


def dim_principal_incl_excl(s: Subset) -> int:
    """Dimension of the module generated by v_S, by inclusion-exclusion.

    The paper's sum of (-1)^{|S - T|} det C(t_i + 1, j - i + 1) over the
    subsets T of S (the empty T gives 1), in O(k^2) binomials.  Expanding
    each Hessenberg determinant along its last column splits T into blocks
    of consecutive rows; a block's factor depends only on its first element
    s_q and its length.  Summing a block's other rows over the elements of S
    before the next block's first element s_{q+d} gives C(s_q + d, d) by
    Vandermonde, so with F[k+1] = 1 and

        F[q] = -sum(C(s_q + d, d) * F[q + d], d = 1..k+1-q),

    the dimension is (-1)^k (1 + F[1] + ... + F[k]).
    """
    elems = s.elems
    k = len(elems)
    if k**3 * max(elems, default=0).bit_length() > MAX_INCL_EXCL_WORK:
        raise ValueError(f"subset work k^3 * bit_length(max S) exceeds bound {MAX_INCL_EXCL_WORK}")
    f = [0] * k + [1]  # f[q - 1] is F[q]
    for q in range(k - 1, -1, -1):
        # C(s + d, d) walked along d: C(s + d - 1, d - 1) (s + d) / d.
        s_q, c, acc = elems[q], 1, 0
        for d in range(1, k + 1 - q):
            c = c * (s_q + d) // d
            acc += c * f[q + d]
        f[q] = -acc
    return (-1) ** k * sum(f)


# Each special family's parameter rule, shared by its builder and closed form.
def _catalan_params(k: int) -> None:
    int_entries((k,), "k must be an integer >= {low}", 1)


def _interval_params(m: int, k: int) -> None:
    int_entries((m,), "m must be an integer >= {low}", 0)
    int_entries((k,), "k must be an integer >= {low}", 1)


def _mixed_params(k: int, m: int) -> None:
    int_entries((k,), "k must be an integer >= {low}", 2)
    int_entries((m,), "m must be an integer in {low}..{high}", 2, k)


def catalan_family_subset(k: int) -> Subset:
    """The even staircase {2, 4, ..., 2k}, a subset of {1..2k}."""
    _catalan_params(k)
    return trusted(Subset, 2 * k, tuple(range(2, 2 * k + 1, 2)))


def interval_family_subset(m: int, k: int) -> Subset:
    """The interval {m+1, ..., m+k}, a subset of {1..m+k}."""
    _interval_params(m, k)
    return trusted(Subset, m + k, tuple(range(m + 1, m + k + 1)))


def mixed_family_subset(k: int, m: int) -> Subset:
    """The staircase-then-interval subset {2, 4, ..., 2m, 2m+1, ..., m+k} of {1..m+k}."""
    _mixed_params(k, m)
    return trusted(Subset, m + k, (*range(2, 2 * m + 1, 2), *range(2 * m + 1, m + k + 1)))


def dim_catalan_family(k: int) -> int:
    """Closed form for dim <v_{2,4,...,2k}>: the Catalan number c_{k+1}."""
    _catalan_params(k)
    return catalan(k + 1)


def dim_interval_family(m: int, k: int) -> int:
    """Closed form for dim <v_{m+1,...,m+k}>: the binomial C(m+k, k)."""
    _interval_params(m, k)
    return binomial(m + k, k)


def dim_mixed_family(k: int, m: int) -> int:
    """Closed form for the staircase-then-interval family, valid for k >= m >= 2.

    Its heights (m repeated k - m + 1 times, then m - 1, ..., 1) are the
    conjugate (transposed Ferrers diagram) of (k, k-1, ..., k-m+1), so it has
    their count: the ballot number (k - m + 2) C(k + m + 1, m) / (k + 2),
    c_{k+1} at m = k.
    """
    _mixed_params(k, m)
    return (k - m + 2) * binomial(k + m + 1, m) // (k + 2)


def dim_submodule(v: ModuleVector) -> int:
    """Dimension of the submodule generated by v, by inclusion-exclusion.

    Sums (-1)^{|J|-1} dim <v_{S_J}> over nonempty J inside the reduced
    support, where S_J is the meet of the members of J.  A J mixing subset
    sizes meets in the zero module and contributes nothing, because the
    size-graded pieces of V intersect trivially, so each size is summed on
    its own.  Many J share a meet, so a size keeps one signed coefficient
    per distinct meet (its Moebius weight) and drops the zeros: taking in a
    generator s adds -c at meet(m, s) for every entry (m, c), then +1 at s.
    The entries are keyed by the meets' elements, which hash at C speed.
    The work grows with the meets taken and held, not with the 2^r sets J
    of r generators.  It is added to the work of finding the reduced support
    and checked against MAX_SUBMODULE_WORK before each step is taken.  The
    zero vector spans the zero module.
    """
    red, work = _maximal_terms(v)
    total = 0
    for k, generators in groupby(reversed(red), key=len):
        signs: dict[tuple[int, ...], tuple[Subset, int]] = {}
        for s in generators:
            work = _within_budget(work + k * len(signs))
            for m, c in list(signs.values()):
                meet = subset_meet(m, s)
                c = signs.pop(meet.elems, (None, 0))[1] - c
                if c:
                    signs[meet.elems] = meet, c
            signs[s.elems] = s, 1
        work = _within_budget(work + k * k * len(signs))
        total += sum(c * dim_principal_iterative(m) for m, c in signs.values())
    return total


def _within_budget(work: int) -> int:
    if work > MAX_SUBMODULE_WORK:
        raise ValueError(
            f"reduced-support and inclusion-exclusion work exceeds bound {MAX_SUBMODULE_WORK}"
        )
    return work


def dim_principal_oracle(s: Subset) -> int:
    """Dimension of the module generated by v_S: the number of subsets
    T <= S, counted by the paths oracle's dynamic program over the elements
    of S with t_1 >= 1 and t_(i+1) > t_i.  It takes no height sequence,
    binomial or meet, so it checks the other routes.  Subsets whose plan,
    on the tops s_i - i or their conjugate, is estimated over
    MAX_ORACLE_CELLS cells are refused before any row is allocated."""
    return _count_below(s.elems, 1)


def dim_submodule_oracle(v: ModuleVector) -> int:
    """Dimension of <v>: the size of the union of its terms' downsets.  The
    terms go largest first, and chain reads the next only once update has
    added the last walk, so a term already in the union (a dominated one)
    is skipped and not charged to the bound."""
    k = max(map(len, v.terms), default=0)
    cap = MAX_ORACLE_WALK // (k + 1)
    union: set[tuple[int, ...]] = set()
    terms = sorted(v.terms, key=_subset_sort_key, reverse=True)
    walk = chain.from_iterable(iter_downset(s) for s in terms if s.elems not in union)
    union.update(islice(walk, cap))
    if next(walk, None) is not None:
        raise ValueError(f"oracle walk exceeds bound {cap} subsets of up to {k} elements")
    return len(union)


def _exponent(coeff_text: str) -> int:
    """|e| for a coefficient written with a decimal exponent e, else 0."""
    try:
        return abs(int(coeff_text.lower().partition("e")[2]))
    except ValueError:
        return 0


def parse_module_vector(text: str, n: int) -> ModuleVector:
    """Parse the text form "coef:{e1,e2,...};..." into a vector over {1..n}.

    Coefficients are rationals like "-2" or "3/2"; "{}" denotes the empty
    subset.  Repeated subsets accumulate, keyed by their elements, so each
    distinct subset is built and hashed once.  "0" (or an empty string) is
    the zero vector.  Each term is checked here, once, and the vector is
    built from the checked terms.
    """
    stripped = text.strip()
    if stripped in ("", "0"):
        return zero_vector(n)
    # Fraction computes 10**e for an exponent e, so e past the int digit
    # limit (4300 where the interpreter sets none) is refused before that.
    limit = int_digit_limit() or 4300
    terms: dict[tuple[int, ...], tuple[Subset, int | Fraction]] = {}
    for part in stripped.split(";"):
        coeff_text, sep, set_text = part.partition(":")
        if not sep:
            raise ValueError(f"term {quoted(part)} is missing ':'")
        coeff = _coefficient(coeff_text, limit)
        set_text = set_text.strip()
        if not (set_text.startswith("{") and set_text.endswith("}")):
            raise ValueError(f"subset {quoted(set_text)} must be brace-delimited")
        elems = parse_ints(set_text[1:-1])
        held = terms.get(elems)
        terms[elems] = (Subset(n, elems), coeff) if held is None else (held[0], held[1] + coeff)
    return trusted(
        ModuleVector, n, MappingProxyType({s: Fraction(c) for s, c in terms.values() if c})
    )


def _coefficient(coeff_text: str, limit: int) -> int | Fraction:
    """The value of a coefficient's text, as Fraction(text.strip()) reads it.
    A plain integer is read by int(); an underscore goes to Fraction, which
    accepts digit groups like "1_0" only from Python 3.11 on."""
    if "_" not in coeff_text:
        try:
            return int(coeff_text.strip())
        except ValueError:
            pass
    if _exponent(coeff_text) > limit:
        raise ValueError(f"coefficient exponents are limited to {limit}, got {quoted(coeff_text)}")
    try:
        return Fraction(coeff_text.strip())
    except (ValueError, ZeroDivisionError):
        message = f"bad coefficient {quoted(coeff_text)}"
        raise ValueError(bad_int_message(coeff_text, message)) from None


def format_module_vector(v: ModuleVector) -> str:
    """Inverse of parse_module_vector, with terms ordered by (size, elements)."""
    if v.is_zero():
        return "0"
    parts = []
    for subset, coeff in v.sorted_terms():
        inner = ",".join(map(str, subset.elems))
        parts.append(f"{coeff}:{{{inner}}}")
    return ";".join(parts)
