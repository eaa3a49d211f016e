"""Helpers shared by the other modules: binomials, Catalan numbers and
Bareiss determinants on Python ints (nothing rounds or overflows), the input
rules, short echoes of inputs in error messages, and ``trusted`` and
``trusted_all``, which build values derived from checked ones without
checking them again."""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat

# An input echoed in an error message is clipped to this many characters.
ECHO_CHARS = 20
# hockey_stick_sides walks s = a + b - max(a, p) summands and takes three
# binomials, which cost about r = min(p + 1, a + b - p - 1) steps each.  A
# step multiplies or divides a number of at most B = min(a + b, r
# (bit_length(a + b) - bit_length(r) + 3)) bits, the bit length bound of
# C(a + b, p + 1), by one of D = ceil(bit_length(a + b) / 30) digits, plus a
# fixed cost worth about 500 bits: (s + r)(B + 500)D in all.  At 3 * 10^9
# the slowest shapes measured on CPython 3.11 took about 1.1 s (a = 10^12,
# p = 1000) and the central walk a = 0, p = b / 2 about 0.36 s.
MAX_HOCKEY_WORK = 3_000_000_000


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with the convention C(n, k) = 0 for
    k < 0 or k > n.  The upper index must be nonnegative."""
    if n < 0:
        raise ValueError(f"binomial upper index must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan(n: int) -> int:
    """Catalan number c_n = C(2n, n) / (n + 1), defined for n >= 1."""
    int_entries((n,), "catalan index must be positive", 1)
    return binomial(2 * n, n) // (n + 1)


def hockey_stick_sides(a: int, b: int, p: int) -> tuple[int, int]:
    """Evaluate both sides of sum(C(z, p), z = a..a+b-1) = C(a+b, p+1) - C(a, p+1).

    Returns ``(left, right)`` where the left side walks the summands (an
    empty sum when b = 0) by C(z + 1, p) = C(z, p) (z + 1) / (z + 1 - p) from
    the first nonzero one, and the right side takes two binomials.  Their
    equality is a tested property, never an assumption.  Inputs whose work
    (s + r)(B + 500)D exceeds MAX_HOCKEY_WORK (see there) are refused first.
    """
    int_entries((a, b, p), "hockey_stick_sides arguments must be nonnegative", 0)
    n = a + b
    start = max(a, p)
    s = max(0, n - start)
    r = max(0, min(p + 1, n - p - 1))
    bits = min(n, r * (n.bit_length() - r.bit_length() + 3))
    if (s + r) * (bits + 500) * -(-n.bit_length() // 30) > MAX_HOCKEY_WORK:
        raise ValueError(f"hockey-stick work (s + r)(B + 500)D exceeds bound {MAX_HOCKEY_WORK}")
    left, term = 0, binomial(start, p)
    for z in range(start + 1, n + 1):
        left += term
        term = term * z // (z - p)
    right = binomial(n, p + 1) - binomial(a, p + 1)
    return left, right


def quoted(text: str) -> str:
    """repr(text), clipped to its first ECHO_CHARS characters, so that an
    error message stays short however long the input."""
    if len(text) <= ECHO_CHARS:
        return repr(text)
    return f"{text[:ECHO_CHARS]!r}..."


def int_digit_limit() -> int:
    """The interpreter's limit on the digits int() converts: 4300 by
    default, 0 for none (before Python 3.10.7, or when switched off)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def bad_int_message(text: str, message: str) -> str:
    """message, or the interpreter's limit on int() when a token of text
    between commas or slashes has more digits than that."""
    limit = int_digit_limit()
    tokens = text.replace("/", ",").split(",")
    if any(0 < limit < sum(map(str.isdigit, tok)) for tok in tokens):
        return f"integers are limited to {limit} digits, got {quoted(text)}"
    return message


def int_entries(values, rule: str, low=-math.inf, high=math.inf) -> tuple[int, ...]:
    """values as a tuple, when each is an int (a bool is not) in low..high;
    else ValueError(f"{rule}, got <the first bad value>"), where {low} and
    {high} in rule stand for the bounds."""
    values = tuple(values)
    for v in values:
        if type(v) is not int or not low <= v <= high:
            raise ValueError(f"{rule.format(low=low, high=high)}, got {v!r}")
    return values


def positive_ambient(n) -> int:
    """n, when it is a valid ambient size: an int n >= 1, for {1..n}."""
    return int_entries((n,), "ambient size must be a positive integer", 1)[0]


def same_ambient(a, b) -> None:
    """Refuse two values (anything with an ambient size n) over different {1..n}."""
    if a.n != b.n:
        raise ValueError(f"ambient sizes differ: {a.n} vs {b.n}")


def parse_ints(text: str) -> tuple[int, ...]:
    """The comma-separated integers of text; blank text gives ()."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        message = f"expected comma-separated integers, got {quoted(text)}"
        raise ValueError(bad_int_message(text, message)) from None


def first_items(cap: int, items) -> tuple[list, bool]:
    """The first cap items of the iterable items() returns, and whether it
    had more.  The cap is checked before items() is called; no listing holds
    sys.maxsize items, so a larger cap takes them all."""
    int_entries((cap,), "cap must be a positive count", 1)
    it = iter(items())
    taken = list(islice(it, min(cap, sys.maxsize)))
    return taken, next(it, None) is not None


_new, _setattr = object.__new__, object.__setattr__
_drain = deque(maxlen=0).extend


def trusted(cls, *values):
    """An instance of the frozen dataclass cls with its fields set to values,
    skipping __post_init__: only for values valid by construction, derived
    from checked ones.  Setting the fields in declaration order keeps the
    instances' attribute dicts sharing their keys, as cls(...) does.  Every
    value class has one to three fields, set by direct calls: on CPython
    3.11 a loop over the fields cost half as much again per value."""
    obj = _new(cls)
    names = cls.__match_args__
    _setattr(obj, names[0], values[0])
    if len(names) > 1:
        _setattr(obj, names[1], values[1])
        if len(names) > 2:
            _setattr(obj, names[2], values[2])
    return obj


def trusted_all(cls, first, seconds) -> list:
    """[trusted(cls, first, s) for s in seconds] for a frozen dataclass cls
    of two fields, built at C speed: one map makes the instances and two
    more set the first field of each, then the second, so the instances'
    attribute dicts share their keys as trusted's do."""
    seconds = list(seconds)
    made = list(map(_new, repeat(cls, len(seconds))))
    name, second = cls.__match_args__
    _drain(map(_setattr, made, repeat(name), repeat(first)))
    _drain(map(_setattr, made, repeat(second), seconds))
    return made


@dataclass(frozen=True)
class IntMatrix:
    """Rectangular matrix of exact integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(int_entries(row, "matrix entries must be ints") for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows must all have the same length")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_upper_triangular(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.rows)
            for j in range(min(i, self.cols))
        )


def det_exact(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Step k turns each entry below and right of the pivot P_k into
    (a[i][j] P_k - a[i][k] a[k][j]) / P_(k-1), an exact division, with
    P_(-1) = 1.  Where the pivot row's a[k][j] is 0, that only multiplies
    column j by P_k / P_(k-1), and these factors telescope.  So a column
    stays stale while its pivot-row entries are 0: if its rows >= k hold
    their values at step s (s = 0 if it was never updated), they are
    P_(s-1) / P_(k-1) times their values at step k.  A row swap keeps this
    valid, since the rows >= k of a column share one scale.  The pivot
    column is brought up to date first, times P_(k-1) / P_(s-1), since its
    entries feed every update.  Every other column with a nonzero pivot-row
    entry is updated from its stale entries in one pass, to
    (a[i][j] P_k - a[i][k] a[k][j]) / P_(s-1): one exact division per
    entry, and none where P_(s-1) = 1, as at s = 0.  The last pivot, signed
    by the swaps, is the determinant.  The work is O(n^2) big-int steps when
    the pivot rows are zero past the superdiagonal, as in a lower Hessenberg
    matrix, where every updated column has s = 0 and nothing is divided,
    and O(n^3) when they are dense.

    The 0x0 matrix has determinant 1 (empty product).
    """
    if not m.is_square():
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    a = [list(row) for row in m.entries]
    pivots = [1]  # pivots[t] = P_(t-1)
    since = [0] * n  # column j's rows >= k hold their values at step since[j]
    sign = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        rows = a[k:]
        pivot_row, *below = rows
        if since[k] < k:
            prev, lag = pivots[k], pivots[since[k]]
            for row in rows:
                row[k] = row[k] * prev // lag
        pivot = pivot_row[k]
        for j in range(k + 1, n):
            top = pivot_row[j]
            if top == 0:
                continue  # the update would only scale column j by P_k / P_(k-1)
            lag = pivots[since[j]]
            if lag == 1:
                for row in below:
                    row[j] = row[j] * pivot - row[k] * top
            else:
                for row in below:
                    row[j] = (row[j] * pivot - row[k] * top) // lag
            since[j] = k + 1
        pivots.append(pivot)
    return sign * pivots[-1]
