"""Exact enumeration oracles and closed-form counts, in exact arithmetic.

Every count is an arbitrary-precision integer and every probability an exact
rational; floating point never enters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, permutations, repeat, starmap
from math import comb, factorial
from operator import index
from struct import Struct
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import BLOCK_ELEMENTS, ParkingFunction

DEFAULT_ENUM_LIMIT = 8
# `enumerate_pf` arranges at most this many last entries of a sorted row by
# one table of their permutations (8! rows); leading entries are split first.
_TABLE_WIDTH = 8


class CapacityError(ValueError):
    """Raised when an enumeration request exceeds the configured size cap."""


def _sorted_blocks(n: int, caps: Sequence[int]) -> Iterator[np.ndarray]:
    """The nondecreasing rows whose entry j lies in [1, caps[j]] (caps
    nondecreasing), in lexicographic order, as column-major int64 blocks of
    at most BLOCK_ELEMENTS values.  Each row is unranked column by column
    from its key, the number of rows from it to the last one that shares its
    prefix: tail[j, v - 1] counts the completions of columns j, ..., n-1
    whose entry j is at least v, so entry j is the number of v with
    tail[j, v - 1] at least the key, and the rows after the prefix that ends
    in v, tail[j, v], leave the key of column j + 1."""
    tail = np.zeros((n + 1, caps[-1] + 1), dtype=np.int64)
    tail[n] = 1
    for j in range(n - 1, -1, -1):
        tail[j, :caps[j]] = np.cumsum(tail[j + 1, caps[j] - 1::-1])[::-1]
    total = int(tail[0, 0])
    rising = -tail  # searchsorted needs sorted rows: the keys are negated too
    size = max(1, BLOCK_ELEMENTS // n)
    for start in range(0, total, size):
        keys = np.arange(start - total, min(start + size, total) - total, dtype=np.int64)
        block = np.empty((n, keys.size), dtype=np.int64)
        for j, column in enumerate(block):
            column[:] = np.searchsorted(rising[j], keys, side="right")
            keys += tail[j][column]
        yield block.T


def check_enumeration_size(n: int, limit: int) -> None:
    """The guard of every enumeration of PF_n: n >= 1, and n <= limit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > limit:
        raise CapacityError(f"n={n} exceeds enumeration limit {limit}; raise `limit` to opt in")


def _leading_splits(rows: np.ndarray, j: int, stop: int) -> Iterator[np.ndarray]:
    """Every row of the uint8 block `rows` whose entries from j on are
    sorted, split by its entries j, ..., stop - 1: in order, each distinct
    value of a row's sorted rest moves to column j, the rest staying sorted,
    so the arrangements of each row keep lexicographic order.  Parents are
    split a chunk at a time, so one column's children fill at most a block."""
    if j == stop:
        yield rows
        return
    n = rows.shape[1]
    columns = np.arange(n)
    step = max(1, BLOCK_ELEMENTS // n // (n - j))
    for start in range(0, rows.shape[0], step):
        part = rows[start:start + step]
        rest = part[:, j:]
        first = np.ones(rest.shape, dtype=bool)  # the first of its value in the rest
        np.not_equal(rest[:, 1:], rest[:, :-1], out=first[:, 1:])
        parent, i = np.nonzero(first)
        i += j
        # the child's column j is the parent's column i; columns j..i-1 move right
        source = columns - ((columns > j) & (columns <= i[:, None]))
        source[:, j] = i
        source += parent[:, None] * n
        yield from _leading_splits(part.ravel().take(source), j + 1, stop)


@cache
def _arrangement_lists(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The permutations p of range(k) in lexicographic order, as uint8 rows,
    and for each tie pattern of k sorted entries s (bit j: s_j = s_{j+1})
    the indices of the p that arrange s, in order: each pattern's count, and
    the lists of all 2^(k-1) patterns as one uint16 array with each list's
    end.  By standardization, the distinct arrangements of s in
    lexicographic order are s[p] for the p that never place j + 1 left of j
    where s_j = s_{j+1}: bit j of `des` marks p's inverse descent at j, and
    a pattern keeps the p with no bit in both.  Cached per k: building them
    takes about a third of `enumerate_pf(5)`."""
    size = factorial(k)
    perms = np.fromiter(chain.from_iterable(permutations(range(k))), dtype=np.uint8,
                        count=size * k).reshape(size, k)
    des = np.zeros(size, dtype=np.uint16)
    seen = np.zeros(size, dtype=np.uint16)  # bit v: v is left of this column
    for column in perms.T:
        des |= ((seen >> (column + 1)) & 1) << column
        seen |= np.left_shift(1, column, dtype=np.uint16)
    des = des.astype(np.uint8)
    lists = [np.flatnonzero((des & ties) == 0).astype(np.uint16) for ties in range(1 << (k - 1))]
    counts = np.array([kept.size for kept in lists])
    return perms, counts, np.cumsum(counts), np.concatenate(lists)


def _table_arrangement_blocks(blocks: Iterable[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """Every arrangement of each nondecreasing row of `blocks` (n columns,
    values below 256), in order, each row's lexicographically, as uint8
    blocks of at most BLOCK_ELEMENTS values.  The rows are split by their
    leading n - k entries (`_leading_splits`), k = min(n, 8), and each split
    row takes the arrangements of its sorted last k entries from the list of
    its tie pattern (`_arrangement_lists`), so a row costs only its number of
    arrangements."""
    k = min(n, _TABLE_WIDTH)
    lead = n - k
    perms, counts, list_ends, lists = _arrangement_lists(k)
    table = np.empty((perms.shape[0], n), dtype=np.uint8)  # the leading entries stay put
    table[:, :lead] = np.arange(lead)
    table[:, lead:] = perms + lead
    out_rows = max(1, BLOCK_ELEMENTS // n)
    for block in blocks:
        for rows in _leading_splits(np.ascontiguousarray(block, dtype=np.uint8), 0, lead):
            ties = np.zeros(rows.shape[0], dtype=np.uint8)
            for j in range(lead, n - 1):
                ties |= (rows[:, j] == rows[:, j + 1]).view(np.uint8) << (j - lead)
            ends = np.cumsum(counts[ties])  # each row's arrangements end there
            shift = list_ends[ties] - ends  # output i of row r is p = lists[i + shift[r]]
            flat = rows.ravel()
            for lo in range(0, int(ends[-1]), out_rows):
                out = np.arange(lo, min(lo + out_rows, ends[-1]))
                row = ends.searchsorted(out, side="right")
                p = lists[out + shift[row]]
                row *= n
                yield flat.take(table.take(p, axis=0) + row[:, None])


def _pf_rows(n: int) -> Iterator[np.ndarray]:
    """PF_n in the order of `enumerate_pf`, as row-major uint8 blocks of at
    most BLOCK_ELEMENTS values: the sorted profiles (the rows of
    `_sorted_blocks` with a_i <= i), each arranged by
    `_table_arrangement_blocks`.  Unchecked: callers guard n."""
    return _table_arrangement_blocks(_sorted_blocks(n, range(1, n + 1)), n)


def enumerate_pf(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[ParkingFunction]:
    """Each parking function of size n exactly once: sorted profiles in
    lexicographic order (the rows of `_sorted_blocks` with a_i <= i), each
    expanded into its distinct arrangements in lexicographic order.  Checks
    n at once (CapacityError, ValueError; TypeError unless n and limit are
    integers) and returns a lazy iterator.

    Each profile is split by its leading n - 8 entries, if any, and keeps
    its last min(n, 8) entries' arrangements from one table of their
    permutations (`_table_arrangement_blocks`).  The rows come in numpy
    blocks and become tuples in C, so the cost is proportional to the output
    size (n+1)^{n-1}, not n^n.  The profiles are counted in int64, so n is at
    most 35: Catalan(36) > 2^63.
    """
    n, limit = index(n), index(limit)
    check_enumeration_size(n, limit)
    if comb(2 * n, n) // (n + 1) > np.iinfo(np.int64).max:
        raise ValueError(f"PF_{n} has more sorted profiles than int64 counts; n may be at most 35")
    blocks = _pf_rows(n)
    # the rows are parking functions by construction: skip validation; struct
    # unpacks each uint8 block's rows into tuples in C, and zip reuses its
    # argument tuple for each call of tuple.__new__
    unpack = Struct(f"{n}B").iter_unpack
    return chain.from_iterable(starmap(tuple.__new__, zip(repeat(ParkingFunction),
                                                          unpack(block.tobytes())))
                               for block in blocks)


def count_pf(n: int) -> int:
    """|PF_n| = (n+1)^(n-1)."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n + 1) ** (n - 1)


def _first_terms(n: int, start: int, stop: int) -> list[int]:
    """The terms T(s) = C(n-1, s) (s+1)^{s-1} (n-s)^{n-s-2} of the Abel sum
    for start <= s < stop, with 0 <= start <= stop <= n: T(n - k) is
    count_first(n, k) - count_first(n, k + 1), where count_first(n, n + 1) is
    0.  One `comb` gives the first binomial, and the loop steps it exactly,
    C(n-1, s+1) = C(n-1, s) (n-1-s) // (s+1).  An exponent is -1 only where
    its base is 1 (s = 0, and n - s = 1), so it is taken as 0 there."""
    binomial = comb(n - 1, start)
    terms = []
    for s in range(start, stop):
        r = n - s
        terms.append(binomial * (s + 1) ** (s - 1 if s else 0) * r ** (r - 2 if r > 1 else 0))
        binomial = binomial * (r - 1) // (s + 1)
    return terms


class _AbelSums:
    """The running sums of the Abel terms T(s) of `_first_terms` at one n
    that have been computed so far, from both ends:
    head[i] = T(0) + ... + T(i - 1) and tail[i] = T(n - i) + ... + T(n - 1).

    Once the head reaches head[n] it holds every sum, and the tail is
    dropped: the kept sums stay within n + 2.

    A side grows by a new list published in one assignment, never in place,
    so a caller on another thread reads a consistent list; two callers that
    grow one side at once may each compute the same terms, and the last to
    publish wins."""

    __slots__ = ("n", "head", "tail")

    def __init__(self, n: int):
        self.n, self.head, self.tail = n, [0], [0]

    def head_to(self, i: int) -> list[int]:
        """The head, at least through head[i]."""
        head = self.head
        if len(head) <= i:
            terms = _first_terms(self.n, len(head) - 1, i)
            head = self.head = [*head[:-1], *accumulate(terms, initial=head[-1])]
            if len(head) > self.n:
                self.tail = [0]
        return head

    def tail_to(self, i: int) -> list[int]:
        """The tail, at least through tail[i]."""
        tail = self.tail
        if len(tail) <= i:
            terms = _first_terms(self.n, self.n - i, self.n - len(tail) + 1)
            tail = self.tail = [*tail[:-1], *accumulate(reversed(terms), initial=tail[-1])]
        return tail


# The sums of the last n whose table may be kept (`_abel_sums`).
_kept_sums = _AbelSums(0)


def _abel_sums(n: int) -> _AbelSums:
    """The Abel sums of n, kept for one n at a time: later calls at the same
    n extend them.  They are kept only while n's worst case fits one block,
    n sums of at most (n - 1) bitlen(n + 1) bits in BLOCK_ELEMENTS int64
    values (n <= 648); past that a call builds its own and keeps nothing."""
    global _kept_sums
    sums = _kept_sums
    if sums.n != n:
        sums = _AbelSums(n)
        if n * (n - 1) * (n + 1).bit_length() <= 64 * BLOCK_ELEMENTS:
            _kept_sums = sums
    return sums


def count_first(n: int, k: int) -> int:
    """Number of parking functions of size n with first coordinate k:
    sum_{s=0}^{n-k} C(n-1,s) (s+1)^{s-1} (n-s)^{n-s-2}.  For n >= 2 the full
    sum is the k = 1 count 2(n+1)^{n-2}, so the shorter side is summed: a
    cold call costs min(k - 1, n - k + 1) terms (`_first_terms`), and calls
    at one n share the running sums of `_abel_sums`, so every k at one n
    costs at most n terms in all.  A head that already reaches n - k + 1 is
    read as it is."""
    n, k = index(n), index(k)
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, n]")
    sums = _abel_sums(n)
    i = n - k + 1
    if n >= 2 and k - 1 < i and len(sums.head) <= i:
        return 2 * (n + 1) ** (n - 2) - sums.tail_to(k - 1)[k - 1]
    return sums.head_to(i)[i]


def first_counts(n: int) -> list[int]:
    """[count_first(n, k) for k in 1..n]: count_first(n, k) is the running
    sum of the terms s = 0..n-k, so the list is the head sums of
    `_abel_sums` in reverse, a new list each call."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _abel_sums(n).head_to(n)[n:0:-1]


def abel_identity_check(x: Fraction, y: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of Abel's generalization of the binomial theorem.

    lhs = sum_a C(n,a)(x+a)^{a-1}(y+n-a)^{n-a-1},
    rhs = (1/x + 1/y)(x+y+n)^{n-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = Fraction(x)
    y = Fraction(y)
    if x == 0 or y == 0:
        raise ValueError("x and y must be nonzero")
    lhs = sum(
        Fraction(comb(n, a)) * (x + a) ** (a - 1) * (y + n - a) ** (n - a - 1)
        for a in range(0, n + 1)
    )
    rhs = (1 / x + 1 / y) * (x + y + n) ** (n - 1)
    return lhs, rhs


def _mean_first_split(x: int, a: int, b: int) -> tuple[int, int, int]:
    """(prod_{i=a+1}^{b} i, sum_{k=a}^{b-1} x^{k-a} prod_{i=k+1}^{b} i,
    x^{b-a}) by binary splitting, with a plain loop at the leaves."""
    if b - a <= 16:
        prod, total = 1, 0
        for k in range(b - 1, a - 1, -1):  # Horner in x, from k = b - 1 down
            prod *= k + 1
            total = total * x + prod
        return prod, total, x ** (b - a)
    mid = (a + b) // 2
    p1, t1, x1 = _mean_first_split(x, a, mid)
    p2, t2, x2 = _mean_first_split(x, mid, b)
    return p1 * p2, t1 * p2 + x1 * t2, x1 * x2


def exact_mean_first(n: int) -> Fraction:
    """E(pi_1) = 1/2 + n/2 - (n-1) S / (2 (n+1)^{n-1}) with
    S = sum_{k=0}^{n-2} (n+1)^k (n-2)!/k!, exact.  S is summed by binary
    splitting, so its cost is a few big products rather than n big
    multiply-adds."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Fraction(1)
    _prod, head, power = _mean_first_split(n + 1, 0, n - 2)
    total = head + power  # the k = n - 2 term is (n+1)^{n-2}
    denominator = power * (n + 1)
    return Fraction((n + 1) * denominator - (n - 1) * total, 2 * denominator)


def k_pi_law(n: int, k: int) -> Fraction:
    """P(K_pi = k): the law of the maximal feasible first coordinate,
    k T(n - k) / (n+1)^{n-1} for the Abel term T of `_first_terms`, which is
    count_first(n, k) - count_first(n, k + 1)."""
    n, k = index(n), index(k)
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, n]")
    return Fraction(k * _first_terms(n, n - k, n - k + 1)[0], (n + 1) ** (n - 1))


# --- generating functions -------------------------------------------------

def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


GF_STATISTICS = ("repeats", "lucky", "ones")


def gf_statistic(n: int, statistic: str, limit: int = DEFAULT_ENUM_LIMIT) -> tuple[int, ...]:
    """Exact polynomial sum_{pi in PF_n} q^{stat(pi)}, from the exhaustive histogram."""
    if statistic not in GF_STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    from .ensemble import exhaustive_histogram

    bins = exhaustive_histogram(n, statistic, limit=limit).bins
    return tuple(bins.get(k, 0) for k in range(max(bins) + 1))


def gf_closed_form(n: int, statistic: str) -> tuple[int, ...]:
    """The matching closed forms: (q+n)^{n-1} for repeats,
    q prod_i [i + (n-i+1) q] for lucky, q(q+n)^{n-1} for ones."""
    if statistic == "repeats":
        return tuple(comb(n - 1, j) * n ** (n - 1 - j) for j in range(n))
    if statistic == "ones":
        return (0,) + tuple(comb(n - 1, j) * n ** (n - 1 - j) for j in range(n))
    if statistic == "lucky":
        poly: tuple[int, ...] = (0, 1)  # leading factor q
        for i in range(1, n):
            poly = poly_mul(poly, (i, n - i + 1))
        return poly
    raise ValueError(f"unknown statistic {statistic!r}")


# --- descent formulas -----------------------------------------------------

def _int_det(matrix: list[list[int]]) -> int:
    # Bareiss fraction-free elimination; exact over the integers.
    m = [row[:] for row in matrix]
    size = len(m)
    sign = 1
    prev = 1
    for i in range(size - 1):
        if m[i][i] == 0:
            for r in range(i + 1, size):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, size):
            for c in range(i + 1, size):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def descent_pattern_prob(n: int, pattern: Sequence[int]) -> Fraction:
    """Exact probability of a full descent pattern via the determinant formula.

    With descents at s_1 < ... < s_k (and s_0 = 0, s_{k+1} = n), the
    probability is det[C(s_{j+1} - s_i + n, n)] / (n+1)^n.
    """
    pattern = tuple(pattern)
    if len(pattern) != n - 1 or any(e not in (0, 1) for e in pattern):
        raise ValueError("pattern must be a 0/1 sequence of length n-1")
    s = [0] + [i for i, e in enumerate(pattern, start=1) if e == 1] + [n]
    k = len(s) - 2
    matrix = [[comb(s[j + 1] - s[i] + n, n) for j in range(k + 1)] for i in range(k + 1)]
    return Fraction(_int_det(matrix), (n + 1) ** n)


def consecutive_blocks(positions: Sequence[int]) -> list[int]:
    """Block lengths of the decomposition of a set into maximal consecutive runs."""
    ordered = sorted(set(positions))
    if not ordered:
        return []
    lengths = [1]
    for a, b in zip(ordered, ordered[1:]):
        if b == a + 1:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


def kpoint_correlation(n: int, positions: Sequence[int]) -> Fraction:
    """P(X_i = 1 for i in A) = prod over consecutive blocks of
    C(n+1, a+1)/(n+1)^{a+1}."""
    ordered = sorted(set(positions))
    if any(not 1 <= p <= n - 1 for p in ordered):
        raise ValueError("positions must lie in [1, n-1]")
    result = Fraction(1)
    for a in consecutive_blocks(ordered):
        result *= Fraction(comb(n + 1, a + 1), (n + 1) ** (a + 1))
    return result


# --- species (balls in boxes) ---------------------------------------------

def _falling(x: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= x - i
    return out


def species_moment(b: int, B: int, r: int, t: Optional[int] = None) -> Fraction:
    """E(mu_r) for b balls in B boxes; with t given, the cross moment
    E(mu_r mu_t) (or the second moment when t == r)."""
    if not 0 <= r <= b or (t is not None and not 0 <= t <= b):
        raise ValueError("indices must lie in [0, b]")
    if t is None:
        return Fraction(B * comb(b, r) * (B - 1) ** (b - r), B**b)
    if t == r:
        mean = species_moment(b, B, r)
        extra = Fraction(
            B * (B - 1) * _falling(b, 2 * r) * (B - 2) ** (b - 2 * r),
            factorial(r) ** 2 * B**b,
        ) if 2 * r <= b else Fraction(0)
        return mean + extra
    if r + t > b:
        return Fraction(0)
    return Fraction(
        B * (B - 1) * _falling(b, r + t) * (B - 2) ** (b - r - t),
        factorial(r) * factorial(t) * B**b,
    )


def species_joint_prob(b: int, B: int, m: Sequence[int]) -> Fraction:
    """Exact joint law of the species vector: B! b! / (B^b prod r!^{m_r} m_r!),
    or 0 when the sum constraints fail."""
    m = tuple(m)
    if len(m) != b + 1 or any(x < 0 for x in m):
        raise ValueError("m must be a nonnegative vector indexed 0..b")
    if sum(m) != B or sum(r * x for r, x in enumerate(m)) != b:
        return Fraction(0)
    denom = B**b
    for r, count in enumerate(m):
        denom *= factorial(r) ** count * factorial(count)
    return Fraction(factorial(B) * factorial(b), denom)
