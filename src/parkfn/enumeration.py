"""Exact enumeration oracles and closed-form counts, in exact arithmetic.

Every count is an arbitrary-precision integer and every probability an exact
rational; floating point never enters.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, permutations, product, repeat, starmap
from math import comb, factorial
from operator import index
from struct import Struct
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import BLOCK_ELEMENTS, ParkingFunction
from .stats import row_counts

DEFAULT_ENUM_LIMIT = 8
# Up to this n, `enumerate_pf` takes each sorted row's arrangements from one
# table of the n! permutations (315 KB at n = 8); beyond it the breadth-first
# expander serves.  Filtering all 9! permutations per profile took the first
# 10^5 items of PF_9 0.53 s, against 0.067 s for the expander (best of 3, one
# core of a shared 2-core Xeon); at n = 6 the table took 1.0 ms of
# `enumerate_pf(6)`'s arrangements against the expander's 2.9 ms.
_PERMUTATION_TABLE_MAX_N = 8


class CapacityError(ValueError):
    """Raised when an enumeration request exceeds the configured size cap."""


def _ipow(base: int, exp: int) -> int:
    # Conventions like 1^{-1} = 1 appear in the closed forms at boundary
    # terms; the base is always 1 there.
    if exp >= 0:
        return base**exp
    if base != 1:
        raise ValueError(f"negative exponent on base {base}")
    return 1


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


# --- arrangements of multisets, a block at a time -------------------------
#
# A multiset is a tuple of counts, one per rank 0..k-1 of its distinct values.
# Its arrangements are expanded breadth first, one position per step: the
# children of each partial arrangement are its nonzero counts, in rank order,
# so a block lists the arrangements of its multisets in order, each multiset's
# lexicographically.

def _arrangements(counts: Sequence[int]) -> int:
    """The multinomial coefficient: how many distinct arrangements."""
    total, placed = 1, 0
    for c in counts:
        placed += c
        total *= comb(placed, c)
    return total


def _children(prefix: tuple[int, ...], counts: tuple[int, ...],
              size: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    left = sum(counts)
    for rank, c in enumerate(counts):
        if c:
            child = list(counts)
            child[rank] -= 1
            yield prefix + (rank,), tuple(child), size * c // left


def _nodes(counts: tuple[int, ...],
           rows: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The arrangements of `counts` as (prefix, remaining counts, size) nodes in
    lexicographic order, each with at most `rows` arrangements: a larger node
    is split by its leading rank, depth first (a stack, not recursion)."""
    stack = [iter([((), counts, _arrangements(counts))])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif node[2] <= rows:
            yield node
        else:
            stack.append(_children(*node))


def _expand(nodes: list[tuple[tuple[int, ...], tuple[int, ...]]], size: int, width: int,
            values: np.ndarray) -> np.ndarray:
    """The `size` arrangements of `nodes` (prefixes of one length), in order,
    as a (size, width) block of `values[rank]`."""
    depth = len(nodes[0][0])
    counts = np.array([c for _p, c in nodes], dtype=np.min_scalar_type(width))
    unit = np.eye(counts.shape[1], dtype=counts.dtype)
    steps = []
    for _ in range(depth, width - 1):
        parent, rank = np.nonzero(counts)
        counts = counts[parent] - unit[rank]
        steps.append((parent, values[rank]))
    block = np.empty((size, width), dtype=values.dtype)
    if width > depth:  # one item is left in each row: the last column
        block[:, -1] = values[np.nonzero(counts)[1]]
    row = slice(None)  # the rows' ancestors at the level being written
    for j, (parent, column) in zip(range(width - 2, depth - 1, -1), reversed(steps)):
        block[:, j] = column[row]
        row = parent[row]
    if depth:
        block[:, :depth] = values[np.array([p for p, _c in nodes])][row]
    return block


def _arrangement_blocks(multisets: Iterable[tuple[int, ...]], width: int,
                        values: np.ndarray) -> Iterator[np.ndarray]:
    """Every arrangement of each multiset of `width` items, in order, as blocks
    of at most BLOCK_ELEMENTS values (one row each); a multiset with more
    arrangements than a block holds is split by its leading values."""
    rows = max(1, BLOCK_ELEMENTS // max(width, 1))
    batch: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    filled = 0
    for counts in multisets:
        for prefix, rest, size in _nodes(counts, rows):
            if batch and (filled + size > rows or len(prefix) != len(batch[0][0])):
                yield _expand(batch, filled, width, values)
                batch, filled = [], 0
            batch.append((prefix, rest))
            filled += size
    if batch:
        yield _expand(batch, filled, width, values)


def _tuples(block: np.ndarray) -> Iterator[tuple]:
    """The rows of a block as tuples of Python scalars, built in C."""
    rows, width = block.shape
    if width == 0:
        return repeat((), rows)
    if block.dtype == object:
        return map(tuple, block.tolist())
    return Struct(f"{width}{block.dtype.char}").iter_unpack(block.tobytes())


def multiset_permutations(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each distinct permutation of a multiset once, in lexicographic order."""
    tally = Counter(items)
    distinct = sorted(tally)
    values = np.array(distinct)
    if values.dtype.kind not in "iu":  # ints beyond 64 bits, or no ints at all
        values = np.array(distinct, dtype=object)
    counts = tuple(tally[v] for v in distinct)
    for block in _arrangement_blocks([counts], sum(counts), values):
        yield from _tuples(block)


def check_enumeration_size(n: int, limit: int) -> None:
    """The guard of every enumeration of PF_n: n >= 1, and n <= limit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > limit:
        raise CapacityError(f"n={n} exceeds enumeration limit {limit}; raise `limit` to opt in")


def _table_arrangement_blocks(blocks: Iterable[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """Every arrangement of each nondecreasing row of `blocks` (n columns,
    values below 256), in order, each row's lexicographically, as uint8
    blocks of at most BLOCK_ELEMENTS values (a chunk's mask holds at most
    that many too while n! does: n <= 8).  By standardization, the
    distinct arrangements of a nondecreasing row s, in lexicographic order,
    are s[p] for the permutations p of range(n), in lexicographic order, that
    never place j + 1 left of j where s_j = s_{j+1}.  So one table of the n!
    permutations serves every row: bit j of `des` marks p's inverse descent
    at j, bit j of `ties` marks s_j = s_{j+1}, and a row keeps the p with no
    bit in both."""
    size = factorial(n)
    perms = np.fromiter(chain.from_iterable(permutations(range(n))), dtype=np.uint8,
                        count=size * n).reshape(size, n)
    des = np.zeros(size, dtype=np.uint16)
    seen = np.zeros(size, dtype=np.uint16)  # bit v: v is left of this column
    for column in perms.T:
        des |= ((seen >> (column + 1)) & 1) << column
        seen |= np.left_shift(1, column, dtype=np.uint16)
    des = des.astype(np.uint8)
    chunk = max(1, BLOCK_ELEMENTS // size)  # rows whose (row, p) mask fits a block
    out_rows = max(1, BLOCK_ELEMENTS // n)
    for block in blocks:
        rows = np.ascontiguousarray(block, dtype=np.uint8)
        ties = np.zeros(rows.shape[0], dtype=np.uint8)
        for j in range(n - 1):
            ties |= (rows[:, j] == rows[:, j + 1]).view(np.uint8) << j
        flat = rows.ravel()
        for start in range(0, rows.shape[0], chunk):
            # (row, p) pairs in row-major order: rows in order, each row's p ascending
            row, p = np.nonzero((des & ties[start:start + chunk, None]) == 0)
            row += start
            row *= n
            for lo in range(0, row.size, out_rows):
                hi = lo + out_rows
                yield flat.take(perms.take(p[lo:hi], axis=0) + row[lo:hi, None])


def enumerate_pf(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[ParkingFunction]:
    """Each parking function of size n exactly once: sorted profiles in
    lexicographic order (the rows of `_sorted_blocks` with a_i <= i), each
    expanded into its distinct arrangements in lexicographic order.  Checks
    n at once (CapacityError, ValueError; TypeError unless n and limit are
    integers) and returns a lazy iterator.

    Up to n = 8 each profile keeps its arrangements from one table of the n!
    permutations (`_table_arrangement_blocks`); beyond, the breadth-first
    expander of `multiset_permutations` expands the profiles' value counts.
    Either way the rows come in numpy blocks and become tuples in C, so the
    cost is proportional to the output size (n+1)^{n-1}, not n^n.
    """
    n, limit = index(n), index(limit)
    check_enumeration_size(n, limit)
    profiles = _sorted_blocks(n, range(1, n + 1))
    if n <= _PERMUTATION_TABLE_MAX_N:
        blocks = _table_arrangement_blocks(profiles, n)
    else:
        values = np.arange(1, n + 1, dtype=np.min_scalar_type(n))
        # each profile as its vector of value counts, the count of v at v - 1
        multisets = chain.from_iterable(map(tuple, row_counts(block, n + 1)[:, 1:].tolist())
                                        for block in profiles)
        blocks = _arrangement_blocks(multisets, n, values)
    # the rows are parking functions by construction: skip validation; zip
    # reuses its argument tuple for each call of tuple.__new__
    return chain.from_iterable(starmap(tuple.__new__, zip(repeat(ParkingFunction), _tuples(block)))
                               for block in blocks)


def count_pf(n: int) -> int:
    """|PF_n| = (n+1)^(n-1)."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n + 1) ** (n - 1)


def _first_term(n: int, s: int) -> int:
    """count_first(n, k) - count_first(n, k + 1) for k = n - s."""
    return comb(n - 1, s) * _ipow(s + 1, s - 1) * _ipow(n - s, n - s - 2)


def count_first(n: int, k: int) -> int:
    """Number of parking functions of size n with first coordinate k:
    sum_{s=0}^{n-k} C(n-1,s) (s+1)^{s-1} (n-s)^{n-s-2}.  For n >= 2 the full
    sum is the k = 1 count 2(n+1)^{n-2}, so the shorter side is summed."""
    n, k = index(n), index(k)
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, n]")
    if n >= 2 and k - 1 < n - k + 1:
        return 2 * (n + 1) ** (n - 2) - sum(_first_term(n, s) for s in range(n - k + 1, n))
    return sum(_first_term(n, s) for s in range(0, n - k + 1))


def first_counts(n: int) -> list[int]:
    """[count_first(n, k) for k in 1..n] from n terms in all: count_first(n, k)
    is the running sum of the terms s = 0..n-k, so the list is those running
    sums in reverse."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(accumulate(_first_term(n, s) for s in range(n)))[::-1]


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
    """P(K_pi = k): the law of the maximal feasible first coordinate."""
    n, k = index(n), index(k)
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, n]")
    num = k * comb(n - 1, k - 1) * _ipow(k, k - 2) * _ipow(n - k + 1, n - k - 1)
    return Fraction(num, (n + 1) ** (n - 1))


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
            B * (B - 1) * _falling(b, 2 * r) * _ipow(B - 2, b - 2 * r),
            factorial(r) ** 2 * B**b,
        ) if 2 * r <= b else Fraction(0)
        return mean + extra
    if r + t > b:
        return Fraction(0)
    return Fraction(
        B * (B - 1) * _falling(b, r + t) * _ipow(B - 2, b - r - t),
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


def all_functions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All m^n functions [n] -> [m]; the brute-force canonical-ensemble oracle."""
    return product(range(1, m + 1), repeat=n)
