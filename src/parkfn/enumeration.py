"""Exact enumeration oracles and closed-form counts, in exact arithmetic.

Every count is an arbitrary-precision integer and every probability an exact
rational; floating point never enters.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial
from typing import Iterator, Optional, Sequence

from .core import ParkingFunction
from .stats import descent_pattern

DEFAULT_ENUM_LIMIT = 8


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


def _sorted_profiles(n: int) -> Iterator[tuple[int, ...]]:
    # Nondecreasing sequences with a_i <= i (sorted parking functions).
    profile = [0] * n

    def extend(i: int, low: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(profile)
            return
        for v in range(low, i + 2):
            profile[i] = v
            yield from extend(i + 1, v)

    yield from extend(0, 1)


def multiset_permutations(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each distinct permutation of a multiset once, in lexicographic order:
    at the last ascent a[i] < a[i+1], swap a[i] with the last entry above it
    and reverse the tail after position i."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def check_enumeration_size(n: int, limit: int) -> None:
    """The guard of every enumeration of PF_n: n >= 1, and n <= limit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > limit:
        raise CapacityError(f"n={n} exceeds enumeration limit {limit}; raise `limit` to opt in")


def enumerate_pf(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[ParkingFunction]:
    """Yield each parking function of size n exactly once.

    Generates sorted profiles and expands distinct permutations, so the cost
    is proportional to the output size (n+1)^{n-1}, not n^n.
    """
    check_enumeration_size(n, limit)
    for profile in _sorted_profiles(n):
        for perm in multiset_permutations(profile):
            yield ParkingFunction._trusted(perm)


def count_pf(n: int) -> int:
    """|PF_n| = (n+1)^(n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n + 1) ** (n - 1)


def count_first(n: int, k: int) -> int:
    """Number of parking functions of size n with first coordinate k:
    sum_{s=0}^{n-k} C(n-1,s) (s+1)^{s-1} (n-s)^{n-s-2}.  For n >= 2 the full
    sum is the k = 1 count 2(n+1)^{n-2}, so the shorter side is summed."""
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, n]")

    def term(s: int) -> int:
        return comb(n - 1, s) * _ipow(s + 1, s - 1) * _ipow(n - s, n - s - 2)

    if n >= 2 and k - 1 < n - k + 1:
        return 2 * (n + 1) ** (n - 2) - sum(term(s) for s in range(n - k + 1, n))
    return sum(term(s) for s in range(0, n - k + 1))


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


def brute_pattern_counts(n: int, m: int, relation: str = "<") -> dict[tuple[int, ...], int]:
    """Descent-pattern census over all functions [n] -> [m]."""
    counts: dict[tuple[int, ...], int] = {}
    for f in all_functions(n, m):
        pat = descent_pattern(f, relation)
        counts[pat] = counts.get(pat, 0) + 1
    return counts
