"""Scalar reference implementations that the tests compare the library with.

They are the library's former per-item loops, kept unchanged as independent
definitions of what the vectorised code computes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count, product
from typing import Iterator, Optional, Sequence

import mpmath
import numpy as np

from parkfn.core import BLOCK_ELEMENTS, ParkingFunction, PrefSequence, park, queue_profile
from parkfn.enumeration import DEFAULT_ENUM_LIMIT, check_enumeration_size
from parkfn.limits import _AIRY_ZEROS
from parkfn.stats import _RELATIONS, value_counts


def all_functions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All m^n functions [n] -> [m] in lexicographic order, the order of
    `itertools.product`; the brute-force canonical-ensemble oracle."""
    return product(range(1, m + 1), repeat=n)


def function_blocks(n: int, m: int) -> Iterator[np.ndarray]:
    """All m^n functions [n] -> [m] in the order of `all_functions`, as
    column-major int64 blocks of at most BLOCK_ELEMENTS values: row i holds
    the base-m digits of i (`np.unravel_index`), most significant first,
    plus one."""
    total = m**n
    step = max(1, BLOCK_ELEMENTS // n)
    for start in range(0, total, step):
        digits = np.unravel_index(np.arange(start, min(start + step, total)), (m,) * n)
        yield (np.array(digits, dtype=np.int64) + 1).T


def sorted_profiles(n: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing sequences with a_i <= i (sorted parking functions), in
    lexicographic order."""
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


def enumerate_pf(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[ParkingFunction]:
    """Yield each parking function of size n exactly once.

    Generates sorted profiles and expands distinct permutations, so the cost
    is proportional to the output size (n+1)^{n-1}, not n^n.
    """
    check_enumeration_size(n, limit)
    for profile in sorted_profiles(n):
        for perm in multiset_permutations(profile):
            yield ParkingFunction._trusted(perm)


def count_first(n: int, k: int) -> int:
    """Number of parking functions of size n with first coordinate k, as
    the plain Abel sum of C(n-1, s) (s+1)^{s-1} (n-s)^{n-s-2} over
    s = 0..n-k: one `math.comb` and two powers per term, and nothing kept
    between calls."""
    return sum(math.comb(n - 1, s) * (s + 1) ** (s - 1 if s else 0)
               * (n - s) ** (n - s - 2 if n - s >= 2 else 0)
               for s in range(n - k + 1))


# --- per-function statistics ---------------------------------------------

def repeats(seq: Sequence[int]) -> int:
    """Number of adjacent equal pairs, reading left to right."""
    v = tuple(seq)
    return sum(1 for a, b in zip(v, v[1:]) if a == b)


def lucky(pf: Sequence[int]) -> int:
    """Number of cars parking exactly at their preferred spot (always >= 1)."""
    outcome = park(pf)
    if not outcome.success:
        raise ValueError("lucky requires a parking function")
    return sum(outcome.lucky)


def ones(seq: Sequence[int]) -> int:
    """Number of coordinates equal to 1."""
    return value_counts(seq).get(1, 0)


def descent_pattern(seq: Sequence[int], relation: str = "<") -> tuple[int, ...]:
    """Binary pattern X_1..X_{n-1} with X_i = 1 iff seq_{i+1} rel seq_i.

    relation "<" gives descents (strict drop), "=" the equality pattern,
    "<=" the weak-descent pattern; ">" and ">=" give the reversed analogs.
    """
    op = _RELATIONS[relation]
    v = tuple(seq)
    return tuple(1 if op(b, a) else 0 for a, b in zip(v, v[1:]))


def descents(seq: Sequence[int]) -> int:
    """Total number of descents."""
    return sum(descent_pattern(seq))


def species(seq: Sequence[int], m: Optional[int] = None) -> tuple[int, ...]:
    """Species vector (mu_0, ..., mu_n): mu_r = number of codomain values
    occurring exactly r times.  Satisfies sum mu_r = m, sum r*mu_r = n."""
    v = tuple(seq)
    n = len(v)
    if m is None:
        m = seq.m if isinstance(seq, PrefSequence) else n
    counts = value_counts(v)
    mu = [0] * (n + 1)
    mu[0] = m - len(counts)
    for c in counts.values():
        mu[c] += 1
    return tuple(mu)


def inversions(seq: Sequence[int]) -> int:
    """Number of pairs i < j with seq_i > seq_j."""
    v = tuple(seq)
    return sum(1 for i in range(len(v)) for j in range(i + 1, len(v)) if v[i] > v[j])


def longest_run(seq: Sequence[int], relation: str = "<") -> int:
    """Length (in values) of the longest consecutive run under the relation."""
    op = _RELATIONS[relation]
    v = tuple(seq)
    best = 1
    current = 1
    for a, b in zip(v, v[1:]):
        if op(a, b):
            current += 1
            best = max(best, current)
        else:
            current = 1
    return best


def max_discrepancy(pf: Sequence[int]) -> int:
    """max_k #{i : pi_i <= k} - k, i.e. the maximum of the queue profile."""
    return max(queue_profile(pf))


def scaled_area(pf: Sequence[int]) -> float:
    """(n^2/2 - sum pi_i) / n^{3/2}; converges to the Airy area law."""
    v = tuple(pf)
    n = len(v)
    return (n * n / 2 - sum(v)) / n**1.5


def chain_monotone(seq: Sequence[int], chains: Sequence[tuple[Sequence[int], str]]) -> bool:
    """True iff every chain's relation holds along consecutive chain
    positions; the chains are (positions, relation) pairs."""
    v = tuple(seq)
    for positions, relation in chains:
        op = _RELATIONS[relation]
        for a, b in zip(positions, positions[1:]):
            if not op(v[a - 1], v[b - 1]):
                return False
    return True


def find_valid_shift(values: Sequence[int]) -> int:
    """The unique k in [0, n] such that values +_{n+1} k(1,...,1) is in PF_n,
    n = len(values).

    Computed in O(n) from value counts: with steps c_j - 1 summing to -1
    around the cycle, the valid rotation starts just after the first
    position achieving the minimum partial sum.
    """
    mod = len(values) + 1
    counts = [0] * (mod + 1)
    for v in values:
        counts[v] += 1
    running = 0
    best = 1
    best_j = 0
    for j in range(1, mod + 1):
        running += counts[j] - 1
        if best_j == 0 or running < best:
            best = running
            best_j = j
    return (mod - best_j) % mod


def brute_pattern_counts(n: int, m: int, relation: str = "<") -> dict[tuple[int, ...], int]:
    """Descent-pattern census over all functions [n] -> [m]."""
    counts: dict[tuple[int, ...], int] = {}
    for f in all_functions(n, m):
        pat = descent_pattern(f, relation)
        counts[pat] = counts.get(pat, 0) + 1
    return counts


@lru_cache(maxsize=None)
def airy_zero_mp(k: int, dps: int) -> mpmath.mpf:
    """The k-th zero of Ai to about `dps` digits, for dps = 16 * 2^j: one
    Newton step, which doubles the digits, from the zero to dps / 2 digits,
    starting from the library's correctly rounded zero."""
    if dps <= 16:
        return mpmath.mpf(_AIRY_ZEROS[k - 1])
    a = airy_zero_mp(k, dps // 2)
    with mpmath.workdps(dps + 5):
        return a - mpmath.airyai(a) / mpmath.airyai(a, derivative=1)


def airy_area_density_mp(x: float) -> float:
    """Takacs's series of the Airy area density in mpmath.  Its terms are of
    order 1 and its sum of order e^{-6x^2}, so about 6x^2 / ln 10 digits
    cancel; the sum carries 20 more, and stops at the first term below its
    last digit.

    A term is about e^{-z} in size, so it needs about z / ln 10 digits fewer
    than the sum, and so does its Airy zero.  Where mpmath's asymptotic
    series of U reaches that many digits (z above 3 times them), the term is
    e^{-z} U(a, b, z).  Elsewhere it is C M(b-a, b, -z) + D z^{1-b}
    M(1-a, 2-b, -z) at the sum's precision (DLMF 13.2.42 and Kummer's
    transformation 13.2.39), with Gamma factors C, D that do not depend on
    z: there two 1F1 sums cost less than one U.  Those two cancel to about
    e^{-z} of their size, beyond the sum's precision once the first z nears
    60: below x ~ 0.25 the result is off (1.6% at x = 0.126), so this
    serves the tail only."""
    dps = 20 + math.ceil(6 * x * x / math.log(10))
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(-5) / 6, mpmath.mpf(4) / 3
        c = mpmath.gamma(1 - b) / mpmath.gamma(a - b + 1)
        d = mpmath.gamma(b - 1) / mpmath.gamma(a)
        s = 1 / mpmath.mpf(x) ** 2
        total = magnitude = mpmath.mpf(0)
        for k in count(1):
            z_float = -2 * _AIRY_ZEROS[k - 1] ** 3 / 27 / (x * x)
            digits = max(20, dps - int(z_float / math.log(10)))
            zero = airy_zero_mp(k, 16 * 2 ** math.ceil(math.log2(digits / 16)))
            b_k = -2 * zero**3 / 27
            z = b_k * s
            if z > 3 * digits:
                with mpmath.workdps(digits):
                    scaled_u = mpmath.exp(-z) * mpmath.hyperu(a, b, z)
            else:
                scaled_u = (c * mpmath.hyp1f1(b - a, b, -z)
                            + d / mpmath.cbrt(z) * mpmath.hyp1f1(1 - a, 2 - b, -z))
            term = mpmath.cbrt(b_k) ** 2 * scaled_u
            total += term
            magnitude += abs(term)
            if abs(term) < mpmath.mp.eps * magnitude:
                break
        return float(2 * mpmath.sqrt(6) * s ** (mpmath.mpf(5) / 3) * total)
