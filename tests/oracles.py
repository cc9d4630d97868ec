"""Scalar reference implementations that the tests compare the library with.

They are the library's former per-item loops, kept unchanged as independent
definitions of what the vectorised code computes.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from parkfn.core import ParkingFunction, PrefSequence, park, queue_profile
from parkfn.enumeration import (
    DEFAULT_ENUM_LIMIT,
    _sorted_profiles,
    all_functions,
    check_enumeration_size,
)
from parkfn.stats import _RELATIONS, ChainPoset, value_counts


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
    for profile in _sorted_profiles(n):
        for perm in multiset_permutations(profile):
            yield ParkingFunction._trusted(perm)


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


def chain_monotone(seq: Sequence[int], poset: ChainPoset) -> bool:
    """True iff every chain's relation holds along consecutive chain positions."""
    v = tuple(seq)
    for chain in poset.chains:
        op = _RELATIONS[chain.relation]
        for a, b in zip(chain.positions, chain.positions[1:]):
            if not op(v[a - 1], v[b - 1]):
                return False
    return True


def find_valid_shift(values: Sequence[int], n: int | None = None) -> int:
    """The unique k in [0, n] such that values +_{n+1} k(1,...,1) is in PF_n.

    Computed in O(n) from value counts: with steps c_j - 1 summing to -1
    around the cycle, the valid rotation starts just after the first
    position achieving the minimum partial sum.
    """
    if n is None:
        n = len(values)
    mod = n + 1
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
