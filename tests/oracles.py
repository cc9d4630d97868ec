"""Scalar reference implementations that the tests compare the library with.

They are the library's former per-item loops, kept unchanged as independent
definitions of what the vectorised code computes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from parkfn.core import ParkingFunction
from parkfn.enumeration import DEFAULT_ENUM_LIMIT, _sorted_profiles, check_enumeration_size


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
