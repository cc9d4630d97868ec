"""Exact enumeration, closed-form counts, and generating functions."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import groupby, islice, permutations, zip_longest
from math import comb, factorial

import oracles
import pytest
from hypothesis import given, strategies as st_h

from parkfn import (
    abel_identity_check,
    count_first,
    count_pf,
    descent_pattern_prob,
    enumerate_pf,
    exact_mean_first,
    gf_closed_form,
    gf_statistic,
    is_parking_function,
    k_pi_law,
    kpoint_correlation,
    max_first_coordinate,
    species,
    species_joint_prob,
    species_moment,
)
from parkfn.core import ParkingFunction
from parkfn.enumeration import (
    CapacityError,
    all_functions,
    consecutive_blocks,
    multiset_permutations,
)


def test_enumerate_is_exact_and_distinct():
    for n in range(1, 7):
        listed = list(enumerate_pf(n))
        assert len(listed) == len(set(listed)) == count_pf(n)
        direct = {f for f in all_functions(n, n) if is_parking_function(f)}
        assert set(listed) == direct
        # each sorted profile is one contiguous run, in lexicographic order
        runs = [list(run) for _profile, run in groupby(listed, key=sorted)]
        assert len({tuple(sorted(run[0])) for run in runs}) == len(runs)
        assert all(run == sorted(run) for run in runs)


def test_enumerate_matches_oracle_item_by_item():
    for n in range(1, 8):
        for got, want in zip_longest(enumerate_pf(n), oracles.enumerate_pf(n)):
            assert got == want and type(got) is ParkingFunction, (n, got, want)


@given(st_h.lists(st_h.integers(-2, 4), max_size=6))
def test_multiset_permutations_are_distinct_and_lexicographic(items):
    expected = sorted(set(permutations(items)))
    assert list(multiset_permutations(items)) == expected
    assert list(oracles.multiset_permutations(items)) == expected


def test_multiset_permutations_edges_match_oracle():
    cases = [
        [],
        [7],
        [1] * 17 + [2] * 2 + [3],  # a multiplicity above 15
        [1] * 300 + [2],  # above 255, and more arrangements than a block holds
        [2] * 3 + [1] * 256,
        list(range(-20, 280)) + [5, -20],  # 300 distinct values, some negative
        [2**70, -(2**70), 0, 0, 1],  # beyond int64
        [-1, 2**64 - 1, 2**64 - 1],  # in no 64-bit dtype, though each fits in one
    ]
    for items in cases:
        got = list(islice(multiset_permutations(items), 3000))
        assert got == list(islice(oracles.multiset_permutations(items), 3000)), items[:4]
    assert list(multiset_permutations([])) == [()]


def test_enumeration_memory_stays_flat():
    # range(10) has 3.6M arrangements and PF_9 10^8 functions: both are
    # expanded a block at a time, and only as far as they are consumed.
    for fast, slow in (
        (multiset_permutations(range(10)), oracles.multiset_permutations(range(10))),
        (enumerate_pf(9, limit=9), oracles.enumerate_pf(9, limit=9)),
    ):
        tracemalloc.start()
        try:
            for got, want in islice(zip(fast, slow), 10**5):
                assert got == want
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


def test_enumerate_capacity_guard():
    with pytest.raises(CapacityError):
        list(enumerate_pf(9))
    with pytest.raises(ValueError):
        list(enumerate_pf(0))
    listed = enumerate_pf(9)  # raised when iterated, as a generator does
    with pytest.raises(CapacityError):
        next(listed)


def test_count_pf_rejects_empty_size():
    for n in (0, -1):
        with pytest.raises(ValueError):
            count_pf(n)


def test_count_first_matches_census():
    for n in range(1, 7):
        census = Counter(pf[0] for pf in enumerate_pf(n))
        for k in range(1, n + 1):
            assert count_first(n, k) == census[k]
    with pytest.raises(ValueError):
        count_first(3, 0)
    with pytest.raises(ValueError):
        count_first(3, 4)


def test_count_first_corner_closed_forms():
    for n in range(2, 13):
        assert count_first(n, 1) == 2 * (n + 1) ** (n - 2)
        assert count_first(n, n) == n ** (n - 2)


def test_count_first_sums_to_total():
    for n in range(1, 13):
        assert sum(count_first(n, k) for k in range(1, n + 1)) == count_pf(n)


def test_count_first_matches_direct_sum():
    # count_first sums the shorter side of the census; the direct sum is the reference
    for n in range(1, 61):
        for k in range(1, n + 1):
            direct = sum(comb(n - 1, s) * (s + 1) ** (s - 1 if s else 0)
                         * (n - s) ** (n - s - 2 if n - s >= 2 else 0)
                         for s in range(n - k + 1))
            assert count_first(n, k) == direct, (n, k)


def test_abel_identity():
    for n in range(1, 11):
        lhs, rhs = abel_identity_check(Fraction(1), Fraction(1), n)
        assert lhs == rhs
    lhs, rhs = abel_identity_check(Fraction(2, 3), Fraction(-5), 6)
    assert lhs == rhs
    with pytest.raises(ValueError):
        abel_identity_check(Fraction(0), Fraction(1), 3)


def test_exact_mean_first_matches_brute():
    for n in range(1, 8):
        brute = Fraction(
            sum(k * count_first(n, k) for k in range(1, n + 1)), count_pf(n)
        )
        assert exact_mean_first(n) == brute


def _mean_first_by_recurrence(n):
    # S = sum_k (n+1)^k (n-2)!/k! term by term, the reference for the binary splitting
    if n == 1:
        return Fraction(1)
    term = factorial(n - 2)
    total = term
    for k in range(1, n - 1):
        term = term * (n + 1) // k
        total += term
    return Fraction(1, 2) + Fraction(n, 2) - Fraction((n - 1) * total, 2 * (n + 1) ** (n - 1))


def test_exact_mean_first_matches_recurrence():
    for n in range(1, 301):
        assert exact_mean_first(n) == _mean_first_by_recurrence(n), n
    with pytest.raises(ValueError):
        exact_mean_first(0)


def test_k_pi_law_matches_brute():
    for n in range(1, 7):
        census = Counter(
            max_first_coordinate(pf[1:]).k for pf in enumerate_pf(n)
        )
        for k in range(1, n + 1):
            assert k_pi_law(n, k) == Fraction(census[k], count_pf(n))


def test_k_pi_law_sums_to_one():
    for n in range(1, 8):
        assert sum(k_pi_law(n, k) for k in range(1, n + 1)) == 1


def test_gf_closed_forms_match_brute():
    for n in range(1, 7):
        for stat in ("repeats", "lucky", "ones"):
            assert gf_statistic(n, stat) == gf_closed_form(n, stat)
    with pytest.raises(ValueError):
        gf_statistic(3, "descents")


def test_gf_values_at_one():
    # Evaluating any of the polynomials at q = 1 recovers |PF_n|.
    for n in range(1, 7):
        for stat in ("repeats", "lucky", "ones"):
            assert sum(gf_closed_form(n, stat)) == count_pf(n)


def test_descent_pattern_prob_matches_brute():
    for n in range(2, 6):
        counts = oracles.brute_pattern_counts(n, n + 1)
        total = (n + 1) ** n
        for pattern, count in counts.items():
            assert descent_pattern_prob(n, pattern) == Fraction(count, total)
    with pytest.raises(ValueError):
        descent_pattern_prob(3, (0, 2))
    with pytest.raises(ValueError):
        descent_pattern_prob(3, (0, 1, 0))


def test_consecutive_blocks():
    assert consecutive_blocks([1, 2, 4, 6, 7, 8]) == [2, 1, 3]
    assert consecutive_blocks([]) == []
    assert consecutive_blocks([3]) == [1]


def test_kpoint_correlation_matches_brute():
    from itertools import combinations

    for n in range(2, 6):
        counts = oracles.brute_pattern_counts(n, n + 1)
        total = (n + 1) ** n
        positions = range(1, n)
        for size in range(1, n):
            for subset in combinations(positions, size):
                brute = sum(
                    c
                    for pat, c in counts.items()
                    if all(pat[i - 1] == 1 for i in subset)
                )
                assert kpoint_correlation(n, subset) == Fraction(brute, total)
    with pytest.raises(ValueError):
        kpoint_correlation(4, [0])


def test_single_descent_and_covariance_closed_forms():
    for n in range(2, 9):
        p = kpoint_correlation(n, [1])
        assert p == Fraction(n, 2 * (n + 1))
        if n >= 3:
            joint = kpoint_correlation(n, [1, 2])
            assert joint == Fraction(comb(n + 1, 3), (n + 1) ** 3)
            assert joint - p * p == Fraction(-n * (n + 2), 12 * (n + 1) ** 2)
        if n >= 4:
            # one-dependence: gap >= 2 factorizes exactly
            assert kpoint_correlation(n, [1, 3]) == p * p


def test_species_moment_matches_brute():
    for b, B in ((3, 4), (4, 3), (4, 5)):
        census = Counter(species(f, m=B) for f in all_functions(b, B))
        total = B**b
        for r in range(b + 1):
            brute_mean = Fraction(sum(mu[r] * c for mu, c in census.items()), total)
            assert species_moment(b, B, r) == brute_mean
            for t in range(b + 1):
                brute_cross = Fraction(
                    sum(mu[r] * mu[t] * c for mu, c in census.items()), total
                )
                assert species_moment(b, B, r, t) == brute_cross


def test_species_joint_prob_matches_brute():
    for b, B in ((3, 4), (4, 5)):
        census = Counter(species(f, m=B) for f in all_functions(b, B))
        total = B**b
        for mu, c in census.items():
            assert species_joint_prob(b, B, mu) == Fraction(c, total)
        # impossible vectors have probability zero
        assert species_joint_prob(b, B, (B,) + (0,) * b) == 0
    with pytest.raises(ValueError):
        species_joint_prob(3, 4, (1, 1))
