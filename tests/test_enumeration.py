"""Exact enumeration, closed-form counts, and generating functions."""

import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import groupby, islice, permutations, zip_longest
from math import comb, factorial, prod

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st_h

from parkfn import (
    abel_identity_check,
    count_first,
    count_pf,
    descent_pattern_prob,
    enumerate_pf,
    enumeration,
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
    _sorted_blocks,
    _table_arrangement_blocks,
    consecutive_blocks,
    first_counts,
)


def test_enumerate_is_exact_and_distinct():
    for n in range(1, 7):
        listed = list(enumerate_pf(n))
        assert len(listed) == len(set(listed)) == count_pf(n)
        direct = {f for f in oracles.all_functions(n, n) if is_parking_function(f)}
        assert set(listed) == direct
        # each sorted profile is one contiguous run, in lexicographic order
        runs = [list(run) for _profile, run in groupby(listed, key=sorted)]
        assert len({tuple(sorted(run[0])) for run in runs}) == len(runs)
        assert all(run == sorted(run) for run in runs)


def test_enumerate_matches_oracle_item_by_item():
    # n = 1 has no pair to tie; n = 2 has one tie bit, set only in (1, 1)
    assert list(enumerate_pf(1)) == [(1,)]
    assert list(enumerate_pf(2)) == [(1, 1), (1, 2), (2, 1)]
    for n in range(1, 8):
        for got, want in zip_longest(enumerate_pf(n), oracles.enumerate_pf(n)):
            assert got == want and type(got) is ParkingFunction, (n, got, want)


@settings(deadline=None)
@given(st_h.lists(st_h.integers(1, 10), min_size=1, max_size=10))
def test_table_arrangements_match_oracle(items):
    # beyond 8 entries the rows are split by their leading entries first
    row = sorted(items)
    blocks = list(_table_arrangement_blocks([np.array([row])], len(row)))
    assert all(block.dtype == np.uint8 and block.size <= 2**16 for block in blocks)
    got = islice((tuple(r) for block in blocks for r in block.tolist()), 3000)
    assert list(got) == list(islice(oracles.multiset_permutations(row), 3000))
    assert sum(map(len, blocks)) == factorial(len(row)) // prod(map(factorial, Counter(row).values()))


def test_table_blocks_cover_pf8_in_runs():
    # every block of PF_8 at once: each sorted profile is one run of
    # n!/prod c_v! rows, and the (profile, row) keys strictly increase
    n = 8
    digits = (n + 1) ** np.arange(n, -1, -1, dtype=np.int64)  # digits[v] = 9^(n - v)
    ones = np.ones(n, dtype=np.int64)
    total, runs, last_key = 0, [], None
    for block in _table_arrangement_blocks(_sorted_blocks(n, range(1, n + 1)), n):
        assert block.dtype == np.uint8 and block.size <= 2**16
        # the value counts c_1..c_n as base-9 digits: sorted profiles in
        # lexicographic order have decreasing count vectors
        profile_keys = -(digits.take(block) @ ones)
        keys = profile_keys * (n + 1) ** n + block @ digits[1:]
        assert (np.diff(keys) > 0).all() and (last_key is None or keys[0] > last_key)
        last_key = keys[-1]
        starts = np.flatnonzero(np.diff(profile_keys, prepend=1))
        lengths = np.diff(starts, append=len(block))
        for start, length in zip(starts.tolist(), lengths.tolist()):
            if runs and runs[-1][0] == profile_keys[start]:  # a run across blocks
                runs[-1][1] += length
            else:
                runs.append([profile_keys[start], length, sorted(block[start].tolist())])
        total += len(block)
    assert total == (n + 1) ** (n - 1)
    assert len(runs) == comb(2 * n, n) // (n + 1)  # Catalan(8) sorted profiles
    for _key, length, profile in runs:
        assert all(a <= i for i, a in enumerate(profile, start=1))
        assert length == factorial(n) // prod(map(factorial, Counter(profile).values()))


@given(st_h.lists(st_h.integers(-2, 4), max_size=6))
def test_multiset_permutations_are_distinct_and_lexicographic(items):
    expected = sorted(set(permutations(items)))
    assert list(oracles.multiset_permutations(items)) == expected


def test_enumeration_memory_stays_flat():
    # PF_9 has 10^8 functions: they are expanded a block at a time, and only
    # as far as they are consumed
    tracemalloc.start()
    try:
        for got, want in islice(zip(enumerate_pf(9, limit=9), oracles.enumerate_pf(9, limit=9)),
                                10**5):
            assert got == want
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_enumerate_beyond_table_stays_flat():
    # two leading entries split each row; the start of PF_10 matches the oracle
    tracemalloc.start()
    try:
        for got, want in islice(zip_longest(enumerate_pf(10, limit=10),
                                            oracles.enumerate_pf(10, limit=10)), 10**5):
            assert got == want and type(got) is ParkingFunction
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_enumerate_capacity_guard():
    with pytest.raises(CapacityError):
        list(enumerate_pf(9))
    with pytest.raises(ValueError):
        list(enumerate_pf(0))
    # raised by the call itself, before anything is iterated
    with pytest.raises(CapacityError):
        enumerate_pf(9)
    with pytest.raises(ValueError):
        enumerate_pf(0)


def test_enumerate_refuses_profile_counts_beyond_int64():
    # from PF_36 on, Catalan(n) > 2^63 sorted profiles overflow the int64 counts
    for n in (36, 40):
        with pytest.raises(ValueError):
            enumerate_pf(n, limit=n)
    assert next(enumerate_pf(35, limit=35)) == (1,) * 35


def test_count_pf_rejects_empty_size():
    for n in (0, -1):
        with pytest.raises(ValueError):
            count_pf(n)


@pytest.fixture
def empty_table(monkeypatch):
    """Call it to empty the Abel sums that count_first and first_counts keep."""
    return lambda: monkeypatch.setattr(enumeration, "_kept_sums", enumeration._AbelSums(0))


@pytest.fixture
def evaluated_terms(monkeypatch):
    """Each Abel term s that `_first_terms` evaluates from now on, in order."""
    evaluated = []
    first_terms = enumeration._first_terms

    def counting(n, start, stop):
        evaluated.extend(range(start, stop))
        return first_terms(n, start, stop)

    monkeypatch.setattr(enumeration, "_first_terms", counting)
    return evaluated


def test_count_first_matches_census(empty_table):
    for n in range(1, 7):
        empty_table()
        census = Counter(pf[0] for pf in enumerate_pf(n))
        for k in range(1, n + 1):
            assert count_first(n, k) == census[k]
    with pytest.raises(ValueError):
        count_first(3, 0)
    with pytest.raises(ValueError):
        count_first(3, 4)


def test_first_counts_match_count_first(empty_table):
    for n in (*range(1, 41), 150, 300):
        empty_table()
        expected = [oracles.count_first(n, k) for k in range(1, n + 1)]
        counts = first_counts(n)
        assert counts == expected, n
        # the list is the caller's: changing it leaves the next call as it was
        counts[0] += 1
        counts.append(0)
        assert first_counts(n) == expected, n
    assert sum(first_counts(300)) == count_pf(300)
    for n in (0, -1):
        with pytest.raises(ValueError):
            first_counts(n)


def test_exact_counts_take_integer_sizes_only():
    # numpy integers act as the Python ints they hold; floats are refused
    assert count_pf(np.int64(30)) == 31**29 and type(count_pf(np.int64(30))) is int
    assert count_first(np.int64(30), np.int8(5)) == count_first(30, 5)
    assert first_counts(np.int16(30)) == first_counts(30)
    assert k_pi_law(np.int64(9), np.uint8(4)) == k_pi_law(9, 4)
    assert exact_mean_first(np.int32(40)) == exact_mean_first(40)
    pattern = (1, 0) * 9 + (1,)
    assert descent_pattern_prob(np.int64(20), pattern) == descent_pattern_prob(20, pattern)
    assert list(enumerate_pf(np.int64(4), np.int64(4))) == list(enumerate_pf(4))
    for call in (lambda: count_pf(5.5), lambda: count_pf(5.0), lambda: count_first(5.0, 2),
                 lambda: count_first(5, 2.0), lambda: first_counts(5.0),
                 lambda: k_pi_law(5, 2.0), lambda: exact_mean_first(4.0),
                 lambda: descent_pattern_prob(4.0, (0, 0, 0)),
                 lambda: enumerate_pf(4.0), lambda: enumerate_pf(3, 8.5)):
        with pytest.raises(TypeError):
            call()


def test_count_first_corner_closed_forms():
    for n in range(2, 13):
        assert count_first(n, 1) == 2 * (n + 1) ** (n - 2)
        assert count_first(n, n) == n ** (n - 2)


def test_count_first_sums_to_total():
    # n = 150 is the exact workload's own check
    for n in (*range(1, 13), 150, 300):
        assert sum(count_first(n, k) for k in range(1, n + 1)) == count_pf(n)


def _call_orders(n):
    """k ascending, k descending, and alternating ends (1, n, 2, n - 1, ...)."""
    ends = [k for pair in zip(range(1, n + 1), range(n, 0, -1)) for k in pair][:n]
    return list(range(1, n + 1)), list(range(n, 0, -1)), ends


def test_count_first_matches_direct_sum(empty_table):
    # count_first reads running sums kept between calls: every call order,
    # from an empty table, must give the plain Abel sum of the oracle
    for n in range(1, 61):
        expected = {k: oracles.count_first(n, k) for k in range(1, n + 1)}
        for order in _call_orders(n):
            empty_table()
            assert {k: count_first(n, k) for k in order} == expected, (n, order)
    for n in (150, 300):
        empty_table()
        assert [count_first(n, k) for k in range(1, n + 1)] == [
            oracles.count_first(n, k) for k in range(1, n + 1)], n


def test_count_first_evaluates_each_term_once(empty_table, evaluated_terms):
    # a sweep at n = 150 reads 74 tail and 75 head sums, each term once
    # (summing each k's shorter side afresh took 5,625 terms); later sweeps
    # in other orders evaluate none
    n = 150
    empty_table()
    for order in _call_orders(n):
        assert sum(count_first(n, k) for k in order) == count_pf(n)
        assert len(evaluated_terms) == len(set(evaluated_terms)) == n - 1, order
    # a cold call costs its shorter side, min(k - 1, n - k + 1) terms
    for k in (1, 2, 3, 74, 75, 76, 77, 149, 150):
        empty_table()
        evaluated_terms.clear()
        count_first(n, k)
        assert len(evaluated_terms) == min(k - 1, n - k + 1), k


def test_count_first_keeps_sums_while_they_fit_a_block(empty_table, evaluated_terms):
    # n (n - 1) bitlen(n + 1) <= 64 BLOCK_ELEMENTS holds up to n = 648
    empty_table()
    for n, kept in ((648, True), (649, False), (3, True)):
        for _ in range(2):
            evaluated_terms.clear()
            assert count_first(n, 2) == oracles.count_first(n, 2)
        assert evaluated_terms == ([] if kept else [n - 1]), n
    evaluated_terms.clear()
    first_counts(649)
    first_counts(649)
    assert len(evaluated_terms) == 2 * 649


def test_kept_sums_stay_within_the_block_bound(empty_table):
    # the block bound of `_abel_sums` counts n sums: in any order of
    # count_first calls at n = 648, the largest n it keeps, with first_counts
    # at the start, the middle or the end, the head and the tail together
    # never hold more than n + 2 (each side starts at the empty sum)
    n = 648
    # the oracle takes seconds at this n: the head sums from a fresh table,
    # checked by their total and both closed-form ends
    empty_table()
    expected = first_counts(n)
    assert sum(expected) == count_pf(n)
    assert (expected[0], expected[-1]) == (2 * (n + 1) ** (n - 2), n ** (n - 2))
    for order in _call_orders(n):
        for at in (0, n // 2, n):
            empty_table()
            for k in (*order[:at], None, *order[at:]):
                if k is None:
                    assert first_counts(n) == expected
                else:
                    assert count_first(n, k) == expected[k - 1], (k, at)
                sums = enumeration._kept_sums
                assert sums.n == n and len(sums.head) + len(sums.tail) <= n + 2, (k, at)


def test_count_first_from_concurrent_sweeps(empty_table):
    # threads sweep one fresh n from opposite ends, two on each side, so
    # they grow both sides and race to publish the same one
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in range(100, 106):
            empty_table()
            expected = [oracles.count_first(n, k) for k in range(1, n + 1)]
            barrier = threading.Barrier(4)
            results = [None] * 4

            def sweep(i):
                barrier.wait(timeout=30)
                ks = range(1, n + 1) if i % 2 else range(n, 0, -1)
                results[i] = {k: count_first(n, k) for k in ks}

            threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for got in results:
                assert [got[k] for k in range(1, n + 1)] == expected, n
    finally:
        sys.setswitchinterval(switch)


def test_k_pi_law_is_first_coordinate_difference():
    # P(K_pi = k) = k (count_first(n, k) - count_first(n, k + 1)) / (n+1)^(n-1)
    # n + 1 = 64, 81 and 125 are prime powers: the law's numerator keeps
    # factors of the prime of the denominator
    for n in [*range(1, 41), 63, 80, 124]:
        for k in range(1, n + 1):
            above = count_first(n, k + 1) if k < n else 0
            assert k_pi_law(n, k) == Fraction(k * (count_first(n, k) - above), count_pf(n)), (n, k)


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
    # n + 1 = 7^3, 5^4, 3^6, 2^10 and 2*3*5*7*11 past n = 300: high prime
    # powers and several primes in the denominator 2 (n+1)^(n-1)
    for n in [*range(1, 301), 342, 624, 728, 1023, 2309, 10_000]:
        assert exact_mean_first(n) == _mean_first_by_recurrence(n), n
    with pytest.raises(ValueError):
        exact_mean_first(0)


def test_reduced_equals_fraction_by_gcd():
    # numerators holding each prime of the denominator up to and past its
    # multiplicity, beside a cofactor coprime to it or sharing its other primes
    for base, exponent in ((1024, 3), (343, 5), (2310, 4), (6, 1), (2, 0), (1, 7)):
        den = 2 * base**exponent
        primes = enumeration._power_primes(base, exponent)
        primes[2] = primes.get(2, 0) + 1
        assert prod(p**m for p, m in primes.items()) == den
        for p, m in primes.items():
            for v in range(m + 3):
                for cofactor in (1, 13, -97 * 2**9 * 3**5 * 11, 0):
                    num = cofactor * p**v
                    got, want = enumeration._reduced(num, den, primes), Fraction(num, den)
                    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
                    assert type(got.numerator) is int and type(got.denominator) is int


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
        census = Counter(species(f, m=B) for f in oracles.all_functions(b, B))
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
        census = Counter(species(f, m=B) for f in oracles.all_functions(b, B))
        total = B**b
        for mu, c in census.items():
            assert species_joint_prob(b, B, mu) == Fraction(c, total)
        # impossible vectors have probability zero
        assert species_joint_prob(b, B, (B,) + (0,) * b) == 0
    with pytest.raises(ValueError):
        species_joint_prob(3, 4, (1, 1))
