"""Core types, the parking process, and the Dyck coding."""

import pytest
from hypothesis import given, strategies as st_h

from parkfn import (
    DyckCoding,
    ParkingFunction,
    PrefSequence,
    dyck_decode,
    dyck_encode,
    inconvenience,
    is_parking_function,
    park,
    queue_profile,
)
from parkfn.enumeration import all_functions, count_pf, enumerate_pf


def test_is_parking_function_known_cases():
    assert is_parking_function((1,))
    assert is_parking_function((1, 1, 1))
    assert is_parking_function((2, 1, 1))
    assert is_parking_function((1, 3, 5, 3, 1))
    assert not is_parking_function((2, 2))
    assert not is_parking_function((3, 3, 1))
    assert not is_parking_function((1, 2, 4, 4))
    assert not is_parking_function((0, 1))
    assert not is_parking_function((1, 5))


def test_is_parking_function_matches_sorted_criterion():
    for n in range(1, 6):
        for f in all_functions(n, n):
            ordered = sorted(f)
            expected = all(v <= i for i, v in enumerate(ordered, start=1))
            assert is_parking_function(f) == expected


def test_is_parking_function_matches_parking_success():
    for n in range(1, 6):
        for f in all_functions(n, n):
            assert is_parking_function(f) == park(f).success


def test_count_against_direct_filter():
    for n in range(1, 6):
        observed = sum(1 for f in all_functions(n, n) if is_parking_function(f))
        assert observed == count_pf(n) == (n + 1) ** (n - 1)


def test_park_success_details():
    outcome = park((2, 1, 1, 3))
    assert outcome.success
    assert outcome.spots == (2, 1, 3, 4)
    assert outcome.lucky == (True, True, False, False)
    assert outcome.inconvenience == 3
    assert outcome.inconvenience == inconvenience((2, 1, 1, 3))


def test_park_failure_reports_first_stuck_car():
    outcome = park((3, 3, 3))
    assert not outcome.success
    assert outcome.failed_at == 2
    assert outcome.spots is None


def test_park_spots_are_permutation():
    for n in range(1, 6):
        for pf in enumerate_pf(n):
            outcome = park(pf)
            assert sorted(outcome.spots) == list(range(1, n + 1))
            assert outcome.inconvenience == inconvenience(pf)
            assert sum(outcome.lucky) >= 1


def test_queue_profile_values():
    assert queue_profile((1, 3, 5, 3, 1)) == (0, 1, 0, 1, 0, 0)
    assert queue_profile((1, 1, 1)) == (0, 2, 1, 0)
    assert queue_profile((1, 2, 3)) == (0, 0, 0, 0)
    for outside in ((1, 5), (0, 1), (3, 1)):
        with pytest.raises(ValueError):
            queue_profile(outside)


def test_queue_profile_nonnegative_iff_parking():
    for n in range(1, 6):
        for f in all_functions(n, n):
            profile = queue_profile(f)
            assert profile[0] == 0
            nonneg = all(v >= 0 for v in profile)
            assert nonneg == is_parking_function(f)
            if nonneg:
                assert profile[n] == 0


def test_dyck_encode_small_example():
    coding = dyck_encode((1, 1, 2))
    assert coding.column_labels == ((1, 2), (3,), ())
    assert coding.path == "NNENEE"
    assert coding.area == 2
    assert coding.area == inconvenience((1, 1, 2))


def test_dyck_area_equals_inconvenience_exhaustive():
    for n in range(1, 7):
        for pf in enumerate_pf(n):
            assert dyck_encode(pf).area == inconvenience(pf)


def test_dyck_roundtrip_exhaustive():
    for n in range(1, 6):
        for pf in enumerate_pf(n):
            assert dyck_decode(dyck_encode(pf)) == pf


def test_dyck_encode_rejects_non_parking():
    with pytest.raises(ValueError):
        dyck_encode((2, 2))


def test_dyck_decode_rejects_bad_labels():
    with pytest.raises(ValueError, match="partition"):
        dyck_decode(DyckCoding(column_labels=((1, 1), ()), path="NNEE", area=0))
    with pytest.raises(ValueError, match="partition"):
        dyck_decode(DyckCoding(column_labels=((1,), ()), path="NEE", area=0))
    with pytest.raises(ValueError, match="diagonal"):
        dyck_decode(DyckCoding(column_labels=((), (1, 2)), path="ENNE", area=0))


def test_pref_sequence_validation():
    seq = PrefSequence(values=(1, 3, 2), m=4)
    assert seq.n == 3
    assert len(seq) == 3
    assert list(seq) == [1, 3, 2]
    with pytest.raises(ValueError):
        PrefSequence(values=(), m=1)
    with pytest.raises(ValueError):
        PrefSequence(values=(0, 1), m=2)
    with pytest.raises(ValueError):
        PrefSequence(values=(3,), m=2)


def test_parking_function_type():
    pf = ParkingFunction([2, 1, 1])
    assert isinstance(pf, tuple)
    assert pf.n == 3
    # no per-instance dict: an enumeration builds millions of them
    assert not hasattr(pf, "__dict__")
    assert not hasattr(ParkingFunction._trusted((1,)), "__dict__")
    with pytest.raises(ValueError):
        ParkingFunction([2, 2])


@given(st_h.lists(st_h.integers(min_value=1, max_value=7), min_size=1, max_size=7))
def test_inconvenience_formula_matches_process(values):
    n = len(values)
    values = [min(v, n) for v in values]
    outcome = park(values)
    if outcome.success:
        assert outcome.inconvenience == n * (n + 1) // 2 - sum(values)


@given(st_h.integers(min_value=1, max_value=6), st_h.randoms(use_true_random=False))
def test_sorted_parking_function_stays_parking(n, rnd):
    profile = [rnd.randint(1, i + 1) for i in range(n)]
    profile.sort()
    perm = profile[:]
    rnd.shuffle(perm)
    assert is_parking_function(tuple(perm)) == all(
        v <= i for i, v in enumerate(profile, start=1)
    )
