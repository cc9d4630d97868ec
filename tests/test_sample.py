"""Seeded streams and the exact cycle-lemma sampler."""

from collections import Counter
from unittest.mock import patch

import numpy as np
import oracles
import pytest
from hypothesis import given, strategies as st_h

from parkfn import (
    RngStream,
    find_valid_shift,
    is_parking_function,
    sample_parking_function,
    sample_uniform_function,
    shift_sequence,
    split_stream,
)
from parkfn import sample
from parkfn.enumeration import all_functions, count_pf
from parkfn.sample import draw_block, shift_block


def test_stream_is_reproducible():
    a = RngStream(seed=123, stream_index=4).integers(1, 10, size=20)
    b = RngStream(seed=123, stream_index=4).integers(1, 10, size=20)
    assert list(a) == list(b)


def test_streams_differ_across_indices_and_seeds():
    base = list(RngStream(seed=1, stream_index=0).integers(1, 100, size=20))
    assert base != list(RngStream(seed=1, stream_index=1).integers(1, 100, size=20))
    assert base != list(RngStream(seed=2, stream_index=0).integers(1, 100, size=20))


def test_integers_bounds_are_inclusive():
    values = RngStream(seed=7).integers(1, 3, size=3000)
    assert set(int(v) for v in values) == {1, 2, 3}


def test_negative_stream_index_rejected():
    with pytest.raises(ValueError):
        RngStream(seed=0, stream_index=-1)


def test_out_of_range_keys_rejected():
    # Masking to 64 bits would alias seed -1 with seed 2^64 - 1.
    RngStream(seed=2**64 - 1, stream_index=2**64 - 1)
    for seed, index in ((-1, 0), (2**64, 0), (0, 2**64)):
        with pytest.raises(ValueError):
            RngStream(seed=seed, stream_index=index)
    with pytest.raises(ValueError):
        draw_block(-1, 0, 2, 3, 4)
    with pytest.raises(ValueError):
        draw_block(0, 2**64 - 1, 2**64 + 1, 3, 4)


def test_sample_uniform_function_range():
    rng = split_stream(9, 0)
    seq = sample_uniform_function(5, 6, rng)
    assert seq.n == 5 and seq.m == 6
    assert all(1 <= v <= 6 for v in seq.values)
    with pytest.raises(ValueError):
        sample_uniform_function(0, 3, rng)


def test_shift_sequence_wraps_mod_n_plus_1():
    assert shift_sequence((1, 4, 2), 1) == (2, 1, 3)
    assert shift_sequence((1, 2, 3), 0) == (1, 2, 3)
    assert shift_sequence((4, 4, 4), 4) == (4, 4, 4)


def test_exactly_one_valid_shift_exhaustive():
    # Cycle lemma: each draw over [1, n+1]^n has a unique parking shift.
    for n in range(1, 6):
        for f in all_functions(n, n + 1):
            valid = [
                k
                for k in range(n + 1)
                if is_parking_function(shift_sequence(f, k, n), n)
            ]
            assert len(valid) == 1
            assert find_valid_shift(f, n) == valid[0]


def test_shift_map_is_exactly_uniform():
    for n in range(1, 4):
        hits = Counter(
            shift_sequence(f, find_valid_shift(f, n), n)
            for f in all_functions(n, n + 1)
        )
        assert len(hits) == count_pf(n)
        assert set(hits.values()) == {n + 1}


def test_vectorized_sampler_matches_scalar_path():
    # Both paths must consume the stream identically and agree bitwise.
    for n in (1, 2, 3, 7, 40):
        for rep in range(50):
            fast = sample_parking_function(n, RngStream(17, rep))
            raw = tuple(int(v) for v in np.asarray(RngStream(17, rep).integers(1, n + 1, size=n)))
            assert fast == shift_sequence(raw, oracles.find_valid_shift(raw, n), n)


def test_sample_parking_function_is_valid_and_deterministic():
    for n in (1, 5, 30):
        pf1 = sample_parking_function(n, split_stream(42, 3))
        pf2 = sample_parking_function(n, split_stream(42, 3))
        assert pf1 == pf2
        assert is_parking_function(pf1, n)


def test_sampler_frequencies_near_uniform():
    n, reps = 3, 16000
    hits = Counter(sample_parking_function(n, split_stream(5, i)) for i in range(reps))
    assert len(hits) == count_pf(n) == 16
    # 5 sigma for a binomial(16000, 1/16) count
    expected = reps / 16
    slack = 5 * (reps * (1 / 16) * (15 / 16)) ** 0.5
    for count in hits.values():
        assert abs(count - expected) <= slack


@given(
    st_h.integers(min_value=1, max_value=8),
    st_h.integers(min_value=0, max_value=2**63),
    st_h.integers(min_value=0, max_value=1000),
)
def test_sampled_functions_are_parking(n, seed, index):
    pf = sample_parking_function(n, split_stream(seed, index))
    assert is_parking_function(pf, n)


@given(st_h.lists(st_h.integers(min_value=1, max_value=7), min_size=1, max_size=6))
def test_find_valid_shift_property(values):
    n = len(values)
    f = tuple(min(v, n + 1) for v in values)
    k = find_valid_shift(f, n)
    assert 0 <= k <= n
    assert is_parking_function(shift_sequence(f, k, n), n)


_U64 = st_h.integers(min_value=0, max_value=2**64 - 1)


@given(_U64, st_h.integers(min_value=0, max_value=2**64 - 8), st_h.integers(1, 7),
       st_h.integers(1, 12),
       st_h.one_of(st_h.integers(1, 13), st_h.integers(2**31, 2**32 - 1)),
       st_h.sampled_from((0, sample.SLACK)))
def test_draw_block_rows_are_streams(seed, start, rows, n, high, slack):
    # A high of 2^31 or more skips up to half of the words; without slack
    # such rows often run out of words and are drawn again by numpy.
    with patch.object(sample, "SLACK", slack):
        block = draw_block(seed, start, start + rows, n, high)
    assert block.shape == (rows, n) and block.dtype == np.int64
    for r in range(rows):
        expected = RngStream(seed, start + r).integers(1, high, size=n)
        assert block[r].tolist() == expected.tolist()


def test_draw_block_rejects_high_outside_32_bits():
    draw_block(0, 0, 2, 3, 2**32 - 1)
    for high in (0, -1, 2**32):
        with pytest.raises(ValueError):
            draw_block(0, 0, 2, 3, high)


@given(_U64, st_h.lists(st_h.integers(1, 5), min_size=1, max_size=4), st_h.integers(1, 30))
def test_draw_block_is_independent_of_block_size(seed, pieces, n):
    bounds = np.cumsum([0] + pieces).tolist()
    whole = draw_block(seed, 0, bounds[-1], n, n + 1)
    stacked = np.vstack([draw_block(seed, a, b, n, n + 1) for a, b in zip(bounds, bounds[1:])])
    assert np.array_equal(whole, stacked)


@given(st_h.data(), st_h.integers(1, 9), st_h.integers(1, 6))
def test_shift_block_matches_scalar_shift(data, n, rows):
    funcs = data.draw(st_h.lists(st_h.lists(st_h.integers(1, n + 1), min_size=n, max_size=n),
                                 min_size=rows, max_size=rows))
    shifted = shift_block(np.array(funcs, dtype=np.int64), n)
    for f, row in zip(funcs, shifted.tolist()):
        assert tuple(row) == shift_sequence(f, oracles.find_valid_shift(f, n), n)
        assert is_parking_function(row, n)
