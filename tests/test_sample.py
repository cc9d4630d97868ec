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
from parkfn.enumeration import count_pf
from parkfn.sample import _walks, draw_block, shift_block
from parkfn.stats import RAW_DRAW_STATISTICS, STATISTICS


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


def test_non_integer_keys_rejected():
    # numpy truncates a float key word, so seed 1.5 or 1.0 would draw the
    # streams of seed 1; integer types of numpy key the same streams as ints
    for seed, index in ((1.5, 0), (1.0, 0), (np.float64(1), 0), (1, 0.0), (1, 2.5)):
        with pytest.raises(TypeError):
            RngStream(seed=seed, stream_index=index)
    for seed in (1.5, 1.0):
        with pytest.raises(TypeError):
            draw_block(seed, 0, 2, 3, 4)
    want = RngStream(1, 2).integers(1, 4, size=3)
    for seed, index in ((np.int64(1), np.uint64(2)), (np.uint8(1), np.int32(2))):
        assert (RngStream(seed, index).integers(1, 4, size=3) == want).all()
        assert (draw_block(seed, index, index + 1, 3, 4)[0] == want).all()


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
    assert shift_sequence((1, 2, 3), np.int64(2)) == (3, 4, 1)
    assert all(type(v) is int for v in shift_sequence((1, 2, 3), np.int64(2)))


def test_shift_sequence_rejects_non_integer_shifts():
    # a float k gave (1.5, 2.5, 3.5) for k = 0.5, and numpy floats for 2.0
    for k in (0.5, 2.0, np.float64(2)):
        with pytest.raises(TypeError):
            shift_sequence((1, 2, 3), k)


def test_exactly_one_valid_shift_exhaustive():
    # Cycle lemma: each draw over [1, n+1]^n has a unique parking shift.
    for n in range(1, 6):
        for f in oracles.all_functions(n, n + 1):
            valid = [
                k
                for k in range(n + 1)
                if is_parking_function(shift_sequence(f, k))
            ]
            assert len(valid) == 1
            assert find_valid_shift(f) == valid[0]


def test_shift_map_is_exactly_uniform():
    for n in range(1, 4):
        hits = Counter(
            shift_sequence(f, find_valid_shift(f))
            for f in oracles.all_functions(n, n + 1)
        )
        assert len(hits) == count_pf(n)
        assert set(hits.values()) == {n + 1}


def test_vectorized_sampler_matches_scalar_path():
    # Both paths must consume the stream identically and agree bitwise.
    for n in (1, 2, 3, 7, 40):
        for rep in range(50):
            fast = sample_parking_function(n, RngStream(17, rep))
            raw = tuple(int(v) for v in np.asarray(RngStream(17, rep).integers(1, n + 1, size=n)))
            assert fast == shift_sequence(raw, oracles.find_valid_shift(raw))


def test_sample_parking_function_is_valid_and_deterministic():
    for n in (1, 5, 30):
        pf1 = sample_parking_function(n, split_stream(42, 3))
        pf2 = sample_parking_function(n, split_stream(42, 3))
        assert pf1 == pf2
        assert is_parking_function(pf1)


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
    assert is_parking_function(pf)


@given(st_h.lists(st_h.integers(min_value=1, max_value=7), min_size=1, max_size=6))
def test_find_valid_shift_property(values):
    n = len(values)
    f = tuple(min(v, n + 1) for v in values)
    k = find_valid_shift(f)
    assert 0 <= k <= n
    assert is_parking_function(shift_sequence(f, k))


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


def test_draw_block_reaches_the_last_stream():
    # the block's one state dict is re-keyed up to stream index 2^64 - 1
    start = 2**64 - 3
    block = draw_block(5, start, 2**64, 6, 7)
    for r in range(3):
        assert block[r].tolist() == RngStream(5, start + r).integers(1, 7, size=6).tolist()


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
        assert tuple(row) == shift_sequence(f, oracles.find_valid_shift(f))
        assert is_parking_function(row)


def _assert_scores_the_shift(block, n, label=None):
    # each raw-draw kernel, on the raw block, gives the registry statistic of
    # the shifted rows: the same values in the same dtype; the block is left
    # as drawn
    raw = block.copy()
    shifted = shift_block(block.copy(), n)
    for stat, kernel in RAW_DRAW_STATISTICS.items():
        got, want = kernel(block, n, n), STATISTICS[stat](shifted, n, n)
        assert got.dtype == want.dtype and np.array_equal(got, want), (stat, n, label)
    assert np.array_equal(block, raw)


def test_raw_draw_statistics_match_shifted_rows_exhaustively():
    # every function [n] -> [n+1], in the column-major blocks of the oracle,
    # and each of them as a one-row block up to n = 4
    for n in range(1, 7):
        for block in oracles.function_blocks(n, n + 1):
            _assert_scores_the_shift(block, n)
            if n <= 4:
                for row in block:
                    _assert_scores_the_shift(row[None, :], n, row)


@given(st_h.integers(1, 300), st_h.integers(1, 50), st_h.integers(0, 2**32 - 1))
def test_raw_draw_statistics_match_shifted_blocks(n, rows, seed):
    # one-row and multi-row blocks of uniform draws
    block = np.random.default_rng(seed).integers(1, n + 2, size=(rows, n))
    _assert_scores_the_shift(block, n)


def test_raw_draw_statistics_at_the_rotation_edges():
    n = 6
    parking = [1, 4, 2, 1, 6, 3]  # already parking: first minimum W_{n+1} = -1
    no_ones = [2, 2, 7, 3, 2, 5]  # W_1 = -1: first minimum at column 1
    middle = [7, 7, 1, 1, 7, 1]  # W = 2, 1, 0, -1, -2, -3, -1
    rows = [parking, no_ones, middle]
    block = np.array(rows, dtype=np.int64)
    assert _walks(block, n)[1].tolist() == [n + 1, 1, n]
    assert sample.valid_shifts(block, n).tolist() == [0, n, 1]
    _assert_scores_the_shift(block, n)
    for row in rows:  # one-row blocks take two slices of the walk
        _assert_scores_the_shift(np.array([row]), n, row)
    # n = 1: [1] parks as it is, and [2] is shifted onto [1]
    one = np.array([[1], [2]], dtype=np.int64)
    assert _walks(one, 1)[1].tolist() == [2, 1]
    _assert_scores_the_shift(one, 1)
    for row in ([1], [2]):
        _assert_scores_the_shift(np.array([row]), 1, row)
    # all ones (J = n + 1), all twos (J = 1) and all n + 1 (J = n) beside a
    # uniform row
    rng = np.random.default_rng(3)
    for n in (16_383, 16_384):
        block = np.vstack([np.ones(n, dtype=np.int64), np.full(n, 2), np.full(n, n + 1),
                           rng.integers(1, n + 2, size=n)])
        assert _walks(block, n)[1].tolist()[:3] == [n + 1, 1, n]
        _assert_scores_the_shift(block, n)


def test_raw_draw_statistics_of_tall_blocks():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 15):
        _assert_scores_the_shift(rng.integers(1, n + 2, size=(1029, n)), n)


def test_raw_draw_statistics_of_one_long_row():
    # the one-row blocks of `run_experiment` from n = 32769 on, with both
    # rotation edges: J = n + 1 on all ones, J = 1 on all twos
    rng = np.random.default_rng(5)
    for n in (32_769, 100_000):
        for row in (rng.integers(1, n + 2, size=n), np.ones(n, dtype=np.int64),
                    np.full(n, 2), np.full(n, n + 1)):
            _assert_scores_the_shift(row[None, :], n)
