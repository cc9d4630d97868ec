"""Statistics of functions [n] -> [m]: one kernel per statistic, scored over
a block of functions at once, and the per-function API (descents, species,
lucky cars, runs, shuffles) that scores one function with the same kernels."""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Optional, Sequence

import numpy as np

from .core import PrefSequence

_RELATIONS = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "=": operator.eq,
}


def _relation(relation: str) -> Callable:
    """The comparison named by `relation`; ValueError for any other name."""
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    return _RELATIONS[relation]


# One function is scored with values up to max(n + 1, MAX_VALUE): the kernels
# hold arrays of length m + 1.
MAX_VALUE = 1 << 20


# --- block primitives -----------------------------------------------------

def row_counts(block: np.ndarray, width: int) -> np.ndarray:
    """counts[r, v] = occurrences of value v in row r, for values in [0, width)."""
    rows = block.shape[0]
    if rows == 1:  # no offset copy of a long row
        return np.bincount(block[0], minlength=width).reshape(1, width)
    flat = block + (np.arange(rows) * width)[:, None]
    # in memory order: a column-major block is not copied
    return np.bincount(flat.ravel("K"), minlength=rows * width).reshape(rows, width)


def queue_profiles(block: np.ndarray, top: int) -> np.ndarray:
    """profiles[r, k-1] = #{i : block[r, i] <= k} - k for k = 1..top, for
    values in [1, top]; `core.queue_profile` of each row, without y_0."""
    profiles = row_counts(block, top + 1)[:, 1:]
    profiles -= 1
    return np.cumsum(profiles, axis=1, out=profiles)


# --- statistics registry --------------------------------------------------
#
# Each statistic is one kernel over a block of functions: an int64 array of
# shape (rows, n), one function per row, with values in [1, m].  A kernel
# returns a numpy array with one entry per row: 1-D for a scalar statistic,
# 2-D integer (one row per function) for a tuple-valued one.  The experiment
# harness scores blocks of samples with them (on pf, the statistics of
# RAW_DRAW_STATISTICS below score the draws before the shift instead), and
# the per-function API scores one function as a one-row block.
#
# A kernel's result does not depend on the block's memory order.  Sampled
# blocks are row-major; the exhaustive sources that `ensemble._exhaustive_source`
# picks by name (for the names of `compares_only` the weak-order types of
# `ensemble._type_rows`, for `lucky` on PF_n every row of
# `ensemble.pf_blocks`, and for the rest the sorted rows of
# `enumeration._sorted_blocks`, split by their first `ordered_prefix`
# entries) are column-major and tall, at up to 65536 // n rows a block.
# Numpy loops along the short row axis of such a block one row at a time,
# so a few kernels work column by column, with n vector passes over all
# rows, once the block has enough rows to pay for the passes: `lucky` from
# 256 rows (_LUCKY_COLUMN_ROWS, for n + 1 and m below 64; from 64 rows below
# 512 cars, _LUCKY_SWEEP_ROWS), `longest-run` from
# 512 (_RUN_COLUMN_ROWS) and the bit-field keys of `ensemble._census` from
# 4096 (its _KEYS_COLUMN_ROWS).  `_census` also narrows its sort keys from
# 1024 keys (`ensemble._NARROW_KEYS`).  Wide blocks (the Monte Carlo samples
# at n >= 100) keep the row forms, but for `lucky`: from 8 rows and 512 cars
# at n below 256 it parks one car in every row with one add on a Python int
# that holds all the rows (`_lucky_bits`; its cutovers are timed beside
# _LUCKY_COLUMN_ROWS).  The column cutovers were timed on C- and
# Fortran-ordered random blocks with 3-60 columns (numpy 2.4, one core of a
# shared 2-core Xeon): both costs grow with n, so the crossover sits at a
# row count.  `species` has only its row form: exhaustive counts score it on
# the sorted rows alone, and a column form saved about 1% of `run_experiment`
# on tall sampled blocks (n = 5-15).

def _stat_first(block, n, m):
    return block[:, 0]


def _area(total, n):
    return n * (n + 1) // 2 - total


def _scaled_area(total, n):
    return (n * n / 2 - total) / n**1.5


def _stat_area(block, n, m):
    return _area(block.sum(axis=1), n)


def _stat_scaled_area(block, n, m):
    return _scaled_area(block.sum(axis=1), n)


# `lucky` has three forms, picked by the block's shape:
# - the bitmask sweep (`_lucky_columns`, each row's spots in an int64), for
#   n + 1 and m below 64: from 256 rows, and from 64 rows on blocks of fewer
#   than 512 cars, which the int form does not take.  From 64 rows it beats
#   the row loop at every n it serves (at 32 rows it is 1.0-1.4 times the
#   loop's time, at 64 rows 0.5-0.8: 22 against 41 us at n = 4);
# - the bit-parallel int (`_lucky_bits`, every row's spots in one Python int)
#   from 8 rows and 512 cars (rows x n), for n below 256;
# - the row loop (`_lucky_rows`) for the rest: few rows or cars, and n from
#   256, such as one-row blocks and 4 rows at n = 10^4.
# The loop's time over the int form's on random PF blocks (the median over 5
# blocks, 2 of them column-major, of the best of 11 runs of 20 calls; numpy
# 2.4, one core of a shared 2-core Xeon):
#     rows \ n    32    48    64   100   150   200   255
#         6     0.73  0.88  0.91  1.02  0.99  1.00  0.92
#         7     0.84  0.98  1.04  1.14  1.14  1.08  1.03
#         8     0.87  1.05  1.16  1.25  1.26  1.18  1.06
#        16     1.79  1.94  2.04  2.05  1.85  1.57  1.13
# and, row-major and best of 9, at 16-32 columns (where 8 rows read
# 0.64-0.75 and 16 rows 1.14-1.99) and on more rows and wider blocks:
#     rows \ n          16    32    64   100   200   256   400   600  1000
#        100          3.32  3.36  3.69  2.88  1.90  1.62  1.52  1.50  0.88
#        65536 // n   7.55  6.51  5.30  4.29  2.61  2.21  1.65  1.25  0.93
# On 8 rows the int form stays near parity from n = 200 to 400 (0.8-1.2
# over repeated runs) and loses from n = 600 (0.7-0.8), hence n below 256.
# The sweep's time and the int form's, in us (best of 7 runs of 20 calls,
# same machine):
#     n \ rows     64      128      256      512
#        8       35/21    37/27    40/39    50/65
#       32      130/48   137/77  172/142  195/264
#       62      246/98  257/207  327/350  421/788
# so the two meet near 256 rows; on 1024 rows, the exhaustive sources' tall
# blocks, the sweep takes 0.35-0.5 times the int form's time.
_LUCKY_COLUMN_ROWS = 256
_LUCKY_SWEEP_ROWS = 64
_LUCKY_BITS_ROWS = 8
_LUCKY_BITS_CARS = 512
_LUCKY_BITS_N = 256
_LUCKY_BITS_CHUNK = 1 << 16  # bytes of car masks a chunk: below glibc's mmap threshold


def _stat_lucky(block, n, m):
    rows = block.shape[0]
    bits = rows >= _LUCKY_BITS_ROWS and rows * n >= _LUCKY_BITS_CARS and n < _LUCKY_BITS_N
    if max(n + 1, m) < 64 and rows >= (_LUCKY_COLUMN_ROWS if bits else _LUCKY_SWEEP_ROWS):
        return _lucky_columns(block, n)
    if bits:
        return _lucky_bits(block, n, m)
    return _lucky_rows(block, n)


def _lucky_rows(block, n):
    """`_stat_lucky` row by row: `core.park` without its outcome, counting
    the cars whose preferred spot is free.  nxt[s] leads to the first free
    spot >= s (path halving), and n + 1 stays free as the overflow sentinel."""
    counts = []
    for row in block.tolist():
        nxt = list(range(n + 2))
        count = 0
        for p in row:
            s = nxt[p]
            if s == p:
                count += 1
            else:
                while nxt[s] != s:
                    nxt[s] = s = nxt[nxt[s]]
            if s > n:
                raise ValueError("lucky requires a parking function")
            nxt[s] = s + 1
        counts.append(count)
    return np.array(counts, dtype=np.int64)


def _lucky_columns(block, n):
    """`_stat_lucky` car by car over all rows at once, for n + 1 and the
    values below 64: bit s of occupied[r] is set once spot s of row r is
    taken.  A car takes the lowest free spot >= its preference p, the lowest
    set bit of ~occupied >> p; spots past n are never kept, so an overflowing
    car leaves one of spots 1..n empty for good."""
    rows = block.shape[0]
    full = (2 << n) - 2  # spots 1..n
    occupied = np.zeros(rows, dtype=np.int64)
    lucky = np.zeros(rows, dtype=np.int64)
    free = np.empty(rows, dtype=np.int64)
    spot = np.empty(rows, dtype=np.int64)
    for p in block.T:
        np.invert(occupied, out=free)
        np.right_shift(free, p, out=free)  # bit 0: spot p itself is free
        lucky += free & 1
        np.negative(free, out=spot)
        spot &= free
        np.left_shift(spot, p, out=spot)
        occupied |= spot
        occupied &= full
    if (occupied != full).any():
        raise ValueError("lucky requires a parking function")
    return lucky


def _lucky_bits(block, n, m):
    """`_stat_lucky` car by car over all rows at once, with every row's spots
    in one Python int: row r holds bits [8wr, 8w(r + 1)), w bytes enough for
    every value, and bit s of its field is set once spot s is taken.  Adding
    the cars' bits 1 << p to the taken spots carries each one over the taken
    spots from p to the first free one, so one add parks a car in every row,
    and a car is lucky iff its own bit is set in the sum.  Spot 0 and those
    past n are guards: an overflowing car sets one (or carries past one that
    is set) and bits are never cleared, so the int ends as exactly the spots
    1..n of every row iff every row is a parking function."""
    rows = block.shape[0]
    w = max(n + 1, m) // 8 + 1
    size = rows * w
    step = max(1, _LUCKY_BITS_CHUNK // size)  # columns a chunk
    fields = np.arange(0, size, w)[:, None]
    occupied = lucky = 0
    for start in range(0, n, step):
        cols = block[:, start:start + step]
        end = cols.shape[1] * size
        # one little-endian int per car: the bytes of its bit in each row
        masks = np.zeros(end, dtype=np.uint8)
        masks[(cols >> 3) + (np.arange(0, end, size) + fields)] = np.left_shift(1, cols & 7)
        view = memoryview(masks)
        for i in range(0, end, size):
            add = int.from_bytes(view[i:i + size], "little")
            parked = occupied + add
            lucky |= add & parked
            occupied |= parked
    if occupied != int.from_bytes(((2 << n) - 2).to_bytes(w, "little") * rows, "little"):
        raise ValueError("lucky requires a parking function")
    lucky_fields = np.frombuffer(lucky.to_bytes(size, "little"), dtype=np.uint8).reshape(rows, w)
    return np.unpackbits(lucky_fields, axis=1).sum(axis=1, dtype=np.int64)


def _stat_repeats(block, n, m):
    return np.count_nonzero(block[:, 1:] == block[:, :-1], axis=1)


def _stat_ones(block, n, m):
    return np.count_nonzero(block == 1, axis=1)


def _stat_descents(block, n, m):
    return np.count_nonzero(block[:, 1:] < block[:, :-1], axis=1)


def descent_pattern_statistic(relation: str) -> Callable:
    """Kernel of `descent_pattern`: X_i = 1 iff f_{i+1} rel f_i."""
    op = _relation(relation)
    return lambda block, n, m: op(block[:, 1:], block[:, :-1]).view(np.int8)


def _stat_species(block, n, m):
    # mu_r = number of values in [1, m] occurring exactly r times: row_counts
    # of the value counts, written out so that the value counts are freed
    # before the second bincount allocates.  Holding both made glibc hand the
    # block's memory back and fault it in again for every block (380 faults
    # and 0.9 ms of a 1.4 ms kernel on each 8192 x 8 block of a full scan of
    # PF_8).
    rows = block.shape[0]
    flat = row_counts(block, m + 1)[:, 1:] + (np.arange(rows) * (n + 1))[:, None]
    return np.bincount(flat.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)


def _stat_inversions(block, n, m):
    # Pairs at distance d are compared for all rows at once: memory stays at
    # one block, the work is O(n^2) per row.  Column-major, so that each pass
    # is one contiguous compare into a reused buffer and one add, in the
    # narrowest dtypes: values in [1, m] fit min_scalar_type(m), and acc[j]
    # counts at most n - 1 pairs (uint8 through n = 256, where the add of
    # the compare's uint8 view needs no cast).
    cols = np.array(block.T, dtype=np.min_scalar_type(m), order="C")
    acc = np.zeros((n, block.shape[0]), dtype=np.min_scalar_type(n - 1))
    greater = np.empty((n - 1, block.shape[0]), dtype=bool)
    for d in range(1, n):
        np.greater(cols[:-d], cols[d:], out=greater[:n - d])
        acc[:n - d] += greater[:n - d].view(np.uint8)
    return acc.sum(axis=0, dtype=np.int64)


def _stat_max_discrepancy(block, n, m):
    # max(0, max_k P_k) of the queue profiles P_k = #{i : f_i <= k} - k
    return np.maximum(queue_profiles(block, m).max(axis=1), 0)


def _stat_scaled_max_discrepancy(block, n, m):
    return _stat_max_discrepancy(block, n, m) / math.sqrt(n)


def _stat_kmax(block, n, m):
    # max_first_coordinate of each suffix f_2..f_n, 0 where none exists:
    # g(i) = #{suffix <= i} - i must stay >= -1 (a suffix value n + 1 makes
    # g(n) <= -2), and k is the first i with g(i) = -1 (n if there is none).
    g = queue_profiles(block[:, 1:], m)[:, :n]
    at_floor = g == -1
    k = np.where(at_floor.any(axis=1), at_floor.argmax(axis=1) + 1, n)
    return np.where(g.min(axis=1) >= -1, k, 0)


# The running run length beats the row form from 512 rows (at 256 rows it
# takes 0.9-1.7 times the row form's time, at 512 rows 0.3-1.0).
_RUN_COLUMN_ROWS = 512


def longest_run_statistic(relation: str) -> Callable:
    """Kernel of `longest_run`.  Number the pairs (f_j, f_{j+1}) by
    j = 1..n-1: the run of pairs that hold the relation and end at pair j is
    j minus the last pair <= j that fails it (0 if none), and the longest run
    of values is one more than the longest run of pairs."""
    op = _relation(relation)

    def kernel(block, n, m):
        if block.shape[0] >= _RUN_COLUMN_ROWS:  # the run ending at each pair, pair by pair
            run = np.zeros(block.shape[0], dtype=np.int64)
            longest = np.zeros_like(run)
            for j in range(1, n):
                run += 1
                run *= op(block[:, j - 1], block[:, j])
                np.maximum(longest, run, out=longest)
            return longest + 1
        pairs = np.arange(1, n)
        fails = np.where(op(block[:, :-1], block[:, 1:]), 0, pairs)
        runs = pairs - np.maximum.accumulate(fails, axis=1)
        return runs.max(axis=1, initial=0) + 1

    return kernel


STATISTICS: dict[str, Callable] = {
    "first": _stat_first,
    "area": _stat_area,
    "scaled-area": _stat_scaled_area,
    "lucky": _stat_lucky,
    "repeats": _stat_repeats,
    "ones": _stat_ones,
    "descents": _stat_descents,
    "descent-pattern": descent_pattern_statistic("<"),
    "species": _stat_species,
    "inversions": _stat_inversions,
    "max-discrepancy": _stat_max_discrepancy,
    "scaled-max-discrepancy": _stat_scaled_max_discrepancy,
    "kmax": _stat_kmax,
    # longest-run under each relation, named by it: "longest-run" for "<",
    # then "longest-run>", "longest-run<=", "longest-run>=" and "longest-run="
    **{"longest-run" + ("" if r == "<" else r): longest_run_statistic(r) for r in _RELATIONS},
}


# The names whose kernel reads only its first p entries in order and the
# rest as a multiset, so that every arrangement of the rest scores alike:
# p = 0 for the order-free statistics, 1 for `first` and `kmax` (f_1 and the
# multiset of f_2..f_n), 2 for forced-gap; every other name reads all n.
_ORDERED_PREFIXES = {"area": 0, "scaled-area": 0, "ones": 0, "species": 0,
                     "max-discrepancy": 0, "scaled-max-discrepancy": 0,
                     "first": 1, "kmax": 1, "forced-gap": 2}


def ordered_prefix(name: str, n: int) -> int:
    """The number of leading entries of a function [n] -> [m] whose order the
    kernel of a name reads; it reads the entries after them as a multiset.
    Exact laws score the sorted rows split by that many entries
    (`ensemble._exhaustive_source`)."""
    return min(n, _ORDERED_PREFIXES.get(name, n))


# The statistics that only compare entries, so that a row scores as its
# weak-order type does (each value replaced by its rank among the row's
# distinct values): their exact laws (`ensemble.exhaustive_histogram` on
# every ensemble, `exact_equidistribution`) score each type once, weighted
# by its rows in the ensemble (`ensemble._type_rows`; see `compares_only`).
COMPARISON_STATISTICS = frozenset({"repeats", "descents", "descent-pattern", "inversions",
                                   *(name for name in STATISTICS
                                     if name.startswith("longest-run"))})


# --- statistics of the cycle-lemma shift, read from the draw ----------------
#
# `sample.shift_block` maps a draw f in [n+1]^n into PF_n by adding
# k = n + 1 - J to every value mod n + 1, where J is the first minimum of
# the walk (`_walks`).  The shift sends a value v > J to v - J and v <= J to
# v + k, so several statistics of the shifted row follow from the draw, J
# and the walk, and the harness scores sampled parking functions with these
# kernels on the raw draws (`ensemble._sample_source`).  Each kernel maps a
# raw block of [n+1]^n to the registry statistic of its shifted rows, with
# the same values and dtypes; the other statistics read the order of the
# values and score the shifted rows.

def _walks(block: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's walk W_j = #{i : f_i <= j} - j, j = 1..n+1, of a block of
    functions [n] -> [n+1], and the 1-based column J of its first minimum.
    Its steps c_j - 1 sum to W_{n+1} = -1."""
    walk = queue_profiles(block, n + 1)
    return walk, np.argmin(walk, axis=1) + 1


def _draw_first(block, n, m):
    return (block[:, 0] + n - _walks(block, n)[1]) % (n + 1) + 1


def _shifted_sums(block, n):
    # sum(f) + n k - (n + 1)(n - W_J - J), with #{f_i <= J} = W_J + J values
    # gaining k and the others losing J: sum(f) + J + (n + 1) W_J
    walk, first = _walks(block, n)
    return block.sum(axis=1) + first + (n + 1) * walk[np.arange(block.shape[0]), first - 1]


def _draw_area(block, n, m):
    return _area(_shifted_sums(block, n), n)


def _draw_scaled_area(block, n, m):
    return _scaled_area(_shifted_sums(block, n), n)


def _draw_max_discrepancy(block, n, m):
    # the shifted row's profile is the walk rotated at J (the discrete
    # Vervaat transform): W_{J+i} - W_J for i <= n + 1 - J, then
    # W_{i+J-n-1} - W_J - 1.  Its last value P_n is 0 (at j = J - 1, or at
    # j = n + 1 when J = 1), so the maximum needs no floor at 0.
    walk, first = _walks(block, n)
    if block.shape[0] == 1:  # two slices of the walk
        j, w = first[0], walk[0]
        top = w[j - 1:].max()
        if j > 1:
            top = max(top, w[:j - 1].max() - 1)
        return np.array([top - w[j - 1]])
    low = walk[np.arange(block.shape[0]), first - 1]
    walk -= np.arange(1, n + 2) < first[:, None]
    return walk.max(axis=1) - low


def _draw_scaled_max_discrepancy(block, n, m):
    return _draw_max_discrepancy(block, n, m) / math.sqrt(n)


def _draw_ones(block, n, m):
    # the value the shift sends to 1 is J + 1, or 1 when J = n + 1
    return np.count_nonzero(block == (_walks(block, n)[1] % (n + 1) + 1)[:, None], axis=1)


def _draw_species(block, n, m):
    # the shift permutes the values [1, n+1] cyclically, and the value it
    # sends to n + 1 occurs 0 times: one more mu_0 than on [1, n]
    mu = _stat_species(block, n, n + 1)
    mu[:, 0] -= 1
    return mu


# The statistics that `run_experiment` scores on pf draws without the
# shift, as kernels of the raw block; equal pairs stay equal under the
# shift, so `repeats` is its row kernel.
RAW_DRAW_STATISTICS: dict[str, Callable] = {
    "first": _draw_first,
    "area": _draw_area,
    "scaled-area": _draw_scaled_area,
    "repeats": _stat_repeats,
    "ones": _draw_ones,
    "species": _draw_species,
    "max-discrepancy": _draw_max_discrepancy,
    "scaled-max-discrepancy": _draw_scaled_max_discrepancy,
}


# --- one function ---------------------------------------------------------

def row_block(seq: Sequence[int], m: Optional[int] = None) -> tuple[np.ndarray, int]:
    """seq as a one-row int64 block, with its codomain bound m (by default
    max(n, largest value)).  Raises ValueError for an empty sequence, a value
    outside [1, m], or m above max(n + 1, MAX_VALUE)."""
    v = tuple(seq)
    n = len(v)
    if not n:
        raise ValueError("a function needs at least one value")
    low, high = min(v), max(v)
    if m is None:
        m = max(n, high)
    if m > max(n + 1, MAX_VALUE):
        raise ValueError(f"codomain bound {m} is too large: values may reach "
                         f"max(n + 1, {MAX_VALUE})")
    if low < 1 or high > m:
        raise ValueError(f"value {low if low < 1 else high} outside [1, {m}]")
    return np.fromiter(map(operator.index, v), dtype=np.int64, count=n)[None, :], m


def _score(kernel: Callable, seq: Sequence[int], m: Optional[int] = None):
    """The kernel's value on one function, as a Python value."""
    block, m = row_block(seq, m)
    return kernel(block, block.shape[1], m)[0].tolist()


def repeats(seq: Sequence[int]) -> int:
    """Number of adjacent equal pairs, reading left to right."""
    return _score(_stat_repeats, seq)


def lucky(pf: Sequence[int]) -> int:
    """Number of cars parking exactly at their preferred spot (always >= 1).
    Raises ValueError unless pf is a parking function."""
    v = tuple(pf)
    return _score(_stat_lucky, v, len(v))


def value_counts(seq: Sequence[int]) -> dict[int, int]:
    """Exact multiplicity of each value present in the sequence."""
    counts: dict[int, int] = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
    return counts


def ones(seq: Sequence[int]) -> int:
    """Number of coordinates equal to 1."""
    return _score(_stat_ones, seq)


def descent_pattern(seq: Sequence[int], relation: str = "<") -> tuple[int, ...]:
    """Binary pattern X_1..X_{n-1} with X_i = 1 iff seq_{i+1} rel seq_i.

    relation "<" gives descents (strict drop), "=" the equality pattern,
    "<=" the weak-descent pattern; ">" and ">=" give the reversed analogs.
    """
    return tuple(_score(descent_pattern_statistic(relation), seq))


def descents(seq: Sequence[int]) -> int:
    """Total number of descents."""
    return _score(_stat_descents, seq)


def species(seq: Sequence[int], m: Optional[int] = None) -> tuple[int, ...]:
    """Species vector (mu_0, ..., mu_n): mu_r = number of codomain values
    occurring exactly r times.  Satisfies sum mu_r = m, sum r*mu_r = n.
    The codomain bound m defaults to that of a PrefSequence, else to n."""
    v = tuple(seq)
    if m is None:
        m = seq.m if isinstance(seq, PrefSequence) else len(v)
    return tuple(_score(_stat_species, v, m))


def inversions(seq: Sequence[int]) -> int:
    """Number of pairs i < j with seq_i > seq_j."""
    return _score(_stat_inversions, seq)


def longest_run(seq: Sequence[int], relation: str = "<") -> int:
    """Length (in values) of the longest consecutive run under the relation."""
    return _score(longest_run_statistic(relation), seq)


def max_discrepancy(pf: Sequence[int]) -> int:
    """max_k #{i : pi_i <= k} - k, i.e. the maximum of the queue profile;
    values lie in [0, n - 1]: 0 on a permutation, n - 1 on (1, ..., 1)."""
    v = tuple(pf)
    return _score(_stat_max_discrepancy, v, len(v))


def scaled_area(pf: Sequence[int]) -> float:
    """(n^2/2 - sum pi_i) / n^{3/2}; converges to the Airy area law."""
    return _score(_stat_scaled_area, pf)


@dataclass(frozen=True)
class ShuffleDecomposition:
    """Witness that a suffix is a shuffle of alpha and beta + (k, ..., k),
    where k is the maximal feasible first coordinate.

    alpha collects the values <= k-1 (a parking function of size k-1) and
    beta the values >= k+1 shifted down by k (a parking function of size
    n-k); a suffix whose maximal feasible first coordinate is k never
    contains the value k itself.
    """

    k: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    interleaving: tuple[int, ...]  # 1-based positions (in the suffix) of alpha


def max_first_coordinate(suffix: Sequence[int]) -> Optional[ShuffleDecomposition]:
    """Largest k such that (k, suffix) is a parking function, with the
    canonical value-threshold decomposition; None if no prefix works."""
    v = tuple(suffix)
    n = len(v) + 1
    counts = [0] * (n + 1)
    for x in v:
        if not 1 <= x <= n:
            return None
        counts[x] += 1
    # g(i) = #{suffix <= i} - i; (j, suffix) valid iff g >= -1 everywhere
    # and g(i) = -1 only at i >= j.
    k = n
    running = 0
    for i in range(1, n + 1):
        running += counts[i]
        g = running - i
        if g <= -2:
            return None
        if g == -1:
            k = min(k, i)
    alpha = tuple(x for x in v if x <= k - 1)
    beta = tuple(x - k for x in v if x >= k)
    interleaving = tuple(i for i, x in enumerate(v, start=1) if x <= k - 1)
    return ShuffleDecomposition(k=k, alpha=alpha, beta=beta, interleaving=interleaving)


@dataclass(frozen=True)
class Chain:
    """An ordered chain of distinct positions with one relation symbol."""

    positions: tuple[int, ...]
    relation: str

    def __post_init__(self) -> None:
        _relation(self.relation)
        if len(self.positions) < 2:
            raise ValueError("chains need at least 2 positions")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("chain positions must be distinct")
        if min(self.positions) < 1:
            raise ValueError("chain positions are 1-based")


# A chain expression's relation symbols, the two-character ones first.
_LINK = re.compile(r"(<=|>=|<|>|=)")


def parse_chains(expression: str) -> tuple[Chain, ...]:
    """The chains of an expression: positions joined by relations, chains
    separated by ";", as in "1<3<5;2<=4".  Each maximal run of one relation
    in a part is one Chain, so the strict peak at 3, "2<3>4", is the chains
    2<3 and 3>4.  Raises ValueError, naming the expression, if it is
    malformed."""
    chains = []
    for part in expression.split(";"):
        tokens = _LINK.split(part)
        if len(tokens) < 3 or not all(p.isascii() and p.isdigit() for p in tokens[::2]):
            raise ValueError(f"{expression!r} is not a chain expression such as '1<3;2>=4'")
        positions = [int(p) for p in tokens[::2]]
        start = 0
        for relation, links in groupby(tokens[1::2]):
            stop = start + len(list(links))
            try:
                chains.append(Chain(tuple(positions[start:stop + 1]), relation))
            except ValueError as exc:
                raise ValueError(f"chain expression {expression!r}: {exc}") from None
            start = stop
    return tuple(chains)


def _chains_hold(block: np.ndarray, chains: Sequence[Chain]) -> np.ndarray:
    """Row mask: every chain's relation holds along its consecutive positions."""
    holds = np.ones(block.shape[0], dtype=bool)
    for chain in chains:
        op = _RELATIONS[chain.relation]
        for a, b in zip(chain.positions, chain.positions[1:]):
            holds &= op(block[:, a - 1], block[:, b - 1])
    return holds


# --- every name: statistics and features ------------------------------------
#
# `statistic_kernel` resolves every name that `run_experiment`,
# `exhaustive_histogram`, `exact_equidistribution` and the CLI take.  It looks
# a registry entry up at call time, so an entry replaced in STATISTICS (as in
# perfbench's traced runs) is replaced for every caller.

# The descent patterns under "=" and "<=", beside the registry's "<".
_PATTERN_RELATIONS = {"equality-pattern": "=", "weak-descent-pattern": "<="}

# The features (f_{i-1} r f_i, f_i r' f_{i+1}) at a position i in [2, n-1],
# each an alias of its chain expression and named with its position:
# "weak-peak@3" is "2<3>=4", the weak peak at i = 3.  The strict peak and the
# mixed chain are negative controls: their laws on PF_n and [n+1]^n differ,
# as do those of forced-gap and non-disjoint-chain.  The weak peak does not
# meet the theorem's hypothesis (its two chains share position i), but its
# law is the same: it is a rise f_{i-1} < f_i minus a double rise
# f_{i-1} < f_i < f_{i+1}, two disjoint-chain events, each equidistributed.
_PEAKS = {"strict-peak": "{}<{}>{}", "mixed-chain": "{}<={}<{}", "weak-peak": "{}<{}>={}"}

# The chains 1<2<3 and 4<2<5 share position 2.
_ALIASES = {"non-disjoint-chain": "1<2<3;4<2<5"}

# A name is a chain expression only if it starts with a position and a
# relation symbol: "1<3;2" is malformed, "longest-run>>" an unknown name.
_EXPRESSION_START = re.compile(r"[0-9]+[<>=]")


def statistic_kernel(name: str, n: int) -> Callable:
    """The kernel of a name, for functions [n] -> [m]: a registry statistic,
    a pattern of _PATTERN_RELATIONS, forced-gap, a peak of _PEAKS at a
    position, an alias of _ALIASES or a chain expression (`parse_chains`).
    Raises ValueError, naming the feature, for a peak without a position in
    [2, n-1], a position on any other name, a chain position beyond n or a
    name that is none of these."""
    if name in STATISTICS:
        return STATISTICS[name]
    if name in _PATTERN_RELATIONS:
        return descent_pattern_statistic(_PATTERN_RELATIONS[name])
    if name == "forced-gap":
        if n < 2:
            raise ValueError("forced-gap needs n >= 2")
        return lambda block, n, m: block[:, 0] < block[:, 1] - 1
    peak, at, position = name.partition("@")
    if peak in _PEAKS:
        if not (position.isdecimal() and 2 <= int(position) <= n - 1):
            raise ValueError(f"feature {name!r} needs a position in [2, n-1] "
                             f"(n = {n}), as in {peak}@2")
        i = int(position)
        expression = _PEAKS[peak].format(i - 1, i, i + 1)
    elif at:
        raise ValueError(f"feature {name!r}: only a peak takes a position")
    elif name in _ALIASES:
        expression = _ALIASES[name]
    elif _EXPRESSION_START.match(name):
        expression = name
    else:
        raise ValueError(f"unknown feature {name!r}: no statistic, pattern, alias "
                         "or chain expression has that name")
    chains = parse_chains(expression)
    beyond = max(p for c in chains for p in c.positions)
    if beyond > n:
        raise ValueError(f"feature {name!r}: chain position {beyond} is beyond n = {n}")
    return lambda block, n, m: _chains_hold(block, chains)


def compares_only(name: str) -> bool:
    """Whether the kernel of a name only compares entries, so that a row
    scores as its weak-order type does: a statistic of COMPARISON_STATISTICS
    or any feature but forced-gap."""
    return name in COMPARISON_STATISTICS if name in STATISTICS else name != "forced-gap"
