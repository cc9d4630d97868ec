"""Statistics of functions [n] -> [m]: one kernel per statistic, scored over
a block of functions at once, and the per-function API (descents, species,
lucky cars, runs, shuffles) that scores one function with the same kernels."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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
# harness scores blocks of samples with them, and the per-function API below
# scores one function as a one-row block.
#
# A kernel's result does not depend on the block's memory order.  Sampled
# blocks are row-major; the exhaustive sources (`ensemble.pf_blocks` and
# `function_blocks`) are column-major and tall, PF_n and [m]^n for n <= 8
# at 65536 // n rows a block.  Numpy loops along the short row axis of such a
# block one row at a time, so a few kernels work column by column, with n
# vector passes over all rows, once the block has enough rows to pay for the
# passes: `lucky` from 64 rows (_LUCKY_COLUMN_ROWS, for n + 1 and m below
# 64), `longest-run` from 512 (_RUN_COLUMN_ROWS), `sample.valid_shifts` from
# 1024 (its _SHIFT_COLUMN_ROWS, for n <= 15) and the bit-field keys of
# `ensemble._census` from 4096 (its _KEYS_COLUMN_ROWS).  Wide blocks (the
# Monte Carlo samples at n >= 100) keep the row forms.  The cutovers were
# timed on C- and Fortran-ordered random blocks with 4-60 columns (numpy
# 2.4, one core of a shared 2-core Xeon): both costs grow with n, so the
# crossover sits at a row count.

def _stat_first(block, n, m):
    return block[:, 0]


def _stat_area(block, n, m):
    return n * (n + 1) // 2 - block.sum(axis=1)


def _stat_scaled_area(block, n, m):
    return (n * n / 2 - block.sum(axis=1)) / n**1.5


# The bitmask sweep of `lucky` beats the row loop from 64 rows at every n it
# serves (at 32 rows it is 1.0-1.4 times the loop's time, at 64 rows 0.5-0.8).
_LUCKY_COLUMN_ROWS = 64


def _stat_lucky(block, n, m):
    if block.shape[0] >= _LUCKY_COLUMN_ROWS and max(n + 1, m) < 64:
        return _lucky_columns(block, n)
    # core.park without its outcome: park each row and count the cars
    # whose preferred spot is free; nxt[s] leads to the first free spot >= s
    # (path halving), and n + 1 stays free as the overflow sentinel.
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


def _stat_repeats(block, n, m):
    return np.count_nonzero(block[:, 1:] == block[:, :-1], axis=1)


def _stat_ones(block, n, m):
    return np.count_nonzero(block == 1, axis=1)


def _stat_descents(block, n, m):
    return np.count_nonzero(block[:, 1:] < block[:, :-1], axis=1)


def descent_pattern_statistic(relation: str) -> Callable:
    """Kernel of `descent_pattern`: X_i = 1 iff f_{i+1} rel f_i."""
    op = _RELATIONS[relation]
    return lambda block, n, m: op(block[:, 1:], block[:, :-1]).view(np.int8)


def _stat_species(block, n, m):
    # mu_r = number of values in [1, m] occurring exactly r times: row_counts
    # of the value counts, written out so that the value counts are freed
    # before the second bincount allocates.  Holding both made glibc hand the
    # block's memory back and fault it in again for every block (380 faults
    # and 0.9 ms of a 1.4 ms kernel per block of PF_8).
    rows = block.shape[0]
    flat = row_counts(block, m + 1)[:, 1:] + (np.arange(rows) * (n + 1))[:, None]
    return np.bincount(flat.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)


def _stat_inversions(block, n, m):
    # Pairs at distance d are compared for all rows at once: memory stays at
    # one block, the work is O(n^2) per row.  Column-major, so that each pass
    # is one contiguous compare and one add, in the narrowest dtypes: values
    # in [1, m] fit min_scalar_type(m), and acc[j] counts at most n - 1 pairs.
    cols = np.array(block.T, dtype=np.min_scalar_type(m), order="C")
    acc = np.zeros((n, block.shape[0]), dtype=np.int16 if n < 1 << 15 else np.int32)
    for d in range(1, n):
        acc[:n - d] += cols[:-d] > cols[d:]
    return acc.sum(axis=0, dtype=np.int64)


def _stat_max_discrepancy(block, n, m):
    # max(0, max_k #{i : f_i <= k} - k) over k = 1..m
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
}


# The running run length beats the row form from 512 rows (at 256 rows it
# takes 0.9-1.7 times the row form's time, at 512 rows 0.3-1.0).
_RUN_COLUMN_ROWS = 512


def longest_run_statistic(relation: str) -> Callable:
    """Kernel of `longest_run`.  Number the pairs (f_j, f_{j+1}) by
    j = 1..n-1: the run of pairs that hold the relation and end at pair j is
    j minus the last pair <= j that fails it (0 if none), and the longest run
    of values is one more than the longest run of pairs."""
    op = _RELATIONS[relation]

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


def statistic_kernel(statistic: str, relation: str = "<") -> Callable:
    """The kernel of a statistic: a registry entry, or longest-run under the
    relation.  Raises ValueError for an unknown statistic or relation."""
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if statistic == "longest-run":
        return longest_run_statistic(relation)
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    return STATISTICS[statistic]


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
    values lie in [1, n]."""
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
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if len(self.positions) < 2:
            raise ValueError("chains need at least 2 positions")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("chain positions must be distinct")
        if min(self.positions) < 1:
            raise ValueError("chain positions are 1-based")


@dataclass(frozen=True)
class ChainPoset:
    """Disjoint chains over positions, one relation per chain.

    Mixed relations within a chain are rejected by construction (they break
    equidistribution between the ensembles).
    """

    chains: tuple[Chain, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for chain in self.chains:
            for p in chain.positions:
                if p in seen:
                    raise ValueError("chains must be position-disjoint")
                seen.add(p)

    @property
    def positions(self) -> set[int]:
        return {p for c in self.chains for p in c.positions}


def _chains_hold(block: np.ndarray, chains: Sequence[Chain]) -> np.ndarray:
    """Row mask: every chain's relation holds along its consecutive positions."""
    holds = np.ones(block.shape[0], dtype=bool)
    for chain in chains:
        op = _RELATIONS[chain.relation]
        for a, b in zip(chain.positions, chain.positions[1:]):
            holds &= op(block[:, a - 1], block[:, b - 1])
    return holds


def chain_monotone(seq: Sequence[int], poset: ChainPoset) -> bool:
    """True iff every chain's relation holds along consecutive chain positions."""
    block, _m = row_block(seq)
    return _chains_hold(block, poset.chains)[0].tolist()
