"""Monte Carlo experiment harness and exact ensemble-comparison checks.

The "equivalence of ensembles" engine: seeded, reproducible experiments over
uniform parking functions or uniform functions, exact equidistribution
checks between PF_n and the (n+1)-codomain ensemble, and distribution
distances (total variation, Kolmogorov-Smirnov).
"""

from __future__ import annotations

import marshal
import math
import operator
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional

import numpy as np

from . import stats as st
from .core import BLOCK_ELEMENTS
from .enumeration import (DEFAULT_ENUM_LIMIT, _leading_splits, _pf_rows, _sorted_blocks,
                          _table_arrangement_blocks, check_enumeration_size, count_pf)
from .sample import _U64, draw_block, shift_block
# ensemble.STATISTICS is the registry dict itself, so that patching one of its
# entries (as perfbench's traced runs do) patches it for every caller.
from .stats import STATISTICS, statistic_kernel

ENSEMBLES = ("pf", "fn", "fn1")


# --- experiment harness ---------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    count: int
    seed: int
    ensemble: str = "pf"
    statistic: str = "first"

    def __post_init__(self) -> None:
        # plain ints: a float raises TypeError (seed 1.5 would alias seed 1's
        # streams), and a numpy int would reach the shift and the JSON output
        for name in ("n", "count", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n < 1 or self.count < 1:
            raise ValueError("n and count must be >= 1")
        _check_streams(self.count)
        if not 0 <= self.seed < _U64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        statistic_kernel(self.statistic, self.n)
        _check_defined(self.statistic, self.ensemble, self.n)


@dataclass
class Histogram:
    """Experiment output: exact integer bin counts of the observed values.
    A sampled histogram has a seed; an exhaustive one has seed None."""

    n: int
    statistic: str
    ensemble: str
    seed: Optional[int]
    bins: dict[Hashable, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.bins.values())

    @property
    def count(self) -> int | str:
        """The sample count, or "exhaustive" for an exhaustive histogram."""
        return "exhaustive" if self.seed is None else self.total

    @property
    def summaries(self) -> dict[str, float]:
        """Mean, variance and quantiles of the numeric values the bins expand
        to (`{}` if there are none): bit for bit their `statistics.fmean`,
        `statistics.pvariance` and rank quantiles."""
        numeric = sorted((v, c) for v, c in self.bins.items() if c and isinstance(v, (int, float)))
        return _summaries(numeric) if numeric else {}

    def probabilities(self) -> dict[Hashable, float]:
        total = self.total
        return {k: c / total for k, c in self.bins.items()}

    def values(self) -> list:
        out = []
        for v, c in self.bins.items():
            out.extend([v] * c)
        return out

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "statistic": self.statistic,
            "ensemble": self.ensemble,
            "seed": self.seed,
            "count": self.count,
            "bins": [
                {"value": list(v) if isinstance(v, tuple) else v, "count": c}
                for v, c in _str_sorted(self.bins.items(), key=itemgetter(0))
            ],
            "summaries": self.summaries,
        }


# _STR_RANK[v] is the rank of str(v) among str(0), ..., str(255).
_STR_RANK = np.frombuffer(bytes(map(sorted(range(256), key=str).index, range(256))), dtype=np.uint8)


def _str_sorted(items: Iterable, key: Callable = lambda item: item) -> list:
    """The items in the order of `sorted(items, key=lambda x: str(key(x)))`,
    the order of JSON bins, without formatting each key when the keys allow
    it (see `_byte_keys`)."""
    items = list(items)
    byte_keys = _byte_keys(list(map(key, items)))
    if byte_keys is None:
        return sorted(items, key=lambda item: str(key(item)))
    return list(map(items.__getitem__, np.argsort(byte_keys, kind="stable").tolist()))


def _byte_keys(keys: list) -> Optional[np.ndarray]:
    """Sort keys in the order of `str`, as one bytes array, or None, for
    tuples of one length whose entries are ints in [0, 256).  Such strings
    compare entry by entry as decimal strings: at the first entry that
    differs, a string that is a prefix of the other is followed by "," or
    ")", both below any digit.  So the entries' ranks under _STR_RANK, as
    bytes, give their order.

    Anything else keeps `str`: other lengths (`(1,)` sorts after `(1, 2)`),
    entries outside [0, 256), scalars, nested tuples, and entries that print
    otherwise, such as bools and numpy ints.  One `marshal.dumps` of the
    list checks the types in C: format 2 writes the list as a 5-byte header,
    each tuple as b"(" and its 4-byte length, and an exact int below 2^31 as
    b"i" and 4 bytes, little-endian; a bool is b"T" or b"F", a numpy int a
    buffer (b"s"), other ints and tuple subclasses something else or a
    ValueError.  So every key is such a tuple exactly when the bytes are
    records of that layout whose entries have zero high bytes."""
    if not keys or type(keys[0]) is not tuple:
        return None
    width = len(keys[0])
    try:
        data = marshal.dumps(keys, 2)
    except ValueError:
        return None
    size = 5 + 5 * width
    if len(data) != 5 + len(keys) * size:
        return None
    rows = np.frombuffer(data, dtype=np.uint8, offset=5).reshape(len(keys), size)
    layout = np.frombuffer(b"(" + width.to_bytes(4, "little") + b"i\0\0\0\0" * width, dtype=np.uint8)
    low = np.full(size, 255, dtype=np.uint8)
    low[6::5] = 0  # each entry's low byte: any value
    if ((rows & low) != layout).any():
        return None
    # column 1, the width's low byte, is the same in every key: it keeps a
    # key of width 0 one byte long
    return np.ascontiguousarray(_STR_RANK[rows[:, 1::5]]).view(f"S{width + 1}").ravel()


def _summaries(items: list[tuple[int | float, int]]) -> dict[str, float]:
    """Mean, variance and quantiles of sorted (value, count) pairs.  Each
    value is an exact ratio num/den; over a common denominator the sums are
    integers, and one correctly rounded int division gives what fmean (fsum
    is correctly rounded) and pvariance (exact until its last step) give.
    fmean converts ints to float first, which is exact below 2^53."""
    ratios = [(v.as_integer_ratio(), c) for v, c in items]
    scale = math.lcm(*(den for (_num, den), _c in ratios))
    total = s1 = s2 = 0
    for (num, den), c in ratios:
        x = num * (scale // den)
        total += c
        s1 += c * x
        s2 += c * x * x
    # the value of rank r in the sorted expansion: the first bin whose
    # cumulative count exceeds r
    cumulative = list(accumulate(c for _v, c in items))

    def quantile(q: float) -> float:
        return float(items[bisect_right(cumulative, int(q * (total - 1)))][0])

    return {
        "mean": s1 / scale / total,
        "var": (total * s2 - s1 * s1) / (total * total * scale * scale),
        "q01": quantile(0.01),
        "q50": quantile(0.50),
        "q99": quantile(0.99),
    }


def _codomain(ensemble: str, n: int) -> int:
    return n + 1 if ensemble == "fn1" else n


def _block_rows(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(1, BLOCK_ELEMENTS // n)


def _check_streams(count: int) -> None:
    """Sample i is drawn from stream i, and stream indices lie in [0, 2^64):
    a count past the last stream is refused before any draw."""
    if count > _U64:
        raise ValueError(f"count must be at most 2^64, one stream per sample; got {count}")


def sample_blocks(n: int, count: int, seed: int, ensemble: str = "pf") -> Iterator[np.ndarray]:
    """Samples 0..count-1 of an experiment, a block of rows at a time: sample
    i is drawn from stream i and, on pf, shifted into PF_n.  All blocks share
    one buffer (large-n rows reuse its pages), so use each before the next."""
    if count < 0:
        raise ValueError("count must be >= 0")
    _check_streams(count)
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    yield from _blocks(_rows(n, seed, ensemble, ensemble == "pf"), n, count)


def _rows(n: int, seed: int, ensemble: str,
          shift: bool) -> Callable[[int, int, np.ndarray], np.ndarray]:
    """rows(start, stop, out): samples start..stop-1 of an experiment's draws
    on the ensemble's codomain ([n+1]^n on pf), in the first rows of `out`,
    shifted into PF_n when `shift`."""
    high = n + 1 if ensemble == "pf" else _codomain(ensemble, n)

    def rows(start: int, stop: int, out: np.ndarray) -> np.ndarray:
        block = draw_block(seed, start, stop, n, high, out=out)
        return shift_block(block, n) if shift else block

    return rows


def _blocks(rows: Callable, n: int, count: int) -> Iterator[np.ndarray]:
    """The blocks of `rows` over samples 0..count-1, `_block_rows(n)` rows at
    a time, all in one buffer."""
    step = _block_rows(n)
    buffer = np.empty((min(step, count), n), dtype=np.int64)
    for start in range(0, count, step):
        yield rows(start, min(start + step, count), buffer)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_rows(total: int) -> None:
    """Row indices and exact counts are int64: a source of more rows than
    int64 holds is refused when it is made, before any block."""
    if total > _INT64_MAX:
        raise ValueError(f"{total} rows do not fit in int64 row indices")


def pf_blocks(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[np.ndarray]:
    """Each parking function of size n once, in the order of
    `enumerate_pf`, one per row of column-major int64 blocks."""
    check_enumeration_size(n, limit)
    _check_rows(count_pf(n))
    return (np.asfortranarray(block, dtype=np.int64) for block in _pf_rows(n))


def _arrangement_counts(rows: np.ndarray) -> np.ndarray:
    """The number of distinct arrangements of each sorted row, n!/prod c_v!
    for c_v entries equal to v: n! over the product of each entry's place in
    its run of equal entries.  Exact in int64 for n <= 20."""
    run = np.ones(rows.shape[0], dtype=np.int64)
    places = np.ones_like(run)
    for left, right in zip(rows.T, rows.T[1:]):
        run *= left == right
        run += 1
        places *= run
    return math.factorial(rows.shape[1]) // places


def _check_defined(statistic: str, ensemble: str, n: int) -> None:
    """lucky parks the cars, so it is defined on parking functions alone: it
    is refused up front on an ensemble that holds any other function,
    whichever rows a seed would draw.  Those are fn1 at every n and fn from
    n = 2 on; [1]^1 is PF_1."""
    if statistic == "lucky" and ensemble != "pf" and (ensemble, n) != ("fn", 1):
        raise ValueError(f"lucky requires a parking function, and ensemble {ensemble} "
                         f"holds other functions at n = {n}")


def _exhaustive_source(statistic: str, n: int, ensemble: str,
                       limit: int) -> Iterator[tuple[np.ndarray, Optional[np.ndarray]]]:
    """(block, weights) pairs over every row of PF_n (ensemble "pf") or of
    [m]^n, row r of a block standing for weights[r] rows of the ensemble
    (for 1 when weights is None), picked by name:
    - a name that only compares entries (`stats.compares_only`) scores each
      weak-order type once (`_type_rows`), weighted by the ensemble's rows
      of that type;
    - a name that reads all n entries in order on PF_n (`lucky`) scans every
      row of `pf_blocks`, unweighted;
    - any other name reads its first p = `stats.ordered_prefix` entries in
      order and the rest as a multiset.  It scores the sorted rows
      (`_sorted_source`), each split by its first p entries
      (`enumeration._leading_splits`: every choice of them in order, the
      rest left sorted), and weighs a split row by the arrangements of its
      sorted rest.  At p = 0 these are the pairs of `_sorted_source`.
    Every row count that passes the int64 guard has n <= 16, so the weights
    and their sums are exact in int64 and every value fits the uint8 rows
    that are split.  Raises ValueError for an unknown
    ensemble and for lucky where it is not defined (`_check_defined`), and
    `CapacityError` for n > limit, and checks the row count, before any
    block is built."""
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    _check_defined(statistic, ensemble, n)
    check_enumeration_size(n, limit)
    pf = ensemble == "pf"
    # by name, not by kernel: a registry entry replaced by a wrapper (as in
    # perfbench's traced runs) takes the same path and gives the same bins
    if st.compares_only(statistic):
        blocks, census = _type_rows(n, limit)
        ends = np.cumsum([block.shape[0] for block in census.blocks[:-1]])
        return zip(blocks, np.split(census.type_weights(ensemble), ends))
    prefix = st.ordered_prefix(statistic, n)
    if pf and prefix == n:
        return ((block, None) for block in pf_blocks(n, limit))
    _check_rows(count_pf(n) if pf else _codomain(ensemble, n) ** n)
    pairs = _sorted_source(n, ensemble)
    if not prefix:
        return pairs
    return ((np.asfortranarray(rows, dtype=np.int64), _arrangement_counts(rows[:, prefix:]))
            for block, _weights in pairs
            for rows in _leading_splits(np.ascontiguousarray(block, dtype=np.uint8), 0, prefix))


def _sorted_source(n: int, ensemble: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(block, weights) pairs over the nondecreasing rows of PF_n (the
    Catalan(n) rows with entry j at most j) or of [m]^n (the
    C(n + m - 1, n) rows over [1, m]), each weighed by its number of
    arrangements: the order-free laws' rows, and the rows that
    `_exhaustive_source` and `joint_coordinate_bound_check` split by their
    leading entries for the others.  Rows that fit in one block of
    `_sorted_blocks` are the one pair of `_sorted_census`; more are
    unranked, weighed and dropped block by block, so memory stays at one
    block either way.  Nothing is built before the first pair is read.
    Unchecked: its callers guard n."""
    pf = ensemble == "pf"
    m = _codomain(ensemble, n)
    rows = math.comb(2 * n, n) // (n + 1) if pf else math.comb(n + m - 1, n)
    if rows * n > BLOCK_ELEMENTS:
        return ((block, _arrangement_counts(block))
                for block in _sorted_blocks(n, range(1, n + 1) if pf else [m] * n))

    def pairs() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        yield _sorted_census(n, ensemble)

    return pairs()


@lru_cache(maxsize=3)
def _sorted_census(n: int, ensemble: str) -> tuple[np.ndarray, np.ndarray]:
    """(rows, weights), the one pair `_sorted_source` yields for sorted rows
    that fit in one block: the block of `_sorted_blocks` that holds them,
    and each row's number of arrangements (`_arrangement_counts`), both
    read-only.  Unchecked: only `_sorted_source` calls it, and only for
    rows that fit in one block.

    Kept for three (n, ensemble) pairs, each at most BLOCK_ELEMENTS values
    and a weight per row, for callers that read one ensemble's sorted rows
    more than once: `parkfn compare --n N` reads PF_N's twice
    (`_type_census` and `species`), `parkfn verify --n-max 7` reads those
    of six PF_n 22 times, and a loop over the three ensembles at one n
    keeps all three."""
    pf = ensemble == "pf"
    m = _codomain(ensemble, n)
    rows, = _sorted_blocks(n, range(1, n + 1) if pf else [m] * n)
    weights = _arrangement_counts(rows)
    rows.setflags(write=False)
    weights.setflags(write=False)
    return rows, weights


@dataclass(frozen=True)
class _TypeCensus:
    """The weak-order types of length n, keyed by composition (see
    `_type_census`); every array is read-only.

    blocks: the types as row-major uint8 blocks, the types of each
        composition in one run, the compositions in the order of their keys.
    arrangements, starts: the length of each composition's run and the row
        where it starts.
    weights: each ensemble's rows of one type of each composition, S_PF(c)
        on pf and C(m, k) on [m]^n for a composition of k parts.
    gaps: C(n + 1, k) - (n + 1) S_PF(c), the fn1 weight less n + 1 times
        the pf weight: a law is the same on both when its gaps sum to 0."""

    blocks: tuple[np.ndarray, ...]
    arrangements: np.ndarray
    starts: np.ndarray
    weights: dict[str, np.ndarray]
    gaps: np.ndarray

    def type_weights(self, ensemble: str) -> np.ndarray:
        """The ensemble's rows of each type, in the order of the types."""
        return self.weights[ensemble].repeat(self.arrangements)

    def holding(self, mask: np.ndarray) -> np.ndarray:
        """The number of types of each composition where a mask over the
        types holds: a Bernoulli feature's rows of an ensemble are this
        times its weights."""
        return np.add.reduceat(mask, self.starts, dtype=np.int64)


def _type_rows(n: int, limit: int) -> tuple[Iterator[np.ndarray], _TypeCensus]:
    """(blocks, census): each weak-order type of length n once, as the rows
    of column-major int64 blocks, and the census they come from
    (`_TypeCensus`), whose weights count each type's rows in PF_n, [n]^n and
    [n+1]^n.  A type is a row whose values are 1..k for some k, the row of
    ranks shared by every function that orders its entries alike; there are
    Fubini(n) of them (541 at n = 5, 47,293 at n = 7) in 2^(n-1)
    compositions.

    The census is built once per n (`_type_census`) and only the last n is
    kept, so every feature, statistic and weak peak at one n reads the same
    rows; each call still copies them block by block into fresh int64
    blocks.  Raises `CapacityError` for n > limit, and checks that the
    counts fit in int64, before the census is built or read."""
    check_enumeration_size(n, limit)
    _check_rows((n + 1) ** n)
    census = _type_census(n)
    return (np.asfortranarray(block, dtype=np.int64) for block in census.blocks), census


@lru_cache(maxsize=1)
def _type_census(n: int) -> _TypeCensus:
    """The read-only census behind `_type_rows`.  Unchecked: `_type_rows`
    guards n.

    The composition rows (1, a_2, ..., a_n) with steps a_{j+1} - a_j of 0
    or 1 are the sorted types, one per key sum_j (a_{j+2} - a_{j+1}) 2^j,
    and `_table_arrangement_blocks` arranges each into its types, in order.
    A type's functions to [m] replace 1..k by k increasing values, so [m]^n
    holds C(m, k) of each type with k values.  Sorting is a bijection from
    the parking functions of one type onto the sorted PF_n rows whose ties
    fall where the type's do (PF_n is closed under rearrangement), so PF_n
    holds as many of each type as `_sorted_source` has sorted PF_n rows
    with its key.  Every weight is at least 1: the composition row is itself
    a sorted parking function, and k <= n <= m."""
    keys = 1 << (n - 1)
    bits = 1 << np.arange(n - 1)
    compositions = np.ones((keys, n), dtype=np.int64)
    np.cumsum((np.arange(keys)[:, None] & bits) > 0, axis=1, out=compositions[:, 1:])
    compositions[:, 1:] += 1
    pf_weights = np.zeros(keys, dtype=np.int64)
    for block, _weights in _sorted_source(n, "pf"):
        pf_weights += np.bincount((block[:, 1:] > block[:, :-1]) @ bits, minlength=keys)
    weights = {"pf": pf_weights}
    for ensemble in ("fn", "fn1"):
        m = _codomain(ensemble, n)
        weights[ensemble] = np.array([math.comb(m, k) for k in range(n + 1)])[compositions[:, -1]]
    arrangements = _arrangement_counts(compositions)
    starts = np.cumsum(arrangements) - arrangements
    blocks = tuple(_table_arrangement_blocks([compositions], n))
    gaps = weights["fn1"] - (n + 1) * pf_weights
    for array in (*blocks, arrangements, starts, *weights.values(), gaps):
        array.setflags(write=False)
    return _TypeCensus(blocks, arrangements, starts, weights, gaps)


def _sample_source(config: ExperimentConfig) -> tuple[Callable, Callable]:
    """(rows, kernel) for `run_experiment`, rows as from `_rows`.  On pf, a
    statistic in RAW_DRAW_STATISTICS scores the raw draws of [n+1]^n: its
    kernel reads the statistic of each shifted row from the draw and the
    walk that finds the shift, so the row is never shifted.  Any other
    statistic scores the rows of `sample_blocks`."""
    n, seed, ensemble = config.n, config.seed, config.ensemble
    # by name, not by kernel, as in `_exhaustive_source`
    raw = ensemble == "pf" and config.statistic in st.RAW_DRAW_STATISTICS
    kernel = (st.RAW_DRAW_STATISTICS[config.statistic] if raw
              else statistic_kernel(config.statistic, n))
    return _rows(n, seed, ensemble, ensemble == "pf" and not raw), kernel


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig) -> Histogram:
    """Sample `count` functions, one stream per sample index, and histogram
    the named statistic.  Deterministic for a given seed: one-row blocks
    (n > BLOCK_ELEMENTS / 2) are scored on two threads when the process may
    run on two CPUs (`_paired_census`), with the bins of one thread."""
    rows, kernel = _sample_source(config)
    n, count = config.n, config.count
    m = _codomain(config.ensemble, n)
    if _block_rows(n) == 1 and count > 1 and _cpu_count() > 1:
        bins = _paired_census(kernel, rows, count, n, m)
    else:
        bins = _census(kernel, _blocks(rows, n, count), n, m)
    return Histogram(n=n, statistic=config.statistic, ensemble=config.ensemble,
                     seed=config.seed, bins=bins)


def _paired_census(kernel: Callable, rows: Callable, count: int, n: int,
                   m: int) -> dict[Hashable, int]:
    """`_census` of the one-row blocks of `rows` over samples 0..count-1,
    scored on two threads: this one scores the even rows and one helper the
    odd rows, each in its own row buffer.  numpy releases the GIL in the
    long calls of a row (the Philox words, the bound, the walk's bincount
    and cumsum), so the two rows of a pair overlap.  Each pair is tallied in
    row order once both rows are scored, so at most one row waits, the bins
    and their order are those of one thread, and the first failing row's
    exception is raised.  The helper is joined before this returns or
    raises."""
    from concurrent.futures import ThreadPoolExecutor

    even, odd = np.empty((2, 1, n), dtype=np.int64)

    def score(start: int, out: np.ndarray) -> Iterable[tuple[Hashable, int]]:
        return _distinct(kernel(rows(start, start + 1, out), n, m))

    def scored(helper: ThreadPoolExecutor) -> Iterator[Iterable[tuple[Hashable, int]]]:
        for start in range(0, count, 2):
            pending = helper.submit(score, start + 1, odd) if start + 1 < count else None
            yield score(start, even)
            if pending is not None:
                yield pending.result()

    with ThreadPoolExecutor(1, thread_name_prefix="parkfn-odd-rows") as helper:
        return _tally(scored(helper))


def exhaustive_histogram(n: int, statistic: str, ensemble: str = "pf",
                         limit: int = DEFAULT_ENUM_LIMIT) -> Histogram:
    """Exact histogram of a statistic over all of PF_n or an all-functions
    ensemble; counts are exact integers, and no bin counts 0.  The rows come
    from `_exhaustive_source`: the weak-order types for a name that only
    compares entries (each type scored once), every row of PF_n for lucky,
    else the sorted rows split by the entries the name reads in order
    (`stats.ordered_prefix`).  Raises ValueError for a name
    `stats.statistic_kernel` refuses, for an ensemble not in ENSEMBLES and
    for lucky where it is not defined, and `CapacityError` for n > limit on
    every ensemble, before any block is built."""
    kernel = statistic_kernel(statistic, n)
    pairs = _exhaustive_source(statistic, n, ensemble, limit)
    m = _codomain(ensemble, n)
    return Histogram(n=n, statistic=statistic, ensemble=ensemble, seed=None,
                     bins=_tally(_distinct(kernel(block, n, m), weights)
                                 for block, weights in pairs))


def _census(kernel: Callable, blocks: Iterable[np.ndarray], n: int, m: int) -> dict[Hashable, int]:
    """Exact count of each kernel value over every row of the blocks, keyed
    in order of first occurrence.  Each block is counted in numpy, and only
    its distinct values become Python values."""
    return _tally(_distinct(kernel(block, n, m)) for block in blocks)


def _tally(distincts: Iterable[Iterable[tuple[Hashable, int]]]) -> dict[Hashable, int]:
    """The (value, count) pairs of each block, as from `_distinct`, summed
    into one dict keyed in order of first occurrence."""
    bins: dict[Hashable, int] = {}
    for distinct in distincts:
        if not bins:  # the first block hashes each key once (tuples cache no hash)
            bins.update(distinct)
            continue
        for value, count in distinct:
            bins[value] = bins.get(value, 0) + count
    return bins


def _distinct(values: np.ndarray,
              weights: Optional[np.ndarray] = None) -> Iterable[tuple[Hashable, int]]:
    """(value, count) of each distinct entry of a 1-D array, or of each
    distinct row of a 2-D one as a tuple of ints, in order of first
    occurrence; with int64 `weights`, the count of a value is the sum of its
    entries' weights (`_runs`)."""
    first, counts = _runs(values, weights)
    order = np.argsort(first)
    return zip(_python_values(values, first[order]), counts[order].tolist())


def _runs(values: np.ndarray,
          weights: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """(first, counts) over the distinct entries of a 1-D array, or the
    distinct rows of a 2-D one, in the order of their sort keys: the index
    of each value's first entry and its count, or with int64 `weights` the
    sum of its entries' weights.  One key per entry (`_row_keys` for rows)
    is sorted with a stable sort, so narrowing the keys (`_sort_keys`)
    changes its speed but not which entry comes first.  A value's count is
    the length of its run of equal sorted keys, or with weights the run's
    sum, in int64 (np.bincount would add them as float64).  NaN keys are
    each their own value, as they are as dict keys."""
    if values.ndim == 2:
        rows, width = values.shape
        if not rows or not width:  # no min() of no rows, no zero-width np.void
            runs = min(rows, 1)
            count = rows if weights is None else weights.sum()
            return np.zeros(runs, dtype=np.intp), np.full(runs, count, dtype=np.int64)
        keys = _row_keys(values)
    else:
        keys = values
    keys = _sort_keys(keys)
    by_key = keys.argsort(kind="stable")
    sorted_keys = keys[by_key]
    # the run starts, and the end of the last run (no run in no keys)
    bounds = np.empty(keys.size + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    # `!=`, not np.not_equal: np.void keys have no ufunc loop
    bounds[1:-1] = sorted_keys[1:] != sorted_keys[:-1]
    bounds = np.flatnonzero(bounds)
    starts = bounds[:-1]
    if weights is None:
        counts = bounds[1:] - starts
    else:
        counts = np.add.reduceat(weights[by_key], starts, dtype=np.int64)
    return by_key[starts], counts


def _python_values(values: np.ndarray, index: np.ndarray) -> Iterable[Hashable]:
    """The entries of a 1-D array at the indices as Python scalars, or the
    rows of a 2-D one as tuples of ints."""
    picked = values[index].tolist()
    return map(tuple, picked) if values.ndim == 2 else picked


# numpy's stable sort is a radix sort on integers of 8 and 16 bits and a
# timsort on wider ones.  Narrowing the keys first pays from 1024 keys (0.6-0.8
# times the time of `np.unique` on int64 keys spanning 10-1000 values; at 768
# keys 0.8-1.1, below that the min, max and cast cost more than they save).
_NARROW_KEYS = 1024


def _sort_keys(keys: np.ndarray) -> np.ndarray:
    """Integer keys wider than 16 bits that span fewer than 2^16 values,
    shifted to start at 0 in the narrowest unsigned dtype that holds them:
    the same order and the same ties.  Other keys as they are."""
    if keys.size < _NARROW_KEYS or keys.dtype.kind not in "iu" or keys.dtype.itemsize <= 2:
        return keys
    low = keys.min()
    span = int(keys.max()) - int(low)
    if span >> 16:
        return keys
    narrow = np.empty(keys.shape, dtype=np.uint8 if span < 256 else np.uint16)
    # exact in the keys' dtype: every difference lies in [0, span]
    np.subtract(keys, low, out=narrow, casting="unsafe")
    return narrow


# Packing the bit fields column by column beats the integer matmul from 4096
# rows (0.6-0.8 times its time on column-major rows of width 4-60, 0.8-1.3
# on row-major ones; at 2048 rows 0.7-1.1 and 0.8-1.9).
_KEYS_COLUMN_ROWS = 4096


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row, equal exactly when the rows are equal, for a 1-D
    `np.unique` (several times faster than one with axis=0).  Rows of small
    values (exhaustive counts) pack into one int64 as bit fields, whose
    stable sort is about 3x faster than that of the general key: the row's
    bytes as one np.void scalar, in the narrowest dtype that holds the
    block."""
    low, high = int(rows.min()), int(rows.max())
    bits = max(1, high.bit_length())
    width = rows.shape[1]
    if low >= 0 and bits * width < 64:
        if rows.shape[0] < _KEYS_COLUMN_ROWS:
            # cast first: an int8 @ int64 matmul takes twice as long
            return rows.astype(np.int64, copy=False) @ np.left_shift(
                1, bits * np.arange(width, dtype=np.int64))
        keys = np.zeros(rows.shape[0], dtype=np.int64)
        for column in rows.T[::-1]:  # column j lands at bit bits * j
            keys <<= bits
            keys |= column
        return keys
    dtype = np.result_type(np.min_scalar_type(low), np.min_scalar_type(high))
    packed = np.ascontiguousarray(rows, dtype=dtype)
    return packed.view(np.dtype((np.void, packed.shape[1] * dtype.itemsize))).ravel()


# --- distances ------------------------------------------------------------

def _law(p, name: str) -> dict:
    """A Histogram's probabilities, or a dict that is already a law: values
    >= 0 summing to 1 within 1e-9.  A dict of counts is refused, not
    normalized, with a ValueError that names the argument."""
    if isinstance(p, Histogram):
        return p.probabilities()
    law = dict(p)
    # negated as a whole, so that a NaN is refused too
    if not (all(v >= 0 for v in law.values()) and abs(math.fsum(law.values()) - 1) <= 1e-9):
        raise ValueError(f"{name} is not a probability law: its values must be >= 0 "
                         "and sum to 1 within 1e-9 (pass a Histogram for counts)")
    return law


def tv_distance(p, q) -> float:
    """Total variation distance, half the L1 distance between two laws, each
    a Histogram or a dict of probabilities (`_law`)."""
    p_probs, q_probs = _law(p, "p"), _law(q, "q")
    if not p_probs or not q_probs:
        raise ValueError("empty distribution")
    support = set(p_probs) | set(q_probs)
    return 0.5 * sum(abs(p_probs.get(k, 0.0) - q_probs.get(k, 0.0)) for k in support)


def ks_distance_to_limit(histogram: Histogram, limit_cdf: Callable[[float], float]) -> float:
    """sup_t |empirical CDF - limit CDF| for a continuous limit CDF: at each
    support point v, F(v) is compared with F_emp(v-) and with F_emp(v)."""
    items = sorted((float(v), c) for v, c in histogram.bins.items())
    total = sum(c for _v, c in items)
    if not total:
        raise ValueError("empty distribution")
    running = 0
    worst = 0.0
    for v, c in items:
        cdf = limit_cdf(v)
        worst = max(worst, abs(running / total - cdf))
        running += c
        worst = max(worst, abs(running / total - cdf))
    return worst


# --- exact equidistribution ----------------------------------------------

@dataclass(frozen=True)
class EquidistributionReport:
    n: int
    feature: str
    equal: bool
    witness: Optional[Hashable]  # the violating feature value first in str order, if any


# The features whose law on PF_n, scaled by n + 1, equals their law on
# [n+1]^n: what `parkfn compare` checks by default.
EQUIDISTRIBUTED_FEATURES = ("descent-pattern", "equality-pattern", "weak-descent-pattern",
                            "species", "inversions", "longest-run")


def exact_equidistribution(n: int, feature: str,
                           limit: int = DEFAULT_ENUM_LIMIT) -> EquidistributionReport:
    """Whether a feature has the same exact law on PF_n as on all functions
    [n] -> [n+1], after scaling by n + 1, from the rows that
    `_exhaustive_source` picks.  The laws agree exactly when each value's
    gaps sum to 0, a row's gap being its rows in [n+1]^n less n + 1 times
    its rows in PF_n.  A feature that only compares entries
    (`stats.compares_only`) is scored once per weak-order type, in one pass,
    each type's gap that of its composition (`_type_rows`).  Any other name
    sums the weights of the pairs of [n+1]^n and minus n + 1 times those of
    PF_n, one block at a time.  The feature is any name
    `stats.statistic_kernel` takes: "longest-run>=", "strict-peak@3" or a
    chain expression such as "1<3;2>=4"; the report keeps the name as
    given."""
    kernel = statistic_kernel(feature, n)
    if st.compares_only(feature):
        blocks, census = _type_rows(n, limit)
        values = np.concatenate([kernel(block, n, n + 1) for block in blocks])
        # only the values whose gaps do not sum to 0 become Python values:
        # the witness is the least in str order, whatever their order
        first, gaps = _runs(values, census.gaps.repeat(census.arrangements))
        unequal = _python_values(values, first[gaps != 0])
    else:
        # both sources check their size before either is read
        fn1, pf = (_exhaustive_source(feature, n, ensemble, limit) for ensemble in ("fn1", "pf"))
        signed = ((block, -(n + 1) * (np.ones(block.shape[0], dtype=np.int64)
                                      if weights is None else weights))
                  for block, weights in pf)
        gaps = _tally(_distinct(kernel(block, n, n + 1), weights)
                      for block, weights in chain(fn1, signed))
        unequal = [value for value, gap in gaps.items() if gap]
    # one feature's values share one type, so no two of them print alike
    witness = min(unequal, key=str, default=None)
    return EquidistributionReport(n=n, feature=feature, equal=witness is None, witness=witness)


@dataclass(frozen=True)
class WeakPeakReport:
    n: int
    position: int
    equal: bool
    pf_count: int
    f_count: int


def weak_peak_check(n: int, i: int, limit: int = DEFAULT_ENUM_LIMIT) -> WeakPeakReport:
    """Count the weak peaks f_{i-1} < f_i >= f_{i+1} over PF_n and over
    [n+1]^n, exactly, from the weak-order types (`_type_rows`); they are
    equidistributed when the second count is n + 1 times the first (see
    `stats._PEAKS`)."""
    kernel = statistic_kernel(f"weak-peak@{i}", n)
    blocks, census = _type_rows(n, limit)
    holding = census.holding(np.concatenate([kernel(block, n, n + 1) for block in blocks]))
    pf_count, f_count = (int(holding @ census.weights[side]) for side in ("pf", "fn1"))
    return WeakPeakReport(n=n, position=i, equal=f_count == (n + 1) * pf_count,
                          pf_count=pf_count, f_count=f_count)


# --- joint coordinate bound ----------------------------------------------

@dataclass(frozen=True)
class JointBoundReport:
    n: int
    k: int
    holds: bool
    max_difference: float
    bound: float


def joint_coordinate_bound_check(n: int, k: int,
                                 limit: int = DEFAULT_ENUM_LIMIT) -> JointBoundReport:
    """Exact joint CDF of k coordinates of a uniform parking function versus
    the product form for uniform functions [n] -> [n], over the full grid
    x_j = i_j/n; asserts the 2k sqrt(log n / n) + k(k-1)/n bound (n >= 4).
    Checks n against `limit` before it allocates the n^k grid."""
    check_enumeration_size(n, limit)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got k = {k} for n = {n}")
    total = count_pf(n)
    _check_rows(total)
    # joint counts over the first k coordinates (PF_n is permutation-symmetric)
    # from the sorted rows split by them, each split row standing for the
    # arrangements of its sorted rest, summed along each axis in place:
    # exact in int64, and the grid is the one array of its size
    counts = np.zeros((n,) * k, dtype=np.int64)
    for block, _weights in _sorted_source(n, "pf"):
        for rows in _leading_splits(np.ascontiguousarray(block, dtype=np.uint8), 0, k):
            np.add.at(counts, tuple(rows[:, :k].T - 1), _arrangement_counts(rows[:, k:]))
    for axis in range(k):
        np.cumsum(counts, axis=axis, out=counts)
    # the CDF against the product CDF one slab of the first axis at a time,
    # each product's factors taken in the order of np.multiply.outer
    axes_grid = np.arange(1, n + 1) / n
    max_diff = 0.0
    for first, slab in zip(axes_grid, counts):
        product_cdf = first
        for _ in range(k - 1):
            product_cdf = np.multiply.outer(product_cdf, axes_grid)
        max_diff = max(max_diff, float(np.abs(slab / total - product_cdf).max()))
    bound = 2 * k * math.sqrt(math.log(n) / n) + k * (k - 1) / n
    return JointBoundReport(n=n, k=k, holds=(n >= 4 and max_diff <= bound),
                            max_difference=max_diff, bound=bound)
