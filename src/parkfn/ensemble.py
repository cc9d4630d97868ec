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
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional

import numpy as np

from . import stats as st
from .core import BLOCK_ELEMENTS
from .enumeration import (DEFAULT_ENUM_LIMIT, _pf_rows, _sorted_blocks,
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
        if not 0 <= self.seed < _U64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        statistic_kernel(self.statistic, self.n)


@dataclass
class Histogram:
    """Seeded-experiment output: exact integer bin counts plus scaled
    summaries of the observed values."""

    n: int
    statistic: str
    ensemble: str
    seed: Optional[int]
    count: int | str  # sample count or "exhaustive"
    bins: dict[Hashable, int] = field(default_factory=dict)
    summaries: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_bins(cls, bins: dict[Hashable, int], **meta) -> "Histogram":
        """A histogram of exact counts, with the summaries of its numeric
        values: bit for bit the `statistics.fmean`, `statistics.pvariance`
        and rank quantiles of the values the bins expand to."""
        hist = cls(bins=bins, **meta)
        numeric = sorted((v, c) for v, c in bins.items() if isinstance(v, (int, float)))
        if numeric:
            hist.summaries = _summaries(numeric)
        return hist

    @property
    def total(self) -> int:
        return sum(self.bins.values())

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
_STR_RANK = bytes(map(sorted(range(256), key=str).index, range(256)))


def _str_sorted(items: Iterable, key: Callable = lambda item: item) -> list:
    """The items in the order of `sorted(items, key=lambda x: str(key(x)))`,
    the order of JSON bins, without formatting each key when the keys allow
    it (see `_byte_keys`)."""
    items = list(items)
    byte_keys = _byte_keys(list(map(key, items)))
    if byte_keys is None:
        return sorted(items, key=lambda item: str(key(item)))
    return [items[i] for i in sorted(range(len(items)), key=byte_keys.__getitem__)]


def _byte_keys(keys: list) -> Optional[list[bytes]]:
    """Sort keys in the order of `str`, or None, for tuples of one length
    whose entries are ints in [0, 256).  Such strings compare entry by entry
    as decimal strings: at the first entry that differs, a string that is a
    prefix of the other is followed by "," or ")", both below any digit.  So
    `bytes(t).translate(_STR_RANK)` gives their order.

    Anything else keeps `str`: other lengths (`(1,)` sorts after `(1, 2)`),
    entries outside [0, 256) (bytes() raises), scalars, and entries that
    pass bytes() but print otherwise, such as bools and numpy ints.  The type
    check runs in C: marshal format 2 writes a tuple as a 5-byte header and
    an exact int below 2^31 as b"i" and 4 bytes, but a bool as b"T" or b"F"
    and other ints as something else, or raises."""
    if not keys or any(type(k) is not tuple for k in keys):
        return None
    width = len(keys[0])
    tags = b"i" * width
    byte_keys = []
    try:
        for k in keys:
            data = marshal.dumps(k, 2)
            if len(data) != 5 + 5 * width or data[5::5] != tags:
                return None
            byte_keys.append(bytes(k).translate(_STR_RANK))
    except ValueError:
        return None
    return byte_keys


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


def sample_blocks(n: int, count: int, seed: int, ensemble: str = "pf") -> Iterator[np.ndarray]:
    """Samples 0..count-1 of an experiment, a block of rows at a time: sample
    i is drawn from stream i and, on pf, shifted into PF_n.  All blocks share
    one buffer (large-n rows reuse its pages), so use each before the next."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    pf = ensemble == "pf"
    for block in _draws(n, count, seed, n + 1 if pf else _codomain(ensemble, n)):
        yield shift_block(block, n) if pf else block


def _draws(n: int, count: int, seed: int, high: int) -> Iterator[np.ndarray]:
    """Rows 0..count-1 of an experiment's draws on [1, high]^n, a block of
    rows at a time, all in one buffer."""
    step = _block_rows(n)
    buffer = np.empty((min(step, count), n), dtype=np.int64)
    for start in range(0, count, step):
        yield draw_block(seed, start, min(start + step, count), n, high, out=buffer)


def _check_rows(total: int) -> None:
    """Row indices and exact counts are int64: a source of more rows than
    int64 holds is refused when it is made, before any block."""
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"{total} rows do not fit in int64 row indices")


def _fill_digits(column: np.ndarray, start: int, run: int, cycle: np.ndarray) -> None:
    """Fill the contiguous `column` with rows start, start+1, ... of the
    digit column whose row i holds cycle[(i // run) % len(cycle)]: the
    partial runs at either end, then the whole runs as a (runs, run) view,
    broadcast from the cycle in at most three slices."""
    m, size = cycle.size, column.size
    first, last = start // run, (start + size - 1) // run  # the runs it meets
    head = min(size, (first + 1) * run - start)
    column[:head] = cycle[first % m]
    if last == first:
        return
    tail = start + size - last * run
    column[size - tail:] = cycle[last % m]
    whole = last - first - 1
    if not whole:
        return
    runs = column[head:size - tail].reshape(whole, run)
    phase = (first + 1) % m
    lead = min(whole, -phase % m)  # runs before the cycle starts over
    if lead:
        runs[:lead] = cycle[phase:phase + lead, None]
    cycles = (whole - lead) // m
    if cycles:
        runs[lead:lead + cycles * m].reshape(cycles, m, run)[:] = cycle[:, None]
    rest = whole - lead - cycles * m
    if rest:
        runs[whole - rest:] = cycle[:rest, None]


def function_blocks(n: int, m: int) -> Iterator[np.ndarray]:
    """All m^n functions [n] -> [m], in the order of
    `itertools.product(range(1, m + 1), repeat=n)`, as column-major int64
    blocks of at most BLOCK_ELEMENTS values: row i holds the n base-m digits
    of i, most significant first, plus one.  Column j is runs of m^(n-1-j)
    equal digits cycling through 1..m, so each column is copied from that
    cycle (`_fill_digits`), without a division."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    total = m**n
    _check_rows(total)
    step = _block_rows(n)
    cycle = np.arange(1, m + 1, dtype=np.int64)
    runs = [m ** (n - 1 - j) for j in range(n)]

    def digits(start: int) -> np.ndarray:
        block = np.empty((n, min(step, total - start)), dtype=np.int64)
        for column, run in zip(block, runs):
            _fill_digits(column, start, run, cycle)
        return block.T

    return map(digits, range(0, total, step))


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


def _exhaustive_source(statistic: str, n: int, ensemble: str,
                       limit: int) -> tuple[Iterator[np.ndarray], Optional[Callable]]:
    """(blocks, weigh) for `_census` of a statistic over every row of PF_n
    (ensemble "pf") or of [m]^n.  A statistic in ORDER_FREE_STATISTICS
    scores only the sorted rows, each counted `_arrangement_counts` times:
    the Catalan(n) nondecreasing rows with entry j at most j, or the
    C(n + m - 1, n) nondecreasing rows over [1, m].  Every row count that
    passes the int64 guard has n <= 16, so those weights and their sums are
    exact in int64.  Any other statistic scans all rows, unweighted.
    Raises ValueError for an unknown ensemble and `CapacityError` for
    n > limit, and checks the row count, before any block is built."""
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    check_enumeration_size(n, limit)
    pf = ensemble == "pf"
    m = _codomain(ensemble, n)
    # by name, not by kernel: a registry entry replaced by a wrapper (as in
    # perfbench's traced runs) takes the same path and gives the same bins
    if statistic in st.ORDER_FREE_STATISTICS:
        _check_rows(count_pf(n) if pf else m**n)
        return _sorted_blocks(n, range(1, n + 1) if pf else [m] * n), _arrangement_counts
    return (pf_blocks(n, limit) if pf else function_blocks(n, m)), None


def _type_rows(n: int, limit: int) -> tuple[Iterator[np.ndarray], np.ndarray, np.ndarray]:
    """(blocks, pf_weights, fn_weights): each weak-order type of length n
    once, as the rows of column-major int64 blocks, and the number of rows
    of PF_n and of [n+1]^n of each type, in the order of the rows.  A type
    is a row whose values are 1..k for some k, the row of ranks shared by
    every function that orders its entries alike; there are Fubini(n) of
    them (541 at n = 5, 47,293 at n = 7).

    The composition rows (1, a_2, ..., a_n) with steps a_{j+1} - a_j of 0
    or 1 are the sorted types, one per key sum_j (a_{j+2} - a_{j+1}) 2^j,
    and `_table_arrangement_blocks` arranges each into its types.  A type's
    functions to [m] replace 1..k by k increasing values, so [n+1]^n holds
    C(n + 1, k) of each type with k values.  Sorting is a bijection from the
    parking functions of one type onto the sorted PF_n rows whose ties fall
    where the type's do (PF_n is closed under rearrangement), so PF_n holds
    as many of each type as `_sorted_blocks` has sorted rows with its key.
    Raises `CapacityError` for n > limit, and checks that the counts fit in
    int64, before any block is built."""
    check_enumeration_size(n, limit)
    _check_rows((n + 1) ** n)
    keys = 1 << (n - 1)
    bits = 1 << np.arange(n - 1)
    compositions = np.ones((keys, n), dtype=np.int64)
    np.cumsum((np.arange(keys)[:, None] & bits) > 0, axis=1, out=compositions[:, 1:])
    compositions[:, 1:] += 1
    pf_weights = np.zeros(keys, dtype=np.int64)
    for block in _sorted_blocks(n, range(1, n + 1)):
        pf_weights += np.bincount((block[:, 1:] > block[:, :-1]) @ bits, minlength=keys)
    fn_weights = np.array([math.comb(n + 1, k) for k in range(n + 1)])[compositions[:, -1]]
    arrangements = _arrangement_counts(compositions)
    blocks = (np.asfortranarray(block, dtype=np.int64)
              for block in _table_arrangement_blocks([compositions], n))
    return blocks, np.repeat(pf_weights, arrangements), np.repeat(fn_weights, arrangements)


def _type_scores(feature: str, n: int, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, pf_weights, fn_weights): a feature that only compares
    entries (`stats.compares_only`) scored on each row of `_type_rows`, with
    the row's counts on PF_n and on [n+1]^n.  Raises ValueError for a name
    `stats.statistic_kernel` refuses before it checks the size."""
    kernel = statistic_kernel(feature, n)
    blocks, pf_weights, fn_weights = _type_rows(n, limit)
    values = np.concatenate([kernel(block, n, n + 1) for block in blocks])
    return values, pf_weights, fn_weights


def _sample_source(config: ExperimentConfig) -> tuple[Iterator[np.ndarray], Callable]:
    """(blocks, kernel) for `run_experiment`.  On pf, a statistic in
    RAW_DRAW_STATISTICS scores the raw draws of [n+1]^n: its kernel reads
    the statistic of each shifted row from the draw and the walk that finds
    the shift, so the row is never shifted.  Any other statistic scores the
    rows of `sample_blocks`."""
    n, count, seed = config.n, config.count, config.seed
    # by name, not by kernel, as in `_exhaustive_source`
    if config.ensemble == "pf" and config.statistic in st.RAW_DRAW_STATISTICS:
        return _draws(n, count, seed, n + 1), st.RAW_DRAW_STATISTICS[config.statistic]
    return sample_blocks(n, count, seed, config.ensemble), statistic_kernel(config.statistic, n)


def run_experiment(config: ExperimentConfig) -> Histogram:
    """Sample `count` functions, one stream per sample index, and histogram
    the named statistic.  Deterministic for a given seed."""
    blocks, kernel = _sample_source(config)
    n = config.n
    m = _codomain(config.ensemble, n)
    return Histogram.from_bins(
        _census(kernel, blocks, n, m),
        n=n,
        statistic=config.statistic,
        ensemble=config.ensemble,
        seed=config.seed,
        count=config.count,
    )


def exhaustive_histogram(n: int, statistic: str, ensemble: str = "pf",
                         limit: int = DEFAULT_ENUM_LIMIT) -> Histogram:
    """Exact histogram of a statistic over all of PF_n or an all-functions
    ensemble; counts are exact integers.  Raises ValueError for an ensemble
    not in ENSEMBLES and `CapacityError` for n > limit on every ensemble,
    before any block is built."""
    blocks, weigh = _exhaustive_source(statistic, n, ensemble, limit)
    kernel = statistic_kernel(statistic, n)
    m = _codomain(ensemble, n)
    return Histogram(n=n, statistic=statistic, ensemble=ensemble, seed=None,
                     count="exhaustive", bins=_census(kernel, blocks, n, m, weigh))


def _census(kernel: Callable, blocks: Iterator[np.ndarray], n: int, m: int,
            weigh: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> dict[Hashable, int]:
    """Exact count of each kernel value over every row of the blocks, keyed
    in order of first occurrence.  With `weigh`, row r of a block counts
    weigh(block)[r] times.  Each block is counted in numpy, and only its
    distinct values become Python values."""
    bins: dict[Hashable, int] = {}
    for block in blocks:
        distinct = _distinct(kernel(block, n, m), None if weigh is None else weigh(block))
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
    entries' weights.  `np.unique` sorts one key per entry (`_row_keys` for
    rows) with a stable sort, so narrowing the keys (`_sort_keys`) changes
    its speed but not which entry comes first."""
    if values.ndim == 2:
        rows, width = values.shape
        if not rows or not width:  # no min() of no rows, no zero-width np.void
            return [((), rows if weights is None else int(weights.sum()))] if rows else []
        keys = _row_keys(values)
    else:
        keys = values
    if weights is None:
        _keys, first, counts = np.unique(_sort_keys(keys), return_index=True, return_counts=True)
    else:  # summed in int64: np.bincount would add the weights as float64
        _keys, first, inverse = np.unique(_sort_keys(keys), return_index=True,
                                          return_inverse=True)
        counts = np.zeros(first.size, dtype=np.int64)
        np.add.at(counts, inverse, weights)
    order = np.argsort(first)
    distinct = values[first[order]].tolist()
    if values.ndim == 2:
        distinct = map(tuple, distinct)
    return zip(distinct, counts[order].tolist())


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
            return rows @ np.left_shift(1, bits * np.arange(width, dtype=np.int64))
        keys = np.zeros(rows.shape[0], dtype=np.int64)
        for column in rows.T[::-1]:  # column j lands at bit bits * j
            keys <<= bits
            keys |= column
        return keys
    dtype = np.result_type(np.min_scalar_type(low), np.min_scalar_type(high))
    packed = np.ascontiguousarray(rows, dtype=dtype)
    return packed.view(np.dtype((np.void, packed.shape[1] * dtype.itemsize))).ravel()


# --- distances ------------------------------------------------------------

def tv_distance(p, q) -> float:
    """Total variation distance: half the L1 distance after normalizing."""
    p_probs = p.probabilities() if isinstance(p, Histogram) else dict(p)
    q_probs = q.probabilities() if isinstance(q, Histogram) else dict(q)
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
    [n] -> [n+1], after scaling by n + 1.  A feature that only compares
    entries (`stats.compares_only`) is scored once per weak-order type, each
    type weighted by its number of rows in either ensemble (`_type_rows`);
    an order-free statistic on the sorted rows; any other on every row of
    both.  The feature is any name `stats.statistic_kernel` takes:
    "longest-run>=", "strict-peak@3" or a chain expression such as
    "1<3;2>=4"; the report keeps the name as given."""
    if st.compares_only(feature):
        values, pf_weights, fn_weights = _type_scores(feature, n, limit)
        # the laws agree exactly when each value's fn - (n + 1) pf count is 0
        gaps = _distinct(values, fn_weights - (n + 1) * pf_weights)
        unequal = [v for v, gap in gaps if gap]
    else:
        kernel = statistic_kernel(feature, n)
        # both sources check their size before either census starts
        sources = [_exhaustive_source(feature, n, ensemble, limit) for ensemble in ("pf", "fn1")]
        pf_counts, f_counts = (_census(kernel, blocks, n, n + 1, weigh)
                               for blocks, weigh in sources)
        unequal = [v for v in set(pf_counts) | set(f_counts)
                   if f_counts.get(v, 0) != (n + 1) * pf_counts.get(v, 0)]
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
    holds, pf_weights, fn_weights = _type_scores(f"weak-peak@{i}", n, limit)
    pf_count, f_count = int(pf_weights[holds].sum()), int(fn_weights[holds].sum())
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
    # joint counts over the first k coordinates (PF_n is permutation-symmetric),
    # summed along each axis in place: exact in int64, and the grid is the
    # one array of its size
    counts = np.zeros((n,) * k, dtype=np.int64)
    for block in pf_blocks(n, limit):
        np.add.at(counts, tuple(block[:, :k].T - 1), 1)
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
