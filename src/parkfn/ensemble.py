"""Monte Carlo experiment harness and exact ensemble-comparison checks.

The "equivalence of ensembles" engine: seeded, reproducible experiments over
uniform parking functions or uniform functions, exact equidistribution
checks between PF_n and the (n+1)-codomain ensemble, and distribution
distances (total variation, Kolmogorov-Smirnov).
"""

from __future__ import annotations

import marshal
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional

import numpy as np

from . import stats as st
from .core import BLOCK_ELEMENTS
from .enumeration import DEFAULT_ENUM_LIMIT, check_enumeration_size, count_pf
from .sample import draw_block, shift_block
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
    relation: str = "<"  # used by longest-run only

    def __post_init__(self) -> None:
        if self.n < 1 or self.count < 1:
            raise ValueError("n and count must be >= 1")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        statistic_kernel(self.statistic, self.relation)


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
    the order of JSON bins and of witness scans, without formatting each key
    when the keys allow it (see `_byte_keys`)."""
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
    step = _block_rows(n)
    high = n + 1 if ensemble == "pf" else _codomain(ensemble, n)
    buffer = np.empty((min(step, count), n), dtype=np.int64)
    for start in range(0, count, step):
        block = draw_block(seed, start, min(start + step, count), n, high, out=buffer)
        yield shift_block(block, n) if ensemble == "pf" else block


def _index_blocks(n: int, m: int, total: int) -> Iterator[np.ndarray]:
    """Rows 0..total-1 of [m]^n in the order of itertools.product, as
    column-major blocks of at most BLOCK_ELEMENTS values: row i holds the n
    base-m digits of i, most significant first, plus one."""
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"{total} rows do not fit in int64 row indices")
    step = _block_rows(n)

    def digits(start: int) -> np.ndarray:
        index = np.arange(start, min(start + step, total), dtype=np.int64)
        block = np.empty((n, index.size), dtype=np.int64).T
        for j in range(n - 1, -1, -1):
            np.divmod(index, m, out=(index, block[:, j]))
        block += 1
        return block

    return map(digits, range(0, total, step))


def function_blocks(n: int, m: int) -> Iterator[np.ndarray]:
    """All m^n functions [n] -> [m], in the order of `all_functions`, one
    function per row of column-major int64 blocks."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return _index_blocks(n, m, m**n)


def pf_blocks(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> Iterator[np.ndarray]:
    """Each parking function of size n once, one per row of column-major
    int64 blocks.  Adding a constant mod n+1 splits [n+1]^n into orbits of
    n+1 functions, and each orbit holds one function with f_1 = 1 and one
    parking function (the cycle lemma), so shifting the (n+1)^(n-1)
    functions with f_1 = 1 gives PF_n."""
    check_enumeration_size(n, limit)
    # in product order the functions with f_1 = 1 come first
    return (shift_block(block, n) for block in _index_blocks(n, n + 1, count_pf(n)))


def run_experiment(config: ExperimentConfig) -> Histogram:
    """Sample `count` functions, one stream per sample index, and histogram
    the named statistic.  Deterministic for a given seed."""
    kernel = statistic_kernel(config.statistic, config.relation)
    n = config.n
    m = _codomain(config.ensemble, n)
    blocks = sample_blocks(n, config.count, config.seed, config.ensemble)
    return Histogram.from_bins(
        _census(kernel, blocks, n, m),
        n=n,
        statistic=config.statistic,
        ensemble=config.ensemble,
        seed=config.seed,
        count=config.count,
    )


def exhaustive_histogram(n: int, statistic: str, ensemble: str = "pf",
                         relation: str = "<", limit: int = DEFAULT_ENUM_LIMIT) -> Histogram:
    """Exact histogram of a statistic over all of PF_n or an all-functions
    ensemble; counts are exact integers.  Raises `CapacityError` for
    n > limit on every ensemble, before any block is built."""
    check_enumeration_size(n, limit)
    kernel = statistic_kernel(statistic, relation)
    m = _codomain(ensemble, n)
    blocks = pf_blocks(n, limit) if ensemble == "pf" else function_blocks(n, m)
    return Histogram(n=n, statistic=statistic, ensemble=ensemble, seed=None,
                     count="exhaustive", bins=_census(kernel, blocks, n, m))


def _census(kernel: Callable, blocks: Iterator[np.ndarray], n: int, m: int) -> dict[Hashable, int]:
    """Exact count of each kernel value over every row of the blocks, keyed
    in order of first occurrence.  Each block is counted in numpy, and only
    its distinct values become Python values."""
    bins: dict[Hashable, int] = {}
    for block in blocks:
        distinct = _distinct(kernel(block, n, m))
        if not bins:  # the first block hashes each key once (tuples cache no hash)
            bins.update(distinct)
            continue
        for value, count in distinct:
            bins[value] = bins.get(value, 0) + count
    return bins


def _distinct(values: np.ndarray) -> Iterable[tuple[Hashable, int]]:
    """(value, count) of each distinct entry of a 1-D array, or of each
    distinct row of a 2-D one as a tuple of ints, in order of first
    occurrence."""
    if values.ndim == 2:
        rows, width = values.shape
        if not rows or not width:  # no min() of no rows, no zero-width np.void
            return [((), rows)] if rows else []
        keys = _row_keys(values)
    else:
        keys = values
    _keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    distinct = values[first[order]].tolist()
    if values.ndim == 2:
        distinct = map(tuple, distinct)
    return zip(distinct, counts[order].tolist())


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
    witness: Optional[Hashable]  # first violating feature value, if any


# The features whose law on PF_n, scaled by n + 1, equals their law on
# [n+1]^n: what `parkfn compare` checks by default.
EQUIDISTRIBUTED_FEATURES = ("descent-pattern", "equality-pattern", "weak-descent-pattern",
                            "species", "inversions", "longest-run")


def _feature_kernel(feature: str, n: int, relation: str = "<",
                    poset: Optional[st.ChainPoset] = None,
                    position: int = 2) -> Callable:
    """The kernel of a feature on functions [n] -> [n+1].  Comparisons only
    depend on relative values, so the same kernel serves PF_n and the
    extended ensemble; both are scored with codomain n + 1."""
    if feature in EQUIDISTRIBUTED_FEATURES:
        pattern = {"equality-pattern": "=", "weak-descent-pattern": "<="}.get(feature)
        if pattern:
            return st.descent_pattern_statistic(pattern)
        return statistic_kernel(feature, relation)
    # Negative controls (they distinguish the ensembles): all features below but chain-poset.
    if feature == "forced-gap":
        if n < 2:
            raise ValueError("forced-gap needs n >= 2")
        return lambda block, n, m: block[:, 0] < block[:, 1] - 1
    i = position
    if feature in ("strict-peak", "mixed-chain") and not 2 <= i <= n - 1:
        raise ValueError(f"{feature} position must be in [2, n-1], got {i}")
    if feature == "chain-poset":
        if poset is None:
            raise ValueError("chain-poset feature needs a poset")
        chains = poset.chains
    elif feature == "strict-peak":  # f_{i-1} < f_i > f_{i+1}
        chains = (st.Chain((i - 1, i), "<"), st.Chain((i, i + 1), ">"))
    elif feature == "mixed-chain":  # f_{i-1} <= f_i < f_{i+1}
        chains = (st.Chain((i - 1, i), "<="), st.Chain((i, i + 1), "<"))
    elif feature == "non-disjoint-chain":  # 1<2<3 and 4<2<5 share position 2
        chains = (st.Chain((1, 2, 3), "<"), st.Chain((4, 2, 5), "<"))
    else:
        raise ValueError(f"unknown feature {feature!r}")
    if max((p for c in chains for p in c.positions), default=0) > n:
        raise ValueError(f"{feature} reads a position beyond n = {n}")
    return lambda block, n, m: st._chains_hold(block, chains)


def exact_equidistribution(n: int, feature: str, relation: str = "<",
                           poset: Optional[st.ChainPoset] = None, position: int = 2,
                           limit: int = DEFAULT_ENUM_LIMIT) -> EquidistributionReport:
    """Brute-force joint feature distribution over PF_n versus all functions
    [n] -> [n+1]; equality must hold exactly after scaling by n+1."""
    kernel = _feature_kernel(feature, n, relation=relation, poset=poset, position=position)
    pf_counts = _census(kernel, pf_blocks(n, limit), n, n + 1)
    f_counts = _census(kernel, function_blocks(n, n + 1), n, n + 1)
    for v in _str_sorted(set(pf_counts) | set(f_counts)):
        if f_counts.get(v, 0) != (n + 1) * pf_counts.get(v, 0):
            return EquidistributionReport(n=n, feature=feature, equal=False, witness=v)
    return EquidistributionReport(n=n, feature=feature, equal=True, witness=None)


@dataclass(frozen=True)
class WeakPeakReport:
    n: int
    position: int
    equal: bool
    pf_count: int
    f_count: int


def weak_peak_check(n: int, i: int, limit: int = DEFAULT_ENUM_LIMIT) -> WeakPeakReport:
    """Verify P(f_{i-1} < f_i >= f_{i+1}) is equal across ensembles, exactly,
    via inclusion-exclusion over two chain posets:
    #(weak peak) = #(f_{i-1} < f_i) - #(f_{i-1} < f_i < f_{i+1})."""
    if not 2 <= i <= n - 1:
        raise ValueError("peak position must be in [2, n-1]")
    rise = st.Chain((i - 1, i), "<")
    conditions = ((rise,), (st.Chain((i - 1, i, i + 1), "<"),),
                  (rise, st.Chain((i, i + 1), ">=")))

    def census(blocks) -> list[int]:
        return sum(np.array([np.count_nonzero(st._chains_hold(block, c)) for c in conditions])
                   for block in blocks).tolist()

    pf1, pf2, pf_direct = census(pf_blocks(n, limit))
    f1, f2, f_direct = census(function_blocks(n, n + 1))
    for name, rises, runs, direct in (("PF_n", pf1, pf2, pf_direct), ("[n+1]^n", f1, f2, f_direct)):
        if rises - runs != direct:
            raise RuntimeError(
                f"weak_peak_check(n={n}, i={i}): inclusion-exclusion fails on {name}: "
                f"#(rise) {rises} - #(double rise) {runs} != #(weak peak) {direct}")
    equal = f_direct == (n + 1) * pf_direct
    return WeakPeakReport(n=n, position=i, equal=equal, pf_count=pf_direct, f_count=f_direct)


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
    x_j = i_j/n; asserts the 2k sqrt(log n / n) + k(k-1)/n bound (n >= 4)."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got k = {k} for n = {n}")
    total = count_pf(n)
    # joint counts over the first k coordinates (PF_n is permutation-symmetric)
    counts = np.zeros((n,) * k, dtype=np.int64)
    for block in pf_blocks(n, limit):
        np.add.at(counts, tuple(block[:, :k].T - 1), 1)
    # CDF by cumulative sums along each axis
    cdf = counts.astype(np.float64)
    for axis in range(k):
        cdf = np.cumsum(cdf, axis=axis)
    cdf /= total
    axes_grid = np.arange(1, n + 1) / n
    product_cdf = axes_grid
    for _ in range(k - 1):
        product_cdf = np.multiply.outer(product_cdf, axes_grid)
    max_diff = float(np.abs(cdf - product_cdf).max())
    bound = 2 * k * math.sqrt(math.log(n) / n) + k * (k - 1) / n
    return JointBoundReport(n=n, k=k, holds=(n >= 4 and max_diff <= bound),
                            max_difference=max_diff, bound=bound)
