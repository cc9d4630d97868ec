"""Experiment harness, distances, and exact ensemble comparisons."""

import dataclasses
import json
import math
import re
import statistics
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement, islice, permutations, product

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st_h

from parkfn import (
    ExperimentConfig,
    Histogram,
    exact_equidistribution,
    exhaustive_histogram,
    is_parking_function,
    joint_coordinate_bound_check,
    ks_distance_to_limit,
    run_experiment,
    tv_distance,
    weak_peak_check,
)
from parkfn import ensemble, sample, stats
from parkfn.core import inconvenience
from parkfn.enumeration import CapacityError, count_pf, enumerate_pf, first_counts, gf_closed_form
from parkfn.ensemble import EQUIDISTRIBUTED_FEATURES, sample_blocks
from parkfn.sample import (
    sample_parking_function,
    sample_uniform_function,
    shift_block,
    split_stream,
)
from parkfn.stats import STATISTICS, statistic_kernel

# The registry name of longest-run under each relation.
LONGEST_RUNS = {"longest-run" + ("" if r == "<" else r): r for r in ("<", ">", "<=", ">=", "=")}


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=0, count=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=3, count=1, seed=0, ensemble="permutations")
    # longest-run names its relation
    for name in LONGEST_RUNS:
        ExperimentConfig(n=3, count=1, seed=0, statistic=name)
    # every feature name is a statistic: a peak, a chain expression, a pattern
    ExperimentConfig(n=5, count=1, seed=0, statistic="weak-peak@3")
    # 1 < 3 on C(5, 2) pairs and 2 >= 4 on C(6, 2) of the 5^2 pairs
    assert exhaustive_histogram(4, "1<3;2>=4", "fn1").bins == {True: 10 * 15, False: 625 - 150}
    assert sum(exhaustive_histogram(4, "equality-pattern").bins.values()) == count_pf(4)
    # an unknown statistic is a ValueError that names it, wherever the name
    # is looked up
    bad_names = [
        ("'entropy'", lambda: ExperimentConfig(n=3, count=1, seed=0, statistic="entropy")),
        ("'longest-run~'", lambda: ExperimentConfig(n=3, count=1, seed=0,
                                                    statistic="longest-run~")),
        ("'bogus'", lambda: exhaustive_histogram(3, "bogus")),
        ("'longest-run~'", lambda: exact_equidistribution(3, "longest-run~")),
        # a peak or an expression is checked against n when the config is built
        ("'weak-peak@3'", lambda: ExperimentConfig(n=3, count=1, seed=0,
                                                   statistic="weak-peak@3")),
        ("'1<5'", lambda: ExperimentConfig(n=3, count=1, seed=0, statistic="1<5")),
    ]
    # an unknown ensemble, on the sorted rows and on the scan (a case-folded
    # "PF" would count [3]^3 as PF_3)
    bad_names += [(repr(name), lambda stat=stat, name=name: exhaustive_histogram(3, stat, name))
                  for stat in ("area", "first") for name in ("bogus", "PF")]
    for name, call in bad_names:
        with pytest.raises(ValueError, match=name):
            call()
    # a float seed would draw the streams of its integer part
    for seed in (1.5, 1.0, np.float64(1)):
        with pytest.raises(TypeError):
            ExperimentConfig(n=3, count=1, seed=seed)


def test_lucky_is_refused_off_pf_up_front(monkeypatch):
    # lucky parks the cars, so it is defined on parking functions alone.  On
    # an ensemble that holds other functions it is refused before any draw
    # or block, whatever the seed would draw: at n = 2 on fn, seed 0 draws
    # only parking functions and seed 1 does not.
    message = "lucky requires a parking function, and ensemble fn1? holds other functions"
    blocks = []
    original = ensemble._pf_rows
    monkeypatch.setattr(ensemble, "_pf_rows",
                        lambda n: (blocks.append(b.shape) or b for b in original(n)))
    for ensemble_name, n in (("fn", 2), ("fn", 8), ("fn1", 1), ("fn1", 2), ("fn1", 8)):
        for seed in (0, 1):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(n=n, count=1, seed=seed, ensemble=ensemble_name,
                                 statistic="lucky")
        with pytest.raises(ValueError, match=message):
            exhaustive_histogram(n, "lucky", ensemble_name)
    # the fn1 side of the comparison is refused before PF_8 is scanned
    with pytest.raises(ValueError, match=message):
        exact_equidistribution(8, "lucky")
    assert not blocks
    # [1]^1 is PF_1, so there lucky is defined on every draw
    for seed in (0, 1):
        config = ExperimentConfig(n=1, count=3, seed=seed, ensemble="fn", statistic="lucky")
        assert run_experiment(config).bins == {1: 3}
    assert exhaustive_histogram(1, "lucky", "fn").bins == {1: 1}


def test_config_stores_plain_int_sizes():
    # numpy ints become Python ints: the shift and the JSON output see ints
    config = ExperimentConfig(n=np.int64(3), count=np.int64(3), seed=np.uint64(1))
    assert [type(v) for v in (config.n, config.count, config.seed)] == [int, int, int]
    record = run_experiment(config).to_json_dict()
    assert record["count"] == 3 and type(record["count"]) is int
    assert json.loads(json.dumps(record)) == record
    for size in ({"n": 3.0}, {"count": 3.0}, {"n": np.float64(3)}):
        with pytest.raises(TypeError):
            ExperimentConfig(**{"n": 3, "count": 3, "seed": 1, **size})
    # a seed outside [0, 2^64) is refused at construction, not at the draw
    ExperimentConfig(n=3, count=1, seed=2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(n=3, count=1, seed=seed)


def test_run_experiment_deterministic_and_total():
    config = ExperimentConfig(n=12, count=400, seed=77, statistic="lucky")
    h1 = run_experiment(config)
    h2 = run_experiment(config)
    assert h1.bins == h2.bins
    assert h1.total == 400
    assert h1.summaries["mean"] == pytest.approx(
        sum(v * c for v, c in h1.bins.items()) / 400
    )


def _sampled_rows(n, count, seed, ensemble):
    return [r for block in sample_blocks(n, count, seed, ensemble) for r in block.tolist()]


def _one_sample_rows(n, count, ensemble):
    if ensemble == "pf":
        return [list(sample_parking_function(n, split_stream(5, i))) for i in range(count)]
    m = n + 1 if ensemble == "fn1" else n
    return [list(sample_uniform_function(n, m, split_stream(5, i)).values)
            for i in range(count)]


def test_sample_blocks_match_one_sample_api():
    # several blocks through the one shared buffer, the last one partial
    # (65 rows a block at n = 1000), one-row blocks at n = 40000, and n = 10^5,
    # where a row skips 0.57 drawn words on average on pf and 1.57 on fn
    for n, count, ensembles in ((1000, 150, ("pf", "fn1")), (40_000, 3, ("pf", "fn1")),
                                (100_000, 4, ("pf", "fn"))):
        for ensemble in ensembles:
            rows = _sampled_rows(n, count, 5, ensemble)
            assert rows == _one_sample_rows(n, count, ensemble), (n, ensemble)
    assert list(sample_blocks(4, 0, 5)) == []
    with pytest.raises(ValueError):
        list(sample_blocks(4, -1, 5))
    for name in ("PF", "bogus"):  # case matters: "PF" is not "pf"
        with pytest.raises(ValueError, match="unknown ensemble"):
            next(sample_blocks(3, 6, 0, name))


def test_raw_draw_statistics_score_the_shifted_rows():
    # on pf, the statistics of RAW_DRAW_STATISTICS score the raw draws; their
    # bins, in order, are those of the row kernels on the shifted rows:
    # one-row blocks, wide blocks and tall ones
    assert ensemble._block_rows(32_769) == 1
    assert ensemble._block_rows(15) >= 3000
    for n, count in ((32_769, 4), (200, 150), (15, 3000), (1, 5)):
        for stat in stats.RAW_DRAW_STATISTICS:
            rows = ensemble._census(STATISTICS[stat], sample_blocks(n, count, 9), n, n)
            bins = run_experiment(ExperimentConfig(n=n, count=count, seed=9,
                                                   statistic=stat)).bins
            assert list(bins.items()) == list(rows.items()), (n, stat)


# From n = 32,769 a block is one row, and with two CPUs `run_experiment`
# scores the odd rows on a helper thread: every raw-draw statistic, row
# kernels on shifted rows, and fn1's tuple-valued and walk statistics.
ONE_ROW_N = 32_769
ONE_ROW_CASES = tuple(dict.fromkeys(
    [(stat, "pf") for stat in stats.RAW_DRAW_STATISTICS]
    + [(stat, "pf") for stat in ("lucky", "inversions", "species", "descent-pattern")]
    + [("species", "fn1"), ("scaled-max-discrepancy", "fn1")]))
ONE_ROW_COUNTS = (1, 2, 3, 5)


@pytest.fixture(scope="module")
def one_row_censuses():
    # one thread's census of the rows of `sample_blocks`, for each case and
    # count; the O(n^2) inversions kernel takes 0.4 s a row at this n, so it
    # runs two rows, one on each thread
    n = ONE_ROW_N
    censuses = {}
    for stat, ensemble_name in ONE_ROW_CASES:
        m = n + 1 if ensemble_name == "fn1" else n
        for count in (2,) if stat == "inversions" else ONE_ROW_COUNTS:
            blocks = sample_blocks(n, count, 11, ensemble_name)
            bins = ensemble._census(statistic_kernel(stat, n), blocks, n, m)
            censuses[stat, ensemble_name, count] = list(bins.items())
    return censuses


@pytest.mark.parametrize("cpus", [2, 1])
def test_one_row_blocks_keep_one_threads_bins(monkeypatch, one_row_censuses, cpus):
    assert ensemble._block_rows(ONE_ROW_N) == 1
    assert ensemble._block_rows(ONE_ROW_N - 1) == 2
    monkeypatch.setattr(ensemble, "_cpu_count", lambda: cpus)
    threads = threading.active_count()
    for (stat, ensemble_name, count), census in one_row_censuses.items():
        bins = run_experiment(ExperimentConfig(n=ONE_ROW_N, count=count, seed=11,
                                               ensemble=ensemble_name, statistic=stat)).bins
        assert list(bins.items()) == census, (stat, ensemble_name, count)
        assert threading.active_count() == threads
    # the helper scores rows only when the process may run on two CPUs
    on_main = []
    first = STATISTICS["first"]

    def recording_first(block, n, m):
        on_main.append(threading.current_thread() is threading.main_thread())
        return first(block, n, m)

    monkeypatch.setitem(STATISTICS, "first", recording_first)
    run_experiment(ExperimentConfig(n=ONE_ROW_N, count=4, seed=11, ensemble="fn"))
    assert sorted(on_main) == ([False, False, True, True] if cpus > 1 else [True] * 4)


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("failing", [(1,), (2,), (2, 3), (3, 4)])
def test_a_failing_one_row_block_raises_from_run_experiment(monkeypatch, cpus, failing):
    # row 1 is the helper's, row 2 the caller's: the first failing row's
    # exception is raised, with its type and message, and no thread is left
    n = ONE_ROW_N
    rows = {row: sample.draw_block(11, row, row + 1, n, n) for row in failing}
    first = STATISTICS["first"]

    def failing_first(block, n, m):
        for row, values in rows.items():
            if np.array_equal(block, values):
                raise ZeroDivisionError(f"row {row}")
        return first(block, n, m)

    monkeypatch.setitem(STATISTICS, "first", failing_first)
    monkeypatch.setattr(ensemble, "_cpu_count", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match=f"^row {min(failing)}$"):
        run_experiment(ExperimentConfig(n=n, count=5, seed=11, ensemble="fn"))
    assert threading.active_count() == threads


def test_concurrent_experiments_keep_one_threads_bins(monkeypatch):
    # three callers, each with its helper: six threads on at most two CPUs,
    # switching every microsecond; a row handed to the wrong census, or
    # tallied twice, changes the bins
    monkeypatch.setattr(ensemble, "_cpu_count", lambda: 2)
    n, count = ONE_ROW_N, 9
    expected = {}
    for seed in (1, 2, 3):
        blocks = sample_blocks(n, count, seed, "fn")
        expected[seed] = list(ensemble._census(STATISTICS["first"], blocks, n, n).items())
    results = {}

    def experiment(seed):
        config = ExperimentConfig(n=n, count=count, seed=seed, ensemble="fn")
        results[seed] = list(run_experiment(config).bins.items())

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=experiment, args=(seed,)) for seed in expected]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    assert threading.active_count() == threads


def test_count_past_the_last_stream_is_refused():
    # sample i is drawn from stream i, and stream indices lie in [0, 2^64):
    # 2^64 samples are accepted, one more is refused before any draw
    ExperimentConfig(n=5, count=2**64, seed=1)
    step = ensemble._block_rows(5)
    first_block = next(sample_blocks(5, 2**64, 1))
    assert np.array_equal(first_block, next(sample_blocks(5, step, 1)))
    with pytest.raises(ValueError, match=r"2\^64"):
        ExperimentConfig(n=5, count=2**64 + 1, seed=1)
    with pytest.raises(ValueError, match=r"2\^64"):
        next(sample_blocks(5, 2**64 + 1, 1))


def _binomial_law(trials: int, p: float, offset: int = 0) -> dict[int, float]:
    """Bin(trials, p) shifted by offset, in floats: each term from the last,
    so that no term needs a big integer; terms below the float range are 0."""
    pmf = {offset: (1 - p) ** trials}
    for k in range(trials):
        pmf[offset + k + 1] = pmf[offset + k] * (trials - k) / (k + 1) * (p / (1 - p))
    return pmf


def test_sampled_statistics_match_their_exact_laws():
    # the KS distance between the sampled and exact CDFs of N samples stays
    # below sqrt(ln(2/alpha) / (2N)) but with probability alpha (the DKW
    # inequality with Massart's constant; the bound is conservative for a
    # discrete law)
    alpha = 1e-6
    cases = [("max-discrepancy", 7, ensemble_name,
              exhaustive_histogram(7, "max-discrepancy", ensemble_name).bins)
             for ensemble_name in ensemble.ENSEMBLES]
    # at Monte Carlo size: the row form of lucky and the raw-draw kernels
    cases += [(stat, 100, "pf", dict(enumerate(gf_closed_form(100, stat))))
              for stat in ("lucky", "repeats", "ones")]
    cases.append(("first", 100, "pf", dict(enumerate(first_counts(100), start=1))))
    # features at a size no exhaustive check reaches: the laws on PF_100,
    # scaled by m = 101, are the laws on [m]^100, which read only the
    # positions named.  a < b >= c holds for (b - 1) b of the m^2 pairs (a, c)
    # at b, and 1 < 3 and 2 >= 4 are independent.
    m = 101
    peak = (m - 1) * m * (m + 1) // 3
    cases += [("weak-peak@50", 100, name, {True: peak, False: m**3 - peak})
              for name in ("pf", "fn1")]
    chains = (m - 1) * m // 2 * (m * (m + 1) // 2)
    cases.append(("1<3;2>=4", 100, "pf", {True: chains, False: m**4 - chains}))
    # comparison statistics at n = 8, against their exact laws on the
    # weak-order types: pf repeats from the raw draws, the rest from the
    # shifted rows, and fn1 draws as they are
    cases += [(stat, 8, name, exhaustive_histogram(8, stat, name).bins)
              for stat in ("inversions", "descents", "repeats", "longest-run")
              for name in ("pf", "fn1")]
    cases = [(*case, 20_000) for case in cases]
    # one-row blocks, on two threads where two CPUs are free: repeats and
    # ones - 1 follow Bin(n - 1, 1/(n + 1)), gf_closed_form's (q + n)^(n-1)
    # over (n + 1)^(n-1), in floats.  A draw scored unshifted has
    # P(ones = 0) near 1/e, not 0.
    n = ONE_ROW_N
    cases += [("repeats", n, "pf", _binomial_law(n - 1, 1 / (n + 1)), 1_000),
              ("ones", n, "pf", _binomial_law(n - 1, 1 / (n + 1), offset=1), 1_000)]
    for stat, n, ensemble_name, exact, count in cases:
        bound = math.sqrt(math.log(2 / alpha) / (2 * count))
        sampled = run_experiment(ExperimentConfig(n=n, count=count, seed=2024,
                                                  ensemble=ensemble_name,
                                                  statistic=stat)).bins
        assert set(sampled) <= {v for v, c in exact.items() if c}, (stat, ensemble_name)
        total = sum(exact.values())
        gap = exact_cdf = sampled_cdf = 0
        for value in sorted(exact):
            exact_cdf += exact[value]
            sampled_cdf += sampled.get(value, 0)
            gap = max(gap, abs(exact_cdf / total - sampled_cdf / count))
        assert gap < bound, (stat, n, ensemble_name, gap)
    # The DKW bound cannot tell a feature from its neighbour with one relation
    # changed: at n = 100 the rates differ by 0.005.  At n = 20 (m = 21) they
    # differ by 0.023, and a binomial bound of 5 standard errors at N = 50,000
    # samples, 0.010 or less, keeps the sampled rate of each feature more
    # than 5 standard errors from its neighbour's exact rate on [m]^3 or
    # [m]^4, counted here.
    count, m = 50_000, 21
    triples = list(product(range(1, m + 1), repeat=3))
    weak_peaks = sum(a < b >= c for a, b, c in triples)
    strict_peaks = sum(a < b > c for a, b, c in triples)
    weak_chains = sum(a < c and b >= d for a, b, c, d in product(range(1, m + 1), repeat=4))
    strict_chains = (m - 1) * m // 2 * ((m - 1) * m // 2)  # 1 < 3 and 2 > 4
    assert (weak_peaks, strict_peaks, weak_chains, strict_chains) == (3080, 2870, 48510, 44100)
    for stat, ensemble_name, holds, neighbour, k in (
            ("weak-peak@10", "pf", weak_peaks, strict_peaks, 3),
            ("weak-peak@10", "fn1", weak_peaks, strict_peaks, 3),
            ("1<3;2>=4", "pf", weak_chains, strict_chains, 4)):
        bins = run_experiment(ExperimentConfig(n=20, count=count, seed=2024,
                                               ensemble=ensemble_name, statistic=stat)).bins
        assert set(bins) <= {True, False}, (stat, ensemble_name)
        rate, p, q = bins.get(True, 0) / count, holds / m**k, neighbour / m**k
        se = math.sqrt(p * (1 - p) / count)
        assert abs(rate - p) <= 5 * se, (stat, ensemble_name, rate, p)
        assert abs(rate - q) > 5 * se, (stat, ensemble_name, rate, q)


def test_registry_statistics_match_reference_functions():
    reference = {
        "first": lambda v: v[0],
        "lucky": oracles.lucky,
        "repeats": oracles.repeats,
        "ones": oracles.ones,
        "descents": oracles.descents,
        "inversions": oracles.inversions,
        "max-discrepancy": oracles.max_discrepancy,
        "scaled-area": oracles.scaled_area,
    }
    for n in range(1, 6):
        pfs = list(enumerate_pf(n))
        block = np.array(pfs, dtype=np.int64)
        for name, ref in reference.items():
            assert _to_python(STATISTICS[name](block, n, n)) == [ref(pf) for pf in pfs]


def _max_discrepancy_by_definition(f):
    # max over k in [0, n] of #{i : f_i <= k} - k; values n + 1 (fn1) never count
    return max(sum(1 for v in f if v <= k) - k for k in range(len(f) + 1))


def _kmax_by_definition(f):
    decomp = stats.max_first_coordinate(f[1:])
    return 0 if decomp is None else decomp.k


# The independent definition of each statistic; lucky is checked against the
# parking process in test_lucky_kernel_matches_parking_process.
SCALAR_DEFINITIONS = {
    "first": lambda f, n, m: f[0],
    "area": lambda f, n, m: inconvenience(f),
    "scaled-area": lambda f, n, m: oracles.scaled_area(f),
    "repeats": lambda f, n, m: oracles.repeats(f),
    "ones": lambda f, n, m: oracles.ones(f),
    "descents": lambda f, n, m: oracles.descents(f),
    "descent-pattern": lambda f, n, m: oracles.descent_pattern(f),
    "species": lambda f, n, m: oracles.species(f, m=m),
    "inversions": lambda f, n, m: oracles.inversions(f),
    "max-discrepancy": lambda f, n, m: _max_discrepancy_by_definition(f),
    "scaled-max-discrepancy": lambda f, n, m: _max_discrepancy_by_definition(f) / math.sqrt(n),
    "kmax": lambda f, n, m: _kmax_by_definition(f),
    **{name: lambda f, n, m, r=r: oracles.longest_run(f, r) for name, r in LONGEST_RUNS.items()},
}


def test_every_statistic_has_an_independent_definition():
    assert set(STATISTICS) == set(SCALAR_DEFINITIONS) | {"lucky"}


def _to_python(values):
    """A kernel's array as one Python value per row: a tuple per row of a
    2-D array."""
    assert isinstance(values, np.ndarray) and values.ndim in (1, 2)
    rows = values.tolist()
    return [tuple(row) for row in rows] if values.ndim == 2 else rows


@st_h.composite
def function_blocks(draw):
    """(funcs, n, m): up to 6 functions [n] -> [m], m = n or n + 1, with small
    n so that ties and the value n + 1 are common."""
    n = draw(st_h.integers(1, 9))
    m = draw(st_h.sampled_from((n, n + 1)))
    row = st_h.lists(st_h.integers(1, m), min_size=n, max_size=n)
    return draw(st_h.lists(row, min_size=1, max_size=6)), n, m


def _inversion_edge_rows(n, m, seed):
    """Rows of width n over [1, m] that hold 1, m and ties, drawn mostly
    from {1, 2, m - 1, m}."""
    rng = np.random.default_rng(seed)
    pool = np.array(sorted({1, 2, m - 1, m}))
    rows = [np.resize([m, 1, m, 1, m - 1], n), np.arange(n, 0, -1) * (m // n)]
    rows += [rng.choice(pool, n) for _ in range(3)] + [rng.integers(1, m + 1, n) for _ in range(3)]
    return np.array(rows, dtype=np.int64)


def test_inversions_kernel_at_dtype_edges():
    # values in [1, m] are compared as uint8 up to m = 255, then uint16 and
    # uint32; acc counts in uint8 through n = 256, then uint16
    kernel = STATISTICS["inversions"]
    for m in (255, 256, 65535, 65536, 1 << 20):
        for n in (2, 9, 40):
            block = _inversion_edge_rows(n, m, seed=m + n)
            assert _to_python(kernel(block, n, m)) == [oracles.inversions(r)
                                                        for r in block.tolist()]
    assert _to_python(kernel(np.ones((3, 1), dtype=np.int64), 1, 1)) == [0, 0, 0]
    for n in (100, 255, 256, 257, 1 << 15, (1 << 15) + 1):  # one reversed row: acc[0] = n - 1
        block = np.arange(n, 0, -1, dtype=np.int64)[None, :]
        assert _to_python(kernel(block, n, n)) == [n * (n - 1) // 2]


def test_species_kernel_matches_oracle_at_its_count_limits():
    # tall blocks in either memory order whose counts reach 15 (mu_0 = 15,
    # mu_1 = 15), and go past it (n = 16, m = 17)
    kernel = STATISTICS["species"]
    tall = 2048
    rng = np.random.default_rng(15)
    for rows, n, m in ((tall - 1, 15, 16), (tall, 15, 16), (tall + 1, 15, 16),
                       (tall, 1, 1), (tall, 15, 1), (tall, 1, 16), (tall, 5, 6),
                       (tall, 16, 17), (tall, 16, 16), (tall, 15, 17)):
        block = rng.integers(1, m + 1, size=(rows, n))
        block[0] = m  # mu_n = 1 and mu_0 = m - 1: 15 at m = 16
        block[1] = np.arange(n) % m + 1  # mu_1 = 15 at n = 15, m = 16
        want = [oracles.species(row, m) for row in block.tolist()]
        for b in (block, np.asfortranarray(block)):
            assert _to_python(kernel(b, n, m)) == want, (rows, n, m)


@given(function_blocks())
def test_kernels_match_scalar_definitions(case):
    funcs, n, m = case
    block = np.array(funcs, dtype=np.int64)
    for name, scalar in SCALAR_DEFINITIONS.items():
        got = _to_python(statistic_kernel(name, n)(block, n, m))
        assert got == [scalar(tuple(f), n, m) for f in funcs], name


# long nxt chains at n = 2000, and fn1 rows holding n + 1, which must raise
@example((_sampled_rows(2000, 8, 3, "pf"), 2000, 2000))
@example(([r for r in _sampled_rows(2000, 8, 3, "fn1") if 2001 in r], 2000, 2001))
@given(function_blocks())
def test_lucky_kernel_matches_parking_process(case):
    funcs, n, _m = case
    block = shift_block(np.array(funcs, dtype=np.int64), n)
    assert _to_python(STATISTICS["lucky"](block, n, n)) == [oracles.lucky(f)
                                                            for f in block.tolist()]
    if not all(is_parking_function(f) for f in funcs):
        with pytest.raises(ValueError):
            STATISTICS["lucky"](np.array(funcs, dtype=np.int64), n, n)


@pytest.mark.parametrize("n", [6, 62, 126, 254])
def test_every_lucky_form_refuses_an_overflow_in_any_row(n):
    # n + 2 is a multiple of 8, so each row of the int form is whole bytes
    # and spot n + 1, its one guard past n, is the top bit of the row.  A row
    # of all n overflows n - 1 times, carrying into the next row's spots (or,
    # as the last row, past the top of the int); the other row overflows once.
    forms = [stats._lucky_rows, lambda block, n: stats._lucky_bits(block, n, n)]
    if n + 1 < 64:
        forms.append(stats._lucky_columns)
    pfs = shift_block(np.random.default_rng(n).integers(1, n + 2, size=(9, n)), n)
    for form in forms:
        assert form(pfs, n).tolist() == [oracles.lucky(f) for f in pfs.tolist()]
    once = np.r_[n, n, 1:n - 1]
    for row, at in ((np.full(n, n), 4), (np.full(n, n), 9), (once, 4), (once, 9)):
        block = np.insert(pfs, at, row, axis=0)
        for form in forms:
            for b in (block, np.asfortranarray(block)):
                with pytest.raises(ValueError, match="^lucky requires a parking function$"):
                    form(b, n)


def test_lucky_form_follows_the_block_shape(monkeypatch):
    # the sweep from 256 rows, and from 64 rows below 512 cars; the int form
    # from 8 rows and 512 cars at n below 256; else the row loop
    for form in ("_lucky_columns", "_lucky_bits", "_lucky_rows"):
        monkeypatch.setattr(stats, form, lambda *args, form=form: form)
    cases = {(63, 7): "_lucky_rows", (64, 7): "_lucky_columns", (64, 8): "_lucky_bits",
             (255, 8): "_lucky_bits", (256, 8): "_lucky_columns", (256, 62): "_lucky_columns",
             (256, 63): "_lucky_bits", (7, 100): "_lucky_rows", (8, 100): "_lucky_bits",
             (8, 256): "_lucky_rows", (1, 5000): "_lucky_rows"}
    for (rows, n), form in cases.items():
        assert stats._stat_lucky(np.ones((rows, n), dtype=np.int64), n, n) == form, (rows, n)


# every registry statistic, and the one feature that is not a comparison
PREFIX_NAMES = (*STATISTICS, "forced-gap")


def _order_free(n):
    """The registry statistics that read no entry in order."""
    return {name for name in STATISTICS if stats.ordered_prefix(name, n) == 0}


@given(function_blocks(), st_h.data())
def test_order_free_statistics_ignore_the_order_of_values(case, data):
    # exhaustive counts score each sorted row split by its first p entries:
    # permuting the entries from p on keeps every score (at p = n there is
    # nothing to permute)
    funcs, n, m = case
    block = np.array(funcs, dtype=np.int64)
    for name in PREFIX_NAMES:
        p = stats.ordered_prefix(name, n)
        if p == n:
            continue
        order = list(range(p)) + [p + i for i in data.draw(st_h.permutations(range(n - p)))]
        kernel = statistic_kernel(name, n)
        assert _to_python(kernel(block[:, order], n, m)) == _to_python(kernel(block, n, m)), name


def test_every_other_statistic_has_an_order_witness():
    # PF_4 is closed under permuting positions, so lucky is defined on every
    # rearrangement.  For each name that reads p > 0 entries in order, some
    # rearrangement of the entries from p - 1 on (from n - 2 on at p = n,
    # since p = n - 1 reads as much) scores some row differently, so no
    # smaller p would do
    n = 4
    block = np.array(list(enumerate_pf(n)), dtype=np.int64)
    assert _order_free(n) == {"area", "scaled-area", "ones", "species", "max-discrepancy",
                              "scaled-max-discrepancy"}
    assert {name: stats.ordered_prefix(name, n) for name in PREFIX_NAMES
            if 0 < stats.ordered_prefix(name, n) < n} == {"first": 1, "kmax": 1, "forced-gap": 2}
    for name in PREFIX_NAMES:
        p = stats.ordered_prefix(name, n)
        if not p:
            continue
        fixed = min(p, n - 1) - 1
        kernel = statistic_kernel(name, n)
        scores = _to_python(kernel(block, n, n))
        assert any(_to_python(kernel(block[:, list(range(fixed)) + list(order)], n, n)) != scores
                   for order in permutations(range(fixed, n))), name


@given(function_blocks(), st_h.data())
def test_comparison_statistics_ignore_increasing_relabelling(case, data):
    # exact_equidistribution scores only the weak-order types of these
    # statistics: a strictly increasing map of the values keeps every score
    funcs, n, m = case
    block = np.array(funcs, dtype=np.int64)
    image = sorted(data.draw(st_h.lists(st_h.integers(1, 3 * m), min_size=m, max_size=m,
                                        unique=True)))
    relabelled = np.array(image)[block - 1]
    for name in stats.COMPARISON_STATISTICS:
        kernel = STATISTICS[name]
        assert _to_python(kernel(relabelled, n, image[-1])) == _to_python(kernel(block, n, m)), \
            name


def _weak_order_type(f):
    """Each value of f replaced by its rank among f's distinct values."""
    ranks = {v: r for r, v in enumerate(sorted(set(f)), start=1)}
    return tuple(ranks[v] for v in f)


def test_every_other_statistic_has_a_relabelling_witness():
    # two parking functions of one weak-order type differ by a strictly
    # increasing map of their values (lucky is defined on both); each
    # statistic outside the comparison and order-free sets scores some such
    # pair differently
    pfs = list(enumerate_pf(4))
    block = np.array(pfs, dtype=np.int64)
    types = [_weak_order_type(f) for f in pfs]
    assert stats.COMPARISON_STATISTICS < set(STATISTICS)
    assert not stats.COMPARISON_STATISTICS & _order_free(4)
    for name in set(STATISTICS) - stats.COMPARISON_STATISTICS - _order_free(4):
        scores = {}
        for t, score in zip(types, _to_python(statistic_kernel(name, 4)(block, 4, 4))):
            scores.setdefault(t, set()).add(score)
        assert any(len(values) > 1 for values in scores.values()), name


def _scalar_feature(feature, f, n, chains=None):
    """A feature of one function [n] -> [n+1], from its scalar definition;
    a chain expression from its (positions, relation) chains."""
    name, _at, position = feature.partition("@")
    i = int(position or 0)
    if feature in ("descent-pattern", "equality-pattern", "weak-descent-pattern"):
        rel = {"descent-pattern": "<", "equality-pattern": "=",
               "weak-descent-pattern": "<="}[feature]
        return oracles.descent_pattern(f, rel)
    if feature == "species":
        return oracles.species(f, m=n + 1)
    if feature == "inversions":
        return oracles.inversions(f)
    if feature in LONGEST_RUNS:
        return oracles.longest_run(f, LONGEST_RUNS[feature])
    if chains is not None:
        return oracles.chain_monotone(f, chains)
    if name == "strict-peak":
        return f[i - 2] < f[i - 1] > f[i]
    if name == "mixed-chain":
        return f[i - 2] <= f[i - 1] < f[i]
    if name == "weak-peak":
        return f[i - 2] < f[i - 1] >= f[i]
    if feature == "forced-gap":
        return f[0] < f[1] - 1
    if feature == "non-disjoint-chain":
        return f[0] < f[1] < f[2] and f[3] < f[1] and f[1] < f[4]
    raise AssertionError(feature)


def _expression(chains):
    """The chain expression of (positions, relation) pairs: "1<3;2>=4"."""
    return ";".join(relation.join(map(str, positions)) for positions, relation in chains)


def _feature_cases(n, posets):
    """(feature, chains) for every feature that applies at size n: chains
    are the (positions, relation) pairs of a chain expression, else None."""
    cases = [(feature, None) for feature in ("descent-pattern", "equality-pattern",
                                             "weak-descent-pattern", "species", "inversions")]
    cases += [(name, None) for name in LONGEST_RUNS]
    cases += [(_expression(chains), chains) for chains in posets
              if chains and max(p for positions, _r in chains for p in positions) <= n]
    cases += [(f"{peak}@{i}", None) for peak in ("strict-peak", "mixed-chain", "weak-peak")
              for i in range(2, n)]
    if n >= 2:
        cases.append(("forced-gap", None))
    if n >= 5:
        cases.append(("non-disjoint-chain", None))
    return cases


# chain posets as (positions, relation) pairs: 1<3;2>=4, 2<=3<=5, 3=1 and 2>1;5<3
POSETS = (
    (((1, 3), "<"), ((2, 4), ">=")),
    (((2, 3, 5), "<="),),
    (((3, 1), "="),),
    (((2, 1), ">"), ((5, 3), "<")),
)


@st_h.composite
def chain_posets(draw, n):
    """Disjoint chains over a random order of some of the positions 1..n, as
    (positions, relation) pairs."""
    rest = draw(st_h.permutations(range(1, n + 1)))
    chains = []
    while len(rest) >= 2:
        size = draw(st_h.integers(2, len(rest)))
        relation = draw(st_h.sampled_from(("<", "<=", ">", ">=", "=")))
        chains.append((tuple(rest[:size]), relation))
        rest = rest[size + draw(st_h.integers(0, 1)):]
    return tuple(chains)


@given(function_blocks(), st_h.data())
def test_feature_kernels_match_scalar_definitions(case, data):
    funcs, n, _m = case  # features score both ensembles with codomain n + 1
    block = np.array(funcs, dtype=np.int64)
    poset = data.draw(chain_posets(n))
    for feature, chains in _feature_cases(n, (poset,)):
        got = _to_python(statistic_kernel(feature, n)(block, n, n + 1))
        assert got == [_scalar_feature(feature, tuple(f), n, chains) for f in funcs], feature
        assert all(type(v) in (bool, int, tuple) for v in got), feature


def _scalar_census_report(n, feature, chains=None):
    """(equal, witness) of `exact_equidistribution`, from scalar definitions
    over the functions [n] -> [n] that park and all functions [n] -> [n+1]."""
    pf = Counter(_scalar_feature(feature, f, n, chains)
                 for f in product(range(1, n + 1), repeat=n) if is_parking_function(f))
    fn = Counter(_scalar_feature(feature, f, n, chains)
                 for f in product(range(1, n + 2), repeat=n))
    for v in sorted(set(pf) | set(fn), key=str):
        if fn[v] != (n + 1) * pf[v]:
            return False, v
    return True, None


def test_exact_equidistribution_matches_scalar_census():
    for n in range(2, 6):
        for feature, chains in _feature_cases(n, POSETS):
            report = exact_equidistribution(n, feature)
            equal, witness = _scalar_census_report(n, feature, chains)
            # repr tells a witness True from 1
            assert (report.equal, repr(report.witness)) == (equal, repr(witness)), \
                (n, feature)


def _census_report(kernel, n):
    """(equal, witness) of `exact_equidistribution` from the census of every
    row of PF_n and of [n+1]^n."""
    pf = ensemble._census(kernel, ensemble.pf_blocks(n), n, n + 1)
    fn = ensemble._census(kernel, oracles.function_blocks(n, n + 1), n, n + 1)
    unequal = [v for v in {*pf, *fn} if fn.get(v, 0) != (n + 1) * pf.get(v, 0)]
    witness = min(unequal, key=str, default=None)
    return witness is None, witness


def test_unequal_multi_valued_verdicts_match_the_census(monkeypatch):
    # no registered multi-valued name is unequal, so the verdict's witness
    # among the runs of unequal values is checked on a kernel that is: twice
    # the strict peak at 2 plus the weak peak at n - 1, as one int and as
    # rows of the two
    def peaks(block, n, m):
        return [stats.statistic_kernel(name, n)(block, n, m).astype(np.int64)
                for name in ("strict-peak@2", f"weak-peak@{n - 1}")]

    def weighted(block, n, m):
        strict, weak = peaks(block, n, m)
        return 2 * strict + weak

    kernels = {"sum": weighted, "rows": lambda block, n, m: np.column_stack(peaks(block, n, m))}
    monkeypatch.setattr(ensemble, "statistic_kernel", lambda name, n: kernels[name])
    verdicts = []
    for n in range(3, 8):
        for name, kernel in kernels.items():
            report = exact_equidistribution(n, name)
            expected = _census_report(kernel, n)
            assert (report.equal, repr(report.witness)) == (expected[0], repr(expected[1])), \
                (n, name)
            verdicts.append(report.equal)
    assert not any(verdicts)
    # n = 1: the patterns are zero-width rows, one run whose gaps sum to 0
    monkeypatch.undo()
    for feature in ("descent-pattern", "equality-pattern", "weak-descent-pattern"):
        report = exact_equidistribution(1, feature)
        assert (report.equal, report.witness) == (True, None)
        assert _census_report(statistic_kernel(feature, 1), 1) == (True, None)


def test_exhaustive_histogram_area():
    h = exhaustive_histogram(3, "area")
    assert h.count == "exhaustive"
    assert h.total == count_pf(3) == 16
    # area census for n = 3: inconvenience 0..3
    assert h.bins == {0: 6, 1: 6, 2: 3, 3: 1}


def test_exhaustive_histogram_kmax_matches_law():
    from parkfn import k_pi_law

    # from the sorted rows split by f_1, also at n = 8 and an opt-in n = 10
    for n in (4, 8, 10):
        h = exhaustive_histogram(n, "kmax", limit=n)
        assert h.bins == {k: k_pi_law(n, k) * count_pf(n) for k in range(1, n + 1)}, n


def test_histogram_json_schema():
    # a histogram keeps what a run produces; count and summaries are read from it
    assert [f.name for f in dataclasses.fields(Histogram)] == \
        ["n", "statistic", "ensemble", "seed", "bins"]
    h = run_experiment(ExperimentConfig(n=5, count=50, seed=1, statistic="species"))
    payload = h.to_json_dict()
    assert payload["schema_version"] == 1
    assert payload["n"] == 5 and payload["count"] == 50
    assert sum(row["count"] for row in payload["bins"]) == 50
    json.dumps(payload)  # must be serializable as-is


# near the edges where str order and numeric order part: one digit against
# two or three, and the byte range [0, 256)
_EDGE_ENTRIES = st_h.sampled_from((0, 1, 2, 9, 10, 11, 19, 99, 100, 101, 199, 200, 254, 255,
                                   256, 257, 299, 300))
_TUPLE_ENTRIES = st_h.integers(0, 300) | _EDGE_ENTRIES


@st_h.composite
def bin_keys(draw):
    """Keys of a bins dict: equal-length tuples of entries in [0, 300], or
    tuples of mixed lengths, negative entries, bools or numpy ints, or
    scalars of mixed types."""
    kind = draw(st_h.sampled_from(("equal-length", "mixed-length", "odd-entries", "scalars")))
    if kind == "equal-length":
        width = draw(st_h.integers(0, 6))
        key = st_h.tuples(*[_TUPLE_ENTRIES] * width)
    elif kind == "mixed-length":
        key = st_h.lists(_TUPLE_ENTRIES, max_size=4).map(tuple)
    elif kind == "odd-entries":
        entry = (_TUPLE_ENTRIES | st_h.integers(-300, -1) | st_h.booleans()
                 | _TUPLE_ENTRIES.map(np.int64) | st_h.integers(0, 255).map(np.uint8)
                 | st_h.integers(0, 255).map(np.uint32))
        key = st_h.lists(entry, min_size=2, max_size=2).map(tuple)
    else:
        key = (st_h.integers(-300, 300) | st_h.floats(-300, 300, allow_nan=False)
               | st_h.booleans() | st_h.just(()))
    return draw(st_h.lists(key, min_size=1, max_size=30))


def _assert_json_bin_order(bins):
    # counts tell the keys apart, so the order is checked with them
    hist = Histogram(n=1, statistic="x", ensemble="pf", seed=0, bins=bins)
    got = [(row["value"], row["count"]) for row in hist.to_json_dict()["bins"]]
    expected = [(list(k) if isinstance(k, tuple) else k, c)
                for k, c in sorted(bins.items(), key=lambda kv: str(kv[0]))]
    assert got == expected
    # the byte keys serve exactly the tuples of one length of plain ints in [0, 256)
    keys = list(bins)
    plain = all(type(k) is tuple and len(k) == len(keys[0])
                and all(type(x) is int and 0 <= x < 256 for x in k) for k in keys)
    assert (ensemble._byte_keys(keys) is not None) == plain


@example([(1, 2), (True, 3), (1,), (12,)])
@example([(1, 0), (True, 1), (10, 0), (2, 0)])
@example([(255, 3), (256, 3), (25, 3)])
@example([(True, np.uint32(3)), (2, 0)])  # as long in marshal as two plain ints
@given(bin_keys())
def test_json_bin_order_is_str_order(keys):
    _assert_json_bin_order({k: i for i, k in enumerate(keys)})


def test_byte_keys_sweep_matches_str_order():
    # lists of keys (repeats allowed) of widths 0-5, of one width or mixed;
    # a third of the lists draw entries that print otherwise or leave [0, 256)
    rng = np.random.default_rng(11)
    plain = [0, 1, 2, 9, 10, 11, 19, 100, 101, 255]
    odd = [256, -1, True, np.int64(3), (1,)]
    for trial in range(3000):
        pool = plain + odd if trial % 3 == 0 else plain
        widths = rng.integers(0, 6, 1) if trial % 2 else rng.integers(0, 6, 4)
        keys = [tuple(pool[i] for i in rng.integers(0, len(pool), rng.choice(widths)))
                for _ in range(rng.integers(1, 9))]
        order = list(range(len(keys)))
        assert ensemble._str_sorted(order, key=keys.__getitem__) == sorted(
            order, key=lambda i: str(keys[i])), keys
        byte_ready = len(set(map(len, keys))) == 1 and all(
            type(x) is int and 0 <= x < 256 for k in keys for x in k)
        assert (ensemble._byte_keys(keys) is not None) == byte_ready, keys
    for keys in ([0, 1], [(1,), 2], [(1, 2), [1, 2]], [()], [(), ()]):
        assert (ensemble._byte_keys(keys) is not None) == (type(keys[-1]) is tuple)


def test_json_bin_order_edges():
    # n = 1: the one key (); n = 300: species keys of 301 entries, in bytes,
    # and with the all-ones row (mu_0 = 299) in str
    _assert_json_bin_order(run_experiment(ExperimentConfig(
        n=1, count=5, seed=0, statistic="descent-pattern")).bins)
    n = 300
    species = run_experiment(ExperimentConfig(n=n, count=40, seed=2, statistic="species")).bins
    assert ensemble._byte_keys(list(species)) is not None
    _assert_json_bin_order(species)
    block = np.array(_sampled_rows(n, 20, 9, "pf") + [[1] * n], dtype=np.int64)
    bins = ensemble._census(STATISTICS["species"], [block], n, n)
    assert ensemble._byte_keys(list(bins)) is None
    _assert_json_bin_order(bins)


# --- census keys and summaries -------------------------------------------

KEY_TYPES = {"scaled-area": float, "scaled-max-discrepancy": float,
             "descent-pattern": tuple, "species": tuple, "forced-gap": bool}


def _assert_plain_keys(bins, expected, label):
    # json.dumps(default=str) would write a numpy key as a string, and the
    # benchmark's bin digests ignore key types
    assert bins, label
    for key in bins:
        assert type(key) is expected, label
        if expected is tuple:
            assert all(type(x) is int for x in key), label


def test_bin_keys_are_plain_python_values():
    for stat in STATISTICS:
        expected = KEY_TYPES.get(stat, int)
        for ensemble_name in ensemble.ENSEMBLES:
            for n in (1, 3, 40):
                try:
                    hist = run_experiment(ExperimentConfig(n=n, count=50, seed=3,
                                                           ensemble=ensemble_name,
                                                           statistic=stat))
                except ValueError:  # lucky off PF_n
                    assert stat == "lucky" and ensemble_name != "pf"
                    continue
                _assert_plain_keys(hist.bins, expected, (stat, ensemble_name, n))
            for n in (1, 4):
                try:
                    hist = exhaustive_histogram(n, stat, ensemble_name)
                except ValueError:
                    assert stat == "lucky" and ensemble_name != "pf"
                    continue
                _assert_plain_keys(hist.bins, expected, (stat, ensemble_name, n))
    # chain and forced-gap features count bools
    for feature in ("forced-gap", "strict-peak@2", _expression(POSETS[0])):
        kernel = statistic_kernel(feature, 4)
        for blocks in (ensemble.pf_blocks(4), oracles.function_blocks(4, 5)):
            _assert_plain_keys(ensemble._census(kernel, blocks, 4, 5), bool, feature)


@given(st_h.integers(0, 12), st_h.integers(0, 12),
       st_h.sampled_from((1, 2, 300, 1 << 40)), st_h.booleans(), st_h.data())
def test_distinct_rows_match_counter(rows, width, top, signed, data):
    # small rows pack into one int64, wide or signed ones are np.void keys
    values = data.draw(st_h.lists(st_h.integers(-top if signed else 0, top),
                                  min_size=rows * width, max_size=rows * width))
    block = np.array(values, dtype=np.int64).reshape(rows, width)
    expected = Counter(map(tuple, block.tolist()))  # in order of first occurrence
    assert list(ensemble._distinct(block)) == list(expected.items())
    # weighted counts are exact int64 sums of weights past 2^53, which float64
    # would round; 12 rows of weights up to 2^59 stay below 2^63
    weights = data.draw(st_h.lists(st_h.integers(1 << 54, 1 << 59), min_size=rows,
                                   max_size=rows))
    weighted = {}
    for key, weight in zip(map(tuple, block.tolist()), weights):
        weighted[key] = weighted.get(key, 0) + weight
    got = ensemble._distinct(block, np.array(weights, dtype=np.int64))
    assert list(got) == list(weighted.items())
    if width:
        column = block[:, width - 1]
        assert list(ensemble._distinct(column)) == list(Counter(column.tolist()).items())


@pytest.mark.parametrize("dtype, low, span", [
    (np.int8, -128, 255), (np.int8, -3, 10), (np.uint16, 0, 65535), (np.uint16, 1000, 300),
    (np.int64, -(1 << 40), 255), (np.int64, -5, 256), (np.int64, -70000, (1 << 16) - 2),
    (np.int64, -70000, (1 << 16) - 1), (np.int64, -70000, 1 << 16),
    (np.int64, 0, (1 << 16) + 1), (np.uint64, (1 << 64) - 70000, 65535),
    (np.int32, -(1 << 31), 65535)])
def test_distinct_narrowed_keys_match_counter(dtype, low, span):
    # keys from _NARROW_KEYS on, spanning one value less than, exactly and
    # one more than 2^8 or 2^16, both ends present and repeated
    rng = np.random.default_rng(span)
    for size in (ensemble._NARROW_KEYS - 1, ensemble._NARROW_KEYS, 3000):
        offsets = rng.integers(0, span + 1, size=size, dtype=np.uint64)
        offsets[[0, 5, 7]] = (span, 0, span)
        keys = (offsets + np.uint64(low % (1 << 64))).astype(dtype)
        assert int(keys.min()) == low and int(keys.max()) == low + span
        assert list(ensemble._distinct(keys)) == list(Counter(keys.tolist()).items())
        narrow = ensemble._sort_keys(keys)
        if size < ensemble._NARROW_KEYS or np.dtype(dtype).itemsize <= 2 or span >> 16:
            assert narrow is keys
        else:
            assert narrow.dtype == (np.uint8 if span < 256 else np.uint16)
            assert narrow.astype(np.int64).tolist() == [int(k) - low for k in keys.tolist()]


def test_distinct_passes_bool_and_float_keys_unchanged():
    rng = np.random.default_rng(2)
    size = 2 * ensemble._NARROW_KEYS
    for keys in (rng.integers(0, 2, size=size).astype(bool),
                 rng.integers(-3, 300, size=size) / 4,
                 np.round(rng.normal(size=size), 1)):
        assert ensemble._sort_keys(keys) is keys
        assert list(ensemble._distinct(keys)) == list(Counter(keys.tolist()).items())
    # rows of several columns: packed int64 keys, then narrowed
    rows = rng.integers(0, 4, size=(size, 5))
    assert ensemble._sort_keys(ensemble._row_keys(rows)).dtype == np.uint16
    assert list(ensemble._distinct(rows)) == list(Counter(map(tuple, rows.tolist())).items())


def test_weighted_distinct_matches_a_dict_sum():
    # each key's weights summed along its run of sorted keys, against a
    # dict of Python ints: weights just below 2^62, which float64 rounds,
    # and at most two per key, so that each sum fits in int64
    rng = np.random.default_rng(62)
    narrowed = np.repeat(rng.permutation(1000) * 37, 2)  # spans < 2^16: uint16 keys
    rng.shuffle(narrowed)
    cases = [
        np.array([3, -1, 3, 7, -1, 0]),
        np.array([True, False, False, True]),
        narrowed,
        np.array([[1, 2, 3], [0, 0, 1], [1, 2, 3], [2, 1, 0], [0, 0, 1]]),  # bit fields
        rng.integers(0, 300, size=(9, 12)).repeat(2, axis=0)[rng.permutation(18)],  # np.void
        np.array([[-1, 2], [5, -1], [-1, 2]]),  # signed: np.void
    ]
    assert ensemble._row_keys(cases[3]).dtype == np.int64
    assert ensemble._sort_keys(narrowed).dtype == np.uint16
    for values in cases[4:]:
        assert ensemble._row_keys(values).dtype.kind == "V"
    for values in cases:
        weights = (1 << 62) - 1 - rng.integers(0, 1 << 20, size=len(values)) * 2
        assert all(int(float(w)) != w for w in weights.tolist())
        keys = map(tuple, values.tolist()) if values.ndim == 2 else values.tolist()
        expected = {}
        for key, weight in zip(keys, weights.tolist()):
            expected[key] = expected.get(key, 0) + weight
        got = list(ensemble._distinct(values, weights))
        assert got == list(expected.items()), values.dtype
        assert [type(k) for k, _c in got] == [type(k) for k in expected]
        assert all(type(c) is int for _k, c in got)
        if values.ndim == 2:
            assert all(type(x) is int for k, _c in got for x in k)
    # no rows, no pairs, as from the unweighted count
    for empty in (np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)):
        assert list(ensemble._distinct(empty, np.empty(0, dtype=np.int64))) == []
        assert list(ensemble._distinct(empty)) == []


@st_h.composite
def multisets(draw):
    """Ints, floats or both, drawn from a small pool so that values repeat.
    fmean converts an int to float, exactly up to 2^53."""
    element = draw(st_h.sampled_from((
        st_h.integers(-(1 << 53), 1 << 53),
        st_h.floats(-1e100, 1e100, allow_nan=False),
        st_h.integers(-5, 5) | st_h.floats(-5, 5, allow_nan=False),
    )))
    pool = draw(st_h.lists(element, min_size=1, max_size=6))
    return draw(st_h.lists(st_h.sampled_from(pool), min_size=1, max_size=80))


@example([7])
@example([-3, -3, 2.5, 0.1, 0.1, 0.1])
@given(multisets())
def test_summaries_match_statistics_module(values):
    hist = Histogram(n=1, statistic="x", ensemble="pf", seed=0, bins=dict(Counter(values)))
    _assert_summaries_of(hist, values)


def _assert_summaries_of(hist, values, label=None):
    ordered = sorted(values)
    rank = len(values) - 1
    expected = {
        "mean": statistics.fmean(values),
        "var": float(statistics.pvariance(values)),
        "q01": float(ordered[int(0.01 * rank)]),
        "q50": float(ordered[int(0.50 * rank)]),
        "q99": float(ordered[int(0.99 * rank)]),
    }
    assert {k: (type(v), v) for k, v in hist.summaries.items()} == \
        {k: (float, v) for k, v in expected.items()}, label


def test_exhaustive_summaries_match_statistics_module():
    # an exact law carries its exact summaries, as a sampled one does
    for stat in STATISTICS:
        for ensemble_name in ensemble.ENSEMBLES:
            for n in range(1, 6):
                try:
                    hist = exhaustive_histogram(n, stat, ensemble_name)
                except ValueError:  # lucky off PF_n
                    assert stat == "lucky" and ensemble_name != "pf"
                    continue
                assert hist.count == "exhaustive"
                values = hist.values()
                if KEY_TYPES.get(stat) is tuple:
                    assert hist.summaries == {}, stat
                else:
                    _assert_summaries_of(hist, values, (stat, ensemble_name, n))


def test_summaries_edges():
    # n = 1: every descent pattern is the empty tuple, and nothing is numeric
    for hist in (exhaustive_histogram(1, "descent-pattern"),
                 run_experiment(ExperimentConfig(n=1, count=5, seed=0,
                                                 statistic="descent-pattern"))):
        assert hist.bins == {(): hist.total} and hist.summaries == {}
    # a bin counted 0 times expands to no value
    for bins in ({}, {0.5: 0}, {(): 2, 1: 0}):
        hist = Histogram(n=1, statistic="x", ensemble="pf", seed=0, bins=bins)
        assert hist.summaries == {} and hist.count == hist.total == sum(bins.values())
    hist = Histogram(n=1, statistic="x", ensemble="pf", seed=0, bins={3: 0, 1: 2, 2: 1})
    assert hist.summaries == Histogram(n=1, statistic="x", ensemble="pf", seed=0,
                                       bins={1: 2, 2: 1}).summaries
    # species at n = 300 holds entries above 255 (mu_0 = 299 for the all-ones
    # row), which need 16-bit row keys
    n = 300
    rows = _sampled_rows(n, 20, 9, "pf") + [[1] * n, list(range(1, n + 1)), [1] * (n - 1) + [n]]
    block = np.array(rows, dtype=np.int64)
    species = [oracles.species(tuple(row), m=n) for row in rows]
    assert _to_python(STATISTICS["species"](block, n, n)) == species
    assert ensemble._census(STATISTICS["species"], [block], n, n) == Counter(species)


def test_tv_distance():
    p = {1: 0.5, 2: 0.5}
    q = {1: 0.5, 3: 0.5}
    assert tv_distance(p, q) == pytest.approx(0.5)
    assert tv_distance(p, p) == 0.0
    with pytest.raises(ValueError):
        tv_distance(p, {})
    # a histogram is normalized by its total; a dict must already be a law,
    # so counts are refused rather than read as probabilities
    a, b = (run_experiment(ExperimentConfig(n=5, count=1000, statistic="first", seed=seed))
            for seed in (1, 2))
    assert tv_distance(a, b) == pytest.approx(0.025)
    assert tv_distance(a, a.probabilities()) == 0.0
    for bad, name in (((a.bins, b), "p"), ((p, b.bins), "q"), (({1: 2, 2: 2}, {1: 1, 3: 1}), "p"),
                      ((p, {1: 1.5, 2: -0.5}), "q"), ((p, {1: math.nan}), "q")):
        with pytest.raises(ValueError, match=f"^{name} is not a probability law"):
            tv_distance(*bad)
    # a law summing to 1 only up to rounding passes: 1/10 ten times, or the
    # first 30 terms of Poisson(1)
    assert tv_distance({j: 1 / 10 for j in range(10)}, {j: 0.1 for j in range(10)}) == 0.0
    assert tv_distance({j: math.exp(-1) / math.factorial(j) for j in range(30)},
                       {0: 0.5, 1: 0.5}) == pytest.approx(1 - 2 * math.exp(-1))


def test_ks_distance_to_limit():
    h = Histogram(n=1, statistic="x", ensemble="pf", seed=0,
                  bins={0.0: 1, 1.0: 1, 2.0: 1, 3.0: 1})
    # against U(0, 4): empirical CDF at 0 is 0.25 vs 0, the worst gap
    assert ks_distance_to_limit(h, lambda t: t / 4) == pytest.approx(0.25)
    # the gap can sit at the left limit: F_emp(0.9-) = 0 against F(0.9) = 0.9
    h = Histogram(n=1, statistic="x", ensemble="pf", seed=0, bins={0.9: 1})
    assert ks_distance_to_limit(h, lambda t: t) == pytest.approx(0.9)
    # no samples is no fit, not a perfect one
    for bins in ({}, {0.5: 0}):
        h = Histogram(n=1, statistic="x", ensemble="pf", seed=0, bins=bins)
        with pytest.raises(ValueError, match="empty distribution"):
            ks_distance_to_limit(h, lambda t: t)


def _comparison_features(n):
    """The sweep of names that only compare entries, at n."""
    features = [*sorted(stats.COMPARISON_STATISTICS), "equality-pattern", "weak-descent-pattern"]
    features += [f"{peak}@{i}" for peak in ("strict-peak", "mixed-chain", "weak-peak")
                 for i in range(2, n)]
    features += [e for e, size in (("1<3;2>=4", 4), ("2>1<3>4", 4),
                                   ("non-disjoint-chain", 5)) if n >= size]
    return features


def test_type_census_matches_the_scans():
    # each comparison feature's law on the weak-order types, weighted by
    # each ensemble's count of each type, is its law over every row: as a
    # dict, with the same key types, no bin of count 0 and the same JSON
    for n in range(1, 7):
        features = _comparison_features(n)
        assert all(stats.compares_only(feature) for feature in features)
        for feature in features:
            kernel = statistic_kernel(feature, n)
            for ensemble_name in ensemble.ENSEMBLES:
                label = (n, feature, ensemble_name)
                m = n + 1 if ensemble_name == "fn1" else n
                blocks = (ensemble.pf_blocks(n) if ensemble_name == "pf"
                          else oracles.function_blocks(n, m))
                scan = Histogram(n=n, statistic=feature, ensemble=ensemble_name, seed=None,
                                 bins=ensemble._census(kernel, blocks, n, m))
                types = exhaustive_histogram(n, feature, ensemble_name)
                assert types.bins == scan.bins, label
                assert sorted(map(repr, types.bins)) == sorted(map(repr, scan.bins)), label
                assert all(types.bins.values()), label
                assert types.to_json_dict() == scan.to_json_dict(), label
    census = [ensemble._type_rows(n, n)[1] for n in range(1, 8)]
    assert [int(c.arrangements.sum()) for c in census] == \
        [1, 3, 13, 75, 541, 4683, 47293]  # the Fubini numbers
    assert [c.arrangements.size for c in census] == [2 ** (n - 1) for n in range(1, 8)]
    # the other features score every row or the sorted rows
    for feature in ("first", "area", "lucky", "kmax", "ones", "species", "max-discrepancy",
                    "scaled-max-discrepancy", "forced-gap"):
        assert not stats.compares_only(feature), feature


def test_type_census_is_built_once_per_n(monkeypatch):
    # every standard feature, weak peak and exact law of a comparison
    # statistic at one n reads one census; only the last n is kept
    ensemble._type_census.cache_clear()
    built = []
    original = ensemble._table_arrangement_blocks
    monkeypatch.setattr(ensemble, "_table_arrangement_blocks",
                        lambda blocks, n: built.append(n) or original(blocks, n))
    for n in (6, 6, 5):
        for feature in EQUIDISTRIBUTED_FEATURES:
            exact_equidistribution(n, feature)
        for i in range(2, n):
            weak_peak_check(n, i)
        for stat in ("repeats", "inversions", "weak-peak@3"):
            for ensemble_name in ensemble.ENSEMBLES:
                exhaustive_histogram(n, stat, ensemble_name)
    assert built == [6, 5]


def test_type_census_keeps_its_guards():
    # a cached census bypasses neither the limit nor the int64 check
    assert exact_equidistribution(8, "descent-pattern").equal
    assert ensemble._type_census.cache_info().currsize == 1
    with pytest.raises(CapacityError):
        exact_equidistribution(8, "descent-pattern", limit=7)
    with pytest.raises(CapacityError):
        weak_peak_check(8, 3, limit=7)
    for ensemble_name in ensemble.ENSEMBLES:
        with pytest.raises(CapacityError):
            exhaustive_histogram(8, "repeats", ensemble_name, limit=7)
    with pytest.raises(ValueError, match="n must be >= 1"):
        ensemble._type_rows(0, 8)


def test_type_census_is_read_only(monkeypatch):
    census = ensemble._type_census(5)
    for array in (*census.blocks, census.arrangements, census.starts, *census.weights.values(),
                  census.gaps):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # one weight per composition on each side, not one per type
    assert {side: w.size for side, w in census.weights.items()} == \
        {"pf": 16, "fn": 16, "fn1": 16}
    # a kernel that writes into a cached block is refused ...
    kernel = statistic_kernel("descent-pattern", 5)

    def scribbles_on_the_census(block, n, m):
        ensemble._type_census(n).blocks[0][0] = 0
        return kernel(block, n, m)

    monkeypatch.setattr(ensemble, "statistic_kernel", lambda name, n: scribbles_on_the_census)
    with pytest.raises(ValueError, match="read-only"):
        exact_equidistribution(5, "descent-pattern")

    # ... and one that writes into the block it is given writes into its own copy
    def scribbles_on_its_block(block, n, m):
        values = kernel(block, n, m)
        block[:] = 1
        return values

    monkeypatch.setattr(ensemble, "statistic_kernel", lambda name, n: scribbles_on_its_block)
    assert exact_equidistribution(5, "descent-pattern").equal
    monkeypatch.undo()
    assert exact_equidistribution(5, "descent-pattern").equal
    assert not exact_equidistribution(5, "strict-peak@2").equal
    _values, census = ensemble._type_scores("inversions", 5, 5)
    with pytest.raises(ValueError, match="read-only"):
        census.weights["pf"] += 1
    # per-type weights are built per call, so a caller may write to its own
    assert census.type_weights("pf").flags.writeable
    assert exhaustive_histogram(5, "inversions").bins == _scan_census("inversions", "pf", 5)


def test_type_census_reports_cold_and_warm():
    for n in range(1, 8):
        features = [*EQUIDISTRIBUTED_FEATURES, "longest-run>=", "repeats"]
        features += [f"{peak}@{i}" for peak in ("strict-peak", "mixed-chain", "weak-peak")
                     for i in range(2, n)]
        features += [e for e, size in (("2>1<3", 3), ("non-disjoint-chain", 5)) if n >= size]
        for feature in features:
            ensemble._type_census.cache_clear()
            cold = exact_equidistribution(n, feature)
            warm = exact_equidistribution(n, feature)
            assert (cold.equal, repr(cold.witness)) == (warm.equal, repr(warm.witness)), (n, feature)
            assert cold == warm
        for i in range(2, n):
            ensemble._type_census.cache_clear()
            assert weak_peak_check(n, i) == weak_peak_check(n, i), (n, i)
        for stat in ("repeats", "descent-pattern", "longest-run>="):
            for ensemble_name in ensemble.ENSEMBLES:
                ensemble._type_census.cache_clear()
                cold = exhaustive_histogram(n, stat, ensemble_name)
                warm = exhaustive_histogram(n, stat, ensemble_name)
                assert list(cold.bins.items()) == list(warm.bins.items()), (n, stat, ensemble_name)


def test_equidistribution_positive_features():
    for n in range(2, 6):
        for feature in ("descent-pattern", "equality-pattern",
                        "weak-descent-pattern", "species", "inversions"):
            report = exact_equidistribution(n, feature)
            assert report.equal, (feature, n, report.witness)
    for name in LONGEST_RUNS:
        assert exact_equidistribution(4, name).equal, name


def test_equidistribution_chain_posets():
    assert exact_equidistribution(4, "1<3;2>=4").equal
    assert exact_equidistribution(5, "2<=3<=5").equal
    # the report keeps the name as given
    assert exact_equidistribution(5, "1<3;2>=4>=5").feature == "1<3;2>=4>=5"
    for feature in ("chain-poset", "1<", "1<2;"):
        with pytest.raises(ValueError, match=re.escape(repr(feature))):
            exact_equidistribution(4, feature)


def _disjoint_chains(positions):
    """Every set of position-disjoint chains (tuples of at least two
    positions, in order) over some of `positions`, each set once."""
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    yield from _disjoint_chains(rest)
    for size in range(1, len(rest) + 1):
        for others in combinations(rest, size):
            left = tuple(p for p in rest if p not in others)
            for chain in permutations((first, *others)):
                for tail in _disjoint_chains(left):
                    yield (chain, *tail)


# The criterion.  A comparison event E holds on h_E(c) of the types of each
# composition c (`_TypeCensus.holding`), so its rows on [n+1]^n less n + 1
# times its rows on PF_n are sum_c g_n(c) h_E(c), where g_n is the census's
# gaps: E is equidistributed exactly when that sum is 0.
#
# A symmetric profile is equidistributed.  Call h_E symmetric when h_E(c)
# depends only on sorted(c), the shape of c.  A composition c has
# n! / prod_j c_j! types, which depends only on its shape, and `species`
# (the shape of a row's type, with mu_0) is equidistributed, so each shape's
# gaps, all times that one multinomial, sum to 0.  A symmetric h_E is
# constant on each shape, so it factors out of each shape's sum, and its
# total gap is 0.
#
# The theorem's hypothesis gives a symmetric profile (Bender and Knuth's
# involution).  Let E be position-disjoint chains with one relation each,
# and take a type of c in E.  The positions holding j or j + 1 meet each
# chain in a run of consecutive chain positions, and every comparison with
# a value outside {j, j + 1} is the same for both.  Rewrite each run: j^a
# (j+1)^b along a weak chain becomes j^b (j+1)^a, a lone j or j + 1 (on a
# chain or on no chain) becomes the other, an equal run takes the other
# value, and j, j + 1 along a strict chain stays.  The result lies in E and
# is a type of c with c_j and c_{j+1} exchanged, and rewriting it again
# gives the type back.  Exchanges of adjacent parts reach every ordering of
# the parts, so h_E is symmetric.  The rewrite needs both conditions: a
# position on two chains sits in two runs, and the run j, j, j + 1 of
# "<=" then "<" has no rewrite in E.
#
# The converse fails: six events on four positions, the N fence among them,
# are equidistributed with no symmetric profile; why is open.

_LINK_RELATIONS = ("<", ">", "<=", ">=", "=")


def _swept_events(n):
    """(expression, links) for every chain of 2-4 distinct positions in [n]
    with any relation on each link, then every unordered pair of distinct
    2-position chains; a link is (position, relation, position)."""
    for size in (2, 3, 4):
        for positions in permutations(range(1, n + 1), size):
            for relations in product(_LINK_RELATIONS, repeat=size - 1):
                steps = "".join(r + str(p) for r, p in zip(relations, positions[1:]))
                yield f"{positions[0]}{steps}", tuple(zip(positions, relations, positions[1:]))
    pairs = [(a, r, b) for a, b in permutations(range(1, n + 1), 2) for r in _LINK_RELATIONS]
    for x, y in combinations(pairs, 2):
        yield ";".join("".join(map(str, link)) for link in (x, y)), (x, y)


@pytest.mark.parametrize("n", [4, 5])
def test_equidistribution_criterion_on_the_type_census(n):
    census = ensemble._type_census(n)
    types = np.concatenate(census.blocks)
    # a composition's parts are the value counts of any of its types
    shapes = [tuple(sorted(np.bincount(types[start])[1:].tolist())) for start in census.starts]
    for shape in set(shapes):
        of_shape = np.array([s == shape for s in shapes])
        assert len(set(census.arrangements[of_shape].tolist())) == 1, shape
        assert census.gaps[of_shape].sum() == 0, shape

    def verdict(profile):
        """(equidistributed, symmetric)"""
        return not profile @ census.gaps, len(set(zip(shapes, profile.tolist()))) == len(set(shapes))

    def kernel_profile(expression):
        return census.holding(statistic_kernel(expression, n)(types, n, n + 1))

    holds = {(a, r, b): statistic_kernel(f"{a}{r}{b}", n)(types, n, n + 1)
             for a, b in permutations(range(1, n + 1), 2) for r in _LINK_RELATIONS}

    def profile(links):
        return census.holding(np.logical_and.reduce([holds[link] for link in links]))

    # the broad sweep: each distinct profile once, with its first expression
    firsts = {}
    for swept, (expression, links) in enumerate(_swept_events(n), 1):
        firsts.setdefault(profile(links).tobytes(), expression)
    assert swept == {4: 5430, 5: 21550}[n]
    verdicts = {}
    for key, expression in firsts.items():
        h = kernel_profile(expression)
        assert h.tobytes() == key, expression
        if h.any() and (h != census.arrangements).any():  # neither never nor always
            verdicts[expression] = verdict(h)
    assert len(verdicts) == 86
    assert sum(equal for equal, _ in verdicts.values()) == 28
    assert sum(symmetric for _, symmetric in verdicts.values()) == 22
    assert all(equal for equal, symmetric in verdicts.values() if symmetric)
    assert {e for e, (equal, symmetric) in verdicts.items() if equal and not symmetric} == {
        "1<2>3<4", "1<2=3<4", "1<2<=3<4", "1<=2<3<=4", "1<=2=3<=4", "1<=2>=3<=4"}
    # the N fence, the weak peak and an expression that meets the hypothesis
    assert verdict(kernel_profile("2>1<3>4")) == (True, False)
    assert verdict(kernel_profile("2<3>=4")) == verdict(kernel_profile("1<3;2>=4")) == (True, True)

    # the hypothesis sweep: position-disjoint chains, one relation each
    swept = 0
    for chains in filter(None, _disjoint_chains(tuple(range(1, n + 1)))):
        for relations in product(_LINK_RELATIONS, repeat=len(chains)):
            h = profile([(a, r, b) for chain, r in zip(chains, relations)
                         for a, b in zip(chain, chain[1:])])
            assert verdict(h) == (True, True), _expression(zip(chains, relations))
            swept += 1
    assert swept == {4: 600, 5: 6100}[n]


def test_n_fence_is_equidistributed():
    # The N fence f_2 > f_1 < f_3 > f_4 does not meet the theorem's
    # hypothesis (its three chains share positions 1 and 3), yet its law on
    # PF_n, scaled by n + 1, is its law on [n+1]^n at every n checked, while
    # its V f_2 > f_1 < f_3 differs.  Why the fence is equidistributed is
    # open: it is not an inclusion-exclusion of disjoint-chain events in the
    # way the weak peak is.
    for n, pf_count in zip(range(4, 9), (17, 190, 2597, 42112, 791694)):
        if n < 8:  # a scan of PF_8 takes seconds: there the types alone count it
            kernel = statistic_kernel("2>1<3>4", n)
            assert sum(np.count_nonzero(kernel(b, n, n + 1))
                       for b in ensemble.pf_blocks(n)) == pf_count
        assert exhaustive_histogram(n, "2>1<3>4", limit=n).bins[True] == pf_count
        assert exact_equidistribution(n, "2>1<3>4").equal, n
        assert not exact_equidistribution(n, "2>1<3").equal, n


def test_peak_names_are_their_chain_expressions():
    # each alias gives the report of its expression, under its own name
    for n in range(3, 7):
        aliases = {f"strict-peak@{i}": f"{i - 1}<{i}>{i + 1}" for i in range(2, n)}
        aliases.update((f"mixed-chain@{i}", f"{i - 1}<={i}<{i + 1}") for i in range(2, n))
        aliases.update((f"weak-peak@{i}", f"{i - 1}<{i}>={i + 1}") for i in range(2, n))
        if n >= 5:
            aliases["non-disjoint-chain"] = "1<2<3;4<2<5"
        for name, expression in aliases.items():
            named = exact_equidistribution(n, name)
            plain = exact_equidistribution(n, expression)
            assert (named.feature, plain.feature) == (name, expression)
            assert (named.equal, repr(named.witness)) == (plain.equal, repr(plain.witness)), \
                (n, name)


def test_equidistribution_negative_controls():
    assert not exact_equidistribution(3, "strict-peak@2").equal
    assert not exact_equidistribution(3, "mixed-chain@2").equal
    assert not exact_equidistribution(2, "forced-gap").equal
    # from the sorted rows split by f_1 and f_2, on PF_8 and [9]^8
    assert not exact_equidistribution(8, "forced-gap").equal
    assert not exact_equidistribution(5, "non-disjoint-chain").equal
    with pytest.raises(ValueError):
        exact_equidistribution(3, "palindrome")


def test_feature_positions_never_wrap():
    # a chain position beyond n used to read another coordinate
    with pytest.raises(ValueError):
        exact_equidistribution(3, "4<2")
    for n, position in ((4, 1), (4, 4), (2, 2)):
        for peak in ("strict-peak", "mixed-chain", "weak-peak"):
            with pytest.raises(ValueError):
                exact_equidistribution(n, f"{peak}@{position}")
    # a peak names its position in [2, n-1], no other feature takes one,
    # and the error names the feature
    for feature in ("weak-peak", "weak-peak@x", "weak-peak@1", "weak-peak@", "species@2",
                    "longest-run@2", "forced-gap@2"):
        with pytest.raises(ValueError, match=re.escape(repr(feature))):
            exact_equidistribution(4, feature)
    with pytest.raises(ValueError):
        exact_equidistribution(4, "non-disjoint-chain")
    with pytest.raises(ValueError):
        exact_equidistribution(1, "forced-gap")


def test_weak_peak_check():
    for n in range(3, 7):
        for i in range(2, n):
            report = weak_peak_check(n, i)
            assert report.equal
            assert report.f_count == (n + 1) * report.pf_count
            assert exact_equidistribution(n, f"weak-peak@{i}").equal
    with pytest.raises(ValueError):
        weak_peak_check(4, 1)


def test_joint_coordinate_bound():
    for n in (4, 5):
        for k in (1, 2):
            report = joint_coordinate_bound_check(n, k)
            assert report.holds
            assert 0 <= report.max_difference <= report.bound
            assert report.bound == pytest.approx(
                2 * k * math.sqrt(math.log(n) / n) + k * (k - 1) / n
            )
    # k must lie in [1, n]: there is no k-th coordinate for k > n
    for n, k in ((4, 0), (2, 3), (1, 2)):
        with pytest.raises(ValueError):
            joint_coordinate_bound_check(n, k)
    # n beyond the limit is refused before the n^k grid is allocated (20^20
    # cells are too many for numpy, and 9^9 would take 3.1 GB)
    for n, k in ((20, 20), (9, 9)):
        with pytest.raises(CapacityError):
            joint_coordinate_bound_check(n, k)


def test_first_coordinate_marginal_is_exact():
    # exhaustive first-coordinate histogram equals the closed-form census
    from parkfn import count_first

    # from the sorted rows split by f_1, also at n = 8 and an opt-in n = 10;
    # on [m]^n each first value leads m^(n-1) functions
    for n in (5, 8, 10):
        h = exhaustive_histogram(n, "first", limit=n)
        assert h.bins == {k: count_first(n, k) for k in range(1, n + 1)}, n
        for ensemble_name, m in (("fn", n), ("fn1", n + 1)):
            bins = exhaustive_histogram(n, "first", ensemble_name, limit=n).bins
            assert bins == dict.fromkeys(range(1, m + 1), m ** (n - 1)), (n, ensemble_name)


# --- block sources against the enumerators --------------------------------

def _rows(blocks):
    return [tuple(r) for block in blocks for r in block.tolist()]


def _enumerated(ensemble_name, n):
    """The functions of an ensemble from the tuple enumerators, as one block."""
    if ensemble_name == "pf":
        funcs = [tuple(pf) for pf in enumerate_pf(n)]
    else:
        funcs = list(oracles.all_functions(n, n + 1 if ensemble_name == "fn1" else n))
    return np.array(funcs, dtype=np.int64).reshape(-1, n)


def test_exhaustive_histogram_limit_applies_to_every_ensemble():
    # fn and fn1 ignored limit: exhaustive_histogram(12, "first", "fn") started
    # on 12^12 rows
    for ensemble_name in ensemble.ENSEMBLES:
        with pytest.raises(CapacityError):
            exhaustive_histogram(12, "first", ensemble_name)
        with pytest.raises(CapacityError):
            exhaustive_histogram(5, "species", ensemble_name, limit=4)


def _column_major_int64(blocks):
    return all(b.flags.f_contiguous and b.dtype == np.int64 for b in blocks)


def test_pf_blocks_are_pf_each_once():
    # row for row, in order, the scalar recursion's enumeration (whose rows
    # are distinct parking functions)
    for n in range(1, 8):
        blocks = list(ensemble.pf_blocks(n))
        assert _column_major_int64(blocks), n
        assert all(b.size <= ensemble.BLOCK_ELEMENTS for b in blocks), n
        rows = _rows(blocks)
        assert len(rows) == count_pf(n) and rows == list(oracles.enumerate_pf(n)), n
    first = next(ensemble.pf_blocks(8))
    assert first.flags.f_contiguous and first.dtype == np.int64
    assert _rows([first]) == list(islice(oracles.enumerate_pf(8), first.shape[0]))


def test_function_blocks_follow_all_functions():
    # the scans' oracle of [m]^n, block for block, against itertools.product
    for n in range(1, 6):
        for m in range(1, 6):
            blocks = list(oracles.function_blocks(n, m))
            assert _column_major_int64(blocks), (n, m)
            assert _rows(blocks) == list(oracles.all_functions(n, m)), (n, m)
    # m = 1, and n = 1 over two blocks
    for n, m in ((8, 1), (1, 70000)):
        assert _rows(oracles.function_blocks(n, m)) == list(oracles.all_functions(n, m)), (n, m)
    # many blocks, the last one partial: 21845 rows a block at n = 3
    blocks = list(oracles.function_blocks(3, 50))
    assert len(blocks) == 6 and all(b.size <= ensemble.BLOCK_ELEMENTS for b in blocks)
    assert _column_major_int64(blocks)
    assert _rows(blocks) == list(oracles.all_functions(3, 50))


def test_block_sources_reject_edges_before_any_block():
    for n in (0, -1):
        with pytest.raises(ValueError):
            ensemble.pf_blocks(n)
    with pytest.raises(CapacityError):
        ensemble.pf_blocks(9)
    with pytest.raises(CapacityError):
        exhaustive_histogram(9, "area")
    # m^n beyond int64 would wrap in the row indices
    for stat, ensemble_name in (("first", "fn"), ("kmax", "fn1"), ("forced-gap", "fn1")):
        with pytest.raises(ValueError, match="int64"):
            exhaustive_histogram(16, stat, ensemble_name, limit=16)
    with pytest.raises(ValueError):  # 18^16 parking functions
        ensemble.pf_blocks(17, limit=17)
    # the largest size that fits still gives its first block
    first = next(ensemble.pf_blocks(16, limit=16)).tolist()
    assert all(is_parking_function(row) for row in first)
    assert len(set(map(tuple, first))) == len(first)


def test_exhaustive_histogram_matches_enumerated_census():
    for n in range(1, 7):
        for ensemble_name in ensemble.ENSEMBLES:
            block = _enumerated(ensemble_name, n)
            m = n + 1 if ensemble_name == "fn1" else n
            parks = all(is_parking_function(row) for row in block.tolist())
            assert parks == (ensemble_name == "pf" or (ensemble_name, n) == ("fn", 1))
            for stat, kernel in STATISTICS.items():
                if stat == "lucky" and not parks:
                    # refused before any block, not when a row fails to park
                    with pytest.raises(ValueError, match="holds other functions"):
                        exhaustive_histogram(n, stat, ensemble_name)
                    continue
                expected = Counter(_to_python(kernel(block, n, m)))
                got = exhaustive_histogram(n, stat, ensemble_name).bins
                assert got == expected, (n, ensemble_name, stat)


def _scan_censuses(names, ensemble_name, n):
    """The census of each name over every row of PF_n or of [m]^n (from
    `oracles.function_blocks`), in one pass over the rows."""
    m = n + 1 if ensemble_name == "fn1" else n
    blocks = ensemble.pf_blocks(n) if ensemble_name == "pf" else oracles.function_blocks(n, m)
    kernels = {name: statistic_kernel(name, n) for name in names}
    bins = {name: Counter() for name in names}
    for block in blocks:
        for name, kernel in kernels.items():
            bins[name].update(dict(ensemble._distinct(kernel(block, n, m))))
    return {name: dict(counts) for name, counts in bins.items()}


def _scan_census(stat, ensemble_name, n):
    """The census of one name over every row of the ensemble."""
    return _scan_censuses([stat], ensemble_name, n)[stat]


def test_profile_census_matches_the_scan():
    # a name that reads its first p < n entries in order is counted over the
    # sorted rows split by those entries, each weighted by the arrangements
    # of its sorted rest, and at p = 0 over the sorted rows alone; the block
    # scan is the oracle
    names = [name for name in PREFIX_NAMES if stats.ordered_prefix(name, 8) < 8]
    assert len(names) == 9
    for ensemble_name in ensemble.ENSEMBLES:
        for n in range(1, 8):
            at_n = [name for name in names if n > 1 or name != "forced-gap"]
            scans = _scan_censuses(at_n, ensemble_name, n)
            for name in at_n:
                label = (name, ensemble_name, n)
                bins = exhaustive_histogram(n, name, ensemble_name).bins
                assert bins == scans[name], label
                _assert_plain_keys(bins, KEY_TYPES.get(name, int), label)
    for n in range(2, 7):
        kernel = STATISTICS["species"]
        pf = ensemble._census(kernel, ensemble.pf_blocks(n), n, n + 1)
        fn = ensemble._census(kernel, oracles.function_blocks(n, n + 1), n, n + 1)
        witness = next((v for v in sorted(set(pf) | set(fn), key=str)
                        if fn.get(v, 0) != (n + 1) * pf.get(v, 0)), None)
        report = exact_equidistribution(n, "species")
        assert (report.equal, report.witness) == (witness is None, witness), n


def test_sorted_blocks_are_the_sorted_rows_in_order():
    # lexicographic, each once, over several blocks of at most BLOCK_ELEMENTS
    # values: Catalan(10) = 16796 rows of PF_10, C(62, 3) = 37820 of [60]^3
    for n, caps, rows in ((10, range(1, 11), oracles.sorted_profiles(10)),
                          (3, [60] * 3, combinations_with_replacement(range(1, 61), 3))):
        blocks = list(ensemble._sorted_blocks(n, caps))
        assert len(blocks) > 1 and _column_major_int64(blocks)
        assert all(b.size <= ensemble.BLOCK_ELEMENTS for b in blocks)
        assert _rows(blocks) == list(rows), n
    for n in range(1, 7):
        weights = ensemble._arrangement_counts(next(ensemble._sorted_blocks(n, [n] * n)))
        assert weights.sum() == n**n and weights[0] == 1 and weights[-1] == 1, n


def test_profile_census_edges():
    # counts past int64 are refused before any block is built, and before
    # either census is built or read
    built = []
    census = ensemble._type_census.cache_info()
    sorted_census = ensemble._sorted_census.cache_info()
    original = ensemble._sorted_blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ensemble, "_sorted_blocks",
                      lambda *a: (built.append(b.shape) or b for b in original(*a)))
        for n, stat, ensemble_name in ((16, "area", "fn"), (17, "max-discrepancy", "pf"),
                                       (16, "species", "fn1")):
            with pytest.raises(ValueError, match="int64"):
                exhaustive_histogram(n, stat, ensemble_name, limit=n)
        # PF_16 fits in int64 but [17]^16 does not: neither census starts
        for feature in ("species", "descent-pattern"):
            with pytest.raises(ValueError, match="int64"):
                exact_equidistribution(16, feature, limit=16)
        with pytest.raises(ValueError, match="int64"):
            weak_peak_check(16, 3, limit=16)
        # the type census holds the weights of [17]^16 too: no exact law of
        # a comparison statistic at n = 16, on any ensemble
        for ensemble_name in ensemble.ENSEMBLES:
            with pytest.raises(ValueError, match="int64"):
                exhaustive_histogram(16, "repeats", ensemble_name, limit=16)
        with pytest.raises(CapacityError):
            exact_equidistribution(9, "species")
        assert not built
        assert ensemble._type_census.cache_info() == census
        assert ensemble._sorted_census.cache_info() == sorted_census
    # the sorted rows are read-only and shared by every call at one
    # (n, ensemble): a warm call gives the cold call's bins in its order
    for n in range(1, 7):
        for ensemble_name in ensemble.ENSEMBLES:
            rows, weights = ensemble._sorted_census(n, ensemble_name)
            assert rows.dtype == weights.dtype == np.int64
            assert rows.flags.f_contiguous and weights.shape == rows.shape[:1]
            for array in (rows, weights):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
            for stat in sorted(_order_free(n)):
                ensemble._sorted_census.cache_clear()
                cold = exhaustive_histogram(n, stat, ensemble_name).bins
                warm = exhaustive_histogram(n, stat, ensemble_name).bins
                assert list(warm.items()) == list(cold.items()), (n, stat, ensemble_name)
                assert warm == _scan_census(stat, ensemble_name, n), (n, stat, ensemble_name)
    # kept for three (n, ensemble): the order-free laws of the three
    # ensembles at one n, read twice, unrank each ensemble's rows once, and
    # the type census reads PF_n's from the same entry
    ensemble._sorted_census.cache_clear()
    ensemble._type_census.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ensemble, "_sorted_blocks",
                      lambda n, caps: built.append((n, caps[0])) or original(n, caps))
        for _ in range(2):
            for ensemble_name in ensemble.ENSEMBLES:
                exhaustive_histogram(5, "area", ensemble_name)
        exhaustive_histogram(5, "repeats")
    assert sorted(built) == [(5, 1), (5, 5), (5, 6)]
    # only rows that fit in one block are kept: [8]^8 has 6435 sorted rows
    # (51,480 values), [9]^8 12,870 (102,960), which are streamed as before
    before = ensemble._sorted_census.cache_info()
    exhaustive_histogram(8, "area", "fn")
    assert ensemble._sorted_census.cache_info().misses == before.misses + 1
    before = ensemble._sorted_census.cache_info()
    exhaustive_histogram(8, "area", "fn1")
    assert ensemble._sorted_census.cache_info() == before
    # the max-discrepancy law of PF_10 from its 16796 sorted rows, in blocks
    # of at most BLOCK_ELEMENTS values: 0 on the 10! permutations, 9 on 1^10
    # (an opt-in size keeps no census)
    sizes = []
    kernel = STATISTICS["max-discrepancy"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(STATISTICS, "max-discrepancy",
                      lambda block, n, m: sizes.append(block.size) or kernel(block, n, m))
        bins = exhaustive_histogram(10, "max-discrepancy", limit=10).bins
    assert ensemble._sorted_census.cache_info() == before
    assert sum(bins.values()) == 11**9
    assert (bins[0], bins[9], len(bins)) == (math.factorial(10), 1, 10)
    assert len(sizes) > 1 and max(sizes) <= ensemble.BLOCK_ELEMENTS
    assert sum(sizes) == 16796 * 10


def test_traced_registry_takes_the_profile_path(monkeypatch):
    # perfbench's traced runs replace each registry entry with a plain
    # wrapper; the bins must keep their content and their order
    for ensemble_name in ensemble.ENSEMBLES:
        for n in range(1, 8):
            plain = exhaustive_histogram(n, "area", ensemble_name).bins
            rows = []
            kernel = STATISTICS["area"]

            def traced(*args, **kwargs):
                rows.append(len(args[0]))
                return kernel(*args, **kwargs)

            monkeypatch.setitem(STATISTICS, "area", traced)
            wrapped = exhaustive_histogram(n, "area", ensemble_name).bins
            monkeypatch.setitem(STATISTICS, "area", kernel)
            assert list(wrapped.items()) == list(plain.items()), (ensemble_name, n)
            m = n + 1 if ensemble_name == "fn1" else n
            sorted_rows = (math.comb(2 * n, n) // (n + 1) if ensemble_name == "pf"
                           else math.comb(n + m - 1, n))
            assert rows and max(rows) <= sorted_rows and sum(rows) == sorted_rows


def test_exact_equidistribution_matches_enumerated_census():
    for n in range(2, 7):
        pf, fn = _enumerated("pf", n), _enumerated("fn1", n)
        for feature, _chains in _feature_cases(n, POSETS):
            kernel = statistic_kernel(feature, n)
            pf_counts = Counter(_to_python(kernel(pf, n, n + 1)))
            f_counts = Counter(_to_python(kernel(fn, n, n + 1)))
            witness = next((v for v in sorted(set(pf_counts) | set(f_counts), key=str)
                            if f_counts[v] != (n + 1) * pf_counts[v]), None)
            report = exact_equidistribution(n, feature)
            # repr tells a witness True from 1
            assert (report.equal, repr(report.witness)) == (witness is None, repr(witness)), \
                (n, feature)


def test_weak_peak_check_matches_enumerated_census():
    for n in range(3, 7):
        pf, fn = _enumerated("pf", n), _enumerated("fn1", n)
        for i in range(2, n):
            def peaks(block):
                a, b, c = block[:, i - 2], block[:, i - 1], block[:, i]
                return int(np.count_nonzero((a < b) & (b >= c)))

            report = weak_peak_check(n, i)
            assert (report.pf_count, report.f_count) == (peaks(pf), peaks(fn)), (n, i)
            assert report.equal == (peaks(fn) == (n + 1) * peaks(pf))


# Row counts at and just below the cutover of each kernel's column form (and
# of lucky's int form; 2048, a tall block for the row forms), and further out
# on both sides; n at the forms' limits on n (n + 1 and m below 64 for lucky's
# column form, n below 256 for its int form), while the block stays near the
# size of a block of the exhaustive sources.
_CUTOVERS = (stats._LUCKY_BITS_ROWS, stats._LUCKY_SWEEP_ROWS, stats._LUCKY_COLUMN_ROWS,
             stats._RUN_COLUMN_ROWS, 2048, ensemble._KEYS_COLUMN_ROWS, ensemble._NARROW_KEYS)
_CUTOVER_ROWS = sorted({1, 9} | {c + d for c in _CUTOVERS for d in (-1, 0)}
                       | {2 * max(_CUTOVERS)})
_CUTOVER_N = (1, 2, 3, 4, 6, 8, 15, 16, 62, 63, 64, 255, 256)


@st_h.composite
def tall_shapes(draw):
    rows = draw(st_h.sampled_from(_CUTOVER_ROWS))
    n = draw(st_h.sampled_from([k for k in _CUTOVER_N if rows * k <= 1 << 14]))
    return rows, n, draw(st_h.sampled_from(ensemble.ENSEMBLES)), draw(st_h.integers(0, 2**32 - 1))


def _tall_block(rows, n, ensemble_name, seed):
    """(block, raw, m): a row-major block of functions [n] -> [m] of the
    ensemble, and the functions [n] -> [n+1] it was made from."""
    raw = np.random.default_rng(seed).integers(1, n + 2, size=(rows, n))
    if ensemble_name == "pf":
        return shift_block(raw.copy(), n), raw, n
    m = n + 1 if ensemble_name == "fn1" else n
    return np.minimum(raw, m), raw, m


# each column form next to its limit: the tuple keys, lucky at n = 62 and
# 63, lucky's sweep on 64 rows of fewer than 512 cars at n = 7 against 512
# cars at n = 8, longest-run; a tall block of PF_7, and tall blocks of the
# shift at n = 15 and 16.  lucky's int form next to its limits: 8 rows at n = 64
# (512 cars) against 7 rows and against 8 rows at n = 63 (504 cars), on pf
# and fn1, and n = 255 against 256
@example((ensemble._KEYS_COLUMN_ROWS, 4, "fn1", 1))
@example((2048, 7, "pf", 7))
@example((1024, 15, "pf", 2))
@example((1024, 16, "fn1", 3))
@example((stats._LUCKY_COLUMN_ROWS, 62, "pf", 4))
@example((stats._LUCKY_COLUMN_ROWS, 63, "pf", 5))
@example((stats._LUCKY_SWEEP_ROWS, 7, "pf", 15))
@example((stats._LUCKY_SWEEP_ROWS, 8, "fn1", 16))
@example((stats._RUN_COLUMN_ROWS, 8, "fn", 6))
@example((stats._LUCKY_BITS_ROWS, 64, "pf", 8))
@example((stats._LUCKY_BITS_ROWS, 64, "fn1", 9))
@example((stats._LUCKY_BITS_ROWS - 1, 64, "pf", 10))
@example((stats._LUCKY_BITS_ROWS, 63, "pf", 11))
@example((stats._LUCKY_BITS_ROWS, 255, "pf", 12))
@example((stats._LUCKY_BITS_ROWS, 255, "fn1", 13))
@example((stats._LUCKY_BITS_ROWS, 256, "pf", 14))
@settings(max_examples=12, deadline=None)
@given(tall_shapes())
def test_column_forms_match_oracles_in_either_memory_order(shape):
    n = shape[1]
    block, raw, m = _tall_block(*shape)
    # the oracles score each distinct row once
    distinct, inverse = np.unique(block, axis=0, return_inverse=True)
    funcs = [tuple(f) for f in distinct.tolist()]

    def expected(scalar):
        values = [scalar(f) for f in funcs]
        return [values[i] for i in inverse.ravel().tolist()]

    def check(kernel, scalar, codomain, label):
        try:
            want = expected(scalar)
        except ValueError:  # lucky off PF_n
            for b in (block, np.asfortranarray(block)):
                with pytest.raises(ValueError):
                    kernel(b, n, codomain)
            return
        censuses = []
        for b in (block, np.asfortranarray(block)):
            assert _to_python(kernel(b, n, codomain)) == want, label
            censuses.append(list(ensemble._census(kernel, iter([b]), n, codomain).items()))
        assert censuses[0] == censuses[1] == list(Counter(want).items()), label

    for name in STATISTICS:
        scalar = oracles.lucky if name == "lucky" else \
            (lambda f, name=name: SCALAR_DEFINITIONS[name](f, n, m))
        check(STATISTICS[name], scalar, m, name)
    for feature, chains in _feature_cases(n, POSETS):
        check(statistic_kernel(feature, n),
              lambda f: _scalar_feature(feature, f, n, chains), n + 1, feature)

    shifts = [oracles.find_valid_shift(f) for f in raw.tolist()]
    shifted = [sample.shift_sequence(f, k) for f, k in zip(raw.tolist(), shifts)]
    for b in (raw, np.asfortranarray(raw)):
        assert sample.valid_shifts(b, n).tolist() == shifts
        assert _rows([shift_block(b.copy(order="K"), n)]) == shifted


def test_joint_coordinate_bound_matches_enumerated_census():
    # the whole-grid computation, five grid-sized arrays at once, is the
    # oracle: the report holds its float bit for bit
    for n in range(1, 8):
        pf = _enumerated("pf", n)
        grid = np.arange(1, n + 1) / n
        for k in (1, 2, 3, 7) if n == 7 else range(1, min(n, 3) + 1):
            counts = np.zeros((n,) * k, dtype=np.int64)
            np.add.at(counts, tuple(pf[:, :k].T - 1), 1)
            cdf = counts.astype(np.float64)
            for axis in range(k):
                cdf = np.cumsum(cdf, axis=axis)
            cdf /= count_pf(n)
            product_cdf = grid
            for _ in range(k - 1):
                product_cdf = np.multiply.outer(product_cdf, grid)
            expected = float(np.abs(cdf - product_cdf).max())
            del counts, cdf, product_cdf
            tracemalloc.start()
            try:
                report = joint_coordinate_bound_check(n, k)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.max_difference == expected, (n, k)
            if k == 7:  # the n^k grid is the one array of its size: 6.3 MiB
                assert peak < 2 * 8 * n**k
