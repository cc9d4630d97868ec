"""Experiment harness, distances, and exact ensemble comparisons."""

import json
import math
import statistics
from collections import Counter
from itertools import islice, product

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st_h

from parkfn import (
    Chain,
    ChainPoset,
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
from parkfn.enumeration import CapacityError, all_functions, count_pf, enumerate_pf
from parkfn.ensemble import _feature_kernel, sample_blocks
from parkfn.sample import (
    sample_parking_function,
    sample_uniform_function,
    shift_block,
    split_stream,
)
from parkfn.stats import STATISTICS, longest_run_statistic, statistic_kernel


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=0, count=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=3, count=1, seed=0, ensemble="permutations")
    # longest-run is valid even though it lives outside the registry
    ExperimentConfig(n=3, count=1, seed=0, statistic="longest-run")
    # an unknown statistic or relation is a ValueError that names it, wherever
    # the name is looked up
    bad_names = [
        ("'entropy'", lambda: ExperimentConfig(n=3, count=1, seed=0, statistic="entropy")),
        ("'~'", lambda: ExperimentConfig(n=3, count=1, seed=0, statistic="longest-run",
                                         relation="~")),
        ("'bogus'", lambda: exhaustive_histogram(3, "bogus")),
        ("'~'", lambda: exact_equidistribution(3, "longest-run", relation="~")),
    ]
    for name, call in bad_names:
        with pytest.raises(ValueError, match=name):
            call()


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
    "longest-run": lambda f, n, m: oracles.longest_run(f),
}


def test_every_statistic_has_an_independent_definition():
    assert set(STATISTICS) | {"longest-run"} == set(SCALAR_DEFINITIONS) | {"lucky"}


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
    # uint32; acc counts in int16 up to n = 2^15, then int32
    kernel = STATISTICS["inversions"]
    for m in (255, 256, 65535, 65536, 1 << 20):
        for n in (2, 9, 40):
            block = _inversion_edge_rows(n, m, seed=m + n)
            assert _to_python(kernel(block, n, m)) == [oracles.inversions(r)
                                                        for r in block.tolist()]
    assert _to_python(kernel(np.ones((3, 1), dtype=np.int64), 1, 1)) == [0, 0, 0]
    for n in (100, 1 << 15, (1 << 15) + 1):  # one reversed row: acc[0] = n - 1
        block = np.arange(n, 0, -1, dtype=np.int64)[None, :]
        assert _to_python(kernel(block, n, n)) == [n * (n - 1) // 2]


@given(function_blocks())
def test_kernels_match_scalar_definitions(case):
    funcs, n, m = case
    block = np.array(funcs, dtype=np.int64)
    for name, scalar in SCALAR_DEFINITIONS.items():
        got = _to_python(statistic_kernel(name)(block, n, m))
        assert got == [scalar(tuple(f), n, m) for f in funcs], name
    for relation in ("<=", ">", ">="):
        got = _to_python(longest_run_statistic(relation)(block, n, m))
        assert got == [oracles.longest_run(f, relation) for f in funcs]


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


def _scalar_feature(feature, f, n, relation="<", poset=None, position=2):
    """A feature of one function [n] -> [n+1], from its scalar definition."""
    i = position
    if feature in ("descent-pattern", "equality-pattern", "weak-descent-pattern"):
        rel = {"descent-pattern": "<", "equality-pattern": "=",
               "weak-descent-pattern": "<="}[feature]
        return oracles.descent_pattern(f, rel)
    if feature == "species":
        return oracles.species(f, m=n + 1)
    if feature == "inversions":
        return oracles.inversions(f)
    if feature == "longest-run":
        return oracles.longest_run(f, relation)
    if feature == "chain-poset":
        return oracles.chain_monotone(f, poset)
    if feature == "strict-peak":
        return f[i - 2] < f[i - 1] > f[i]
    if feature == "mixed-chain":
        return f[i - 2] <= f[i - 1] < f[i]
    if feature == "forced-gap":
        return f[0] < f[1] - 1
    if feature == "non-disjoint-chain":
        return f[0] < f[1] < f[2] and f[3] < f[1] and f[1] < f[4]
    raise AssertionError(feature)


def _feature_cases(n, posets):
    """(feature, keyword arguments) for every feature that applies at size n."""
    cases = [(feature, {}) for feature in ("descent-pattern", "equality-pattern",
                                           "weak-descent-pattern", "species", "inversions")]
    cases += [("longest-run", {"relation": r}) for r in ("<", "<=", ">", ">=")]
    cases += [("chain-poset", {"poset": p}) for p in posets
              if max(p.positions, default=0) <= n]
    cases += [(feature, {"position": i}) for feature in ("strict-peak", "mixed-chain")
              for i in range(2, n)]
    if n >= 2:
        cases.append(("forced-gap", {}))
    if n >= 5:
        cases.append(("non-disjoint-chain", {}))
    return cases


POSETS = (
    ChainPoset((Chain((1, 3), "<"), Chain((2, 4), ">="))),
    ChainPoset((Chain((2, 3, 5), "<="),)),
    ChainPoset((Chain((3, 1), "="),)),
    ChainPoset((Chain((2, 1), ">"), Chain((5, 3), "<"))),
)


@st_h.composite
def chain_posets(draw, n):
    """Disjoint chains over a random order of some of the positions 1..n."""
    rest = draw(st_h.permutations(range(1, n + 1)))
    chains = []
    while len(rest) >= 2:
        size = draw(st_h.integers(2, len(rest)))
        relation = draw(st_h.sampled_from(("<", "<=", ">", ">=", "=")))
        chains.append(Chain(tuple(rest[:size]), relation))
        rest = rest[size + draw(st_h.integers(0, 1)):]
    return ChainPoset(tuple(chains))


@given(function_blocks(), st_h.data())
def test_feature_kernels_match_scalar_definitions(case, data):
    funcs, n, _m = case  # features score both ensembles with codomain n + 1
    block = np.array(funcs, dtype=np.int64)
    poset = data.draw(chain_posets(n))
    for feature, kwargs in _feature_cases(n, (poset,)):
        got = _to_python(_feature_kernel(feature, n, **kwargs)(block, n, n + 1))
        assert got == [_scalar_feature(feature, tuple(f), n, **kwargs) for f in funcs], feature
        assert all(type(v) in (bool, int, tuple) for v in got), feature


def _scalar_census_report(n, feature, **kwargs):
    """(equal, witness) of `exact_equidistribution`, from scalar definitions
    over the functions [n] -> [n] that park and all functions [n] -> [n+1]."""
    pf = Counter(_scalar_feature(feature, f, n, **kwargs)
                 for f in product(range(1, n + 1), repeat=n) if is_parking_function(f))
    fn = Counter(_scalar_feature(feature, f, n, **kwargs)
                 for f in product(range(1, n + 2), repeat=n))
    for v in sorted(set(pf) | set(fn), key=str):
        if fn[v] != (n + 1) * pf[v]:
            return False, v
    return True, None


def test_exact_equidistribution_matches_scalar_census():
    for n in range(2, 6):
        for feature, kwargs in _feature_cases(n, POSETS):
            report = exact_equidistribution(n, feature, **kwargs)
            equal, witness = _scalar_census_report(n, feature, **kwargs)
            # repr tells a witness True from 1
            assert (report.equal, repr(report.witness)) == (equal, repr(witness)), \
                (n, feature, kwargs)


def test_exhaustive_histogram_area():
    h = exhaustive_histogram(3, "area")
    assert h.count == "exhaustive"
    assert h.total == count_pf(3) == 16
    # area census for n = 3: inconvenience 0..3
    assert h.bins == {0: 6, 1: 6, 2: 3, 3: 1}


def test_exhaustive_histogram_kmax_matches_law():
    from parkfn import k_pi_law

    h = exhaustive_histogram(4, "kmax")
    for k, count in h.bins.items():
        assert k_pi_law(4, k) * count_pf(4) == count


def test_histogram_json_schema():
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
    hist = Histogram(n=1, statistic="x", ensemble="pf", seed=0, count=1, bins=bins)
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
             "descent-pattern": tuple, "species": tuple}


def _assert_plain_keys(bins, expected, label):
    # json.dumps(default=str) would write a numpy key as a string, and the
    # benchmark's bin digests ignore key types
    assert bins, label
    for key in bins:
        assert type(key) is expected, label
        if expected is tuple:
            assert all(type(x) is int for x in key), label


def test_bin_keys_are_plain_python_values():
    cases = [(stat, "<") for stat in STATISTICS] + [("longest-run", r) for r in ("<", ">=")]
    for stat, relation in cases:
        expected = KEY_TYPES.get(stat, int)
        for ensemble_name in ensemble.ENSEMBLES:
            for n in (1, 3, 40):
                config = ExperimentConfig(n=n, count=50, seed=3, ensemble=ensemble_name,
                                          statistic=stat, relation=relation)
                try:
                    hist = run_experiment(config)
                except ValueError:  # lucky off PF_n
                    assert stat == "lucky" and ensemble_name != "pf"
                    continue
                _assert_plain_keys(hist.bins, expected, (stat, ensemble_name, n))
            for n in (1, 4):
                try:
                    hist = exhaustive_histogram(n, stat, ensemble_name, relation=relation)
                except ValueError:
                    assert stat == "lucky" and ensemble_name != "pf"
                    continue
                _assert_plain_keys(hist.bins, expected, (stat, ensemble_name, n))
    # chain and forced-gap features count bools
    for feature, kwargs in (("forced-gap", {}), ("strict-peak", {"position": 2}),
                            ("chain-poset", {"poset": POSETS[0]})):
        kernel = _feature_kernel(feature, 4, **kwargs)
        for blocks in (ensemble.pf_blocks(4), ensemble.function_blocks(4, 5)):
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
    if width:
        column = block[:, width - 1]
        assert list(ensemble._distinct(column)) == list(Counter(column.tolist()).items())


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
def test_from_bins_matches_statistics_module(values):
    hist = Histogram.from_bins(dict(Counter(values)), n=1, statistic="x", ensemble="pf",
                               seed=0, count=len(values))
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
        {k: (float, v) for k, v in expected.items()}


def test_from_bins_edges():
    # n = 1: every descent pattern is the empty tuple, and nothing is numeric
    for hist in (exhaustive_histogram(1, "descent-pattern"),
                 run_experiment(ExperimentConfig(n=1, count=5, seed=0,
                                                 statistic="descent-pattern"))):
        assert hist.bins == {(): hist.total} and hist.summaries == {}
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


def test_ks_distance_to_limit():
    h = Histogram(n=1, statistic="x", ensemble="pf", seed=0, count=4,
                  bins={0.0: 1, 1.0: 1, 2.0: 1, 3.0: 1})
    # against U(0, 4): empirical CDF at 0 is 0.25 vs 0, the worst gap
    assert ks_distance_to_limit(h, lambda t: t / 4) == pytest.approx(0.25)
    # the gap can sit at the left limit: F_emp(0.9-) = 0 against F(0.9) = 0.9
    h = Histogram(n=1, statistic="x", ensemble="pf", seed=0, count=1, bins={0.9: 1})
    assert ks_distance_to_limit(h, lambda t: t) == pytest.approx(0.9)


def test_equidistribution_positive_features():
    for n in range(2, 6):
        for feature in ("descent-pattern", "equality-pattern",
                        "weak-descent-pattern", "species", "inversions"):
            report = exact_equidistribution(n, feature)
            assert report.equal, (feature, n, report.witness)
    for relation in ("<", "<=", ">", ">="):
        assert exact_equidistribution(4, "longest-run", relation=relation).equal


def test_equidistribution_chain_posets():
    poset = ChainPoset((Chain((1, 3), "<"), Chain((2, 4), ">=")))
    assert exact_equidistribution(4, "chain-poset", poset=poset).equal
    poset = ChainPoset((Chain((2, 3, 5), "<="),))
    assert exact_equidistribution(5, "chain-poset", poset=poset).equal
    with pytest.raises(ValueError):
        exact_equidistribution(4, "chain-poset")


def test_equidistribution_negative_controls():
    assert not exact_equidistribution(3, "strict-peak").equal
    assert not exact_equidistribution(3, "mixed-chain").equal
    assert not exact_equidistribution(2, "forced-gap").equal
    assert not exact_equidistribution(5, "non-disjoint-chain").equal
    with pytest.raises(ValueError):
        exact_equidistribution(3, "palindrome")


def test_feature_positions_never_wrap():
    # a chain position beyond n used to read another coordinate
    with pytest.raises(ValueError):
        exact_equidistribution(3, "chain-poset", poset=ChainPoset((Chain((4, 2), "<"),)))
    for n, position in ((4, 1), (4, 4), (2, 2)):
        for feature in ("strict-peak", "mixed-chain"):
            with pytest.raises(ValueError):
                exact_equidistribution(n, feature, position=position)
    with pytest.raises(ValueError):
        exact_equidistribution(4, "non-disjoint-chain")
    with pytest.raises(ValueError):
        exact_equidistribution(1, "forced-gap")


def test_weak_peak_check():
    for n in range(3, 6):
        for i in range(2, n):
            report = weak_peak_check(n, i)
            assert report.equal
            assert report.f_count == (n + 1) * report.pf_count
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


def test_first_coordinate_marginal_is_exact():
    # exhaustive first-coordinate histogram equals the closed-form census
    from parkfn import count_first

    h = exhaustive_histogram(5, "first")
    assert h.bins == {k: count_first(5, k) for k in range(1, 6)}


# --- block sources against the enumerators --------------------------------

def _rows(blocks):
    return [tuple(r) for block in blocks for r in block.tolist()]


def _enumerated(ensemble_name, n):
    """The functions of an ensemble from the tuple enumerators, as one block."""
    if ensemble_name == "pf":
        funcs = [tuple(pf) for pf in enumerate_pf(n)]
    else:
        funcs = list(all_functions(n, n + 1 if ensemble_name == "fn1" else n))
    return np.array(funcs, dtype=np.int64).reshape(-1, n)


def _lex_sorted(block):
    return block[np.lexsort(block.T[::-1])]


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
    for n in range(1, 8):
        blocks = list(ensemble.pf_blocks(n))
        assert _column_major_int64(blocks), n
        rows = _lex_sorted(np.concatenate(blocks))
        assert rows.shape == (count_pf(n), n)
        assert np.array_equal(rows, _lex_sorted(_enumerated("pf", n))), n
        assert (np.diff(rows, axis=0) != 0).any(axis=1).all(), n  # each row once


def test_function_blocks_follow_all_functions():
    for n in range(1, 6):
        for m in range(1, 6):
            blocks = list(ensemble.function_blocks(n, m))
            assert _column_major_int64(blocks), (n, m)
            assert _rows(blocks) == list(all_functions(n, m)), (n, m)
    # many blocks, the last one partial: 21845 rows a block at n = 3
    blocks = list(ensemble.function_blocks(3, 50))
    assert len(blocks) == 6 and all(b.size <= ensemble.BLOCK_ELEMENTS for b in blocks)
    assert _column_major_int64(blocks)
    assert _rows(blocks) == list(all_functions(3, 50))


def test_block_sources_reject_edges_before_any_block():
    for n in (0, -1):
        with pytest.raises(ValueError):
            ensemble.pf_blocks(n)
    with pytest.raises(CapacityError):
        ensemble.pf_blocks(9)
    with pytest.raises(CapacityError):
        exhaustive_histogram(9, "area")
    for n, m in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            ensemble.function_blocks(n, m)
    # m^n beyond int64 would wrap in the row indices
    for n, m in ((63, 2), (64, 2), (16, 16), (3, 1 << 21)):
        with pytest.raises(ValueError):
            ensemble.function_blocks(n, m)
    with pytest.raises(ValueError):
        exhaustive_histogram(16, "first", "fn", limit=16)
    with pytest.raises(ValueError):  # 18^16 parking functions
        ensemble.pf_blocks(17, limit=17)
    # the largest sizes that fit still give their first block
    first = next(ensemble.function_blocks(62, 2))
    assert _rows([first]) == list(islice(all_functions(62, 2), first.shape[0]))
    first = next(ensemble.pf_blocks(16, limit=16)).tolist()
    assert all(is_parking_function(row) for row in first)
    assert len(set(map(tuple, first))) == len(first)


def test_exhaustive_histogram_matches_enumerated_census():
    cases = [(stat, "<") for stat in STATISTICS]
    cases += [("longest-run", r) for r in ("<", "<=", ">", ">=")]
    for n in range(1, 7):
        for ensemble_name in ensemble.ENSEMBLES:
            block = _enumerated(ensemble_name, n)
            m = n + 1 if ensemble_name == "fn1" else n
            for stat, relation in cases:
                kernel = statistic_kernel(stat, relation)
                try:
                    expected = Counter(_to_python(kernel(block, n, m)))
                except ValueError:  # lucky off PF_n
                    with pytest.raises(ValueError):
                        exhaustive_histogram(n, stat, ensemble_name, relation=relation)
                    continue
                got = exhaustive_histogram(n, stat, ensemble_name, relation=relation).bins
                assert got == expected, (n, ensemble_name, stat, relation)


def test_exact_equidistribution_matches_enumerated_census():
    for n in range(2, 7):
        pf, fn = _enumerated("pf", n), _enumerated("fn1", n)
        for feature, kwargs in _feature_cases(n, POSETS):
            kernel = _feature_kernel(feature, n, **kwargs)
            pf_counts = Counter(_to_python(kernel(pf, n, n + 1)))
            f_counts = Counter(_to_python(kernel(fn, n, n + 1)))
            witness = next((v for v in sorted(set(pf_counts) | set(f_counts), key=str)
                            if f_counts[v] != (n + 1) * pf_counts[v]), None)
            report = exact_equidistribution(n, feature, **kwargs)
            # repr tells a witness True from 1
            assert (report.equal, repr(report.witness)) == (witness is None, repr(witness)), \
                (n, feature, kwargs)


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


def test_weak_peak_check_raises_when_inclusion_exclusion_fails(monkeypatch):
    # a chain kernel that holds everywhere counts as many double rises as
    # rises; the check must raise, also under python -O
    monkeypatch.setattr(stats, "_chains_hold", lambda block, chains: np.ones(len(block), bool))
    with pytest.raises(RuntimeError, match=r"n=4, i=2.*PF_n.*125 - .*125 != .*125"):
        weak_peak_check(4, 2)


# Row counts at and just below the cutover of each kernel's column form, and
# further out on both sides; n at the column forms' limits on n (n <= 15 for
# valid_shifts, n + 1 and m below 64 for lucky), while the block stays near
# the size of a block of the exhaustive sources.
_CUTOVERS = (stats._LUCKY_COLUMN_ROWS, stats._RUN_COLUMN_ROWS, sample._SHIFT_COLUMN_ROWS,
             ensemble._KEYS_COLUMN_ROWS)
_CUTOVER_ROWS = sorted({1, 9} | {c + d for c in _CUTOVERS for d in (-1, 0)}
                       | {2 * max(_CUTOVERS)})
_CUTOVER_N = (1, 2, 3, 4, 6, 8, 15, 16, 62, 63)


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


# each column form next to its limit: the tuple keys, valid_shifts at
# n = 15 and 16, lucky at n = 62 and 63, longest-run
@example((ensemble._KEYS_COLUMN_ROWS, 4, "fn1", 1))
@example((sample._SHIFT_COLUMN_ROWS, 15, "pf", 2))
@example((sample._SHIFT_COLUMN_ROWS, 16, "fn1", 3))
@example((stats._LUCKY_COLUMN_ROWS, 62, "pf", 4))
@example((stats._LUCKY_COLUMN_ROWS, 63, "pf", 5))
@example((stats._RUN_COLUMN_ROWS, 8, "fn", 6))
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
    for relation in ("<", "<=", ">", ">=", "="):
        check(longest_run_statistic(relation), lambda f: oracles.longest_run(f, relation),
              m, relation)
    for feature, kwargs in _feature_cases(n, POSETS):
        check(_feature_kernel(feature, n, **kwargs),
              lambda f: _scalar_feature(feature, f, n, **kwargs), n + 1, (feature, kwargs))

    shifts = [oracles.find_valid_shift(f, n) for f in raw.tolist()]
    shifted = [sample.shift_sequence(f, k, n) for f, k in zip(raw.tolist(), shifts)]
    for b in (raw, np.asfortranarray(raw)):
        assert sample.valid_shifts(b, n).tolist() == shifts
        assert _rows([shift_block(b.copy(order="K"), n)]) == shifted


def test_joint_coordinate_bound_matches_enumerated_census():
    for n in range(1, 7):
        pf = _enumerated("pf", n)
        grid = np.arange(1, n + 1) / n
        for k in range(1, min(n, 3) + 1):
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
            assert joint_coordinate_bound_check(n, k).max_difference == expected, (n, k)
