"""Experiment harness, distances, and exact ensemble comparisons."""

import json
import math
import statistics
from collections import Counter
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import example, given, strategies as st_h

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
from parkfn import ensemble, stats
from parkfn.core import inconvenience
from parkfn.enumeration import CapacityError, all_functions, count_pf, enumerate_pf
from parkfn.ensemble import STATISTICS, _feature_kernel, longest_run_statistic, sample_blocks
from parkfn.sample import (
    sample_parking_function,
    sample_uniform_function,
    shift_block,
    split_stream,
)
from parkfn.stats import (
    descents,
    inversions,
    lucky,
    max_discrepancy,
    ones,
    repeats,
    scaled_area,
)


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
        "lucky": lucky,
        "repeats": repeats,
        "ones": ones,
        "descents": descents,
        "inversions": inversions,
        "max-discrepancy": max_discrepancy,
        "scaled-area": scaled_area,
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


SCALAR_DEFINITIONS = {
    "first": lambda f, n, m: f[0],
    "area": lambda f, n, m: inconvenience(f),
    "scaled-area": lambda f, n, m: scaled_area(f),
    "repeats": lambda f, n, m: repeats(f),
    "ones": lambda f, n, m: ones(f),
    "descents": lambda f, n, m: descents(f),
    "descent-pattern": lambda f, n, m: stats.descent_pattern(f),
    "species": lambda f, n, m: stats.species(f, m=m),
    "inversions": lambda f, n, m: inversions(f),
    "max-discrepancy": lambda f, n, m: _max_discrepancy_by_definition(f),
    "scaled-max-discrepancy": lambda f, n, m: _max_discrepancy_by_definition(f) / math.sqrt(n),
    "kmax": lambda f, n, m: _kmax_by_definition(f),
}


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


@given(function_blocks())
def test_kernels_match_scalar_definitions(case):
    funcs, n, m = case
    block = np.array(funcs, dtype=np.int64)
    for name, scalar in SCALAR_DEFINITIONS.items():
        got = _to_python(STATISTICS[name](block, n, m))
        assert got == [scalar(tuple(f), n, m) for f in funcs], name
    for relation in ("<", "<=", ">", ">="):
        got = _to_python(longest_run_statistic(relation)(block, n, m))
        assert got == [stats.longest_run(f, relation) for f in funcs]


# long nxt chains at n = 2000, and fn1 rows holding n + 1, which must raise
@example((_sampled_rows(2000, 8, 3, "pf"), 2000, 2000))
@example(([r for r in _sampled_rows(2000, 8, 3, "fn1") if 2001 in r], 2000, 2001))
@given(function_blocks())
def test_lucky_kernel_matches_parking_process(case):
    funcs, n, _m = case
    block = shift_block(np.array(funcs, dtype=np.int64), n)
    assert _to_python(STATISTICS["lucky"](block, n, n)) == [lucky(f) for f in block.tolist()]
    if not all(is_parking_function(f) for f in funcs):
        with pytest.raises(ValueError):
            STATISTICS["lucky"](np.array(funcs, dtype=np.int64), n, n)


def _scalar_feature(feature, f, n, relation="<", poset=None, position=2):
    """A feature of one function [n] -> [n+1], from its scalar definition."""
    i = position
    if feature in ("descent-pattern", "equality-pattern", "weak-descent-pattern"):
        rel = {"descent-pattern": "<", "equality-pattern": "=",
               "weak-descent-pattern": "<="}[feature]
        return stats.descent_pattern(f, rel)
    if feature == "species":
        return stats.species(f, m=n + 1)
    if feature == "inversions":
        return inversions(f)
    if feature == "longest-run":
        return stats.longest_run(f, relation)
    if feature == "chain-poset":
        return stats.chain_monotone(f, poset)
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
    species = [stats.species(tuple(row), m=n) for row in rows]
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


def test_pf_blocks_are_pf_each_once():
    for n in range(1, 8):
        rows = _lex_sorted(np.concatenate(list(ensemble.pf_blocks(n))))
        assert rows.shape == (count_pf(n), n)
        assert np.array_equal(rows, _lex_sorted(_enumerated("pf", n))), n
        assert (np.diff(rows, axis=0) != 0).any(axis=1).all(), n  # each row once


def test_function_blocks_follow_all_functions():
    for n in range(1, 6):
        for m in range(1, 6):
            assert _rows(ensemble.function_blocks(n, m)) == list(all_functions(n, m)), (n, m)
    # many blocks, the last one partial: 21845 rows a block at n = 3
    blocks = list(ensemble.function_blocks(3, 50))
    assert len(blocks) == 6 and all(b.size <= ensemble.BLOCK_ELEMENTS for b in blocks)
    assert all(b.dtype == np.int64 for b in blocks)
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
                kernel = ensemble.statistic_kernel(stat, relation)
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
