"""Per-function statistics and the shuffle decomposition."""

from itertools import product

import oracles
import pytest
from hypothesis import given, strategies as st_h

from parkfn import (
    Chain,
    ChainPoset,
    PrefSequence,
    chain_monotone,
    descent_pattern,
    descents,
    find_valid_shift,
    inversions,
    is_parking_function,
    longest_run,
    lucky,
    max_discrepancy,
    max_first_coordinate,
    ones,
    repeats,
    scaled_area,
    species,
    value_counts,
)
from parkfn.enumeration import all_functions, enumerate_pf

EXAMPLE = (1, 3, 5, 3, 1)


def test_basic_statistics_on_example():
    assert repeats(EXAMPLE) == 0
    assert repeats((2, 2, 1, 1)) == 2
    assert ones(EXAMPLE) == 2
    assert value_counts(EXAMPLE) == {1: 2, 3: 2, 5: 1}
    assert lucky(EXAMPLE) == 3
    assert descents(EXAMPLE) == 2
    assert inversions(EXAMPLE) == 4
    assert max_discrepancy(EXAMPLE) == 1
    assert scaled_area((1, 1, 1)) == (4.5 - 3) / 3**1.5


def test_lucky_rejects_non_parking():
    for values in ((2, 2), (3, 1), (9, 1), (0, 1)):
        with pytest.raises(ValueError):
            lucky(values)


def test_out_of_domain_inputs_raise_value_error():
    # an input outside a statistic's domain is an error, never a number
    cases = {
        "inversions((0, 1))": lambda: inversions((0, 1)),
        "inversions((-3, 1))": lambda: inversions((-3, 1)),
        "inversions((1, 2**70))": lambda: inversions((1, 2**70)),
        "species((5, 1), m=2)": lambda: species((5, 1), m=2),
        "species((1,), m=2**21)": lambda: species((1,), m=2**21),
        "find_valid_shift((0, 1), 2)": lambda: find_valid_shift((0, 1), 2),
        "find_valid_shift((4, 1), 2)": lambda: find_valid_shift((4, 1), 2),
        "scaled_area(())": lambda: scaled_area(()),
        "longest_run(())": lambda: longest_run(()),
        "max_discrepancy((3, 1))": lambda: max_discrepancy((3, 1)),
    }
    for label, call in cases.items():
        with pytest.raises(ValueError):
            call()
            pytest.fail(label)


def test_public_statistics_match_oracles():
    # every function [n] -> [n+1] for n <= 4: the one-row kernel calls give the
    # oracles' values, of the same types
    poset = ChainPoset((Chain((1, 2), "<="),))
    for n in range(1, 5):
        for f in product(range(1, n + 2), repeat=n):
            pairs = [
                (repeats(f), oracles.repeats(f)),
                (ones(f), oracles.ones(f)),
                (descents(f), oracles.descents(f)),
                (inversions(f), oracles.inversions(f)),
                (scaled_area(f), oracles.scaled_area(f)),
                (species(f, m=n + 1), oracles.species(f, m=n + 1)),
                (species(PrefSequence(f, m=n + 1)), oracles.species(PrefSequence(f, m=n + 1))),
                (find_valid_shift(f), oracles.find_valid_shift(f)),
            ]
            for relation in ("<", ">", "<=", ">=", "="):
                pairs.append((descent_pattern(f, relation), oracles.descent_pattern(f, relation)))
                if relation != "=":
                    pairs.append((longest_run(f, relation), oracles.longest_run(f, relation)))
            if n >= 2:
                pairs.append((chain_monotone(f, poset), oracles.chain_monotone(f, poset)))
            if max(f) <= n:
                pairs += [(max_discrepancy(f), oracles.max_discrepancy(f)),
                          (species(f), oracles.species(f))]
            if is_parking_function(f):
                pairs.append((lucky(f), oracles.lucky(f)))
            for got, expected in pairs:
                assert (type(got), got) == (type(expected), expected), f


def test_descent_pattern_relations():
    assert descent_pattern(EXAMPLE, "<") == (0, 0, 1, 1)
    assert descent_pattern(EXAMPLE, ">") == (1, 1, 0, 0)
    assert descent_pattern((1, 1, 2), "=") == (1, 0)
    assert descent_pattern((3, 3, 1), "<=") == (1, 1)
    assert descent_pattern((3, 3, 1), ">=") == (1, 0)
    with pytest.raises(KeyError):
        descent_pattern(EXAMPLE, "!=")


def test_species_accounting():
    mu = species(EXAMPLE, m=6)
    assert mu == (3, 1, 2, 0, 0, 0)
    assert sum(mu) == 6
    assert sum(r * c for r, c in enumerate(mu)) == 5
    # codomain bound defaults to n for bare tuples
    assert species((1, 1)) == (1, 0, 1)


def test_longest_run():
    assert longest_run((1, 2, 3, 1, 2), "<") == 3
    assert longest_run((3, 2, 1), ">") == 3
    assert longest_run((1, 1, 2), "<=") == 3
    assert longest_run((5,), "<") == 1


def test_shuffle_decomposition_example():
    # For the suffix (1, 3) the largest workable first coordinate is 2.
    decomp = max_first_coordinate((1, 3))
    assert decomp.k == 2
    assert decomp.alpha == (1,)
    assert decomp.beta == (1,)
    assert decomp.interleaving == (1,)
    assert max_first_coordinate((3, 3)) is None
    assert max_first_coordinate(()).k == 1


def test_shuffle_decomposition_is_maximal_and_valid():
    # Exhaustive: k is the largest feasible prefix, the two components are
    # parking functions of the right sizes, and the suffix never uses k.
    for n in range(2, 7):
        for suffix in all_functions(n - 1, n):
            decomp = max_first_coordinate(suffix)
            feasible = [
                j
                for j in range(1, n + 1)
                if is_parking_function((j,) + suffix, n)
            ]
            if decomp is None:
                assert not feasible
                continue
            assert feasible and decomp.k == max(feasible)
            assert feasible == list(range(1, decomp.k + 1))
            k = decomp.k
            assert k not in suffix
            assert len(decomp.alpha) == k - 1
            assert len(decomp.beta) == n - k
            if k > 1:
                assert is_parking_function(decomp.alpha, k - 1)
            if k < n:
                assert is_parking_function(decomp.beta, n - k)
            # interleaving positions carry exactly the alpha values
            assert tuple(suffix[i - 1] for i in decomp.interleaving) == decomp.alpha


def test_chain_validation():
    with pytest.raises(ValueError, match="relation"):
        Chain((1, 2), "!=")
    with pytest.raises(ValueError, match="2 positions"):
        Chain((1,), "<")
    with pytest.raises(ValueError, match="distinct"):
        Chain((1, 1), "<")
    # position 0 would read the last coordinate through negative indexing
    with pytest.raises(ValueError, match="1-based"):
        Chain((0, 2), "<")
    with pytest.raises(ValueError, match="disjoint"):
        ChainPoset((Chain((1, 2), "<"), Chain((2, 3), "<")))


def test_chain_monotone():
    poset = ChainPoset((Chain((1, 3), "<"), Chain((2, 4), ">=")))
    assert poset.positions == {1, 2, 3, 4}
    assert chain_monotone((1, 5, 2, 5), poset)
    assert chain_monotone((1, 5, 2, 4), poset)
    assert not chain_monotone((2, 5, 2, 5), poset)
    assert not chain_monotone((1, 5, 2, 6), poset)


def test_lucky_counts_match_outcome_exhaustive():
    for n in range(1, 6):
        for pf in enumerate_pf(n):
            assert 1 <= lucky(pf) <= n


@given(st_h.lists(st_h.integers(min_value=1, max_value=9), min_size=2, max_size=9))
def test_pattern_partition(values):
    v = tuple(values)
    strict_down = sum(descent_pattern(v, "<"))
    strict_up = sum(descent_pattern(v, ">"))
    equal = sum(descent_pattern(v, "="))
    assert strict_down + strict_up + equal == len(v) - 1
    assert repeats(v) == equal
    assert descents(v) == strict_down


@given(st_h.lists(st_h.integers(min_value=1, max_value=9), min_size=1, max_size=9))
def test_inversions_bounds(values):
    v = tuple(values)
    n = len(v)
    assert 0 <= inversions(v) <= n * (n - 1) // 2
    assert inversions(tuple(sorted(v))) == 0
