"""Per-function statistics and the shuffle decomposition."""

import re
from itertools import product

import oracles
import pytest
from hypothesis import given, strategies as st_h

from parkfn import (
    PrefSequence,
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
    shift_sequence,
    species,
    value_counts,
)
from parkfn.enumeration import enumerate_pf
from parkfn.stats import (Chain, descent_pattern_statistic, longest_run_statistic, parse_chains,
                          row_block, statistic_kernel)

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


def test_max_discrepancy_spans_zero_to_n_minus_one():
    # 0 on a permutation, n - 1 on the all-ones function, every value between
    assert max_discrepancy((1, 2, 3)) == 0
    assert max_discrepancy((3, 1, 2)) == 0
    assert max_discrepancy((1, 1, 1)) == 2
    assert max_discrepancy((1,)) == 0
    for n in range(1, 7):
        assert {max_discrepancy(pf) for pf in enumerate_pf(n)} == set(range(n)), n


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
        "find_valid_shift((0, 1))": lambda: find_valid_shift((0, 1)),
        "find_valid_shift((4, 1))": lambda: find_valid_shift((4, 1)),
        "find_valid_shift(())": lambda: find_valid_shift(()),
        "shift_sequence((), 1)": lambda: shift_sequence((), 1),
        "shift_sequence((0, 1), 1)": lambda: shift_sequence((0, 1), 1),
        "shift_sequence((1, 4), 1)": lambda: shift_sequence((1, 4), 1),
        "scaled_area(())": lambda: scaled_area(()),
        "longest_run(())": lambda: longest_run(()),
        "max_discrepancy((3, 1))": lambda: max_discrepancy((3, 1)),
        "statistic_kernel('1<3', 2)": lambda: statistic_kernel("1<3", 2),
        "descent_pattern((1, 2), '!')": lambda: descent_pattern((1, 2), "!"),
        "longest_run((1, 2), '!')": lambda: longest_run((1, 2), "!"),
        "descent_pattern_statistic('!')": lambda: descent_pattern_statistic("!"),
        "longest_run_statistic('!')": lambda: longest_run_statistic("!"),
    }
    # the error names what is out of the domain
    messages = {"statistic_kernel('1<3', 2)": "position 3"}
    messages.update((label, "unknown relation") for label in cases if "'!'" in label)
    for label, call in cases.items():
        with pytest.raises(ValueError, match=messages.get(label)):
            call()
            pytest.fail(label)


def test_public_statistics_match_oracles():
    # every function [n] -> [n+1] for n <= 4: the one-row kernel calls give the
    # oracles' values, of the same types
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
                block, m = row_block(f)
                pairs.append((statistic_kernel("1<=2", n)(block, n, m)[0].tolist(),
                              oracles.chain_monotone(f, [((1, 2), "<=")])))
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
    with pytest.raises(ValueError, match="unknown relation"):
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
        for suffix in oracles.all_functions(n - 1, n):
            decomp = max_first_coordinate(suffix)
            feasible = [
                j
                for j in range(1, n + 1)
                if is_parking_function((j,) + suffix)
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
                assert is_parking_function(decomp.alpha)
            if k < n:
                assert is_parking_function(decomp.beta)
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


def test_parse_chains():
    # each maximal run of one relation in a part is one chain
    assert parse_chains("1<3<5;2<=4") == (Chain((1, 3, 5), "<"), Chain((2, 4), "<="))
    assert parse_chains("2<3>4") == (Chain((2, 3), "<"), Chain((3, 4), ">"))
    assert parse_chains("2>1<3>4") == (Chain((2, 1), ">"), Chain((1, 3), "<"),
                                       Chain((3, 4), ">"))
    assert parse_chains("1<2<3;4<2<5") == (Chain((1, 2, 3), "<"), Chain((4, 2, 5), "<"))
    assert parse_chains("12=3;4>=5") == (Chain((12, 3), "="), Chain((4, 5), ">="))
    assert parse_chains("1<2>1") == (Chain((1, 2), "<"), Chain((2, 1), ">"))
    # a malformed expression is named in the error
    for expression in ("", "1<", "1<1", "0<2", "1<2;", "1~2", "a<b",
                       ";", "3", "1<2;3", "<2", "1<<2", "1=<2", "1 <2", "1<2<1",
                       "\u00b2<3"):
        with pytest.raises(ValueError, match=re.escape(repr(expression))):
            parse_chains(expression)


def test_chain_expressions_through_statistic_kernel():
    # a chain is refused or accepted as a name as parse_chains does it, with
    # the expression and the reason in the message
    for expression, reason in (("1<2<1", "distinct"), ("1<1", "distinct"), ("0<2", "1-based")):
        with pytest.raises(ValueError, match=f"^chain expression {re.escape(repr(expression))}: "
                                             f".*{reason}"):
            statistic_kernel(expression, 4)
    # one function is scored by name, on its one-row block
    for expression, f, holds in (("1<2>1", (1, 2), True), ("1<2>1", (2, 2), False),
                                 ("2>1<3>4", (1, 2, 3, 2), True), ("2>1<3>4", (1, 2, 3, 3), False),
                                 ("1<3;2>=4", (1, 5, 2, 5), True), ("1<3;2>=4", (1, 5, 2, 4), True),
                                 ("1<3;2>=4", (2, 5, 2, 5), False), ("1<3;2>=4", (1, 5, 2, 6), False)):
        block, m = row_block(f)
        assert statistic_kernel(expression, len(f))(block, len(f), m)[0].tolist() is holds, \
            (expression, f)


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
