"""Acceptance suite: one numbered criterion per test, each printing a
single [PASS]/[FAIL] verdict line directly to the terminal.

Two Monte Carlo clauses of criterion 11 target n -> infinity limits that
finite n cannot reach at 3-standard-error resolution (the exact finite-n
values are computable and match the sampler); they are implemented
faithfully at the stated sizes and marked strict-xfail so the expected
failure stays visible without breaking the suite.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import oracles
import pytest
from scipy import integrate

import parkfn as pk
from parkfn.ensemble import ExperimentConfig, run_experiment
from parkfn.limits import (
    airy_area_density,
    airy_zeros,
    borel_identity,
    bridge_max_cdf,
    coordinate_count_density,
    excursion_max_mean,
    max_discrepancy_cdf,
    poisson_pmf,
)
from parkfn.sample import find_valid_shift, shift_sequence


def verdict(capfd, label, ok):
    with capfd.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="module")
def census8():
    """One exhaustive pass per n <= 8: total count and first-coordinate
    census, shared by criteria 1, 2, and 4."""
    out = {}
    t0 = time.time()
    for n in range(1, 9):
        census = Counter()
        total = 0
        for pf in pk.enumerate_pf(n):
            total += 1
            census[pf[0]] += 1
        out[n] = (total, census)
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def mc():
    """Shared seeded Monte Carlo experiments for criteria 11 and 13."""
    experiments = {
        "first100": ExperimentConfig(n=100, count=50_000, seed=20260825,
                                     statistic="first"),
        "area100": ExperimentConfig(n=100, count=50_000, seed=20260825,
                                    statistic="scaled-area"),
        "repeats100": ExperimentConfig(n=100, count=50_000, seed=20260825,
                                       statistic="repeats"),
        "maxdisc200": ExperimentConfig(n=200, count=20_000, seed=20260825,
                                       statistic="scaled-max-discrepancy"),
    }
    return {name: run_experiment(config) for name, config in experiments.items()}


def test_criterion_01_counting(census8, capfd):
    ok = all(census8[n][0] == (n + 1) ** (n - 1) for n in range(1, 9))
    ok = ok and census8[8][0] == 4_782_969
    ok = ok and census8["elapsed"] < 60.0
    verdict(capfd, "criterion 1: |PF_n| = (n+1)^(n-1) for n=1..8 under 1 minute", ok)


def test_criterion_02_first_coordinate_census(census8, capfd):
    ok = all(
        pk.count_first(n, k) == census8[n][1].get(k, 0)
        for n in range(1, 9)
        for k in range(1, n + 1)
    )
    ok = ok and all(
        pk.count_first(n, 1) == 2 * (n + 1) ** (n - 2)
        and pk.count_first(n, n) == n ** (n - 2)
        for n in range(2, 13)
    )
    verdict(capfd, "criterion 2: count_first census n<=8 and corner closed forms n<=12", ok)


def test_criterion_03_abel_identity(capfd):
    ok = True
    for n in range(1, 11):
        lhs, rhs = pk.abel_identity_check(Fraction(1), Fraction(1), n)
        ok = ok and lhs == rhs
    verdict(capfd, "criterion 3: Abel identity exact at x=y=1 for n=1..10", ok)


def test_criterion_04_exact_mean(census8, capfd):
    ok = True
    for n in range(1, 9):
        total, census = census8[n]
        brute = Fraction(sum(k * c for k, c in census.items()), total)
        ok = ok and pk.exact_mean_first(n) == brute
    deviations = []
    for n in (100, 400, 1600):
        exact = float(pk.exact_mean_first(n))
        asymptotic = n / 2 - math.sqrt(2 * math.pi) / 4 * math.sqrt(n)
        deviations.append(abs(exact - asymptotic) / math.sqrt(n))
    ok = ok and deviations[0] > deviations[1] > deviations[2]
    verdict(capfd, "criterion 4: exact mean matches brute force n<=8; "
                   "normalized deviation decreasing at n=100,400,1600", ok)


def test_criterion_05_generating_functions(capfd):
    ok = all(
        pk.gf_statistic(n, stat) == pk.gf_closed_form(n, stat)
        for n in range(1, 8)
        for stat in ("repeats", "lucky", "ones")
    )
    verdict(capfd, "criterion 5: repeats/lucky/ones generating functions exact n<=7", ok)


def test_criterion_06_equidistribution(capfd):
    ok = True
    for n in range(2, 8):
        for feature in ("descent-pattern", "equality-pattern",
                        "weak-descent-pattern", "species", "inversions"):
            ok = ok and pk.exact_equidistribution(n, feature).equal
        for name in ("longest-run", "longest-run<=", "longest-run>", "longest-run>="):
            ok = ok and pk.exact_equidistribution(n, name).equal
    for n, expression in ((4, "1<3;2>=4"), (5, "2<=3<=5"), (6, "1=4;2<5<6")):
        ok = ok and pk.exact_equidistribution(n, expression).equal
    for n in range(3, 8):
        for i in range(2, n):
            ok = ok and pk.weak_peak_check(n, i).equal
    # negative controls must report inequality at some n <= 5
    ok = ok and not pk.exact_equidistribution(3, "strict-peak@2").equal
    ok = ok and not pk.exact_equidistribution(3, "mixed-chain@2").equal
    ok = ok and not pk.exact_equidistribution(5, "non-disjoint-chain").equal
    ok = ok and not pk.exact_equidistribution(2, "forced-gap").equal
    verdict(capfd, "criterion 6: exact equidistribution n<=7 incl. chains and "
                   "weak peaks; negative controls fail as required", ok)


def test_criterion_07_descent_formulas(capfd):
    ok = True
    for n in range(2, 7):
        counts = oracles.brute_pattern_counts(n, n + 1)
        total = (n + 1) ** n
        for pattern, count in counts.items():
            ok = ok and pk.descent_pattern_prob(n, pattern) == Fraction(count, total)
        for size in range(1, n):
            for subset in combinations(range(1, n), size):
                brute = sum(
                    c for pat, c in counts.items()
                    if all(pat[i - 1] == 1 for i in subset)
                )
                ok = ok and pk.kpoint_correlation(n, subset) == Fraction(brute, total)
    for n in range(2, 9):
        p = pk.kpoint_correlation(n, [1])
        ok = ok and p == Fraction(n, 2 * (n + 1))
        if n >= 3:
            cov = pk.kpoint_correlation(n, [1, 2]) - p * p
            ok = ok and cov == Fraction(-n * (n + 2), 12 * (n + 1) ** 2)
        # corrected consecutive-run factor C(n+1, a+1)/(n+1)^(a+1)
        for a in range(1, n):
            block = tuple(range(1, a + 1))
            ok = ok and pk.kpoint_correlation(n, block) == Fraction(
                comb(n + 1, a + 1), (n + 1) ** (a + 1)
            )
    verdict(capfd, "criterion 7: determinant pattern law, k-point correlations, "
                   "single-descent/covariance and run closed forms", ok)


def test_criterion_08_k_pi_law(capfd):
    ok = True
    for n in range(1, 7):
        census = Counter(
            pk.max_first_coordinate(pf[1:]).k for pf in pk.enumerate_pf(n)
        )
        for k in range(1, n + 1):
            ok = ok and pk.k_pi_law(n, k) == Fraction(census[k], pk.count_pf(n))
    for n in range(1, 8):
        ok = ok and sum(pk.k_pi_law(n, k) for k in range(1, n + 1)) == 1
    verdict(capfd, "criterion 8: maximal-first-coordinate law matches brute "
                   "force n<=6 and sums to 1 for n<=7", ok)


def test_criterion_09_sampler_exactness(capfd):
    ok = True
    for n in range(1, 4):
        hits = Counter(
            shift_sequence(f, find_valid_shift(f))
            for f in oracles.all_functions(n, n + 1)
        )
        ok = ok and len(hits) == pk.count_pf(n)
        ok = ok and set(hits.values()) == {n + 1}
        ok = ok and all(pk.is_parking_function(pf) for pf in hits)
    for n in range(1, 6):
        for f in oracles.all_functions(n, n + 1):
            valid = [
                k for k in range(n + 1)
                if pk.is_parking_function(shift_sequence(f, k))
            ]
            ok = ok and valid == [find_valid_shift(f)]
    verdict(capfd, "criterion 9: shift map hits each PF exactly n+1 times "
                   "(n<=3); unique valid shift per draw (n<=5)", ok)


def test_criterion_10_limit_law_numerics(capfd):
    ok = abs(borel_identity(1.0) - 1.0) < 1e-9  # total Borel mass
    for x in [round(0.1 * i, 1) for i in range(1, 11)]:
        ok = ok and abs(borel_identity(x) - 1.0) < 1e-8
    for x in (0.2, 0.5, 0.8):
        mass, _ = integrate.quad(lambda y: coordinate_count_density(x, y), 0, 12)
        ok = ok and abs(mass - 1.0) < 1e-10
    airy_mass, _ = integrate.quad(airy_area_density, 1e-6, 6.0, limit=200)
    airy_mean, _ = integrate.quad(lambda t: t * airy_area_density(t), 1e-6, 6.0, limit=200)
    ok = ok and abs(airy_mass - 1.0) < 1e-3
    ok = ok and abs(airy_mean - math.sqrt(math.pi / 8)) < 1e-3
    ok = ok and abs(excursion_max_mean() - math.sqrt(math.pi / 2)) < 1e-3
    zeros = airy_zeros(3)
    # the reference table misrounds the third zero's last digit: the true
    # value -5.520560 displays as -5.5206, not -5.5204
    for got, want in zip(zeros, (-2.3381, -4.0879, -5.5206)):
        ok = ok and abs(got - want) < 5e-5
    ok = ok and abs(zeros[2] - (-5.5204)) < 2e-4
    verdict(capfd, "criterion 10: Borel mass, Maxwell/Airy normalizations, "
                   "excursion-max mean, Airy zeros at stated tolerances", ok)


def test_criterion_11_monte_carlo_passing_clauses(mc, capfd):
    n, count = 100, 50_000
    first = mc["first100"]
    ok = True
    p1 = first.bins.get(1, 0) / count
    target1 = 2 / (n + 1)
    se1 = math.sqrt(p1 * (1 - p1) / count)
    ok = ok and abs(p1 - target1) <= 3 * se1
    pn = first.bins.get(n, 0) / count
    targetn = n ** (n - 2) / (n + 1) ** (n - 1)
    sen = math.sqrt(pn * (1 - pn) / count)
    ok = ok and abs(pn - targetn) <= 3 * sen
    poisson = {j: poisson_pmf(1.0, j) for j in range(30)}
    ok = ok and pk.tv_distance(mc["repeats100"], poisson) < 0.02
    ks_m = pk.ks_distance_to_limit(mc["maxdisc200"], max_discrepancy_cdf)
    ks_bridge = pk.ks_distance_to_limit(mc["maxdisc200"], bridge_max_cdf)
    ok = ok and ks_m < ks_bridge
    # the scaled area (n^2/2 - sum f_i)/n^1.5 has the exact finite-n mean
    # (n/2 - E[f_1])/sqrt(n), 0.469257 at n = 100
    area = mc["area100"]
    exact_area = (n / 2 - float(pk.exact_mean_first(n))) / math.sqrt(n)
    se_area = math.sqrt(area.summaries["var"] / area.total)
    ok = ok and abs(area.summaries["mean"] - exact_area) <= 3 * se_area
    verdict(capfd, "criterion 11 (attainable clauses): corner probabilities of "
                   "the first coordinate, repeats vs Poisson(1) TV, the "
                   "excursion-vs-bridge KS ordering, and the scaled-area mean "
                   "vs its exact finite-n value", ok)


@pytest.mark.xfail(
    strict=True,
    reason="targets the n->infinity constant sqrt(2*pi)/4 ~ 0.6267, but the "
    "exact finite-n mean is 0.4693 at n=100 (0.5135 at n=200), an O(1/sqrt(n)) "
    "bias ~75x the 3-SE window of 50k samples; the sampler matches the exact "
    "finite-n value within 3 SE",
)
def test_criterion_11_scaled_area_mean_vs_limit(mc, capfd):
    hist = mc["area100"]
    mean = hist.summaries["mean"]
    se = math.sqrt(hist.summaries["var"] / hist.total)
    target = math.sqrt(2 * math.pi) / 4
    verdict(capfd, "criterion 11 (limit clause): scaled-area mean within 3 SE "
                   f"of sqrt(2*pi)/4 (got {mean:.4f}, target {target:.4f})",
            abs(mean - target) <= 3 * se)


@pytest.mark.xfail(
    strict=True,
    reason="the scaled max-discrepancy law at n=200 sits below its limit by "
    "the same O(1/sqrt(n)) scale (empirical mean 1.128 vs sqrt(pi/2)=1.253), "
    "giving KS ~ 0.2445; the 0.05 tolerance is only reachable at much larger n",
)
def test_criterion_11_max_discrepancy_ks_tolerance(mc, capfd):
    ks_m = pk.ks_distance_to_limit(mc["maxdisc200"], max_discrepancy_cdf)
    verdict(capfd, "criterion 11 (limit clause): KS of scaled max-discrepancy "
                   f"to the excursion-max CDF < 0.05 (got {ks_m:.4f})",
            ks_m < 0.05)


def test_criterion_12_joint_coordinate_bound(capfd):
    ok = True
    for n in (4, 5, 6):
        for k in (1, 2):
            report = pk.joint_coordinate_bound_check(n, k)
            ok = ok and report.holds and report.max_difference <= report.bound
    verdict(capfd, "criterion 12: joint coordinate CDF within "
                   "2k*sqrt(log n/n)+k(k-1)/n of the product form, exact grid", ok)


def test_criterion_13_reference_figures_reproduced(mc, capfd):
    # n=100, 50k-sample histograms as data: support, corner ordering, and
    # agreement of the empirical first-coordinate mean with the exact value.
    first = mc["first100"]
    ok = set(first.bins) <= set(range(1, 101))
    interior = sum(first.bins.get(j, 0) for j in range(40, 61)) / 21
    ok = ok and first.bins.get(1, 0) > interior > first.bins.get(100, 0)
    mean = first.summaries["mean"]
    se = math.sqrt(first.summaries["var"] / first.total)
    ok = ok and abs(mean - float(pk.exact_mean_first(100))) <= 3 * se
    area = mc["area100"]
    ok = ok and 0 < area.summaries["q01"] < area.summaries["q50"] < area.summaries["q99"]
    verdict(capfd, "criterion 13: n=100/50k histograms reproduced with the "
                   "expected shape and exact-mean agreement", ok)
