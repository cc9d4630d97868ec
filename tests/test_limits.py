"""Limit-law numerics: Borel, Maxwell, excursion maximum, Airy area."""

import math
import time
from collections import Counter
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import oracles
import pytest
from scipy import integrate

from parkfn import descents
from parkfn.limits import (
    _AIRY_TAIL_X,
    _borel_tail,
    _hyperu,
    _max_cdf_large_t,
    _max_cdf_small_t,
    _zeta,
    airy_area_density,
    airy_zeros,
    borel_identity,
    borel_pmf,
    borel_tail,
    bridge_max_cdf,
    coordinate_count_cdf,
    coordinate_count_density,
    descent_sum_moments,
    distribution_handle,
    excursion_max_mean,
    first_coordinate_limit,
    gaussian_cdf,
    max_discrepancy_cdf,
    poisson_pmf,
    xi_moment,
)


def test_borel_pmf_values_and_mass():
    assert borel_pmf(1) == pytest.approx(math.exp(-1))
    assert borel_pmf(2) == pytest.approx(2 * math.exp(-2) / 2)
    assert sum(borel_pmf(j) for j in range(1, 200_000)) == pytest.approx(
        1.0, abs=2e-2
    )  # raw series converges like j^{-1/2}; the tail handles the rest
    assert borel_tail(1) == 1.0
    assert borel_tail(2) == pytest.approx(1 - math.exp(-1), abs=1e-15)
    with pytest.raises(ValueError):
        borel_pmf(0)
    with pytest.raises(TypeError):  # not rounded to P(X = 2)
        borel_pmf(2.5)


def test_borel_tail_is_decreasing():
    values = [borel_tail(j) for j in range(1, 30)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_borel_identity_on_grid():
    # near x = 1 the tail past the 100k summed terms is largest (0.0025 at 1)
    for x in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999, 1.0):
        assert borel_identity(x) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        borel_identity(0.0)
    with pytest.raises(ValueError):
        borel_identity(1.5)


def test_borel_tail_matches_lerch_transcendents():
    # the tail r^a [Phi(r,3/2,a) - Phi(r,5/2,a)/12 + Phi(r,7/2,a)/288] in
    # mpmath; below x = 0.97198, r^a is below e^{-40} and the tail is taken as 0
    a = 100_001  # past the 100k terms that borel_identity sums
    for x in (0.972, 0.98, 0.99, 0.995, 0.999, 0.9999, 1.0):
        with mpmath.workdps(30):
            r = x * mpmath.exp(1 - mpmath.mpf(x))
            want = r**a * (mpmath.lerchphi(r, 1.5, a) - mpmath.lerchphi(r, 2.5, a) / 12
                           + mpmath.lerchphi(r, 3.5, a) / 288)
        assert _borel_tail(x) == pytest.approx(float(want), rel=1e-12, abs=0), x
    assert _borel_tail(0.97) == 0.0 and _borel_tail(0.5) == 0.0


def test_first_coordinate_limit_corners():
    n = 1000
    assert first_coordinate_limit(n, 1, "low") == pytest.approx(2 / n)
    assert first_coordinate_limit(n, 0, "high") < 1 / n
    with pytest.raises(ValueError):
        first_coordinate_limit(n, 0, "low")
    with pytest.raises(ValueError):
        first_coordinate_limit(n, 1, "middle")


def test_maxwell_density_normalizes():
    for x in (0.2, 0.5, 0.8):
        mass, _ = integrate.quad(lambda y: coordinate_count_density(x, y), 0, 10)
        assert mass == pytest.approx(1.0, abs=1e-10)
    assert coordinate_count_density(0.5, -1.0) == 0.0
    with pytest.raises(ValueError):
        coordinate_count_density(0.0, 1.0)
    with pytest.raises(ValueError, match="nan"):
        coordinate_count_density(0.5, math.nan)


def test_maxwell_cdf_monotone():
    values = [coordinate_count_cdf(0.5, t) for t in (0.0, 0.2, 0.5, 1.0, 3.0)]
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-6)


def test_maxwell_cdf_matches_quadrature():
    # scipy's adaptive quadrature of the density is the oracle for the closed form
    for x in (0.2, 0.5, 0.8):
        for t in (0.1, 0.5, 1.0, 2.0, 4.0):
            want, _ = integrate.quad(lambda y, _x=x: coordinate_count_density(_x, y), 0.0, t,
                                     epsabs=1e-13, epsrel=1e-13)
            assert coordinate_count_cdf(x, t) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        coordinate_count_cdf(1.0, 0.5)
    with pytest.raises(ValueError, match="nan"):
        coordinate_count_cdf(0.5, math.nan)


def test_excursion_max_cdf_and_mean():
    assert max_discrepancy_cdf(0.0) == 0.0
    assert max_discrepancy_cdf(5.0) == pytest.approx(1.0, abs=1e-12)
    values = [max_discrepancy_cdf(t) for t in (0.3, 0.6, 0.9, 1.2, 2.0)]
    assert all(0 <= a < b <= 1 for a, b in zip(values, values[1:]))
    assert excursion_max_mean() == pytest.approx(math.sqrt(math.pi / 2), abs=1e-9)


def test_excursion_max_cdf_small_t():
    grid = [i / 200 for i in range(0, 801)]
    values = [max_discrepancy_cdf(t) for t in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a <= b for a, b in zip(values, values[1:]))
    # the direct series cancels to roundoff below t ~ 0.4 and needs ~4/t terms;
    # its transform underflows to an exact 0 at once
    start = time.perf_counter()
    assert max_discrepancy_cdf(1e-5) == 0.0
    assert max_discrepancy_cdf(1e-9) == 0.0
    assert max_discrepancy_cdf(1e-300) == 0.0
    assert time.perf_counter() - start < 0.5


def test_max_cdfs_at_non_finite_and_huge_arguments():
    # nan and +inf are checked before any series runs; past t ~ 1e154 the
    # large-t series stops when its first term underflows
    inf = math.inf
    for cdf in (max_discrepancy_cdf, bridge_max_cdf, partial(coordinate_count_cdf, 0.5),
                gaussian_cdf):
        assert cdf(inf) == 1.0
        assert cdf(-inf) == 0.0
        assert cdf(1e160) == 1.0 and cdf(1.7e308) == 1.0
        with pytest.raises(ValueError, match="nan"):
            cdf(math.nan)
    # the Maxwell density: y * y overflows from y ~ 1.3e154, where the law
    # has long been 0
    for y in (40.0, 1.3e154, 1e160, 1.7e308, inf):
        assert coordinate_count_density(0.5, y) == 0.0, y


def test_excursion_max_series_agree_on_overlap():
    for t in (0.5, 0.8, 1.0, 1.2, 1.5):
        assert _max_cdf_small_t(t) == pytest.approx(_max_cdf_large_t(t), abs=1e-15)


def test_excursion_max_cdf_matches_high_precision_sum():
    # the direct series in 400-digit arithmetic, truncated where its terms
    # drop below e^{-2 (20)^2}: relative accuracy deep in the lower tail
    for t in (0.1, 0.2, 0.3, 0.5, 0.9, 1.0, 1.7, 2.5):
        with mpmath.workdps(400):
            tm = mpmath.mpf(t)
            want = 1 + 2 * mpmath.fsum((1 - 4 * k * k * tm * tm) * mpmath.exp(-2 * k * k * tm * tm)
                                       for k in range(1, int(20 / t) + 2))
        assert max_discrepancy_cdf(t) == pytest.approx(float(want), rel=1e-13)


def test_bridge_max_cdf():
    assert bridge_max_cdf(0.0) == 0.0
    assert bridge_max_cdf(1.0) == pytest.approx(1 - math.exp(-2))
    # the excursion maximum dominates the bridge maximum stochastically
    for t in (0.3, 0.6, 1.0, 1.5):
        assert max_discrepancy_cdf(t) <= bridge_max_cdf(t)


def test_xi_moment_matches_quadrature():
    for s in (1.2, 1.5, 1.8):
        direct, _ = integrate.quad(
            lambda t, _s=s: _s * t ** (_s - 1) * (1 - max_discrepancy_cdf(t)), 0, 10
        )
        assert xi_moment(s) == pytest.approx(direct, abs=1e-9)
    with pytest.raises(ValueError):
        xi_moment(2.5)
    # the Euler-Maclaurin zeta against mpmath's, up to the pole at s = 1
    for s in [1 + i / 100 for i in range(1, 100)] + [1 + 1e-9, 2 - 1e-9]:
        assert _zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-15, abs=0), s


def test_airy_zeros():
    zeros = airy_zeros(3)
    assert zeros[0] == pytest.approx(-2.3381, abs=5e-5)
    assert zeros[1] == pytest.approx(-4.0879, abs=5e-5)
    assert zeros[2] == pytest.approx(-5.5206, abs=5e-5)
    # all 50 stored zeros against mpmath's root finder at 30 digits
    with mpmath.workdps(30):
        for k, got in enumerate(airy_zeros(50), start=1):
            assert got == pytest.approx(float(mpmath.airyaizero(k)), abs=1e-15), k
    for count in (0, 51):
        with pytest.raises(ValueError):
            airy_zeros(count)


def test_hyperu_matches_mpmath():
    # U(-5/6, 4/3, z) by quadrature over the z the Airy body reaches,
    # [0.32, 745.2], against mpmath at 40 digits on a geometric grid
    zs = np.geomspace(0.3, 745, 100)
    with mpmath.workdps(40):
        want = [mpmath.hyperu(mpmath.mpf(-5) / 6, mpmath.mpf(4) / 3, mpmath.mpf(z))
                for z in zs.tolist()]
    for z, got, w in zip(zs.tolist(), _hyperu(zs).tolist(), want):
        assert got == pytest.approx(float(w), rel=1e-15, abs=0), z


def test_airy_density_normalization_and_mean():
    mass, _ = integrate.quad(airy_area_density, 1e-6, 6.0, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)
    mean, _ = integrate.quad(lambda x: x * airy_area_density(x), 1e-6, 6.0, limit=200)
    assert mean == pytest.approx(math.sqrt(math.pi / 8), abs=1e-8)
    with pytest.raises(ValueError):
        airy_area_density(0.0)


# The density in its tail, summed at 100 digits beyond the cancellation with
# the series of `oracles.airy_area_density_mp`: each value is good to over 40
# digits.
AIRY_TAIL = {
    1.8: 1.1229637905615349407e-06,
    2.0: 1.4604258102041403699e-08,
    2.5: 3.1610780119984715934e-14,
    2.9: 1.0053775086004788041e-19,
    3.2: 2.0908633320938569607e-24,
    4.0: 3.2110702126908859633e-39,
    6.0: 5.5613958080923600507e-91,
    8.0: 1.0818749347140951335e-163,
    10.0: 2.6342746805194721276e-257,
}
# The density below the tail switch: Takacs's series summed at 60 digits
# with mpmath's zeros and U, to 40 digits.  Each is paired with the relative
# error the double sum must meet: at 1.5 its terms cancel 3650-fold.
AIRY_BODY = {
    0.2: (7.101284392240579432527879711424874944619e-07, 1e-14),
    0.5: (2.429547873096364750980544169528606561279, 1e-14),
    1.0: (0.2181190840957169423097500673099270712096, 1e-14),
    1.5: (2.915238278044315793146209850038430504969e-04, 1e-12),
}


def test_airy_density_tail_is_not_roundoff():
    for x, want in AIRY_TAIL.items():
        assert airy_area_density(x) == pytest.approx(want, rel=1e-13, abs=0), x
    for x, (want, rel) in AIRY_BODY.items():
        assert airy_area_density(x) == pytest.approx(want, rel=rel, abs=0), x
    grid = [airy_area_density(i / 10) for i in range(1, 41)]
    assert all(v > 0 for v in grid)
    # past the mode the density falls
    assert all(a > b for a, b in zip(grid[9:], grid[10:]))
    assert airy_area_density(12.0) == 0.0  # below the least double
    for x in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            airy_area_density(x)


def test_airy_density_meets_the_mpmath_series_at_the_tail_switch():
    # the double sum has lost digits to cancellation just below the switch;
    # from it on, the tail expansion is within its truncation error
    for x in (1.65, 1.69, 1.7, 1.85, 2.03, 2.1):
        rel = 1e-11 if x < _AIRY_TAIL_X else 5e-13
        want = oracles.airy_area_density_mp(x)
        assert airy_area_density(x) == pytest.approx(want, rel=rel, abs=0), x


def test_descent_sum_moments_match_exhaustive():
    for n in range(2, 6):
        total = (n + 1) ** n
        census = Counter(descents(f) for f in oracles.all_functions(n, n + 1))
        mean = Fraction(sum(d * c for d, c in census.items()), total)
        second = Fraction(sum(d * d * c for d, c in census.items()), total)
        var = second - mean * mean
        got_mean, got_var = descent_sum_moments(n)
        assert got_mean == pytest.approx(float(mean), abs=1e-12)
        assert got_var == pytest.approx(float(var), abs=1e-12)
    with pytest.raises(ValueError):
        descent_sum_moments(1)


def test_elementary_laws():
    assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1))
    assert poisson_pmf(2.0, -1) == 0.0
    assert sum(poisson_pmf(1.0, j) for j in range(40)) == pytest.approx(1.0)
    assert gaussian_cdf(0.0) == pytest.approx(0.5)
    assert gaussian_cdf(1.96) == pytest.approx(0.975, abs=1e-3)
    with pytest.raises(ValueError):
        poisson_pmf(0.0, 1)
    # j is an integer, as in borel_pmf: 1.5 is not read as 1
    assert poisson_pmf(1.0, np.int64(2)) == poisson_pmf(1.0, 2)
    for pmf in (lambda j: poisson_pmf(1.0, j), borel_pmf):
        with pytest.raises(TypeError):
            pmf(1.5)


def test_distribution_handles():
    borel = distribution_handle("borel")
    assert borel.kind == "pmf"
    assert borel.evaluate(1) == pytest.approx(math.exp(-1))
    # the law's parameter is part of its name; the handle keeps the law's name
    maxwell = distribution_handle("maxwell@0.5")
    assert (maxwell.name, maxwell.parameters) == ("maxwell", (("x", 0.5),))
    assert maxwell.evaluate(10.0) == pytest.approx(1.0, abs=1e-8)
    assert distribution_handle("maxwell@.25").evaluate(1.0) == coordinate_count_cdf(0.25, 1.0)
    for name in ("maxwell", "maxwell@", "maxwell@0", "maxwell@1", "maxwell@1.5", "maxwell@-0.5",
                 "maxwell@nan", "maxwell@x", "maxwell@0.5@0.5"):
        with pytest.raises(ValueError, match="maxwell@0.5"):
            distribution_handle(name)
    # no keyword is taken: poisson is the lam = 1 law
    with pytest.raises(TypeError):
        distribution_handle("poisson", lam=3)
    for name in ("borel@2", "poisson@3", "gaussian@1"):
        with pytest.raises(ValueError, match="unknown distribution"):
            distribution_handle(name)
    for name in ("excursion-max", "bridge-max", "airy-area", "poisson", "gaussian"):
        handle = distribution_handle(name)
        assert handle.name == name
    with pytest.raises(ValueError):
        distribution_handle("cauchy")
