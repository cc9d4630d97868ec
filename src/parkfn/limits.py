"""Numerical evaluation of the limit laws and related special values.

Each law is evaluated with `math`, numpy and mpmath alone:

- Borel: the pmf in log space with `math.lgamma`; the identity check sums
  100k terms and closes the tail with Lerch transcendents (mpmath).
- Maxwell coordinate count: the chi-3 CDF in closed form, from `math.erf`.
- Excursion maximum: the theta series of Chung and Kennedy for t >= 1 and
  its Jacobi transform for t < 1; the mean E(M) by composite
  Gauss-Legendre quadrature (numpy nodes), the moments E(M^s) in closed form
  from `math.gamma` and `mpmath.zeta`.
- Airy area: Takacs's series over the Airy zeros (mpmath's root finder,
  refined by one Newton step) with the confluent
  hypergeometric U from mpmath's double-precision `fp` context.  In the
  tail, where that sum cancels away its digits, the 14-term asymptotic
  expansion of Janson and Louchard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import mpmath
import numpy as np


# --- Borel ----------------------------------------------------------------

def borel_pmf(j: int) -> float:
    """P(X = j) = e^{-j} j^{j-1} / j!, evaluated in log space."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return math.exp(-j + (j - 1) * math.log(j) - math.lgamma(j + 1))


def borel_tail(j: int) -> float:
    """Q(j) = P(X >= j).  Computed as 1 minus the head sum: the raw tail
    decays like j^{-1/2}, far too slowly to truncate, but the total mass is
    exactly 1."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return 1.0 - sum(borel_pmf(i) for i in range(1, j))


def borel_identity(x: float, terms: int = 100_000) -> float:
    """sum_{j>=1} e^{-xj}(xj)^{j-1}/j! for 0 < x <= 1; equals 1 identically.

    Direct summation plus a Lerch-transcendent tail correction: the terms
    behave like r^j/(x sqrt(2 pi) j^{3/2}) with r = x e^{1-x}, so the tail
    past J is r^{J+1} [Phi(r,3/2,J+1) - Phi(r,5/2,J+1)/12 + ...] up to
    O(J^{-7/2}) Stirling error.
    """
    if not 0 < x <= 1:
        raise ValueError("x must be in (0, 1]")
    j = np.arange(1, terms + 1, dtype=float)
    log_factorials = np.fromiter(map(math.lgamma, j + 1), dtype=float, count=terms)
    logs = -x * j + (j - 1) * np.log(x * j) - log_factorials
    head = float(np.exp(logs).sum())
    r = x * math.exp(1 - x)
    J = terms
    tail = float(
        r ** (J + 1)
        / (x * math.sqrt(2 * math.pi))
        * (
            mpmath.lerchphi(r, 1.5, J + 1)
            - mpmath.lerchphi(r, 2.5, J + 1) / 12
            + mpmath.lerchphi(r, 3.5, J + 1) / 288
        )
    )
    return head + tail


def first_coordinate_limit(n: int, j: int, side: str = "low") -> float:
    """Large-n coordinate asymptotics: P(pi_1 = j) ~ (1 + Q(j))/n at the low
    end, P(pi_1 = n - j) ~ (1 - Q(j + 2))/n at the high end."""
    if side == "low":
        if j < 1:
            raise ValueError("low side needs j >= 1")
        return (1.0 + borel_tail(j)) / n
    if side == "high":
        return (1.0 - borel_tail(j + 2)) / n
    raise ValueError(f"unknown side {side!r}")


# --- Maxwell coordinate-count law ----------------------------------------

def coordinate_count_density(x: float, y: float) -> float:
    """Density of the limit of (#{i : pi_i < nx} - nx)/sqrt(n): a chi-3
    (Maxwell) law with scale sigma^2 = x(1-x)."""
    if not 0 < x < 1:
        raise ValueError("x must be in (0, 1)")
    if y < 0:
        return 0.0
    sigma2 = x * (1 - x)
    return math.sqrt(2 / math.pi) * y * y * math.exp(-y * y / (2 * sigma2)) / sigma2**1.5


def coordinate_count_cdf(x: float, t: float) -> float:
    """CDF of the Maxwell coordinate-count limit in closed form:
    erf(u/sqrt 2) - sqrt(2/pi) u e^{-u^2/2} with u = t/sigma."""
    if not 0 < x < 1:
        raise ValueError("x must be in (0, 1)")
    if t <= 0:
        return 0.0
    u = t / math.sqrt(x * (1 - x))
    return math.erf(u / math.sqrt(2)) - math.sqrt(2 / math.pi) * u * math.exp(-u * u / 2)


# --- excursion / bridge maximum ------------------------------------------

def max_discrepancy_cdf(t: float) -> float:
    """P(M <= t) = sum_k (1 - 4 k^2 t^2) e^{-2 k^2 t^2} over all integers k.

    That series needs about 4/t terms and cancels to roundoff below t ~ 0.4,
    so for t < 1 its Jacobi theta transform is summed instead:
    P(M <= t) = sqrt(2) pi^{5/2} t^{-3} sum_{k>=1} k^2 e^{-pi^2 k^2/(2 t^2)},
    whose terms are all positive.  Raises ValueError for nan.
    """
    if math.isnan(t):  # no series stops at nan, nor at inf (0 * inf is nan)
        raise ValueError("t must not be nan")
    if t <= 0:
        return 0.0
    if t == math.inf:
        return 1.0
    if t < 1:
        return _max_cdf_small_t(t)
    return _max_cdf_large_t(t)


def _max_cdf_large_t(t: float) -> float:
    total = 1.0  # k = 0 term
    k = 1
    while True:
        e = math.exp(-2 * k * k * t * t)
        if not e:  # past t ~ 1e154 the stop test below would read 0 * inf
            break
        term = (1 - 4 * k * k * t * t) * e
        total += 2 * term
        if e * (1 + 4 * k * k * t * t) < 1e-14:
            break
        k += 1
    return total


def _max_cdf_small_t(t: float) -> float:
    log_scale = 0.5 * math.log(2) + 2.5 * math.log(math.pi) - 3 * math.log(t)
    a = (math.pi / t) * (math.pi / t) / 2  # inf, not an error, for tiny t
    total = 0.0
    k = 1
    while True:
        term = math.exp(log_scale + 2 * math.log(k) - a * k * k)
        total += term
        if term <= 1e-17 * total:  # also stops when the first term underflows
            break
        k += 1
    return total


def bridge_max_cdf(t: float) -> float:
    """P(M_1 <= t) = 1 - e^{-2 t^2}: the all-functions (bridge) analog.
    Raises ValueError for nan."""
    if math.isnan(t):
        raise ValueError("t must not be nan")
    if t <= 0:
        return 0.0
    return 1.0 - math.exp(-2 * t * t)


# Panels of the composite Gauss-Legendre rule for E(M) = int_0^10 P(M > t) dt;
# P(M > 10) ~ 800 e^{-200}, and the panels narrow where the tail bends.
_MEAN_PANELS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0)
_MEAN_NODES = 12


def excursion_max_mean() -> float:
    """E(M) = integral of the upper tail; equals sqrt(pi/2)."""
    nodes, weights = np.polynomial.legendre.leggauss(_MEAN_NODES)
    total = 0.0
    for lo, hi in zip(_MEAN_PANELS, _MEAN_PANELS[1:]):
        half = (hi - lo) / 2
        tail = [1.0 - max_discrepancy_cdf(lo + half * (1 + u)) for u in nodes]
        total += half * float(np.dot(weights, tail))
    return total


def xi_moment(s: float) -> float:
    """E(M^s) = 2^{-s/2} s(s-1) Gamma(s/2) zeta(s) for 1 < s < 2."""
    if not 1 < s < 2:
        raise ValueError("s must be in (1, 2)")
    return 2 ** (-s / 2) * s * (s - 1) * math.gamma(s / 2) * float(mpmath.zeta(s))


# --- Airy area law --------------------------------------------------------

def airy_zeros(count: int) -> tuple[float, ...]:
    """First `count` zeros of Ai(x) (negative reals, decreasing)."""
    if not 1 <= count <= 50:
        raise ValueError("count must be in [1, 50]")
    return tuple(_airy_zero(k) for k in range(1, count + 1))


@lru_cache(maxsize=None)
def _airy_zero(k: int) -> float:
    """The k-th zero of Ai.  mpmath's double-precision root is off by up to
    1e-9 for k in 4..7, where fp.airyai cancels; one Newton step with Ai
    evaluated in the mp context brings it to a few ulps."""
    a = mpmath.fp.airyaizero(k)
    return float(a - mpmath.airyai(a) / mpmath.airyai(a, derivative=1))


# Relative size of the term at which the Airy area series stops.
_AIRY_REL_TOL = 1e-14
# The Airy area tail, f(x) ~ C x^2 e^{-6x^2} sum_j c_j x^{-2j} with
# C = 72 sqrt(6/pi) and c_j = N_j / 36^j (Janson and Louchard, EJP 12, 2007).
# The N_j come from the moments E A^k = 4 sqrt(pi) 2^{-k/2} k! K_k /
# Gamma((3k-1)/2), with K_0 = -1/2 and
# K_k = (3k-4)/4 K_{k-1} + sum_{j=1}^{k-1} K_j K_{k-j} (Janson, Probab.
# Surveys 4, 2007): E A^k over the k-th moment of the leading term is
# sum_j c_j 6^j / (s (s-1) ... (s-j+1)) with s = (k+1)/2.  A least-squares fit
# of that sum at 300 digits over k = 200..1200, with 42 or with 48 unknowns,
# gives these 14 N_j as integers to all shown digits.  The series is
# asymptotic: at x = 2.03 further terms do not bring its error below 2e-15.
_AIRY_TAIL = tuple(c / 36**j for j, c in enumerate((
    1, -4, -5, -25, -170, -1540, -15365, -217225, -2319425, -67923025, 58081825,
    -62400574675, 2098761847000, -160564449981250)))
_AIRY_TAIL_SCALE = 72 * math.sqrt(6 / math.pi)
# The double sum keeps about 16 - log10(sum |term| / |sum|) digits, and the
# expansion's truncation error shrinks as x grows.  Against the series summed
# in mpmath, the sum is off by 1.2e-12 at 1.6, 2.1e-11 at 1.7 and 8.3e-9 at
# 2.03, the expansion by 1.8e-12, 3.4e-13 and 4.6e-15.  From 1.7 to 2.03 the
# expansion is the closer at every point of a 0.001 grid; at 1.69 the sum
# still is (4.7e-14 against 4.0e-13), so it is kept below 1.7.
_AIRY_TAIL_X = 1.7


def airy_area_density(x: float) -> float:
    """Density of the Airy area law: for x below _AIRY_TAIL_X, Takacs's series
    f(x) = (2 sqrt(6)/x^{10/3}) sum_k e^{-b_k/x^2} b_k^{2/3} U(-5/6, 4/3, b_k/x^2)
    with b_k = -2 a_k^3 / 27 over Airy zeros a_k; above it, the tail
    expansion, which underflows to 0 past x ~ 11.5."""
    if not 0 < x < math.inf:
        raise ValueError("x must be > 0 and finite")
    if x >= _AIRY_TAIL_X:
        u = 1 / (x * x)
        poly = 0.0
        for c in reversed(_AIRY_TAIL):
            poly = poly * u + c
        # x * x last: past x ~ 1e154 it overflows, and the factor before is 0
        return _AIRY_TAIL_SCALE * poly * math.exp(-6 * x * x) * x * x
    total = 0.0
    for k in range(1, 51):
        b_k = -2 * _airy_zero(k) ** 3 / 27
        z = b_k / (x * x)
        weight = math.exp(-z)
        if weight == 0.0:  # z grows with k, so every later term is 0 too
            break
        term = weight * b_k ** (2 / 3) * mpmath.fp.hyperu(-5 / 6, 4 / 3, z)
        total += term
        if k >= 3 and abs(term) < _AIRY_REL_TOL * abs(total):
            break
    return 2 * math.sqrt(6) / x ** (10 / 3) * total


# --- descent-sum CLT normalization ----------------------------------------

def descent_sum_moments(n: int) -> tuple[float, float]:
    """Mean and variance of the total descent count S_{n-1}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    mean = (n - 1) * (0.5 - 1 / (2 * (n + 1)))
    variance = (n + 1) / 12 * (1 - 1 / (n + 1) ** 2)
    return mean, variance


# --- elementary reference laws -------------------------------------------

def poisson_pmf(lam: float, j: int) -> float:
    """Poisson pmf in log space."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    if j < 0:
        return 0.0
    return math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1))


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2))


# --- tabulation handles ---------------------------------------------------

@dataclass(frozen=True)
class DistributionHandle:
    """A named 1-argument evaluator for the CLI `dist` subcommand."""

    name: str
    parameters: tuple[tuple[str, float], ...]
    evaluate: Callable[[float], float]
    kind: str  # "pmf" or "cdf" or "pdf"
    support_min: int = 0  # smallest argument of a pmf's support


def distribution_handle(name: str, **params: float) -> DistributionHandle:
    """Look up a distribution by name: borel, maxwell(x), excursion-max,
    bridge-max, airy-area, poisson (lam = 1), gaussian."""
    if name == "borel":
        return DistributionHandle(name, (), lambda j: borel_pmf(int(j)), "pmf", support_min=1)
    if name == "maxwell":
        if "x" not in params:
            raise ValueError("maxwell needs the parameter x in (0, 1)")
        x = params["x"]
        return DistributionHandle(
            name, (("x", x),), lambda t, _x=x: coordinate_count_cdf(_x, t), "cdf"
        )
    if name == "excursion-max":
        return DistributionHandle(name, (), max_discrepancy_cdf, "cdf")
    if name == "bridge-max":
        return DistributionHandle(name, (), bridge_max_cdf, "cdf")
    if name == "airy-area":  # 0 for x <= 0: the density's limit as x -> 0+
        return DistributionHandle(name, (), lambda x: airy_area_density(x) if x > 0 else 0.0, "pdf")
    if name == "poisson":  # lam = 1: the limit law of the repeats count
        return DistributionHandle(name, (("lam", 1.0),), lambda j: poisson_pmf(1.0, int(j)), "pmf")
    if name == "gaussian":
        return DistributionHandle(name, (), gaussian_cdf, "cdf")
    raise ValueError(f"unknown distribution {name!r}")
