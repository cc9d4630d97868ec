"""Numerical evaluation of the limit laws and related special values.

Each law is evaluated with `math` and numpy alone:

- Borel: the pmf in log space with `math.lgamma`; the identity check sums
  100k terms and closes the tail by Euler-Maclaurin, whose integrals are
  incomplete gamma functions of half-integer order (`math.erfc` and a
  recurrence).
- Maxwell coordinate count: the chi-3 CDF in closed form, from `math.erf`.
- Excursion maximum: the theta series of Chung and Kennedy for t >= 1 and
  its Jacobi transform for t < 1; the mean E(M) by composite
  Gauss-Legendre quadrature (numpy nodes), the moments E(M^s) in closed form
  from `math.gamma` and zeta(s) by Euler-Maclaurin.
- Airy area: Takacs's series over the first 50 Airy zeros (stored as
  constants) with the confluent hypergeometric U(-5/6, 4/3, z) as one
  integral by composite Gauss-Legendre quadrature.  In the tail, where
  that sum cancels away its digits, the 14-term asymptotic expansion of
  Janson and Louchard.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


# --- Borel ----------------------------------------------------------------

def borel_pmf(j: int) -> float:
    """P(X = j) = e^{-j} j^{j-1} / j!, evaluated in log space.  Raises
    TypeError for a j that is not an integer."""
    j = operator.index(j)
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


_BOREL_TERMS = 100_000  # terms summed directly by borel_identity


def borel_identity(x: float) -> float:
    """sum_{j>=1} e^{-xj}(xj)^{j-1}/j! for 0 < x <= 1; equals 1 identically.

    Direct summation of the first J = 100k terms plus a tail correction: the
    terms behave like r^j/(x sqrt(2 pi) j^{3/2}) with r = x e^{1-x}, so the
    tail past J is r^{J+1} [Phi(r,3/2,J+1) - Phi(r,5/2,J+1)/12 + ...] up to
    O(J^{-7/2}) Stirling error, with Lerch transcendents Phi.
    """
    if not 0 < x <= 1:
        raise ValueError("x must be in (0, 1]")
    j = np.arange(1, _BOREL_TERMS + 1, dtype=float)
    log_factorials = np.fromiter(map(math.lgamma, j + 1), dtype=float, count=_BOREL_TERMS)
    logs = -x * j + (j - 1) * np.log(x * j) - log_factorials
    head = float(np.exp(logs).sum())
    tail = _borel_tail(x) / (x * math.sqrt(2 * math.pi))
    return head + tail


def _borel_tail(x: float) -> float:
    """sum_{j>=a} r^j (j^{-3/2} - j^{-5/2}/12 + j^{-7/2}/288) with r = x e^{1-x}
    and a = J + 1, past the J terms that borel_identity sums: that is
    r^a [Phi(r,3/2,a) - Phi(r,5/2,a)/12 + Phi(r,7/2,a)/288].

    With lam = -ln r, each sum of g(j) = e^{-lam j} j^{-s} is taken by
    Euler-Maclaurin: the integral I_s = int_a^inf g = lam^{s-1}
    Gamma(1-s, lam a), plus g(a)/2 - g'(a)/12; the next term is below 1e-16
    of the sum.  Integration by parts gives the recurrence
    I_s = (e^{-lam a} a^{1-s} - lam I_{s-1}) / (s-1) from
    lam I_{1/2} = sqrt(pi lam) erfc(sqrt(lam a)), finite at lam = 0 (x = 1).
    Each of its steps loses about log10(lam a) digits, so past lam a = 40 it
    is not run: there r^a < 5e-18 and the tail is below 1e-21.
    """
    a = _BOREL_TERMS + 1
    lam = x - 1 - math.log(x)
    y = lam * a
    if y > 40:
        return 0.0
    decay = math.exp(-y)  # r^a
    lam_integral = math.sqrt(math.pi * lam) * math.erfc(math.sqrt(y))  # lam I_{1/2}
    total = 0.0
    for s, c in ((1.5, 1.0), (2.5, -1 / 12), (3.5, 1 / 288)):
        integral = (decay * a ** (1 - s) - lam_integral) / (s - 1)
        lam_integral = lam * integral
        g = decay * a**-s
        total += c * (integral + g / 2 + g * (lam + s / a) / 12)
    return total


def first_coordinate_limit(n: int, j: int, side: str = "low") -> float:
    """Large-n coordinate asymptotics: P(pi_1 = j) ~ (1 + Q(j))/n at the low
    end, P(pi_1 = n - j) ~ (1 - Q(j + 2))/n at the high end.  Raises
    ValueError for n < 1, and for j < 1 on the low side or j < 0 on the
    high side."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if side == "low":
        if j < 1:
            raise ValueError("low side needs j >= 1")
        return (1.0 + borel_tail(j)) / n
    if side == "high":
        if j < 0:
            raise ValueError("high side needs j >= 0")
        return (1.0 - borel_tail(j + 2)) / n
    raise ValueError(f"unknown side {side!r}")


# --- Maxwell coordinate-count law ----------------------------------------

def coordinate_count_density(x: float, y: float) -> float:
    """Density of the limit of (#{i : pi_i < nx} - nx)/sqrt(n): a chi-3
    (Maxwell) law with scale sigma^2 = x(1-x).  Raises ValueError for nan."""
    if not 0 < x < 1:
        raise ValueError("x must be in (0, 1)")
    if math.isnan(y):
        raise ValueError("y must not be nan")
    if y < 0:
        return 0.0
    sigma2 = x * (1 - x)
    e = math.exp(-y * y / (2 * sigma2))
    # e is 0 past y ~ 39 sigma; from y ~ 1e154 on, y * y * e would be inf * 0
    return math.sqrt(2 / math.pi) * y * y * e / sigma2**1.5 if e else 0.0


def coordinate_count_cdf(x: float, t: float) -> float:
    """CDF of the Maxwell coordinate-count limit in closed form:
    erf(u/sqrt 2) - sqrt(2/pi) u e^{-u^2/2} with u = t/sigma.  Raises
    ValueError for nan."""
    if not 0 < x < 1:
        raise ValueError("x must be in (0, 1)")
    if math.isnan(t):
        raise ValueError("t must not be nan")
    if t <= 0:
        return 0.0
    u = t / math.sqrt(x * (1 - x))
    e = math.exp(-u * u / 2)
    # e is 0 past u ~ 39, where erf is 1; once u overflows, u * e would be inf * 0
    return math.erf(u / math.sqrt(2)) - math.sqrt(2 / math.pi) * u * e if e else 1.0


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


@lru_cache(maxsize=None)
def _mean_rule() -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the _MEAN_NODES-point Gauss-Legendre rule."""
    return np.polynomial.legendre.leggauss(_MEAN_NODES)


def excursion_max_mean() -> float:
    """E(M) = integral of the upper tail; equals sqrt(pi/2)."""
    nodes, weights = _mean_rule()
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
    return 2 ** (-s / 2) * s * (s - 1) * math.gamma(s / 2) * _zeta(s)


# B_{2k} / (2k)! for k = 1..8, the Euler-Maclaurin coefficients of _zeta.
_ZETA_COEFFICIENTS = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), start=1))
_ZETA_N = 10


def _zeta(s: float) -> float:
    """Riemann zeta for 1 < s < 2 by Euler-Maclaurin from N = 10:
    sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2
    + sum_k B_{2k}/(2k)! s(s+1)...(s+2k-2) N^{-s-2k+1}.
    The first omitted term is below 1e-17."""
    n = _ZETA_N
    terms = [k**-s for k in range(1, n)] + [n ** (1 - s) / (s - 1), n**-s / 2]
    rising = s  # s (s+1) ... (s+2k-2)
    for k, c in enumerate(_ZETA_COEFFICIENTS, start=1):
        terms.append(c * rising * n ** (1 - s - 2 * k))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return math.fsum(terms)


# --- Airy area law --------------------------------------------------------

# The first 50 zeros of Ai, correctly rounded from 30-digit values
# (mpmath.airyaizero).
_AIRY_ZEROS = (
    -2.338107410459767, -4.08794944413097, -5.520559828095551, -6.786708090071759,
    -7.944133587120853, -9.02265085334098, -10.040174341558085, -11.008524303733262,
    -11.936015563236262, -12.828776752865757, -13.691489035210719, -14.527829951775335,
    -15.340755135977997, -16.132685156945772, -16.90563399742994, -17.66130010569706,
    -18.401132599207116, -19.126380474246954, -19.8381298917215, -20.537332907677566,
    -21.224829943642096, -21.901367595585132, -22.567612917496504, -23.22416500112168,
    -23.871564455535918, -24.510301236589676, -25.140821166148964, -25.763531400982757,
    -26.37880505213723, -26.98698511160637, -27.588387809882445, -28.183305502632646,
    -28.772009165237435, -29.354750558766288, -29.931764119086555, -30.503268611418505,
    -31.069468585183756, -31.63055565801266, -32.186709652952054, -32.73809960900027,
    -33.2848846819014, -33.82721494950865, -34.36523213386366, -34.89907025034531,
    -35.42885619274789, -35.954710261898626, -36.476746644374806, -36.9950738469945,
    -37.509795092005014, -38.02100867725525,
)


def airy_zeros(count: int) -> tuple[float, ...]:
    """First `count` zeros of Ai(x) (negative reals, decreasing)."""
    if not 1 <= count <= 50:
        raise ValueError("count must be in [1, 50]")
    return _AIRY_ZEROS[:count]


# Takacs's b_k = -2 a_k^3 / 27 and b_k^{2/3}.  For x < _AIRY_TAIL_X every z =
# b_k / x^2 is above 0.32, and a term with z above 745.2 is 0.
_AIRY_B = np.array([-2 * a**3 / 27 for a in _AIRY_ZEROS])
_AIRY_B23 = np.array([b ** (2 / 3) for b in _AIRY_B.tolist()])


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
# in mpmath, the sum is off by 2.3e-12 at 1.6, 1.9e-11 at 1.7 and 9.1e-9 at
# 2.03, the expansion by 1.8e-12, 3.4e-13 and 4.6e-15 (relative errors).  On
# a 0.001 grid the expansion is the closer at every point from 1.659 to 2.03
# but 1.713 and 1.773.  From 1.66 on it is off by at most 6.5e-13 (at 1.66,
# 4.0e-13 at 1.69), where the sum is off by up to 1.9e-11 (at 1.689).  Below
# 1.66 the sum is off by at most 9.1e-12 (at 1.659); the expansion is closer
# at 26 of the 30 points from 1.63 but off by up to 1.1e-12 there.
_AIRY_TAIL_X = 1.66


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
    z = _AIRY_B / (x * x)
    weight = np.exp(-z)
    live = weight > 0  # past z ~ 745 a term underflows to 0
    terms = weight[live] * _AIRY_B23[live] * _hyperu(z[live])
    return 2 * math.sqrt(6) / x ** (10 / 3) * math.fsum(terms)

# Panels of the composite Gauss-Legendre rule of _hyperu, in u = (z t)^{1/6}.
_HYPERU_PANELS = (0.0, 0.6, 1.0, 1.4, 1.8, 2.3)
_HYPERU_NODES = 24


@lru_cache(maxsize=None)
def _hyperu_rule() -> tuple[np.ndarray, np.ndarray]:
    """The nodes u^6 and the weights times e^{-u^6} of the rule on
    _HYPERU_PANELS; past u = 2.3, e^{-u^6} < 1e-64."""
    nodes, weights = np.polynomial.legendre.leggauss(_HYPERU_NODES)
    lo = np.array(_HYPERU_PANELS[:-1])[:, None]
    half = np.diff(_HYPERU_PANELS)[:, None] / 2
    u = (lo + half * (1 + nodes)).ravel()
    return u**6, (half * weights).ravel() * np.exp(-(u**6))


def _hyperu(z: np.ndarray) -> np.ndarray:
    """U(-5/6, 4/3, z) for z in [0.3, 746], to about 5e-16 relative (7e-16
    absolute near its zero at z = 0.9833).

    The recurrence DLMF 13.3.7 gives U(-5/6) = (z-1) U(1/6) + U(7/6)/36 at
    b = 4/3, and for a > 0, DLMF 13.4.4 with t = u^6/z gives
    U(a, b, z) = 6 z^{-a}/Gamma(a) int_0^inf u^{6a-1} e^{-u^6}
    (1 + u^6/z)^{b-a-1} du, smooth in u.  With Gamma(7/6) = Gamma(1/6)/6
    the two make one integral:
    U(-5/6, 4/3, z) = 6 z^{-1/6}/Gamma(1/6) int_0^inf e^{-u^6}
    (1 + u^6/z)^{1/6} [z - 1 + u^6 / (6 (z + u^6))] du."""
    v, w = _hyperu_rule()
    z_col = z[:, None]
    integrand = (1 + v / z_col) ** (1 / 6) * (z_col - 1 + v / (6 * (z_col + v)))
    return 6 / math.gamma(1 / 6) * z ** (-1 / 6) * (integrand * w).sum(axis=1)


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
    """Poisson pmf in log space.  Raises TypeError for a j that is not an
    integer."""
    j = operator.index(j)
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    if j < 0:
        return 0.0
    return math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1))


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.  Raises
    ValueError for nan."""
    if math.isnan(x):
        raise ValueError("x must not be nan")
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


def distribution_handle(name: str) -> DistributionHandle:
    """Look up a distribution by name: borel, maxwell@x for x in (0, 1)
    (as in "maxwell@0.5"), excursion-max, bridge-max, airy-area, poisson
    (lam = 1), gaussian."""
    if name == "borel":
        return DistributionHandle(name, (), lambda j: borel_pmf(int(j)), "pmf", support_min=1)
    law, _, text = name.partition("@")
    if law == "maxwell":  # x in decimal digits, as in "maxwell@0.5"
        x = float(text) if text.replace(".", "", 1).isdecimal() else math.nan
        if not 0 < x < 1:
            raise ValueError(f"{name!r}: maxwell needs its x in (0, 1), as in 'maxwell@0.5'")
        return DistributionHandle(law, (("x", x),), lambda t: coordinate_count_cdf(x, t), "cdf")
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
