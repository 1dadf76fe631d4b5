"""Exact distribution of the t-core size of a uniform random partition and
its comparison with the limiting gamma law.

Every probability mass is an exact rational: an integer weight from the
counting tables over the common denominator p(n).  Floating point enters
only at the comparison boundary (gamma CDF, scaled moments, sup distances).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .counting import (
    core_count_table,
    divisible_count_table,
    partition_count_table,
    sigma_sum_table,
)
from .partitions import _require_int, _require_t

_MAX_ITER = 500


@dataclass(frozen=True)
class GammaParams:
    alpha: float  # shape
    beta: float   # rate

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"shape and rate must be positive and finite, got {self}")


def gamma_params(t: int) -> GammaParams:
    """Limit law of (core size)/sqrt(n): shape (t-1)/2, rate pi/sqrt(6)."""
    t = _require_t(t)
    return GammaParams((t - 1) / 2.0, math.pi / math.sqrt(6.0))


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a, x) by the ascending series; converges fast for x < a + 1
    term = 1.0 / a
    total = term
    k = a
    for _ in range(_MAX_ITER):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _upper_gamma_cont_frac(a: float, x: float) -> float:
    # Q(a, x) by the Lentz continued fraction; preferred for x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_cdf(params: GammaParams, x: float) -> float:
    """CDF of the gamma law: P(alpha, y) at y = beta * x, where P(a, y) is
    the lower incomplete gamma function over Gamma(a), to 1e-10 absolute.
    Returns 0 when y <= 0, which covers x <= 0 and a product that underflows,
    and 1 when y is infinite, which covers x = inf and a product that
    overflows; x = nan is refused."""
    if math.isnan(x):
        raise ValueError(f"x must be a number, got {x!r}")
    a, y = params.alpha, params.beta * x
    if y <= 0:
        return 0.0
    if y == math.inf:
        return 1.0
    if y < a + 1.0:
        return _lower_gamma_series(a, y)
    return 1.0 - _upper_gamma_cont_frac(a, y)


def gamma_moment(params: GammaParams, k: int) -> float:
    """k-th moment Gamma(k + alpha) / (beta^k * Gamma(alpha))."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return math.exp(
        math.lgamma(k + params.alpha) - math.lgamma(params.alpha)
    ) / params.beta**k


@dataclass(frozen=True)
class CoreSizePMF:
    """Exact law of the t-core size over uniform partitions of n.

    weights maps each achievable core size k to c_t(k) * d_t(n-k), and every
    mass is weight / denominator with denominator = p(n); the support lies in
    {k <= n : k = n mod t} and the weights sum to exactly p(n).
    """

    t: int
    n: int
    weights: dict[int, int]
    denominator: int

    @cached_property
    def masses(self) -> dict[int, Fraction]:
        """k -> c_t(k) * d_t(n-k) / p(n) as reduced fractions."""
        return {k: Fraction(w, self.denominator) for k, w in self.weights.items()}

    def total(self) -> Fraction:
        return Fraction(sum(self.weights.values()), self.denominator)


def core_size_pmf(t: int, n: int) -> CoreSizePMF:
    t = _require_t(t)
    n = _require_int(n, "n", 0)
    cores = core_count_table(t, n)
    divis = divisible_count_table(t, n)
    weights: dict[int, int] = {}
    for k in range(n % t, n + 1, t):
        weight = cores[k] * divis[n - k]
        if weight:
            weights[k] = weight
    return CoreSizePMF(t, n, weights, partition_count_table(n)[n])


def scaled_moment(pmf: CoreSizePMF, k: int) -> float:
    """E[(Y/sqrt(n))^k]: the sum over the support is exact, then one real
    division by n^(k/2)."""
    k = _require_int(k, "k", 0)
    if k == 0:
        return 1.0
    raw = sum(j**k * w for j, w in pmf.weights.items())
    if raw == 0:
        return 0.0
    return float(Fraction(raw, pmf.denominator)) / pmf.n ** (k / 2.0)


def cdf_sup_distance(pmf: CoreSizePMF, params: GammaParams) -> float:
    """Sup over the jump points of the scaled CDF against the gamma CDF.

    The scaled CDF is a step function with jumps at k/sqrt(n).  This
    compares the left limit at every jump, i.e. sup |P(Y/sqrt(n) < x) - G(x)|
    over the jump points.  The right-continuous value (the full Kolmogorov
    distance) is left out: it is dominated by the largest single atom and is
    not monotone in n along arbitrary residue classes.  n = 0 is degenerate
    (unit mass at 0 against a continuous law) and returns 1 by convention.
    """
    if pmf.n == 0:
        return 1.0
    scale = math.sqrt(pmf.n)
    best = 0.0
    cumulative = 0
    # int / int rounds correctly, so each value equals float() of the
    # exact cumulative mass
    for j in sorted(pmf.weights):
        g = gamma_cdf(params, j / scale)
        best = max(best, abs(cumulative / pmf.denominator - g))
        cumulative += pmf.weights[j]
    return best


def _expected(t: int, n: int, p_n: int, s_n: int) -> tuple[Fraction, float]:
    # n = |core| + t * w, and the mean quotient size w is t * S_t(n) / p(n)
    exact = Fraction(n * p_n - t * t * s_n, p_n)
    return exact, (t - 1) * math.sqrt(6.0 * n) / (2.0 * math.pi)


def expected_core_size(t: int, n: int) -> tuple[Fraction, float]:
    """Exact E[core size] and its large-n asymptote (t-1) sqrt(6n) / (2 pi).

    The exact mean is n - t^2 S_t(n) / p(n), read off the grown p and S_t
    series; no core-size law is built.
    """
    n = _require_int(n, "n", 1)
    t = _require_t(t)
    return _expected(t, n, partition_count_table(n)[n], sigma_sum_table(t, n)[n])


def expected_core_sizes(t: int, max_n: int) -> list[tuple[Fraction, float]]:
    """expected_core_size(t, n) for n = 1..max_n, reading each series once."""
    max_n = _require_int(max_n, "max_n", 1)
    t = _require_t(t)
    p = partition_count_table(max_n).values
    s = sigma_sum_table(t, max_n).values
    return [_expected(t, n, p[n], s[n]) for n in range(1, max_n + 1)]


def scaled_pmf_points(pmf: CoreSizePMF) -> list[tuple[int, float, Fraction, float]]:
    """Density bar data for the scaled variable: (k, k/sqrt(n), mass,
    mass * sqrt(n)); bars have width 1/sqrt(n)."""
    scale = math.sqrt(pmf.n) if pmf.n else 1.0
    return [
        (k, k / scale, mass, float(mass) * scale)
        for k, mass in sorted(pmf.masses.items())
    ]
