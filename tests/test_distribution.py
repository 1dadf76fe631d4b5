import math
from fractions import Fraction

import pytest

from tcores import counting, distribution as dist, verify
from tcores.hookstats import exact_residue_distribution

SQRT6_OVER_PI = math.sqrt(6.0) / math.pi


def test_gamma_params():
    params = dist.gamma_params(5)
    assert params.alpha == 2.0
    assert abs(params.beta - math.pi / math.sqrt(6)) < 1e-15
    with pytest.raises(ValueError):
        dist.gamma_params(1)
    for alpha, beta in [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
                        (math.inf, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError, match=r"^shape and rate must be positive and finite"):
            dist.GammaParams(alpha, beta)


def test_pmf_example_t3_n4():
    pmf = dist.core_size_pmf(3, 4)
    assert pmf.weights == {1: 3, 4: 2} and pmf.denominator == 5
    assert pmf.masses == {1: Fraction(3, 5), 4: Fraction(2, 5)}
    assert pmf.total() == 1


def test_pmf_point_mass_at_zero():
    pmf = dist.core_size_pmf(4, 0)
    assert pmf.masses == {0: Fraction(1)}


def test_pmf_figure_parameters():
    pmf = dist.core_size_pmf(5, 103)
    assert pmf.total() == 1
    assert all(k % 5 == 3 for k in pmf.masses)
    assert all(0 <= k <= 103 for k in pmf.masses)


@pytest.mark.parametrize("n", range(15))
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_pmf_matches_enumeration(n, t):
    assert verify.point("pmf_exhaustive", n, t) is None


def test_scaled_moment_constant():
    pmf = dist.core_size_pmf(3, 50)
    assert dist.scaled_moment(pmf, 0) == 1.0


def test_scaled_moment_against_limit():
    value = dist.scaled_moment(dist.core_size_pmf(3, 100), 1)
    assert abs(value - SQRT6_OVER_PI) / SQRT6_OVER_PI < 0.15


def test_scaled_moment_trend_t5():
    params = dist.gamma_params(5)
    limit = dist.gamma_moment(params, 2)  # (6/pi^2) * 2 * 3
    assert abs(limit - (6.0 / math.pi**2) * 6.0) < 1e-12
    values = [
        dist.scaled_moment(dist.core_size_pmf(5, n), 2) for n in (400, 1600, 6400)
    ]
    assert values[0] < values[1] < values[2] < limit


def test_gamma_cdf_limits():
    params = dist.gamma_params(4)
    assert dist.gamma_cdf(params, 0.0) == 0.0
    assert dist.gamma_cdf(params, -1.0) == 0.0
    # beta * x underflows to 0 although x > 0
    assert dist.gamma_cdf(dist.GammaParams(1.0, 1e-300), 1e-300) == 0.0
    assert abs(dist.gamma_cdf(params, 60.0) - 1.0) < 1e-12
    assert dist.gamma_cdf(params, math.inf) == 1.0
    assert dist.gamma_cdf(params, -math.inf) == 0.0
    # beta * x overflows to inf although x is finite
    assert dist.gamma_cdf(dist.GammaParams(1.0, 1e300), 1e300) == 1.0
    with pytest.raises(ValueError, match=r"^x must be a number, got nan$"):
        dist.gamma_cdf(params, math.nan)


def test_gamma_cdf_exponential_closed_form():
    params = dist.gamma_params(3)  # alpha = 1
    for x in (0.5, 1.0, 2.0):
        assert abs(
            dist.gamma_cdf(params, x) - (1.0 - math.exp(-params.beta * x))
        ) < 1e-10


def test_gamma_cdf_error_function_closed_form():
    params = dist.GammaParams(0.5, 1.0)  # the t=2 shape
    for x in (0.1, 0.7, 1.9, 6.0):
        assert abs(dist.gamma_cdf(params, x) - math.erf(math.sqrt(x))) < 1e-10


def test_gamma_cdf_memo_serves_the_cold_values_and_never_keeps_nan():
    params = dist.gamma_params(5)
    xs = [s * 0.05 for s in range(81)] + [-1.0, math.inf]
    dist.gamma_cdf.cache_clear()
    cold = [dist.gamma_cdf(params, x) for x in xs]
    assert cold == [dist.gamma_cdf.__wrapped__(params, x) for x in xs]
    assert [dist.gamma_cdf(params, x) for x in xs] == cold
    assert [dist.gamma_cdf(dist.gamma_params(5), x) for x in xs] == cold
    for _ in range(2):
        with pytest.raises(ValueError, match="must be a number"):
            dist.gamma_cdf(params, math.nan)
    info = dist.gamma_cdf.cache_info()
    assert (info.currsize, info.maxsize) == (len(xs), 1024)


def test_gamma_moment_values():
    for t in (2, 3, 4, 5):
        params = dist.gamma_params(t)
        expected = (t - 1) * math.sqrt(6.0) / (2.0 * math.pi)  # alpha / beta
        assert abs(dist.gamma_moment(params, 1) - expected) < 1e-12
        for k in range(6):
            lhs = dist.gamma_moment(params, k + 1)
            rhs = dist.gamma_moment(params, k) * (k + params.alpha) / params.beta
            assert abs(lhs - rhs) < 1e-12 * max(1.0, lhs)


def test_sup_distance_degenerate():
    assert dist.cdf_sup_distance(dist.core_size_pmf(7, 0), dist.gamma_params(7)) == 1.0


def test_sup_distance_figure_parameters():
    params = dist.gamma_params(5)
    d = [
        dist.cdf_sup_distance(dist.core_size_pmf(5, n), params)
        for n in (20, 62, 103)
    ]
    assert d[0] > d[1] > d[2]


def test_sup_distance_shrinks_t3():
    params = dist.gamma_params(3)
    d100 = dist.cdf_sup_distance(dist.core_size_pmf(3, 100), params)
    d1000 = dist.cdf_sup_distance(dist.core_size_pmf(3, 1000), params)
    assert d1000 < d100


def test_expected_core_size_trivial():
    exact, _ = dist.expected_core_size(2, 1)
    assert exact == 1


def test_expected_core_size_asymptote():
    exact, asym = dist.expected_core_size(3, 100)
    assert abs(asym - math.sqrt(600.0) / math.pi) < 1e-12
    assert abs(float(exact) - asym) / asym < 0.15
    ratios = [
        float(dist.expected_core_size(3, n)[0]) / dist.expected_core_size(3, n)[1]
        for n in (25, 50, 100)
    ]
    for earlier, later in zip(ratios, ratios[1:]):
        assert abs(later - 1.0) < abs(earlier - 1.0) + 0.02


@pytest.mark.parametrize("t", range(2, 10))
def test_expected_core_size_three_routes(t):
    # the sigma-series mean, the mean of the exact law, and n (1 - t pi_0(n))
    # with pi_0 the exact hook law's residue 0
    means = dist.expected_core_sizes(t, 1000)
    assert len(means) == 1000
    for n, (exact, asym) in enumerate(means, start=1):
        pmf = dist.core_size_pmf(t, n)
        assert exact == Fraction(sum(k * w for k, w in pmf.weights.items()), pmf.denominator)
        assert (exact, asym) == dist.expected_core_size(t, n)
        if n <= 400:
            assert exact == n * (1 - t * exact_residue_distribution(t, n)[0])


@pytest.mark.parametrize("sizes", [(10, 90, 400), (400, 90, 1), (150, 150, 150)])
def test_grown_means_equal_a_cold_build(sizes):
    # ascending, descending and repeated requests, for two t at once, each
    # equal to the means read entry by entry off the series tables
    cold = {t: [dist.expected_core_size(t, n) for n in range(1, 401)] for t in (3, 5)}
    counting.clear_tables()
    for max_n in sizes:
        for t in (3, 5):
            served = dist.expected_core_sizes(t, max_n)
            assert served == cold[t][:max_n]
            served.clear()                 # a served list is the caller's own
    assert len(counting._SERIES["mean", 3]) == max(sizes)
    counting.clear_tables()
    assert not counting._SERIES
    assert dist.expected_core_sizes(5, 400) == cold[5]


@pytest.mark.parametrize("t", [1, 0, -3, 100_001])
def test_expected_core_size_refuses_bad_t_before_any_table(monkeypatch, t):
    def fail(*args):
        raise AssertionError("a table was built before t was checked")

    monkeypatch.setattr(dist, "partition_count_table", fail)
    monkeypatch.setattr(dist, "sigma_sum_table", fail)
    with pytest.raises(ValueError, match="t must be"):
        dist.expected_core_sizes(t, 50000)
    with pytest.raises(ValueError, match="t must be"):
        dist.expected_core_size(t, 50000)


def test_scaled_pmf_points():
    pmf = dist.core_size_pmf(3, 9)
    points = dist.scaled_pmf_points(pmf)
    assert [k for k, *_ in points] == sorted(pmf.masses)
    for k, x, mass, density in points:
        assert abs(x - k / 3.0) < 1e-15
        assert abs(density - float(mass) * 3.0) < 1e-15


@pytest.mark.parametrize("t,n", [(2, 37), (3, 101), (5, 64)])
def test_pmf_support_and_normalization(t, n):
    pmf = dist.core_size_pmf(t, n)
    assert pmf.total() == 1
    assert all(k % t == n % t for k in pmf.masses)
