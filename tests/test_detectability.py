import math

import pytest

from chainscan import (
    decision_thresholds,
    min_detectable_mean_log_length,
    min_detectable_mean_power_law,
    min_detectable_mean_sqrt_length,
    normal_cdf,
    normal_quantile,
    null_conditional_mean,
)

X_STAR = 1.2816
RATE_10 = 0.2691  # frozen reference run rate for m=10, C=1, p=0.1


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_ninetieth_percentile(self):
        assert 0.89995 <= normal_cdf(1.2816) <= 0.90005

    def test_symmetry_identity(self):
        for k in range(1, 81):
            x = 0.1 * k
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-14

    def test_known_values(self):
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
        assert normal_cdf(-8.0) == pytest.approx(6.220960574271786e-16, rel=1e-9)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_ninetieth(self):
        assert normal_quantile(0.9) == pytest.approx(1.28155, abs=1e-4)

    def test_inverse_identity(self):
        qs = [1e-6, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6]
        for q in qs:
            assert normal_cdf(normal_quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_round_trip_on_x(self):
        # |x| <= 5: beyond that the tail mass is too small for float64 q to
        # carry 1e-10 of x-resolution (representation, not algorithm)
        for k in range(-50, 51):
            x = 0.1 * k
            assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-10)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestNullConditionalMean:
    def test_at_zero(self):
        # phi(0) / (1/2)
        assert null_conditional_mean(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-15)

    def test_default_threshold(self):
        assert null_conditional_mean(X_STAR) == pytest.approx(1.7550, abs=1e-4)

    def test_mills_ratio_bounds(self):
        # x < phi(x)/(1 - Phi(x)) < x + 1/x for x > 0, increasing in x
        xs = [0.5, 1.0, X_STAR, 2.0, 4.0, 8.0, 20.0]
        values = [null_conditional_mean(x) for x in xs]
        for x, lam in zip(xs, values):
            assert x < lam < x + 1.0 / x
        assert values == sorted(values)

    def test_empty_tail_rejected(self):
        with pytest.raises(ValueError):
            null_conditional_mean(40.0)


class TestPowerLawMean:
    def test_linear_law_anchor(self):
        mu = min_detectable_mean_power_law(200, 10, 1, RATE_10, 1.0, 0.1,
                                           eps=1e-4, x_star=X_STAR)
        assert mu == pytest.approx(1.2216, abs=1e-3)

    def test_full_fraction_column_constant(self):
        # zeta = 1 collapses the exponent to 1/(1+eps): the same mean at every n
        vals = [
            min_detectable_mean_power_law(n, 10, 1, RATE_10, 1.0, 1.0,
                                          eps=1e-4, x_star=X_STAR)
            for n in (200, 10**3, 10**6)
        ]
        for v in vals:
            assert v == pytest.approx(0.6661, abs=1e-3)

    def test_sqrt_law_anchor(self):
        mu = min_detectable_mean_power_law(10**6, 10, 1, RATE_10, 0.5, 1.0,
                                           eps=1e-4, x_star=X_STAR)
        assert mu == pytest.approx(1.3287, abs=1e-3)

    def test_monotone_trends(self):
        args = dict(eps=1e-4, x_star=X_STAR)
        ns = (200, 500, 2000, 10**4, 10**6)
        mus = [min_detectable_mean_power_law(n, 10, 1, RATE_10, 1.0, 0.1, **args)
               for n in ns]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        zetas = (0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0)
        mus = [min_detectable_mean_power_law(1000, 10, 1, RATE_10, 1.0, z, **args)
               for z in zetas]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        alphas = (0.25, 0.5, 0.75, 1.0)
        mus = [min_detectable_mean_power_law(1000, 10, 1, RATE_10, a, 0.5, **args)
               for a in alphas]
        assert all(a > b for a, b in zip(mus, mus[1:]))

    def test_required_probability_reached_exactly(self):
        # the returned mean makes the node exceedance probability hit its target
        n, alpha, zeta, eps = 5000, 1.0, 0.25, 1e-4
        mu = min_detectable_mean_power_law(n, 10, 1, RATE_10, alpha, zeta,
                                           eps=eps, x_star=X_STAR)
        t = RATE_10 ** (alpha * math.log(zeta * n) / ((1 + eps) * math.log(n)))
        p1 = 1.0 - normal_cdf(X_STAR - mu)
        assert p1 == pytest.approx(t, abs=1e-6)

    def test_degenerate_requirement(self):
        with pytest.raises(ValueError, match="degenerate"):
            min_detectable_mean_power_law(100, 10, 1, RATE_10, 1.0, 0.005,
                                          eps=1e-4, x_star=X_STAR)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="need eps > 0 and finite"):
            min_detectable_mean_power_law(200, 10, 1, RATE_10, 1.0, 0.1, eps=eps,
                                          x_star=X_STAR)

    @pytest.mark.parametrize("m, C, message", [(0, 1, "need m >= 1, got 0"),
                                               (-3, 1, "need m >= 1, got -3"),
                                               (10, 0, "need C >= 1, got 0")])
    def test_geometry_checked_with_a_given_rate(self, m, C, message):
        # the rate is given, so nothing else would check the geometry it claims
        with pytest.raises(ValueError, match=message):
            min_detectable_mean_power_law(200, m, C, RATE_10, 1.0, 0.1, x_star=X_STAR)


class TestLogLengthMean:
    def test_anchors(self):
        assert min_detectable_mean_log_length(10**3, 10, 1.0, x_star=X_STAR) == pytest.approx(
            1.83, abs=0.02
        )
        assert min_detectable_mean_log_length(10**8, 10, 100.0, x_star=X_STAR) == pytest.approx(
            1.61, abs=0.02
        )

    def test_monotone_trends(self):
        ns = (10**3, 10**4, 10**5, 10**6, 10**7, 10**8)
        for n in ns:
            assert min_detectable_mean_log_length(n, 10, 10.0, x_star=X_STAR) < \
                min_detectable_mean_log_length(n, 10, 1.0, x_star=X_STAR)
        mus = [min_detectable_mean_log_length(n, 10, 2.0, x_star=X_STAR) for n in ns]
        assert all(a < b for a, b in zip(mus, mus[1:]))

    def test_defining_equality_at_solution(self):
        n, c, delta2 = 10**5, 5.0, 1e-4
        mu = min_detectable_mean_log_length(n, 10, c, delta2=delta2, x_star=X_STAR)
        p1 = 1.0 - normal_cdf(X_STAR - mu)
        lhs = mu * math.sqrt(math.log(c * math.log(n)) / math.log(1.0 / p1))
        rhs = math.sqrt((2 + delta2) * math.log(10 * n))
        assert lhs == pytest.approx(rhs, abs=1e-6)

    @pytest.mark.parametrize("delta2", [math.nan, math.inf, 0.0])
    def test_delta2_must_be_finite_and_positive(self, delta2):
        for solver in (min_detectable_mean_log_length, min_detectable_mean_sqrt_length):
            with pytest.raises(ValueError, match="need delta2 > 0 and finite"):
                solver(1000, 10, 2.0, delta2=delta2, x_star=X_STAR)

    def test_short_length_rejected(self):
        with pytest.raises(ValueError):
            min_detectable_mean_log_length(2, 10, 0.5, x_star=X_STAR)

    @pytest.mark.parametrize("m", [0, -3])
    def test_rows_below_one_rejected(self, m):
        for solver in (min_detectable_mean_log_length, min_detectable_mean_sqrt_length):
            with pytest.raises(ValueError, match=f"need m >= 1, got m={m}"):
                solver(1000, m, 2.0, x_star=X_STAR)

    def test_sqrt_variant_looser_than_power_law(self):
        # for a chain of length c*sqrt(n) the scan-cut bound asks for a larger
        # mean than the power-law bound at alpha = 1/2, zeta = c
        rho = 0.2749  # exact run rate for m=10, C=1, p=0.1
        for n in (10**3, 10**4, 10**5, 10**6):
            for c in (0.5, 1.0, 2.0, 5.0):
                sqrt_mu = min_detectable_mean_sqrt_length(n, 10, c, x_star=X_STAR)
                power_mu = min_detectable_mean_power_law(n, 10, 1, rho, 0.5, c, x_star=X_STAR)
                assert sqrt_mu > power_mu, (n, c, sqrt_mu, power_mu)


class TestDecisionThresholds:
    def test_scan_cut_value(self):
        thr = decision_thresholds(10**3, 10, RATE_10, epsilon=1e-4, delta2=1e-4,
                                  x_star=X_STAR)
        assert thr.step2 == pytest.approx(4.2920, abs=1e-3)

    def test_run_cut_value(self):
        thr = decision_thresholds(10**3, 10, 0.2691, epsilon=1e-4, delta2=1e-4,
                                  x_star=X_STAR)
        assert thr.step1 == pytest.approx(5.264, abs=1e-2)

    def test_scan_cut_monotone_in_rows(self):
        lo = decision_thresholds(10**3, 1, RATE_10, x_star=X_STAR)
        hi = decision_thresholds(10**3, 10, RATE_10, x_star=X_STAR)
        assert lo.step2 < hi.step2

    def test_validation(self):
        with pytest.raises(ValueError):
            decision_thresholds(1000, 10, 1.2)
        with pytest.raises(ValueError):
            decision_thresholds(1000, 10, 0.3, epsilon=0.0)

    @pytest.mark.parametrize("knob", ["epsilon", "delta2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_knobs_rejected(self, knob, value):
        with pytest.raises(ValueError, match="epsilon and delta2 must be positive and finite"):
            decision_thresholds(1000, 10, RATE_10, **{knob: value})
