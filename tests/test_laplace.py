import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from laplace_stein.laplace import (LaplaceParams, cdf, char_fn, moment, pdf,
                                   quantile, sample)

UNIT = LaplaceParams(0.0, 1.0)
SCALES = (0.5, 1.0, 2.0)


class TestParams:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            LaplaceParams(0.0, 0.0)
        with pytest.raises(ValueError):
            LaplaceParams(0.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LaplaceParams(0.0, math.nan)
        with pytest.raises(ValueError):
            LaplaceParams(0.0, math.inf)

    @pytest.mark.parametrize("a", [1.0, -2.0, 5e-324, math.nan, math.inf,
                                   -math.inf])
    def test_refuses_a_location(self, a):
        # the law is centred, so a location is refused when it is built
        with pytest.raises(ValueError, match=r"a must be 0, got a="):
            LaplaceParams(a, 1.0)
        with pytest.raises(ValueError, match=r"a must be 0"):
            LaplaceParams(a)


class TestPdf:
    def test_center(self):
        assert pdf(0.0, UNIT) == 0.5

    @pytest.mark.parametrize("b", SCALES)
    @pytest.mark.parametrize("centre", [-2.0, 0.0, 3.5])
    def test_peak_at_location(self, centre, b):
        # the peak is at the location 0; on a window centred off it the
        # density falls away from 0
        params = LaplaceParams(0.0, b)
        assert pdf(0.0, params) == 1.0 / (2.0 * b)
        xs = np.linspace(centre - 5 * b, centre + 5 * b, 201)
        ys = pdf(xs, params)
        assert np.all(ys <= 1.0 / (2.0 * b) + 1e-15)
        nearest = np.argsort(np.abs(xs), kind="stable")
        assert np.all(np.diff(ys[nearest]) <= 0)

    def test_unit_point(self):
        assert pdf(1.0, UNIT) == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-15)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(ValueError):
            pdf(math.nan, UNIT)
        with pytest.raises(ValueError):
            pdf(np.array([0.0, math.inf]), UNIT)

    @pytest.mark.parametrize("b", SCALES)
    def test_integrates_to_one(self, b):
        val, _ = integrate.quad(lambda w: pdf(w, LaplaceParams(0.0, b)),
                                -np.inf, np.inf, points=None)
        # adaptive quadrature on the two half-lines, split at the kink
        val = sum(integrate.quad(lambda w: pdf(w, LaplaceParams(0.0, b)),
                                 lo, hi, epsabs=1e-13)[0]
                  for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)))
        assert val == pytest.approx(1.0, abs=1e-10)


class TestCdf:
    def test_center_is_half(self):
        for b in SCALES:
            assert cdf(0.0, LaplaceParams(0.0, b)) == 0.5

    def test_limits(self):
        assert cdf(-80.0, UNIT) < 1e-30
        assert cdf(80.0, UNIT) == 1.0

    def test_unit_point(self):
        assert cdf(1.0, UNIT) == pytest.approx(1.0 - math.exp(-1.0) / 2.0,
                                               abs=1e-15)

    def test_nondecreasing(self):
        xs = np.linspace(-30, 30, 2001)
        assert np.all(np.diff(cdf(xs, LaplaceParams(0.0, 1.7))) >= 0)

    def test_is_antiderivative_of_pdf(self):
        rng = np.random.default_rng(7)
        params = LaplaceParams(0.0, 1.3)
        for _ in range(20):
            x1, x2 = np.sort(rng.uniform(-8, 8, 2))
            val, _ = integrate.quad(lambda w: pdf(w, params), x1, x2,
                                    points=[0.0] if x1 < 0 < x2 else None,
                                    epsabs=1e-13)
            assert abs(cdf(x2, params) - cdf(x1, params) - val) <= 1e-10


class TestQuantile:
    def test_median_is_location(self):
        # +0.0, not the -0.0 of the upper branch -b log(2(1 - q))
        median = quantile(0.5, LaplaceParams(0.0, 2.0))
        assert median == 0.0 and math.copysign(1.0, median) == 1.0

    def test_lower_quartile(self):
        assert quantile(0.25, UNIT) == pytest.approx(math.log(0.5), abs=1e-15)

    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_round_trip_through_cdf(self, x):
        assert quantile(cdf(x, UNIT), UNIT) == pytest.approx(x, abs=1e-12)

    def test_domain(self):
        for q in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                quantile(q, UNIT)

    @given(q=st.floats(min_value=1e-9, max_value=1 - 1e-9),
           b=st.sampled_from(SCALES))
    def test_cdf_of_quantile(self, q, b):
        params = LaplaceParams(0.0, b)
        assert abs(cdf(quantile(q, params), params) - q) <= 1e-12


class TestSample:
    def test_deterministic(self):
        assert np.array_equal(sample(5, UNIT, seed=123),
                              sample(5, UNIT, seed=123))
        assert sample(1, UNIT, seed=9) == sample(1, UNIT, seed=9)

    def test_scale_equivariance(self):
        base = sample(10 ** 4, UNIT, seed=21)
        doubled = sample(10 ** 4, LaplaceParams(0.0, 2.0), seed=21)
        assert np.array_equal(doubled, 2.0 * base)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           b=st.floats(min_value=1e-3, max_value=1e3),
           k=st.integers(min_value=-8, max_value=8))
    def test_scale_equivariance_across_seeds(self, seed, b, k):
        # a power-of-two factor scales every rounding exactly
        base = sample(64, LaplaceParams(0.0, b), seed=seed)
        scaled = sample(64, LaplaceParams(0.0, b * 2.0 ** k), seed=seed)
        assert np.array_equal(scaled, 2.0 ** k * base)

    def test_mean_within_clt_band(self):
        n = 10 ** 5
        values = sample(n, UNIT, seed=7)
        assert abs(np.mean(values)) <= 4.0 * math.sqrt(2.0 / n)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample(0, UNIT, seed=1)


class TestMoment:
    def test_odd_vanishes(self):
        assert moment(3, UNIT) == 0.0
        assert moment(7, LaplaceParams(0.0, 2.0)) == 0.0

    def test_second(self):
        assert moment(2, UNIT) == 2.0

    def test_fourth_against_quadrature(self):
        params = LaplaceParams(0.0, 2.0)
        assert moment(4, params) == 384.0
        oracle = sum(integrate.quad(lambda w: w ** 4 * pdf(w, params), lo, hi,
                                    epsabs=1e-10, epsrel=1e-12)[0]
                     for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)))
        assert moment(4, params) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("b", SCALES)
    def test_recursion(self, b):
        params = LaplaceParams(0.0, b)
        for k in range(2, 9):
            assert moment(k, params) == b ** 2 * k * (k - 1) * moment(k - 2,
                                                                      params)

    def test_requires_centered(self):
        # a located law cannot reach moment: it is refused when built
        with pytest.raises(ValueError, match=r"a must be 0"):
            moment(2, LaplaceParams(1.0, 1.0))


class TestCharFn:
    def test_at_zero(self):
        assert char_fn(0.0, UNIT) == 1.0

    def test_values(self):
        assert char_fn(1.0, UNIT) == 0.5
        assert char_fn(2.0, LaplaceParams(0.0, 0.5)) == 0.5

    def test_even(self):
        ts = np.linspace(0.1, 5, 20)
        assert np.array_equal(char_fn(ts, UNIT), char_fn(-ts, UNIT))

    def test_requires_centered(self):
        # a located law cannot reach char_fn: it is refused when built
        with pytest.raises(ValueError, match=r"a must be 0"):
            char_fn(1.0, LaplaceParams(1.0, 1.0))

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_empirical_cf_matches(self, t):
        n = 10 ** 6
        values = sample(n, UNIT, seed=31)
        phases = np.cos(t * values)
        se = np.std(phases, ddof=1) / math.sqrt(n)
        assert abs(np.mean(phases) - char_fn(t, UNIT)) <= 4.0 * se
