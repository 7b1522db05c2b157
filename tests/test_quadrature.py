import math

import numpy as np
import pytest
from scipy import integrate

from laplace_stein.errors import QuadratureError
from laplace_stein.laplace import LaplaceParams, char_fn, moment
from laplace_stein.quadrature import (exp_weighted_right_tail,
                                      laplace_expectation)


class TestLaplaceExpectation:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [0, 2, 4, 6])
    def test_polynomials_match_moment_table(self, b, k):
        val = laplace_expectation(lambda w: w ** k, b)
        assert val == pytest.approx(moment(k, LaplaceParams(0.0, b)),
                                    rel=1e-11, abs=1e-11)

    def test_odd_integrand_vanishes(self):
        assert abs(laplace_expectation(lambda w: w ** 3, 1.3)) <= 1e-10

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_cosine_matches_characteristic_fn(self, b):
        val = laplace_expectation(np.cos, b)
        assert val == pytest.approx(char_fn(1.0, LaplaceParams(0.0, b)),
                                    abs=1e-11)

    def test_kinked_integrand(self):
        # E|W - 1| for b = 1: 2 exp(-1)/2 + ... oracle by direct quadrature
        oracle = sum(integrate.quad(
            lambda w: abs(w - 1.0) * math.exp(-abs(w)) / 2.0, lo, hi,
            epsabs=1e-13)[0]
            for lo, hi in ((-np.inf, 0.0), (0.0, 1.0), (1.0, np.inf)))
        val = laplace_expectation(lambda w: np.abs(w - 1.0), 1.0, kinks=(1.0,))
        assert val == pytest.approx(oracle, abs=1e-11)

    def test_nonconvergent_raises(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureError):
                laplace_expectation(lambda w: np.cos(5e4 * w * w), 1.0,
                                    tol=1e-10)


class TestExpWeightedRightTail:
    def test_constant(self):
        xs = np.linspace(-5, 5, 11)
        got = exp_weighted_right_tail(lambda y: np.ones_like(y), 1.0, xs)
        assert np.max(np.abs(got - 0.5)) <= 1e-14

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_sine_closed_form(self, b):
        # (1/(2b)) int_0^inf exp(-u/b) sin(x+u) du
        #   = (sin x + b cos x) / (2 (1 + b^2))
        xs = np.linspace(-8, 8, 161)
        got = exp_weighted_right_tail(np.sin, b, xs)
        want = (np.sin(xs) + b * np.cos(xs)) / (2.0 * (1.0 + b ** 2))
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_kink_refinement_matches_adaptive_quad(self):
        f = lambda y: np.abs(y - 0.3)

        def oracle(x):
            val = sum(integrate.quad(
                lambda u: math.exp(-u) * abs(x + u - 0.3), lo, hi,
                epsabs=1e-13, limit=200)[0]
                for lo, hi in ((0.0, max(0.3 - x, 1e-12)),
                               (max(0.3 - x, 1e-12), 60.0)))
            return val / 2.0

        xs = np.array([-2.0, 0.0, 0.25, 1.0])
        got = exp_weighted_right_tail(f, 1.0, xs, kinks=(0.3,))
        want = np.array([oracle(x) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            exp_weighted_right_tail(np.sin, 1.0, np.array([1.0, 0.0]))

