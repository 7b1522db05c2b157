import logging
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from laplace_stein import quadrature
from laplace_stein.laplace import LaplaceParams, char_fn
from laplace_stein.quadrature import (QuadratureError,
                                      exp_weighted_right_tail,
                                      laplace_expectation)
from laplace_stein.stein import smoothed_indicator, stein_family
from laplace_stein.transforms import laplace_source


def numpy_scalar_tail(f, b, xs, kinks=()):
    """The tail rule with b/2 panels, all at once, and its suffix recursion
    on numpy scalars: the reference for the blocked Python-float version,
    which must match it bit for bit wherever b/2 <= 1."""
    xs = np.asarray(xs, dtype=float)
    top = xs[-1] + quadrature.TAIL_SPAN * b
    pieces = [xs, np.arange(xs[-1], top, 0.5 * b), np.asarray([top])]
    interior = [k for k in kinks if xs[0] < k < top]
    if interior:
        pieces.append(np.asarray(interior, dtype=float))
    nodes = np.unique(np.concatenate(pieces))
    gap = np.diff(nodes)
    parts = np.ceil(gap / (0.5 * b) - 1e-9).astype(int).clip(1)
    if parts.max() > 1:
        step = np.repeat(gap / parts, parts)
        k = np.arange(step.size) - np.repeat(np.cumsum(parts) - parts, parts)
        nodes = np.append(np.repeat(nodes[:-1], parts) + k * step, nodes[-1])

    left = nodes[:-1]
    width = np.diff(nodes)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(10)
    y = left[:, None] + (0.5 * (gl_nodes + 1.0))[None, :] * width[:, None]
    wts = (0.5 * width)[:, None] * gl_weights[None, :]
    panel = np.sum(wts * np.exp(-(y - left[:, None]) / b) * f(y), axis=1)

    decay = np.exp(-width / b)
    suffix = np.zeros(nodes.size)
    acc = 0.0
    for j in range(nodes.size - 2, -1, -1):
        acc = panel[j] + decay[j] * acc
        suffix[j] = acc
    return suffix[np.searchsorted(nodes, xs)] / (2.0 * b)


class TestLaplaceExpectation:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [0, 2, 4, 6])
    def test_polynomials_match_moment_table(self, b, k):
        # E[W^k] is E|W|^k at even k and 0 at odd k
        oracle = laplace_source(b).abs_moment(k) if k % 2 == 0 else 0.0
        val = laplace_expectation(lambda w: w ** k, b)
        assert val == pytest.approx(oracle, rel=1e-11, abs=1e-11)

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

    @pytest.mark.parametrize("x0", [1e-307, 3.386778236526314e-305, 1e-304,
                                    1e-300, 1e-15])
    def test_kink_next_to_zero(self, x0):
        # a breakpoint within 80b * 2^-52 of 0 is dropped: quad given one
        # reported bad integrand behaviour, and the sliver it bounds cannot
        # move the integral
        h, at_zero = (smoothed_indicator(x, 0.18377785665448562)
                      for x in (x0, 0.0))
        val = laplace_expectation(h.fn, 1.0, kinks=h.kinks)
        assert val == pytest.approx(
            laplace_expectation(at_zero.fn, 1.0, kinks=at_zero.kinks),
            abs=1e-14)

    def test_quadpack_complaint_is_logged_not_warned(self, caplog):
        # at b = 64 QUADPACK reports roundoff on cos, yet its error estimate
        # passes; SciPy's multi-line warning would reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with caplog.at_level(logging.DEBUG, "laplace_stein.quadrature"):
                val = laplace_expectation(np.cos, 64.0)
        assert val == pytest.approx(1.0 / (1.0 + 64.0 ** 2), abs=1e-11)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert "roundoff" in record.getMessage()

    def test_cosine_at_large_b(self):
        # Wh of cos takes 3735 subintervals at b = 1e3, past a fixed 300
        val = laplace_expectation(np.cos, 1e3)
        assert val == pytest.approx(1.0 / (1.0 + 1e6), abs=1e-11)

    def test_span_beyond_max_panels_raises_before_any_evaluation(self):
        def never(w):
            raise AssertionError("integrand evaluated")

        with pytest.raises(QuadratureError, match="subintervals"):
            laplace_expectation(never, 2e4)

    def test_nonconvergent_raises(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureError):
                laplace_expectation(lambda w: np.cos(5e4 * w * w), 1.0)


def quad_expectation(f, b, kinks=()):
    """E[f(W)] as integrate.quad takes it, with laplace_expectation's
    arguments."""
    hi = quadrature.EXPECTATION_SPAN * b
    points = sorted({abs(k) for k in kinks if hi * 2.0 ** -52 < abs(k) < hi})
    val = integrate.quad(
        lambda u: (f(u) + f(-u)) * np.exp(-u / b), 0.0, hi,
        points=points or None, limit=max(300, math.ceil(hi)),
        epsabs=1e-12 * min(1.0, 2.0 * b), epsrel=1e-12, full_output=1)[0]
    return val / (2.0 * b)


LOADER_ORDER = """
import sys
import numpy as np
from laplace_stein import quadrature
from laplace_stein.quadrature import laplace_expectation
from laplace_stein.stein import smoothed_indicator
h = smoothed_indicator(0.7, 0.25)


def loader():  # _qagpe, then _qagse
    return (laplace_expectation(h.fn, 1.5, h.kinks),
            laplace_expectation(np.cos, 4.0))


if sys.argv[1] == "loader-first":
    got = loader()
    assert "scipy.integrate" not in sys.modules
    module = quadrature._quadpack()
    from scipy import integrate
else:
    from scipy import integrate
    module = integrate._quadpack_py._quadpack
    got = loader()
assert sys.modules["scipy.integrate._quadpack"] is module
assert integrate._quadpack_py._quadpack is module
assert quadrature._quadpack() is module
quad = (integrate.quad(lambda u: (h.fn(u) + h.fn(-u)) * np.exp(-u / 1.5), 0.0,
                       120.0, points=sorted(abs(k) for k in h.kinks),
                       limit=300, epsabs=1e-12, epsrel=1e-12)[0] / 3.0,
        integrate.quad(lambda u: 2.0 * np.cos(u) * np.exp(-u / 4.0), 0.0,
                       320.0, limit=320, epsabs=1e-12, epsrel=1e-12)[0] / 8.0)
assert got == quad, (got, quad)
"""


class TestQuadpackLoader:
    @pytest.mark.parametrize("b", [0.25, 1.0, 4.0, 64.0])
    def test_same_bits_as_integrate_quad(self, b):
        # every member, with and without breakpoints (_qagpe and _qagse)
        family = stein_family()
        assert any(h.kinks for h in family)
        assert not all(h.kinks for h in family)
        for h in family:
            assert laplace_expectation(h.fn, b, h.kinks) == quad_expectation(
                h.fn, b, h.kinks), h.label

    @pytest.mark.parametrize("order", ["loader-first", "integrate-first"])
    def test_one_module_in_either_import_order(self, order):
        # the loader registers the extension under its own name, so
        # scipy.integrate imported later runs on the same module, and a
        # loader called after scipy.integrate reuses it
        src = str(Path(quadrature.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", LOADER_ORDER, order], env=env,
                       check=True)

    def test_invalid_input_raises_value_error(self, monkeypatch):
        # ier = 6, QUADPACK's refusal of its input, as integrate.quad takes it
        stub = types.SimpleNamespace(_qagse=lambda *args: (0.0, 0.0, 6))
        monkeypatch.setattr(quadrature, "_quadpack", lambda: stub)
        with pytest.raises(ValueError, match="QUADPACK refused"):
            laplace_expectation(np.cos, 1.0)


class TestExpWeightedRightTail:
    def test_constant(self):
        xs = np.linspace(-5, 5, 11)
        got = exp_weighted_right_tail(lambda y: np.ones_like(y), 1.0, xs)
        assert np.max(np.abs(got - 0.5)) <= 1e-14

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 24.0, 64.0])
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


    @pytest.mark.parametrize("b", [4.0, 24.0, 64.0, 128.0])
    def test_cosine_closed_form_at_large_b(self, b):
        # panels at most 1 wide hold at most a sixth of a period of cos;
        # b/2-wide panels were off by 3.6e-11 at b = 24 and 1e-2 at b = 64
        xs = np.linspace(-8, 8, 161)
        got = exp_weighted_right_tail(np.cos, b, xs)
        want = (np.cos(xs) - b * np.sin(xs)) / (2.0 * (1.0 + b ** 2))
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("b, xs", [
        (1e300, [0.0]), (1e5, [0.0]), (1e-3, [0.0, 1e4])])
    def test_too_many_panels_raises_before_any_array(self, b, xs):
        def never(y):
            raise AssertionError("integrand evaluated")

        with pytest.raises(QuadratureError, match="panels"):
            exp_weighted_right_tail(never, b, np.asarray(xs))

    @given(b=st.floats(0.05, 2.0),
           points=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=40),
           repeat=st.integers(0, 3),
           kinks=st.lists(st.floats(-40.0, 40.0), max_size=3),
           on_point=st.integers(0, 2),
           member=st.sampled_from(["sin", "tanh", "indicator"]),
           block=st.sampled_from([1, 7, 2 ** 14]))
    def test_equals_numpy_scalar_recursion_bit_for_bit(
            self, b, points, repeat, kinks, on_point, member, block):
        # duplicates in xs, kinks inside the range, beyond it and on a
        # point, and panels integrated in blocks of 1, 7 or 2^14
        xs = np.sort(np.asarray(points + points[:repeat]))
        kinks = tuple(kinks + points[:on_point])
        if member == "indicator":
            h = smoothed_indicator(points[-1], 0.5)
            f, kinks = h.fn, kinks + h.kinks
        else:
            f = {"sin": np.sin, "tanh": np.tanh}[member]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_PANEL_BLOCK", block)
            got = exp_weighted_right_tail(f, b, xs, kinks=kinks)
        want = numpy_scalar_tail(f, b, xs, kinks=kinks)
        assert got.tobytes() == want.tobytes()
