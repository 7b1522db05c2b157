"""Second-order characterizing equation for Laplace(0, b) and its bounded solution.

For a test function h in the bounded-Lipschitz ball (sup norm <= 1, Lipschitz
constant <= 1) write Wh = E[h(W)] under the target law and center
ht(x) = h(x) - Wh.  The initial value problem

    g(x) - b**2 g''(x) = ht(x),    g(0) = 0,

has exactly one bounded solution (the homogeneous solutions exp(+-x/b) are
unbounded) and it can be written with two exponentially weighted tails

    A(x) = (1/(2b)) int_0^inf exp(-u/b) ht(x+u) du,
    B(x) = (1/(2b)) int_0^inf exp(-u/b) ht(x-u) du,

as g = A + B.  Differentiating the tails gives A' = A/b - ht/(2b) and
B' = -B/b + ht/(2b), hence

    g'   = (A - B) / b,
    g''  = (A + B - ht) / b**2,
    g''' = -h'/b**2 + (A - B)/b**3.

The solution satisfies |g| <= 2, |g'| <= 2/b, |g''| <= 4/b**2, and g'' is
Lipschitz with constant (b+2)/b**3; ``certify_bounds`` audits all four on a
grid.  Two quadrature-free identities back the solver up in the tests'
oracles: the second-order identity E[g(W)] - g(0) = b**2 E[g''(W)] and the
first-order (density-method) identity E[g'(W)] = (1/b) E[sgn(W) g(W)].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import (EXPECTATION_SPAN, EXPECTATION_TOL, QuadratureError,
                         check_tail_panels, exp_weighted_right_tail,
                         laplace_expectation)

_HBL_SLACK = 1e-12

_U = 2.0 ** -53  # unit roundoff of float64


class CertificationError(ValueError):
    """A test function failed bounded-Lipschitz certification."""


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): relative error after k roundings."""
    ku = k * _U
    return ku / (1.0 - ku) if ku < 0.25 else math.inf


def _slopes(knots, values) -> list:
    """Slopes of the interpolant of (knots, values), 0.0 beyond the ends."""
    return [0.0] + [(v1 - v0) / (k1 - k0) for k0, k1, v0, v1 in zip(
        knots, knots[1:], values, values[1:])] + [0.0]


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A test function in the bounded-Lipschitz ball: building one whose sup
    norm or Lipschitz constant is above 1, or NaN, raises CertificationError.

    ``fn`` must accept ndarray input.  A piecewise-linear member also
    carries its shape as data: it is the interpolant of ``values`` at the
    sorted ``knots``, constant beyond the ends (see :meth:`piecewise_linear`);
    smooth members leave both empty.  ``kinks``, derived from the data, lists
    the knots where the slope changes; quadrature rules split there.
    """

    fn: Callable
    lip_const: float
    sup_bound: float
    label: str
    knots: tuple = ()
    values: tuple = ()
    kinks: tuple = field(init=False)

    def __post_init__(self):
        if not (self.sup_bound <= 1.0 + _HBL_SLACK
                and self.lip_const <= 1.0 + _HBL_SLACK):
            raise CertificationError(
                f"{self.label}: not in the bounded-Lipschitz ball "
                f"(sup={self.sup_bound:g}, lip={self.lip_const:g})")
        slopes = _slopes(self.knots, self.values)
        object.__setattr__(self, "kinks", tuple(
            k for k, left, right in zip(self.knots, slopes, slopes[1:])
            if left != right))

    @classmethod
    def piecewise_linear(cls, knots, values, fn, label: str) -> "TestFunction":
        """The interpolant of (knots, values), constant beyond the ends.

        ``fn`` evaluates it in closed form; the Lipschitz constant (largest
        absolute slope) and the sup norm (largest absolute value) come from
        the data.
        """
        knots = tuple(float(k) for k in knots)
        values = tuple(float(v) for v in values)
        if len(knots) != len(values) or not knots or any(
                k1 <= k0 for k0, k1 in zip(knots, knots[1:])):
            raise ValueError("knots must be increasing and match the values")
        return cls(fn=fn,
                   lip_const=max(abs(s) for s in _slopes(knots, values)),
                   sup_bound=max(abs(v) for v in values), label=label,
                   knots=knots, values=values)

    @property
    def interp_error(self) -> float:
        """For a member with data, a bound on |fn(x) - interpolant(x)|.

        ``fn`` rounds.  The members built here evaluate a piece as
        scale * ((k_hi - x) / eps) clipped to [0, 1], where k_hi is the
        rounded x0 + eps, so the slope 1/eps is off from the data's
        1/(k_hi - x0) by at most u |k_hi| / (k_hi - x0) relative, and three
        roundings (difference, quotient, product) act on a ratio of at most
        about 1 on the ramp: the error is at most
        u * sup * (3 + |k_hi| / width) * (1 + 1e-3), u = 2**-53.  The clamp
        and the constants are exact.  The bound returned,
        4 u * sup * (1 + max |knot| / narrowest width), covers all three.
        """
        widths = [k1 - k0 for k0, k1 in zip(self.knots, self.knots[1:])]
        reach = max(abs(k) for k in self.knots) / min(widths) if widths else 0.0
        return 4.0 * _U * self.sup_bound * (1.0 + reach)


def constant_fn(c: float) -> TestFunction:
    return TestFunction.piecewise_linear(
        (0.0,), (c,), fn=lambda x, c=c: np.full_like(np.asarray(x, float), c),
        label=f"const({c:g})")


def sin_fn() -> TestFunction:
    return TestFunction(fn=np.sin, lip_const=1.0, sup_bound=1.0, label="sin")


def cos_fn() -> TestFunction:
    return TestFunction(fn=np.cos, lip_const=1.0, sup_bound=1.0, label="cos")


def tanh_fn() -> TestFunction:
    return TestFunction(fn=np.tanh, lip_const=1.0, sup_bound=1.0, label="tanh")


def clamp_fn() -> TestFunction:
    return TestFunction.piecewise_linear(
        (-1.0, 1.0), (-1.0, 1.0), fn=lambda x: np.clip(x, -1.0, 1.0),
        label="clamp")


def smoothed_indicator(x0: float, eps: float) -> TestFunction:
    """Ramp from 1 to 0 across [x0, x0+eps], scaled by min(1, eps).

    Unscaled the ramp has Lipschitz constant 1/eps, so for eps < 1 the member
    is multiplied by eps to stay inside the bounded-Lipschitz ball.
    """
    scale = min(1.0, eps)

    def fn(z, x0=x0, eps=eps, scale=scale):
        return scale * np.clip((x0 + eps - np.asarray(z, float)) / eps, 0.0, 1.0)

    return TestFunction.piecewise_linear(
        (x0, x0 + eps), (scale, 0.0), fn=fn, label=f"ind({x0:g},{eps:g})")


@lru_cache(maxsize=None)
def stein_family() -> tuple:
    """Built-in test family used by the equation-level certificates.

    Constants, smooth members (sin, cos, tanh), the clamp, and a grid of
    scaled smoothed indicators: spans smooth, kinked, and indicator-like
    behavior.
    """
    members = [constant_fn(1.0), constant_fn(-0.5), sin_fn(), cos_fn(),
               tanh_fn(), clamp_fn()]
    for x0 in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for eps in (0.1, 0.5, 1.0):
            members.append(smoothed_indicator(x0, eps))
    return tuple(members)


@lru_cache(maxsize=None)
def dense_bl_family() -> tuple:
    """Superset of :func:`stein_family` with a dense indicator grid (100+
    members); this is the default family behind the empirical lower bound on
    the bounded-Lipschitz distance."""
    members = {h.label: h for h in stein_family()}
    for x0 in np.linspace(-4.0, 4.0, 21):
        for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
            h = smoothed_indicator(round(float(x0), 9), eps)
            members.setdefault(h.label, h)
    return tuple(members.values())


@lru_cache(maxsize=None)
def target_expectation(h: TestFunction, b: float) -> float:
    """Wh = E[h(W)] for W ~ Laplace(0, b); |Wh| <= 1 for members of the ball.

    For a member with data the quadrature value is audited against
    :func:`wh_enclosure`, and one outside it raises QuadratureError: the
    d_BL screening relies on the enclosure.  Memoized per (h, b).
    """
    wh = laplace_expectation(h.fn, b, kinks=h.kinks)
    if h.knots:
        centre, radius = wh_enclosure(h, b)
        if not abs(wh - centre) <= radius:
            raise QuadratureError(
                f"{h.label}: Wh at b={b:g} is outside its closed-form "
                f"enclosure (error estimate {abs(wh - centre):.3e})")
    return wh


def _right_mass(x: float, b: float) -> float:
    """int_0^x P(W > t) dt for W ~ Laplace(0, b), negative for x < 0."""
    if x >= 0.0:
        return -(0.5 * b) * math.expm1(-x / b)
    return x - (0.5 * b) * math.expm1(x / b)


def wh_enclosure(h: TestFunction, b: float) -> tuple:
    """(centre, radius): the Wh that :func:`target_expectation` accepts for a
    member with data lies within radius of centre.

    The interpolant y of the data is v_0 + sum_j s_j (clip(x, k_j, k_j+1)
    - k_j), s_j the slope of piece j, and E[clip(W, a, c) - a] =
    Phi(c) - Phi(a) with Phi(x) = int_0^x P(W > t) dt, which is
    -(b/2) expm1(-x/b) for x >= 0 and x - (b/2) expm1(x/b) for x < 0.  So
    E y(W) = v_0 + sum_j s_j (Phi(k_j+1) - Phi(k_j)): the centre.

    Rounding of the centre, u = 2**-53, gamma_k = k u / (1 - k u), with
    libm's expm1 within one ulp (counted as two roundings).  expm1 runs on
    a nonpositive argument y, where |y e^y / expm1(y)| <= 1, so the
    rounded x/b adds at most one rounding: Phi(x >= 0) is within
    gamma_4 |Phi|.  For x < 0 the term (b/2) |expm1(x/b)| is at most
    |x|/2 <= |Phi(x)|, so with the subtraction Phi is within gamma_5 |Phi|.
    A difference of two Phi is within gamma_6 (|Phi(k_j)| + |Phi(k_j+1)|),
    the slope within gamma_3 and the product within gamma_10 of
    M_j = |s_j| (|Phi(k_j)| + |Phi(k_j+1)|), and the accumulation adds at
    most m more, m the number of knots: |fl(centre) - E y(W)| <=
    gamma_(m+10) (|v_0| + sum_j M_j).  That sum is computed from rounded
    terms, so it is low by at most a factor 1 - gamma_(m+10); gamma of
    twice the count covers that.

    Radius.  The quadrature value is accepted when its error estimate over
    2b is at most EXPECTATION_TOL; it integrates fn, within e =
    h.interp_error of y, over |x| <= EXPECTATION_SPAN b, which leaves out at
    most sup e^(-EXPECTATION_SPAN), and rounds once more on dividing by 2b
    (u sup).  The radius is EXPECTATION_TOL (1 + 8u) plus twice the sum
    of e, sup (u + e^(-EXPECTATION_SPAN)) and the centre's rounding bound;
    the doubling and the 8u cover the radius's own arithmetic.
    """
    k, v = h.knots, h.values
    if not k:
        raise ValueError(f"{h.label}: Wh has a closed form only for a "
                         f"member with data")
    phi = [_right_mass(x, b) for x in k]
    centre = v[0]
    mass = abs(v[0])
    for j in range(len(k) - 1):
        slope = (v[j + 1] - v[j]) / (k[j + 1] - k[j])
        centre += slope * (phi[j + 1] - phi[j])
        mass += abs(slope) * (abs(phi[j]) + abs(phi[j + 1]))
    sup = h.sup_bound
    small = h.interp_error + sup * (_U + math.exp(-EXPECTATION_SPAN)) \
        + _gamma(2 * (len(k) + 10)) * mass
    return centre, EXPECTATION_TOL * (1.0 + 8.0 * _U) + 2.0 * small


@dataclass(frozen=True)
class SolutionProfile:
    """Solution and derivatives evaluated on one grid in a single pass; the
    arrays are read-only."""

    x: np.ndarray
    g: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


@dataclass(frozen=True, eq=False)
class SteinSolution:
    """Bounded solution of g - b^2 g'' = h - Wh with g(0) = 0.

    Evaluators are safe for concurrent use.  The solution keeps the profile
    of the last grid it evaluated, keyed on the grid's shape and bytes, so
    a residual and a certificate on one grid share one quadrature pass; any
    other grid is a fresh pass, which replaces the stored one.
    """

    h: TestFunction
    b: float
    target_mean: float  # Wh
    # (key, SolutionProfile), read and replaced as one tuple, so a thread
    # sees either the old pair or the new one
    _last: tuple = field(default=(None, None), init=False, repr=False)

    def centered(self, x):
        return self.h.fn(x) - self.target_mean

    def _tails(self, xs: np.ndarray):
        """A(xs), B(xs) for sorted xs; the first tail refuses unsorted xs."""
        ht = self.centered
        a_vals = exp_weighted_right_tail(ht, self.b, xs, kinks=self.h.kinks)
        refl = lambda y: ht(-y)
        rkinks = tuple(-k for k in self.h.kinks)
        b_vals = exp_weighted_right_tail(refl, self.b, -xs[::-1],
                                         kinks=rkinks)[::-1]
        return a_vals, b_vals

    def profile(self, grid) -> SolutionProfile:
        xs = np.asarray(grid, dtype=float)
        key = (xs.shape, xs.tobytes())
        last_key, last = self._last
        if key == last_key:
            return last
        a_vals, b_vals = self._tails(xs)
        ht = self.centered(xs)
        b = self.b
        g = a_vals + b_vals
        g1 = (a_vals - b_vals) / b
        g2 = (g - ht) / b ** 2
        prof = SolutionProfile(x=xs.copy(), g=g, g1=g1, g2=g2)
        for arr in (prof.x, prof.g, prof.g1, prof.g2):
            arr.flags.writeable = False
        object.__setattr__(self, "_last", (key, prof))
        return prof

    def g(self, x):
        """g at a scalar x, or on an array x sorted ascending."""
        prof = self.profile(np.atleast_1d(x))
        return float(prof.g[0]) if np.ndim(x) == 0 else prof.g


def solve(h: TestFunction, b: float) -> SteinSolution:
    """Construct the bounded solution for test function h at scale b."""
    if b <= 0:
        raise ValueError("scale b must be positive")
    return SteinSolution(h=h, b=b,
                         target_mean=target_expectation(h, float(b)))


def residual(sol: SteinSolution, x):
    """g(x) - b^2 g''(x) - ht(x) on x sorted ascending; vanishes wherever the
    solver is consistent."""
    prof = sol.profile(x)
    return prof.g - sol.b ** 2 * prof.g2 - sol.centered(prof.x)


def standard_grid(b: float) -> np.ndarray:
    """Default certification grid: [-40b, 40b] in steps of b/20, refused
    where it overflows, where b^3, in the limit (b+2)/b^3, underflows, or
    where a tail pass needs more than MAX_PANELS panels (a member's kinks,
    at most 2 more, are counted inside ``exp_weighted_right_tail``)."""
    if not 40.0 * b < math.inf:
        raise OverflowError(f"the grid [-40b, 40b] at b={b:g} overflows")
    if not b * b * b >= sys.float_info.min:
        raise FloatingPointError(f"b^3 at b={b:g} underflows")
    grid = np.linspace(-40.0 * b, 40.0 * b, 1601)
    check_tail_panels(b, grid)
    return grid


@dataclass(frozen=True)
class BoundCertificate:
    """Grid maxima of |g|, |g'|, |g''| and the finite-difference slope of g''
    against their limits 2, 2/b, 4/b^2, (b+2)/b^3, up to TOLERANCE of each."""

    values: dict
    limits: dict
    passed: bool = field(init=False)

    TOLERANCE = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "passed", all(
            self.values[k] <= self.limits[k] * (1.0 + self.TOLERANCE)
            for k in self.values))


def certify_bounds(sol: SteinSolution, grid) -> BoundCertificate:
    """Audit the four derivative bounds of the bounded solution on a grid.

    The grid must span at least [-40b, 40b] with spacing <= b/10, both up
    to 1e-12 of their size.  The Lipschitz bound for g'' is checked through
    finite differences of g'' (well-defined even where h' fails to exist).
    """
    xs = np.asarray(grid, dtype=float)
    b = sol.b
    if min(-xs[0], xs[-1]) < 40.0 * b * (1.0 - 1e-12):
        raise ValueError("grid must span [-40b, 40b]")
    steps = np.diff(xs)
    if np.any(steps <= 0) or np.max(steps) > b / 10.0 * (1.0 + 1e-12):
        raise ValueError("grid step must be positive and at most b/10")

    prof = sol.profile(xs)
    values = {
        "max_abs_g": float(np.max(np.abs(prof.g))),
        "max_abs_g1": float(np.max(np.abs(prof.g1))),
        "max_abs_g2": float(np.max(np.abs(prof.g2))),
        "max_g2_slope": float(np.max(np.abs(np.diff(prof.g2) / steps))),
    }
    limits = {
        "max_abs_g": 2.0,
        "max_abs_g1": 2.0 / b,
        "max_abs_g2": 4.0 / b ** 2,
        "max_g2_slope": (b + 2.0) / b ** 3,
    }
    return BoundCertificate(values=values, limits=limits)

