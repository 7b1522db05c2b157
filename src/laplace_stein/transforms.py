"""Sign-bias and symmetric-equilibrium transforms with exact per-source recipes.

For a mean-zero source X with P{X<0} = P{X>0} = 1/2, the sign-biased variable
is X_P = U1*Y with U1 ~ Uniform(0,1) independent of Y, where Y has density
|y| f_X(y) / E|X|.  Applying the same |.|-reweighting to the law of X_P gives
the symmetric-equilibrium variable X_L = U2*Z, Z ~ |z| f_{X_P}(z) / E|X_P|.
X_L is characterized by E[f(X)] - f(0) = (1/2) E[X^2] E[f''(X_L)] for smooth
f, and Laplace(0, b) is the fixed point of X -> X_L.

Each built-in source carries both reweightings in closed form:

  rademacher(c)        Y = +-c equiprobable, so X_P ~ Uniform(-c, c);
                       |Z| = c*sqrt(U) (density 2z/c^2 on (0, c)).
  uniform_symmetric(c) |Y| = c*sqrt(U); X_P is triangular with density
                       (c-|x|)/c^2; |Z|/c has CDF 3r^2 - 2r^3, inverted in
                       closed form by r = 1/2 - sin(arcsin(1-2u)/3).
  laplace_source(b)    |Y| ~ Gamma(2, b); X_P is again Laplace(0, b) (the
                       sign-bias fixed point), hence |Z| ~ Gamma(2, b) too.

``from_density`` builds the same machinery numerically for any symmetric
density: tail reweighting reduces the sign-bias density to survival/E|X|, and
the magnitude CDFs are tabulated on a cached grid and inverted monotonically.

Zero-bias sampling (E[X f(X)] = E[X^2] E[f'(X_z)]) is available for the
sources whose zero-bias law is known exactly: Rademacher(+-c) gives
Uniform(-c, c), the symmetric uniform gives the Epanechnikov law (median of
three uniforms), and Laplace(0, b) gives the equal mixture of +-Exp(b) and
+-Gamma(2, b) magnitudes.

SciPy is imported inside the functions that call it (the quadratures of
``equilibrium_density`` and ``equilibrium_density_2d``, the interpolant of
``from_density``), so the built-in sources need numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import QuadratureError, UnsupportedSourceError
from . import laplace
from .quadrature import cumulative_integral
from .seeding import derive_seed, substream


@dataclass(frozen=True, eq=False)
class SourceDistribution:
    """A mean-zero, sign-balanced summand law with its transform recipes.

    ``sigma2``, ``abs_mean`` and ``abs_third`` are E[X^2], E|X| and E|X|^3.
    Sampler callables take (rng, n) and return an ndarray; the optional
    ``sum_sampler`` takes (rng, counts) and returns one row sum per count,
    used as an exact fast path for random sums.
    """

    label: str
    sigma2: float
    abs_mean: float
    abs_third: float
    sampler: Callable
    y_sampler: Optional[Callable] = None
    z_sampler: Optional[Callable] = None
    zero_bias_sampler: Optional[Callable] = None
    density: Optional[Callable] = None
    cf: Optional[Callable] = None
    moment: Optional[Callable] = None
    sum_sampler: Optional[Callable] = None
    half_width: float = math.inf  # essential sup of |X|

    @property
    def b_equiv(self) -> float:
        """Scale of the Laplace law with matching variance: E[X^2] = 2 b^2."""
        return math.sqrt(self.sigma2 / 2.0)

    @property
    def beta(self) -> float:
        """E|X_P| = E[X^2] / (2 E|X|)."""
        return self.sigma2 / (2.0 * self.abs_mean)


def _signed(rng, magnitudes):
    return (2.0 * rng.integers(0, 2, magnitudes.shape[0]) - 1.0) * magnitudes


def rademacher(c: float = 1.0) -> SourceDistribution:
    """Two equal atoms at +-c."""
    if c <= 0:
        raise ValueError("atom magnitude must be positive")

    def atoms(rng, n, c=c):
        # Y = +-c equiprobable: the |y|-reweighting leaves the law of X
        return _signed(rng, np.full(n, c))

    return SourceDistribution(
        label=f"rademacher({c:g})",
        sigma2=c ** 2, abs_mean=c, abs_third=c ** 3,
        sampler=atoms,
        y_sampler=atoms,
        z_sampler=lambda rng, n, c=c: _signed(rng, c * np.sqrt(rng.random(n))),
        zero_bias_sampler=lambda rng, n, c=c: rng.uniform(-c, c, n),
        cf=lambda t, c=c: np.cos(c * np.asarray(t, float)),
        moment=lambda k, c=c: c ** k if k % 2 == 0 else 0.0,
        sum_sampler=lambda rng, counts, c=c: c * (
            2.0 * rng.binomial(counts, 0.5) - counts),
        half_width=c,
    )


def _smoothstep_inverse(u):
    """Solve 3r^2 - 2r^3 = u on [0, 1]."""
    return 0.5 - np.sin(np.arcsin(1.0 - 2.0 * np.asarray(u, float)) / 3.0)


def uniform_symmetric(c: float = 1.0) -> SourceDistribution:
    """Uniform(-c, c)."""
    if c <= 0:
        raise ValueError("half width must be positive")

    def zero_bias(rng, n, c=c):
        # Epanechnikov on (-c, c) = c * median of three Uniform(-1, 1).
        return c * np.median(rng.uniform(-1.0, 1.0, (n, 3)), axis=1)

    def moment(k, c=c):
        return c ** k / (k + 1.0) if k % 2 == 0 else 0.0

    return SourceDistribution(
        label=f"uniform({c:g})",
        sigma2=c ** 2 / 3.0, abs_mean=c / 2.0, abs_third=c ** 3 / 4.0,
        sampler=lambda rng, n, c=c: rng.uniform(-c, c, n),
        y_sampler=lambda rng, n, c=c: _signed(rng, c * np.sqrt(rng.random(n))),
        z_sampler=lambda rng, n, c=c: _signed(
            rng, c * _smoothstep_inverse(rng.random(n))),
        zero_bias_sampler=zero_bias,
        density=lambda x, c=c: np.where(np.abs(np.asarray(x, float)) <= c,
                                        1.0 / (2.0 * c), 0.0),
        cf=lambda t, c=c: np.sinc(c * np.asarray(t, float) / np.pi),
        moment=moment,
        half_width=c,
    )


def laplace_source(b: float = 1.0) -> SourceDistribution:
    """Laplace(0, b): the fixed point of the symmetric-equilibrium transform."""
    params = laplace.LaplaceParams(0.0, b)

    def gamma2(rng, n, b=b):
        # |Y| and |Z| are both Gamma(2, b): X_P is Laplace(0, b) again
        return _signed(rng, b * rng.standard_gamma(np.full(n, 2.0)))

    def zero_bias(rng, n, b=b):
        # density (|x|+b) exp(-|x|/b)/(4 b^2): equal mixture of Gamma(1, b)
        # and Gamma(2, b) magnitudes with random sign.
        shape = 1.0 + (rng.random(n) < 0.5)
        return _signed(rng, b * rng.standard_gamma(shape))

    def sum_sampler(rng, counts, b=b):
        # Laplace = difference of two Exp(b); a sum of n of them is the
        # difference of two Gamma(n, b) variables.
        return b * (rng.standard_gamma(counts) - rng.standard_gamma(counts))

    return SourceDistribution(
        label=f"laplace({b:g})",
        sigma2=2.0 * b ** 2, abs_mean=b, abs_third=6.0 * b ** 3,
        sampler=lambda rng, n, params=params: laplace.draw(rng, n, params),
        y_sampler=gamma2,
        z_sampler=gamma2,
        zero_bias_sampler=zero_bias,
        density=lambda x, params=params: laplace.pdf(x, params),
        cf=lambda t, params=params: laplace.char_fn(t, params),
        moment=lambda k, params=params: laplace.moment(k, params),
        sum_sampler=sum_sampler,
    )


def from_density(label: str, density, *, half_width: float = math.inf,
                 tail_scale: Optional[float] = None) -> SourceDistribution:
    """Numeric transform recipes for a symmetric density.

    The sign-bias magnitude |Y| ~ 2 y f(y)/E|X| and the equilibrium magnitude
    |Z| ~ 2 z S(z)/(E|X| beta) (S = one-sided survival) get their CDFs
    tabulated on an 8193-point grid and inverted with a monotone cubic; the
    grid is built once and immutable, so samplers are safe for concurrent use.
    """
    if math.isinf(half_width):
        if tail_scale is None:
            raise ValueError("tail_scale is required for unbounded support")
        top = 60.0 * tail_scale
    else:
        top = half_width

    grid = np.linspace(0.0, top, 8193)
    dens = lambda y: np.asarray(density(y), float)
    mass = cumulative_integral(dens, grid)            # int_0^y f
    first = cumulative_integral(lambda y: y * dens(y), grid)
    second = cumulative_integral(lambda y: y ** 2 * dens(y), grid)
    alpha = 2.0 * first[-1]
    sigma2 = 2.0 * second[-1]
    abs_third = 2.0 * cumulative_integral(lambda y: y ** 3 * dens(y), grid)[-1]
    if not 0 < alpha < math.inf:
        raise ValueError("density must have positive finite E|X|")

    survival = np.maximum(mass[-1] - mass, 0.0)       # int_y^top f
    # int_0^y z S(z) dz = y^2 S(y)/2 + int_0^y z^2 f(z)/2 dz  (by parts);
    # everything stays on the grid, no interpolation error enters the CDF.
    y_cdf = first / first[-1]
    z_cdf_raw = grid ** 2 * survival / 2.0 + second / 2.0
    z_cdf = z_cdf_raw / z_cdf_raw[-1]

    def _inverse(cdf_vals, grid=grid):
        # running max guards against ~1e-14 wiggles where the tabulated tail
        # saturates; flats are then deduplicated for the monotone interpolant
        from scipy.interpolate import PchipInterpolator

        vals = np.maximum.accumulate(cdf_vals)
        keep = np.concatenate([[True], np.diff(vals) > 0])
        return PchipInterpolator(vals[keep], grid[keep], extrapolate=False)

    y_inv, z_inv = _inverse(y_cdf), _inverse(z_cdf)

    def make_sampler(inv):
        def sampler(rng, n, inv=inv):
            return _signed(rng, np.asarray(inv(rng.random(n)), float))
        return sampler

    def base_sampler(rng, n):
        mag = np.interp(rng.random(n), mass / mass[-1], grid)
        return _signed(rng, mag)

    return SourceDistribution(
        label=label, sigma2=sigma2, abs_mean=alpha, abs_third=abs_third,
        sampler=base_sampler,
        y_sampler=make_sampler(y_inv),
        z_sampler=make_sampler(z_inv),
        density=dens, half_width=half_width,
    )


@dataclass(frozen=True)
class TransformSample:
    """Draws from one transform of one source, reproducible from its seed."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    std_error: float


def mc_estimate(values) -> MonteCarloEstimate:
    """Mean of a sample with its standard error."""
    arr = np.asarray(values, float)
    n = arr.size
    if n == 0:
        raise ValueError("cannot estimate from an empty sample")
    se = float(np.std(arr, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return MonteCarloEstimate(value=float(np.mean(arr)), std_error=se)


def _transform_stream(src, n, seed, recipe, transform):
    """The substream for n draws of one transform of src, once the sample
    size and the source's recipe for that transform have been checked."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    if recipe is None:
        raise UnsupportedSourceError(
            f"{src.label}: no {transform} recipe available")
    return substream(seed, transform, src.label)


def _product_sample(src, n, seed, magnitude_sampler, transform):
    rng = _transform_stream(src, n, seed, magnitude_sampler, transform)
    u = rng.random(n)
    factor = magnitude_sampler(rng, n)
    return TransformSample(values=u * factor)


def sgn_bias_sample(src: SourceDistribution, n: int, seed: int) -> TransformSample:
    """Draws of X_P = U1 * Y, with Y the |y|-reweighted source."""
    return _product_sample(src, n, seed, src.y_sampler, "sgn-bias")


def sym_equilibrium_sample(src: SourceDistribution, n: int,
                           seed: int) -> TransformSample:
    """Draws of X_L = U2 * Z, with Z the |z|-reweighted sign-bias law."""
    return _product_sample(src, n, seed, src.z_sampler, "symmetric-equilibrium")


def zero_bias_sample(src: SourceDistribution, n: int, seed: int) -> TransformSample:
    """Draws from the zero-bias law of the source (exact recipes only)."""
    rng = _transform_stream(src, n, seed, src.zero_bias_sampler, "zero-bias")
    return TransformSample(values=np.asarray(src.zero_bias_sampler(rng, n)))


def equilibrium_moment(k: int, src: SourceDistribution) -> float:
    """E[(X_L)^k] = mu_{k+2} / (b^2 (k+2)(k+1)) with b^2 = E[X^2]/2."""
    if src.moment is None:
        raise UnsupportedSourceError(f"{src.label}: moments unknown")
    b2 = src.sigma2 / 2.0
    return src.moment(k + 2) / (b2 * (k + 2.0) * (k + 1.0))


_CF_SERIES_CUTOFF = 1e-4


def equilibrium_cf(t, src: SourceDistribution):
    """Characteristic function (1 - cf_X(t)) / (t^2 b^2) of X_L (real sources).

    Below |t| = 1e-4 the 0/0 cancellation is replaced by the second-order
    series 1 - t^2 E[(X_L)^2] / 2.
    """
    if src.cf is None:
        raise UnsupportedSourceError(f"{src.label}: characteristic fn unknown")
    arr = np.atleast_1d(np.asarray(t, float))
    b2 = src.sigma2 / 2.0
    out = np.empty_like(arr)
    small = np.abs(arr) < _CF_SERIES_CUTOFF
    if np.any(small):
        m2 = equilibrium_moment(2, src)
        out[small] = 1.0 - arr[small] ** 2 * m2 / 2.0
    big = ~small
    if np.any(big):
        out[big] = (1.0 - np.asarray(src.cf(arr[big]), float)) / (
            arr[big] ** 2 * b2)
    return float(out[0]) if np.ndim(t) == 0 else out


def equilibrium_density(s, src: SourceDistribution) -> float:
    """Density of X_L at s.

    The double-integral representation
        f_{X_L}(s) = (s^2/b^2) int_0^1 int_0^1 u^-2 v^-3 f_X(s/(uv)) du dv
    collapses, after substituting w = uv and then z = s/w, to the tail form
        f_{X_L}(s) = (1/b^2) int_s^inf (z - s) f_X(z) dz        (s > 0)
    and its mirror image for s < 0; s = 0 is the continuous limit
    (1/b^2) int_0^inf z f_X(z) dz.  This is what gets evaluated here;
    :func:`equilibrium_density_2d` keeps the raw tensor quadrature as an
    independent cross-check.
    """
    from scipy import integrate

    if src.density is None:
        raise UnsupportedSourceError(f"{src.label}: no density available")
    s = float(s)
    b2 = src.sigma2 / 2.0
    hw = src.half_width
    if abs(s) >= hw:
        return 0.0
    if s >= 0.0:
        top = hw if math.isfinite(hw) else np.inf
        val, err = integrate.quad(lambda z: (z - s) * float(src.density(z)),
                                  s, top, limit=200, epsabs=1e-12,
                                  epsrel=1e-11)
    else:
        bottom = -hw if math.isfinite(hw) else -np.inf
        val, err = integrate.quad(lambda z: (s - z) * float(src.density(z)),
                                  bottom, s, limit=200, epsabs=1e-12,
                                  epsrel=1e-11)
    if err / b2 > 1e-6 * max(1.0, abs(val) / b2):
        raise QuadratureError("equilibrium density tail integral diverged",
                              residual=err / b2)
    return val / b2


def equilibrium_density_2d(s, src: SourceDistribution) -> float:
    """Tensor-product adaptive quadrature of the raw double integral.

    Substituting u = exp(-a), v = exp(-r) turns the (0,1)^2 integral with its
    endpoint singularity into

        int_0^inf int_0^inf exp(a + 2r) f(s exp(a+r)) da dr,

    a smooth integrand that vanishes once |s| exp(a+r) leaves the support (or
    the exponential tail); for bounded support the live region is exactly the
    triangle a + r <= log(hw/|s|).
    """
    from scipy import integrate

    if src.density is None:
        raise UnsupportedSourceError(f"{src.label}: no density available")
    s = float(s)
    if s == 0.0:
        return equilibrium_density(0.0, src)
    b2 = src.sigma2 / 2.0
    hw = src.half_width
    if abs(s) >= hw:
        return 0.0

    def integrand(r, a):
        return math.exp(a + 2.0 * r) * float(src.density(s * math.exp(a + r)))

    if math.isfinite(hw):
        top = math.log(hw / abs(s))
        val, _ = integrate.dblquad(integrand, 0.0, top,
                                   0.0, lambda a: top - a,
                                   epsabs=1e-8, epsrel=1e-10)
    else:
        top = math.log(80.0 * math.sqrt(src.sigma2) / abs(s))
        val, _ = integrate.dblquad(integrand, 0.0, max(top, 1.0),
                                   0.0, max(top, 1.0),
                                   epsabs=1e-8, epsrel=1e-10)
    return s ** 2 * val / b2


def verify_zero_bias_relation(src: SourceDistribution, f_dd, n: int,
                              seed: int) -> MonteCarloEstimate:
    """Monte Carlo check of (1/2) E[f''(X_L)] = E[U f''(U X_z)].

    Both sides are estimated on independent substreams; the returned estimate
    should be zero within a few combined standard errors.
    """
    left = sym_equilibrium_sample(src, n, seed)
    xz = zero_bias_sample(src, n, derive_seed(seed, "zero-bias-relation"))
    rng = substream(seed, "zero-bias-relation", src.label)
    u = rng.random(n)
    lhs = mc_estimate(0.5 * f_dd(left.values))
    rhs = mc_estimate(u * f_dd(u * xz.values))
    return MonteCarloEstimate(
        value=lhs.value - rhs.value,
        std_error=math.hypot(lhs.std_error, rhs.std_error))


@lru_cache(maxsize=None)
def builtin_sources(b: float = 1.0) -> tuple:
    """The stock source triple at matched variance 2 b^2."""
    return (rademacher(math.sqrt(2.0) * b),
            uniform_symmetric(math.sqrt(6.0) * b),
            laplace_source(b))
