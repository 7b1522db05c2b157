"""Sign-bias and symmetric-equilibrium transforms with exact per-source recipes.

For a mean-zero source X with P{X<0} = P{X>0} = 1/2, the sign-biased variable
is X_P = U1*Y with U1 ~ Uniform(0,1) independent of Y, where Y has density
|y| f_X(y) / E|X|.  Applying the same |.|-reweighting to the law of X_P gives
the symmetric-equilibrium variable X_L = U2*Z, Z ~ |z| f_{X_P}(z) / E|X_P|.
X_L is characterized by E[f(X)] - f(0) = (1/2) E[X^2] E[f''(X_L)] for smooth
f, and Laplace(0, b) is the fixed point of X -> X_L.

Y and Z are symmetric, so each built-in source carries only the magnitudes
|Y| and |Z|, in closed form; a transform draws its uniforms, then the
magnitudes, then one random sign per value:

  rademacher(c)        |Y| = c, so X_P ~ Uniform(-c, c);
                       |Z| = c*sqrt(U) (density 2z/c^2 on (0, c)).
  uniform_symmetric(c) |Y| = c*sqrt(U); X_P is triangular with density
                       (c-|x|)/c^2; |Z|/c has CDF 3r^2 - 2r^3, inverted in
                       closed form by r = 1/2 - sin(arcsin(1-2u)/3).
  laplace_source(b)    |Y| ~ Gamma(2, b); X_P is again Laplace(0, b) (the
                       sign-bias fixed point), hence |Z| ~ Gamma(2, b) too.

Each built-in source also samples its zero-bias law (E[X f(X)] =
E[X^2] E[f'(X_z)]) exactly: Rademacher(+-c) gives Uniform(-c, c), the
symmetric uniform gives the Epanechnikov law (median of three uniforms), and
Laplace(0, b) gives the equal mixture of +-Exp(b) and +-Gamma(2, b)
magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import laplace
from .metrics import _BLOCK, DistanceEstimate, _mean_sd
from .seeding import derive_seed, substream


@dataclass(frozen=True, eq=False)
class SourceDistribution:
    """A mean-zero, sign-balanced summand law with its transform recipes.

    ``abs_moment`` (k -> E|X|^k) is the one moment recipe: ``sigma2``,
    ``abs_mean`` and ``abs_third`` (E[X^2], E|X| and E|X|^3) are read from
    it when the source is built, and E[X^k] is it at even k, 0 at odd k.
    The four transform recipes are required: ``y_magnitude`` and
    ``z_magnitude`` (callables (rng, n) -> |Y| or |Z|, n values >= 0; Y and
    Z are symmetric, so one step signs them), ``zero_bias_sampler`` (a
    callable (rng, n) -> ndarray, like ``sampler``) and ``cf``
    (t -> E[cos(tX)]).
    ``sum_sampler`` is the one optional recipe: it takes (rng, counts) and
    returns one row sum per count, used as an exact fast path for random
    sums; it may write the sums over the storage of int64 ``counts``, which
    the caller then gives up.
    ``one_word_draws`` declares that ``sampler(rng, n)`` takes exactly one
    64-bit word of the bit stream per value (value i from word i), so any
    range of its draws can be made from a generator advanced to the range's
    first word.
    """

    label: str
    abs_moment: Callable
    sampler: Callable
    y_magnitude: Callable
    z_magnitude: Callable
    zero_bias_sampler: Callable
    cf: Callable
    sum_sampler: Optional[Callable] = None
    one_word_draws: bool = False
    sigma2: float = field(init=False)
    abs_mean: float = field(init=False)
    abs_third: float = field(init=False)

    def __post_init__(self):
        for k, name in ((2, "sigma2"), (1, "abs_mean"), (3, "abs_third")):
            object.__setattr__(self, name, self.abs_moment(k))

    @property
    def b_equiv(self) -> float:
        """Scale of the Laplace law with matching variance: E[X^2] = 2 b^2."""
        return math.sqrt(self.sigma2 / 2.0)


def _map_blocks(f, x, out=None):
    """``out`` (x itself by default) written in order a block at a time by
    f of x's block, for an elementwise f; a block is read before it is
    written, so ``out`` may share x's storage."""
    out = x if out is None else out
    for start in range(0, x.shape[0], _BLOCK):
        out[start:start + _BLOCK] = f(x[start:start + _BLOCK])
    return out


def _signed(rng, magnitudes):
    """Float64 ``magnitudes``, negated in place where ``rng.integers(0, 2)``
    draws 0.

    The integers are drawn a block at a time; each is one 32-bit half-word
    of the bit stream, so the blocks take the words one call would.  A draw
    d becomes the sign bit (d ^ 1) << 63, XORed into the value's bits: the
    bits np.negative gives, without a masked ufunc's cost per value.
    """
    def flip(block):
        sign = rng.integers(0, 2, block.shape[0])
        sign ^= 1
        sign <<= 63
        bits = block.view(np.uint64)
        bits ^= sign.view(np.uint64)
        return block

    return _map_blocks(flip, magnitudes)


def _over_counts(counts, f=lambda block: block):
    """f of int64 ``counts`` as float64, written over their storage a block
    at a time (the counts themselves by default)."""
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    return _map_blocks(f, counts, out=counts.view(np.float64))


def _binomial_walks(rng, counts, c):
    """c (2K - N) for K ~ Binomial(N, 1/2) per count N, written over the
    int64 counts' storage.  Each binomial takes words from the stream in
    turn, so the blocks take the words one call over all the counts would,
    and each value is that call's c * (2.0 K - N)."""
    def walk(block):
        out = 2.0 * rng.binomial(block, 0.5)
        out -= block
        out *= c
        return out

    return _over_counts(counts, walk)


def _scaled_sqrt_uniform(rng, n, c):
    """c * sqrt(U) for n uniforms U, formed in the uniforms' storage."""
    r = rng.random(n)
    np.sqrt(r, out=r)
    r *= c
    return r


def rademacher(c: float = 1.0) -> SourceDistribution:
    """Two equal atoms at +-c."""
    if c <= 0:
        raise ValueError("atom magnitude must be positive")

    return SourceDistribution(
        label=f"rademacher({c:g})",
        abs_moment=lambda k, c=c: c ** k,
        sampler=lambda rng, n, c=c: _signed(rng, np.full(n, float(c))),
        # |Y| = c: the |y|-reweighting leaves the law of X
        y_magnitude=lambda rng, n, c=c: np.full(n, float(c)),
        z_magnitude=lambda rng, n, c=c: _scaled_sqrt_uniform(rng, n, c),
        zero_bias_sampler=lambda rng, n, c=c: rng.uniform(-c, c, n),
        cf=lambda t, c=c: np.cos(c * np.asarray(t, float)),
        sum_sampler=lambda rng, counts, c=c: _binomial_walks(rng, counts, c),
    )


def _smoothstep_inverse(u, out=None):
    """Solve 3r^2 - 2r^3 = u on [0, 1], into ``out`` if given (u itself may
    be ``out``): r = 1/2 - sin(arcsin(1 - 2u)/3)."""
    r = np.multiply(np.asarray(u, float), 2.0, out=out)
    np.subtract(1.0, r, out=r)
    np.arcsin(r, out=r)
    np.divide(r, 3.0, out=r)
    np.sin(r, out=r)
    return np.subtract(0.5, r, out=r)


def uniform_symmetric(c: float = 1.0) -> SourceDistribution:
    """Uniform(-c, c)."""
    if c <= 0:
        raise ValueError("half width must be positive")

    def zero_bias(rng, n, c=c):
        # Epanechnikov on (-c, c) = c * median of three Uniform(-1, 1); the
        # median of a, b, d is max(min(a, b), min(max(a, b), d)), the value
        # np.median(..., axis=1) returns, without its partition copy.  Rows
        # are drawn a block at a time; a (m, 3) draw takes 3m values in row
        # order, so the blocks hold the rows of one (n, 3) draw
        def median(block):
            a, b, d = rng.uniform(-1.0, 1.0, (block.shape[0], 3)).T
            return np.maximum(np.minimum(a, b),
                              np.minimum(np.maximum(a, b), d), out=block)

        out = _map_blocks(median, np.empty(n))
        out *= c
        return out

    def z_magnitude(rng, n, c=c):
        r = rng.random(n)
        _smoothstep_inverse(r, out=r)
        r *= c
        return r

    def draw(rng, n, c=c):
        # rng.uniform(-c, c, n) forms -c + (c - -c) * u from u = rng.random()
        # value by value; the same two roundings over the whole array give
        # its bits without its per-value call
        u = rng.random(n)
        u *= c - -c
        u += -c
        return u

    return SourceDistribution(
        label=f"uniform({c:g})",
        abs_moment=lambda k, c=c: c ** k / (k + 1.0),
        sampler=draw,
        y_magnitude=lambda rng, n, c=c: _scaled_sqrt_uniform(rng, n, c),
        z_magnitude=z_magnitude,
        zero_bias_sampler=zero_bias,
        cf=lambda t, c=c: np.sinc(c * np.asarray(t, float) / np.pi),
        one_word_draws=True,  # draw: one rng.random per value
    )


def laplace_source(b: float = 1.0) -> SourceDistribution:
    """Laplace(0, b): the fixed point of the symmetric-equilibrium transform."""
    params = laplace.LaplaceParams(0.0, b)

    def gamma2(rng, n, b=b):
        # |Y| and |Z| are both Gamma(2, b): X_P is Laplace(0, b) again
        g = rng.standard_gamma(2.0, n)
        g *= b
        return g

    def zero_bias(rng, n, b=b):
        # density (|x|+b) exp(-|x|/b)/(4 b^2): equal mixture of Gamma(1, b)
        # and Gamma(2, b) magnitudes with random sign.  The shapes
        # 1 + (U < 1/2) are formed in the uniforms' storage, and the gammas
        # drawn over them: each value reads its shape before it is written
        g = rng.random(n)
        np.less(g, 0.5, out=g)
        g += 1.0
        rng.standard_gamma(g, out=g)
        g *= b
        return _signed(rng, g)

    def sum_sampler(rng, counts, b=b):
        # Laplace = difference of two Exp(b); a sum of n of them is the
        # difference of two Gamma(n, b) variables.  The second gamma is
        # drawn over the float shapes (each value reads its shape before it
        # is written): the bits of b * (g1 - g2) beside one new array
        shape = _over_counts(counts)
        g = rng.standard_gamma(shape)
        rng.standard_gamma(shape, out=shape)
        g -= shape
        g *= b
        return g

    return SourceDistribution(
        label=f"laplace({b:g})",
        abs_moment=lambda k, b=b: b ** k * math.factorial(k),
        sampler=lambda rng, n, params=params: laplace.draw(rng, n, params),
        y_magnitude=gamma2,
        z_magnitude=gamma2,
        zero_bias_sampler=zero_bias,
        cf=lambda t, params=params: laplace.char_fn(t, params),
        sum_sampler=sum_sampler,
        one_word_draws=True,  # laplace.draw: one rng.random per value
    )


@dataclass(frozen=True)
class TransformSample:
    """Draws from one transform of one source, reproducible from its seed."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


def mc_estimate(values, fn=lambda v: v) -> DistanceEstimate:
    """Mean of fn of a sample with its standard error, with the bits of
    np.mean and of np.std(ddof=1) / sqrt(n) of fn(values), for an
    elementwise fn (``metrics._mean_sd``).  fn runs a block at a time, once
    in each of the two sums, so fn(values) is never held whole and
    ``values`` is left as it is."""
    arr = np.asarray(values, float).ravel()
    n = arr.shape[0]
    if n == 0:
        raise ValueError("cannot estimate from an empty sample")
    mean, sd = _mean_sd(n, lambda g: lambda i, j: g(arr[i:j]), fn)
    return DistanceEstimate(
        value=mean, std_error=sd / math.sqrt(n) if n > 1 else math.inf)


def _transform_stream(src, n, seed, transform):
    """The substream for n draws of one transform of src, once the sample
    size has been checked."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    return substream(seed, transform, src.label)


def _product_sample(src, n, seed, magnitude, transform):
    """n draws of U times a signed magnitude, in the uniforms' storage.

    The stream gives all the uniforms, then all the magnitudes, then all
    the signs.  The magnitudes are drawn and multiplied in a block at a
    time, taking the words one call would, and the products are then
    signed: U (-m) is -(U m) exactly, so no second n-array is needed.
    """
    rng = _transform_stream(src, n, seed, transform)
    u = _map_blocks(lambda block: np.multiply(
        block, magnitude(rng, block.shape[0]), out=block), rng.random(n))
    return TransformSample(values=_signed(rng, u))


def sgn_bias_sample(src: SourceDistribution, n: int, seed: int) -> TransformSample:
    """Draws of X_P = U1 * Y, with Y the |y|-reweighted source."""
    return _product_sample(src, n, seed, src.y_magnitude, "sgn-bias")


def sym_equilibrium_sample(src: SourceDistribution, n: int,
                           seed: int) -> TransformSample:
    """Draws of X_L = U2 * Z, with Z the |z|-reweighted sign-bias law."""
    return _product_sample(src, n, seed, src.z_magnitude,
                           "symmetric-equilibrium")


def zero_bias_sample(src: SourceDistribution, n: int, seed: int) -> TransformSample:
    """Draws from the zero-bias law of the source."""
    rng = _transform_stream(src, n, seed, "zero-bias")
    return TransformSample(values=np.asarray(src.zero_bias_sampler(rng, n)))


def equilibrium_moment(k: int, src: SourceDistribution) -> float:
    """E[(X_L)^k] = mu_{k+2} / (b^2 (k+2)(k+1)) with b^2 = E[X^2]/2: 0.0 at
    odd k, as X_L is symmetric."""
    if k % 2:
        return 0.0
    return src.abs_moment(k + 2) / (src.sigma2 / 2.0 * (k + 2.0) * (k + 1.0))


_CF_SERIES_CUTOFF = 1e-4


def equilibrium_cf(t, src: SourceDistribution):
    """Characteristic function (1 - cf_X(t)) / (t^2 b^2) of X_L (real sources).

    Below |t| b = 1e-4, t on the source's own scale, the 0/0 cancellation
    is replaced by the second-order series 1 - t^2 E[(X_L)^2] / 2.
    """
    arr = np.atleast_1d(np.asarray(t, float))
    b2 = src.sigma2 / 2.0
    out = np.empty_like(arr)
    small = np.abs(arr) * math.sqrt(b2) < _CF_SERIES_CUTOFF
    if np.any(small):
        m2 = equilibrium_moment(2, src)
        out[small] = 1.0 - arr[small] ** 2 * m2 / 2.0
    big = ~small
    if np.any(big):
        out[big] = (1.0 - np.asarray(src.cf(arr[big]), float)) / (
            arr[big] ** 2 * b2)
    return float(out[0]) if np.ndim(t) == 0 else out


def verify_zero_bias_relation(src: SourceDistribution, f_dd, n: int,
                              seed: int) -> DistanceEstimate:
    """Monte Carlo check of (1/2) E[f''(X_L)] = E[U f''(U X_z)].

    Both sides are estimated on independent substreams; the returned estimate
    should be zero within a few combined standard errors.
    """
    # each draw has its own substream, so the left side is estimated and
    # its sample dropped before the right side is drawn.  Each side is
    # formed a block at a time in its sample's storage; the uniforms U take
    # one word each, so drawn a block at a time they keep their bits
    left = sym_equilibrium_sample(src, n, seed).values
    lhs = mc_estimate(_map_blocks(lambda x: 0.5 * f_dd(x), left))
    del left
    rng = substream(seed, "zero-bias-relation", src.label)

    def right(x):
        u = rng.random(x.shape[0])
        x *= u
        return u * f_dd(x)

    xz = zero_bias_sample(src, n, derive_seed(seed, "zero-bias-relation"))
    rhs = mc_estimate(_map_blocks(right, xz.values))
    return DistanceEstimate(
        value=lhs.value - rhs.value,
        std_error=math.hypot(lhs.std_error, rhs.std_error))


@lru_cache(maxsize=None)
def builtin_sources(b: float = 1.0) -> tuple:
    """The stock source triple at matched variance 2 b^2."""
    return (rademacher(math.sqrt(2.0) * b),
            uniform_symmetric(math.sqrt(6.0) * b),
            laplace_source(b))
