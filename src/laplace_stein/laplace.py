"""The Laplace(0, b) law: CDF, quantile, sampler, characteristic function.

Conventions: density (1/(2b)) exp(-|w|/b), variance 2*b**2.  Random sums of
mean-zero summands are approximated by this law, so it has no location.  Its
moments E|W|^k = b^k k! are ``transforms.laplace_source(b).abs_moment``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# values per block of the n-length kernels, here and in ``metrics`` and
# ``transforms``: their temporaries are arrays of 512 KiB, a few at a time,
# however large the sample is
_BLOCK = 1 << 16


@dataclass(frozen=True)
class LaplaceParams:
    """The scale b of a centred Laplace law; its location a must be 0."""

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.a != 0.0:  # nan included
            raise ValueError(f"location a must be 0, got a={self.a}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"scale must be in (0, inf), got b={self.b}")


def _maybe_scalar(arr, like):
    return float(arr) if np.isscalar(like) or np.ndim(like) == 0 else arr


def cdf(w, params: LaplaceParams):
    """Distribution function; the two exponential branches meet at cdf(0) = 1/2.

    Both branches are read off one exp(-|z|): it is exp(z) for z <= 0 and
    exp(-z) for z > 0.
    """
    arr = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite")
    z = arr / params.b
    half = 0.5 * np.exp(-np.abs(z))
    out = np.where(z <= 0, half, 1.0 - half)
    return _maybe_scalar(out, w)


def _quantile_in_place(levels, params: LaplaceParams):
    """``levels``, a contiguous float array in (0, 1), overwritten by their
    quantiles: b log(2q) below 1/2, -b log(2(1 - q)) from 1/2 on.

    1 - q is exact for q >= 1/2, so min(q, 1 - q) is q below 1/2 and
    1 - q from 1/2 on; the upper branch's sign bit is XORed in.  The work
    runs a block at a time, so its temporaries are a block long.
    """
    flat = levels.reshape(-1)
    for start in range(0, flat.shape[0], _BLOCK):
        q = flat[start:start + _BLOCK]
        sign = (q >= 0.5).astype(np.uint64)
        sign <<= 63
        np.minimum(q, np.subtract(1.0, q), out=q)
        q *= 2.0
        np.log(q, out=q)
        q *= params.b
        bits = q.view(np.uint64)
        bits ^= sign
    levels += 0.0  # the -0.0 at q = 1/2 becomes 0.0
    return levels


def quantile(q, params: LaplaceParams):
    """Inverse CDF via the closed-form log branches (no iteration)."""
    arr = np.array(q, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile level must lie in (0, 1)")
    return _maybe_scalar(_quantile_in_place(arr, params), q)


def draw(rng, n: int, params: LaplaceParams) -> np.ndarray:
    """n draws from rng by inverse transform, formed in the uniforms' storage.

    The uniforms are drawn independently of b, so the same stream at scale
    c*b yields exactly c times the values (the quantile is linear in b).
    """
    u = rng.random(n)
    np.maximum(u, 2.0 ** -53, out=u)  # quantile(0) = -inf
    return _quantile_in_place(u, params)


def char_fn(t, params: LaplaceParams):
    """Characteristic function 1/(1 + b^2 t^2) (real-valued)."""
    arr = np.asarray(t, dtype=float)
    out = 1.0 / (1.0 + (params.b * arr) ** 2)
    return _maybe_scalar(out, t)
