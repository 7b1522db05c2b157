"""Distances between an empirical sample and a Laplace target.

The Kolmogorov statistic is the exact supremum over the empirical CDF.  The
bounded-Lipschitz distance is not computable over the full ball, so it gets
bracketed: a certified finite family yields a lower bound (a supremum over a
subfamily), and the order-statistics Wasserstein distance yields an upper
proxy, since the ball sits inside the 1-Lipschitz class.  The conversion
``kolmogorov_from_bl`` turns any bounded-Lipschitz bound into a Kolmogorov
bound through the target's density sup C:

    d_K <= min( (C+2)/2 * sqrt(d_BL),  (3/2) * sqrt(C * d_BL) if C >= 1 ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laplace import LaplaceParams, cdf
from .stein import _cached_wh, require_hbl


@dataclass(frozen=True)
class EmpiricalSample:
    """A sorted sample; estimators below are deterministic functionals of it."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sample must be a nonempty 1-d array")
        if np.any(np.diff(arr) < 0):
            raise ValueError("sample values must be sorted ascending")
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        return cls(values=np.sort(np.asarray(values, dtype=float)))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DistanceEstimate:
    kind: str  # "d_K" | "d_BL_lower" | "d_W_upper"
    value: float
    std_error: float = 0.0
    family_size: int = 0


def dkw_band(n: int, alpha: float = 0.05) -> float:
    """Two-sided DKW deviation band: sqrt(log(2/alpha)/(2n)) (~1.36/sqrt(n)
    at 95%)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def within_four_se(observed: float, limit: float, std_error: float) -> bool:
    """The 4-standard-error rule, observed <= limit + 4 std_error; checked
    two-sided as within_four_se(abs(estimate - exact), 0.0, std_error)."""
    return bool(observed <= limit + 4.0 * std_error)


def kolmogorov_empirical(s: EmpiricalSample,
                         target: LaplaceParams) -> DistanceEstimate:
    """Exact sup-distance between the empirical CDF and the target CDF."""
    n = s.n
    f = np.asarray(cdf(s.values, target))
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return DistanceEstimate(kind="d_K", value=float(max(upper, lower)))


def bl_lower_bound(s: EmpiricalSample, target: LaplaceParams,
                   family) -> DistanceEstimate:
    """max_h |mean h(sample) - E h(W)| over a certified family.

    This is a supremum over a subfamily of the bounded-Lipschitz ball, hence
    a lower bound on the distance itself.  The reported standard error is the
    largest per-member standard error of the sample means.
    """
    family = tuple(family)
    if not family:
        raise ValueError("family must be nonempty (sup over the empty set)")
    for h in family:
        require_hbl(h)
    if target.a != 0.0:
        raise ValueError("target expectations are implemented for a=0")
    best = -1.0
    worst_se = 0.0
    sqrt_n = math.sqrt(s.n)
    for h in family:
        vals = np.asarray(h.fn(s.values), dtype=float)
        diff = abs(float(np.mean(vals)) - _cached_wh(h, target.b))
        best = max(best, diff)
        if s.n > 1:
            worst_se = max(worst_se, float(np.std(vals, ddof=1)) / sqrt_n)
    return DistanceEstimate(kind="d_BL_lower", value=best,
                            std_error=worst_se, family_size=len(family))


def _quantile_antiderivative(u, params: LaplaceParams):
    """P(u) = int_0^u Q(t) dt in closed form (Q = target quantile)."""
    u = np.asarray(u, dtype=float)
    a, b = params.a, params.b
    out = np.empty_like(u)
    lo = u <= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        ul = u[lo]
        out[lo] = a * ul + b * np.where(ul > 0, ul * np.log(2.0 * ul) - ul, 0.0)
        sr = 1.0 - u[~lo]
        out[~lo] = a * u[~lo] + b * np.where(
            sr > 0, sr * np.log(2.0 * sr) - sr, 0.0)
    return out


def wasserstein_empirical(s: EmpiricalSample,
                          target: LaplaceParams) -> DistanceEstimate:
    """Order-statistics transport cost int_0^1 |Fn^-1(u) - Q(u)| du.

    On each quantile strip [(i-1)/n, i/n] the integrand changes sign at most
    once (at u = F(x_i)); both pieces use the closed-form antiderivative of
    the target quantile, so no inner quadrature error enters.
    """
    n = s.n
    x = s.values
    levels = np.arange(0, n + 1) / n
    cross = np.clip(np.asarray(cdf(x, target)), levels[:-1], levels[1:])
    p_lo = _quantile_antiderivative(levels[:-1], target)
    p_hi = _quantile_antiderivative(levels[1:], target)
    p_cr = _quantile_antiderivative(cross, target)
    strip = (x * (cross - levels[:-1]) - (p_cr - p_lo)) \
        + ((p_hi - p_cr) - x * (levels[1:] - cross))
    return DistanceEstimate(kind="d_W_upper", value=float(np.sum(strip)))


def kolmogorov_from_bl(d_bl: float, density_sup: float) -> float:
    """Convert a bounded-Lipschitz distance bound into a Kolmogorov bound.

    Returns (C+2)/2 * sqrt(d_bl), improved to (3/2) * sqrt(C * d_bl) when the
    density bound C is at least 1 (whichever is smaller).
    """
    if d_bl < 0:
        raise ValueError("distance must be nonnegative")
    if density_sup <= 0:
        raise ValueError("density bound must be positive")
    value = (density_sup + 2.0) / 2.0 * math.sqrt(d_bl)
    if density_sup >= 1.0:
        value = min(value, 1.5 * math.sqrt(density_sup * d_bl))
    return value
