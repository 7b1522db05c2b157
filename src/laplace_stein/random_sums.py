"""Random sums, the variance-tilted auxiliary index, and certified error bounds.

A random sum S = X_1 + ... + X_N (N-valued index N independent of the
summands) scaled by 1/sqrt(E[N]) is approximately Laplace(0, sigma/sqrt(2 mu))
when the summands are mean zero and sign balanced.  The machinery here:

* ``m_distribution`` builds the auxiliary index M with
  P{M = m} = (sigma_m^2 / sigma^2) P{N >= m}, the survival-reweighted law
  under which swapping the M-th summand for its equilibrium transform turns
  the whole sum into an equilibrium transform of itself.

* ``general_sum_bound`` evaluates the three-term bounded-Lipschitz bound

      (mu^-1/2 + sqrt(8)/sigma) * ( E|X_M| + (1/3) E[|X_M|^3 / sigma_M^2]
                                    + sup_i sigma_i * E[|N-M|^(1/2)] ),

  ``iid_sum_bound`` its i.i.d. reduction with E[X_1^2] = 2 b^2,

      (b+2)/(b sqrt(mu)) * ( E|X_1| + rho/(6 b^2) + b sqrt(2) E[|N-M|^(1/2)] ),

  and ``geometric_sum_bound`` the geometric-index closed form, where M = N
  collapses the coupling term:

      sqrt(p) * (b+2)/b * ( b sqrt(2) + rho/(6 b^2) ).

* ``convergence_sweep`` drives the whole pipeline across a grid of geometric
  success probabilities and certifies the empirical distances against the
  bounds.

All bounds are reported alongside the trivial cap of 2 (test functions are
bounded by 1), flagging regimes where the formula is vacuous.  Every report's
``value`` is re-derivable from its ``components`` via ``recompute_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import TruncationError
from .laplace import LaplaceParams
from .metrics import (EmpiricalSample, bl_lower_bound, dkw_band,
                      kolmogorov_empirical, kolmogorov_from_bl,
                      wasserstein_empirical, within_four_se)
from .seeding import derive_seed, substream
from .stein import dense_bl_family
from .transforms import SourceDistribution

_TAIL_TOL = 1e-10
_GAP_TAIL = 1e-24


@dataclass(frozen=True)
class GeometricIndex:
    """N ~ Geometric(p) on {1, 2, ...}: P{N = m} = p (1-p)^(m-1)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("success probability must lie in (0, 1]")

    @property
    def mean(self) -> float:
        return 1.0 / self.p

    def survival(self, m):
        """P{N >= m} for m >= 1."""
        return (1.0 - self.p) ** (np.asarray(m) - 1)

    def pmf(self, m):
        return self.p * self.survival(m)

    def sample(self, rng, n: int):
        return rng.geometric(self.p, n)

    def tail(self, k: int) -> float:
        """P{N > k}, computed analytically (no summation noise)."""
        return (1.0 - self.p) ** k

    def truncation_for(self, tail: float) -> int:
        if self.p == 1.0:
            return 1
        return max(1, math.ceil(math.log(tail) / math.log1p(-self.p)))


@dataclass(frozen=True)
class ExplicitIndex:
    """N with an explicit pmf over {1, ..., len(probs)}."""

    probs: tuple

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0 or np.any(arr < 0):
            raise ValueError("pmf must be a nonempty nonnegative vector")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError("pmf must sum to 1 within 1e-12")
        object.__setattr__(self, "probs", tuple(float(q) for q in arr))

    @property
    def mean(self) -> float:
        return float(np.dot(np.arange(1, len(self.probs) + 1), self.probs))

    def survival(self, m):
        arr = np.asarray(self.probs)
        surv = np.concatenate([np.cumsum(arr[::-1])[::-1], [0.0]])
        idx = np.clip(np.asarray(m) - 1, 0, len(self.probs))
        return surv[idx]

    def pmf(self, m):
        arr = np.asarray(self.probs + (0.0,))
        idx = np.clip(np.asarray(m) - 1, 0, len(self.probs))
        return arr[idx]

    def sample(self, rng, n: int):
        return rng.choice(len(self.probs), size=n, p=self.probs) + 1

    def tail(self, k: int) -> float:
        return 0.0 if k >= len(self.probs) else float(sum(self.probs[k:]))

    def truncation_for(self, tail: float) -> int:
        return len(self.probs)


def fixed_index(k: int) -> ExplicitIndex:
    """N identically equal to k."""
    if k < 1:
        raise ValueError("index value must be at least 1")
    return ExplicitIndex(probs=(0.0,) * (k - 1) + (1.0,))


Index = Union[GeometricIndex, ExplicitIndex]


@dataclass(frozen=True, eq=False)
class Summands:
    """Summand sequence: a base source scaled per index (cyclically).

    ``scales = (1,)`` is the i.i.d. case; otherwise X_i = scales[(i-1) mod L]
    times an independent copy of the base, so sigma_i^2 = scales_i^2 E[X^2].
    """

    base: SourceDistribution
    scales: tuple = (1.0,)

    def __post_init__(self):
        arr = tuple(float(s) for s in self.scales)
        if not arr or any(not math.isfinite(s) or s < 0 for s in arr):
            raise ValueError("scales must be finite and nonnegative")
        object.__setattr__(self, "scales", arr)

    @property
    def is_iid(self) -> bool:
        return len(set(self.scales)) == 1

    def scale_at(self, m):
        idx = (np.asarray(m) - 1) % len(self.scales)
        return np.asarray(self.scales)[idx]

    def sigma2_at(self, m):
        return self.scale_at(m) ** 2 * self.base.sigma2

    def abs_mean_at(self, m):
        return self.scale_at(m) * self.base.abs_mean

    def abs_third_at(self, m):
        return self.scale_at(m) ** 3 * self.base.abs_third

    @property
    def sup_sigma(self) -> float:
        return max(self.scales) * math.sqrt(self.base.sigma2)


@dataclass(frozen=True, eq=False)
class RandomSumSpec:
    """Index law plus summand descriptor; the sum is scaled by 1/sqrt(E[N])."""

    index: Index
    summands: Summands

    def sigma2_total(self) -> float:
        """sigma^2 = E[sum_{i<=N} sigma_i^2] = sum_m P{N>=m} sigma_m^2."""
        sm = self.summands
        if sm.is_iid:
            return sm.sigma2_at(1) * self.index.mean
        if isinstance(self.index, ExplicitIndex):
            m = np.arange(1, len(self.index.probs) + 1)
            return float(np.sum(self.index.survival(m) * sm.sigma2_at(m)))
        # geometric + cyclic scales: group by residue, sum the geometric series
        p, L = self.index.p, len(sm.scales)
        r = np.arange(1, L + 1)
        q = 1.0 - p
        return float(np.sum(sm.sigma2_at(r) * q ** (r - 1)) / (1.0 - q ** L))

    @property
    def b_equiv(self) -> float:
        """Scale of the matching Laplace law: 2 b^2 = sigma^2 / mu."""
        return math.sqrt(self.sigma2_total() / (2.0 * self.index.mean))


@dataclass(frozen=True)
class MDistribution:
    """Truncated pmf of the auxiliary index M, with certified tail mass."""

    pmf: np.ndarray  # pmf[i] = P{M = i+1}
    tail_bound: float

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, self.pmf.shape[0] + 1)

    @property
    def mean(self) -> float:
        return float(np.dot(self.support, self.pmf))


def m_distribution(spec: RandomSumSpec, truncation: int) -> MDistribution:
    """P{M = m} = (sigma_m^2 / sigma^2) P{N >= m}, m = 1..truncation.

    Raises TruncationError when the certified tail mass beyond the truncation
    exceeds 1e-10.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    sigma2 = spec.sigma2_total()
    if sigma2 <= 0:
        raise ValueError("total variance must be positive")
    m = np.arange(1, truncation + 1)
    pmf = spec.summands.sigma2_at(m) / sigma2 * spec.index.survival(m)
    if isinstance(spec.index, ExplicitIndex):
        tail = 0.0 if truncation >= len(spec.index.probs) \
            else max(0.0, 1.0 - float(pmf.sum()))
    else:
        p = spec.index.p
        sup_sig2 = spec.summands.sup_sigma ** 2
        tail = sup_sig2 / sigma2 * (1.0 - p) ** truncation / p
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"tail mass {tail:.3e} above {_TAIL_TOL:g} at truncation "
            f"{truncation}; increase the truncation")
    return MDistribution(pmf=pmf, tail_bound=float(tail))


def _comonotone_sqrt_gap(pn: np.ndarray, pm: np.ndarray) -> float:
    """E|N - M|^(1/2) when both are driven by one uniform via their quantiles."""
    cn, cm = np.cumsum(pn), np.cumsum(pm)
    top = min(cn[-1], cm[-1])
    breaks = np.union1d(cn, cm)
    breaks = breaks[breaks <= top]
    nq = np.searchsorted(cn, breaks, side="left")
    mq = np.searchsorted(cm, breaks, side="left")
    widths = np.diff(np.concatenate([[0.0], breaks]))
    return float(np.sum(np.sqrt(np.abs(nq - mq)) * widths))


def _next_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: the real-FFT length that
    ``scipy.fft.next_fast_len(n, real=True)`` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two >= n / p35
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _independent_sqrt_gap(pn: np.ndarray, pm: np.ndarray) -> float:
    """E|N - M|^(1/2) under the product coupling (exact double sum via FFT).

    The law of N - M is the correlation of the two pmfs, computed the way
    SciPy's ``signal.fftconvolve(pn, pm[::-1])`` computes it, so the gap
    keeps its bits: real FFTs zero-padded to the next 5-smooth length, or a
    plain product when an input has length 1.
    """
    rev = pm[::-1]
    if pn.shape[0] == 1 or rev.shape[0] == 1:
        full = pn * rev
    else:
        size = pn.shape[0] + rev.shape[0] - 1
        fft_len = _next_fast_len(size)
        spectrum = np.fft.rfft(pn, fft_len) * np.fft.rfft(rev, fft_len)
        full = np.fft.irfft(spectrum, fft_len)[:size]
    corr = np.clip(full, 0.0, None)
    d = np.arange(-(pm.shape[0] - 1), pn.shape[0])
    return float(np.sum(np.sqrt(np.abs(d)) * corr))


def expected_sqrt_index_gap(spec: RandomSumSpec, m_dist: MDistribution,
                            coupling: str = "comonotone") -> tuple:
    """(E|N - M|^(1/2) over the truncated supports, additive slack).

    The slack keeps the result a certified upper bound: the mass beyond the
    truncation is covered via Cauchy-Schwarz
    (E[sqrt|N-M|; tail] <= (sqrt(E N) + sqrt(E M)) sqrt(P{tail}), with the
    tail masses computed analytically), and cumulative-sum rounding, which
    perturbs each quantile break by at most k*eps, contributes at most
    k*eps*sqrt(2k).
    """
    k = m_dist.pmf.shape[0]
    pn = np.asarray(spec.index.pmf(np.arange(1, k + 1)), dtype=float)
    if coupling == "comonotone":
        gap = _comonotone_sqrt_gap(pn, m_dist.pmf)
    elif coupling == "independent":
        gap = _independent_sqrt_gap(pn, m_dist.pmf)
    else:
        raise ValueError(f"unknown coupling rule {coupling!r}")
    tail_mass = spec.index.tail(k) + m_dist.tail_bound
    slack = k * np.finfo(float).eps * math.sqrt(2.0 * k)
    if tail_mass > 0.0:
        slack += (math.sqrt(spec.index.mean) + math.sqrt(m_dist.mean + 1.0)) \
            * math.sqrt(tail_mass)
    return gap, slack


@dataclass(frozen=True)
class BoundReport:
    """A certified distance bound with its itemized terms.

    ``value`` always equals ``recompute_bound(kind, components)``; empirical
    distance estimates and the certification verdict are attached by the
    sweep driver.
    """

    kind: str  # "geometric_sum" | "iid_sum" | "general_sum"
    value: float
    components: dict
    empirical: Optional[dict] = None
    verdict: Optional[bool] = None


def recompute_bound(kind: str, components: dict) -> float:
    """Re-derive a report's value from its components (exactly)."""
    c = components
    if kind == "geometric_sum":
        raw = c["sqrt_p"] * c["prefactor"] * (c["sigma_term"]
                                              + c["third_moment_term"])
    elif kind == "iid_sum":
        raw = c["prefactor"] * (c["abs_mean"] + c["third_moment_term"]
                                + c["index_gap_term"])
    elif kind == "general_sum":
        raw = (c["mu_inv_sqrt"] + c["sqrt8_over_sigma"]) * (
            c["abs_mean_m"] + c["third_moment_m"] + c["index_gap_term"])
    else:
        raise ValueError(f"unknown bound kind {kind!r}")
    return min(c["cap"], raw)


def _report(kind: str, components: dict) -> BoundReport:
    components = dict(components, cap=2.0)
    return BoundReport(kind=kind, value=recompute_bound(kind, components),
                       components=components)


def geometric_sum_bound(p: float, b: float, rho: float) -> BoundReport:
    """Distance bound sqrt(p) (b+2)/b (b sqrt(2) + rho/(6 b^2)) for geometric
    sums of common-variance summands (E[X_i^2] = 2 b^2, E|X_i|^3 <= rho),
    capped at the trivial 2."""
    if not 0.0 < p < 1.0:
        raise ValueError("success probability must lie in (0, 1)")
    if b <= 0:
        raise ValueError("scale must be positive")
    if rho < 0:
        raise ValueError("third absolute moment must be nonnegative")
    return _report("geometric_sum", {
        "sqrt_p": math.sqrt(p),
        "prefactor": (b + 2.0) / b,
        "sigma_term": b * math.sqrt(2.0),
        "third_moment_term": rho / (6.0 * b ** 2),
    })


def _gap_truncation(spec: RandomSumSpec) -> int:
    return spec.index.truncation_for(_GAP_TAIL)


def iid_sum_bound(spec: RandomSumSpec,
                  coupling: str = "comonotone") -> BoundReport:
    """(b+2)/(b sqrt(mu)) ( E|X_1| + rho/(6 b^2) + b sqrt(2) E|N-M|^(1/2) )
    for i.i.d. summands with E[X_1^2] = 2 b^2."""
    if not spec.summands.is_iid:
        raise ValueError("summands are not i.i.d.; use general_sum_bound")
    sm = spec.summands
    mu = spec.index.mean
    b = math.sqrt(sm.sigma2_at(1) / 2.0)
    m_dist = m_distribution(spec, _gap_truncation(spec))
    gap, slack = expected_sqrt_index_gap(spec, m_dist, coupling)
    return _report("iid_sum", {
        "prefactor": (b + 2.0) / (b * math.sqrt(mu)),
        "abs_mean": float(sm.abs_mean_at(1)),
        "third_moment_term": float(sm.abs_third_at(1)) / (6.0 * b ** 2),
        "index_gap_term": b * math.sqrt(2.0) * (gap + slack),
        "e_sqrt_gap": gap,
        "gap_tail_slack": slack,
        "mu": mu,
    })


def general_sum_bound(spec: RandomSumSpec,
                      coupling: str = "comonotone") -> BoundReport:
    """The three-term bound with per-index variances (see module docstring).

    Expectations over M use the truncated, tail-certified pmf; atoms with
    zero variance carry zero M-mass and are skipped in the ratio term.
    """
    sm = spec.summands
    mu = spec.index.mean
    sigma = math.sqrt(spec.sigma2_total())
    m_dist = m_distribution(spec, _gap_truncation(spec))
    m = m_dist.support
    pmf = m_dist.pmf
    live = pmf > 0
    sigma2_m = sm.sigma2_at(m)
    abs_mean_m = float(np.sum(pmf * sm.abs_mean_at(m)))
    third_m = float(np.sum(pmf[live] * sm.abs_third_at(m[live])
                           / sigma2_m[live])) / 3.0
    gap, slack = expected_sqrt_index_gap(spec, m_dist, coupling)
    return _report("general_sum", {
        "mu_inv_sqrt": 1.0 / math.sqrt(mu),
        "sqrt8_over_sigma": math.sqrt(8.0) / sigma,
        "abs_mean_m": abs_mean_m,
        "third_moment_m": third_m,
        "index_gap_term": sm.sup_sigma * (gap + slack),
        "e_sqrt_gap": gap,
        "gap_tail_slack": slack,
        "mu": mu,
    })


_CHUNK = 1 << 22


def _chunked_sums(rng, summands: Summands, counts: np.ndarray) -> np.ndarray:
    """Row sums of per-index scaled draws, memory-bounded."""
    base, scales = summands.base, np.asarray(summands.scales)
    out = np.empty(counts.shape[0])
    start = 0
    while start < counts.shape[0]:
        stop = start + 1
        total = int(counts[start])
        while stop < counts.shape[0] and total + counts[stop] <= _CHUNK:
            total += int(counts[stop])
            stop += 1
        chunk = counts[start:stop]
        draws = np.asarray(base.sampler(rng, total), dtype=float)
        offsets = np.concatenate([[0], np.cumsum(chunk[:-1])]).astype(int)
        if scales.shape[0] > 1:
            pos = np.arange(total) - np.repeat(offsets, chunk)
            draws = draws * scales[pos % scales.shape[0]]
        elif scales[0] != 1.0:
            draws = draws * scales[0]
        out[start:stop] = np.add.reduceat(draws, offsets)
        start = stop
    return out


def random_sum_sample(spec: RandomSumSpec, n: int, seed: int) -> EmpiricalSample:
    """n independent draws of the scaled sum (1/sqrt(mu)) sum_{i<=N} X_i.

    The index is drawn first, then the summands; sources with an exact
    aggregate law (Rademacher via binomial counts, Laplace via gamma
    differences) use it as a distributionally exact fast path.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = substream(seed, "random-sum")
    counts = np.asarray(spec.index.sample(rng, n))
    sm = spec.summands
    if len(sm.scales) == 1 and sm.base.sum_sampler is not None:
        sums = sm.scales[0] * np.asarray(sm.base.sum_sampler(rng, counts),
                                         dtype=float)
    else:
        sums = _chunked_sums(rng, sm, counts)
    return EmpiricalSample.from_values(sums / math.sqrt(spec.index.mean))


@dataclass(frozen=True)
class SweepPoint:
    p: float
    report: BoundReport


@dataclass(frozen=True)
class SweepResult:
    """Per-p certification reports plus the fitted decay rate of the
    Wasserstein proxy (log-log slope of d_W against p; NaN unless at least
    two distinct p values were swept)."""

    points: tuple
    slope: float
    n: int
    family_size: int


def convergence_sweep(source: SourceDistribution, p_grid, n: int, seed: int,
                      alpha: float = 0.05) -> SweepResult:
    """Sample geometric sums of the source on a p grid and certify the bounds.

    Per point: exact Kolmogorov statistic with its DKW band, the
    bounded-Lipschitz bracket (family lower bound, Wasserstein upper proxy),
    the geometric-sum bound, and its Kolmogorov conversion.  The verdict is
    PASS when the lower estimates sit below the bounds within noise bands.
    The lower bound runs over ``dense_bl_family()``.
    """
    b = source.b_equiv
    rho = source.abs_third
    target = LaplaceParams(0.0, b)
    family = dense_bl_family()
    points = []
    for i, p in enumerate(p_grid):
        spec = RandomSumSpec(GeometricIndex(float(p)), Summands(source))
        s = random_sum_sample(spec, n, derive_seed(seed, "sweep", i))
        d_k = kolmogorov_empirical(s, target)
        d_bl = bl_lower_bound(s, target, family)
        d_w = wasserstein_empirical(s, target)
        band = dkw_band(n, alpha)
        report = geometric_sum_bound(float(p), b, rho)
        conversion = kolmogorov_from_bl(report.value, 1.0 / (2.0 * b))
        verdict = (within_four_se(d_bl.value, report.value, d_bl.std_error)
                   and d_k.value <= conversion + band)
        report = replace(
            report,
            components=dict(report.components, dk_conversion=conversion,
                            dkw_band=band),
            empirical={"d_K": d_k, "d_BL_lower": d_bl, "d_W_upper": d_w},
            verdict=verdict)
        points.append(SweepPoint(p=float(p), report=report))
    slope = float("nan")
    if len({pt.p for pt in points}) >= 2:
        xs = np.log([pt.p for pt in points])
        ys = np.log([pt.report.empirical["d_W_upper"].value for pt in points])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return SweepResult(points=tuple(points), slope=slope, n=n,
                       family_size=len(family))
