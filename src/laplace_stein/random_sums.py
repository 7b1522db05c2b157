"""Random sums, the variance-tilted auxiliary index, and certified error bounds.

A random sum S = X_1 + ... + X_N (N-valued index N independent of the
summands) scaled by 1/sqrt(E[N]) is approximately Laplace(0, sigma/sqrt(2 mu))
when the summands are mean zero and sign balanced.  The machinery here:

* two index laws, the ones ``bounds`` builds: ``GeometricIndex(p)`` and
  ``FixedIndex(k)``, N = k, one atom held as the integer alone.

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
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Union

import numpy as np

from .errors import TruncationError
from .laplace import LaplaceParams
from .metrics import (DistanceEstimate, EmpiricalSample, bl_lower_bound,
                      dkw_band, kolmogorov_empirical, kolmogorov_from_bl,
                      wasserstein_empirical, within_four_se)
from . import metrics, seeding
from .seeding import derive_seed, substream
from .stein import dense_bl_family
from .transforms import SourceDistribution

_TAIL_TOL = 1e-10
_GAP_TAIL = 1e-24
_DRAW_BLOCK = 1 << 18  # 2 MiB of float64 draws
_FILL_BLOCK = 1 << 14  # exponents per np.power call of a survival slice


def _parts(total: int) -> int:
    """The number of parts an elementwise pass over ``total`` values is
    split into on the package pool: at most one per CPU, and, when there
    are several, each at least ``_DRAW_BLOCK`` values.  One on a single
    CPU, on a pool thread, or below 2 ``_DRAW_BLOCK`` values."""
    return max(1, min(seeding._parallelism(), total // _DRAW_BLOCK))


def _check_fits(k: float, where: str) -> None:
    """TruncationError, before anything is allocated, when one array of k
    floats would exceed the machine's physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not 8.0 * k <= memory:
        raise TruncationError(f"truncation k = {k:.4g} at {where} needs "
                              f"{8.0 * k:.3g} bytes per array, more than the "
                              f"{memory:.3g} bytes of physical memory")


def _support_mean(pmf: np.ndarray) -> float:
    """sum_m m pmf[m-1]: np.sum of the support 1..k times the pmf, bit for
    bit, taken a block at a time by ``metrics._tree_sum``, so no k-length
    support is built and no BLAS call splits the sum across threads."""
    return metrics._tree_sum(
        pmf.shape[0], lambda i, j: np.arange(i + 1.0, j + 1.0) * pmf[i:j])


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

    def survival_atoms(self, k: int) -> np.ndarray:
        """P{N >= m} = (1-p)^(m-1), m = 1..k, on a float exponent.

        Each atom is np.power(1-p, m-1.0) computed alone, so its bits do not
        depend on how the atoms are split: one contiguous slice per part
        (``_parts``) is filled through ``seeding.run_all``, a block of
        ``_FILL_BLOCK`` exponents at a time.
        """
        out = np.empty(k)
        q, parts = 1.0 - self.p, _parts(k)
        cuts = [s * k // parts for s in range(parts + 1)]

        def fill(i, j):
            for a in range(i, j, _FILL_BLOCK):
                b = min(j, a + _FILL_BLOCK)
                np.power(q, np.arange(a, b, dtype=float), out=out[a:b])

        seeding.run_all(partial(fill, i, j)
                        for i, j in zip(cuts[:-1], cuts[1:]))
        return out

    def pmf_atoms(self, k: int) -> np.ndarray:
        """P{N = m}, m = 1..k."""
        out = self.survival_atoms(k)
        out *= self.p
        return out

    def tail(self, k: int) -> float:
        """P{N > k}, computed analytically (no summation noise)."""
        return (1.0 - self.p) ** k

    def truncation_for(self, tail: float) -> int:
        """The least k >= 1 with P{N > k} <= tail; TruncationError when k
        floats would not fit in memory."""
        if self.p == 1.0:
            return 1
        k = math.log(tail) / math.log1p(-self.p)
        _check_fits(k, f"p = {self.p:g}")
        return max(1, math.ceil(k))


@dataclass(frozen=True)
class FixedIndex:
    """N identically equal to k: one atom, held as the integer alone."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("index value must be at least 1")
        _check_fits(self.k, f"fixed index {self.k}")

    @property
    def mean(self) -> float:
        return float(self.k)

    def survival_atoms(self, j: int) -> np.ndarray:
        """P{N >= m} = 1, m = 1..min(j, k): N has no atom beyond k."""
        return np.ones(min(j, self.k))

    def tail(self, j: int) -> float:
        """P{N > j}."""
        return 0.0 if j >= self.k else 1.0


Index = Union[GeometricIndex, FixedIndex]


@dataclass(frozen=True, eq=False)
class Summands:
    """Summand sequence: a base source scaled per index (cyclically).

    ``scales = (1,)`` is the i.i.d. case; otherwise X_i = scales[(i-1) mod L]
    times an independent copy of the base, so sigma_i^2 = scales_i^2 E[X^2].
    ``residue_moments``, read-only arrays computed once when the summands are
    built, is (sigma_r^2, E|X_r|, E|X_r|^3) for the residues r = 1..L: the
    moments of every atom m with (m-1) mod L = r-1, and of no other atom.
    """

    base: SourceDistribution
    scales: tuple = (1.0,)
    residue_moments: tuple = field(init=False, repr=False)

    def __post_init__(self):
        arr = tuple(float(s) for s in self.scales)
        if not arr or any(not math.isfinite(s) or s < 0 for s in arr):
            raise ValueError("scales must be finite and nonnegative")
        object.__setattr__(self, "scales", arr)
        s, base = np.asarray(arr), self.base
        with np.errstate(over="ignore", invalid="ignore"):
            moments = (s ** 2 * base.sigma2, s * base.abs_mean,
                       s ** 3 * base.abs_third)
        finite = np.isfinite(np.stack(moments)).all(axis=0)
        if not finite.all():
            raise OverflowError(
                f"scale {arr[int(np.argmin(finite))]:g} overflows the summand "
                "moments (sigma^2, E|X|, E|X|^3)")
        for table in moments:
            table.flags.writeable = False
        object.__setattr__(self, "residue_moments", moments)

    @property
    def is_iid(self) -> bool:
        return len(set(self.scales)) == 1

    @property
    def sup_sigma(self) -> float:
        return max(self.scales) * math.sqrt(self.base.sigma2)


@dataclass(frozen=True, eq=False)
class RandomSumSpec:
    """Index law plus summand descriptor; the sum is scaled by 1/sqrt(E[N]).

    ``sigma2_total`` is sigma^2 = E[sum_{i<=N} sigma_i^2] =
    sum_m P{N>=m} sigma_m^2, computed once, when the spec is built, so an
    unusable variance fails before any truncation: OverflowError when it
    is not a finite float, FloatingPointError when it underflows to 0
    although an atom N reaches has a positive scale, and ValueError when no
    such atom has one.  ``m_distribution`` keeps M's law on the spec, built
    at its first call, so it lives as long as the spec and no longer.
    """

    index: Index
    summands: Summands
    sigma2_total: float = field(init=False, repr=False)
    _m_law: MDistribution | None = field(init=False, repr=False,
                                         default=None)

    def __post_init__(self):
        sm, index = self.summands, self.index
        sigma2, period = sm.residue_moments[0], len(sm.scales)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if sm.is_iid:
                total = sigma2[0] * index.mean
            elif isinstance(index, GeometricIndex):
                # one period, summed as a geometric series
                total = float(np.sum(index.survival_atoms(period) * sigma2)
                              / (1.0 - index.tail(period)))
            else:  # every atom of a fixed index survives
                total = metrics._tree_sum(
                    index.k, lambda i, j: _over_atoms(i, j, sigma2)[0])
        if math.isfinite(total) and total > 0.0:
            object.__setattr__(self, "sigma2_total", total)
            return
        named = ", ".join(f"{s:g}" for s in sm.scales)
        if total != 0.0:
            raise OverflowError(
                f"total variance sigma^2 is {total} at scales {named}")
        survival = index.survival_atoms(period)  # the residues N reaches
        if not np.any((survival > 0.0)
                      & (np.asarray(sm.scales[:survival.shape[0]]) > 0.0)):
            raise ValueError("total variance must be positive")
        raise FloatingPointError(
            f"total variance sigma^2 underflows to 0 at scales {named}")

    @property
    def b_equiv(self) -> float:
        """Scale of the matching Laplace law: 2 b^2 = sigma^2 / mu."""
        return math.sqrt(self.sigma2_total / (2.0 * self.index.mean))


@dataclass(frozen=True, eq=False)
class MDistribution:
    """Truncated pmf of the auxiliary index M with certified tail mass.
    Building it makes the pmf read-only and derives its mean."""

    pmf: np.ndarray  # pmf[i] = P{M = i+1}
    tail_bound: float
    mean: float = field(init=False)  # sum_m m P{M = m}, ``_support_mean``

    def __post_init__(self):
        self.pmf.flags.writeable = False
        object.__setattr__(self, "mean", _support_mean(self.pmf))


def _over_atoms(i: int, j: int, *tables) -> tuple:
    """Per-residue tables read at the atoms m = i+1..j: as they are when
    L = 1 (they broadcast), else each repeated by np.tile, which copies
    whole periods with no index array, and cut at residue i mod L."""
    period = tables[0].shape[0]
    if period == 1:
        return tables
    start = i % period
    reps = (start + j - i - 1) // period + 1
    return tuple(np.tile(table, reps)[start:start + j - i]
                 for table in tables)


def m_distribution(spec: RandomSumSpec) -> MDistribution:
    """P{M = m} = (sigma_m^2 / sigma^2) P{N >= m}, m = 1..k.  k is a fixed
    index's value (tail 0.0), or a geometric one's least k with N's tail
    at most 1e-24 and M's certified tail, (sup_i sigma_i^2 / sigma^2)
    (1-p)^k / p, at most 1e-10: the truncation for the smaller target.

    The pmf is the survival weighted in place, the one k-length array built.
    It is built at the first call for a spec and held by the spec, so every
    bound on one spec reads the same law, and the law dies with the spec.
    """
    if spec._m_law is not None:
        return spec._m_law
    sigma2, index = spec.sigma2_total, spec.index
    if isinstance(index, FixedIndex):
        k, tail = index.k, 0.0
    else:
        ratio = spec.summands.sup_sigma ** 2 / sigma2
        target = min(_GAP_TAIL, _TAIL_TOL * index.p / ratio)
        if not target > 0.0:
            raise TruncationError(f"sup_i sigma_i^2 / sigma^2 = {ratio:g} "
                                  "leaves no k certifying M's tail")
        k = index.truncation_for(target)
        tail = ratio * index.tail(k) / index.p
    weight = spec.summands.residue_moments[0] / sigma2
    pmf = index.survival_atoms(k)
    for r, w in enumerate(weight):  # the survival weighted in place
        pmf[r::weight.shape[0]] *= w
    object.__setattr__(spec, "_m_law",
                       MDistribution(pmf=pmf, tail_bound=float(tail)))
    return spec._m_law


def _comonotone_sqrt_gap(pn: np.ndarray, pm: np.ndarray) -> float:
    """E|N - M|^(1/2) over the given atoms when both are driven by one
    uniform via their quantiles: the breaks of both cumulative sums up to
    the smaller total, merged, each width weighted by sqrt|N - M| on it.
    Equal pmfs give 0.0 by themselves, since N = M at every break."""
    cn, cm = np.cumsum(pn), np.cumsum(pm)
    # np.union1d's breaks, without its first-call import of numpy.ma (1.2 MB)
    breaks = np.sort(np.concatenate((cn, cm)))
    breaks = breaks[np.append(True, breaks[1:] != breaks[:-1])
                    & (breaks <= min(cn[-1], cm[-1]))]
    widths = np.diff(breaks, prepend=0.0)
    widths *= np.sqrt(np.abs(np.searchsorted(cn, breaks, side="left")
                             - np.searchsorted(cm, breaks, side="left")))
    return float(np.sum(widths))


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

    The law of N - M is the correlation of the two pmfs, of one length k as
    the bounds pass them, computed the way SciPy's ``signal.fftconvolve(pn,
    pm[::-1])`` computes it, so the gap keeps its bits: real FFTs
    zero-padded to the next 5-smooth length (at k = 1, the product's bits).
    """
    rev = pm[::-1]
    size = pn.shape[0] + rev.shape[0] - 1
    fft_len = _next_fast_len(size)
    spectrum = np.fft.rfft(pn, fft_len)
    spectrum *= np.fft.rfft(rev, fft_len)
    full = np.fft.irfft(spectrum, fft_len)[:size]
    del spectrum
    np.clip(full, 0.0, None, out=full)
    # sqrt|d| * P(N - M = d), built in one float array
    weight = np.arange(-(pm.shape[0] - 1), pn.shape[0], dtype=float)
    np.abs(weight, out=weight)
    np.sqrt(weight, out=weight)
    weight *= full
    return float(np.sum(weight))


def expected_sqrt_index_gap(spec: RandomSumSpec, m_dist: MDistribution,
                            coupling: str = "comonotone") -> tuple:
    """(E|N - M|^(1/2), additive slack).

    A fixed index N = k is a constant, so every coupling of N and M is the
    product one, and both give sum_m P{M = m} sqrt(k - m), summed by
    ``metrics._tree_sum``.  Comonotone on a geometric index with L cyclic
    scales, P{N = m} = p q^(m-1) and P{M = m} = w_r q^(m-1) put mass
    1 - q^L on the first L atoms and then repeat scaled by q^L, and so do
    their quantiles, shifted by L: the gap is the merge of the first
    min(k, L) atoms over 1 - q^L = -expm1(L log1p(-p)).  The independent
    coupling on a geometric index is the exact double sum over the
    truncated supports.  N's atoms come from the index, only those the gap
    reads; with i.i.d. summands M has N's law, and the M-pmf stands for
    both.

    The slack keeps the result a certified upper bound: the mass beyond the
    truncation k is covered via Cauchy-Schwarz (E[sqrt|N-M|; tail] <=
    (sqrt(E N) + sqrt(E M)) sqrt(P{tail}), the tail masses analytic), and
    cumulative-sum rounding, at most k*eps per quantile break, by
    k*eps*sqrt(2k).  That term also covers a fixed index's direct sum,
    whose rounding is at most gamma_k sqrt(k), and it over-covers the
    periodic gap, which is truncated only when L > k and sums L atoms.
    """
    if coupling not in ("comonotone", "independent"):
        raise ValueError(f"unknown coupling rule {coupling!r}")
    pm, index = m_dist.pmf, spec.index
    k = pm.shape[0]
    if isinstance(index, FixedIndex):
        gap = metrics._tree_sum(k, lambda i, j: pm[i:j] * np.sqrt(
            k - 1.0 - np.arange(i, j, dtype=float)))
    elif coupling == "comonotone":
        period = len(spec.summands.scales)
        atoms, mass = min(k, period), 1.0  # at p = 1, k = 1
        if index.p < 1.0:
            mass = -math.expm1(period * math.log1p(-index.p))
        pn = pm[:atoms] if spec.summands.is_iid \
            else index.pmf_atoms(atoms)
        gap = _comonotone_sqrt_gap(pn, pm[:atoms]) / mass
    else:
        gap = _independent_sqrt_gap(
            pm if spec.summands.is_iid else index.pmf_atoms(k), pm)
    slack = k * np.finfo(float).eps * math.sqrt(2.0 * k)
    slack += (math.sqrt(spec.index.mean) + math.sqrt(m_dist.mean + 1.0)) \
        * math.sqrt(spec.index.tail(k) + m_dist.tail_bound)
    return gap, slack


@dataclass(frozen=True)
class BoundReport:
    """A certified distance bound with its itemized terms, to which building
    it adds the cap 2; ``value`` is ``recompute_bound(kind, components)``."""

    kind: str  # "geometric_sum" | "iid_sum" | "general_sum"
    value: float = field(init=False)
    components: dict

    def __post_init__(self):
        components = dict(self.components, cap=2.0)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "value",
                           recompute_bound(self.kind, components))


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
    return BoundReport("geometric_sum", {
        "sqrt_p": math.sqrt(p),
        "prefactor": (b + 2.0) / b,
        "sigma_term": b * math.sqrt(2.0),
        "third_moment_term": rho / (6.0 * b ** 2),
    })


def iid_sum_bound(spec: RandomSumSpec,
                  coupling: str = "comonotone") -> BoundReport:
    """(b+2)/(b sqrt(mu)) ( E|X_1| + rho/(6 b^2) + b sqrt(2) E|N-M|^(1/2) )
    for i.i.d. summands with E[X_1^2] = 2 b^2."""
    if not spec.summands.is_iid:
        raise ValueError("summands are not i.i.d.; use general_sum_bound")
    sigma2, abs_mean, abs_third = spec.summands.residue_moments
    mu = spec.index.mean
    b = math.sqrt(sigma2[0] / 2.0)
    m_dist = m_distribution(spec)
    gap, slack = expected_sqrt_index_gap(spec, m_dist, coupling)
    return BoundReport("iid_sum", {
        "prefactor": (b + 2.0) / (b * math.sqrt(mu)),
        "abs_mean": float(abs_mean[0]),
        "third_moment_term": float(abs_third[0]) / (6.0 * b ** 2),
        "index_gap_term": b * math.sqrt(2.0) * (gap + slack),
        "e_sqrt_gap": gap,
        "gap_tail_slack": slack,
        "mu": mu,
    })


def _moments_under_m(summands: Summands, pmf: np.ndarray) -> tuple:
    """(E|X_M|, (1/3) E[|X_M|^3 / sigma_M^2]) over the truncated M-pmf.

    Both are np.sum's over all k atoms' terms, bit for bit, taken by
    ``metrics._tree_sum`` on slices of the atoms.  An atom without variance
    has no M-mass and adds 0.0 to the ratio term.
    """
    sigma2, abs_mean, abs_third = summands.residue_moments
    # 1.0 for a variance of 0: its atoms have no M-mass, and their term,
    # 0.0, divided by 1.0 keeps its bits, as under a masked division
    divisor = np.where(sigma2 > 0, sigma2, 1.0)

    def abs_means(i, j):
        return pmf[i:j] * _over_atoms(i, j, abs_mean)[0]

    def ratios(i, j):
        third, var = _over_atoms(i, j, abs_third, divisor)
        prod = pmf[i:j] * third
        prod /= var
        return prod

    k = pmf.shape[0]
    return (metrics._tree_sum(k, abs_means),
            metrics._tree_sum(k, ratios) / 3.0)


def general_sum_bound(spec: RandomSumSpec,
                      coupling: str = "comonotone") -> BoundReport:
    """The three-term bound with per-index variances (see module docstring).

    Expectations over M use the truncated, tail-certified pmf; atoms with
    zero variance carry zero M-mass and add 0.0 to the ratio term.
    """
    sm = spec.summands
    mu = spec.index.mean
    sigma = math.sqrt(spec.sigma2_total)
    m_dist = m_distribution(spec)
    abs_mean_m, third_m = _moments_under_m(sm, m_dist.pmf)
    gap, slack = expected_sqrt_index_gap(spec, m_dist, coupling)
    return BoundReport("general_sum", {
        "mu_inv_sqrt": 1.0 / math.sqrt(mu),
        "sqrt8_over_sigma": math.sqrt(8.0) / sigma,
        "abs_mean_m": abs_mean_m,
        "third_moment_m": third_m,
        "index_gap_term": sm.sup_sigma * (gap + slack),
        "e_sqrt_gap": gap,
        "gap_tail_slack": slack,
        "mu": mu,
    })


def _chunked_sums(rng, sampler, counts: np.ndarray) -> np.ndarray:
    """Row sums of ``sampler`` draws, memory-bounded, with the bits of one
    sequential ``sampler(rng, total)`` summed row by row.

    The sampler takes word i of the generator's PCG64 stream for draw i (its
    source declares ``one_word_draws``).  A row's sum depends only on its
    own draws and the length of its ``reduceat`` segment (the pairwise tree
    follows the length), never on the rows drawn with it.  So the rows are
    cut into parts of about equal draws, at most one per CPU and, when there
    are several, each at least ``_DRAW_BLOCK`` draws.  Every part, a single
    one too, runs through ``seeding.run_all`` from a copy of the generator
    advanced, in O(log k) steps, to the part's first draw.  Within a part,
    runs take at most ``_DRAW_BLOCK`` draws (2 MiB, a core's L2 cache).  A
    smaller run pays more per-call overhead; a larger run overflows L2 and
    costs memory per thread.  The caller's generator is left as it was.
    """
    out = np.empty(counts.shape[0])
    ends = np.cumsum(counts)
    rows = counts.shape[0]
    total = int(ends[-1]) if rows else 0
    parts = _parts(total)
    # part k: the rows whose draws end after k/parts of the total and by
    # (k+1)/parts of it; a row longer than a part leaves a later one empty
    cuts = [0] + [int(np.searchsorted(ends, k * total // parts, side="right"))
                  for k in range(1, parts)] + [rows]
    state = rng.bit_generator.state

    def part(start, stop):
        # rows start..stop-1 in runs: a run is the longest run of rows, at
        # least one, that takes at most _DRAW_BLOCK draws
        first = int(ends[start - 1]) if start else 0  # draws before row start
        clone = np.random.PCG64(0)  # its seed is replaced by the state
        clone.state = state
        clone.advance(first)
        part_rng = np.random.Generator(clone)
        while start < stop:
            end = min(stop, max(start + 1, int(np.searchsorted(
                ends, first + _DRAW_BLOCK, side="right"))))
            total = int(ends[end - 1]) - first
            draws = np.asarray(sampler(part_rng, total), dtype=float)
            offsets = np.concatenate([[0], ends[start:end - 1] - first])
            np.add.reduceat(draws, offsets, out=out[start:end])
            # one run alive at a time, and nothing allocated after it outlives
            # it, so the next run reuses its memory instead of growing the heap
            del draws, offsets
            start, first = end, first + total

    seeding.run_all(partial(part, start, stop)
                    for start, stop in zip(cuts[:-1], cuts[1:])
                    if start < stop)
    return out


def random_sum_sample(spec: RandomSumSpec, n: int, seed: int) -> EmpiricalSample:
    """n independent draws of the scaled sum (1/sqrt(mu)) sum_{i<=N} X_i.

    Only what ``convergence_sweep`` samples is sampled: a geometric index,
    i.i.d. copies of the base (scales ``(1.0,)``), and a base with an exact
    aggregate law (Rademacher via binomial counts, Laplace via gamma
    differences) or one-word draws, which ``_chunked_sums`` sums.  Any other
    spec raises ValueError, and so do a drawn N above 2^53, where the walk
    2K - N leaves float64's exact integers (numpy's draw saturates at
    2^63 - 1), and a float total of the counts at 2^62, whatever its
    rounding clear of int64's 2^63.  The index is drawn first, then the
    summands.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    base = spec.summands.base
    if not (isinstance(spec.index, GeometricIndex)
            and spec.summands.scales == (1.0,)
            and (base.sum_sampler is not None or base.one_word_draws)):
        raise ValueError("only geometric sums of i.i.d. copies of a source "
                         "with a sum_sampler or one-word draws are sampled")
    rng = substream(seed, "random-sum")
    counts = rng.geometric(spec.index.p, n)
    top, total = int(counts.max()), float(counts.sum(dtype=float))
    if top > 2 ** 53 or total >= 2.0 ** 62:
        raise ValueError(f"the index at p = {spec.index.p:g} drew N = {top}, "
                         f"{total:.4g} in all: past 2^53 per sum or 2^62 in "
                         "total, no sum is sampled")
    if base.sum_sampler is not None:
        sums = np.asarray(base.sum_sampler(rng, counts), dtype=float)
    else:
        sums = _chunked_sums(rng, base.sampler, counts)
    del counts
    # divided and sorted in place: the values
    # from_values(sums / sqrt(mu)) gives, without its copies
    sums /= math.sqrt(spec.index.mean)
    sums.sort()
    return EmpiricalSample(sums)


@dataclass(frozen=True)
class SweepPoint:
    """One certified sweep point: the geometric-sum bound, the sample's
    distances to the Laplace target, the DKW band and the bound's
    Kolmogorov conversion, and the verdict."""

    p: float
    report: BoundReport
    d_K: DistanceEstimate
    d_BL_lower: DistanceEstimate
    d_W_upper: DistanceEstimate
    dkw_band: float
    dk_conversion: float
    verdict: bool


@dataclass(frozen=True)
class SweepResult:
    """Per-p certified points and, derived from them, the fitted decay rate
    of the Wasserstein proxy (log-log slope of d_W against p; NaN unless at
    least two distinct p values were swept)."""

    points: tuple
    slope: float = field(init=False)

    def __post_init__(self):
        slope = float("nan")
        if len({pt.p for pt in self.points}) >= 2:
            xs = np.log([pt.p for pt in self.points])
            ys = np.log([pt.d_W_upper.value for pt in self.points])
            slope = float(np.polyfit(xs, ys, 1)[0])
        object.__setattr__(self, "slope", slope)


def _sweep_point(source: SourceDistribution, p: float, n: int, seed: int,
                 family: tuple) -> SweepPoint:
    """One sweep point: n geometric sums of ``source``, their d_K, d_BL and
    d_W, the bound and the verdict."""
    s = random_sum_sample(RandomSumSpec(GeometricIndex(p), Summands(source)),
                          n, seed)
    b = source.b_equiv
    target = LaplaceParams(0.0, b)
    d_k = kolmogorov_empirical(s, target)
    d_bl = bl_lower_bound(s, target, family)
    d_w = wasserstein_empirical(s, target)
    band = dkw_band(n)
    report = geometric_sum_bound(p, b, source.abs_third)
    conversion = kolmogorov_from_bl(report.value, 1.0 / (2.0 * b))
    verdict = (within_four_se(d_bl.value, report.value, d_bl.std_error)
               and d_k.value <= conversion + band)
    return SweepPoint(p=p, report=report, d_K=d_k, d_BL_lower=d_bl,
                      d_W_upper=d_w, dkw_band=band, dk_conversion=conversion,
                      verdict=verdict)


def convergence_sweep(source: SourceDistribution, p_grid, n: int,
                      seed: int) -> SweepResult:
    """Sample geometric sums of the source on a p grid and certify the bounds.

    Per point: exact Kolmogorov statistic with its DKW band at level 0.05,
    the bounded-Lipschitz bracket (family lower bound, Wasserstein upper
    proxy), the geometric-sum bound, and its Kolmogorov conversion.  The
    verdict is PASS when the lower estimates sit below the bounds within
    noise bands.
    The lower bound runs over ``dense_bl_family()``.

    Every point draws from its own substream, so points may run in any
    order on any thread.  On the exact-aggregate path they run concurrently
    through ``seeding.run_all``; on the chunked path they run in turn, since
    the chunked sampler already spreads each point's draws over every CPU
    (the smallest p holds most of the draws).
    """
    family = dense_bl_family()
    calls = [partial(_sweep_point, source, float(p), n,
                     derive_seed(seed, "sweep", i), family)
             for i, p in enumerate(p_grid)]
    if source.sum_sampler is not None:
        points = seeding.run_all(calls)
    else:
        points = [call() for call in calls]
    return SweepResult(points=tuple(points))
