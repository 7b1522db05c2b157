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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .laplace import _BLOCK, LaplaceParams, cdf
from .stein import _U, _gamma, target_expectation, wh_enclosure


@dataclass(frozen=True)
class EmpiricalSample:
    """A sorted sample; estimators below are deterministic functionals of it.

    ``runs`` is its run table when it has at most n/2 runs of equal values:
    (edges, run_values), run k holding values[edges[k]:edges[k + 1]], all
    equal to run_values[k].  Values are equal when their bits are, so -0.0
    and 0.0 never share a run.  A sample with more runs keeps None.
    """

    values: np.ndarray
    runs: Optional[tuple] = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sample must be a nonempty 1-d array")
        # checked a block at a time, each block with the first value of the
        # next for the order and the runs, so no n-length bool array is built
        n = arr.shape[0]
        starts = range(0, n, _BLOCK)
        if not all(np.all(np.isfinite(arr[i:i + _BLOCK])) for i in starts):
            raise ValueError("sample values must be finite")
        bits = arr.view(np.int64)
        changes = 0  # counted while a table of at most n/2 runs may come
        for i in starts:
            block = arr[i:i + _BLOCK + 1]
            if np.any(block[1:] < block[:-1]):
                raise ValueError("sample values must be sorted ascending")
            if 2 * (changes + 1) <= n:
                block = bits[i:i + _BLOCK + 1]
                changes += np.count_nonzero(block[1:] != block[:-1])
        object.__setattr__(self, "values", arr)
        if 2 * (changes + 1) <= n:
            edges = [[0]]
            for i in starts:
                block = bits[i:i + _BLOCK + 1]
                edges.append(np.flatnonzero(block[1:] != block[:-1]) + i + 1)
            edges = np.concatenate(edges + [[n]]).astype(np.intp)
            object.__setattr__(self, "runs", (edges, arr[edges[:-1]]))

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        return cls(values=np.sort(np.asarray(values, dtype=float)))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DistanceEstimate:
    """An estimate, its standard error and a family supremum's size."""

    value: float
    std_error: float = 0.0
    family_size: int = 0


def _tree_sum(n: int, leaf) -> float:
    """np.sum of the n values that ``leaf(i, j)`` gives for [i, j), built
    from blocks, bit for bit.

    numpy sums an array of more than 128 values pairwise: it splits it at
    n2 = n//2 - (n//2) % 8 and adds the sums of the two halves; up to 128
    values it sums without splitting.  This splits the same way down to
    nodes of at most max(_BLOCK, 128) values and sums each with np.sum, so
    the tree, and every rounding in it, is numpy's, while only a node's
    values are alive at a time.
    """
    return float(_tree_node(0, n, leaf, max(_BLOCK, 128)))


def _tree_node(i: int, j: int, leaf, top: int):
    # a module-level function: a closure calling itself would be a reference
    # cycle, keeping ``leaf`` and the sample it reads alive until gc runs
    if j - i <= top:
        return np.sum(leaf(i, j))
    half = (j - i) // 2
    half -= half % 8
    return _tree_node(i, i + half, leaf, top) \
        + _tree_node(i + half, j, leaf, top)


def _per_value(s: EmpiricalSample, fn):
    """leaf(i, j) = fn(s.values[i:j]), for an elementwise fn.

    With a run table fn runs once, on the run values, and a block repeats
    its runs' results: equal bits in give equal bits out, so the block
    holds the bits fn gives it in place.
    """
    if s.runs is None:
        x = s.values
        return lambda i, j: fn(x[i:j])
    edges, run_values = s.runs
    per_run = fn(run_values)

    def leaf(i, j):
        lo = np.searchsorted(edges, i, side="right") - 1
        hi = np.searchsorted(edges, j, side="left")
        return np.repeat(per_run[lo:hi], np.diff(np.clip(edges[lo:hi + 1],
                                                         i, j)))
    return leaf


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
    """Exact sup-distance between the empirical CDF and the target CDF.

    The value at rank i gives the terms (i+1)/n - F(x_i) and F(x_i) - i/n.
    Over a run of equal values the first is largest at its last rank and
    the second at its first, so with a run table one term of each per run
    gives the same maximum.  The sample, or its runs, are read in blocks of
    ``_BLOCK``; every term is an elementwise function and the maximum is
    exact, so the result is the full-length pass's, bit for bit, with no
    full-length temporary.
    """
    n = s.n
    edges, x = s.runs if s.runs is not None else (None, s.values)
    upper = lower = -math.inf
    for i in range(0, x.shape[0], _BLOCK):
        j = min(i + _BLOCK, x.shape[0])
        f = cdf(x[i:j], target)
        rank = np.arange(i, j + 1) if edges is None else edges[i:j + 1]
        upper = max(upper, np.max(rank[1:] / n - f))
        lower = max(lower, np.max(f - rank[:-1] / n))
    return DistanceEstimate(value=float(max(upper, lower)))


def bl_lower_bound(s: EmpiricalSample, target: LaplaceParams,
                   family) -> DistanceEstimate:
    """max_h |mean h(sample) - E h(W)| over a certified family.

    This is a supremum over a subfamily of the bounded-Lipschitz ball, hence
    a lower bound on the distance itself.  The reported standard error is the
    largest per-member standard error of the sample means.

    Members without piecewise-linear data are evaluated on the whole sample.
    Members with data are first screened by ``_screen`` in O(log n) each,
    on closed-form bounds on their Wh, so a screened-out member needs no
    quadrature; only those that may attain either maximum are evaluated,
    with the quadrature Wh.  Every evaluated
    member gets the bits of np.mean / np.std(ddof=1) (see ``_member_stats``),
    so the result is the one the full loop over the family would give, bit
    for bit.
    """
    family = tuple(family)
    if not family:
        raise ValueError("family must be nonempty (sup over the empty set)")
    b = target.b
    stats = {h: _member_stats(h, s, b) for h in family if not h.knots}
    data = [h for h in family if h.knots]
    if data:
        for h in _screen(s.values, data, b, stats.values()):
            stats[h] = _member_stats(h, s, b)
    best = max(diff for diff, _ in stats.values())
    # fl(sd / sqrt_n) is monotone in sd, so dividing the largest sd gives the
    # largest per-member standard error
    worst_se = 0.0
    if s.n > 1:
        worst_se = max(sd for _, sd in stats.values()) / math.sqrt(s.n)
    return DistanceEstimate(value=best, std_error=worst_se,
                            family_size=len(family))


def _mean_sd(n: int, leaves, fn) -> tuple:
    """(np.mean(v), np.std(v, ddof=1)) of the n values v that fn gives,
    bit for bit; the sd is 0.0 at n = 1.

    np.mean(v) is np.sum(v) / n, and np.std(v, ddof=1) is
    sqrt(np.sum((v - mean)**2) / (n - 1)).  ``leaves(g)`` gives the leaf
    of ``_tree_sum`` that applies the elementwise g to the values of [i, j),
    and both sums are taken on it (fn runs once per sum, a block at a
    time), so no n-length array is built.
    """
    mean = _tree_sum(n, leaves(fn)) / n
    if n < 2:
        return mean, 0.0

    def squares(v):
        dev = fn(v) - mean
        dev *= dev
        return dev

    return mean, math.sqrt(_tree_sum(n, leaves(squares)) / (n - 1))


def _member_stats(h, s: EmpiricalSample, b: float) -> tuple:
    """(|mean h(x) - Wh|, std h(x) with ddof=1) on the full sample, with
    np.mean's and np.std's bits (``_mean_sd``); h runs on the run values
    alone where the sample has a run table (``_per_value``)."""
    mean, sd = _mean_sd(s.n, lambda g: _per_value(s, g),
                        lambda v: np.asarray(h.fn(v), dtype=float))
    return abs(mean - target_expectation(h, b)), sd


def _screen(x: np.ndarray, data, b: float, exact) -> list:
    """Members of ``data`` whose diff or sd may reach the largest value.

    ``exact`` holds the (diff, sd) pairs of the members already evaluated.
    For each member with data, ``_data_interval`` gives the centre and the
    half-width of an interval that holds the (diff, sd) that
    ``_member_stats`` would compute, from the closed-form enclosure of Wh
    (``stein.wh_enclosure``), so no member runs a quadrature here.  The
    largest lower end L, over these intervals and the exact values, is at
    most the largest value, so a member whose upper end is below L cannot
    attain it; every other member is returned.
    """
    n = x.size
    cuts = [np.searchsorted(x, h.knots) for h in data]
    # a cut at 0 leaves every stretch one-signed, for sum |x|
    at = np.unique(np.concatenate(cuts + [[np.searchsorted(x, 0.0), n]]))
    p1, p2, abs_sum = _prefix_sums(x, at)
    p1, p2 = (dict(zip(at.tolist(), p.tolist())) for p in (p1, p2))
    boxes = [_data_interval(h, cut.tolist(), n, p1, p2, abs_sum,
                            *wh_enclosure(h, b))
             for h, cut in zip(data, cuts)]
    exact = list(exact)
    floor_d = max([d for d, _ in exact] + [d - pd for d, pd, _, _ in boxes])
    floor_s = max([sd for _, sd in exact] + [sd - ps for _, _, sd, ps in boxes])
    return [h for h, (d, pd, sd, ps) in zip(data, boxes)
            if d + pd >= floor_d or (n > 1 and sd + ps >= floor_s)]


def _prefix_sums(x: np.ndarray, at: np.ndarray) -> tuple:
    """(p1, p2, a1): p1[k] = sum x[:m] and p2[k] = sum x[:m]**2 for
    m = at[k] (0.0 at m = 0), for a sorted ``at`` that ends at n = x.size,
    and a1 = sum |x| when every stretch of x between cuts is one-signed.

    The stretches between consecutive cuts, the first from 0, are summed
    by one numpy reduction each (np.add.reduceat for x, np.einsum for x**2,
    so no n-length temporary and no BLAS call), and the stretch sums are
    added in sequence.  reduceat gives x[i] for an empty stretch at i, which
    is zeroed.  a1 sums the stretch sums' absolute values.
    """
    starts = np.concatenate([[0], at[:-1]])
    s1 = np.add.reduceat(x, starts)
    s1[starts == at] = 0.0
    s2 = np.array([np.einsum("i,i->", x[i:j], x[i:j])
                   for i, j in zip(starts.tolist(), at.tolist())])
    return np.cumsum(s1), np.cumsum(s2), float(np.sum(np.abs(s1)))


def _data_interval(h, cut: list, n: int, p1, p2, abs_sum: float,
                   wh: float, wh_radius: float) -> tuple:
    """(d, pad_d, sd, pad_s): diff in [d - pad_d, d + pad_d], sd likewise.

    Let y be the interpolant of h's data and v = fn(x) the values the full
    evaluation would use; u = 2**-53, gamma_k = k u / (1 - k u).

    Sums.  With cut_j = #{x < k_j}, the sums S1 = sum y(x_i) and
    S2 = sum y(x_i)**2 are, piece by piece, v_j c + s (X - k_j c) and
    v_j**2 c + 2 v_j s (X - k_j c) + s**2 (X2 - 2 k_j X + k_j**2 c), where
    c is the piece's count, s its slope and X, X2 its sums of x and x**2:
    differences of the prefix sums p1, p2.  Expanded down to single
    samples, S1 and S2 are sums of terms, and every term meets at most
    n + m + 12 roundings, m the number of knots: 1 for x**2, n - 1 in the
    prefix sum (within its stretch, then across stretches, in any order;
    an empty stretch adds an exact 0.0), 1 for the difference, 3 for the
    knot shift, 7 for the coefficient s**2 (3 for s, squared, 1 for the
    product), 1 for the product and 2 + (m - 2) in the accumulation over
    pieces.  So
    |fl(S) - S| <= gamma_(n+m+12) T (Higham, Accuracy and Stability of
    Numerical Algorithms, sections 3-4), T the sum of the terms' absolute
    values, which t1, t2 below bound using A1 = sum |x| and A2 = sum x**2
    over the whole sample (each prefix difference carries the terms of
    both prefixes).  t1, t2 and A1 are themselves computed, from
    nonnegative terms, so they are low by at most a factor
    (1 - gamma_(n+m+12))**2; taking gamma of twice the count covers that:
    E = gamma_(2(n+m+12)) t.  A1 sums the absolute values of the stretch
    sums of x, each stretch one-signed (a cut at 0 is among the cuts): a
    sum of the |x_i| in which a term meets at most n - 1 roundings (an
    empty stretch adds an exact 0.0), within the count above.

    Mean.  np.mean(v) sums pairwise, within gamma_(n-1) sum |v_i|, then
    divides: it is within mu = gamma_n (sup + e) of the exact mean of v,
    where e = h.interp_error bounds |v_i - y(x_i)|.  So
    |np.mean(v) - fl(S1)/n| <= E1/n + e + mu + u |fl(S1)/n|, and the diff
    (one more rounding on each side, all values at most 2 in size) lies
    within that plus 2u (|mean| + |Wh|) of d.

    Std.  np.std(v, ddof=1) is sqrt(sum (v_i - mean)**2 / (n-1)) with
    relative error gamma_(n+4) (3 roundings per square, n - 1 in the sum,
    1 division, the square root), and the computed mean adds at most
    sqrt(2) mu to it; v is within sqrt(2) e (as a sample std) of y, and the
    std of y is at most sqrt(2) sup.  So it is within
    2 (mu + e + gamma_(n+4) sup) of std(y).  From the sums,
    var = (fl(S2) - fl(S1)**2/n) / (n-1) is within
    ev = (E2 + (2 |S1| + E1) E1 / n + 4u (|S2| + S1**2/n)) / (n-1) of the
    variance of y, and |sqrt(a) - sqrt(b)| <= min(sqrt|a-b|, |a-b|/sqrt(a)).

    Both pads are doubled, which covers the rounding of the pad arithmetic
    (a few operations, relative error below 1e-14), and carry a 4u (1 + d)
    term for the rounding of d, sd and of the interval ends.

    Wh.  ``wh`` is the centre of ``stein.wh_enclosure``, and the quadrature
    Wh that ``_member_stats`` subtracts lies within ``wh_radius`` of it
    (``stein.target_expectation`` audits that), so the diff it computes is
    within wh_radius more of d: pad_d adds wh_radius after the doubling.
    The doubling's slack, at least e + mu >= 5u sup, covers that one more
    rounding, u (pad_d + wh_radius), and the 2u wh_radius by which |Wh|
    may exceed |wh| in the diff's rounding term, while wh_radius (about
    1e-8) is below sup.
    """
    k, v = h.knots, h.values
    below, above = cut[0], n - cut[-1]
    s1 = v[0] * below + v[-1] * above
    s2 = v[0] * v[0] * below + v[-1] * v[-1] * above
    t1 = abs(v[0]) * below + abs(v[-1]) * above
    t2 = s2
    a2 = p2[n]
    for j in range(len(k) - 1):
        lo, hi = cut[j], cut[j + 1]
        c = hi - lo
        slope = (v[j + 1] - v[j]) / (k[j + 1] - k[j])
        sx = p1[hi] - p1[lo]
        sxx = p2[hi] - p2[lo]
        d1 = sx - k[j] * c
        d2 = (sxx - 2.0 * k[j] * sx) + k[j] * k[j] * c
        s1 += v[j] * c + slope * d1
        s2 += (v[j] * v[j] * c + 2.0 * v[j] * slope * d1) + slope * slope * d2
        w1 = 2.0 * abs_sum + abs(k[j]) * c
        w2 = 2.0 * a2 + 4.0 * abs(k[j]) * abs_sum + k[j] * k[j] * c
        t1 += abs(v[j]) * c + abs(slope) * w1
        t2 += (v[j] * v[j] * c + 2.0 * abs(v[j] * slope) * w1) \
            + slope * slope * w2
    g = _gamma(2 * (n + len(k) + 12))
    e1, e2 = g * t1, g * t2
    e, sup = h.interp_error, h.sup_bound
    mu = _gamma(n) * (sup + e)
    mean = s1 / n
    d = abs(mean - wh)
    pad_d = 2.0 * (e1 / n + e + mu + _U * abs(mean)
                   + 2.0 * _U * (abs(mean) + abs(wh))) + 4.0 * _U * (1.0 + d) \
        + wh_radius
    if n < 2:
        return d, pad_d, 0.0, 0.0
    var = (s2 - s1 * s1 / n) / (n - 1)
    ev = (e2 + (2.0 * abs(s1) + e1) * e1 / n
          + 4.0 * _U * (abs(s2) + s1 * s1 / n)) / (n - 1)
    sd = math.sqrt(max(var, 0.0))
    spread = min(math.sqrt(ev), ev / sd) if sd > 0.0 else math.sqrt(ev)
    pad_s = 2.0 * (spread + 2.0 * (mu + e + _gamma(n + 4) * sup)) \
        + 4.0 * _U * (1.0 + sd)
    return d, pad_d, sd, pad_s


def _quantile_antiderivative(u, params: LaplaceParams):
    """P(u) = int_0^u Q(t) dt in closed form (Q = target quantile), for
    sorted u in [0, 1]: b (v log(2v) - v), v = u up to 1/2 and 1 - u
    above, so the two branches are slices of u."""
    u = np.asarray(u, dtype=float)
    v = u.copy()
    upper = v[np.searchsorted(u, 0.5, side="right"):]
    np.subtract(1.0, upper, out=upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(v > 0, v * np.log(2.0 * v) - v, 0.0)
    return params.b * tail


def wasserstein_empirical(s: EmpiricalSample,
                          target: LaplaceParams) -> DistanceEstimate:
    """Order-statistics transport cost int_0^1 |Fn^-1(u) - Q(u)| du.

    On each quantile strip [(i-1)/n, i/n] the integrand changes sign at most
    once (at u = F(x_i)); both pieces use the closed-form antiderivative of
    the target quantile, so no inner quadrature error enters.  The crossing
    is F(x_i) clipped to the strip, and P takes it only where it lies inside:
    at either end P is the end's value, already computed.

    The strips are computed a block at a time, F once per run with a run
    table (see ``_per_value``), and summed by ``_tree_sum``.  Each strip is
    an elementwise function of x_i and its two levels, so a block holds the
    bits a full-length pass would, and the sum is np.sum's over all n
    strips, bit for bit, with no n-length array.
    """
    n = s.n
    x = s.values
    f = _per_value(s, lambda v: cdf(v, target))

    def strips(i, j):
        xb = x[i:j]
        levels = np.arange(i, j + 1) / n
        lo, hi = levels[:-1], levels[1:]
        cross = np.clip(f(i, j), lo, hi)
        p_level = _quantile_antiderivative(levels, target)
        p_lo, p_hi = p_level[:-1], p_level[1:]
        p_cr = np.where(cross == lo, p_lo, p_hi)
        # F(x_i) and both levels rise with i, so cross is sorted
        inside = np.flatnonzero((lo < cross) & (cross < hi))
        p_cr[inside] = _quantile_antiderivative(cross[inside], target)
        return (xb * (cross - lo) - (p_cr - p_lo)) \
            + ((p_hi - p_cr) - xb * (hi - cross))

    return DistanceEstimate(value=_tree_sum(n, strips))


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
