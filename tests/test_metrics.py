import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import integrate

from laplace_stein import metrics, stein, transforms
from laplace_stein.laplace import LaplaceParams, cdf, draw, quantile
from laplace_stein.metrics import (EmpiricalSample, _prefix_sums,
                                   _tree_sum, bl_lower_bound, dkw_band,
                                   kolmogorov_empirical,
                                   kolmogorov_from_bl, wasserstein_empirical,
                                   within_four_se)
from laplace_stein.random_sums import (GeometricIndex, RandomSumSpec,
                                       Summands, convergence_sweep,
                                       random_sum_sample)
from laplace_stein.seeding import substream
from laplace_stein.stein import (CertificationError, dense_bl_family,
                                 smoothed_indicator, stein_family,
                                 target_expectation)

UNIT = LaplaceParams(0.0, 1.0)


def _laplace_draws(n, seed):
    """n Laplace(0, 1) draws from the seed's "laplace-sample" substream."""
    return draw(substream(seed, "laplace-sample"), n, UNIT)


class TestEmpiricalSample:
    def test_from_values_sorts(self):
        s = EmpiricalSample.from_values([3.0, -1.0, 2.0])
        assert np.array_equal(s.values, [-1.0, 2.0, 3.0])
        assert s.n == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalSample.from_values([])

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(ValueError):
            EmpiricalSample(values=np.array([2.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        # a NaN member mean used to drop out of the max, so [0, 1, nan] got
        # a perfect d_BL of 0; inf gave 0.667
        with pytest.raises(ValueError, match="finite"):
            EmpiricalSample.from_values([0.0, 1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            EmpiricalSample(values=np.array([0.0, 1.0, bad]))


class TestKolmogorov:
    def test_point_mass_at_zero(self):
        s = EmpiricalSample.from_values([0.0])
        assert kolmogorov_empirical(s, UNIT).value == 0.5

    def test_stratified_quantiles_are_tight(self):
        n = 10 ** 4
        levels = (np.arange(n) + 0.5) / n
        s = EmpiricalSample.from_values(quantile(levels, UNIT))
        assert kolmogorov_empirical(s, UNIT).value <= 1.0 / (2 * n) + 1e-12

    def test_target_draws_within_band(self):
        n = 10 ** 5
        s = EmpiricalSample.from_values(_laplace_draws(n, seed=101))
        assert kolmogorov_empirical(s, UNIT).value <= 1.5 * 1.36 / math.sqrt(n)

    def test_deterministic_zero_se(self):
        s = EmpiricalSample.from_values([1.0, 2.0])
        est = kolmogorov_empirical(s, UNIT)
        assert est.std_error == 0.0

    @pytest.mark.parametrize("c", [0.5, 2.0, 7.5])
    def test_scale_map_invariance(self, c):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(2000)
        base = kolmogorov_empirical(EmpiricalSample.from_values(values), UNIT)
        mapped = kolmogorov_empirical(
            EmpiricalSample.from_values(c * values), LaplaceParams(0.0, c))
        assert abs(base.value - mapped.value) <= 1e-12


class TestDkwBand:
    def test_constants(self):
        assert dkw_band(10 ** 4) == pytest.approx(1.3581 / 100.0, rel=1e-3)
        assert dkw_band(10 ** 4, alpha=0.01) == pytest.approx(1.6276 / 100.0,
                                                              rel=1e-3)


class TestFourSeRule:
    def test_band_edge_is_inclusive(self):
        assert within_four_se(1.5, 1.0, 0.125) is True
        assert within_four_se(1.5 + 1e-12, 1.0, 0.125) is False

    def test_two_sided_use(self):
        assert within_four_se(abs(0.7 - 1.0), 0.0, 0.1)
        assert not within_four_se(abs(1.5 - 1.0), 0.0, 0.1)

    def test_zero_error_means_exact_limit(self):
        assert within_four_se(1.0, 1.0, 0.0)
        assert not within_four_se(np.nextafter(1.0, 2.0), 1.0, 0.0)


class TestBlLowerBound:
    def test_same_law_sample_is_small(self):
        n = 10 ** 5
        s = EmpiricalSample.from_values(_laplace_draws(n, seed=7))
        est = bl_lower_bound(s, UNIT, dense_bl_family())
        assert est.family_size >= 100
        # every member mean is within ~4 SE of its target expectation
        assert est.value <= 6.0 * est.std_error

    def test_point_mass_oracle(self):
        # single scaled ramp at 0 with eps=1: target mean precomputed by hand
        s = EmpiricalSample.from_values([0.0])
        member = smoothed_indicator(0.0, 1.0)
        est = bl_lower_bound(s, UNIT, [member])
        want = 1.0 - (0.5 + 0.5 * (1.0 - (1.0 - math.exp(-1.0))))
        assert est.value == pytest.approx(want, abs=1e-10)
        assert est.value == pytest.approx(0.31606027941427883, abs=1e-10)

    def test_point_mass_full_family(self):
        s = EmpiricalSample.from_values([0.0])
        est = bl_lower_bound(s, UNIT, dense_bl_family())
        assert est.value >= 0.25

    def test_rejects_empty_family(self):
        s = EmpiricalSample.from_values([0.0])
        with pytest.raises(ValueError):
            bl_lower_bound(s, UNIT, [])

    def test_rejects_uncertified_member(self):
        # the ball is checked when the member is built, so no uncertified
        # member reaches bl_lower_bound
        s = EmpiricalSample.from_values([0.0, 1.0])
        with pytest.raises(CertificationError, match="steep-sine"):
            bl_lower_bound(s, UNIT, [stein.TestFunction(
                fn=lambda x: np.sin(3 * x), lip_const=3.0, sup_bound=1.0,
                label="steep-sine")])

    def test_reports_worst_member_standard_error(self):
        s = EmpiricalSample.from_values(_laplace_draws(500, seed=3))
        family = stein_family()
        est = bl_lower_bound(s, UNIT, family)
        per_h = []
        for h in family:
            vals = np.asarray(h.fn(s.values), float)
            per_h.append(np.std(vals, ddof=1) / math.sqrt(s.n))
        assert est.std_error == pytest.approx(max(per_h), rel=1e-12)


def full_loop_bl(s, target, family):
    """The reference: every member evaluated on the whole sample."""
    best, worst_se = -1.0, 0.0
    for h in family:
        vals = np.asarray(h.fn(s.values), dtype=float)
        wh = target_expectation(h, target.b)
        best = max(best, abs(float(np.mean(vals)) - wh))
        if s.n > 1:
            worst_se = max(worst_se,
                           float(np.std(vals, ddof=1)) / math.sqrt(s.n))
    return best, worst_se


DENSE = dense_bl_family()
KNOTS = sorted({k for h in DENSE for k in h.knots})


@st.composite
def screened_cases(draw):
    """(sample values, family, b) spanning the cases the screening meets."""
    n = draw(st.sampled_from([1, 2]) | st.integers(1, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["laplace", "point", "knots", "heavy",
                                 "lattice"]))
    if kind == "laplace":
        x = rng.laplace(scale=draw(st.sampled_from([0.3, 1.0, 3.0])), size=n)
    elif kind == "point":
        x = np.full(n, draw(st.sampled_from(KNOTS) | st.floats(-6.0, 6.0)))
    elif kind == "knots":
        pool = draw(st.lists(st.sampled_from(KNOTS), min_size=1, max_size=4))
        x = rng.choice(pool, size=n)
    elif kind == "heavy":
        x = np.clip(rng.standard_cauchy(n), -1e3, 1e3)
    else:
        x = np.round(rng.laplace(size=n) * 4.0) / 4.0
    members = draw(st.lists(st.sampled_from(DENSE), min_size=1, max_size=40,
                            unique_by=id))
    ramps = draw(st.lists(st.tuples(st.floats(-5.0, 5.0),
                                    st.sampled_from([0.05, 0.3, 1.0, 3.0])),
                          max_size=3))
    family = members + [smoothed_indicator(round(x0, 3), eps)
                        for x0, eps in ramps]
    return x, family, draw(st.sampled_from([0.5, 1.0, 2.0]))


class TestScreenedBlLowerBound:
    """The screening must not change a bit of the full loop's result."""

    @given(screened_cases(), st.sampled_from([1, 7, 64, 1 << 16]))
    def test_equals_full_loop_bit_for_bit(self, case, block):
        x, family, b = case
        s = EmpiricalSample.from_values(x)
        target = LaplaceParams(0.0, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK", block)
            est = bl_lower_bound(s, target, family)
        assert (est.value, est.std_error) == full_loop_bl(s, target, family)
        assert est.family_size == len(family)

    def test_full_dense_family_on_heavy_tails_and_ties(self):
        rng = np.random.default_rng(11)
        for x in (np.clip(rng.standard_cauchy(10_000), -1e3, 1e3),
                  rng.choice(KNOTS, size=10_000), np.zeros(3), [0.5]):
            s = EmpiricalSample.from_values(x)
            est = bl_lower_bound(s, UNIT, DENSE)
            assert (est.value, est.std_error) == full_loop_bl(s, UNIT, DENSE)

    def test_full_sample_evaluations_stay_few(self):
        spec = RandomSumSpec(GeometricIndex(0.01),
                             Summands(transforms.rademacher(math.sqrt(2.0))))
        s = random_sum_sample(spec, 10 ** 5, seed=7)
        edges, run_values = s.runs
        k = run_values.size  # distinct values: W lies on a lattice
        assert k <= s.n // 100
        seen = {}  # label: sample or run values evaluated, over all calls

        def counted(h):
            def fn(x):
                if np.shares_memory(x, s.values) \
                        or np.shares_memory(x, run_values):
                    seen[h.label] = seen.get(h.label, 0) + np.size(x)
                return h.fn(x)
            return dataclasses.replace(h, fn=fn)

        family = [counted(h) for h in DENSE]
        est = bl_lower_bound(s, UNIT, family)
        smooth = sum(1 for h in DENSE if not h.knots)
        # an evaluated member sees each distinct value at most twice: once
        # for its mean, once for its standard deviation
        assert 0 < len(seen) <= smooth + 8
        assert max(seen.values()) <= 2 * k
        assert (est.value, est.std_error) == full_loop_bl(s, UNIT, DENSE)


def survivors(x, family, b, exact_wh=False):
    """ids of the data members of ``family`` that ``_screen`` keeps; with
    ``exact_wh`` it screens on quad's Wh, as before the closed-form
    enclosures."""
    data = [h for h in family if h.knots]
    s = EmpiricalSample(x)
    exact = [metrics._member_stats(h, s, b) for h in family if not h.knots]
    with pytest.MonkeyPatch.context() as mp:
        if exact_wh:
            mp.setattr(metrics, "wh_enclosure",
                       lambda h, b: (target_expectation(h, b), 0.0))
        return {id(h) for h in metrics._screen(x, data, b, exact)}


class TestScreenQuadratures:
    """The screen runs on closed-form Wh bounds: a screened-out member
    needs no quadrature, and the bounds lose no survivor."""

    def test_one_point_sample_runs_three_quadratures(self, monkeypatch):
        # the benchmark's set-up call: only sin, cos and tanh are
        # integrated; every data member is screened out at 0
        ran = []
        expectation = stein.laplace_expectation

        def counted(f, b, kinks=()):
            ran.append(f)
            return expectation(f, b, kinks=kinks)

        monkeypatch.setattr(stein, "laplace_expectation", counted)
        target_expectation.cache_clear()
        try:
            bl_lower_bound(EmpiricalSample.from_values([0.0]), UNIT, DENSE)
        finally:
            target_expectation.cache_clear()
        assert sorted(f.__name__ for f in ran) == ["cos", "sin", "tanh"]

    def test_wh_anywhere_in_its_enclosure_keeps_the_result(self,
                                                          monkeypatch):
        # the ramp's diff at 0 sits 5e-9 below the smooth member's, and its
        # audited Wh is moved 0.9 radius down, which makes it the largest:
        # the screen keeps it only because pad_d carries the radius
        ramp = smoothed_indicator(0.0, 1.0)
        centre, radius = stein.wh_enclosure(ramp, 1.0)
        c = 2.0 * (1.0 - target_expectation(ramp, 1.0) + 5e-9)
        smooth = stein.TestFunction(fn=lambda x: c * np.cos(x), lip_const=c,
                                    sup_bound=c, label="c*cos")
        expectation = stein.laplace_expectation

        def moved(f, b, kinks=()):
            wh = expectation(f, b, kinks=kinks)
            return wh - 0.9 * radius if f is ramp.fn else wh

        monkeypatch.setattr(stein, "laplace_expectation", moved)
        target_expectation.cache_clear()
        try:
            s = EmpiricalSample.from_values([0.0])
            est = bl_lower_bound(s, UNIT, [smooth, ramp])
            want = full_loop_bl(s, UNIT, [smooth, ramp])
        finally:
            target_expectation.cache_clear()
        assert (est.value, est.std_error) == want
        assert est.value > c / 2.0 + 1e-9

    @given(screened_cases())
    def test_bound_survivors_include_exact_survivors(self, case):
        x, family, b = case
        x = EmpiricalSample.from_values(x).values
        assert survivors(x, family, b) >= survivors(x, family, b, True)

    @pytest.mark.parametrize("source, n", [
        (transforms.rademacher(math.sqrt(2.0)), 10 ** 6),
        (transforms.uniform_symmetric(math.sqrt(6.0)), 10 ** 5)])
    def test_benchmark_sweeps_keep_the_same_survivors(self, source, n,
                                                      monkeypatch):
        # the sweep-exact and sweep-chunked configurations at seed 7
        screened = []  # (sample, b, survivors), one per point
        screen = metrics._screen

        def recorded(x, data, b, exact):
            kept = screen(x, data, b, exact)
            screened.append((x, b, {id(h) for h in kept}))
            return kept

        monkeypatch.setattr(metrics, "_screen", recorded)
        convergence_sweep(source, [0.1, 0.03, 0.01, 0.003, 0.001], n, 7)
        monkeypatch.undo()
        assert len(screened) == 5
        for x, b, kept in screened:
            assert kept == survivors(x, DENSE, b, exact_wh=True)


class TestWasserstein:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_point_mass_equals_absolute_mean(self, b):
        s = EmpiricalSample.from_values([0.0])
        est = wasserstein_empirical(s, LaplaceParams(0.0, b))
        assert est.value == pytest.approx(b, abs=1e-12)

    def test_stratified_quantiles_small(self):
        n = 10 ** 4
        levels = (np.arange(n) + 0.5) / n
        s = EmpiricalSample.from_values(quantile(levels, UNIT))
        assert wasserstein_empirical(s, UNIT).value <= 0.01

    def test_translation(self):
        n = 10 ** 4
        shift = 3.0
        levels = (np.arange(n) + 0.5) / n
        s = EmpiricalSample.from_values(quantile(levels, UNIT) + shift)
        assert wasserstein_empirical(s, UNIT).value == pytest.approx(
            shift, abs=0.01)

    def test_against_cdf_difference_integral(self):
        # d_W equals the L1 distance between the CDFs in one dimension
        rng = np.random.default_rng(11)
        values = np.sort(rng.standard_normal(200))
        s = EmpiricalSample.from_values(values)

        def diff(x):
            return abs(np.searchsorted(values, x, side="right") / len(values)
                       - cdf(x, UNIT))

        cuts = np.concatenate([[-12.0], values, [12.0]])
        oracle = sum(integrate.quad(diff, a, b, limit=100, epsabs=1e-11)[0]
                     for a, b in zip(cuts[:-1], cuts[1:]))
        oracle += integrate.quad(lambda x: cdf(x, UNIT), -40, -12)[0]
        oracle += integrate.quad(lambda x: 1 - cdf(x, UNIT), 12, 40)[0]
        assert wasserstein_empirical(s, UNIT).value == pytest.approx(
            oracle, abs=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dominates_family_lower_bound(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(400) * rng.uniform(0.5, 2.0)
        s = EmpiricalSample.from_values(values)
        lower = bl_lower_bound(s, UNIT, dense_bl_family()).value
        upper = wasserstein_empirical(s, UNIT).value
        assert lower <= upper + 1e-9


class TestKolmogorovFromBl:
    def test_zero(self):
        assert kolmogorov_from_bl(0.0, 0.5) == 0.0

    def test_low_density_branch(self):
        assert kolmogorov_from_bl(0.04, 0.5) == pytest.approx(0.25, abs=1e-14)

    def test_branches_coincide(self):
        assert kolmogorov_from_bl(0.01, 4.0) == pytest.approx(0.3, abs=1e-14)

    def test_improved_branch_wins_for_large_density(self):
        # C = 9, d = 0.01: (C+2)/2 sqrt(d) = 0.55 vs 1.5 sqrt(Cd) = 0.45
        assert kolmogorov_from_bl(0.01, 9.0) == pytest.approx(0.45, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            kolmogorov_from_bl(-0.1, 1.0)
        with pytest.raises(ValueError):
            kolmogorov_from_bl(0.1, 0.0)

    @given(d1=st.floats(min_value=0, max_value=4),
           d2=st.floats(min_value=0, max_value=4),
           c1=st.floats(min_value=0.1, max_value=8),
           c2=st.floats(min_value=0.1, max_value=8))
    def test_monotone_in_both_arguments(self, d1, d2, c1, c2):
        lo_d, hi_d = sorted((d1, d2))
        lo_c, hi_c = sorted((c1, c2))
        assert kolmogorov_from_bl(lo_d, lo_c) <= \
            kolmogorov_from_bl(hi_d, lo_c) + 1e-12
        assert kolmogorov_from_bl(lo_d, lo_c) <= \
            kolmogorov_from_bl(lo_d, hi_c) + 1e-12


def reference_cdf(w, params):
    """The Laplace CDF with one exp per branch: the bits ``laplace.cdf``
    must keep."""
    z = (np.asarray(w, dtype=float) - params.a) / params.b
    return np.where(z <= 0, 0.5 * np.exp(np.minimum(z, 0.0)),
                    1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))


def reference_kolmogorov(x, target):
    """d_K in one full-length pass."""
    n = x.shape[0]
    f = reference_cdf(x, target)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def reference_quantile_antiderivative(u, params):
    """P(u) = int_0^u Q(t) dt, each branch picked by a boolean mask: the
    bits ``metrics._quantile_antiderivative`` must keep on its slices."""
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


def reference_wasserstein(x, target):
    """d_W in one full-length pass, each antiderivative taken over a whole
    level array."""
    n = x.shape[0]
    levels = np.arange(0, n + 1) / n
    cross = np.clip(reference_cdf(x, target), levels[:-1], levels[1:])
    p_lo = reference_quantile_antiderivative(levels[:-1], target)
    p_hi = reference_quantile_antiderivative(levels[1:], target)
    p_cr = reference_quantile_antiderivative(cross, target)
    strip = (x * (cross - levels[:-1]) - (p_cr - p_lo)) \
        + ((p_hi - p_cr) - x * (levels[1:] - cross))
    return float(np.sum(strip))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@st.composite
def kernel_samples(draw):
    """Sorted samples of 1 to 3000 values: Laplace draws, heavy-tailed
    draws, draws rounded to a coarse grid (ties) with +-0.0 mixed in, and
    lattice samples of long runs (see ``lattice_runs``)."""
    n = draw(st.integers(min_value=1, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2 ** 32 - 1)))
    kind = draw(st.sampled_from(["laplace", "heavy", "ties", "lattice"]))
    if kind == "laplace":
        x = rng.laplace(0.0, 1.0, n)
    elif kind == "heavy":
        x = rng.standard_cauchy(n) * 10.0 ** rng.integers(0, 8, n)
    elif kind == "ties":
        x = np.round(rng.laplace(0.0, 1.0, n) * 2.0) / 2.0
        x[rng.random(n) < 0.2] = -0.0
    else:
        return lattice_runs(draw, rng, n)
    return np.sort(x)


def lattice_runs(draw, rng, n):
    """n sorted values in 1 to 40 runs on a lattice delta Z, as a geometric
    sum's sample is (one run: one value n times); most runs are longer than
    a 1-, 7- or 64-value block and straddle its ends.  The zero run may
    hold -0.0 and 0.0 interleaved at random, or -0.0 alone."""
    delta = draw(st.sampled_from([math.sqrt(0.2), math.sqrt(2e-3), 0.5]))
    k = draw(st.integers(1, min(n, 40)))
    steps = rng.choice(np.arange(-60, 61), size=k, replace=False)
    x = np.repeat(delta * np.sort(steps), rng.multinomial(n - k, [1 / k] * k)
                  + 1)
    zero = x == 0.0
    if draw(st.booleans()):
        x[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, -0.0, 0.0)
    elif draw(st.booleans()):
        x[zero] = -0.0
    return x


TARGETS = st.sampled_from([UNIT, LaplaceParams(0.0, 0.4),
                           LaplaceParams(0.0, 2.5)])


class TestBlockedKernelsBits:
    """d_K and d_W taken block by block equal the full-length pass bit for
    bit, at any block size, on ties, +-0.0 and heavy tails."""

    @given(x=kernel_samples(), target=TARGETS,
           block=st.sampled_from([1, 7, 64]))
    @example(x=np.sort(np.random.default_rng(1).laplace(0.0, 1.0, 3000)),
             target=UNIT, block=1)
    @example(x=np.sort(np.random.default_rng(2).standard_cauchy(2999)),
             target=UNIT, block=64)
    @example(x=np.full(200, 0.5), target=UNIT, block=7)
    @example(x=np.repeat([-0.0, 0.0, -0.0, 0.0], [30, 1, 20, 49]),
             target=UNIT, block=64)
    def test_equal_full_length_pass(self, x, target, block):
        # d_BL too, over its runs when the sample keeps a run table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK", block)
            s = EmpiricalSample(x)
            d_k = kolmogorov_empirical(s, target).value
            d_w = wasserstein_empirical(s, target).value
            if target.a == 0.0:
                d_bl = bl_lower_bound(s, target, DENSE)
        assert d_k == reference_kolmogorov(x, target)
        assert d_w == reference_wasserstein(x, target)
        if target.a == 0.0:
            assert (d_bl.value, d_bl.std_error) == full_loop_bl(s, target,
                                                                DENSE)

    @given(x=kernel_samples(), block=st.sampled_from([1, 7, 64]))
    def test_run_table_holds_the_runs(self, x, block):
        # runs of equal bits, kept when there are at most n/2 of them
        bits = x.view(np.int64)
        k = 1 + np.count_nonzero(bits[1:] != bits[:-1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK", block)
            runs = EmpiricalSample(x).runs
        if 2 * k > x.size:
            assert runs is None
            return
        edges, run_values = runs
        assert edges[0] == 0 and edges[-1] == x.size and run_values.size == k
        assert same_bits(np.repeat(run_values, np.diff(edges)), x)
        assert np.all(run_values.view(np.int64)[1:]
                      != run_values.view(np.int64)[:-1])

    def test_sample_without_repeats_keeps_no_run_table(self):
        for x in (_laplace_draws(10 ** 5, seed=3), np.arange(-3.0, 4.0),
                  [-0.0, 0.0]):
            assert EmpiricalSample.from_values(x).runs is None

    @given(x=kernel_samples(), target=TARGETS)
    def test_cdf_keeps_its_bits(self, x, target):
        assert same_bits(cdf(x, target), reference_cdf(x, target))
        assert same_bits(cdf(-x, target), reference_cdf(-x, target))

    @given(values=st.lists(
        st.sampled_from([-1.0, -0.0, 0.0, 1.0, 1e308, -1e308,
                         math.inf, -math.inf, math.nan])
        | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40), presort=st.booleans(),
        block=st.sampled_from([1, 2, 3, 64]))
    def test_sorted_check_equals_diff_check(self, values, presort, block):
        # the checks run a block at a time; the verdicts are those of the
        # whole-array checks, the finite one first
        arr = np.asarray(values, dtype=float)
        if presort:
            arr = np.sort(arr)
        # the difference of +-1e308 overflows, that of equal infinities is nan
        with np.errstate(over="ignore", invalid="ignore"):
            unsorted = bool(np.any(np.diff(arr) < 0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK", block)
            if not np.all(np.isfinite(arr)):
                with pytest.raises(ValueError, match="finite"):
                    EmpiricalSample(arr)
            elif unsorted:
                with pytest.raises(ValueError, match="sorted"):
                    EmpiricalSample(arr)
            else:
                assert same_bits(EmpiricalSample(arr).values, arr)


LONGEST = 3 * (1 << 16) + 5
LENGTHS = st.sampled_from([1, 7, 8, 15, 16, 17, 127, 128, 129, 255, 256, 257,
                           1 << 16, (1 << 16) + 1, LONGEST]) \
    | st.integers(min_value=1, max_value=LONGEST)
BLOCKS = st.sampled_from([1, 7, 64, 128, 1 << 16])


def rounding_values(n, seed):
    """n values whose sums round at every step: heavy tails over eight
    decades, with some -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_cauchy(n) * 10.0 ** rng.integers(-4, 4, n)
    x[rng.random(n) < 0.05] = -0.0
    return x


class TestBlockedSumsBits:
    """Sums built from blocks keep numpy's bits: ``_tree_sum`` np.sum's
    pairwise tree, at any block size (below 128 values numpy does not
    split, so neither may the tree)."""

    @given(n=LENGTHS, block=BLOCKS, seed=st.integers(0, 2 ** 32 - 1))
    @example(n=LONGEST, block=1, seed=0)
    @example(n=15, block=1, seed=0)
    def test_tree_sum_equals_np_sum(self, n, block, seed):
        x = rounding_values(n, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK", block)
            got = _tree_sum(n, lambda i, j: x[i:j])
        assert same_bits(np.float64(got), np.sum(x))


class TestPrefixSums:
    """The screen's prefix sums and sum |x| need a sound error bound, not
    given bits."""

    @given(n=st.integers(min_value=1, max_value=5000),
           seed=st.integers(0, 2 ** 32 - 1),
           picks=st.lists(st.integers(0, 5000), max_size=20))
    @example(n=LONGEST, seed=0, picks=[1, 7, 8, 9, 1 << 16])
    def test_within_rounding_budget(self, n, seed, picks):
        # a sorted mixed-sign sample, cut as the screen cuts it: at 0, at n,
        # where its sign changes and at adjacent ones (0, 1 and the picks).
        # A term of p[k], m = at[k], meets at most m - 1 roundings in the
        # sums and 1 in its square, a term of sum |x| at most n - 1
        # (``_data_interval``), and math.fsum is within u of the exact sum,
        # so gamma_(m+3) and gamma_(n+3) of the sum of |terms| cover both
        x = np.sort(rounding_values(n, seed))
        at = np.unique(np.clip(np.asarray(
            picks + [0, 1, n, np.searchsorted(x, 0.0)], dtype=np.intp), 0, n))
        p1, p2, a1 = _prefix_sums(x, at)
        for k, m in enumerate(at.tolist()):
            for got, terms in ((p1[k], x[:m]), (p2[k], x[:m] * x[:m])):
                budget = math.fsum(np.abs(terms).tolist())
                assert abs(got - math.fsum(terms.tolist())) \
                    <= stein._gamma(m + 3) * budget
        budget = math.fsum(np.abs(x).tolist())
        assert abs(a1 - budget) <= stein._gamma(n + 3) * budget
