import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from laplace_stein.laplace import LaplaceParams, cdf, char_fn, quantile
from laplace_stein.metrics import EmpiricalSample, dkw_band, kolmogorov_empirical
from laplace_stein.seeding import derive_seed, substream
from laplace_stein import metrics, transforms as tr

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)


def ks_against(values, cdf_fn):
    """Exact one-sample Kolmogorov statistic against an arbitrary CDF."""
    xs = np.sort(values)
    n = xs.size
    f = np.asarray(cdf_fn(xs), dtype=float)
    return max(np.max(np.arange(1, n + 1) / n - f),
               np.max(f - np.arange(0, n) / n))


class TestSources:
    def test_rademacher_moments(self):
        src = tr.rademacher(SQRT2)
        assert src.sigma2 == pytest.approx(2.0, rel=1e-15)
        assert src.abs_mean == SQRT2
        assert src.abs_third == pytest.approx(2 * SQRT2)
        assert src.b_equiv == pytest.approx(1.0, rel=1e-15)

    def test_uniform_moments(self):
        src = tr.uniform_symmetric(SQRT6)
        assert src.sigma2 == pytest.approx(2.0)
        assert src.abs_mean == pytest.approx(SQRT6 / 2)
        assert src.abs_third == pytest.approx(SQRT6 ** 3 / 4)

    def test_laplace_moments(self):
        src = tr.laplace_source(0.5)
        assert src.sigma2 == 0.5
        assert src.abs_mean == 0.5
        assert src.abs_third == 6 * 0.125

    @pytest.mark.parametrize("make", [lambda: tr.rademacher(SQRT2),
                                      lambda: tr.uniform_symmetric(SQRT6),
                                      lambda: tr.laplace_source(1.0)])
    def test_sign_balance_and_mean_zero(self, make):
        src = make()
        n = 10 ** 5
        x = np.asarray(src.sampler(substream(1234, src.label), n))
        assert abs(np.mean(np.sign(x))) <= 4.0 / math.sqrt(n)
        assert abs(np.mean(x)) <= 4.0 * math.sqrt(src.sigma2 / n)
        var_se = np.std(x ** 2, ddof=1) / math.sqrt(n)
        assert abs(np.mean(x ** 2) - src.sigma2) <= 4.0 * var_se

    def test_builtin_sources_matched_variance(self):
        for src in tr.builtin_sources(1.0):
            assert src.sigma2 == pytest.approx(2.0)

    @pytest.mark.parametrize("make, closed_form", [
        (tr.rademacher, lambda c: (c ** 2, c, c ** 3)),
        (tr.uniform_symmetric, lambda c: (c ** 2 / 3.0, c / 2.0,
                                          c ** 3 / 4.0)),
        (tr.laplace_source, lambda b: (2.0 * b ** 2, b, 6.0 * b ** 3))])
    @pytest.mark.parametrize("c", [SQRT2, SQRT6, 0.3, 1e-100, 1e100])
    def test_moments_come_from_the_recipe(self, make, closed_form, c):
        # E[X^2], E|X| and E|X|^3 are read from abs_moment when the source
        # is built, with the bits of each closed form
        src = make(c)
        moments = (src.sigma2, src.abs_mean, src.abs_third)
        assert moments == tuple(src.abs_moment(k) for k in (2, 1, 3))
        assert moments == closed_form(c)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(src, sigma2=1.0)

    @given(make=st.sampled_from([tr.rademacher, tr.uniform_symmetric,
                                 tr.laplace_source]),
           which=st.sampled_from(["y_magnitude", "z_magnitude"]),
           c=st.floats(min_value=1e-100, max_value=1e100),
           n=st.integers(min_value=0, max_value=300),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_magnitudes_are_finite_and_nonnegative(self, make, which, c, n,
                                                    seed):
        # |Y| and |Z| carry no sign: the transform draws it once
        values = getattr(make(c), which)(np.random.default_rng(seed), n)
        assert values.shape == (n,)
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0.0)

    def test_recipes_are_required(self):
        # a source without its transform recipes fails when it is built
        with pytest.raises(TypeError):
            tr.SourceDistribution(label="bare",
                                  abs_moment=lambda k: 1.0,
                                  sampler=lambda rng, n: rng.normal(size=n))


class TestSgnBias:
    def test_rademacher_sign_bias_is_uniform(self):
        # |y|-reweighting of two equal atoms leaves them equal, so U*Y is
        # uniform on (-c, c)
        c = SQRT2
        ts = tr.sgn_bias_sample(tr.rademacher(c), 10 ** 5, 7)
        band = dkw_band(ts.n, alpha=0.01)
        uniform_cdf = lambda x: np.clip((x + c) / (2 * c), 0.0, 1.0)
        assert ks_against(ts.values, uniform_cdf) <= band

    def test_laplace_sign_bias_is_fixed_point(self):
        b = 1.0
        ts = tr.sgn_bias_sample(tr.laplace_source(b), 10 ** 5, 11)
        assert ks_against(ts.values, lambda x: cdf(x, LaplaceParams(0, b))) \
            <= dkw_band(ts.n, alpha=0.01)

    def test_sign_symmetry(self):
        ts = tr.sgn_bias_sample(tr.laplace_source(1.0), 10 ** 5, 3)
        assert abs(np.mean(np.sign(ts.values))) <= 4.0 / math.sqrt(ts.n)

    def test_empty_sample(self):
        ts = tr.sgn_bias_sample(tr.rademacher(1.0), 0, 1)
        assert ts.values.shape == (0,)

    def test_reproducible(self):
        a = tr.sgn_bias_sample(tr.rademacher(1.0), 100, 5)
        b = tr.sgn_bias_sample(tr.rademacher(1.0), 100, 5)
        assert np.array_equal(a.values, b.values)
        c = tr.sym_equilibrium_sample(tr.rademacher(1.0), 100, 5)
        assert not np.array_equal(a.values, c.values)


class TestSymEquilibrium:
    def test_rademacher_triangular_law(self):
        # X_L = U*Z with |Z| = c sqrt(U) has the tent density (c-|s|)/c^2
        c = SQRT2
        ts = tr.sym_equilibrium_sample(tr.rademacher(c), 10 ** 5, 13)

        def tent_cdf(s):
            s = np.clip(np.asarray(s, float), -c, c)
            return np.where(s < 0, (c + s) ** 2 / (2 * c ** 2),
                            1.0 - (c - s) ** 2 / (2 * c ** 2))

        assert ks_against(ts.values, tent_cdf) <= dkw_band(ts.n, alpha=0.01)

    def test_uniform_cubic_law(self):
        # X_L = U*Z with |Z|/c of CDF 3r^2 - 2r^3 has the density
        # 3 (c-|s|)^2 / (2 c^3)
        c = SQRT6
        ts = tr.sym_equilibrium_sample(tr.uniform_symmetric(c), 10 ** 5, 41)

        def xl_cdf(s):
            s = np.clip(np.asarray(s, float), -c, c)
            return np.where(s < 0, (c + s) ** 3 / (2 * c ** 3),
                            1.0 - (c - s) ** 3 / (2 * c ** 3))

        assert ks_against(ts.values, xl_cdf) <= dkw_band(ts.n, alpha=0.01)

    def test_rademacher_second_moment(self):
        # second moment c^2/6 = b^2/3 at c = sqrt(2) b
        ts = tr.sym_equilibrium_sample(tr.rademacher(SQRT2), 10 ** 6, 17)
        sq = ts.values ** 2
        se = np.std(sq, ddof=1) / math.sqrt(ts.n)
        assert abs(np.mean(sq) - 1.0 / 3.0) <= 4.0 * se

    def test_uniform_z_inverse_closed_form(self):
        us = np.linspace(1e-9, 1 - 1e-9, 1001)
        r = tr._smoothstep_inverse(us)
        assert np.max(np.abs(3 * r ** 2 - 2 * r ** 3 - us)) <= 1e-12

    def test_laplace_fixed_point(self):
        b = 1.0
        ts = tr.sym_equilibrium_sample(tr.laplace_source(b), 10 ** 5, 3)
        d_k = kolmogorov_empirical(EmpiricalSample.from_values(ts.values),
                                   LaplaceParams(0.0, b))
        assert d_k.value <= dkw_band(ts.n, alpha=0.01)

    def test_empty(self):
        assert tr.sym_equilibrium_sample(tr.uniform_symmetric(1.0), 0,
                                         1).values.shape == (0,)


class TestEquilibriumMoment:
    def test_laplace_is_fixed_point(self):
        src = tr.laplace_source(1.3)
        assert tr.equilibrium_moment(2, src) == pytest.approx(
            2 * 1.3 ** 2, rel=1e-14)

    def test_odd_vanishes(self):
        assert tr.equilibrium_moment(1, tr.rademacher(2.0)) == 0.0

    def test_rademacher(self):
        assert tr.equilibrium_moment(2, tr.rademacher(SQRT2)) == pytest.approx(
            1.0 / 3.0, rel=1e-14)

    def test_uniform(self):
        c = SQRT6
        assert tr.equilibrium_moment(2, tr.uniform_symmetric(c)) == \
            pytest.approx(c ** 2 / 10.0, rel=1e-13)


class TestEquilibriumCf:
    def test_limit_at_zero(self):
        assert tr.equilibrium_cf(0.0, tr.rademacher(1.0)) == 1.0

    def test_laplace_fixed_point_algebra(self):
        src = tr.laplace_source(1.0)
        for t in (0.5, 1.0, 2.0):
            assert tr.equilibrium_cf(t, src) == pytest.approx(
                char_fn(t, LaplaceParams(0, 1)), rel=1e-14)

    def test_rademacher_value(self):
        got = tr.equilibrium_cf(1.0, tr.rademacher(SQRT2))
        assert got == pytest.approx(1.0 - math.cos(SQRT2), rel=1e-14)

    @given(make=st.sampled_from([tr.rademacher, tr.uniform_symmetric,
                                 tr.laplace_source]),
           j=st.integers(min_value=-60, max_value=60),
           t=st.floats(min_value=1e-9, max_value=10.0))
    def test_power_of_two_equivariant(self, make, j, t):
        # the series cutoff is on t b, so X -> 2^j X with t -> t / 2^j
        # gives the same bits on either branch
        assert tr.equilibrium_cf(math.ldexp(t, -j), make(2.0 ** j)) \
            == tr.equilibrium_cf(t, make(1.0))

    def test_series_switchover_is_continuous(self):
        # the exact branch carries ~1e-8 cancellation error at the cutoff
        # (1 - cf(t) loses half its digits there), which is what the series
        # branch removes; continuity across the cutover is limited by it
        src = tr.uniform_symmetric(SQRT6)
        lo = tr.equilibrium_cf(1e-4 * (1 - 1e-9), src)
        hi = tr.equilibrium_cf(1e-4 * (1 + 1e-9), src)
        assert abs(lo - hi) <= 1e-7

    @pytest.mark.parametrize("make", [lambda: tr.rademacher(SQRT2),
                                      lambda: tr.uniform_symmetric(SQRT6),
                                      lambda: tr.laplace_source(1.0)])
    def test_empirical_cf_matches(self, make):
        src = make()
        ts = tr.sym_equilibrium_sample(src, 10 ** 5, 29)
        for t in (0.5, 1.0, 2.0):
            phases = np.cos(t * ts.values)
            se = np.std(phases, ddof=1) / math.sqrt(ts.n)
            assert abs(np.mean(phases) - tr.equilibrium_cf(t, src)) <= 4 * se


class TestZeroBias:
    def test_rademacher_gives_uniform(self):
        c = SQRT2
        ts = tr.zero_bias_sample(tr.rademacher(c), 10 ** 5, 19)
        uniform_cdf = lambda x: np.clip((x + c) / (2 * c), 0.0, 1.0)
        assert ks_against(ts.values, uniform_cdf) <= dkw_band(ts.n, alpha=0.01)

    def test_zero_bias_identity_rademacher(self):
        # E[X f(X)] = E[X^2] E[f'(X_z)] with f = x^3:
        # LHS = c^4, RHS = c^2 E[3 U^2] = c^4 for U ~ Uniform(-c, c)
        c = 1.7
        ts = tr.zero_bias_sample(tr.rademacher(c), 10 ** 6, 23)
        rhs = c ** 2 * np.mean(3.0 * ts.values ** 2)
        se = c ** 2 * np.std(3.0 * ts.values ** 2, ddof=1) / math.sqrt(ts.n)
        assert abs(rhs - c ** 4) <= 4 * se

    def test_uniform_epanechnikov_moment(self):
        c = SQRT6
        ts = tr.zero_bias_sample(tr.uniform_symmetric(c), 10 ** 6, 27)
        sq = ts.values ** 2
        se = np.std(sq, ddof=1) / math.sqrt(ts.n)
        assert abs(np.mean(sq) - c ** 2 / 5.0) <= 4 * se

    def test_laplace_mixture_moment(self):
        b = 0.8
        ts = tr.zero_bias_sample(tr.laplace_source(b), 10 ** 6, 31)
        sq = ts.values ** 2
        se = np.std(sq, ddof=1) / math.sqrt(ts.n)
        assert abs(np.mean(sq) - 4.0 * b ** 2) <= 4 * se

    def test_mean_zero(self):
        ts = tr.zero_bias_sample(tr.rademacher(SQRT2), 10 ** 5, 3)
        assert abs(np.mean(ts.values)) <= 4.0 * np.std(ts.values) / \
            math.sqrt(ts.n)

    def test_empty(self):
        assert tr.zero_bias_sample(tr.rademacher(1.0), 0, 1).values.size == 0


class TestUniformZeroBiasBits:
    """The median of three by min and max is the element np.median picks,
    and rows drawn a block at a time are the rows of one draw, so the
    uniform zero-bias draws keep their bits."""

    @given(n=st.integers(min_value=0, max_value=3000),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           c=st.sampled_from([0.3, 1.0, SQRT6]),
           block=st.sampled_from([1, 7, 1 << 16]))
    def test_equals_np_median(self, n, seed, c, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "_BLOCK", block)
            got = tr.uniform_symmetric(c).zero_bias_sampler(
                np.random.default_rng(seed), n)
        want = c * np.median(
            np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3)), axis=1)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestUniformSamplerBits:
    """The uniform sampler's array arithmetic is Generator.uniform's, bit
    for bit."""

    @given(n=st.integers(min_value=0, max_value=3000),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           c=st.sampled_from([0.3, 1.0, SQRT6, 1e-300, 1e100]))
    def test_equals_generator_uniform(self, n, seed, c):
        got = tr.uniform_symmetric(c).sampler(np.random.default_rng(seed), n)
        want = np.random.default_rng(seed).uniform(-c, c, n)
        assert got.tobytes() == want.tobytes()


def signed_reference(rng, magnitudes):
    """The whole-array random sign: one draw of n integers, a +-1.0 factor
    per value."""
    return (2.0 * rng.integers(0, 2, magnitudes.shape[0]) - 1.0) * magnitudes


def smoothstep_reference(u):
    return 0.5 - np.sin(np.arcsin(1.0 - 2.0 * u) / 3.0)


def laplace_quantile_reference(u, b):
    """The Laplace quantile with a new array per step, both branches by
    mask; the upper branch's 0.0 - x gives +0.0 at u = 1/2."""
    out = np.empty_like(u)
    lower = u < 0.5
    out[lower] = b * np.log(2.0 * u[lower])
    out[~lower] = 0.0 - b * np.log(2.0 * (1.0 - u[~lower]))
    return out


SOURCES = {"rademacher": tr.rademacher(SQRT2),
           "uniform": tr.uniform_symmetric(SQRT6),
           "laplace": tr.laplace_source(0.7)}

# the whole-array |Y| and |Z| of each source, called as (rng, n); the
# array-shape gamma call is Gamma(2) with one shape per value
MAGNITUDE_FORMS = {
    ("rademacher", "y"): lambda rng, n: np.full(n, SQRT2),
    ("rademacher", "z"): lambda rng, n: SQRT2 * np.sqrt(rng.random(n)),
    ("uniform", "y"): lambda rng, n: SQRT6 * np.sqrt(rng.random(n)),
    ("uniform", "z"): lambda rng, n: SQRT6 * smoothstep_reference(
        rng.random(n)),
    ("laplace", "y"): lambda rng, n: 0.7 * rng.standard_gamma(
        np.full(n, 2.0)),
    ("laplace", "z"): lambda rng, n: 0.7 * rng.standard_gamma(
        np.full(n, 2.0)),
}

PRODUCT_SAMPLES = {"y": (tr.sgn_bias_sample, "sgn-bias"),
                   "z": (tr.sym_equilibrium_sample, "symmetric-equilibrium")}


def product_forms(name, which):
    """The transform sample of source ``name`` at a seed drawn from rng,
    and its whole-array form on the same substream: U times the signed
    whole-array magnitude."""
    src, magnitude = SOURCES[name], MAGNITUDE_FORMS[name, which]
    sample, transform = PRODUCT_SAMPLES[which]

    def got(rng, n):
        return sample(src, n, int(rng.integers(2 ** 32))).values

    def want(rng, n):
        sub = substream(int(rng.integers(2 ** 32)), transform, src.label)
        u = sub.random(n)
        return u * signed_reference(sub, magnitude(sub, n))

    return got, want


# (sampler under test, its whole-array form), both called as (rng, n)
WHOLE_ARRAY_FORMS = {
    **{f"{name}-{which}": (getattr(SOURCES[name], f"{which}_magnitude"),
                           form)
       for (name, which), form in MAGNITUDE_FORMS.items()},
    **{f"{name}-{PRODUCT_SAMPLES[which][1]}": product_forms(name, which)
       for name, which in MAGNITUDE_FORMS},
    "rademacher-atoms": (
        SOURCES["rademacher"].sampler,
        lambda rng, n: signed_reference(rng, np.full(n, SQRT2))),
    "laplace-zero-bias": (
        SOURCES["laplace"].zero_bias_sampler,
        lambda rng, n: signed_reference(
            rng, 0.7 * rng.standard_gamma(1.0 + (rng.random(n) < 0.5)))),
    "laplace-draw": (
        SOURCES["laplace"].sampler,
        lambda rng, n: laplace_quantile_reference(
            np.maximum(rng.random(n), 2.0 ** -53), 0.7)),
}


class TestInPlaceBits:
    """The samplers form their values in place, signs and blocks of rows a
    block at a time, with the bits of the whole-array forms and the same
    generator state after; small blocks make every loop take several, the
    last one partial."""

    @given(name=st.sampled_from(sorted(WHOLE_ARRAY_FORMS)),
           n=st.integers(min_value=0, max_value=300),
           block=st.sampled_from([1, 7, 1 << 16]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_equals_whole_array_form(self, name, n, block, seed):
        sampler, reference = WHOLE_ARRAY_FORMS[name]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "_BLOCK", block)
            got = sampler(rng, n)
        want = reference(ref, n)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @given(source=st.sampled_from(["rademacher", "laplace"]),
           counts=st.lists(st.sampled_from([1, 2, 30, 1000, 10 ** 6])
                           | st.integers(min_value=1, max_value=500),
                           min_size=1, max_size=200),
           scale=st.sampled_from([1.0, 0.7, math.sqrt(2.0)]),
           block=st.sampled_from([1, 7, 1 << 16]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_sum_sampler_equals_whole_array_form(self, source, counts, scale,
                                                 block, seed):
        # the sums go over the int64 counts' storage, a block at a time
        counts = np.asarray(counts, dtype=np.int64)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if source == "rademacher":
            sampler = tr.rademacher(scale).sum_sampler
            want = scale * (2.0 * ref.binomial(counts, 0.5) - counts)
        else:
            sampler = tr.laplace_source(scale).sum_sampler
            want = scale * (ref.standard_gamma(counts)
                            - ref.standard_gamma(counts))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "_BLOCK", block)
            got = sampler(rng, counts.copy())
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           b=st.sampled_from([0.7, 2.0, 1e-3]))
    def test_laplace_quantile_equals_masked_form(self, seed, b):
        u = np.random.default_rng(seed).random(300)
        u[:3] = (0.5, 2.0 ** -53, 1.0 - 2.0 ** -53)
        got = quantile(u, LaplaceParams(0.0, b))
        assert got.tobytes() == laplace_quantile_reference(u, b).tobytes()

    def test_gamma2_scalar_shape_equals_array_shape(self):
        # Generator.standard_gamma(2.0, n) draws what one shape per value
        # draws, without the n-float shape array
        got = np.random.default_rng(3).standard_gamma(2.0, 100_003)
        want = np.random.default_rng(3).standard_gamma(np.full(100_003, 2.0))
        assert got.tobytes() == want.tobytes()

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                           min_size=1, max_size=300))
    def test_mc_estimate_equals_np_mean_and_std(self, values):
        arr = np.array(values)
        before = arr.copy()
        est = tr.mc_estimate(arr)
        assert est.value == float(np.mean(arr))
        want = (float(np.std(arr, ddof=1) / math.sqrt(arr.size))
                if arr.size > 1 else math.inf)
        assert est.std_error == want
        assert arr.tobytes() == before.tobytes()

    @given(n=st.integers(min_value=2, max_value=200),
           block=st.sampled_from([1, 7, 1 << 16]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           f_dd=st.sampled_from([np.ones_like, np.square, np.cos]))
    def test_zero_bias_relation_equals_whole_array_form(self, n, block, seed,
                                                        f_dd):
        src = tr.uniform_symmetric(SQRT6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "_BLOCK", block)  # the maps
            mp.setattr(metrics, "_BLOCK", block)  # the estimates' sums
            got = tr.verify_zero_bias_relation(src, f_dd, n, seed)
        lhs = 0.5 * f_dd(tr.sym_equilibrium_sample(src, n, seed).values)
        xz = tr.zero_bias_sample(src, n, derive_seed(seed,
                                                     "zero-bias-relation"))
        u = substream(seed, "zero-bias-relation", src.label).random(n)
        rhs = u * f_dd(u * xz.values)
        assert got.value == float(np.mean(lhs)) - float(np.mean(rhs))
        assert got.std_error == math.hypot(
            float(np.std(lhs, ddof=1) / math.sqrt(n)),
            float(np.std(rhs, ddof=1) / math.sqrt(n)))


class TestMcEstimate:
    """mc_estimate sums a block at a time (``metrics._tree_sum``) with the
    bits of np.mean and np.std(ddof=1) / sqrt(n), and leaves its input as
    it is."""

    @given(block=st.sampled_from([1, 7, 1 << 16]),
           extra=st.integers(min_value=0, max_value=300),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_equals_np_mean_and_std_across_blocks(self, block, extra, seed):
        # the tree's leaves hold up to max(_BLOCK, 128) values: three or more
        n = 3 * max(block, 128) + extra
        rng = np.random.default_rng(seed)
        x = rng.standard_cauchy(n) * 10.0 ** rng.integers(-4, 4, n)
        before = x.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK", block)
            est = tr.mc_estimate(x)
        assert est.value == float(np.mean(x))
        assert est.std_error == float(np.std(x, ddof=1) / math.sqrt(n))
        assert x.tobytes() == before.tobytes()

    def test_allocates_at_most_two_blocks(self):
        x = np.random.default_rng(5).random(10 ** 6)
        tracemalloc.start()
        try:
            est = tr.mc_estimate(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.value == float(np.mean(x))
        assert peak <= 2 * metrics._BLOCK * x.itemsize


class TestZeroBiasRelation:
    @pytest.mark.parametrize("f_dd", [lambda x: np.ones_like(x), np.square,
                                      np.cos])
    def test_vanishes_for_rademacher(self, f_dd):
        est = tr.verify_zero_bias_relation(tr.rademacher(SQRT2), f_dd,
                                           10 ** 5, 37)
        assert abs(est.value) <= 4.0 * est.std_error

    def test_square_case_analytic_sides(self):
        # both sides equal c^2/12: (1/2) E[(X_L)^2] and E[U^3] E[(X_z)^2]
        c = SQRT2
        src = tr.rademacher(c)
        assert 0.5 * tr.equilibrium_moment(2, src) == pytest.approx(
            c ** 2 / 12.0, rel=1e-14)
        assert 0.25 * (c ** 2 / 3.0) == pytest.approx(c ** 2 / 12.0)


class TestCouplingInequality:
    @pytest.mark.parametrize("make", [lambda: tr.rademacher(SQRT2),
                                      lambda: tr.uniform_symmetric(SQRT6)])
    def test_independent_coupling_gap_bound(self, make):
        # E|X - X_L| under independent draws is at most
        # E|X| + E|X|^3/(6 b^2), and E|X_L| equals the second term exactly.
        src = make()
        n = 10 ** 6
        b2 = src.sigma2 / 2.0
        x = np.asarray(src.sampler(substream(43, "coupling", src.label), n))
        xl = tr.sym_equilibrium_sample(src, n, 47).values
        gap = np.abs(x - xl)
        se = np.std(gap, ddof=1) / math.sqrt(n)
        bound = src.abs_mean + src.abs_third / (6.0 * b2)
        assert np.mean(gap) <= bound + 4.0 * se

        abs_xl = np.abs(xl)
        se_l = np.std(abs_xl, ddof=1) / math.sqrt(n)
        assert abs(np.mean(abs_xl) - src.abs_third / (6.0 * b2)) <= 4.0 * se_l

    @pytest.mark.parametrize("make", [lambda: tr.rademacher(SQRT2),
                                      lambda: tr.uniform_symmetric(SQRT6)])
    def test_cubic_chain(self, make):
        # E[f(X)] - f(0) = (1/2) E[X^2] E[f''(X_L)] for f = x^3, both sides
        # estimated independently
        src = make()
        n = 10 ** 6
        x = np.asarray(src.sampler(substream(53, "chain", src.label), n))
        xl = tr.sym_equilibrium_sample(src, n, 59).values
        lhs = np.mean(x ** 3)
        se_l = np.std(x ** 3, ddof=1) / math.sqrt(n)
        rhs = 0.5 * src.sigma2 * np.mean(6.0 * xl)
        se_r = 0.5 * src.sigma2 * np.std(6.0 * xl, ddof=1) / math.sqrt(n)
        assert abs(lhs - rhs) <= 4.0 * math.hypot(se_l, se_r)

