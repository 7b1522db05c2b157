import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from laplace_stein.errors import TruncationError
from laplace_stein.laplace import LaplaceParams
from laplace_stein.metrics import dkw_band, kolmogorov_empirical, kolmogorov_from_bl
from laplace_stein.random_sums import (ExplicitIndex, GeometricIndex,
                                       RandomSumSpec, Summands,
                                       _gap_truncation, _independent_sqrt_gap,
                                       _next_fast_len, convergence_sweep,
                                       expected_sqrt_index_gap, fixed_index,
                                       general_sum_bound, geometric_sum_bound,
                                       iid_sum_bound, m_distribution,
                                       random_sum_sample, recompute_bound)
from laplace_stein import transforms as tr

SQRT2 = math.sqrt(2.0)
RAD = tr.rademacher(SQRT2)


class TestIndexes:
    def test_geometric_domain(self):
        with pytest.raises(ValueError):
            GeometricIndex(0.0)
        with pytest.raises(ValueError):
            GeometricIndex(1.2)
        assert GeometricIndex(1.0).mean == 1.0

    def test_geometric_pmf_and_survival(self):
        idx = GeometricIndex(0.25)
        m = np.arange(1, 6)
        assert np.allclose(idx.pmf(m), 0.25 * 0.75 ** (m - 1), rtol=1e-15)
        assert np.allclose(idx.survival(m), 0.75 ** (m - 1), rtol=1e-15)
        assert idx.tail(10) == 0.75 ** 10

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            ExplicitIndex(probs=(0.5, 0.6))
        with pytest.raises(ValueError):
            ExplicitIndex(probs=(0.5, -0.5, 1.0))
        idx = ExplicitIndex(probs=(0.25, 0.75))
        assert idx.mean == 1.75
        assert np.allclose(idx.survival(np.array([1, 2, 3])), [1.0, 0.75, 0.0])

    def test_fixed_index(self):
        idx = fixed_index(4)
        assert idx.mean == 4.0
        assert np.allclose(idx.pmf(np.array([1, 4, 5])), [0.0, 1.0, 0.0])


class TestSummands:
    def test_cyclic_scales(self):
        sm = Summands(tr.rademacher(1.0), scales=(1.0, 2.0))
        assert not sm.is_iid
        assert np.allclose(sm.sigma2_at(np.array([1, 2, 3, 4])), [1, 4, 1, 4])
        assert sm.sup_sigma == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Summands(RAD, scales=())
        with pytest.raises(ValueError):
            Summands(RAD, scales=(1.0, -2.0))

    def test_total_variance_closed_forms(self):
        # i.i.d. geometric
        spec = RandomSumSpec(GeometricIndex(0.1), Summands(RAD))
        assert spec.sigma2_total() == pytest.approx(2.0 / 0.1, rel=1e-14)
        # cyclic + geometric vs direct series
        sm = Summands(tr.rademacher(1.0), scales=(1.0, 2.0))
        spec = RandomSumSpec(GeometricIndex(0.3), sm)
        m = np.arange(1, 400)
        series = float(np.sum(0.7 ** (m - 1) * sm.sigma2_at(m)))
        assert spec.sigma2_total() == pytest.approx(series, rel=1e-13)
        # explicit index, exact finite sum
        spec = RandomSumSpec(fixed_index(2), sm)
        assert spec.sigma2_total() == pytest.approx(1.0 + 4.0, rel=1e-14)


class TestMDistribution:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
    def test_geometric_constant_variance_collapses(self, p):
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD))
        md = m_distribution(spec, 10 ** 4)
        pn = spec.index.pmf(np.arange(1, 10 ** 4 + 1))
        assert 0.5 * np.sum(np.abs(md.pmf - pn)) <= 1e-12

    def test_deterministic_index_gives_uniform(self):
        spec = RandomSumSpec(fixed_index(7), Summands(RAD))
        md = m_distribution(spec, 7)
        assert np.array_equal(md.pmf, np.full(7, 1.0 / 7.0))
        assert md.tail_bound == 0.0

    def test_zero_variance_atom_has_zero_mass(self):
        spec = RandomSumSpec(fixed_index(2),
                             Summands(tr.rademacher(1.0), scales=(1.0, 0.0)))
        md = m_distribution(spec, 2)
        assert md.pmf[1] == 0.0 and md.pmf[0] == 1.0

    @given(p=st.floats(min_value=0.02, max_value=0.9),
           scales=st.lists(st.floats(min_value=0.1, max_value=3.0),
                           min_size=1, max_size=4))
    def test_pmf_sums_to_one(self, p, scales):
        spec = RandomSumSpec(GeometricIndex(p),
                             Summands(tr.rademacher(1.0), tuple(scales)))
        trunc = spec.index.truncation_for(1e-13)
        md = m_distribution(spec, trunc)
        assert abs(float(md.pmf.sum()) + md.tail_bound - 1.0) <= 1e-10

    def test_truncation_error(self):
        spec = RandomSumSpec(GeometricIndex(0.001), Summands(RAD))
        with pytest.raises(TruncationError):
            m_distribution(spec, 100)


class TestIndexGap:
    def test_matching_laws_give_zero(self):
        spec = RandomSumSpec(GeometricIndex(0.1), Summands(RAD))
        md = m_distribution(spec, spec.index.truncation_for(1e-24))
        gap, slack = expected_sqrt_index_gap(spec, md, "comonotone")
        assert gap == 0.0
        assert slack <= 1e-8

    def test_deterministic_vs_uniform_oracle(self):
        k = 6
        spec = RandomSumSpec(fixed_index(k), Summands(RAD))
        md = m_distribution(spec, k)
        gap, slack = expected_sqrt_index_gap(spec, md, "comonotone")
        oracle = sum(math.sqrt(k - m) for m in range(1, k + 1)) / k
        assert gap == pytest.approx(oracle, rel=1e-12)
        assert slack <= 1e-12

    def test_independent_coupling_matches_series(self):
        # for two i.i.d. geometric(p) indexes,
        # P{|N-M| = j} = 2 p (1-p)^j / (2-p) for j >= 1
        p = 0.2
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD))
        md = m_distribution(spec, spec.index.truncation_for(1e-24))
        gap, _ = expected_sqrt_index_gap(spec, md, "independent")
        series = 2 * p / (2 - p) * sum(
            math.sqrt(j) * (1 - p) ** j for j in range(1, 3000))
        assert gap == pytest.approx(series, rel=1e-10)

    def test_independent_matches_brute_force_double_sum(self):
        spec = RandomSumSpec(ExplicitIndex((0.2, 0.3, 0.5)),
                             Summands(tr.rademacher(1.0), scales=(1.0, 2.0,
                                                                  0.5)))
        md = m_distribution(spec, 3)
        gap, _ = expected_sqrt_index_gap(spec, md, "independent")
        pn = spec.index.pmf(np.arange(1, 4))
        brute = sum(pn[i] * md.pmf[j] * math.sqrt(abs(i - j))
                    for i in range(3) for j in range(3))
        assert gap == pytest.approx(brute, rel=1e-12)

    def test_unknown_coupling(self):
        spec = RandomSumSpec(GeometricIndex(0.5), Summands(RAD))
        md = m_distribution(spec, 50)
        with pytest.raises(ValueError):
            expected_sqrt_index_gap(spec, md, "antithetic")


def fftconvolve_gap(pn, pm):
    """The independent-coupling gap as SciPy's fftconvolve gives it: the
    reference the numpy FFT must reproduce bit for bit."""
    from scipy.signal import fftconvolve

    corr = np.clip(fftconvolve(pn, pm[::-1]), 0.0, None)
    d = np.arange(-(pm.shape[0] - 1), pn.shape[0])
    return np.sum(np.sqrt(np.abs(d)) * corr)


class TestIndependentGapBits:
    """The numpy-FFT correlation keeps the bits of scipy.signal.fftconvolve,
    so the independent-coupling reports do not move.  On a numpy whose FFT
    rounds differently these tests fail, rather than the reports changing
    silently."""

    @given(k=st.integers(min_value=1, max_value=3000),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           zeros=st.sampled_from([0.0, 0.5, 0.95]),
           atom=st.sampled_from([None, "pn", "pm"]))
    def test_equals_fftconvolve_bit_for_bit(self, k, seed, zeros, atom):
        # equal lengths, as the bounds pass them, or one input of length 1,
        # where fftconvolve multiplies instead of transforming (an FFT there
        # moves the gap by an ulp in about 2 of 5 draws)
        rng = np.random.default_rng(seed)
        pn = rng.random(1 if atom == "pn" else k)
        pm = rng.random(1 if atom == "pm" else k)
        pn[rng.random(pn.shape[0]) < zeros] = 0.0
        pm[rng.random(pm.shape[0]) < zeros] = 0.0
        assert _independent_sqrt_gap(pn, pm) == fftconvolve_gap(pn, pm)

    @pytest.mark.parametrize("p", [1e-3, 1e-4])
    def test_bounds_deep_specs_equal_fftconvolve(self, p):
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD, (1.0, 2.0)))
        md = m_distribution(spec, _gap_truncation(spec))
        pn = spec.index.pmf(np.arange(1, md.pmf.shape[0] + 1))
        gap, _ = expected_sqrt_index_gap(spec, md, "independent")
        assert gap == fftconvolve_gap(pn, md.pmf)

    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len

        ours = [_next_fast_len(n) for n in range(1, 200_001)]
        assert ours == [next_fast_len(n, real=True)
                        for n in range(1, 200_001)]
        for n in (10 ** 9 + 1, 2 ** 31 - 1, 3 ** 19 + 1, 10 ** 12 + 7):
            assert _next_fast_len(n) == next_fast_len(n, real=True)


class TestGeometricSumBound:
    def test_reference_value(self):
        rep = geometric_sum_bound(0.01, 1.0, 2 * SQRT2)
        assert rep.value == pytest.approx(0.5656854249492381, rel=1e-14)
        assert rep.kind == "geometric_sum"

    def test_cap_near_one(self):
        rep = geometric_sum_bound(0.99, 1.0, 2 * SQRT2)
        assert rep.value == 2.0
        raw = rep.components["sqrt_p"] * rep.components["prefactor"] * (
            rep.components["sigma_term"] + rep.components["third_moment_term"])
        assert raw > 2.0

    def test_formal_zero_third_moment(self):
        rep = geometric_sum_bound(0.25, 1.0, 0.0)
        raw = rep.components["sqrt_p"] * rep.components["prefactor"] * (
            rep.components["sigma_term"] + rep.components["third_moment_term"])
        assert raw == pytest.approx(0.5 * 3.0 * SQRT2, rel=1e-14)
        assert rep.value == min(2.0, raw)

    def test_domain(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.0, 1.0),
                    (0.5, 1.0, -1.0)):
            with pytest.raises(ValueError):
                geometric_sum_bound(*bad)

    def test_rederivable(self):
        rep = geometric_sum_bound(0.37, 0.8, 1.5)
        assert recompute_bound(rep.kind, rep.components) == rep.value


class TestRecomputeProperty:
    @given(p=st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
           b=st.floats(min_value=1e-3, max_value=1e3),
           rho=st.floats(min_value=0.0, max_value=1e6))
    def test_geometric_sum_round_trip(self, p, b, rho):
        rep = geometric_sum_bound(p, b, rho)
        assert recompute_bound(rep.kind, rep.components) == rep.value

    @given(weights=st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                            max_size=6).filter(any),
           scales=st.lists(st.floats(min_value=0.25, max_value=4.0),
                           min_size=1, max_size=3),
           source=st.sampled_from(tr.builtin_sources(1.0)),
           coupling=st.sampled_from(("comonotone", "independent")))
    def test_general_sum_round_trip(self, weights, scales, source, coupling):
        total = sum(weights)
        index = ExplicitIndex(tuple(w / total for w in weights))
        spec = RandomSumSpec(index, Summands(source, tuple(scales)))
        rep = general_sum_bound(spec, coupling=coupling)
        assert recompute_bound(rep.kind, rep.components) == rep.value


class TestIidSumBound:
    def test_geometric_collapses_to_closed_form(self):
        # comonotone coupling makes M = N, so the gap term drops and the
        # bound reduces to (b+2)/(b sqrt(mu)) (E|X_1| + rho/(6 b^2))
        spec = RandomSumSpec(GeometricIndex(0.01), Summands(RAD))
        rep = iid_sum_bound(spec)
        pre_form = 3.0 / math.sqrt(100.0) * (SQRT2 + 2 * SQRT2 / 6.0)
        assert rep.components["e_sqrt_gap"] == 0.0
        assert rep.value == pytest.approx(pre_form, abs=1e-8)
        assert rep.components["abs_mean"] == pytest.approx(SQRT2)

    def test_deterministic_index(self):
        k = 6
        spec = RandomSumSpec(fixed_index(k), Summands(RAD))
        rep = iid_sum_bound(spec)
        gap = sum(math.sqrt(k - m) for m in range(1, k + 1)) / k
        b = 1.0
        raw = (b + 2) / (b * math.sqrt(k)) * (
            SQRT2 + 2 * SQRT2 / 6.0 + b * SQRT2 * gap)
        assert rep.components["e_sqrt_gap"] == pytest.approx(gap, rel=1e-12)
        got_raw = rep.components["prefactor"] * (
            rep.components["abs_mean"] + rep.components["third_moment_term"]
            + rep.components["index_gap_term"])
        assert got_raw == pytest.approx(raw, rel=1e-9)
        assert rep.value == min(2.0, got_raw)

    def test_rejects_non_iid(self):
        spec = RandomSumSpec(GeometricIndex(0.5),
                             Summands(tr.rademacher(1.0), scales=(1.0, 2.0)))
        with pytest.raises(ValueError):
            iid_sum_bound(spec)

    def test_rederivable(self):
        spec = RandomSumSpec(fixed_index(3), Summands(RAD))
        rep = iid_sum_bound(spec, coupling="independent")
        assert recompute_bound(rep.kind, rep.components) == rep.value


class TestGeneralSumBound:
    def test_iid_reduction_matches(self):
        spec = RandomSumSpec(GeometricIndex(0.01), Summands(RAD))
        assert general_sum_bound(spec).value == pytest.approx(
            iid_sum_bound(spec).value, rel=1e-12)

    def test_two_block_hand_evaluation(self):
        # N = 2, scales (1, 2) on unit atoms: sigma^2 = 5, pmf_M = (1/5, 4/5)
        spec = RandomSumSpec(fixed_index(2),
                             Summands(tr.rademacher(1.0), scales=(1.0, 2.0)))
        rep = general_sum_bound(spec)
        c = rep.components
        assert c["mu_inv_sqrt"] == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert c["sqrt8_over_sigma"] == pytest.approx(math.sqrt(8.0 / 5.0),
                                                      rel=1e-14)
        assert c["abs_mean_m"] == pytest.approx(0.2 * 1 + 0.8 * 2, rel=1e-14)
        # ratio term for two-point magnitudes: E[|X_M|^3/sigma_M^2] = E[c_M]
        assert c["third_moment_m"] == pytest.approx(
            (0.2 * 1 + 0.8 * 2) / 3.0, rel=1e-14)
        assert c["index_gap_term"] == pytest.approx(2.0 * 0.2, abs=1e-12)
        assert recompute_bound(rep.kind, rep.components) == rep.value

    def test_zero_variance_atom_skipped(self):
        spec = RandomSumSpec(fixed_index(2),
                             Summands(tr.rademacher(1.0), scales=(1.0, 0.0)))
        rep = general_sum_bound(spec)
        assert math.isfinite(rep.value)


class TestRandomSumSample:
    def test_degenerate_geometric_index(self):
        spec = RandomSumSpec(GeometricIndex(1.0), Summands(RAD))
        s = random_sum_sample(spec, 200, 3)
        assert set(np.round(s.values, 12)) <= {round(-SQRT2, 12),
                                               round(SQRT2, 12)}

    def test_deterministic(self):
        spec = RandomSumSpec(GeometricIndex(0.2), Summands(RAD))
        a = random_sum_sample(spec, 100, 5)
        b = random_sum_sample(spec, 100, 5)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("make", [
        lambda: tr.rademacher(SQRT2),          # binomial fast path
        lambda: tr.laplace_source(1.0),        # gamma-difference fast path
        lambda: tr.uniform_symmetric(math.sqrt(6)),  # generic chunked path
    ])
    def test_scaled_variance(self, make):
        src = make()
        spec = RandomSumSpec(GeometricIndex(0.02), Summands(src))
        n = 4 * 10 ** 4
        s = random_sum_sample(spec, n, 11)
        sq = s.values ** 2
        se = np.std(sq, ddof=1) / math.sqrt(n)
        assert abs(np.mean(sq) - 2.0) <= 4.0 * se
        assert abs(np.mean(s.values)) <= 4.0 * math.sqrt(2.0 / n)

    def test_cyclic_scales_variance(self):
        spec = RandomSumSpec(fixed_index(2),
                             Summands(tr.rademacher(1.0), scales=(1.0, 2.0)))
        n = 4 * 10 ** 4
        s = random_sum_sample(spec, n, 13)
        sq = s.values ** 2
        se = np.std(sq, ddof=1) / math.sqrt(n)
        assert abs(np.mean(sq) - 2.5) <= 4.0 * se

    def test_rejects_empty(self):
        spec = RandomSumSpec(GeometricIndex(0.5), Summands(RAD))
        with pytest.raises(ValueError):
            random_sum_sample(spec, 0, 1)


class TestConvergenceSweep:
    def test_structure_and_certification(self):
        res = convergence_sweep(RAD, (0.5, 0.1), 5000, 7)
        assert len(res.points) == 2
        assert res.family_size >= 100
        for pt in res.points:
            rep = pt.report
            assert rep.verdict is True
            assert set(rep.empirical) == {"d_K", "d_BL_lower", "d_W_upper"}
            assert recompute_bound(rep.kind, rep.components) == rep.value
            # certified chain: d_K below the converted bound plus noise band
            conv = kolmogorov_from_bl(rep.value, 0.5)
            assert rep.empirical["d_K"].value <= conv + \
                rep.components["dkw_band"]
            assert rep.components["dk_conversion"] == pytest.approx(conv)
        assert math.isfinite(res.slope)

    def test_deterministic(self):
        a = convergence_sweep(RAD, (0.3,), 2000, 9)
        b = convergence_sweep(RAD, (0.3,), 2000, 9)
        assert a.points[0].report.empirical["d_K"].value == \
            b.points[0].report.empirical["d_K"].value
        assert a.slope is not a.points  # smoke: slope is nan for single point

    def test_points_do_not_depend_on_their_neighbours(self):
        # point i draws from its own (seed, i) stream, so changing the other
        # p values leaves it bit-for-bit unchanged
        a = convergence_sweep(RAD, (0.3, 0.1), 5000, 11).points[1].report
        b = convergence_sweep(RAD, (0.5, 0.1), 5000, 11).points[1].report
        assert a.empirical == b.empirical
        assert a.components == b.components
        assert a.value == b.value and a.verdict == b.verdict

    def test_bracket_ordering(self):
        res = convergence_sweep(RAD, (0.2,), 20000, 21)
        emp = res.points[0].report.empirical
        assert emp["d_BL_lower"].value <= emp["d_W_upper"].value + 1e-9

    def test_degenerate_point_against_two_atom_law(self):
        # at p = 1 the scaled sum is X_1 itself; the distance of the exact
        # two-atom law to Laplace(0,1) is 1/2 - F(-sqrt(2)), and the
        # empirical statistic sits within a DKW band of it
        n = 10 ** 5
        spec = RandomSumSpec(GeometricIndex(1.0), Summands(RAD))
        s = random_sum_sample(spec, n, 31)
        d_k = kolmogorov_empirical(s, LaplaceParams(0.0, 1.0))
        exact = 0.5 - 0.5 * math.exp(-SQRT2)
        assert abs(d_k.value - exact) <= dkw_band(n, alpha=0.01)
