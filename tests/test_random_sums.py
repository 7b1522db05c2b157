import dataclasses
import math
import multiprocessing
import sys
import tracemalloc
import weakref
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, reject, settings,
                        strategies as st)

from laplace_stein.errors import TruncationError
from laplace_stein.laplace import LaplaceParams
from laplace_stein.metrics import (EmpiricalSample, bl_lower_bound,
                                   dkw_band, kolmogorov_empirical,
                                   kolmogorov_from_bl, wasserstein_empirical)
from laplace_stein.random_sums import (FixedIndex, GeometricIndex,
                                       RandomSumSpec, Summands,
                                       _chunked_sums,
                                       _comonotone_sqrt_gap,
                                       _independent_sqrt_gap,
                                       _moments_under_m,
                                       _next_fast_len, convergence_sweep,
                                       expected_sqrt_index_gap,
                                       general_sum_bound, geometric_sum_bound,
                                       iid_sum_bound, m_distribution,
                                       random_sum_sample, recompute_bound)
from laplace_stein.seeding import substream
from laplace_stein.stein import dense_bl_family
from laplace_stein import (cli, metrics, random_sums, seeding,
                           transforms as tr)
from lattice_oracle import exact_kolmogorov, exact_pmf, sample_kolmogorov

SQRT2 = math.sqrt(2.0)
RAD = tr.rademacher(SQRT2)


def atom_survival(index, m):
    """P{N >= m} at each atom of the index array m (within a fixed index's
    support): the reference for ``survival_atoms``."""
    if isinstance(index, GeometricIndex):
        return (1.0 - index.p) ** (m - 1)
    return np.ones(m.shape[0])


def atom_moments(summands, m):
    """(sigma_m^2, E|X_m|, E|X_m|^3) at each atom of the index array m, from
    its scale scales[(m-1) mod L] in numpy array arithmetic: the reference
    for the per-residue tables."""
    s = np.asarray(summands.scales)[(m - 1) % len(summands.scales)]
    base = summands.base
    return s ** 2 * base.sigma2, s * base.abs_mean, s ** 3 * base.abs_third


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
        assert np.allclose(idx.pmf_atoms(5), 0.25 * 0.75 ** (m - 1),
                           rtol=1e-15)
        assert np.allclose(idx.survival_atoms(5), 0.75 ** (m - 1), rtol=1e-15)
        assert idx.tail(10) == 0.75 ** 10

    def test_fixed_index(self):
        # the integer alone; every atom up to k survives, none beyond it
        idx = FixedIndex(4)
        assert [f.name for f in dataclasses.fields(idx)] == ["k"]
        assert idx.mean == 4.0
        assert np.array_equal(idx.survival_atoms(4), [1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(idx.survival_atoms(9), [1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(idx.survival_atoms(2), [1.0, 1.0])
        assert idx.tail(4) == idx.tail(9) == 0.0 and idx.tail(3) == 1.0
        for bad in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                FixedIndex(bad)


class TestSurvivalSlices:
    """A geometric survival is filled one contiguous slice per part, on the
    pool when there are several, and has the bits of one np.power over the
    whole exponent range however it is split: on the pool, on one CPU, and
    from a pool thread, where it runs on that thread alone."""

    BLOCK = random_sums._DRAW_BLOCK
    # (k, parts on three CPUs): just below two slices' least size, at it,
    # and well above it, odd
    SIZES = ((2 * BLOCK - 1, 1), (2 * BLOCK, 2), (3 * BLOCK + 12345, 3))

    @pytest.mark.parametrize("where", ["pool", "one CPU", "pool thread"])
    @settings(max_examples=8, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(p=st.floats(min_value=1e-7, max_value=1.0))
    @example(p=1.0)
    @example(p=1e-7)
    def test_bits_of_one_power(self, where, p, workers):
        workers(1 if where == "one CPU" else 3)
        index = GeometricIndex(p)
        for k, parts in self.SIZES:
            want = np.power(1 - p, np.arange(k, dtype=float))
            if where == "pool thread":
                run = seeding._pool().submit
                assert run(random_sums._parts, k).result(60) == 1
                got = run(index.survival_atoms, k).result(60)
            else:
                assert random_sums._parts(k) == (
                    1 if where == "one CPU" else parts)
                got = index.survival_atoms(k)
            assert got.tobytes() == want.tobytes()

    def test_more_threads_than_cores(self, workers):
        # eight slices on eight threads, switching every microsecond: a
        # slice written to the wrong place shows
        workers(8)
        k = 8 * self.BLOCK + 3
        want = np.power(0.999, np.arange(k, dtype=float))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = GeometricIndex(0.001).survival_atoms(k)
        finally:
            sys.setswitchinterval(interval)
        assert random_sums._parts(k) == 8
        assert got.tobytes() == want.tobytes()


class TestSummands:
    def test_cyclic_scales(self):
        sm = Summands(tr.rademacher(1.0), scales=(1.0, 2.0))
        assert not sm.is_iid
        sigma2, abs_mean, abs_third = sm.residue_moments
        assert np.array_equal(sigma2, [1.0, 4.0])
        assert np.array_equal(abs_mean, [1.0, 2.0])
        assert np.array_equal(abs_third, [1.0, 8.0])
        assert sm.sup_sigma == 2.0

    @pytest.mark.parametrize("source", [RAD, tr.uniform_symmetric(3.0),
                                        tr.laplace_source(0.7)],
                             ids=["rademacher", "uniform", "laplace"])
    def test_residue_moments_are_read_only_fields(self, source):
        # computed once, when the summands are built, with the bits of the
        # moments recomputed from the scales
        scales = (1.0, 0.0, 2.5, 1e-3)
        sm = Summands(source, scales)
        s = np.asarray(scales)
        expected = (s ** 2 * source.sigma2, s * source.abs_mean,
                    s ** 3 * source.abs_third)
        assert len(sm.residue_moments) == 3
        for table, want in zip(sm.residue_moments, expected):
            assert np.array_equal(table, want)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Summands(RAD, scales=())
        with pytest.raises(ValueError):
            Summands(RAD, scales=(1.0, -2.0))

    def test_total_variance_closed_forms(self):
        # i.i.d. geometric
        spec = RandomSumSpec(GeometricIndex(0.1), Summands(RAD))
        assert spec.sigma2_total == pytest.approx(2.0 / 0.1, rel=1e-14)
        # cyclic + geometric vs direct series
        sm = Summands(tr.rademacher(1.0), scales=(1.0, 2.0))
        spec = RandomSumSpec(GeometricIndex(0.3), sm)
        m = np.arange(1, 400)
        series = float(np.sum(0.7 ** (m - 1) * atom_moments(sm, m)[0]))
        assert spec.sigma2_total == pytest.approx(series, rel=1e-13)
        # fixed index, exact finite sum
        spec = RandomSumSpec(FixedIndex(2), sm)
        assert spec.sigma2_total == pytest.approx(1.0 + 4.0, rel=1e-14)


class TestMDistribution:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
    def test_geometric_constant_variance_collapses(self, p):
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD))
        md = m_distribution(spec)
        pn = spec.index.pmf_atoms(md.pmf.shape[0])
        assert 0.5 * np.sum(np.abs(md.pmf - pn)) <= 1e-12

    def test_deterministic_index_gives_uniform(self):
        spec = RandomSumSpec(FixedIndex(7), Summands(RAD))
        md = m_distribution(spec)
        assert np.array_equal(md.pmf, np.full(7, 1.0 / 7.0))
        assert md.tail_bound == 0.0

    def test_zero_variance_atom_has_zero_mass(self):
        spec = RandomSumSpec(FixedIndex(2),
                             Summands(tr.rademacher(1.0), scales=(1.0, 0.0)))
        md = m_distribution(spec)
        assert md.pmf[1] == 0.0 and md.pmf[0] == 1.0

    @given(p=st.floats(min_value=0.02, max_value=0.9),
           scales=st.lists(st.floats(min_value=0.1, max_value=3.0),
                           min_size=1, max_size=4))
    def test_pmf_sums_to_one(self, p, scales):
        spec = RandomSumSpec(GeometricIndex(p),
                             Summands(tr.rademacher(1.0), tuple(scales)))
        md = m_distribution(spec)
        assert abs(float(md.pmf.sum()) + md.tail_bound - 1.0) <= 1e-10

    @pytest.mark.parametrize("index", [
        GeometricIndex(1e-4), GeometricIndex(0.123), FixedIndex(3)],
        ids=["p1e-4", "p0.123", "fixed"])
    def test_builds_no_index_pmf(self, index, monkeypatch):
        # M's law alone, read-only; the gap takes N's atoms from the index
        def refused(self, k):
            raise AssertionError("m_distribution built N's pmf")

        monkeypatch.setattr(type(index), "pmf_atoms", refused, raising=False)
        md = m_distribution(RandomSumSpec(index, Summands(RAD, (1.0, 2.0))))
        assert [f.name for f in dataclasses.fields(md)] \
            == ["pmf", "tail_bound", "mean"]
        assert not md.pmf.flags.writeable
        with pytest.raises(ValueError):
            md.pmf[0] = 0.0

    def test_fixed_index_takes_its_whole_support(self):
        # k atoms, tail 0.0, each atom's mass its variance over sigma^2
        spec = RandomSumSpec(FixedIndex(4),
                             Summands(tr.rademacher(1.0), (1.0, 2.0)))
        md = m_distribution(spec)
        assert md.pmf.shape[0] == 4 and md.tail_bound == 0.0
        assert spec.sigma2_total == 10.0
        assert np.array_equal(md.pmf, [0.1, 0.4, 0.1, 0.4])


class TestMLawOnSpec:
    """m_distribution builds M's law at its first call for a spec, the
    spec holds it, and it dies with the spec."""

    def test_one_law_per_spec(self):
        summands = Summands(RAD, (1.0, 2.0))
        spec = RandomSumSpec(GeometricIndex(0.01), summands)
        law = m_distribution(spec)
        assert m_distribution(spec) is law
        fresh = m_distribution(RandomSumSpec(GeometricIndex(0.01), summands))
        assert fresh is not law
        assert fresh.pmf.tobytes() == law.pmf.tobytes()

    def test_law_dies_with_its_spec(self):
        spec = RandomSumSpec(GeometricIndex(0.01), Summands(RAD))
        law = weakref.ref(m_distribution(spec))
        assert law() is not None
        del spec
        assert law() is None

    @pytest.mark.parametrize("scales, floats", [((1.0,), 0.1),
                                                ((1.0, 2.0), 0.25)],
                             ids=["iid", "cyclic"])
    def test_second_bound_builds_no_law(self, scales, floats):
        # the second bound reads the law the first one built: what it
        # allocates is a few of ``metrics._tree_sum``'s leaf blocks, not a
        # k-float array (4.4 MB at p = 1e-4).  A leaf holds k/16 atoms
        # here: one block on i.i.d. summands, where the ratio is divided in
        # place, and three on cyclic ones, which gather each residue table
        # through an index array
        spec = RandomSumSpec(GeometricIndex(1e-4), Summands(RAD, scales))
        first = iid_sum_bound if len(scales) == 1 else general_sum_bound
        first(spec)
        k = m_distribution(spec).pmf.shape[0]
        _, peak = traced_peak(general_sum_bound, spec, "comonotone")
        assert peak < floats * 8 * k

    def test_bounds_command_holds_one_law(self, tmp_path):
        # two reports at one p: each p's law is built once and freed with
        # its spec before the next p's is built
        k = GeometricIndex(1e-4).truncation_for(1e-24)
        argv = ["bounds", "--source", "rademacher", "--c", str(SQRT2),
                "--p", "1e-4,1e-4", "--out", str(tmp_path / "report.json")]
        status, peak = traced_peak(cli.main, argv)
        assert status == 0
        assert peak <= 1.2 * 8 * k


def two_stage_truncation(spec):
    """The k that m_distribution once took in two stages, the oracle of its
    one rule: N's 1e-24 truncation, grown where M's certified tail there is
    above 1e-10 to the k where it is not; None where no k certifies it."""
    index = spec.index
    ratio = spec.summands.sup_sigma ** 2 / spec.sigma2_total
    k = index.truncation_for(1e-24)
    if ratio * index.tail(k) / index.p > 1e-10:
        if not 1e-10 * index.p / ratio > 0.0:
            return None
        k = index.truncation_for(1e-10 * index.p / ratio)
    return k


class TestTruncationRule:
    """m_distribution picks k from the spec alone: one truncation, at the
    smaller of N's tail 1e-24 and the tail that keeps M's certified tail
    at most 1e-10."""

    def test_tail_ratio_past_the_floats_is_refused(self):
        # the one positive scale is on atom 106, whose survival 0.001^105
        # is subnormal: sup_i sigma_i^2 / sigma^2 overflows, and no k
        # certifies M's tail
        spec = RandomSumSpec(GeometricIndex(0.999),
                             Summands(RAD, (0.0,) * 105 + (1.0,)))
        with pytest.raises(TruncationError, match="leaves no k"):
            m_distribution(spec)

    @given(p=st.floats(min_value=1e-3, max_value=0.9),
           scales=st.lists(st.just(0.0)
                           | st.floats(min_value=1e-30, max_value=1e10),
                           min_size=1, max_size=40).filter(any).map(tuple))
    @example(p=0.9, scales=(1.0,) * 39 + (1e10,))
    def test_geometric_specs(self, p, scales):
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD, scales))
        general_sum_bound(spec)
        md = m_distribution(spec)
        k, k0 = md.pmf.shape[0], spec.index.truncation_for(1e-24)
        ratio = spec.summands.sup_sigma ** 2 / spec.sigma2_total
        assert md.tail_bound <= 1e-10 * (1.0 + 8 * 2.0 ** -52)
        if ratio * spec.index.tail(k0) / p <= 1e-10:
            assert k == k0
        else:
            # the least k, up to the rounding of its logarithm
            assert k > k0
            assert ratio * spec.index.tail(k - 1) / p > 1e-10 * (1 - 1e-9)

    @given(p=st.floats(min_value=1e-3, max_value=0.99),
           scales=st.lists(st.floats(min_value=1e-3, max_value=10.0),
                           max_size=39),
           large=st.floats(min_value=1.0, max_value=1e10),
           at=st.integers(min_value=0, max_value=39))
    @example(p=0.9, scales=[1.0] * 39, large=1e10, at=39)
    @example(p=0.999, scales=[0.0] * 105, large=1.0, at=105)
    def test_one_rule_equals_two_stages(self, p, scales, large, at):
        # cyclic scales with one large scale; the last example's ratio
        # overflows, and both rules refuse it
        scales = (*scales[:at], large, *scales[at:])
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD, scales))
        k = two_stage_truncation(spec)
        if k is None:
            with pytest.raises(TruncationError, match="leaves no k"):
                m_distribution(spec)
        else:
            assert m_distribution(spec).pmf.shape[0] == k

    def test_readme_example(self):
        # 39 ones and a last 1e10 at p = 0.9: M's tail grows k from N's 24
        spec = RandomSumSpec(GeometricIndex(0.9),
                             Summands(RAD, (1.0,) * 39 + (1e10,)))
        assert spec.index.truncation_for(1e-24) == 24
        assert m_distribution(spec).pmf.shape[0] == 30 \
            == two_stage_truncation(spec)


class TestIndexGap:
    def test_matching_laws_give_zero(self):
        spec = RandomSumSpec(GeometricIndex(0.1), Summands(RAD))
        md = m_distribution(spec)
        gap, slack = expected_sqrt_index_gap(spec, md, "comonotone")
        assert gap == 0.0
        assert slack <= 1e-8

    def test_deterministic_vs_uniform_oracle(self):
        k = 6
        spec = RandomSumSpec(FixedIndex(k), Summands(RAD))
        md = m_distribution(spec)
        gap, slack = expected_sqrt_index_gap(spec, md, "comonotone")
        oracle = sum(math.sqrt(k - m) for m in range(1, k + 1)) / k
        assert gap == pytest.approx(oracle, rel=1e-12)
        assert slack <= 1e-12

    def test_independent_coupling_matches_series(self):
        # for two i.i.d. geometric(p) indexes,
        # P{|N-M| = j} = 2 p (1-p)^j / (2-p) for j >= 1
        p = 0.2
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD))
        md = m_distribution(spec)
        gap, _ = expected_sqrt_index_gap(spec, md, "independent")
        series = 2 * p / (2 - p) * sum(
            math.sqrt(j) * (1 - p) ** j for j in range(1, 3000))
        assert gap == pytest.approx(series, rel=1e-10)

    def test_independent_matches_brute_force_double_sum(self):
        # a geometric index at p = 0.5 with cyclic scales: k is about 80,
        # small enough for the double sum over both truncated supports
        spec = RandomSumSpec(GeometricIndex(0.5),
                             Summands(tr.rademacher(1.0), scales=(1.0, 2.0,
                                                                  0.5)))
        md = m_distribution(spec)
        k = md.pmf.shape[0]
        assert 70 <= k <= 100
        gap, _ = expected_sqrt_index_gap(spec, md, "independent")
        pn = spec.index.pmf_atoms(k)
        brute = math.fsum(pn[i] * md.pmf[j] * math.sqrt(abs(i - j))
                          for i in range(k) for j in range(k))
        assert gap == pytest.approx(brute, rel=1e-12)

    def test_unknown_coupling(self):
        # refused on a fixed index too, whose gap reads no coupling
        for index in (GeometricIndex(0.5), FixedIndex(3)):
            spec = RandomSumSpec(index, Summands(RAD))
            md = m_distribution(spec)
            with pytest.raises(ValueError, match="unknown coupling"):
                expected_sqrt_index_gap(spec, md, "antithetic")


class TestFixedIndexGap:
    """N = k is a constant, so every coupling of N and M is the product
    one: both couplings give one sum, sum_m P{M = m} sqrt(k - m)."""

    @given(k=st.integers(min_value=1, max_value=2000),
           scales=st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.5, 1.65])
                           | st.floats(min_value=0.1, max_value=4.0),
                           min_size=1, max_size=4).map(tuple),
           source=st.sampled_from(tr.builtin_sources(1.0)))
    @example(k=1, scales=(1.0,), source=RAD)
    @example(k=2000, scales=(1.0, 0.0, 2.0), source=RAD)
    def test_couplings_agree_within_slack_of_oracle(self, k, scales, source):
        try:
            spec = RandomSumSpec(FixedIndex(k), Summands(source, scales))
        except ValueError:  # no atom N reaches has variance
            reject()
        reports = {coupling: general_sum_bound(spec, coupling).components
                   for coupling in ("comonotone", "independent")}
        gap = reports["comonotone"]["e_sqrt_gap"]
        slack = reports["comonotone"]["gap_tail_slack"]
        assert reports["independent"] == reports["comonotone"]
        pmf = m_distribution(spec).pmf
        oracle = math.fsum(pmf[m - 1] * math.sqrt(k - m)
                           for m in range(1, k + 1))
        assert abs(gap - oracle) <= slack


def periodic_gap_oracle(p, scales):
    """The comonotone E|N - M|^(1/2) on a geometric index with cyclic
    scales, in exact rational arithmetic: N and M both put mass 1 - q^L on
    the first L atoms and then repeat, scaled by q^L, so the gap is the
    merge of those atoms' quantile breaks over 1 - q^L.  The total width at
    each |N - M| = d is exact; only the sum of sqrt(d) times it is float."""
    p = Fraction(p)
    q, period = 1 - p, len(scales)
    var = [Fraction(s) ** 2 for s in scales]  # sigma_r^2 over the base's
    mass = 1 - q ** period
    # P{M = r} = sigma_r^2 q^(r-1) / sigma^2, sigma^2 = sum_r ... / mass
    tilt = mass / sum(v * q ** r for r, v in enumerate(var))
    cn = list(accumulate(p * q ** r for r in range(period)))
    cm = list(accumulate(v * q ** r * tilt for r, v in enumerate(var)))
    assert cn[-1] == cm[-1] == mass
    width, last = defaultdict(Fraction), Fraction(0)
    for brk in sorted(set(cn) | set(cm)):
        width[abs(bisect_left(cn, brk) - bisect_left(cm, brk))] += brk - last
        last = brk
    return math.fsum(math.sqrt(d) * float(w / mass) for d, w in width.items())


class TestPeriodicGap:
    """The comonotone gap on a geometric index against exact arithmetic.
    The tolerance is 1e-10 relative, not a few ulps: sigma^2 takes 1 - q^L
    by subtraction, which shifts the M-pmf by up to 5e-12 relative at
    p = 1e-5."""

    @pytest.mark.parametrize("p", [0.2, 0.05, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("scales", [(1.0, 2.0), (1.0, 0.0, 2.0),
                                        (1.0, 2.0, 3.0), (0.5, 1.7)])
    def test_equals_exact_rational_gap(self, scales, p):
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD, scales))
        gap = general_sum_bound(spec).components["e_sqrt_gap"]
        assert gap == pytest.approx(periodic_gap_oracle(p, scales),
                                    rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("p", [0.2, 0.05])
    @pytest.mark.parametrize("scales", [(1.0, 2.0), (1.0, 0.0, 2.0),
                                        (0.5, 1.7)])
    def test_identity_equals_merge_of_all_atoms(self, scales, p):
        # the merge over all k atoms, whose rounding is small at k <= 1100,
        # agrees with the periodic identity: the identity is right
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD, scales))
        md = m_distribution(spec)
        whole = quantile_merge_gap(spec.index.pmf_atoms(md.pmf.shape[0]),
                                   md.pmf)
        assert whole == pytest.approx(periodic_gap_oracle(p, scales),
                                      rel=1e-12, abs=0.0)

    def test_period_longer_than_truncation(self):
        # 40 scales at p = 0.9 give k = 24: the first k atoms are merged,
        # and the mass beyond them, below 1e-24, is the slack's tail term
        scales = (1.0, 2.0, 0.5, 3.0) * 10
        spec = RandomSumSpec(GeometricIndex(0.9), Summands(RAD, scales))
        md = m_distribution(spec)
        assert md.pmf.shape[0] == 24 < len(scales)
        gap, slack = expected_sqrt_index_gap(spec, md, "comonotone")
        assert gap == pytest.approx(periodic_gap_oracle(0.9, scales),
                                    rel=1e-10, abs=0.0)
        assert 0.0 < slack <= 1e-10


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
           zeros=st.sampled_from([0.0, 0.5, 0.95]))
    @example(k=1, seed=0, zeros=0.0)
    def test_equals_fftconvolve_bit_for_bit(self, k, seed, zeros):
        # two inputs of one length k, as the bounds pass them; at k = 1 the
        # length-1 transforms give fftconvolve's plain product
        rng = np.random.default_rng(seed)
        pn = rng.random(k)
        pm = rng.random(k)
        pn[rng.random(pn.shape[0]) < zeros] = 0.0
        pm[rng.random(pm.shape[0]) < zeros] = 0.0
        assert _independent_sqrt_gap(pn, pm) == fftconvolve_gap(pn, pm)

    @pytest.mark.parametrize("p", [1e-3, 1e-4])
    def test_bounds_deep_specs_equal_fftconvolve(self, p):
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD, (1.0, 2.0)))
        md = m_distribution(spec)
        pn = spec.index.pmf_atoms(md.pmf.shape[0])
        gap, _ = expected_sqrt_index_gap(spec, md, "independent")
        assert gap == fftconvolve_gap(pn, md.pmf)

    def test_next_fast_len_matches_scipy(self):
        # the answer is a step function of n that steps just past each
        # 5-smooth number s, so s and s +- 1 for every s <= 2**20 meet
        # every step at both its ends
        from scipy.fft import next_fast_len

        smooth = [2 ** a * 3 ** b * 5 ** c for a in range(21)
                  for b in range(14) for c in range(9)]
        lengths = sorted({n for s in smooth if s <= 1 << 20
                          for n in (s - 1, s, s + 1) if n >= 1})
        lengths += [10 ** 9 + 1, 2 ** 31 - 1, 3 ** 19 + 1, 10 ** 12 + 7]
        assert [_next_fast_len(n) for n in lengths] \
            == [next_fast_len(n, real=True) for n in lengths]


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

    @given(index=st.integers(min_value=1, max_value=6).map(FixedIndex)
           | st.just(GeometricIndex(0.5)),
           scales=st.lists(st.floats(min_value=0.25, max_value=4.0),
                           min_size=1, max_size=3),
           source=st.sampled_from(tr.builtin_sources(1.0)),
           coupling=st.sampled_from(("comonotone", "independent")))
    def test_general_sum_round_trip(self, index, scales, source, coupling):
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
        spec = RandomSumSpec(FixedIndex(k), Summands(RAD))
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
        spec = RandomSumSpec(FixedIndex(3), Summands(RAD))
        rep = iid_sum_bound(spec, coupling="independent")
        assert recompute_bound(rep.kind, rep.components) == rep.value


class TestGeneralSumBound:
    def test_iid_reduction_matches(self):
        spec = RandomSumSpec(GeometricIndex(0.01), Summands(RAD))
        assert general_sum_bound(spec).value == pytest.approx(
            iid_sum_bound(spec).value, rel=1e-12)

    def test_two_block_hand_evaluation(self):
        # N = 2, scales (1, 2) on unit atoms: sigma^2 = 5, pmf_M = (1/5, 4/5)
        spec = RandomSumSpec(FixedIndex(2),
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
        spec = RandomSumSpec(FixedIndex(2),
                             Summands(tr.rademacher(1.0), scales=(1.0, 0.0)))
        rep = general_sum_bound(spec)
        assert math.isfinite(rep.value)


def quantile_merge_gap(pn, pm):
    """The comonotone gap by merging the two quantile break sets, for every
    pair of pmfs: the reference for ``_comonotone_sqrt_gap``."""
    cn, cm = np.cumsum(pn), np.cumsum(pm)
    top = min(cn[-1], cm[-1])
    breaks = np.union1d(cn, cm)
    breaks = breaks[breaks <= top]
    nq = np.searchsorted(cn, breaks, side="left")
    mq = np.searchsorted(cm, breaks, side="left")
    widths = np.diff(np.concatenate([[0.0], breaks]))
    return float(np.sum(np.sqrt(np.abs(nq - mq)) * widths))


def per_atom_bounds(spec, coupling, k):
    """(M-pmf, gap, i.i.d. components or None, general components) at the
    truncation k, each atom's moments and survival evaluated on the full
    index array m = 1..k: the reference for the per-residue tables.  A
    fixed index's gap is np.sum of P{M = m} sqrt(k - m) under either
    coupling.  N's pmf is the M-pmf on a geometric index with i.i.d.
    summands, where M has N's law.  A geometric comonotone gap merges the
    first min(k, L) atoms and divides by 1 - q^L."""
    sm, index = spec.summands, spec.index
    m = np.arange(1, k + 1)
    sigma2 = spec.sigma2_total
    sigma2_m, abs_mean_m, abs_third_m = atom_moments(sm, m)
    pmf = sigma2_m / sigma2 * atom_survival(index, m)
    if isinstance(index, FixedIndex):
        tail = 0.0
        gap = float(np.sum(pmf * np.sqrt(k - m.astype(float))))
    else:
        tail = sm.sup_sigma ** 2 / sigma2 * (1.0 - index.p) ** k / index.p
        pn = pmf if sm.is_iid else index.p * atom_survival(index, m)
        if coupling == "independent":
            gap = _independent_sqrt_gap(pn, pmf)
        else:
            # both laws repeat with the period L of the scales, scaled by q^L
            period = len(sm.scales)
            atoms = min(k, period)
            gap = quantile_merge_gap(pn[:atoms], pmf[:atoms]) \
                / -math.expm1(period * math.log1p(-index.p))
    slack = k * np.finfo(float).eps * math.sqrt(2.0 * k)
    tail_mass = index.tail(k) + tail
    if tail_mass > 0.0:
        slack += (math.sqrt(index.mean)
                  + math.sqrt(float(np.sum(m * pmf)) + 1.0)) \
            * math.sqrt(tail_mass)
    mu = index.mean
    common = {"e_sqrt_gap": gap, "gap_tail_slack": slack, "mu": mu,
              "cap": 2.0}
    general = dict(common, **{
        "mu_inv_sqrt": 1.0 / math.sqrt(mu),
        "sqrt8_over_sigma": math.sqrt(8.0) / math.sqrt(sigma2),
        "abs_mean_m": float(np.sum(pmf * abs_mean_m)),
        "third_moment_m": float(np.sum(third_over_variance(
            pmf, abs_third_m, sigma2_m))) / 3.0,
        "index_gap_term": sm.sup_sigma * (gap + slack)})
    iid = None
    if sm.is_iid:
        b = math.sqrt(sigma2_m[0] / 2.0)
        iid = dict(common, **{
            "prefactor": (b + 2.0) / (b * math.sqrt(mu)),
            "abs_mean": float(abs_mean_m[0]),
            "third_moment_term": float(abs_third_m[0]) / (6.0 * b ** 2),
            "index_gap_term": b * math.sqrt(2.0) * (gap + slack)})
    return pmf, gap, iid, general


def third_over_variance(pmf, third, var):
    """pmf * third / var per atom, 0.0 where var is 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(var > 0, pmf * third / var, 0.0)


# 1.45, 1.65, 2.9 and 3.3 cube differently as Python or numpy scalars than
# in a numpy array on some CPUs; 0.0 makes atoms without M-mass
SCALES = st.sampled_from([0.0, 1.0, 2.0, 0.5, 1.45, 1.65, 2.9, 3.3]) \
    | st.floats(min_value=0.1, max_value=4.0)
INDEXES = st.floats(min_value=1e-3, max_value=0.9).map(GeometricIndex) \
    | st.integers(min_value=1, max_value=600).map(FixedIndex)


class TestBoundBits:
    """The M-law, the comonotone gap and every bound component equal the
    per-atom reference bit for bit, so no report moves."""

    @given(index=INDEXES,
           scales=st.lists(SCALES, min_size=1, max_size=4).map(tuple),
           source=st.sampled_from(tr.builtin_sources(1.0)),
           coupling=st.sampled_from(("comonotone", "independent")))
    @example(index=GeometricIndex(0.03), scales=(1.0,),
             source=tr.uniform_symmetric(math.sqrt(6.0)),
             coupling="comonotone")
    @example(index=GeometricIndex(0.05), scales=(1.0, 1.0),
             source=RAD, coupling="comonotone")
    @example(index=GeometricIndex(0.2), scales=(1.45, 0.0, 2.9),
             source=RAD, coupling="comonotone")
    @example(index=FixedIndex(4), scales=(1.65,),
             source=RAD, coupling="independent")
    @example(index=GeometricIndex(0.9), scales=(1.0, 2.0) * 20, source=RAD,
             coupling="comonotone")
    def test_equals_per_atom_reference(self, index, scales, source,
                                       coupling):
        try:
            spec = RandomSumSpec(index, Summands(source, scales))
        except ValueError:  # no atom N reaches has variance
            reject()
        md = m_distribution(spec)
        k = md.pmf.shape[0]
        pmf, gap, iid, general = per_atom_bounds(spec, coupling, k)
        assert np.array_equal(md.pmf, pmf)
        if isinstance(index, GeometricIndex):
            assert np.array_equal(index.pmf_atoms(k), index.p * atom_survival(
                index, np.arange(1, k + 1)))
        assert md.mean == float(np.sum(np.arange(1.0, k + 1.0) * pmf))
        assert expected_sqrt_index_gap(spec, md, coupling)[0] == gap
        if iid is not None:
            assert iid_sum_bound(spec, coupling).components == iid
        assert general_sum_bound(spec, coupling).components == general

    @given(pn=st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                       max_size=300).filter(any),
           pair=st.sampled_from(("copy", "reversed", "rolled")))
    @example(pn=[1] * 200, pair="rolled")
    @example(pn=[1, 0, 0, 0, 0, 0, 0, 2], pair="reversed")
    def test_gap_equals_quantile_merge(self, pn, pair):
        pn = np.asarray(pn, dtype=float) / sum(pn)
        pm = {"copy": pn.copy(), "reversed": pn[::-1].copy(),
              "rolled": np.roll(pn, 1)}[pair]
        assert _comonotone_sqrt_gap(pn, pm) == quantile_merge_gap(pn, pm)

    @given(scales=st.lists(SCALES, min_size=1, max_size=4).map(tuple),
           source=st.sampled_from(tr.builtin_sources(1.0)),
           k=st.integers(min_value=1, max_value=600),
           zeros=st.sampled_from((0.0, 0.3)),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           block=st.sampled_from((1, 7, 1 << 16)))
    def test_moments_equal_whole_pmf_sums(self, scales, source, k, zeros,
                                          seed, block):
        # the leaves' terms are np.sum's over the whole pmf, an atom
        # without variance adding 0.0 to the ratio
        sm = Summands(source, scales)
        rng = np.random.default_rng(seed)
        pmf = rng.random(k)
        pmf[rng.random(k) < zeros] = 0.0
        sigma2_m, abs_mean_m, abs_third_m = atom_moments(sm, np.arange(1,
                                                                      k + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK", block)
            got = _moments_under_m(sm, pmf)
        want = (float(np.sum(pmf * abs_mean_m)),
                float(np.sum(third_over_variance(pmf, abs_third_m,
                                                 sigma2_m))) / 3.0)
        assert got == want


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundMemory:
    """Each bound holds a few k-float arrays at once, not one per step."""

    @pytest.mark.parametrize("bound", [iid_sum_bound, general_sum_bound])
    def test_peak_allocation(self, bound):
        # the M-pmf stands for N's here, and M's mean and moments are summed
        # a block at a time: the pmf alone
        spec = RandomSumSpec(GeometricIndex(1e-4), Summands(RAD))
        k = spec.index.truncation_for(1e-24)
        _, peak = traced_peak(bound, spec, "comonotone")
        assert peak <= 1.2 * 8 * k

    def test_shared_pmf_gap_allocates_no_array(self):
        # the M-pmf stands for N's, and its mean was taken with it: the
        # comonotone gap and its slack need no k-length array
        spec = RandomSumSpec(GeometricIndex(1e-4), Summands(RAD))
        md = m_distribution(spec)
        _, peak = traced_peak(expected_sqrt_index_gap, spec, md,
                              "comonotone")
        assert peak <= 0.1 * 8 * md.pmf.shape[0]

    def test_cyclic_gap_allocates_no_array(self):
        # the comonotone gap on a geometric index merges the first L atoms
        # alone
        spec = RandomSumSpec(GeometricIndex(1e-4), Summands(RAD, (1.0, 2.0)))
        md = m_distribution(spec)
        _, peak = traced_peak(expected_sqrt_index_gap, spec, md,
                              "comonotone")
        assert peak <= 0.1 * 8 * md.pmf.shape[0]

    def test_cyclic_general_bound(self):
        # the M-pmf alone: N's pmf is read at the first L atoms alone
        spec = RandomSumSpec(GeometricIndex(1e-4), Summands(RAD, (1.0, 2.0)))
        k = spec.index.truncation_for(1e-24)
        _, peak = traced_peak(general_sum_bound, spec, "comonotone")
        assert peak <= 1.35 * 8 * k

    def test_iid_independent_gap_allocates_no_second_pmf(self):
        # at p = 1.1e-4 the weight sigma_1^2 / sigma^2 is p give or take an
        # ulp, yet M has N's law: the M-pmf stands for N's, and the gap
        # allocates what the double sum of the M-pmf with itself does
        spec = RandomSumSpec(GeometricIndex(1.1e-4), Summands(RAD))
        assert Summands(RAD).residue_moments[0][0] / spec.sigma2_total \
            != 1.1e-4
        md = m_distribution(spec)
        _, peak = traced_peak(expected_sqrt_index_gap, spec, md,
                              "independent")
        _, double_sum = traced_peak(_independent_sqrt_gap, md.pmf, md.pmf)
        assert peak <= double_sum + 0.1 * 8 * md.pmf.shape[0]

    @pytest.mark.parametrize("coupling", ["comonotone", "independent"])
    @pytest.mark.parametrize("scales", ["1", "1,2"], ids=["iid", "cyclic"])
    def test_bounds_fixed_index(self, scales, coupling, tmp_path):
        # a fixed index's one k-float array is M's pmf: the gap is one
        # blockwise sum, with no N-pmf, quantile merge or FFT
        k = 2_000_000
        argv = ["bounds", "--k", str(k), "--scales", scales, "--coupling",
                coupling, "--out", str(tmp_path / "report.json")]
        status, peak = traced_peak(cli.main, argv)
        assert status == 0
        assert peak <= 1.3 * 8 * k

    def test_independent_gap_in_place(self):
        # the spectra are multiplied and the weights built in place: about
        # 4 k-float arrays at the peak instead of 12, with the gap's bits
        spec = RandomSumSpec(GeometricIndex(1e-4), Summands(RAD, (1.0, 2.0)))
        md = m_distribution(spec)
        k = md.pmf.shape[0]
        gap, peak = traced_peak(_independent_sqrt_gap,
                                spec.index.pmf_atoms(k), md.pmf)
        assert gap == 88.62045605121263
        assert peak <= 5 * 8 * k


class TestKernelMemory:
    """The one n-length array of a Rademacher sweep point is its sample:
    the sampler writes the sums over the counts' storage, and d_K, d_W and
    d_BL hold a few blocks' temporaries at a time.  With blocks of 2**16
    values, n = 2**20 keeps a block's temporaries small next to the
    bounds."""

    N = 1 << 20

    @pytest.fixture(scope="class")
    def traced_sample(self):
        spec = RandomSumSpec(GeometricIndex(0.01), Summands(RAD))
        return traced_peak(random_sum_sample, spec, self.N, 7)

    def test_random_sum_sample(self, traced_sample):
        assert traced_sample[1] <= 1.3 * 8 * self.N

    @pytest.mark.parametrize("kernel, floats", [
        (wasserstein_empirical, 0.6), (kolmogorov_empirical, 0.5)])
    def test_metric_kernel(self, traced_sample, kernel, floats):
        _, peak = traced_peak(kernel, traced_sample[0],
                              LaplaceParams(0.0, 1.0))
        assert peak <= floats * 8 * self.N

    def test_bl_lower_bound(self, traced_sample):
        target, family = LaplaceParams(0.0, 1.0), dense_bl_family()
        # Wh of every member cached first, as a sweep point finds it
        bl_lower_bound(EmpiricalSample.from_values([0.0]), target, family)
        _, peak = traced_peak(bl_lower_bound, traced_sample[0], target,
                              family)
        assert peak <= 0.3 * 8 * self.N

    def test_laplace_sum_sampler(self):
        # the shapes go over the counts and the second gamma over them:
        # one new n-float array and a block's conversion, where
        # b * (g1 - g2) on int64 counts held about four
        counts = np.random.default_rng(3).geometric(0.01, self.N)
        sampler = tr.laplace_source(1.0).sum_sampler
        _, peak = traced_peak(sampler, np.random.default_rng(5), counts)
        assert peak <= 1.5 * 8 * self.N

    def test_sweep_on_two_threads(self, workers):
        # two points at a time, each holding its sample and a few blocks
        workers(2)
        target, family = LaplaceParams(0.0, 1.0), dense_bl_family()
        bl_lower_bound(EmpiricalSample.from_values([0.0]), target, family)
        _, peak = traced_peak(convergence_sweep, RAD,
                              (0.1, 0.03, 0.01, 0.003, 0.001), self.N, 7)
        assert peak <= 3.3 * 8 * self.N
        # chunked: one point at a time, its draws split over the two
        # threads; the peak is one point's counts, their cumulative sum and
        # its sums, with a run of draws and its offsets per thread, and no
        # sample of an earlier point
        uniform = tr.uniform_symmetric(math.sqrt(6.0))
        _, peak = traced_peak(convergence_sweep, uniform, (0.1, 0.05),
                              self.N, 7)
        assert peak <= 3 * 8 * self.N + 3 * 8 * random_sums._DRAW_BLOCK


def send_sample(conn, spec, n, seed):
    conn.send_bytes(random_sum_sample(spec, n, seed).values.tobytes())
    conn.close()


class TestChunkedSamplerParts:
    """About 8e6 Uniform draws in parts on two threads: each part holds a
    few blocks of draws, not all of its draws, and a forked child, which
    inherits no pool thread, draws the same bits."""

    N = 1 << 13
    SPEC = RandomSumSpec(GeometricIndex(1e-3),
                         Summands(tr.uniform_symmetric(math.sqrt(6))))

    def test_peak_allocation(self, monkeypatch):
        monkeypatch.setattr(seeding, "_workers", lambda: 2)
        _, peak = traced_peak(random_sum_sample, self.SPEC, self.N, 7)
        assert peak <= 2 * 8 * self.N + 6 * 8 * (1 << 18)

    def test_same_bits_in_forked_child(self, monkeypatch):
        monkeypatch.setattr(seeding, "_workers", lambda: 2)
        n = 1 << 10  # about 1e6 draws: two parts
        before = random_sum_sample(self.SPEC, n, 5).values.tobytes()
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=send_sample, args=(send, self.SPEC, n, 5))
        child.start()
        send.close()
        try:
            assert recv.poll(60), "the forked child sent no sample"
            got = recv.recv_bytes()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
        assert child.exitcode == 0
        assert got == before


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

    @pytest.mark.parametrize("p, n", [(1e-300, 100), (1e-19, 100),
                                      (2e-15, 10_000)])
    def test_rejects_counts_past_float_or_int64_range(self, p, n):
        # N past 2^53 (numpy's draw saturates at 2^63 - 1, as it does at
        # p = 1e-19 and 1e-300), or about 5e18 summands in all, each N near
        # 5e14
        spec = RandomSumSpec(GeometricIndex(p), Summands(RAD))
        with pytest.raises(ValueError, match=r"2\^53 per sum or 2\^62"):
            random_sum_sample(spec, n, 1)

    def test_rejects_empty(self):
        spec = RandomSumSpec(GeometricIndex(0.5), Summands(RAD))
        with pytest.raises(ValueError):
            random_sum_sample(spec, 0, 1)

    # only what a sweep samples: a geometric index, i.i.d. copies at scale
    # 1, and a source with an aggregate law or one word per draw
    @pytest.mark.parametrize("spec", [
        RandomSumSpec(GeometricIndex(0.5), Summands(RAD, (1.0, 2.0))),
        RandomSumSpec(GeometricIndex(0.5), Summands(RAD, (2.5,))),
        RandomSumSpec(FixedIndex(3), Summands(RAD)),
        RandomSumSpec(GeometricIndex(0.5), Summands(dataclasses.replace(
            tr.uniform_symmetric(1.0), one_word_draws=False))),
    ], ids=["scales-1-2", "scale-2.5", "fixed-index", "undeclared-words"])
    def test_rejects_what_no_sweep_samples(self, spec):
        with pytest.raises(ValueError):
            random_sum_sample(spec, 10, 1)

    @given(which=st.sampled_from(range(len(tr.builtin_sources(1.0)))),
           k=st.integers(min_value=-3, max_value=5),
           p=st.floats(min_value=0.001, max_value=1.0),
           n=st.integers(min_value=1, max_value=3000),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           workers=st.integers(min_value=1, max_value=3))
    def test_scales_by_powers_of_two_bit_for_bit(self, which, k, p, n, seed,
                                                 workers):
        # every sampler scales its draws by c exactly, so 2^k c gives 2^k
        # times the bits at c, on any number of CPUs
        def sample(b, cpus):
            spec = RandomSumSpec(GeometricIndex(p),
                                 Summands(tr.builtin_sources(b)[which]))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(seeding, "_workers", lambda: cpus)
                return random_sum_sample(spec, n, seed).values

        base = sample(1.0, workers)
        assert sample(1.0, 1).tobytes() == base.tobytes()
        assert sample(2.0 ** k, workers).tobytes() == \
            (2.0 ** k * base).tobytes()


class TestExactLatticeLaw:
    """The sweep's Rademacher(sqrt 2) sums against their exact law
    (``lattice_oracle``), not only against Monte Carlo."""

    @pytest.mark.parametrize("p, d_k", [(0.5, 0.2387), (0.1, 0.1084),
                                        (0.01, 0.03519), (1e-3, 0.01117)])
    def test_exact_kolmogorov_distance(self, p, d_k):
        _, pmf = exact_pmf(p)
        # FFT rounding alone dips below 0: -2.1e-16 at p = 1e-3
        assert pmf.min() >= -1e-15
        assert abs(pmf.sum() - 1.0) <= 1e-13
        assert float(f"{exact_kolmogorov(p):.4g}") == d_k

    P, N = 1e-3, 10 ** 5

    def sample_distance(self, p, c):
        """d_K of a seed-7 sample at index p and summands +-c from the exact
        law at P, in DKW bands at N."""
        spec = RandomSumSpec(GeometricIndex(p), Summands(tr.rademacher(c)))
        values = random_sum_sample(spec, self.N, 7).values
        return sample_kolmogorov(values, self.P) / dkw_band(self.N)

    def test_sampler_is_within_the_band(self):
        # 0.45 bands at seed 7, 0.45-0.95 over seeds 0-7
        assert self.sample_distance(self.P, SQRT2) <= 1.0

    # bands at seed 7 (over seeds 0-7): 1.54 (1.11-1.95), 5.19 (4.96-5.70)
    # and 1.56 (1.55-2.14)
    @pytest.mark.parametrize("p, scale", [(1.05 * P, 1.0), (P, 1.1),
                                          (P, 1.02)],
                             ids=["index-1.05p", "scale-1.1", "scale-1.02"])
    def test_mutants_fall_outside_the_band(self, p, scale):
        assert self.sample_distance(p, scale * SQRT2) > 1.0


def per_row_chunked_sums(rng, sampler, counts, limit):
    """The reference partition: each chunk grown one row at a time while its
    draws stay within ``limit``."""
    out = np.empty(counts.shape[0])
    start = 0
    while start < counts.shape[0]:
        stop = start + 1
        total = int(counts[start])
        while stop < counts.shape[0] and total + counts[stop] <= limit:
            total += int(counts[stop])
            stop += 1
        chunk = counts[start:stop]
        draws = np.asarray(sampler(rng, total), dtype=float)
        offsets = np.concatenate([[0], np.cumsum(chunk[:-1])]).astype(int)
        out[start:stop] = np.add.reduceat(draws, offsets)
        start = stop
    return out


def recording(sampler, sizes):
    """``sampler``, appending the size of each call to ``sizes``."""
    def recorded(rng, n):
        sizes.append(n)
        return sampler(rng, n)
    return recorded


def reference_random_sum_sample(spec, n, seed):
    """random_sum_sample with a scaled copy sorted by from_values: the
    values the in-place division and sort must keep."""
    rng = substream(seed, "random-sum")
    counts = rng.geometric(spec.index.p, n)
    base = spec.summands.base
    if base.sum_sampler is not None:
        sums = np.asarray(base.sum_sampler(rng, counts), dtype=float)
    else:
        sums = _chunked_sums(rng, base.sampler, counts)
    return EmpiricalSample.from_values(sums / math.sqrt(spec.index.mean))


class TestSampleInPlaceBits:
    """Dividing and sorting the sums in place gives the sample that a
    divided, sorted copy gives, bit for bit, on the exact-aggregate and the
    chunked paths."""

    @given(p=st.floats(min_value=0.01, max_value=1.0),
           source=st.sampled_from(tr.builtin_sources(1.0)),
           n=st.integers(min_value=1, max_value=3000),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_equals_sorted_copy(self, p, source, n, seed):
        spec = RandomSumSpec(GeometricIndex(p), Summands(source))
        got = random_sum_sample(spec, n, seed).values
        want = reference_random_sum_sample(spec, n, seed).values
        assert got.tobytes() == want.tobytes()


class TestChunkedSumsBits:
    """Runs cut from one cumulative sum are the chunks the per-row loop
    grows, so one part, walked in ``_DRAW_BLOCK`` runs, draws the same
    bits."""

    LIMIT = 64

    # rows of 16 and 32 fill a chunk exactly; rows above 64 overflow one
    @given(counts=st.lists(st.sampled_from([1, 16, 32, 63, 64, 65, 200])
                           | st.integers(min_value=1, max_value=150),
                           min_size=1, max_size=80),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(counts=[32, 32, 1, 63, 65, 64, 200, 1], seed=3)
    def test_equals_per_row_loop(self, counts, seed):
        sampler = tr.uniform_symmetric(math.sqrt(6)).sampler
        counts = np.asarray(counts)
        got_sizes, want_sizes = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seeding, "_workers", lambda: 1)
            mp.setattr(random_sums, "_DRAW_BLOCK", self.LIMIT)
            got = _chunked_sums(np.random.default_rng(seed),
                                recording(sampler, got_sizes), counts)
        want = per_row_chunked_sums(np.random.default_rng(seed),
                                    recording(sampler, want_sizes), counts,
                                    self.LIMIT)
        assert got_sizes == want_sizes  # the same chunks
        assert np.array_equal(got, want)


def sequential_row_sums(rng, sampler, counts):
    """One ``sampler(rng, total)`` call for every draw, summed row by row:
    the sums the chunked sampler must reproduce."""
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    draws = np.asarray(sampler(rng, int(counts.sum())), dtype=float)
    return np.add.reduceat(draws, offsets)


ONE_WORD_SOURCES = [src for src in tr.builtin_sources(1.0)
                    if src.one_word_draws]


def half_word_rng(seed, buffered):
    """PCG64 generator at ``seed``, holding a buffered 32-bit half-word
    when ``buffered``: draws of doubles must leave it in place."""
    rng = np.random.default_rng(seed)
    if buffered:
        rng.integers(0, 2 ** 32, dtype=np.uint32)
    return rng


class TestPartedChunkedSumsBits:
    """Parts drawn on threads from generators advanced to their first word
    give the sums of one sequential draw, for any number of parts and any
    block size."""

    @given(counts=st.lists(st.sampled_from([1, 7, 8, 63, 64, 65, 200])
                           | st.integers(min_value=1, max_value=150),
                           min_size=1, max_size=80),
           source=st.sampled_from(ONE_WORD_SOURCES),
           workers=st.integers(min_value=1, max_value=5),
           block=st.sampled_from([1, 7, 64]),
           buffered=st.booleans(),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(counts=[200, 1, 1, 1, 64, 7], source=ONE_WORD_SOURCES[0],
             workers=5, block=1, buffered=True, seed=3)
    def test_equals_sequential_draw(self, counts, source, workers, block,
                                    buffered, seed):
        counts = np.asarray(counts)
        rng = half_word_rng(seed, buffered)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seeding, "_workers", lambda: workers)
            mp.setattr(random_sums, "_DRAW_BLOCK", block)
            got = _chunked_sums(rng, source.sampler, counts)
        # the parts draw from copies: the caller's generator, its buffered
        # half-word too, is left as it was
        assert rng.bit_generator.state == half_word_rng(
            seed, buffered).bit_generator.state
        ref = half_word_rng(seed, buffered)
        want = sequential_row_sums(ref, source.sampler, counts)
        assert got.tobytes() == want.tobytes()

    def test_more_threads_than_cores(self):
        # a fresh pool of 8 threads, and thread switches every microsecond:
        # a part written into the wrong rows or from the wrong word shows
        counts = substream(5, "stress").geometric(0.05, 3000)
        sampler = tr.uniform_symmetric(1.0).sampler
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seeding, "_POOL", None)
            mp.setattr(seeding, "_workers", lambda: 8)
            mp.setattr(random_sums, "_DRAW_BLOCK", 64)
            sys.setswitchinterval(1e-6)
            try:
                got = [_chunked_sums(np.random.default_rng(k), sampler,
                                     counts) for k in range(20)]
            finally:
                sys.setswitchinterval(interval)
                seeding._pool().shutdown()
        for k, sums in enumerate(got):
            want = sequential_row_sums(np.random.default_rng(k), sampler,
                                       counts)
            assert sums.tobytes() == want.tobytes()


def takes_m_words(source, m):
    """Whether ``sampler(rng, m)`` leaves PCG64 where ``advance(m)`` does."""
    rng = np.random.default_rng(11)
    clone = np.random.PCG64(0)
    clone.state = rng.bit_generator.state
    source.sampler(rng, m)
    clone.advance(m)
    return rng.bit_generator.state == clone.state


class TestOneWordDraws:
    """The declaration is a fact about the sampler: ``sampler(rng, m)``
    moves PCG64 exactly m words on."""

    @pytest.mark.parametrize("m", [1, 7, 1000])
    @pytest.mark.parametrize("source", ONE_WORD_SOURCES,
                             ids=lambda src: src.label)
    def test_declared_sources_take_one_word_per_value(self, source, m):
        assert takes_m_words(source, m)

    def test_declared_sources(self):
        assert [src.label for src in ONE_WORD_SOURCES] == [
            "uniform(2.44949)", "laplace(1)"]

    def test_rademacher_does_not(self):
        src = tr.rademacher(1.0)
        assert not src.one_word_draws
        assert not takes_m_words(src, 1000)


class TestConvergenceSweep:
    def test_structure_and_certification(self):
        res = convergence_sweep(RAD, (0.5, 0.1), 5000, 7)
        assert len(res.points) == 2
        for pt in res.points:
            assert pt.d_BL_lower.family_size >= 100
            rep = pt.report
            assert pt.verdict is True
            assert [f.name for f in dataclasses.fields(pt)] == [
                "p", "report", "d_K", "d_BL_lower", "d_W_upper", "dkw_band",
                "dk_conversion", "verdict"]
            assert [f.name for f in dataclasses.fields(rep) if f.init] == [
                "kind", "components"]
            assert recompute_bound(rep.kind, rep.components) == rep.value
            # certified chain: d_K below the converted bound plus noise band
            conv = kolmogorov_from_bl(rep.value, 0.5)
            assert pt.d_K.value <= conv + pt.dkw_band
            assert pt.dk_conversion == pytest.approx(conv)
        assert [f.name for f in dataclasses.fields(res) if f.init] == [
            "points"]
        assert math.isfinite(res.slope)

    def test_deterministic(self):
        a = convergence_sweep(RAD, (0.3,), 2000, 9)
        b = convergence_sweep(RAD, (0.3,), 2000, 9)
        assert a.points[0].d_K.value == b.points[0].d_K.value
        assert a.slope is not a.points  # smoke: slope is nan for single point

    def test_points_do_not_depend_on_their_neighbours(self):
        # point i draws from its own (seed, i) stream, so changing the other
        # p values leaves it bit-for-bit unchanged
        a = convergence_sweep(RAD, (0.3, 0.1), 5000, 11).points[1]
        b = convergence_sweep(RAD, (0.5, 0.1), 5000, 11).points[1]
        assert (a.d_K, a.d_BL_lower, a.d_W_upper) == \
            (b.d_K, b.d_BL_lower, b.d_W_upper)
        assert (a.report.components, a.dkw_band, a.dk_conversion) == \
            (b.report.components, b.dkw_band, b.dk_conversion)
        assert a.report.value == b.report.value and a.verdict == b.verdict

    def test_bracket_ordering(self):
        res = convergence_sweep(RAD, (0.2,), 20000, 21)
        pt = res.points[0]
        assert pt.d_BL_lower.value <= pt.d_W_upper.value + 1e-9

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
