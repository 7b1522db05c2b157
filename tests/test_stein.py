import dataclasses
import math
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import integrate

from laplace_stein import cli, stein
from laplace_stein.quadrature import (EXPECTATION_TOL, QuadratureError,
                                      laplace_expectation)
from laplace_stein.stein import _HBL_SLACK, TestFunction as HBLFunction
from laplace_stein.stein import (BoundCertificate, CertificationError,
                                 certify_bounds, clamp_fn,
                                 constant_fn, cos_fn, dense_bl_family,
                                 residual, sin_fn, smoothed_indicator, solve,
                                 standard_grid, stein_family, tanh_fn,
                                 target_expectation, wh_enclosure)
from stein_oracles import verify_characterization, verify_first_order

SCALES = (0.5, 1.0, 2.0)


# members outside the bounded-Lipschitz ball, which cannot be built
OUT_OF_BALL = {
    "lip-above-1": lambda: HBLFunction.piecewise_linear(
        (0.0, 0.1), (1.0, 0.0), label="raw-ramp",
        fn=lambda z: np.clip((0.1 - z) / 0.1, 0.0, 1.0)),
    "sup-above-1": lambda: HBLFunction.piecewise_linear(
        (-3.0, 3.0), (-3.0, 3.0), fn=lambda z: np.clip(z, -3.0, 3.0),
        label="wide-clamp"),
    "nan": lambda: HBLFunction(fn=np.sin, lip_const=math.nan, sup_bound=1.0,
                               label="nan-sine"),
}


class TestFamilies:
    # building a member certifies it, so building the families is the check
    def test_stein_family_certified(self):
        assert len(stein_family()) == 21

    def test_dense_family_is_large_superset(self):
        dense = dense_bl_family()
        assert len(dense) >= 100
        labels = [h.label for h in dense]
        assert len(set(labels)) == len(labels)
        assert {h.label for h in stein_family()} <= set(labels)

    def test_indicator_scaling_keeps_lipschitz_inside_ball(self):
        sharp = smoothed_indicator(0.0, 0.1)
        assert sharp.lip_const <= 1.0 and sharp.sup_bound <= 0.1 + 1e-15
        wide = smoothed_indicator(0.0, 2.0)
        assert wide.lip_const == 0.5 and wide.sup_bound == 1.0

    @pytest.mark.parametrize("build", OUT_OF_BALL.values(), ids=OUT_OF_BALL)
    def test_out_of_ball_member_is_refused_when_built(self, build):
        with pytest.raises(CertificationError, match="bounded-Lipschitz ball"):
            build()

    def test_uncertified_member_rejected(self):
        # the ball is checked when the member is built, so an uncertified
        # member never reaches solve or target_expectation
        def raw():
            return HBLFunction(fn=lambda z: np.clip((0.1 - z) / 0.1, 0.0, 1.0),
                               lip_const=10.0, sup_bound=1.0, label="raw-ramp")
        with pytest.raises(CertificationError, match="raw-ramp"):
            solve(raw(), 1.0)
        with pytest.raises(CertificationError, match="raw-ramp"):
            target_expectation(raw(), 1.0)

    def test_init_fields(self):
        # kinks are derived from the data, never set
        assert [f.name for f in dataclasses.fields(HBLFunction) if f.init] \
            == ["fn", "lip_const", "sup_bound", "label", "knots", "values"]


def hand_typed_constants():
    """label -> (kinks, lip_const, sup_bound) as the constructors typed them
    before the piecewise-linear data existed."""
    table = {"const(1)": ((), 0.0, 1.0), "const(-0.5)": ((), 0.0, 0.5),
             "clamp": ((-1.0, 1.0), 1.0, 1.0)}
    ramps = [(x0, eps) for x0 in (-2.0, -1.0, 0.0, 1.0, 2.0)
             for eps in (0.1, 0.5, 1.0)]
    ramps += [(round(float(x0), 9), eps) for x0 in np.linspace(-4.0, 4.0, 21)
              for eps in (0.25, 0.5, 1.0, 2.0, 4.0)]
    for x0, eps in ramps:
        scale = min(1.0, eps)
        table[f"ind({x0:g},{eps:g})"] = ((x0, x0 + eps), scale / eps, scale)
    return table


def exact_interpolant(h, x: float) -> Fraction:
    k = [Fraction(v) for v in h.knots]
    v = [Fraction(y) for y in h.values]
    x = Fraction(x)
    if x <= k[0]:
        return v[0]
    for k0, k1, v0, v1 in zip(k, k[1:], v, v[1:]):
        if x <= k1:
            return v0 + (v1 - v0) * (x - k0) / (k1 - k0)
    return v[-1]


def near_knots(h) -> np.ndarray:
    lo, hi = h.knots[0] - 2.0, h.knots[-1] + 2.0
    points = [np.linspace(lo, hi, 97)]
    for k in h.knots:
        points.append([k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf),
                       k - 1e-9, k + 1e-9])
    return np.sort(np.concatenate(points))


DATA_MEMBERS = [h for h in dense_bl_family() if h.knots]


class TestPiecewiseLinearData:
    def test_every_non_smooth_member_carries_data(self):
        assert {h.label for h in dense_bl_family() if not h.knots} == {
            "sin", "cos", "tanh"}
        assert len(DATA_MEMBERS) == 117

    def test_derived_constants_match_the_hand_typed_ones(self):
        table = hand_typed_constants()
        for h in DATA_MEMBERS:
            kinks, lip, sup = table[h.label]
            assert h.kinks == kinks, h.label
            assert abs(h.lip_const - lip) <= _HBL_SLACK, h.label
            assert abs(h.sup_bound - sup) <= _HBL_SLACK, h.label

    def test_fn_is_the_interpolant_within_interp_error(self):
        # the screening in metrics.bl_lower_bound relies on this bound
        for h in DATA_MEMBERS:
            xs = near_knots(h)
            for x, y in zip(xs, np.asarray(h.fn(xs), dtype=float)):
                assert abs(Fraction(y) - exact_interpolant(h, x)) <= Fraction(
                    h.interp_error), (h.label, x)

    def test_fn_matches_numpy_interp(self):
        for h in DATA_MEMBERS:
            xs = near_knots(h)
            width = min(np.diff(h.knots), default=1.0)
            ulps = 8.0 * np.spacing(1.0) * (1.0 + np.abs(xs)) / width
            assert np.all(np.abs(h.fn(xs) - np.interp(xs, h.knots, h.values))
                          <= ulps), h.label

    def test_bad_data_is_rejected(self):
        for knots, values in [((), ()), ((0.0, 0.0), (1.0, 0.0)),
                              ((1.0, 0.0), (1.0, 0.0)), ((0.0,), (1.0, 0.0))]:
            with pytest.raises(ValueError):
                HBLFunction.piecewise_linear(knots, values, fn=np.sin,
                                             label="bad")


class TestTargetExpectation:
    def test_constant(self):
        assert target_expectation(constant_fn(1.0), 1.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_odd_function(self):
        assert abs(target_expectation(sin_fn(), 1.0)) <= 1e-12

    @pytest.mark.parametrize("b", SCALES)
    def test_cosine_equals_characteristic_fn(self, b):
        assert target_expectation(cos_fn(), b) == pytest.approx(
            1.0 / (1.0 + b ** 2), abs=1e-11)

    @pytest.mark.parametrize("b", SCALES)
    def test_bounded_by_one(self, b):
        for h in stein_family():
            assert abs(target_expectation(h, b)) <= 1.0 + 1e-12


def clamp_member(lo: float, hi: float) -> HBLFunction:
    """clip(x, lo, hi), divided by its sup norm where that exceeds 1, so it
    lies in the ball."""
    s = max(1.0, abs(lo), abs(hi))
    return HBLFunction.piecewise_linear(
        (lo, hi), (lo / s, hi / s), fn=lambda x: np.clip(x, lo, hi) / s,
        label=f"clamp({lo:g},{hi:g})")


def assert_enclosed(h, b):
    """quad's Wh inside the closed-form enclosure, and the centre within
    1e-12 of it: far tighter than the radius, so a wrong closed form shows."""
    centre, radius = wh_enclosure(h, b)
    wh = laplace_expectation(h.fn, b, kinks=h.kinks)
    assert abs(wh - centre) <= radius, (h.label, b)
    assert abs(wh - centre) <= 1e-12, (h.label, b)
    assert EXPECTATION_TOL <= radius <= EXPECTATION_TOL + 1e-12


class TestWhEnclosure:
    """The d_BL screening trusts wh_enclosure in place of quad's Wh."""

    @pytest.mark.parametrize("b", [0.05, 0.25, 0.5, 1.0, math.sqrt(3.0),
                                   2.0, 4.0, 64.0])
    def test_holds_quad_wh_of_every_data_member(self, b):
        for h in DATA_MEMBERS:
            assert_enclosed(h, b)

    @given(st.floats(-12.0, 12.0), st.floats(0.01, 16.0),
           st.floats(-3.0, 1.0), st.floats(0.01, 2.0),
           st.floats(0.05, 64.0))
    # a kink at 3.4e-305 once made quad report bad integrand behaviour
    @example(3.386778236526314e-305, 0.18377785665448562, 0.0, 1.0, 1.0)
    def test_holds_on_ramps_and_clamps(self, x0, eps, lo, width, b):
        assert_enclosed(smoothed_indicator(x0, eps), b)
        assert_enclosed(clamp_member(lo, lo + width), b)

    def test_closed_forms_by_hand(self):
        # E clip(W, -1, 1) = 0, E const = const, and ind(0, 1) at b = 1 is
        # 1/2 + (1/2) int_0^1 (1 - t) e^-t dt = 1/2 + e^-1 / 2
        assert wh_enclosure(clamp_fn(), 1.0)[0] == 0.0
        assert wh_enclosure(constant_fn(-0.5), 2.0)[0] == -0.5
        centre = wh_enclosure(smoothed_indicator(0.0, 1.0), 1.0)[0]
        assert centre == pytest.approx(0.5 + 0.5 * math.exp(-1.0), abs=1e-15)

    def test_smooth_member_has_none(self):
        with pytest.raises(ValueError, match="data"):
            wh_enclosure(sin_fn(), 1.0)

    def test_quad_outside_the_enclosure_raises(self, monkeypatch):
        h = smoothed_indicator(0.0, 1.0)
        centre, radius = wh_enclosure(h, 1.0)
        monkeypatch.setattr(stein, "laplace_expectation",
                            lambda f, b, kinks=(): centre + 2.0 * radius)
        with pytest.raises(QuadratureError, match="enclosure"):
            target_expectation(h, 1.0)
        # a smooth member has no enclosure to check against
        assert target_expectation(sin_fn(), 1.0) == centre + 2.0 * radius


class TestClosedForms:
    @pytest.mark.parametrize("b", SCALES)
    def test_sine_solution(self, b):
        # g - b^2 g'' = sin with g(0) = 0 and boundedness forces
        # g = sin/(1+b^2): the homogeneous solutions exp(+-x/b) are unbounded.
        sol = solve(sin_fn(), b)
        xs = np.linspace(-10, 10, 401)
        assert np.max(np.abs(sol.g(xs) - np.sin(xs) / (1 + b ** 2))) <= 1e-10

    @pytest.mark.parametrize("b", SCALES)
    def test_cosine_solution(self, b):
        sol = solve(cos_fn(), b)
        xs = np.linspace(-10, 10, 401)
        want = (np.cos(xs) - 1.0) / (1 + b ** 2)
        assert np.max(np.abs(sol.g(xs) - want)) <= 1e-10

    def test_constant_gives_zero_solution(self):
        prof = solve(constant_fn(0.8), 1.0).profile(np.linspace(-20, 20, 101))
        assert np.max(np.abs(prof.g)) <= 1e-12
        assert np.max(np.abs(prof.g2)) <= 1e-12

    def test_derivative_formulas_for_sine(self):
        sol = solve(sin_fn(), 1.0)
        xs = np.linspace(-6, 6, 121)
        prof = sol.profile(xs)
        assert np.max(np.abs(prof.g1 - np.cos(xs) / 2)) <= 1e-12
        assert np.max(np.abs(prof.g2 + np.sin(xs) / 2)) <= 1e-12


class TestSolutionContract:
    @pytest.mark.parametrize("b", SCALES)
    def test_vanishes_at_origin(self, b):
        for h in stein_family():
            assert abs(solve(h, b).g(0.0)) <= 1e-10

    def test_residual_on_standard_grid(self):
        grid = standard_grid(1.0)
        for h in stein_family():
            sol = solve(h, 1.0)
            assert np.max(np.abs(residual(sol, grid))) <= 1e-6

    def test_solution_against_independent_quadrature(self):
        # independent high-order evaluation of the two weighted tails for a
        # kinked test function
        h = smoothed_indicator(0.0, 1.0)
        b = 1.0
        sol = solve(h, b)
        x = 0.5

        def ht(y):
            return float(h.fn(y)) - sol.target_mean

        a_val = sum(integrate.quad(lambda u: math.exp(-u / b) * ht(x + u),
                                   lo, hi, epsabs=1e-13, limit=300)[0]
                    for lo, hi in ((0.0, 0.5), (0.5, 80.0))) / (2 * b)
        b_val = sum(integrate.quad(lambda u: math.exp(-u / b) * ht(x - u),
                                   lo, hi, epsabs=1e-13, limit=300)[0]
                    for lo, hi in ((0.0, 0.5), (0.5, 80.0))) / (2 * b)
        assert sol.g(x) == pytest.approx(a_val + b_val, abs=1e-9)
        assert residual(sol, [x])[0] == pytest.approx(0.0, abs=1e-6)

    def test_scalar_and_array_evaluation_agree(self):
        sol = solve(tanh_fn(), 0.5)
        xs = np.array([-0.4, 0.0, 1.7, 3.2])
        arr = sol.g(xs)
        assert arr.shape == xs.shape
        for x, v in zip(xs, arr):
            assert sol.g(float(x)) == pytest.approx(v, abs=1e-12)

    def test_unsorted_points_are_refused(self):
        sol = solve(tanh_fn(), 0.5)
        xs = np.array([1.7, -0.4, 0.0, 3.2])
        for evaluate in (sol.g, sol.profile, lambda x: residual(sol, x)):
            with pytest.raises(ValueError, match="sorted"):
                evaluate(xs)

    @given(member=st.integers(0, len(stein_family()) - 1),
           b=st.floats(0.25, 64.0),
           x=st.floats(-60.0, 60.0), y=st.floats(-60.0, 60.0))
    def test_value_does_not_depend_on_companion_points(self, member, b, x, y):
        # each point's tails are integrated on panels at most min(b/2, 1)
        # wide, however far apart the points of one call are, and the
        # 10-point rule is at rounding level on every such panel
        sol = solve(stein_family()[member], b)
        pair = sol.profile(sorted((x, y)))
        for i, point in enumerate(pair.x):
            alone = sol.profile([point])
            for name in ("g", "g1", "g2"):
                assert abs(getattr(pair, name)[i]
                           - getattr(alone, name)[0]) <= 1e-12

    def test_finite_difference_consistency(self):
        # central differences of g and g' reproduce g' and g'' to 1e-5
        # (step 1e-4 b), away from kinks where g''' jumps
        for b in SCALES:
            delta = 1e-4 * b
            for h in (sin_fn(), tanh_fn(), clamp_fn(),
                      smoothed_indicator(0.0, 0.5)):
                sol = solve(h, b)
                xs = np.linspace(-6 * b, 6 * b, 41)
                if h.kinks:
                    keep = np.all(
                        np.abs(xs[:, None] - np.asarray(h.kinks)) > 10 * delta,
                        axis=1)
                    xs = xs[keep]
                prof = sol.profile(xs)
                up, down = sol.profile(xs + delta), sol.profile(xs - delta)
                fd_g1 = (up.g - down.g) / (2 * delta)
                fd_g2 = (up.g1 - down.g1) / (2 * delta)
                assert np.max(np.abs(fd_g1 - prof.g1)) <= 1e-5
                assert np.max(np.abs(fd_g2 - prof.g2)) <= 1e-5


class TestProfileReuse:
    """A solution keeps the profile of its last grid: stein-check's residual
    and certificate on one grid share one quadrature pass."""

    def test_stein_check_makes_four_tail_calls_per_member(self, monkeypatch,
                                                          tmp_path):
        # two on the grid, shared by residual and certify_bounds, and two
        # for g(0), which stays its own pass
        calls = []
        tail = stein.exp_weighted_right_tail

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return tail(*args, **kwargs)

        monkeypatch.setattr(stein, "exp_weighted_right_tail", counted)
        assert cli.main(["stein-check", "--b", "1",
                         "--out", str(tmp_path / "s.json")]) == 0
        size = len(stein_family())
        assert len(calls) == 4 * size
        assert sorted(set(calls)) == [1, standard_grid(1.0).size]
        assert calls.count(1) == 2 * size

    def test_stein_check_solves_every_member_before_any_tail(
            self, monkeypatch):
        # Wh of cos fails: exit 3 before any tail pass
        tails = []
        tail = stein.exp_weighted_right_tail
        expectation = stein.laplace_expectation

        def failing(f, b, kinks=()):
            if f is np.cos:
                raise QuadratureError("expectation quadrature did not converge")
            return expectation(f, b, kinks=kinks)

        monkeypatch.setattr(stein, "laplace_expectation", failing)
        monkeypatch.setattr(stein, "exp_weighted_right_tail",
                            lambda *a, **k: tails.append(1) or tail(*a, **k))
        stein.target_expectation.cache_clear()
        try:
            assert cli.main(["stein-check", "--b", "0.5,1"]) == 3
        finally:
            stein.target_expectation.cache_clear()
        assert tails == []

    def test_stein_check_keeps_one_profile_alive(self, monkeypatch, tmp_path):
        # every solution is built first; each is dropped after its checks,
        # so when a residual starts no earlier solution holds its profile
        made, most = [], []
        make, res = cli.solve, cli.residual

        def solving(h, b):
            sol = make(h, b)
            made.append(weakref.ref(sol))
            return sol

        def checking(sol, grid):
            live = [r() for r in made]
            most.append(sum(1 for s in live
                            if s is not None and s._last[1] is not None))
            return res(sol, grid)

        monkeypatch.setattr(cli, "solve", solving)
        monkeypatch.setattr(cli, "residual", checking)
        assert cli.main(["stein-check", "--b", "0.5,1",
                         "--out", str(tmp_path / "s.json")]) == 0
        assert len(most) == len(made) == 2 * len(stein_family())
        assert max(most) == 0

    def test_arrays_are_read_only(self):
        grid = standard_grid(1.0)
        prof = solve(tanh_fn(), 1.0).profile(grid)
        for arr in (prof.x, prof.g, prof.g1, prof.g2):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        grid[0] = grid[0]  # the caller's grid stays writable
        assert prof.x is not grid

    def test_copied_grid_hits_and_another_grid_replaces(self):
        sol = solve(clamp_fn(), 1.0)
        grid = standard_grid(1.0)
        prof = sol.profile(grid)
        assert sol.profile(grid.copy()) is prof
        assert sol.profile(list(grid)) is prof
        grid[3] += 1e-3  # the stored profile keeps its own copy of x
        other = sol.profile(grid)
        assert other is not prof
        assert other.x.tobytes() == grid.tobytes()
        assert sol.profile(grid) is other
        again = sol.profile(standard_grid(1.0))
        assert again is not prof
        for field in ("x", "g", "g1", "g2"):
            assert (getattr(again, field).tobytes()
                    == getattr(prof, field).tobytes())

    def test_two_threads_get_byte_equal_profiles(self):
        # both threads alternate between two grids on one solution, so each
        # store races the other thread's reads
        grids = [standard_grid(1.0), np.linspace(-50.0, 50.0, 1201)]
        fresh = [solve(tanh_fn(), 1.0).profile(g) for g in grids]
        want = [tuple(getattr(p, f).tobytes() for f in ("x", "g", "g1", "g2"))
                for p in fresh]
        sol = solve(tanh_fn(), 1.0)
        start = threading.Barrier(2)
        seen = [[], []]

        def run(slot):
            start.wait()
            for i in range(12):
                which = (i + slot) % 2
                prof = sol.profile(grids[which].copy())
                seen[slot].append((which, tuple(
                    getattr(prof, f).tobytes() for f in ("x", "g", "g1", "g2"))))

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(len(s) == 12 for s in seen)
        for which, got in seen[0] + seen[1]:
            assert got == want[which]


class TestCertificates:
    def test_verdict_is_derived(self):
        assert [f.name for f in dataclasses.fields(BoundCertificate)
                if f.init] == ["values", "limits"]
        limits = {"max_abs_g": 2.0, "max_abs_g1": 1.0}
        within = {"max_abs_g": 2.0 + 5e-10, "max_abs_g1": 0.5}
        assert BoundCertificate(within, limits).passed is True
        above = dict(within, max_abs_g1=1.0 + 2e-9)
        assert BoundCertificate(above, limits).passed is False

    def test_sine_maxima(self):
        cert = certify_bounds(solve(sin_fn(), 1.0), standard_grid(1.0))
        assert cert.passed
        # sup |sin/2| = 0.5; the b/20 grid resolves it to O(step^2)
        assert 0.5 - 1e-3 <= cert.values["max_abs_g"] <= 0.5 + 1e-12
        assert cert.limits["max_abs_g"] == 2.0

    def test_constant_all_zero(self):
        cert = certify_bounds(solve(constant_fn(-0.5), 1.0), standard_grid(1.0))
        assert cert.passed
        assert all(v <= 1e-12 for v in cert.values.values())

    def test_sharp_indicator_passes(self):
        b = 1.0
        cert = certify_bounds(solve(smoothed_indicator(0.0, 0.1), b),
                              standard_grid(b))
        assert cert.passed

    def test_grid_validation(self):
        sol = solve(sin_fn(), 1.0)
        with pytest.raises(ValueError):
            certify_bounds(sol, np.linspace(-10, 10, 401))  # span too small
        with pytest.raises(ValueError):
            certify_bounds(sol, np.linspace(-40, 40, 201))  # step too big

    def test_span_is_relative_to_b(self):
        # at b = 1e-11 an absolute 1e-9 slack took [0, 40b] for the span
        b = 1e-11
        with pytest.raises(ValueError, match="span"):
            certify_bounds(solve(sin_fn(), b), np.linspace(0.0, 40 * b, 801))

    def test_step_is_relative_to_b(self):
        # at b = 1e-13 an absolute 1e-12 slack took a step of 2b
        b = 1e-13
        with pytest.raises(ValueError, match="step"):
            certify_bounds(solve(sin_fn(), b),
                           np.linspace(-40 * b, 40 * b, 41))

    def test_tolerance_is_relative_to_the_limit(self):
        # at b = 8700 the slope limit (b+2)/b^3 is 1.3e-8, so an absolute
        # 1e-9 passed 1.07 times it
        limit = {"max_g2_slope": (8700.0 + 2.0) / 8700.0 ** 3}
        assert not BoundCertificate({"max_g2_slope": 1.07 * limit[
            "max_g2_slope"]}, limit).passed
        assert BoundCertificate({"max_g2_slope": (1.0 + 5e-10) * limit[
            "max_g2_slope"]}, limit).passed

    def test_grid_past_the_tail_panel_limit_is_refused(self):
        # at b = 2e4 a tail pass over [-40b, 40b] needs 2.4e6 panels, past
        # MAX_PANELS: the grid is refused before any member is solved
        with pytest.raises(QuadratureError, match=r"2\.4e\+06 panels"):
            standard_grid(2e4)


class TestIdentities:
    @pytest.mark.parametrize("b", SCALES)
    def test_second_order_identity(self, b):
        cases = [
            (lambda w: w ** 2, lambda w: 2.0 * np.ones_like(w)),
            (lambda w: w ** 4, lambda w: 12.0 * w ** 2),
            (np.cos, lambda w: -np.cos(w)),
            (lambda w: w * np.exp(-w ** 2),
             lambda w: np.exp(-w ** 2) * (4.0 * w ** 3 - 6.0 * w)),
        ]
        for g, gdd in cases:
            assert abs(verify_characterization(g, gdd, b)) <= 1e-8

    @pytest.mark.parametrize("b", SCALES)
    def test_first_order_identity(self, b):
        cases = [
            (lambda w: w, lambda w: np.ones_like(w)),
            (lambda w: w ** 2, lambda w: 2.0 * w),
            (np.tanh, lambda w: 1.0 - np.tanh(w) ** 2),
        ]
        for g, gd in cases:
            assert abs(verify_first_order(g, gd, b)) <= 1e-8

    @pytest.mark.parametrize("b", SCALES)
    def test_iterating_first_order_recovers_second_order(self, b):
        # G(w) = sgn(w) (g(w) - g(0)) turns the first-order identity into the
        # second-order one: b * first_order(G) = -characterization(g).
        g = np.cos
        gdd = lambda w: -np.cos(w)
        big_g = lambda w: np.sign(w) * (np.cos(w) - 1.0)
        big_gd = lambda w: np.sign(w) * (-np.sin(w))
        first = verify_first_order(big_g, big_gd, b, kinks=(0.0,))
        second = verify_characterization(g, gdd, b)
        assert abs(first) <= 1e-8
        assert abs(b * first + second) <= 1e-8
