"""Acceptance suite: one test per certified criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as the
criteria complete.  Heavy artifacts (solution profiles, sweeps) are built once
in module-scoped fixtures and timed against the stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from laplace_stein.laplace import LaplaceParams
from laplace_stein.metrics import EmpiricalSample, kolmogorov_empirical
from laplace_stein.random_sums import (FixedIndex, GeometricIndex,
                                       RandomSumSpec, Summands,
                                       convergence_sweep, m_distribution)
from laplace_stein.stein import (certify_bounds, cos_fn, residual, sin_fn,
                                 solve, standard_grid, stein_family)
from laplace_stein import transforms as tr
from stein_oracles import verify_characterization, verify_first_order

SCALES = (0.5, 1.0, 2.0)
SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def equation_suite():
    """Residual maxima + derivative certificates for every built-in test
    function and scale, plus the wall time to produce them."""
    t0 = time.perf_counter()
    rows = []
    for b in SCALES:
        grid = standard_grid(b)
        for h in stein_family():
            sol = solve(h, b)
            rows.append({
                "label": h.label, "b": b,
                "residual_max": float(np.max(np.abs(residual(sol, grid)))),
                "cert": certify_bounds(sol, grid),
            })
    return rows, time.perf_counter() - t0


CERTIFICATION_N = 10 ** 5


@pytest.fixture(scope="module")
def certification_sweep():
    """n = 1e5 sweep on the pinned p grid (certification inequalities)."""
    t0 = time.perf_counter()
    res = convergence_sweep(tr.rademacher(SQRT2), (0.1, 0.01, 0.001),
                            CERTIFICATION_N, seed=7)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rate_sweep():
    """Five-point decay-rate sweep; n = 4e5 keeps the empirical-transport
    noise floor (~2.6/sqrt(n)) below the smallest true distance."""
    res = convergence_sweep(tr.rademacher(SQRT2),
                            (0.1, 0.03, 0.01, 0.003, 0.001), 4 * 10 ** 5,
                            seed=7)
    return res


def test_criterion_01_equation_residuals(equation_suite):
    rows, elapsed = equation_suite
    worst = max(r["residual_max"] for r in rows)
    ok = worst <= 1e-6 and elapsed < 30.0
    report("criterion 1 (equation residuals)",
           ok, f"max residual {worst:.3e} over {len(rows)} (h, b) pairs "
               f"(tol 1e-6), {elapsed:.1f}s (< 30s)")


def test_criterion_02_derivative_certificates(equation_suite):
    rows, _ = equation_suite
    failures = [r for r in rows if not r["cert"].passed]
    margins = [r["cert"].limits[k] - r["cert"].values[k]
               for r in rows for k in r["cert"].values]
    report("criterion 2 (derivative-bound certificates)",
           not failures,
           f"{len(rows)} certificates, min margin {min(margins):.3e} "
           f"(tolerance 1e-9)")


def test_criterion_03_closed_form_cross_check():
    xs = np.linspace(-10.0, 10.0, 801)
    sin_err = np.max(np.abs(solve(sin_fn(), 1.0).g(xs) - np.sin(xs) / 2.0))
    cos_err = np.max(np.abs(solve(cos_fn(), 1.0).g(xs)
                            - (np.cos(xs) - 1.0) / 2.0))
    ok = sin_err <= 1e-8 and cos_err <= 1e-8
    report("criterion 3 (closed-form solutions)",
           ok, f"sin err {sin_err:.3e}, cos err {cos_err:.3e} (tol 1e-8)")


def test_criterion_04_characterizing_identities():
    second_order = [
        (lambda w: w ** 2, lambda w: 2.0 * np.ones_like(w)),
        (lambda w: w ** 4, lambda w: 12.0 * w ** 2),
        (np.cos, lambda w: -np.cos(w)),
    ]
    first_order = [
        (lambda w: w, lambda w: np.ones_like(w)),
        (lambda w: w ** 2, lambda w: 2.0 * w),
        (np.tanh, lambda w: 1.0 - np.tanh(w) ** 2),
    ]
    worst = 0.0
    for b in SCALES:
        for g, gdd in second_order:
            worst = max(worst, abs(verify_characterization(g, gdd, b)))
        for g, gd in first_order:
            worst = max(worst, abs(verify_first_order(g, gd, b)))
    report("criterion 4 (characterizing identities)",
           worst <= 1e-8, f"max |defect| {worst:.3e} (tol 1e-8)")


def test_criterion_05_fixed_point():
    n = 10 ** 5
    t0 = time.perf_counter()
    ts = tr.sym_equilibrium_sample(tr.laplace_source(1.0), n, seed=3)
    d_k = kolmogorov_empirical(EmpiricalSample.from_values(ts.values),
                               LaplaceParams(0.0, 1.0))
    elapsed = time.perf_counter() - t0
    band = 1.36 * 1.5 / math.sqrt(n)
    ok = d_k.value <= band and elapsed < 10.0
    report("criterion 5 (equilibrium fixed point)",
           ok, f"d_K {d_k.value:.5f} <= {band:.5f}, {elapsed:.2f}s (< 10s)")


def test_criterion_06_transform_identities():
    n = 10 ** 6
    worst_sigma = 0.0
    for src in (tr.rademacher(SQRT2), tr.uniform_symmetric(SQRT6)):
        ts = tr.sym_equilibrium_sample(src, n, seed=29)
        for k in (2, 4):
            vals = ts.values ** k
            se = np.std(vals, ddof=1) / math.sqrt(n)
            z = abs(np.mean(vals) - tr.equilibrium_moment(k, src)) / se
            worst_sigma = max(worst_sigma, z)
        for t in (0.5, 1.0, 2.0):
            vals = np.cos(t * ts.values)
            se = np.std(vals, ddof=1) / math.sqrt(n)
            z = abs(np.mean(vals) - tr.equilibrium_cf(t, src)) / se
            worst_sigma = max(worst_sigma, z)
    report("criterion 6 (transform moment/CF identities)",
           worst_sigma <= 4.0,
           f"worst deviation {worst_sigma:.2f} standard errors (limit 4)")


def test_criterion_07_geometric_sum_certification(certification_sweep):
    res, elapsed = certification_sweep
    band = 1.36 / math.sqrt(CERTIFICATION_N)
    ok = elapsed < 60.0
    details = []
    for pt in res.points:
        cap = min(2.0, 5.65685 * math.sqrt(pt.p))
        bl_ok = pt.d_BL_lower.value <= cap + 4.0 * pt.d_BL_lower.std_error
        dk_ok = pt.d_K.value <= 1.25 * math.sqrt(cap) + band
        ok = ok and bl_ok and dk_ok and pt.verdict
        details.append(f"p={pt.p:g}: d_BL {pt.d_BL_lower.value:.4f}"
                       f"<={cap:.3f}, d_K {pt.d_K.value:.4f}"
                       f"<={1.25 * math.sqrt(cap) + band:.3f}")
    report("criterion 7 (geometric-sum bound certification)",
           ok, "; ".join(details) + f"; {elapsed:.1f}s (< 60s)")


def test_criterion_08_decay_rate(rate_sweep):
    res = rate_sweep
    dws = [pt.d_W_upper.value for pt in res.points]
    report("criterion 8 (transport-distance decay rate)",
           res.slope >= 0.45,
           f"log-log slope {res.slope:.3f} >= 0.45 over p grid "
           f"{[pt.p for pt in res.points]}, d_W {np.round(dws, 5).tolist()}")


def test_criterion_09_index_reweighting():
    worst_tv = 0.0
    for p in (0.05, 0.37):
        spec = RandomSumSpec(GeometricIndex(p), Summands(tr.rademacher(SQRT2)))
        md = m_distribution(spec)
        pn = spec.index.pmf_atoms(md.pmf.shape[0])
        worst_tv = max(worst_tv, 0.5 * float(np.sum(np.abs(md.pmf - pn))))
    spec = RandomSumSpec(FixedIndex(7), Summands(tr.rademacher(SQRT2)))
    uniform_exact = np.array_equal(m_distribution(spec).pmf,
                                   np.full(7, 1.0 / 7.0))
    ok = worst_tv <= 1e-12 and uniform_exact
    report("criterion 9 (variance-tilted index law)",
           ok, f"TV vs geometric pmf {worst_tv:.2e} (tol 1e-12); "
               f"deterministic index exactly uniform: {uniform_exact}")


def test_criterion_10_zero_bias_relation():
    n = 10 ** 6
    src = tr.rademacher(SQRT2)
    worst_sigma = 0.0
    for name, f_dd in (("1", lambda x: np.ones_like(x)), ("x^2", np.square),
                       ("cos", np.cos)):
        est = tr.verify_zero_bias_relation(src, f_dd, n, seed=37)
        worst_sigma = max(worst_sigma, abs(est.value) / est.std_error)
    report("criterion 10 (zero-bias coupling relation)",
           worst_sigma <= 4.0,
           f"worst deviation {worst_sigma:.2f} combined standard errors "
           f"(limit 4)")
