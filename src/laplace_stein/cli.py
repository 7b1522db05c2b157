"""Command-line front end: verification suites, sweeps, machine-readable reports.

Subcommands
-----------
stein-check      residual maxima and derivative-bound certificates for the
                 built-in test family across a grid of scales
transform-check  moment / characteristic-function / coupling identities of the
                 equilibrium transform for one source
fixed-point      Kolmogorov test that the equilibrium transform fixes the
                 Laplace law
sweep            geometric-sum convergence sweep over a p grid with certified
                 bounds (CSV or JSON)
bounds           bound reports (with itemized components) for one random-sum
                 spec, no sampling

Reports are byte-identical for identical (config, seed).  Exit status: 0 when
every certified inequality passes, 1 on any FAIL verdict, 2 on usage errors,
3 on numeric or resource failures (quadrature, truncation, overflow or
division by zero, I/O, memory) and on any other exception.
Every option, its type and its default is declared once, in the argparse
parser, and shown by --help.  An argument @FILE stands for the lines of FILE,
one flag such as --n=500 per line, never @FILE itself; later flags win.
The limits a verdict is judged by are constants, not flags: stein-check's
residual tolerance and limit on |g(0)|, fixed-point's band factor and sweep's
DKW level.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from .laplace import LaplaceParams
from .metrics import (EmpiricalSample, _mean_sd, kolmogorov_empirical,
                      within_four_se)
from .random_sums import (FixedIndex, GeometricIndex, RandomSumSpec,
                          Summands, convergence_sweep, general_sum_bound,
                          geometric_sum_bound, iid_sum_bound)
from .seeding import derive_seed, run_all, substream
from .stein import certify_bounds, residual, solve, standard_grid, stein_family
from . import transforms
from .transforms import (mc_estimate, sgn_bias_sample, sym_equilibrium_sample,
                         verify_zero_bias_relation)

SCHEMA_VERSION = "1"

SWEEP_COLUMNS = ("p", "d_K", "d_K_band", "d_BL_lower", "d_W_upper",
                 "thm7_bound", "prop1_bound", "verdict")

SOURCES = {"rademacher": transforms.rademacher,
           "uniform": transforms.uniform_symmetric,
           "laplace": transforms.laplace_source}

# transform-check's zero-bias relations: (name, f'', its degree in x)
ZERO_BIAS_F_DD = (("one", np.ones_like, 0), ("square", np.square, 2),
                  ("cos", np.cos, 0))


def _in(convert, low, high=math.inf, closed=False):
    """argparse type: a number read by ``convert`` in (low, high), or in
    [low, high) when ``closed``."""
    def number(text):
        value = convert(text)
        if not (low <= value < high and (closed or value != low)):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not in {'[' if closed else '('}{low:g}, "
                f"{high:g})")
        return value
    number.__name__ = convert.__name__  # argparse's "invalid int value"
    return number


_positive = _in(float, 0.0)  # --c and --b
_probability = _in(float, 0.0, 1.0)  # each --p value


def _comma_list(item):
    """argparse type of a nonempty comma list, each value read by ``item``."""
    def comma_list(text):
        values = tuple(item(v) for v in str(text).split(",") if v != "")
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r} lists no value")
        return values
    comma_list.__name__ = item.__name__  # argparse's "invalid float value"
    return comma_list


def _scaled(factory, flag, value):
    """factory(value), or one line naming the flag where a moment overflows."""
    try:
        return factory(value)
    except OverflowError:
        raise OverflowError(f"{flag} {value:g} overflows a moment") from None


def _source(factory, flag, value):
    """factory(value), the law at ``flag``, unless its moments over- or
    underflow."""
    src = _scaled(factory, flag, value)
    if not src.sigma2 >= sys.float_info.min:
        raise FloatingPointError(
            f"the variance of {src.label} underflows to {src.sigma2!r}")
    return src


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laplace-stein",
        description="verification suites and convergence experiments for "
                    "Laplace approximation of random sums",
        fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, sampled=True):
        p = sub.add_parser(
            name, help=summary,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="output path, stdout if absent")
        if sampled:
            p.add_argument("--seed", type=_in(int, 0, closed=True), default=7,
                           help="master seed")
            p.add_argument("--n", type=_in(int, 2, closed=True),
                           default=100_000, help="samples per estimate")
        return p

    def source(p, what):
        p.add_argument("--source", choices=SOURCES, default="rademacher",
                       help=what)
        p.add_argument("--c", type=_positive, default=math.sqrt(2.0),
                       help="source scale parameter")

    p = command("stein-check", cmd_stein_check,
                "equation residuals and derivative certificates",
                sampled=False)
    p.add_argument("--b", type=_comma_list(_positive), default="0.5,1,2",
                   help="comma list of scales")

    p = command("transform-check", cmd_transform_check,
                "equilibrium-transform identities for one source")
    source(p, "source family")

    p = command("fixed-point", cmd_fixed_point,
                "Kolmogorov test of the Laplace fixed point")
    p.add_argument("--b", type=_positive, default=1.0, help="target scale")

    p = command("sweep", cmd_sweep, "geometric-sum convergence sweep")
    source(p, "summand family")
    p.add_argument("--b", type=_positive, help="target scale, checked "
                   "against the source's sqrt(E[X^2]/2); that one if absent")
    p.add_argument("--p", type=_comma_list(_probability),
                   default="0.1,0.01,0.001",
                   help="comma list of success probabilities")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="report format")

    p = command("bounds", cmd_bounds,
                "bound reports for one random-sum spec", sampled=False)
    source(p, "summand family")
    index = p.add_mutually_exclusive_group()
    index.add_argument("--p", type=_comma_list(_probability),
                       default="0.1,0.01,0.001",
                       help="geometric index: success probabilities")
    index.add_argument("--k", type=_in(int, 0), help="fixed index N = K")
    p.add_argument("--scales", type=_comma_list(_in(float, 0.0, closed=True)),
                   default="1",
                   help="cyclic per-index scale factors")
    p.add_argument("--coupling", choices=("comonotone", "independent"),
                   default="comonotone",
                   help="index coupling for the gap term; it matters only "
                   "with --p, since a fixed index gives one gap under both")
    return parser


def _fmt_float(x) -> str:
    return f"{float(x):.17g}"


def emit_report(results, fmt: str) -> bytes:
    """Serialize a report: stable JSON, or RFC-4180-style CSV with '.' decimal
    separator and 17 significant digits."""
    if fmt == "json":
        return (json.dumps(results, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(results["columns"])
        for row in results["rows"]:
            writer.writerow([v if isinstance(v, str) else _fmt_float(v)
                             for v in row])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")


def _write(data: bytes, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(data.decode())
    else:
        with open(out, "wb") as fh:
            fh.write(data)


RESIDUAL_TOLERANCE = 1e-6
AT_ZERO_TOLERANCE = 1e-10  # the bounded solution has g(0) = 0


def cmd_stein_check(args):
    family = stein_family()
    # a b the tail rule refuses exits before any quadrature; solve computes
    # Wh, so every quadrature failure exits before the first tail pass; each
    # solution is dropped, with its profile, after its checks
    grids = [standard_grid(b) for b in args.b]
    pending = collections.deque(solve(h, b) for b in args.b for h in family)
    checks = []
    for b, grid in zip(args.b, grids):
        for h in family:
            sol = pending.popleft()
            res_max = float(np.max(np.abs(residual(sol, grid))))
            cert = certify_bounds(sol, grid)
            at_zero = sol.g(0.0)
            ok = bool(res_max <= RESIDUAL_TOLERANCE and cert.passed
                      and abs(at_zero) <= AT_ZERO_TOLERANCE)
            checks.append({
                "label": h.label, "b": b, "target_mean": sol.target_mean,
                "residual_max": res_max, "solution_at_zero": at_zero,
                "certificate": {"values": cert.values, "limits": cert.limits,
                                "passed": cert.passed},
                "pass": ok,
            })
    all_pass = all(c["pass"] for c in checks)
    report = {"b_grid": list(args.b), "residual_tolerance": RESIDUAL_TOLERANCE,
              "family_size": len(family), "checks": checks,
              "all_pass": all_pass}
    return report, all_pass


def _four_se_check(name, observed, expected, se, shift=0) -> dict:
    """The 4-standard-error check, reported times 2^shift once judged."""
    se = max(se, 5e-324)
    ok = within_four_se(abs(observed - expected), 0.0, se)
    observed, expected, se = (math.ldexp(v, shift)
                              for v in (observed, expected, se))
    return {"check": name, "observed": observed, "expected": expected,
            "std_error": se, "pass": ok}


def _equilibrium_checks(src, n, seed, e) -> tuple:
    """The moment and CF checks of one X_L sample, and the coupling-gap
    check of the same sample against a draw of the source.

    X_L is the one n-array held.  E[X_L^2] and the CFs apply their function
    a block at a time in each sum (``mc_estimate``), and the source is drawn
    a block at a time in each sum (``_coupling_gap``).  E[X_L^4] comes last:
    its pow, slow on a negative base, runs once, over X_L's storage.
    """
    stream = derive_seed(seed, "tc-equilibrium")
    xl = sym_equilibrium_sample(src, n, stream).values

    def moment_check(k, est):
        return _four_se_check(
            f"equilibrium_moment_k{k}", est.value,
            transforms.equilibrium_moment(k, src), est.std_error, k * e)

    second = moment_check(2, mc_estimate(xl, np.square))  # xl ** 2's ufunc
    cfs = []
    for t in (0.5, 1.0, 2.0):
        est = mc_estimate(xl, lambda v: np.cos(t * v))
        cfs.append(_four_se_check(
            f"equilibrium_cf_t{t:g}", est.value,
            transforms.equilibrium_cf(t, src), est.std_error))
    mean, sd = _coupling_gap(src, xl, seed)
    fourth = moment_check(4, mc_estimate(np.power(xl, 4, out=xl)))
    bound = src.abs_mean + src.abs_third / (6.0 * src.b_equiv ** 2)
    se = sd / math.sqrt(n)
    ok = within_four_se(mean, bound, se)
    observed, bound, se = (math.ldexp(v, e) for v in (mean, bound, se))
    return [second, fourth] + cfs, {
        "check": "equilibrium_gap_bound", "observed": observed,
        "bound": bound, "std_error": se, "pass": ok}


def _coupling_gap(src, xl, seed) -> tuple:
    """(mean, sd) of |x - X_L| (``metrics._mean_sd``), x the source's n
    draws on the tc-coupling substream.  Each sum visits its leaves in
    order and draws x for each from a fresh copy of the substream: the
    draws one call would give, a leaf of them alive at a time."""
    def leaves(g):
        rng = substream(seed, "tc-coupling")

        def leaf(i, j):
            x = np.asarray(src.sampler(rng, j - i), dtype=float)
            x -= xl[i:j]
            return g(np.abs(x, out=x))
        return leaf

    return _mean_sd(xl.shape[0], leaves, lambda v: v)


def _sgn_bias_check(src, n, seed) -> dict:
    xp = sgn_bias_sample(src, n, derive_seed(seed, "tc-sgn-bias")).values
    est = mc_estimate(np.sign(xp, out=xp))
    return _four_se_check("sgn_bias_symmetry", est.value, 0.0, est.std_error)


def _zero_bias_check(src, n, seed, name, f_dd, shift) -> dict:
    est = verify_zero_bias_relation(src, f_dd, n,
                                    derive_seed(seed, "tc-zb", name))
    return _four_se_check(f"zero_bias_relation_{name}", est.value, 0.0,
                          est.std_error, shift)


def cmd_transform_check(args):
    """Each check group draws from its own substreams, so the groups run
    concurrently (seeding.run_all), longest first; the report lists their
    checks in a fixed order.  The identities are scale-equivariant and the
    samplers exactly so under a power of two, so the checks run on the
    source rescaled by the power of two 2^e nearest its Laplace scale, and
    a number of degree d in x is reported times 2^(d e)."""
    src = _source(SOURCES[args.source], "--c", args.c)
    e = round(math.log2(src.b_equiv))
    unit = SOURCES[args.source](math.ldexp(args.c, -e))
    # the largest number reported, E[X_L^4], scaled back before any draw
    _scaled(lambda _: math.ldexp(transforms.equilibrium_moment(4, unit),
                                 4 * e), "--c", args.c)
    n, seed = args.n, args.seed
    # the longest first: the equilibrium group, then the relations from
    # the costliest f'' down
    groups = ([functools.partial(_equilibrium_checks, unit, n, seed, e)]
              + [functools.partial(_zero_bias_check, unit, n, seed, name,
                                   f_dd, degree * e)
                 for name, f_dd, degree in reversed(ZERO_BIAS_F_DD)]
              + [functools.partial(_sgn_bias_check, unit, n, seed)])
    # a sample's moment may still overflow where the expected one fits
    (equilibrium, gap), *zero_bias, sgn_bias = _scaled(
        lambda _: run_all(groups), "--c", args.c)
    results = equilibrium + [sgn_bias, gap] + zero_bias[::-1]
    all_pass = all(r["pass"] for r in results)
    report = {"source": src.label, "n": n, "seed": seed, "checks": results,
              "all_pass": all_pass}
    return report, all_pass


BAND_FACTOR = 1.5


def cmd_fixed_point(args):
    band = BAND_FACTOR * 1.36 / math.sqrt(args.n)
    if band >= 1.0:
        raise ValueError(f"--n {args.n} gives a band of {band:g}, and every "
                         "Kolmogorov distance is at most 1; raise --n")
    src = _source(transforms.laplace_source, "--b", args.b)
    values = sym_equilibrium_sample(src, args.n,
                                    derive_seed(args.seed, "fp")).values
    values.sort()  # in place: the sample is its own sorted copy
    d_k = kolmogorov_empirical(EmpiricalSample(values),
                               LaplaceParams(0.0, args.b))
    ok = d_k.value <= band
    report = {"b": args.b, "n": args.n, "seed": args.seed, "d_K": d_k.value,
              "band": band, "band_factor": BAND_FACTOR,
              "verdict": "PASS" if ok else "FAIL"}
    return report, ok


def _sweep_row(pt) -> list:
    """One sweep point in SWEEP_COLUMNS order."""
    return [pt.p, pt.d_K.value, pt.dkw_band, pt.d_BL_lower.value,
            pt.d_W_upper.value, pt.report.value, pt.dk_conversion,
            "PASS" if pt.verdict else "FAIL"]


def cmd_sweep(args):
    src = _source(SOURCES[args.source], "--c", args.c)
    b = src.b_equiv if args.b is None else args.b
    target = _scaled(lambda b: 2.0 * b ** 2, "--b", b)
    # relative to the larger side; a 2b^2 rounded to inf gives nan, refused
    if not abs(src.sigma2 - target) / max(src.sigma2, target) <= 1e-9:
        raise ValueError(
            f"source variance {src.sigma2:g} does not match 2*b^2 = "
            f"{target:g}; adjust --c or --b")
    result = convergence_sweep(src, args.p, args.n, args.seed)
    rows = [_sweep_row(pt) for pt in result.points]
    if args.format == "csv":
        report = {"columns": list(SWEEP_COLUMNS), "rows": rows}
    else:
        # no slope is fitted to fewer than two distinct p values; JSON has
        # no NaN
        slope = result.slope if math.isfinite(result.slope) else None
        report = {"source": src.label, "b": b, "n": args.n,
                  "seed": args.seed, "slope": slope,
                  "family_size": result.points[0].d_BL_lower.family_size,
                  "points": [dict(zip(SWEEP_COLUMNS, row)) for row in rows],
                  "components": [dict(pt.report.components,
                                      dk_conversion=pt.dk_conversion,
                                      dkw_band=pt.dkw_band)
                                 for pt in result.points]}
    all_pass = all(pt.verdict for pt in result.points)
    return report, all_pass


def _bound_entry(rep) -> dict:
    return {"value": rep.value, "components": rep.components}


def cmd_bounds(args):
    src = _source(SOURCES[args.source], "--c", args.c)
    fixed = args.k is not None
    reports = []
    for p in (None,) if fixed else args.p:
        index = FixedIndex(args.k) if fixed else GeometricIndex(p)
        spec = RandomSumSpec(index, Summands(src, args.scales))
        entry = {"index": "fixed" if fixed else "geometric", "p": p,
                 "k": args.k, "scales": list(args.scales),
                 "coupling": args.coupling}
        if spec.summands.is_iid:
            entry["iid_sum"] = _bound_entry(
                iid_sum_bound(spec, coupling=args.coupling))
            if p is not None:
                entry["geometric_sum"] = _bound_entry(geometric_sum_bound(
                    p, spec.summands.b_equiv,
                    float(spec.summands.residue_moments[2][0])))
        entry["general_sum"] = _bound_entry(
            general_sum_bound(spec, coupling=args.coupling))
        reports.append(entry)
    return {"source": src.label, "reports": reports}, True


def main(argv=None) -> int:
    """Run one command and return its exit status.  Every command handler
    returns (report, passed); a JSON report also gets the schema version and
    the command name.  No exception exits 1, the FAIL status."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except RecursionError:  # from argparse's @FILE expansion alone
            raise ValueError("an @FILE argument includes itself") from None
        payload, passed = args.handler(args)
        fmt = getattr(args, "format", "json")
        if fmt == "json":
            payload = {"schema_version": SCHEMA_VERSION,
                       "command": args.command, **payload}
        _write(emit_report(payload, fmt), args.out)
        return 0 if passed else 1
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numeric/runtime failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
