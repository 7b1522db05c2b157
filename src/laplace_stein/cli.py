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
3 on numeric or resource failures (quadrature, truncation, I/O, memory).
Every option, its type and its default is declared once, in the argparse
parser, and shown by --help.  An argument @FILE stands for the lines of FILE,
one flag such as --n=500 per line; flags after it on the command line win.
A bare-filename --out resolves against $LAPLACE_STEIN_OUT when that is set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .errors import QuadratureError, TruncationError
from .laplace import LaplaceParams
from .metrics import (EmpiricalSample, dkw_band, kolmogorov_empirical,
                      within_four_se)
from .random_sums import (GeometricIndex, RandomSumSpec, Summands,
                          convergence_sweep, fixed_index, general_sum_bound,
                          geometric_sum_bound, iid_sum_bound)
from .seeding import derive_seed, substream
from .stein import certify_bounds, residual, solve, standard_grid, stein_family
from . import transforms
from .transforms import (mc_estimate, sgn_bias_sample, sym_equilibrium_sample,
                         verify_zero_bias_relation)

SCHEMA_VERSION = "1"
ENV_OUT_DIR = "LAPLACE_STEIN_OUT"

SWEEP_COLUMNS = ("p", "d_K", "d_K_band", "d_BL_lower", "d_W_upper",
                 "thm7_bound", "prop1_bound", "verdict")

SOURCES = {"rademacher": transforms.rademacher,
           "uniform": transforms.uniform_symmetric,
           "laplace": transforms.laplace_source}


class UsageError(Exception):
    pass


def _float_list(text):
    return tuple(float(v) for v in str(text).split(",") if v != "")


def _positive(text):
    """argparse type of --c, --tol and the --b of fixed-point and sweep: a
    finite positive number."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite and positive")
    return value


def _positive_list(text):
    """argparse type of stein-check's --b: a nonempty comma list of finite
    positive numbers."""
    values = tuple(_positive(v) for v in str(text).split(",") if v != "")
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} lists no value")
    return values


def _probability_list(text):
    """argparse type of --p on sweep and bounds: a nonempty comma list of
    probabilities in (0, 1)."""
    values = _float_list(text)
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} lists no value")
    for value in values:
        if not 0.0 < value < 1.0:
            raise argparse.ArgumentTypeError(f"{value!r} is not in (0, 1)")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laplace-stein",
        description="verification suites and convergence experiments for "
                    "Laplace approximation of random sums",
        fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, sampled=True, tol=None):
        p = sub.add_parser(
            name, help=summary,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="output path, stdout if absent; a bare "
                       f"file name resolves against ${ENV_OUT_DIR}")
        if sampled:
            p.add_argument("--seed", type=int, default=7, help="master seed")
            p.add_argument("--n", type=int, default=100_000,
                           help="samples per estimate")
        if tol is not None:
            p.add_argument("--tol", type=_positive, default=tol[1],
                           help=tol[0])
        return p

    def source(p, what):
        p.add_argument("--source", choices=SOURCES, default="rademacher",
                       help=what)
        p.add_argument("--c", type=_positive, default=math.sqrt(2.0),
                       help="source scale parameter")

    p = command("stein-check", cmd_stein_check,
                "equation residuals and derivative certificates",
                sampled=False, tol=("residual tolerance", 1e-6))
    p.add_argument("--b", type=_positive_list, default="0.5,1,2",
                   help="comma list of scales")

    p = command("transform-check", cmd_transform_check,
                "equilibrium-transform identities for one source")
    source(p, "source family")

    p = command("fixed-point", cmd_fixed_point,
                "Kolmogorov test of the Laplace fixed point",
                tol=("factor on the 1.36/sqrt(n) band", 1.5))
    p.add_argument("--b", type=_positive, default=1.0, help="target scale")

    p = command("sweep", cmd_sweep, "geometric-sum convergence sweep",
                tol=("DKW band level alpha", 0.05))
    source(p, "summand family")
    p.add_argument("--b", type=_positive, default=1.0,
                   help="target scale; must match the source variance")
    p.add_argument("--p", type=_probability_list, default="0.1,0.01,0.001",
                   help="comma list of success probabilities")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="report format")

    p = command("bounds", cmd_bounds,
                "bound reports for one random-sum spec", sampled=False)
    source(p, "summand family")
    p.add_argument("--index", choices=("geometric", "fixed"),
                   default="geometric", help="index law")
    p.add_argument("--p", type=_probability_list, default="0.1,0.01,0.001",
                   help="geometric success probabilities")
    p.add_argument("--k", type=int, default=5, help="fixed index value")
    p.add_argument("--scales", type=_float_list, default="1",
                   help="cyclic per-index scale factors")
    p.add_argument("--coupling", choices=("comonotone", "independent"),
                   default="comonotone",
                   help="index coupling for the gap term")
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
    raise UsageError(f"unknown format {fmt!r}")


def _resolve_out(path: Optional[str]) -> Optional[str]:
    base = os.environ.get(ENV_OUT_DIR)
    if path and base and os.path.dirname(path) == "":
        return os.path.join(base, path)
    return path


def _write(data: bytes, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(data.decode())
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def cmd_stein_check(args):
    checks = []
    for b in args.b:
        grid = standard_grid(b)
        for h in stein_family():
            sol = solve(h, b)
            res_max = float(np.max(np.abs(residual(sol, grid))))
            cert = certify_bounds(sol, grid)
            ok = bool(res_max <= args.tol and cert.passed
                      and abs(sol.g(0.0)) <= 1e-10)
            checks.append({
                "label": h.label, "b": b, "target_mean": sol.target_mean,
                "residual_max": res_max, "solution_at_zero": sol.g(0.0),
                "certificate": {"values": cert.values, "limits": cert.limits,
                                "passed": cert.passed},
                "pass": ok,
            })
    all_pass = all(c["pass"] for c in checks)
    report = {"schema_version": SCHEMA_VERSION, "command": "stein-check",
              "b_grid": list(args.b), "residual_tolerance": args.tol,
              "family_size": len(stein_family()), "checks": checks,
              "all_pass": all_pass}
    return report, all_pass


def _four_se_check(name, observed, expected, se) -> dict:
    se = max(se, 5e-324)
    return {"check": name, "observed": observed, "expected": expected,
            "std_error": se,
            "pass": within_four_se(abs(observed - expected), 0.0, se)}


def cmd_transform_check(args):
    if args.n < 2:
        raise UsageError("--n must be at least 2: the 4-standard-error checks "
                         "need a standard error, which one draw does not have")
    src = SOURCES[args.source](args.c)
    n, seed = args.n, args.seed
    results = []

    xl = sym_equilibrium_sample(src, n, derive_seed(seed, "tc-equilibrium"))
    for k in (2, 4):
        est = mc_estimate(xl.values ** k)
        results.append(_four_se_check(
            f"equilibrium_moment_k{k}", est.value,
            transforms.equilibrium_moment(k, src), est.std_error))
    for t in (0.5, 1.0, 2.0):
        est = mc_estimate(np.cos(t * xl.values))
        results.append(_four_se_check(
            f"equilibrium_cf_t{t:g}", est.value,
            transforms.equilibrium_cf(t, src), est.std_error))

    xp = sgn_bias_sample(src, n, derive_seed(seed, "tc-sgn-bias"))
    est = mc_estimate(np.sign(xp.values))
    results.append(_four_se_check("sgn_bias_symmetry", est.value, 0.0,
                                  est.std_error))

    rng = substream(seed, "tc-coupling")
    x = np.asarray(src.sampler(rng, n), dtype=float)
    gap = mc_estimate(np.abs(x - xl.values))
    bound = src.abs_mean + src.abs_third / (6.0 * src.b_equiv ** 2)
    results.append({"check": "equilibrium_gap_bound", "observed": gap.value,
                    "bound": bound, "std_error": gap.std_error,
                    "pass": within_four_se(gap.value, bound, gap.std_error)})

    if src.zero_bias_sampler is not None:
        for name, f_dd in (("one", lambda x: np.ones_like(x)),
                           ("square", np.square), ("cos", np.cos)):
            est = verify_zero_bias_relation(src, f_dd, n,
                                            derive_seed(seed, "tc-zb", name))
            results.append(_four_se_check(f"zero_bias_relation_{name}",
                                          est.value, 0.0, est.std_error))

    all_pass = all(r["pass"] for r in results)
    report = {"schema_version": SCHEMA_VERSION, "command": "transform-check",
              "source": src.label, "n": n, "seed": seed, "checks": results,
              "all_pass": all_pass}
    return report, all_pass


def cmd_fixed_point(args):
    band = args.tol * 1.36 / math.sqrt(args.n) if args.n > 0 else math.inf
    if band >= 1.0:
        raise UsageError(f"--n {args.n} gives a band of {band:g}, and every "
                         "Kolmogorov distance is at most 1; raise --n")
    src = transforms.laplace_source(args.b)
    sample = sym_equilibrium_sample(src, args.n, derive_seed(args.seed, "fp"))
    d_k = kolmogorov_empirical(EmpiricalSample.from_values(sample.values),
                               LaplaceParams(0.0, args.b))
    ok = d_k.value <= band
    report = {"schema_version": SCHEMA_VERSION, "command": "fixed-point",
              "b": args.b, "n": args.n, "seed": args.seed, "d_K": d_k.value,
              "band": band, "band_factor": args.tol,
              "verdict": "PASS" if ok else "FAIL"}
    return report, ok


def _sweep_row(pt) -> list:
    """One sweep point in SWEEP_COLUMNS order."""
    rep = pt.report
    return [pt.p, rep.empirical["d_K"].value,
            rep.components["dkw_band"], rep.empirical["d_BL_lower"].value,
            rep.empirical["d_W_upper"].value, rep.value,
            rep.components["dk_conversion"],
            "PASS" if rep.verdict else "FAIL"]


def cmd_sweep(args):
    if args.tol >= 1.0:
        raise UsageError("--tol, the DKW level alpha, must be below 1")
    band = dkw_band(args.n, args.tol) if args.n >= 2 else math.inf
    if band >= 1.0:
        raise UsageError(f"--n {args.n} gives a DKW band of {band:g}, and "
                         "every Kolmogorov distance is at most 1; raise --n")
    src = SOURCES[args.source](args.c)
    if abs(src.sigma2 - 2.0 * args.b ** 2) > 1e-9 * max(1.0, src.sigma2):
        raise UsageError(
            f"source variance {src.sigma2:g} does not match 2*b^2 = "
            f"{2 * args.b ** 2:g}; adjust --c or --b")
    result = convergence_sweep(src, args.p, args.n, args.seed,
                               alpha=args.tol)
    rows = [_sweep_row(pt) for pt in result.points]
    if args.format == "csv":
        report = {"columns": list(SWEEP_COLUMNS), "rows": rows}
    else:
        # no slope is fitted to fewer than two distinct p values; JSON has
        # no NaN
        slope = result.slope if math.isfinite(result.slope) else None
        report = {"schema_version": SCHEMA_VERSION, "command": "sweep",
                  "source": src.label, "b": args.b, "n": args.n,
                  "seed": args.seed, "slope": slope,
                  "family_size": result.family_size,
                  "points": [dict(zip(SWEEP_COLUMNS, row)) for row in rows],
                  "components": [pt.report.components for pt in result.points]}
    all_pass = all(pt.report.verdict for pt in result.points)
    return report, all_pass


def _bound_entry(rep) -> dict:
    return {"value": rep.value, "components": rep.components}


def cmd_bounds(args):
    src = SOURCES[args.source](args.c)
    fixed = args.index == "fixed"
    reports = []
    for p in (None,) if fixed else args.p:
        index = fixed_index(args.k) if fixed else GeometricIndex(p)
        spec = RandomSumSpec(index, Summands(src, args.scales))
        entry = {"index": args.index, "p": p, "k": args.k if fixed else None,
                 "scales": list(args.scales), "coupling": args.coupling}
        if spec.summands.is_iid:
            entry["iid_sum"] = _bound_entry(
                iid_sum_bound(spec, coupling=args.coupling))
            if p is not None:
                entry["geometric_sum"] = _bound_entry(geometric_sum_bound(
                    p, spec.b_equiv, float(spec.summands.abs_third_at(1))))
        entry["general_sum"] = _bound_entry(
            general_sum_bound(spec, coupling=args.coupling))
        reports.append(entry)
    report = {"schema_version": SCHEMA_VERSION, "command": "bounds",
              "source": src.label, "reports": reports}
    return report, True


def main(argv=None) -> int:
    """Run one command and return its exit status.  Every command handler
    returns (report, passed)."""
    try:
        args = build_parser().parse_args(argv)
        payload, passed = args.handler(args)
        _write(emit_report(payload, getattr(args, "format", "json")),
               _resolve_out(args.out))
        return 0 if passed else 1
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, TruncationError, OSError, MemoryError) as exc:
        print(f"numeric/runtime failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
