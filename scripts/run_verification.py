#!/usr/bin/env python3
"""Run the full verification battery and drop machine-readable reports.

Equivalent to invoking the CLI commands one by one; exits nonzero if any
certified inequality fails.

    python scripts/run_verification.py [--outdir reports] [--seed 7]
"""

import argparse
import pathlib
import sys

from laplace_stein import cli

RADC = "1.4142135623730951"   # sqrt(2): matches target scale b = 1
UNIC = "2.449489742783178"    # sqrt(6)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--seed", default="7")
    ap.add_argument("--n", default="100000")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = {
        "stein-check": ["stein-check", "--b", "0.5,1,2",
                        "--out", str(outdir / "stein_check.json")],
        "transform-check (rademacher)": [
            "transform-check", "--source", "rademacher", "--c", RADC,
            "--n", args.n, "--seed", args.seed,
            "--out", str(outdir / "transform_rademacher.json")],
        "transform-check (uniform)": [
            "transform-check", "--source", "uniform", "--c", UNIC,
            "--n", args.n, "--seed", args.seed,
            "--out", str(outdir / "transform_uniform.json")],
        "transform-check (laplace)": [
            "transform-check", "--source", "laplace", "--c", "1.0",
            "--n", args.n, "--seed", args.seed,
            "--out", str(outdir / "transform_laplace.json")],
        "fixed-point": ["fixed-point", "--b", "1", "--n", args.n,
                        "--seed", args.seed,
                        "--out", str(outdir / "fixed_point.json")],
        "sweep": ["sweep", "--source", "rademacher", "--c", RADC, "--b", "1",
                  "--p", "0.1,0.03,0.01,0.003,0.001", "--n", args.n,
                  "--seed", args.seed, "--out", str(outdir / "sweep.csv")],
        "sweep (uniform)": [
            "sweep", "--source", "uniform", "--c", UNIC, "--b", "1",
            "--p", "0.1,0.03,0.01,0.003,0.001", "--n", args.n,
            "--seed", args.seed, "--out", str(outdir / "sweep_uniform.csv")],
        "bounds": ["bounds", "--source", "rademacher", "--c", RADC,
                   "--coupling", "comonotone", "--p", "1e-3,1e-4",
                   "--out", str(outdir / "bounds.json")],
    }

    worst = 0
    for name, argv in jobs.items():
        status = cli.main(argv)
        print(f"{'PASS' if status == 0 else 'FAIL':4} {name} (exit {status})")
        worst = max(worst, status)
    return worst


if __name__ == "__main__":
    sys.exit(main())
