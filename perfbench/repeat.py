"""Run the benchmark several times per workload and summarize across runs.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--trace 1]

Each run is one ``run.py`` invocation with its own seed (``--first-seed``,
``--first-seed + 1``, ...).  For every metric and workload it prints one
row ``name workload median unit q1=.. q3=.. spread=..`` over the runs, where
spread is (q3 - q1) / median from ``statistics.quantiles(values, n=4)``.
End-to-end rows also show the metric's bound from BENCHMARK.json and flag a
spread above a third of it (set-up time is exempt from the spread rule).
Traced runs flag a count that differs between runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import spread  # noqa: E402

SPREAD_EXEMPT = ("setup_s",)
SEED_DEPENDENT_COUNTS = ("cli.report_bytes",)


def run_once(workload, seed, seconds, trace) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("FAILED"):
            print(line)
    if proc.returncode not in (0, 1) or not lines:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), time.perf_counter() - started


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in args.workload or names:
        runs = [run_once(workload, args.first_seed + i, args.seconds,
                         args.trace) for i in range(args.runs)]
        results = [result for result, _ in runs]
        steady &= all(r["correct"] for r in results)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median, q1, q3 = spread(values)
            row = (f"{name} {workload} {median:.6g} {unit} q1={q1:.6g} "
                   f"q3={q3:.6g} runs={len(values)}")
            if name in bounds:
                share = (q3 - q1) / median
                ok = name in SPREAD_EXEMPT or share < bounds[name] / 3
                steady &= ok
                row += (f" spread={share:.4f} bound={bounds[name]}"
                        f"{'' if ok else ' TOO-WIDE'}")
            elif (unit.startswith("count") and len(set(values)) != 1
                  and name not in SEED_DEPENDENT_COUNTS):
                steady = False
                row += " COUNT-VARIES"
            print(row, flush=True)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"failed_frac {workload} {failed / attempted:.6g} frac "
              f"failed={failed} attempted={attempted}", flush=True)
        wall = spread([seconds for _, seconds in runs])
        print(f"# {workload}: one run.py invocation took {wall[0]:.1f} s "
              f"(median; q1={wall[1]:.1f} q3={wall[2]:.1f})", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
