"""Benchmark of the laplace-stein package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src/``.  Every process this starts is a fresh interpreter running
worker.py, so each workload pays its own imports and set-up and reports its
own peak RSS.  With ``--trace 0`` it reports the end-to-end metrics: set-up
time (median of SETUP_SAMPLES fresh processes), the median warm pass time,
and peak RSS.  With ``--trace 1`` it reports per-layer self times and exact
counts from traced passes, alternated with untraced ones for the tracing
overhead.  Human-readable rows (``name workload value unit`` with median and
quartiles) come first; the last line of stdout is one JSON object.  A
failed operation, a FAIL verdict, a report that differs from the reference,
or a count that varies marks the result incorrect and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3        # fresh processes timed to READY per untraced run
HARD_LIMIT_S = 170.0     # a run must end within 180 s; children are killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "report_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> span whose self time it reports
SPAN_METRICS = {
    "metrics.d_BL_s": "metrics.d_BL",
    "metrics.d_W_s": "metrics.d_W",
    "metrics.d_K_s": "metrics.d_K",
    "laplace.cdf_s": "laplace.cdf",
    "random_sums.sweep_self_s": "random_sums.sweep",
    "random_sums.sample_exact_s": "random_sums.sample_exact",
    "random_sums.sample_chunked_s": "random_sums.sample_chunked",
    "random_sums.bound_self_s": "random_sums.bound",
    "random_sums.m_distribution_s": "random_sums.m_distribution",
    "random_sums.index_gap_s": "random_sums.index_gap",
    "stein.solve_s": "stein.solve",
    "stein.residual_s": "stein.residual",
    "stein.certify_bounds_s": "stein.certify_bounds",
    "quadrature.tail_s": "quadrature.tail",
    "quadrature.expectation_s": "quadrature.expectation",
    "transforms.sample_s": "transforms.sample",
    "transforms.zero_bias_relation_s": "transforms.zero_bias_relation",
    "transforms.mc_estimate_s": "transforms.mc_estimate",
    "cli.emit_s": "cli.emit",
    "cli.self_s": "cli",
}
COUNTS = {
    "metrics.d_BL_member_evals": "count",
    "random_sums.summand_draws": "count_computed",
    "random_sums.m_support": "count",
    "stein.grid_points": "count",
    "transforms.draws": "count",
    "cli.report_bytes": "bytes",
}
PER_LAYER = dict(
    {name: "s" for name in SPAN_METRICS}, **COUNTS,
    **{"metrics.d_BL_ns_per_member_sample": "ns",
       "random_sums.ns_per_draw": "ns",
       "random_sums.bound_peak_alloc_mb": "MB",
       "stein.wh_cold_s": "s",
       "trace_overhead_frac": "frac"})


class WorkerError(Exception):
    pass


def machine_facts(env) -> str:
    caches = []
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches.append(f"L{level}={size}")
    caps = ",".join(f"{var}={env[var]}" for var in THREAD_VARS)
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"{' '.join(caches) or 'L2/L3=unknown'} threads={caps}")


class Worker:
    """worker.py in a fresh process; stdout is read line by line with times."""

    def __init__(self, args, env, deadline, setup_only=False):
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        if setup_only:
            argv.append("--setup-only")
        self.deadline = deadline
        self.buffer = b""
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                                     cwd=ROOT)

    def readline(self):
        """(arrival time, line) of the next stdout line, or None at EOF."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0:
                raise WorkerError("worker exceeded the time limit")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buffer += chunk
        arrived = time.perf_counter()
        line, self.buffer = self.buffer.split(b"\n", 1)
        return arrived, line.decode()

    def ready(self) -> float:
        """Seconds from spawn until the worker announced READY."""
        got = self.readline()
        if got is None or got[1] != "READY":
            raise WorkerError(f"worker did not get ready: {got!r}")
        return got[0] - self.started

    def result(self) -> dict:
        got = self.readline()
        if got is None:
            raise WorkerError("worker ended without a result")
        return json.loads(got[1])

    def close(self):
        try:
            status = self.proc.wait(timeout=max(
                1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise WorkerError("worker did not exit in time")
        finally:
            self.proc.stdout.close()
        if status != 0:
            raise WorkerError(f"worker exited with status {status}")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def spread(values) -> tuple:
    """(median, first quartile, third quartile) of the samples."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def measure(args, env, deadline) -> tuple:
    """(setup samples, worker result), one worker process at a time."""
    setups = []
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    for _ in range(probes):
        worker = Worker(args, env, deadline, setup_only=True)
        try:
            setups.append(worker.ready())
            worker.close()
        finally:
            worker.kill()
    worker = Worker(args, env, deadline)
    try:
        setups.append(worker.ready())
        result = worker.result()
        worker.close()
    finally:
        worker.kill()
    return setups, result


def end_to_end(setups, result) -> dict:
    rss_mb = result["peak_rss_kib"] * 1024 / 1e6
    return {"setup_s": setups, "report_s": result["pass_seconds"],
            "peak_rss_mb": [rss_mb]}


def per_layer(result, defects) -> dict:
    traced = result["traced"]
    samples = {name: [t["self"].get(span, 0.0) for t in traced]
               for name, span in SPAN_METRICS.items()}
    counts = {}
    for name in COUNTS:
        seen = {round(t["counts"].get(name, 0)) for t in traced}
        if len(seen) != 1:
            defects.append(f"count {name} varies between passes: "
                           f"{sorted(seen)}")
        counts[name] = min(seen)
        expected = result["expected_counts"].get(name)
        if expected is not None and counts[name] != expected:
            defects.append(f"count {name} = {counts[name]}, reference run "
                           f"had {expected}")
        samples[name] = [counts[name]]

    def per_unit(span_metric, count):
        if not counts[count]:
            return [0.0]
        return [1e9 * s / counts[count] for s in samples[span_metric]]

    samples["metrics.d_BL_ns_per_member_sample"] = per_unit(
        "metrics.d_BL_s", "metrics.d_BL_member_evals")
    samples["random_sums.ns_per_draw"] = per_unit(
        "random_sums.sample_chunked_s", "random_sums.summand_draws")
    samples["random_sums.bound_peak_alloc_mb"] = [
        t["peak_alloc"] / 1e6 for t in traced]
    samples["stein.wh_cold_s"] = [result["wh_cold_s"]]
    plain = statistics.median(result["pass_seconds"])
    samples["trace_overhead_frac"] = [t["seconds"] / plain - 1.0
                                      for t in traced]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test only")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S

    if not (ROOT / "src" / "laplace_stein" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/laplace_stein to benchmark",
              file=sys.stderr)
        return 2
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, **{var: nproc for var in THREAD_VARS})

    try:
        setups, result = measure(args, env, deadline)
    except (WorkerError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 3

    defects = []
    if args.trace:
        samples, units = per_layer(result, defects), PER_LAYER
    else:
        samples, units = end_to_end(setups, result), END_TO_END

    workload = WORKLOADS[args.workload]
    versions = " ".join(f"{k}={v}" for k, v in result["versions"].items())
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# layers: {workload.layers}")
    print(f"# machine: {machine_facts(env)} {versions}")
    print(f"# seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"passes={len(result['pass_seconds'])} untraced + "
          f"{len(result['traced'])} traced, 1 warm-up; "
          f"set-up samples={len(setups)}")
    metrics = {}
    for name, unit in units.items():
        median, q1, q3 = spread(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name} {workload.name} {median:.10g} {unit} "
              f"median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"samples={len(samples[name])}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {workload.name} {failed / attempted:.6g} frac "
          f"failed={failed} attempted={attempted}")
    for line in result["failures"] + defects:
        print(f"FAILED {workload.name}: {line}")
    correct = not failed and not defects
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
