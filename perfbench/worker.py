"""One workload in one fresh process: set up, run closed-loop passes, report.

Started by run.py, never by hand.  Protocol on stdout: the line ``READY``
once set-up is done (the parent times set-up up to it), then, unless
``--setup-only``, one JSON object with the per-pass measurements.  The
package is imported from ``<checkout>/src`` and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"


def import_package():
    """Import laplace_stein from the checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    if not (src / "laplace_stein" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}/laplace_stein")
    sys.path.insert(0, str(src))
    import laplace_stein
    if Path(laplace_stein.__file__).resolve().parent != src / "laplace_stein":
        raise SystemExit(f"error: imported {laplace_stein.__file__}, "
                         f"not the checkout's copy")
    return laplace_stein


def op_key(argv) -> str:
    return " ".join(argv)


def _verdict_failures(report: bytes, fmt: str) -> list:
    """Names of FAIL verdicts inside a report (JSON, or sweep CSV)."""
    if fmt == "csv":
        lines = report.decode().splitlines()
        return [f"row {i}" for i, line in enumerate(lines[1:], 1)
                if line.rsplit(",", 1)[-1] != "PASS"]
    failures = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if (key in ("pass", "passed", "all_pass") and value is not True
                        or key == "verdict" and value != "PASS"):
                    failures.append(f"{path}/{key}")
                walk(value, f"{path}/{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}/{i}")
    walk(json.loads(report), "")
    return failures


def run_op(cli, argv):
    """One CLI-equivalent report: (exit status, report bytes, stderr text).

    An exception escaping the CLI is a failed operation, not the end of the
    run, so it is reported like a nonzero exit status.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            status = None
    return status, out.getvalue().encode(), err.getvalue()


class Gate:
    """Checks every report; failures are counted and named, never raised."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.previous = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, label, argv, status, report, stderr):
        self.attempted += 1
        key = op_key(argv)
        digest = hashlib.sha256(report).hexdigest()
        problems = []
        if status != 0:
            problems.append(f"exit status {status}: {stderr.strip()[-300:]}")
        if report:
            fmt = "csv" if argv[0] == "sweep" else "json"
            try:
                bad = _verdict_failures(report, fmt)
            except ValueError as exc:
                bad = [f"unparseable report ({exc})"]
            if bad:
                problems.append("FAIL verdict at " + ", ".join(bad[:5]))
        else:
            problems.append("empty report")
        expected = self.reference.get(key, {}).get("sha256",
                                                   self.previous.get(key))
        if expected is not None and digest != expected:
            problems.append(f"sha256 {digest} differs from {expected}")
        self.previous[key] = digest
        self.failed += bool(problems)
        for problem in problems:
            self.failures.append(f"{label} {argv[0]} [{key}]: {problem}")


def run_pass(cli, ops, gate, label, tracer=None):
    """Every operation once; returns the pass wall time in seconds."""
    start = time.perf_counter()
    for argv in ops:
        if tracer is None:
            result = run_op(cli, argv)
        else:
            with tracer.span("cli"):
                result = run_op(cli, argv)
        gate.check(label, argv, *result)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # Set-up: what every CLI invocation pays before its first report.
    ls = import_package()
    from laplace_stein import cli
    wh_cold = 0.0
    if workload.warm is not None:
        wh_start = time.perf_counter()
        workload.warm(ls, args.tiny)
        wh_cold = time.perf_counter() - wh_start
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = {}
    if REFERENCE.is_file() and not args.tiny:
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    gate = Gate(reference.get("ops", {}))
    ops = workload.ops(args.seed, args.tiny)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    run_pass(cli, ops, gate, "warm-up")
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        # closed loop: the next pass starts when the previous one ends;
        # a traced run alternates untraced and traced passes
        if tracer is not None and len(traced) < len(plain):
            tracer.reset()
            with tracer.installed():
                seconds = run_pass(cli, ops, gate,
                                   f"traced pass {len(traced)}", tracer)
            traced.append({"seconds": seconds,
                           "self": tracer.self_times(),
                           "counts": dict(tracer.counts),
                           "peak_alloc": tracer.peak_alloc})
        else:
            plain.append(run_pass(cli, ops, gate, f"pass {len(plain)}"))
        if time.perf_counter() >= deadline and len(traced) >= args.trace:
            break

    import numpy
    import scipy
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "pass_seconds": plain,
        "traced": traced,
        "wh_cold_s": wh_cold,
        "peak_rss_kib": usage.ru_maxrss,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "expected_counts": reference.get("counts", {}),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "laplace_stein": ls.__version__},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
