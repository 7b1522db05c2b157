"""Rewrite reference.json: report digests and exact counts at seed 7.

    python3 perfbench/make_reference.py

Run this only when a change alters report bytes or counts on purpose, and
say which in the change's notes; the benchmark otherwise fails any report
that differs from these digests.  Digests are of the full-size reports at
seed 7; counts come from one traced pass and exclude ``cli.report_bytes``,
which depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import COUNTS
from tracing import Tracer
from worker import REFERENCE, import_package, op_key, run_op
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    ls = import_package()
    from laplace_stein import cli
    reference = {}
    for workload in WORKLOADS.values():
        if workload.warm is not None:
            workload.warm(ls, False)
        tracer = Tracer()
        ops = {}
        with tracer.installed():
            for argv in workload.ops(REFERENCE_SEED, False):
                status, report, stderr = run_op(cli, argv)
                if status != 0:
                    print(f"{workload.name}: {argv[0]} exited {status}\n"
                          f"{stderr}", file=sys.stderr)
                    return 1
                ops[op_key(argv)] = {
                    "sha256": hashlib.sha256(report).hexdigest()}
        counts = {name: round(tracer.counts.get(name, 0)) for name in COUNTS
                  if name != "cli.report_bytes"}
        reference[workload.name] = {"ops": ops, "counts": counts}
        print(f"{workload.name}: {len(ops)} reports, counts {counts}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
