"""The four benchmark workloads: CLI operation lists, set-up warmers, and why.

Each operation is the argv of one ``laplace-stein`` invocation; the worker
runs it through ``laplace_stein.cli.main`` exactly as the console script
does.  Sizes are fixed here so every later claim names the same work.
``tiny`` shrinks every size for the smoke test; tiny reports have no stored
digests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

REFERENCE_SEED = 7

# source scales with E[X^2] = 2 b^2 at b = 1
RADEMACHER_C = repr(math.sqrt(2.0))
UNIFORM_C = repr(math.sqrt(6.0))
SWEEP_P = "0.1,0.03,0.01,0.003,0.001"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str          # why the workload exists (recorded beside every result)
    layers: str       # which layers it exercises and which it bypasses
    ops: Callable     # (seed, tiny) -> list of argv lists
    warm: Optional[Callable]  # (ls, tiny): fills the caches the ops use


def _sweep_ops(source, c, n, n_tiny):
    def ops(seed, tiny):
        return [["sweep", "--source", source, "--c", c, "--b", "1",
                 "--p", SWEEP_P, "--n", str(n_tiny if tiny else n),
                 "--seed", str(seed)]]
    return ops


def _sweep_warm(factory, c):
    def warm(ls, tiny):
        # The same public call convergence_sweep makes, on a one-point sample:
        # fills the dense family and its Wh cache at the source's exact b.
        b = getattr(ls, factory)(float(c)).b_equiv
        ls.bl_lower_bound(ls.EmpiricalSample.from_values([0.0]),
                          ls.LaplaceParams(0.0, b), ls.dense_bl_family())
    return warm


def _bounds_ops(seed, tiny):
    deep = "1e-3,1e-4" if tiny else "1e-3,1e-4,1e-5"
    scaled = "1e-2,1e-3" if tiny else "1e-3,1e-4"
    return [["bounds", "--source", "rademacher", "--c", RADEMACHER_C,
             "--coupling", "comonotone", "--p", deep],
            ["bounds", "--source", "rademacher", "--c", RADEMACHER_C,
             "--scales", "1,2", "--coupling", "independent", "--p", scaled]]


def _battery_b(tiny):
    return "1" if tiny else "0.5,1,2"


def _battery_ops(seed, tiny):
    n = "2000" if tiny else "1000000"
    ops = [["stein-check", "--b", _battery_b(tiny)]]
    for source, c in (("rademacher", RADEMACHER_C), ("uniform", UNIFORM_C),
                      ("laplace", "1")):
        ops.append(["transform-check", "--source", source, "--c", c,
                    "--n", n, "--seed", str(seed)])
    ops.append(["fixed-point", "--b", "1", "--n", n, "--seed", str(seed)])
    return ops


def _battery_warm(ls, tiny):
    # cmd_stein_check calls solve(h, b) per member; solve fills the Wh cache.
    for b in _battery_b(tiny).split(","):
        for h in ls.stein_family():
            ls.solve(h, float(b))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-exact",
        why="sweep, Rademacher(sqrt 2), b=1, p=0.1..0.001 (5 points), n=1e6: "
            "the metrics-heavy case, d_BL alone is about 70% of the pass",
        layers="exercises metrics (d_BL, d_W, d_K) and the exact-aggregate "
               "(binomial) sampler; bypasses the chunked sampler, the "
               "M-distribution and index gap, stein and transforms",
        ops=_sweep_ops("rademacher", RADEMACHER_C, 1_000_000, 2000),
        warm=_sweep_warm("rademacher", RADEMACHER_C)),
    Workload(
        name="sweep-chunked",
        why="sweep, Uniform(sqrt 6), b=1, same p grid, n=1e5, about 1.5e8 "
            "summand draws: the sampling-heavy case",
        layers="exercises the chunked sampler (about 70% of the pass) and "
               "metrics on 10x smaller samples than sweep-exact; bypasses the "
               "exact-aggregate sampler, the M-distribution and index gap, "
               "stein and transforms",
        ops=_sweep_ops("uniform", UNIFORM_C, 100_000, 2000),
        warm=_sweep_warm("uniform_symmetric", UNIFORM_C)),
    Workload(
        name="bounds-deep",
        why="two closed-form bounds reports with no sampling: i.i.d. "
            "comonotone down to p=1e-5 and scales (1,2) independent down to "
            "p=1e-4; the memory-heavy case (about 580 MB peak)",
        layers="exercises the M-distribution and index gap (about 83% of the "
               "pass); bypasses metrics, sampling, stein and transforms. It "
               "stops at p=1e-5: p=1e-6 ran out of memory under a 3 GiB cap",
        ops=_bounds_ops,
        warm=None),
    Workload(
        name="battery",
        why="stein-check at b=0.5,1,2; transform-check for rademacher, "
            "uniform and laplace at n=1e6; fixed-point at b=1, n=1e6",
        layers="the only workload where stein, quadrature and transforms do "
               "the work (transforms about 60%, stein about 18%); uses d_K "
               "only from metrics; bypasses d_BL, d_W and random sums",
        ops=_battery_ops,
        warm=_battery_warm),
)}
