"""Golden report digests: one small pinned config per subcommand.

Reports are byte-identical for identical (config, seed), and a refactor must
keep them so.  A digest change here is a report change: explain it in
CHANGES.md and record the new digest.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from laplace_stein import cli, seeding

RADC = "1.4142135623730951"   # sqrt(2)
UNIC = "2.449489742783178"    # sqrt(6)

GOLDEN = {
    "stein-check": (
        ["stein-check", "--b", "0.5,1"],
        "9f1501f5d435c017f517b00d8193317294443d63e67c92925057c65ddb2ef190"),
    "transform-check": (
        ["transform-check", "--source", "uniform", "--c", UNIC,
         "--n", "20000", "--seed", "5"],
        "be85c407d66c6aa22f42358220a7f37f2cd67e672772adb2f5103486cea1cebf"),
    "transform-check-rademacher": (
        ["transform-check", "--source", "rademacher", "--c", RADC,
         "--n", "20000", "--seed", "5"],
        "6adc2f61c2f045fb02bca71a62e224efa3e41014fd96d52747d660a889960e41"),
    # n = 150000 spans three blocks of the transforms' in-place loops
    # (2**16 values each), the last one partial
    "transform-check-laplace-blocks": (
        ["transform-check", "--source", "laplace", "--c", "1",
         "--n", "150000", "--seed", "5"],
        "503ccf52651e208b5ec57b45a739f1183bcdb35f24ee9f40726b0549cfb9b941"),
    "fixed-point": (
        ["fixed-point", "--b", "1", "--n", "20000", "--seed", "3"],
        "697e01689fed2a98be92e7c5b927526e36614483837991f5584eedeaa69984dd"),
    "sweep-csv": (
        ["sweep", "--source", "rademacher", "--c", RADC, "--b", "1",
         "--p", "0.2,0.05", "--n", "4000", "--seed", "7"],
        "1164351d20e8b0b10a2e4db22c33d70b92a511759ca8670ce38b5a54e11e8288"),
    "sweep-json": (
        ["sweep", "--source", "uniform", "--c", UNIC, "--b", "1",
         "--p", "0.3,0.1", "--n", "2000", "--seed", "3", "--format", "json"],
        "0c37c184747be22853ec2badeb4a32910e013d8804757fa7cc5f970abd8c2f0f"),
    "bounds-fixed": (
        ["bounds", "--source", "rademacher", "--c", "1", "--k", "3",
         "--scales", "1,2"],
        "4af0e1023062e8df98f329b4a03823f84a1b219706b06c521b2c9f0d0df66ab0"),
    "bounds-geometric": (
        ["bounds", "--source", "laplace", "--c", "1", "--p", "0.2,0.05",
         "--coupling", "independent"],
        "a621c2b280221cd9abee731db6b07ca6f12a553f9527da26e2f66391c47124ff"),
    # k = 1: the index-gap correlation is a length-1 FFT, whose bits are
    # the plain product's
    "bounds-fixed-k1": (
        ["bounds", "--k", "1", "--coupling", "independent"],
        "76e7e00a58b96cd62f8adf50ec6b274112648f86f73bc0ea9bed10d23f41592f"),
    # p = 0.2: the N- and M-pmfs are bitwise equal; p = 0.03: they differ
    # in the last bits; on one atom of the period both gaps are exactly 0
    "bounds-iid-comonotone": (
        ["bounds", "--source", "uniform", "--c", UNIC, "--p", "0.2,0.03"],
        "ea98e453a3c38a2b2482fa8bd3ce88d08279335f4e6699d9cb5a6da6b690e941"),
    # the comonotone gap from the first L = 2 atoms over 1 - q^L
    "bounds-cyclic-comonotone": (
        ["bounds", "--source", "rademacher", "--c", RADC, "--scales", "1,2",
         "--p", "0.2,0.05"],
        "c1e7ad06ea364ef6d3cfff39865bfc261bb565f9d4b163d8f69b0230244498da"),
    # the second scale's variance underflows to 0: its atoms carry no
    # M-mass, and the first scale keeps the total variance positive
    "bounds-underflowing-scale": (
        ["bounds", "--scales", "1,1e-170", "--p", "0.5"],
        "8e97030f593b8267222f91f470c8d3033487e90cc69f19a7f9757f0dc785fbda"),
    # n = 150000 spans three blocks of the n-length kernels (2**16 each),
    # the last one partial: d_K, d_W and the sorted sample across blocks
    "sweep-blocks": (
        ["sweep", "--source", "rademacher", "--c", RADC, "--b", "1",
         "--p", "0.1", "--n", "150000", "--seed", "11"],
        "b621880200e52def8e3672a92e58e68795e966c0df32e7c709d2b6eeda3fd645"),
    "fixed-point-blocks": (
        ["fixed-point", "--b", "1", "--n", "150000", "--seed", "5"],
        "52ce8127812b20bbecf31e88de8d0fbbdbb48ee17ab6111a606624d1e525998f"),
}


def report_digest(argv):
    """SHA-256 of the report ``laplace-stein argv`` prints (exit 0)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    argv, digest = GOLDEN[name]
    assert report_digest(argv) == digest


def seedless_benchmark_ops():
    """{argv key: SHA-256} of every benchmark operation that takes no seed
    (bounds-deep's two reports and battery's stein-check), read from the
    benchmark's recorded reference, which is only read here."""
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())
    return {key: op["sha256"] for workload in reference.values()
            for key, op in workload["ops"].items()
            if "--seed" not in key.split()}


BENCHMARK_OPS = seedless_benchmark_ops()


@pytest.mark.parametrize("key", sorted(BENCHMARK_OPS))
def test_benchmark_digest(key):
    # a byte move in the benchmarked reports shows in tier-1, not only in
    # a benchmark run
    assert report_digest(key.split()) == BENCHMARK_OPS[key]


# Uniform summands at p = 0.01 and 0.001 take about 3e5 and 3e6 draws, the
# second more than eleven sampler blocks: the chunked sampler splits it into
# parts on threads, and the report must not depend on how many
CHUNKED_SWEEP = (
    ["sweep", "--source", "uniform", "--c", UNIC, "--b", "1",
     "--p", "0.01,0.001", "--n", "3000", "--seed", "9"],
    "3605e3b50a7359d1e086379ff15946cbdd41fc28a24e6b0301540212b2e4ff05")


@pytest.mark.parametrize("workers", [1, 3])
def test_chunked_sweep_digest_across_parts(workers, monkeypatch):
    monkeypatch.setattr(seeding, "_workers", lambda: workers)
    argv, digest = CHUNKED_SWEEP
    assert report_digest(argv) == digest


# transform-check runs its check groups on the pool, at most one per thread;
# at n = 150000 each group's in-place loops span three blocks
TRANSFORM_CHECK = (
    ["transform-check", "--source", "uniform", "--c", UNIC,
     "--n", "150000", "--seed", "9"],
    "ad4e753723643c21da8e096077212660a9e320ed47a5f5f36dc19942287f24be")


@pytest.mark.parametrize("count", [1, 2, 3])
def test_transform_check_digest_across_workers(count, workers):
    workers(count)
    argv, digest = TRANSFORM_CHECK
    assert report_digest(argv) == digest


def test_transform_check_digest_with_thread_switches(workers):
    # more threads than groups, switching every microsecond: a check put
    # in the wrong place or drawn from the wrong stream shows
    workers(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        argv, digest = TRANSFORM_CHECK
        assert report_digest(argv) == digest
    finally:
        sys.setswitchinterval(interval)


# the points of a sweep on the exact-aggregate path (binomial or gamma
# sums) run on the pool, at most one per thread; at n = 70000 each point's
# blocked kernels span two blocks, the last one partial
EXACT_SWEEPS = {
    "rademacher": (
        ["sweep", "--source", "rademacher", "--c", RADC, "--b", "1",
         "--p", "0.1,0.03,0.01", "--n", "70000", "--seed", "13"],
        "5c9b73cc24819eb57800ffb07311f3496c1160ddb2bbdcfa939bcc5c7133eb02"),
    "laplace": (
        ["sweep", "--source", "laplace", "--c", "1", "--b", "1",
         "--p", "0.1,0.03,0.01", "--n", "70000", "--seed", "13"],
        "2f1e17778c9142812342408e8251839c94606f82b95226f7a2c6d275f688727e"),
}


@pytest.mark.parametrize("count", [1, 2, 3, 8])
@pytest.mark.parametrize("source", sorted(EXACT_SWEEPS))
def test_exact_sweep_digest_across_workers(source, count, workers):
    workers(count)
    argv, digest = EXACT_SWEEPS[source]
    assert report_digest(argv) == digest


def test_exact_sweep_digest_with_thread_switches(workers):
    # more threads than points, switching every microsecond: a point put in
    # the wrong place or drawn from the wrong stream shows
    workers(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        argv, digest = EXACT_SWEEPS["rademacher"]
        assert report_digest(argv) == digest
    finally:
        sys.setswitchinterval(interval)


PINNED_CHILD = """
import os, sys
from laplace_stein import cli, seeding
os.sched_setaffinity(0, {int(sys.argv[1])})
assert seeding._workers() == 1
sys.exit(cli.main(sys.argv[2:]))
"""


def child_env(**extra):
    """The environment, plus ``extra``, for a child that imports this
    checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def pinned_digest(argv, tmp_path):
    """SHA-256 of the report a child pinned to one CPU writes."""
    env = child_env()
    out = tmp_path / "report.json"
    cpu = min(os.sched_getaffinity(0))
    done = subprocess.run(
        [sys.executable, "-c", PINNED_CHILD, str(cpu), *argv,
         "--out", str(out)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return hashlib.sha256(out.read_bytes()).hexdigest()


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no CPU affinity on this platform")


@needs_affinity
def test_transform_check_same_bytes_on_one_cpu(tmp_path):
    # a child pinned to one CPU runs every group in turn on its one thread
    argv, digest = TRANSFORM_CHECK
    assert pinned_digest(argv, tmp_path) == digest


@needs_affinity
@pytest.mark.parametrize("source", sorted(EXACT_SWEEPS))
def test_exact_sweep_same_bytes_on_one_cpu(source, tmp_path):
    # a child pinned to one CPU runs every point in turn on its one thread
    argv, digest = EXACT_SWEEPS[source]
    assert pinned_digest(argv, tmp_path) == digest


# {name: (argv, SHA-256)}: the benchmark's two bounds reports and the
# cyclic comonotone one, whose survivals bounds fills one slice per CPU
BOUNDS_CASES = {key: (key.split(), digest)
                for key, digest in BENCHMARK_OPS.items()
                if key.startswith("bounds")}
BOUNDS_CASES["bounds-cyclic-comonotone"] = GOLDEN["bounds-cyclic-comonotone"]


@needs_affinity
@pytest.mark.parametrize("name", sorted(BOUNDS_CASES))
def test_bounds_same_bytes_on_one_cpu(name, tmp_path):
    # a child pinned to one CPU fills every slice in turn on its one thread
    argv, digest = BOUNDS_CASES[name]
    assert pinned_digest(argv, tmp_path) == digest


ONE_BLAS_THREAD_CHILD = """
import contextlib, hashlib, io, json, sys
import numpy as np
from laplace_stein import cli
from laplace_stein import random_sums
digests = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
w = np.random.default_rng(29).random(200000)
w /= w.sum()
want = float(np.sum(np.arange(1.0, w.shape[0] + 1.0) * w))
print(json.dumps([digests, random_sums._support_mean(w).hex(), want.hex()]))
"""


def test_bounds_bytes_at_one_blas_thread():
    # a BLAS dot splits a long sum across its threads, so its last bits
    # depend on how many there are; the bound layer's means are np.sum's
    # pairwise sums, the same at any BLAS thread count
    assert len(BOUNDS_CASES) == 3
    cases = [BOUNDS_CASES[name] for name in sorted(BOUNDS_CASES)]
    done = subprocess.run(
        [sys.executable, "-c", ONE_BLAS_THREAD_CHILD,
         json.dumps([argv for argv, _ in cases])],
        env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
        timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    digests, mean, want = json.loads(done.stdout)
    assert digests == [digest for _, digest in cases]
    assert mean == want
