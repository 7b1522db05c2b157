import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import pytest

from laplace_stein import seeding

# On two threads, each of two outer calls starts pool work of its own: three
# inner calls through run_all, or a chunked draw that makes two parts on the
# calling thread.  Were that work waited for on the pool, both threads would
# wait for ever; run from a pool thread, it runs on that thread, with the
# bits it has on the calling thread.
NESTED_CHILD = """
import numpy as np
from laplace_stein import random_sums, seeding, transforms as tr

seeding._workers = lambda: 2
random_sums._DRAW_BLOCK = 64


def inner(k):
    return seeding.run_all([lambda j=j: (k, j) for j in range(3)])


assert seeding.run_all([lambda k=k: inner(k) for k in range(2)]) == [
    [(k, j) for j in range(3)] for k in range(2)]

sampler = tr.uniform_symmetric(1.0).sampler
counts = np.random.default_rng(5).geometric(0.05, 400)


def sums(seed):
    rng = np.random.default_rng(seed)
    return random_sums._chunked_sums(rng, sampler, counts).tobytes()


want = [sums(seed) for seed in range(2)]
assert seeding.run_all([lambda s=s: sums(s) for s in range(2)]) == want
"""


# Eight blocks of 8 MB allocated on two pool threads, then glibc's
# per-arena statistics on stderr
ARENA_CHILD = """
import ctypes
import numpy as np
from laplace_stein import seeding

seeding._workers = lambda: 2
blocks = [seeding._pool().submit(np.ones, 1 << 20) for _ in range(8)]
assert all(block.result().sum() == 1 << 20 for block in blocks)
ctypes.CDLL(None).malloc_stats()
"""


def _child(code):
    src = str(Path(seeding.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=60)


def test_parallelism_is_one_on_a_pool_thread(workers):
    workers(2)
    assert seeding._parallelism() == 2
    assert seeding.run_all([seeding._parallelism] * 2) == [1, 1]


def test_pool_work_started_on_the_pool_returns():
    # in a child process, so that a deadlock ends in a timeout, not a hang
    done = _child(NESTED_CHILD)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="malloc arenas are glibc's")
def test_pool_threads_allocate_from_the_main_arena():
    # in a fresh process, whose only threads besides the main one are the
    # pool's: one arena, where a thread of its own would have added one
    done = _child(ARENA_CHILD)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr.decode().count("Arena ") == 1


def test_calls_queued_behind_a_failure_are_not_started(workers):
    # the second call raises once all four are queued, and its thread takes
    # the next queued call at once; that call, and the one after it, must
    # not run
    workers(2)
    ran = []

    def slow():
        time.sleep(0.3)

    def raises():
        time.sleep(0.05)
        raise RuntimeError("the second call fails")

    with pytest.raises(RuntimeError, match="second call"):
        seeding.run_all([slow, raises, lambda: ran.append(2),
                         lambda: ran.append(3)])
    assert ran == []
