"""Reproducible random substreams, and the thread pool that draws them.

Every sampler in the package is a pure function of (seed, tags): the master
seed plus a tag path is folded into a numpy SeedSequence, so results are
reproducible across runs and across parallelism levels.  String tags are
crc32-hashed (builtin hash() is salted per process and would not be stable).

Work on independent substreams may run on the package's one thread pool,
one thread per CPU this process may use, and so may the contiguous slices
of one elementwise pass (a geometric survival, each atom computed alone);
results are put together in a fixed order, so they never depend on the
number of threads.  Work started from a pool thread runs on that thread
alone (``_parallelism`` is 1 there), so no task on the pool ever waits for
another.  Under glibc the pool's threads allocate from the main thread's
heap (``_one_heap``).
"""

from __future__ import annotations

import os
import threading
import zlib

import numpy as np


def _words(seed, tags):
    words = [int(seed)]
    for t in tags:
        words.append(zlib.crc32(t.encode()) if isinstance(t, str) else int(t))
    return words


def substream(seed, *tags) -> np.random.Generator:
    """Generator for the substream identified by (seed, *tags)."""
    return np.random.default_rng(np.random.SeedSequence(_words(seed, tags)))


def derive_seed(seed, *tags) -> int:
    """Stable integer sub-seed for handing down to a child task."""
    return int(np.random.SeedSequence(_words(seed, tags)).generate_state(1)[0])


_POOL = None
_POOL_LOCK = threading.Lock()
_THREAD = threading.local()  # .on_pool: set on the pool's own threads


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _mark_pool_thread():
    _THREAD.on_pool = True


def _parallelism() -> int:
    """The number of threads a call may spread its work over: 1 on a pool
    thread, whose task must not wait for another task on the pool (with
    every thread busy, that task would never start), else ``_workers()``."""
    return 1 if getattr(_THREAD, "on_pool", False) else _workers()


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _one_heap():
    """Under glibc, one malloc arena for every thread, with blocks below
    32 MiB taken from the heap and a free top above 64 MiB given back: the
    thresholds glibc's dynamic rule climbs to, fixed.  With an arena per
    thread, each pool thread's arena keeps what its tasks freed, and how
    much depends on which thread ran which task: perfbench's battery
    (transform-check, then fixed-point) peaked at 123-144 MB over ten runs
    on 2 CPUs, and at 127.5-128.3 MB with one arena.  The fixed thresholds
    spare the shared heap the trims, and the page faults after them, of
    the dynamic rule.  Elsewhere than glibc this does nothing."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc-style mallopt
        return
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _pool():
    """The package's thread pool, created on first use, after
    ``_one_heap`` so that its threads take no arena of their own."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _one_heap()
            _POOL = ThreadPoolExecutor(max_workers=_workers(),
                                       initializer=_mark_pool_thread)
        return _POOL


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_all(calls) -> list:
    """The results of ``calls``, argument-free callables, in their order.

    With more than one CPU the calls run on the pool, no more at once than
    it has threads, started in the order given (so list the longest first);
    with one, or when called from a pool thread, they run in turn on the
    calling thread.  Every call has ended before this returns or raises.  A
    call's exception is re-raised (the first in their order), and the calls
    not yet started when it was raised are not started: each pool call
    first checks an event that the first failure sets.
    """
    calls = list(calls)
    if len(calls) < 2 or _parallelism() < 2:
        return [call() for call in calls]
    from concurrent.futures import wait

    failed = threading.Event()

    def guarded(call):
        if not failed.is_set():
            try:
                return call()
            except BaseException:
                failed.set()
                raise

    futures = [_pool().submit(guarded, call) for call in calls]
    wait(futures)
    return [future.result() for future in futures]
