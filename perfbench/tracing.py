"""Spans and counts at the package's layer boundaries, recorded from outside.

The tracer replaces a public function in the namespace of the module that
calls it (``cli.convergence_sweep``, ``random_sums.bl_lower_bound``,
``metrics.cdf``, ...) with a wrapper that records a span, and puts the
original back afterwards; nothing under ``src/`` changes.  Every span keeps
its name, start, end and parent; a layer's self time is its spans' duration
minus the time covered by their child spans.  The package runs on one
thread, so child spans never overlap and that coverage is a plain sum.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict

def _sample_path(args):
    # random_sum_sample takes the exact-aggregate path when the public
    # SourceDistribution.sum_sampler exists and the summands are i.i.d.
    summands = args[0].summands
    if len(summands.scales) == 1 and summands.base.sum_sampler is not None:
        return "random_sums.sample_exact"
    return "random_sums.sample_chunked"


def _count_draws(counts, args, result):
    spec, n = args[0], args[1]
    if _sample_path(args) == "random_sums.sample_chunked":
        # computed, not observed: n draws of the index, each with mean 1/p
        counts["random_sums.summand_draws"] += n * spec.index.mean


def _count_bl(counts, args, result):
    counts["metrics.d_BL_member_evals"] += result.family_size * args[0].n


def _count_m_support(counts, args, result):
    counts["random_sums.m_support"] += result.pmf.shape[0]


def _count_grid(counts, args, result):
    counts["stein.grid_points"] += len(args[1])


def _count_transform(counts, args, result):
    counts["transforms.draws"] += result.n


def _count_relation(counts, args, result):
    # the uniforms drawn inline next to its two transform samples
    counts["transforms.draws"] += args[2]


def _count_report(counts, args, result):
    counts["cli.report_bytes"] += len(result)


# (calling module, attribute, span name or namer, counter, trace allocations)
PATCHES = (
    ("cli", "emit_report", "cli.emit", _count_report, False),
    ("cli", "convergence_sweep", "random_sums.sweep", None, False),
    ("cli", "iid_sum_bound", "random_sums.bound", None, True),
    ("cli", "general_sum_bound", "random_sums.bound", None, True),
    ("cli", "geometric_sum_bound", "random_sums.bound", None, True),
    ("cli", "kolmogorov_empirical", "metrics.d_K", None, False),
    ("cli", "solve", "stein.solve", None, False),
    ("cli", "residual", "stein.residual", _count_grid, False),
    ("cli", "certify_bounds", "stein.certify_bounds", _count_grid, False),
    ("cli", "sgn_bias_sample", "transforms.sample", _count_transform, False),
    ("cli", "sym_equilibrium_sample", "transforms.sample", _count_transform,
     False),
    ("cli", "mc_estimate", "transforms.mc_estimate", None, False),
    ("cli", "verify_zero_bias_relation", "transforms.zero_bias_relation",
     _count_relation, False),
    ("random_sums", "random_sum_sample", _sample_path, _count_draws, False),
    ("random_sums", "kolmogorov_empirical", "metrics.d_K", None, False),
    ("random_sums", "bl_lower_bound", "metrics.d_BL", _count_bl, False),
    ("random_sums", "wasserstein_empirical", "metrics.d_W", None, False),
    ("random_sums", "m_distribution", "random_sums.m_distribution",
     _count_m_support, False),
    ("random_sums", "expected_sqrt_index_gap", "random_sums.index_gap", None,
     False),
    ("metrics", "cdf", "laplace.cdf", None, False),
    ("stein", "exp_weighted_right_tail", "quadrature.tail", None, False),
    ("stein", "laplace_expectation", "quadrature.expectation", None, False),
    ("transforms", "sym_equilibrium_sample", "transforms.sample",
     _count_transform, False),
    ("transforms", "zero_bias_sample", "transforms.sample", _count_transform,
     False),
    ("transforms", "mc_estimate", "transforms.mc_estimate", None, False),
)


class Tracer:
    """In-memory spans and counts for one traced pass at a time."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []     # [name, start, end, parent index or None]
        self.counts = Counter()
        self.peak_alloc = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, fn, name, counter, trace_alloc):
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if trace_alloc:
                tracemalloc.start()
            try:
                with self.span(label):
                    result = fn(*args, **kwargs)
            finally:
                if trace_alloc:
                    self.peak_alloc = max(self.peak_alloc,
                                          tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary in PATCHES; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, counter, trace_alloc in PATCHES:
                module = importlib.import_module(
                    f"laplace_stein.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr,
                        self._wrap(original, name, counter, trace_alloc))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict:
        """Seconds per span name, each span minus its children's spans."""
        durations = [end - start for _, start, end, _ in self.spans]
        totals = defaultdict(float)
        for (name, _, _, parent), duration in zip(self.spans, durations):
            totals[name] += duration
            if parent is not None:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)
