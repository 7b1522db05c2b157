"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs with and without tracing; every metric BENCHMARK.json
names is emitted with its unit; a layer a workload bypasses reads exactly 0
there, and the layer it is chosen for reads more than 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from worker import Gate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

BYPASSED = {
    "sweep-exact": ("random_sums.sample_chunked_s", "random_sums.ns_per_draw",
                    "random_sums.index_gap_s"),
    "sweep-chunked": ("random_sums.sample_exact_s", "random_sums.index_gap_s"),
    "bounds-deep": ("metrics.d_BL_s", "metrics.d_BL_member_evals",
                    "random_sums.sample_exact_s",
                    "random_sums.sample_chunked_s", "stein.wh_cold_s"),
    "battery": ("metrics.d_BL_s", "metrics.d_BL_member_evals",
                "random_sums.index_gap_s"),
}
EXERCISED = {
    "sweep-exact": ("random_sums.sample_exact_s", "metrics.d_BL_s",
                    "metrics.d_BL_ns_per_member_sample"),
    "sweep-chunked": ("random_sums.sample_chunked_s",
                      "random_sums.ns_per_draw", "random_sums.summand_draws"),
    "bounds-deep": ("random_sums.m_distribution_s", "random_sums.index_gap_s",
                    "random_sums.m_support",
                    "random_sums.bound_peak_alloc_mb"),
    "battery": ("quadrature.tail_s", "transforms.sample_s",
                "transforms.zero_bias_relation_s", "stein.grid_points",
                "transforms.draws", "stein.wh_cold_s"),
}


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    metrics = result_of(run_bench(workload, 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    metrics = result_of(run_bench(workload, 1))["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name in BYPASSED[workload]:
        assert metrics[name]["value"] == 0, name
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    assert metrics["cli.self_s"]["value"] > 0
    assert metrics["cli.report_bytes"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_counts_each_failed_report_once():
    gate = Gate({"op": {"sha256": "0" * 64}})
    gate.check("pass 0", ["op"], 0, b'{"all_pass": true}', "")
    gate.check("pass 0", ["fixed-point"], 1, b'{"verdict": "FAIL"}', "")
    gate.check("pass 1", ["fixed-point"], 0, b'{"verdict": "PASS"}', "")
    assert gate.attempted == 3
    assert gate.failed == 3
    assert any("sha256" in f for f in gate.failures)
    assert any("exit status 1" in f for f in gate.failures)
    assert any("/verdict" in f for f in gate.failures)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    total = tracer.spans[0][2] - tracer.spans[0][1]
    inner = tracer.spans[1][2] - tracer.spans[1][1]
    times = tracer.self_times()
    assert times["inner"] == inner
    assert times["outer"] == pytest.approx(total - inner)
    assert tracer.spans[1][3] == 0
