"""The verification battery script end to end, at a small sample size."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

REPORTS = {"stein_check.json", "transform_rademacher.json",
           "transform_uniform.json", "transform_laplace.json",
           "fixed_point.json", "sweep.csv", "sweep_uniform.csv",
           "bounds.json"}


def test_battery_writes_exactly_the_eight_reports(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verification.py"),
         "--n", "2000", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert {p.name for p in tmp_path.iterdir()} == REPORTS
