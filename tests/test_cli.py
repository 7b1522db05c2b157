import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from laplace_stein import cli
from laplace_stein.random_sums import recompute_bound

RADC = "1.4142135623730951"


def run_cli(args):
    return cli.main(args)


class TestSweepCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--source", "rademacher", "--c", RADC, "--b", "1",
                "--p", "0.2,0.05", "--n", "4000", "--seed", "7"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()

        rows = list(csv.reader(io.StringIO(data.decode())))
        assert rows[0] == list(cli.SWEEP_COLUMNS)
        assert len(rows) == 3
        for row in rows[1:]:
            assert row[-1] in ("PASS", "FAIL")

    def test_csv_round_trips_bit_exactly(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["sweep", "--source", "rademacher", "--c", RADC, "--b", "1",
                 "--p", "0.3", "--n", "2000", "--seed", "3",
                 "--out", str(out)])
        rows = list(csv.reader(out.read_text().splitlines()))
        numeric = [float(v) for v in rows[1][:-1]]
        reformatted = [f"{v:.17g}" for v in numeric]
        assert reformatted == rows[1][:-1]

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        # a sweep over no p value checks nothing, so it may not pass
        out = tmp_path / "empty.csv"
        assert run_cli(["sweep", "--source", "rademacher", "--c", RADC,
                        "--b", "1", "--p", "", "--n", "100", "--seed", "1",
                        "--out", str(out)]) == 2
        assert "--p" in capsys.readouterr().err
        assert not out.exists()

    def test_json_format_includes_slope_and_components(self, tmp_path):
        out = tmp_path / "s.json"
        run_cli(["sweep", "--source", "rademacher", "--c", RADC, "--b", "1",
                 "--p", "0.3,0.1", "--n", "2000", "--seed", "3",
                 "--format", "json", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["schema_version"] == "1"
        assert math.isfinite(rep["slope"])
        for point, comps in zip(rep["points"], rep["components"]):
            assert point["verdict"] in ("PASS", "FAIL")
            assert point["thm7_bound"] == recompute_bound("geometric_sum",
                                                          comps)

    def test_json_slope_is_null_below_two_points(self, tmp_path):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "s.json"
        assert run_cli(["sweep", "--source", "rademacher", "--c", RADC,
                        "--b", "1", "--p", "0.3", "--n", "1000", "--seed", "3",
                        "--format", "json", "--out", str(out)]) == 0
        rep = json.loads(out.read_text(), parse_constant=reject)
        assert rep["slope"] is None
        assert len(rep["points"]) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["0.1,0.1", "0.1,0.1,0.1"])
    def test_json_slope_is_null_on_one_repeated_p(self, grid, tmp_path):
        # a line through points at one p is no fit (numpy warns RankWarning)
        out = tmp_path / "s.json"
        assert run_cli(["sweep", "--source", "rademacher", "--c", RADC,
                        "--b", "1", "--p", grid, "--n", "1000",
                        "--seed", "3", "--format", "json",
                        "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["slope"] is None
        assert len(rep["points"]) == grid.count(",") + 1

    def test_mismatched_variance_is_usage_error(self, capsys):
        assert run_cli(["sweep", "--source", "rademacher", "--c", "2.0",
                        "--b", "1", "--p", "0.1", "--n", "100",
                        "--seed", "1"]) == 2
        assert "variance" in capsys.readouterr().err

    def test_unknown_source_is_usage_error(self, capsys):
        assert run_cli(["sweep", "--source", "cauchy", "--p", "0.1"]) == 2


class TestOtherCommands:
    def test_stein_check(self, tmp_path):
        out = tmp_path / "stein.json"
        assert run_cli(["stein-check", "--b", "1", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["all_pass"] is True
        assert rep["family_size"] == 21
        assert all(c["residual_max"] <= 1e-6 for c in rep["checks"])
        assert all(c["certificate"]["passed"] for c in rep["checks"])

    def test_fixed_point(self, tmp_path):
        out = tmp_path / "fp.json"
        assert run_cli(["fixed-point", "--b", "1", "--n", "20000",
                        "--seed", "3", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "PASS"
        assert rep["d_K"] <= rep["band"]

    def test_transform_check(self, tmp_path):
        out = tmp_path / "tc.json"
        assert run_cli(["transform-check", "--source", "uniform", "--c",
                        "2.449489742783178", "--n", "20000", "--seed", "5",
                        "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["all_pass"] is True
        names = {c["check"] for c in rep["checks"]}
        assert {"equilibrium_moment_k2", "equilibrium_cf_t1",
                "sgn_bias_symmetry", "equilibrium_gap_bound"} <= names

    def test_bounds_rederivable(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run_cli(["bounds", "--source", "rademacher", "--c", "1",
                        "--index", "fixed", "--k", "3", "--scales", "1,2",
                        "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        for entry in rep["reports"]:
            g = entry["general_sum"]
            assert recompute_bound("general_sum", g["components"]) == \
                g["value"]

    def test_bounds_geometric_includes_all_kinds(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run_cli(["bounds", "--source", "rademacher", "--c", RADC,
                        "--p", "0.1", "--out", str(out)]) == 0
        entry = json.loads(out.read_text())["reports"][0]
        assert {"geometric_sum", "iid_sum", "general_sum"} <= set(entry)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestTinySamples:
    """A verdict that no sample could fail is a usage error, not a PASS."""

    @pytest.mark.parametrize("argv", [
        ["transform-check", "--n", "1"], ["transform-check", "--n", "0"],
        ["fixed-point", "--n", "1"], ["fixed-point", "--n", "4"],
        ["fixed-point", "--n", "0"],
        ["fixed-point", "--n", "8", "--tol", "3"],
        ["sweep", "--n", "1", "--p", "0.1,0.01"], ["sweep", "--n", "0"],
        ["sweep", "--n", "2", "--tol", "0.01"]])
    def test_usage_error_before_sampling(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Infinity" not in captured.out
        assert "--n" in captured.err

    @pytest.mark.parametrize("argv", [
        ["transform-check", "--n", "2"], ["fixed-point", "--n", "5"],
        ["fixed-point", "--n", "2", "--tol", "0.5"],
        ["sweep", "--n", "2", "--p", "0.1,0.01", "--format", "json"],
        ["sweep", "--n", "3", "--p", "0.1", "--tol", "0.01",
         "--format", "json"]])
    def test_smallest_sizes_write_valid_json(self, argv, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(argv + ["--out", str(out)]) in (0, 1)
        json.loads(out.read_text(), parse_constant=_reject_constant)


class TestFlags:
    @pytest.mark.parametrize("command", ["stein-check", "transform-check",
                                         "fixed-point", "bounds"])
    def test_format_belongs_to_sweep_alone(self, command, capsys):
        assert run_cli([command, "--format", "csv"]) == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["stein-check", "--seed", "1"], ["stein-check", "--n", "10"],
        ["bounds", "--seed", "1"], ["bounds", "--n", "10"],
        ["transform-check", "--tol", "1"], ["bounds", "--tol", "1"]])
    def test_flags_a_command_does_not_read_are_rejected(self, argv):
        assert run_cli(argv) == 2

    @pytest.mark.parametrize("argv", [
        ["stein-check", "--tol", "residual=1e-3"],
        ["fixed-point", "--tol", "band_factor=3"],
        ["sweep", "--tol", "dkw_alpha=0.05"],
        ["sweep", "--tol", "dkw_alpha"],
        ["sweep", "--tol", "abc"]])
    def test_foreign_or_malformed_tolerance_is_usage_error(self, argv,
                                                           capsys):
        assert run_cli(argv) == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--c", "inf"], ["bounds", "--c", "nan"],
        ["bounds", "--c", "0"], ["transform-check", "--c", "inf"],
        ["transform-check", "--c", "-1"], ["sweep", "--c", "inf"],
        ["stein-check", "--tol", "inf"], ["stein-check", "--tol", "0"],
        ["fixed-point", "--tol", "nan"], ["fixed-point", "--tol", "-1"],
        ["sweep", "--tol", "0"], ["sweep", "--tol", "1"],
        ["sweep", "--tol", "1.5"], ["sweep", "--tol", "inf"],
        ["sweep", "--b", "nan"], ["sweep", "--b", "-1"],
        ["stein-check", "--b", "inf"], ["stein-check", "--b", "0.5,nan"],
        ["stein-check", "--b", "1,-2"], ["stein-check", "--b", ","],
        ["fixed-point", "--b", "inf"], ["fixed-point", "--b", "nan"],
        ["fixed-point", "--b", "0"],
        ["sweep", "--p", ","], ["sweep", "--p", "0"], ["sweep", "--p", "1"],
        ["sweep", "--p", "nan"], ["sweep", "--p", "-0.1"],
        ["sweep", "--p", "0.1,1"], ["bounds", "--p", ","],
        ["bounds", "--p", "0"], ["bounds", "--p", "1"],
        ["bounds", "--p", "nan"], ["bounds", "--p", "-0.1"],
        ["bounds", "--p", "0.5,inf"]])
    def test_non_finite_or_out_of_range_value_is_usage_error(self, argv,
                                                             capsys):
        assert run_cli(argv) == 2
        assert argv[1] in capsys.readouterr().err

    def test_tolerance_flag_takes_effect(self, tmp_path):
        out = tmp_path / "fp.json"
        assert run_cli(["fixed-point", "--n", "2000", "--seed", "3",
                        "--tol", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["band_factor"] == 3.0

    def test_memory_error_is_runtime_failure(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "general_sum_bound", exhausted)
        assert run_cli(["bounds", "--p", "0.1"]) == 3
        assert "MemoryError" in capsys.readouterr().err


class TestConfigResolution:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("--source=rademacher\n"
                       f"--c={RADC}\n--b=1\n--p=0.4\n--n=500\n--seed=11\n")
        out = tmp_path / "r.json"
        assert run_cli(["sweep", f"@{cfg}", "--n", "700",
                        "--format", "json", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["n"] == 700  # flag wins
        assert rep["seed"] == 11  # file value survives
        assert [pt["p"] for pt in rep["points"]] == [0.4]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("--banana=1\n")
        assert run_cli(["sweep", f"@{cfg}"]) == 2
        assert "--banana" in capsys.readouterr().err

    def test_config_values_are_validated(self, tmp_path, capsys):
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text("--index=bogus\n")
        assert run_cli(["bounds", f"@{cfg}"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["sweep", f"@{tmp_path / 'absent.cfg'}"]) == 2
        err = capsys.readouterr().err
        assert "No such file" in err and "absent.cfg" in err

    def test_config_tolerance_line_takes_effect(self, tmp_path):
        cfg = tmp_path / "stein.cfg"
        cfg.write_text("--b=1\n--tol=1e-3\n")
        out = tmp_path / "stein.json"
        assert run_cli(["stein-check", f"@{cfg}", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["residual_tolerance"] == 1e-3
        assert rep["b_grid"] == [1.0]

    @pytest.mark.parametrize("command,line", [
        ("sweep", "p_grid=0.1"), ("sweep", "fmt=json"),
        ("stein-check", "b_grid=1"), ("stein-check", "format=json"),
        ("stein-check", "seed=1")])
    def test_config_keys_are_the_command_flags(self, tmp_path, command,
                                               line, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"--{line}\n")
        assert run_cli([command, f"@{cfg}"]) == 2
        assert f"unrecognized arguments: --{line}" in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
        assert run_cli(["fixed-point", "--b", "1", "--n", "5000",
                        "--seed", "3", "--out", "fp.json"]) == 0
        assert (tmp_path / "fp.json").exists()

    def test_unwritable_out_is_runtime_failure(self, capsys):
        assert run_cli(["fixed-point", "--b", "1", "--n", "2000",
                        "--seed", "3", "--out",
                        "/nonexistent-dir/report.json"]) == 3


class TestEmitReport:
    def test_json_bytes_deterministic(self):
        payload = {"b": 1.0, "a": [1, 2], "c": {"z": 0.1, "y": "s"}}
        assert cli.emit_report(payload, "json") == cli.emit_report(payload,
                                                                   "json")
        assert cli.emit_report(payload, "json").startswith(b"{")

    def test_csv_quoting(self):
        data = {"columns": ["a", "b"], "rows": [[1.5, 'va,l"ue']]}
        text = cli.emit_report(data, "csv").decode()
        assert text.splitlines()[1] == '1.5,"va,l""ue"'

    def test_unknown_format(self):
        with pytest.raises(cli.UsageError):
            cli.emit_report({}, "xml")


BOUNDS_WITHOUT_SCIPY = [
    ["bounds", "--p", "1e-2", "--coupling", "comonotone"],
    ["bounds", "--scales", "1,2", "--coupling", "independent", "--p", "1e-2"],
    ["bounds", "--index", "fixed", "--k", "1", "--coupling", "independent"],
]

SCIPY_PROBE = """
import contextlib, io, json, sys
from laplace_stein import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


class TestStartup:
    def test_bounds_loads_no_scipy(self):
        # SciPy is imported where something integrates, so the package and
        # the bounds command run on numpy alone; one module-level SciPy
        # import would add about a second to every invocation
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE,
             json.dumps(BOUNDS_WITHOUT_SCIPY)],
            env=env, capture_output=True, text=True, check=True)
        probe = json.loads(run.stdout)
        assert probe["codes"] == [0] * len(BOUNDS_WITHOUT_SCIPY)
        assert probe["scipy"] == []
