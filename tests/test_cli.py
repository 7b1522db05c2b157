import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from laplace_stein import cli, stein
from laplace_stein.random_sums import recompute_bound

RADC = "1.4142135623730951"
UNIC = "2.449489742783178"


def run_cli(args):
    return cli.main(args)


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def cli_subprocess(argv):
    """Run the command in a fresh interpreter that shows every warning."""
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "laplace_stein.cli", *argv],
        env=src_env(), capture_output=True, text=True)


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

    def test_mismatch_below_unit_variance_is_usage_error(self, capsys):
        # variance 1e-20 against 2 b^2 = 2e-12: the tolerance is relative
        # to the larger side, not to max(1, sigma^2)
        assert run_cli(["sweep", "--c", "1e-10", "--b", "1e-6", "--n", "200",
                        "--p", "0.1,0.01", "--format", "json"]) == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_absent_b_is_the_source_scale(self, fmt, tmp_path):
        # Laplace(2) has E[X^2] = 8: without --b the sweep runs at its
        # scale sqrt(8/2) = 2, with the bytes of --b 2
        argv = ["sweep", "--source", "laplace", "--c", "2", "--p", "0.1",
                "--n", "200", "--format", fmt]
        given, absent = tmp_path / "given", tmp_path / "absent"
        assert run_cli(argv + ["--out", str(absent)]) == 0
        assert run_cli(argv + ["--b", "2", "--out", str(given)]) == 0
        assert absent.read_bytes() == given.read_bytes()
        if fmt == "json":
            assert json.loads(absent.read_text())["b"] == 2.0

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

    def test_stein_check_at_large_b(self):
        # panels at most 1 wide keep cos's g(0) at rounding level (b/2-wide
        # panels read -9.8e-10 at b = 24 and 9.6e-3 at b = 64), and
        # QUADPACK's roundoff complaint on cos at b = 64 stays off stderr
        run = cli_subprocess(["stein-check", "--b", "4,24,64"])
        assert run.returncode == 0
        assert run.stderr == ""
        rep = json.loads(run.stdout)
        assert rep["all_pass"] is True
        assert max(abs(c["solution_at_zero"]) for c in rep["checks"]) <= 1e-13

    def test_cosine_solution_at_b_1e3(self):
        # cos is the member whose Wh takes 3735 subintervals at b = 1e3,
        # past a fixed 300 (test_quadrature pins that Wh): its solution
        # passes stein-check's residual, certificate and g(0) rules there
        b = 1e3
        sol, grid = stein.solve(stein.cos_fn(), b), stein.standard_grid(b)
        assert float(np.max(np.abs(stein.residual(sol, grid)))) <= 1e-6
        assert stein.certify_bounds(sol, grid).passed
        assert abs(sol.g(0.0)) <= 1e-13

    def test_stein_check_at_small_b(self, tmp_path):
        # quad's absolute tolerance shrinks with 2b: a fixed 1e-12 gave an
        # error estimate of 1.5e-8 over 2b at b = 1e-5, past the 1e-8 rule
        out = tmp_path / "stein.json"
        assert run_cli(["stein-check", "--b", "1e-5", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["all_pass"] is True
        assert max(abs(c["solution_at_zero"]) for c in rep["checks"]) <= 1e-15

    def test_stein_check_beyond_quadrature_is_one_line(self):
        # the tail rule needs 2.4e6 panels at b = 2e4, more than MAX_PANELS:
        # exit 3 and one line
        run = cli_subprocess(["stein-check", "--b", "2e4"])
        assert run.returncode == 3
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numeric/runtime failure: QuadratureError")

    def test_stein_check_grid_overflow_is_one_line(self):
        # 40b overflows: no numpy warning from the grid reaches stderr
        run = cli_subprocess(["stein-check", "--b", "1e308"])
        assert run.returncode == 3
        assert run.stderr.splitlines() == [
            "numeric/runtime failure: OverflowError: the grid [-40b, 40b] "
            "at b=1e+308 overflows"]

    def test_stein_check_refuses_before_any_quadrature(self, monkeypatch,
                                                       capsys):
        # solve computes Wh; a b the tail rule refuses stops the command
        # before the first solve, at whatever place it has in --b
        def never(h, b):
            raise AssertionError("solve ran")

        monkeypatch.setattr(cli, "solve", never)
        assert run_cli(["stein-check", "--b", "0.5,2e4"]) == 3
        err = capsys.readouterr().err
        assert "panels, more than 1048576" in err

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
                        "--k", "3", "--scales", "1,2",
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


class TestTransformCheckMemory:
    """transform-check's check groups run on the thread pool, each with a
    few n-float arrays."""

    N = 1 << 20

    @pytest.mark.parametrize("source,c", [("rademacher", RADC),
                                          ("uniform", UNIC), ("laplace", "1")])
    def test_peak_allocation(self, source, c, workers, capsys):
        # each group drops its sample after its last estimate and forms its
        # values in place, about 2 n-float arrays, two groups at a time;
        # holding X_L, X_P and the coupling draw across the zero-bias groups
        # reads 7 to 9
        workers(2)
        tracemalloc.start()
        try:
            assert run_cli(["transform-check", "--source", source, "--c", c,
                            "--n", str(self.N)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * self.N


class TestTransformCheckErrors:
    """An exception in a check group leaves main as on one thread: exit 3
    and no traceback, with no group still running."""

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("error", [MemoryError, OverflowError])
    def test_group_error_exits_3_after_every_group_ends(
            self, count, error, workers, monkeypatch, capsys):
        # the equilibrium group raises while a zero-bias group still runs
        workers(count)
        relation = cli.verify_zero_bias_relation
        started, ended, running = [], [], threading.Event()

        def slow_relation(*args):
            started.append(args)
            running.set()
            time.sleep(0.2)
            try:
                return relation(*args)
            finally:
                ended.append(args)

        def exhausted(*args):
            if count > 1:
                assert running.wait(30)
            raise error("sampler failed")

        monkeypatch.setattr(cli, "verify_zero_bias_relation", slow_relation)
        monkeypatch.setattr(cli, "sym_equilibrium_sample", exhausted)
        assert run_cli(["transform-check", "--n", "1000"]) == 3
        err = capsys.readouterr().err
        assert f"numeric/runtime failure: {error.__name__}" in err
        assert "Traceback" not in err
        assert len(started) >= count - 1
        assert len(ended) == len(started)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestTinySamples:
    """A verdict that no sample could fail is a usage error, not a PASS."""

    @pytest.mark.parametrize("argv", [
        ["transform-check", "--n", "1"], ["transform-check", "--n", "0"],
        ["fixed-point", "--n", "1"], ["fixed-point", "--n", "4"],
        ["fixed-point", "--n", "0"],
        ["fixed-point", "--n", "-3"],
        ["sweep", "--n", "1", "--p", "0.1,0.01"], ["sweep", "--n", "0"],
        ["sweep", "--n", "-2", "--p", "0.1"]])
    def test_usage_error_before_sampling(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Infinity" not in captured.out
        assert "--n" in captured.err

    @pytest.mark.parametrize("argv", [
        ["transform-check", "--n", "2"], ["fixed-point", "--n", "5"],
        ["transform-check", "--n", "2", "--source", "laplace"],
        ["sweep", "--n", "2", "--p", "0.1,0.01", "--format", "json"],
        ["sweep", "--n", "2", "--p", "0.1", "--format", "json"]])
    def test_smallest_sizes_write_valid_json(self, argv, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(argv + ["--out", str(out)]) in (0, 1)
        json.loads(out.read_text(), parse_constant=_reject_constant)


# each command at a tiny size, and a second valid value for every flag it
# takes besides --out
BASE_ARGV = {"stein-check": ["--b", "1"],
             "transform-check": ["--n", "200"],
             "fixed-point": ["--n", "200"],
             "sweep": ["--n", "200", "--p", "0.5"],
             "bounds": ["--p", "0.1"]}
SECOND_VALUES = [
    ("stein-check", "--b", "2"),
    ("transform-check", "--source", "uniform"),
    ("transform-check", "--c", "1"),
    ("transform-check", "--seed", "8"),
    ("transform-check", "--n", "300"),
    ("fixed-point", "--b", "2"),
    ("fixed-point", "--seed", "8"),
    ("fixed-point", "--n", "300"),
    ("sweep", "--source", "laplace"),
    ("sweep", "--c", "2"),
    ("sweep", "--b", "2"),
    ("sweep", "--p", "0.25"),
    ("sweep", "--seed", "8"),
    ("sweep", "--n", "300"),
    ("sweep", "--format", "json"),
    ("bounds", "--source", "uniform"),
    ("bounds", "--c", "1"),
    ("bounds", "--p", "0.2"),
    ("bounds", "--k", "3"),
    ("bounds", "--scales", "1,2"),
    ("bounds", "--coupling", "independent")]


def command_flags():
    """Each command's flags, besides --out and --help, as the parser gives
    them."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings
                   if o.startswith("--")} - {"--out", "--help"}
            for name, p in sub.choices.items()}


class TestFlags:
    @pytest.mark.parametrize("command", ["stein-check", "transform-check",
                                         "fixed-point", "bounds"])
    def test_format_belongs_to_sweep_alone(self, command, capsys):
        assert run_cli([command, "--format", "csv"]) == 2
        assert "--format" in capsys.readouterr().err

    def test_readme_flag_table_matches_parser(self):
        # each row of README's flag table lists exactly the flags the
        # parser gives that command, besides --out and --help
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("| command | flags |") + 2
        rows = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            _, command, flags, _ = line.split("|")
            rows[command.strip().strip("`")] = set(
                re.findall(r"`(--[a-z-]+)", flags))
        assert rows == command_flags()

    def test_flag_table_covers_every_flag(self):
        assert ({(command, flag) for command, flags in command_flags().items()
                 for flag in flags}
                == {(command, flag) for command, flag, _ in SECOND_VALUES})

    @pytest.mark.parametrize("command, flag, value", SECOND_VALUES)
    def test_every_accepted_flag_is_read(self, command, flag, value,
                                         tmp_path):
        # a second valid value moves the report or is refused: a flag the
        # command accepts and then drops would print the base bytes
        base, moved = tmp_path / "base", tmp_path / "moved"
        argv = [command, *BASE_ARGV[command]]
        assert run_cli(argv + ["--out", str(base)]) == 0
        status = run_cli(argv + [flag, value, "--out", str(moved)])
        assert status == 2 or (
            status in (0, 1) and moved.read_bytes() != base.read_bytes())

    @pytest.mark.parametrize("argv", [
        ["stein-check", "--seed", "1"], ["stein-check", "--n", "10"],
        ["bounds", "--seed", "1"], ["bounds", "--n", "10"],
        ["transform-check", "--tol", "1"], ["bounds", "--tol", "1"],
        ["stein-check", "--tol", "1e-3"], ["fixed-point", "--tol", "3"],
        ["sweep", "--tol", "0.01"]])
    def test_flags_a_command_does_not_read_are_rejected(self, argv, capsys):
        # the verdict limits are constants: no command takes --tol
        assert run_cli(argv) == 2
        assert (f"unrecognized arguments: {argv[1]}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["stein-check", "--tol", "residual=1e-3"],
        ["fixed-point", "--tol", "band_factor=3"],
        ["sweep", "--tol", "dkw_alpha=0.05"],
        ["sweep", "--tol", "dkw_alpha"],
        ["sweep", "--tol", "abc"]])
    def test_foreign_or_malformed_tolerance_is_usage_error(self, argv,
                                                           capsys):
        assert run_cli(argv) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--c", "inf"], ["bounds", "--c", "nan"],
        ["bounds", "--c", "0"], ["transform-check", "--c", "inf"],
        ["transform-check", "--c", "-1"], ["sweep", "--c", "inf"],
        ["sweep", "--c", "nan"], ["sweep", "--c", "0"],
        ["transform-check", "--c", "nan"], ["transform-check", "--c", "0"],
        ["sweep", "--b", "inf"], ["sweep", "--b", "0"],
        ["fixed-point", "--b", "-1"], ["stein-check", "--b", "0"],
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
        ["bounds", "--p", "0.5,inf"], ["bounds", "--scales", ","],
        ["transform-check", "--seed", "-1"], ["sweep", "--seed", "-1"],
        ["fixed-point", "--seed", "-1"], ["bounds", "--k", "0"],
        ["bounds", "--k", "-3"], ["bounds", "--scales", "-1"],
        ["bounds", "--scales", "1,inf"], ["bounds", "--scales", "nan"]])
    def test_non_finite_or_out_of_range_value_is_usage_error(self, argv,
                                                             capsys):
        assert run_cli(argv) == 2
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transform-check", "fixed-point",
                                         "sweep"])
    @pytest.mark.parametrize("n", ["1", "0", "-2"])
    def test_sample_size_floor_is_checked_in_argparse(self, command, n,
                                                      capsys):
        # every sampled command's --n is at least 2, refused by the parser
        # with one line naming the flag, before any handler runs
        assert run_cli([command, "--n", n]) == 2
        assert (f"argument --n: '{n}' is not in [2, inf)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--p", "abc"], ["bounds", "--scales", "x"],
        ["stein-check", "--b", "x"]])
    def test_comma_list_names_its_item_type(self, argv, capsys):
        # as a scalar flag does: "invalid float value", not "comma_list"
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: invalid float value: '{argv[2]}'" in err

    def test_any_exception_is_runtime_failure(self, monkeypatch, capsys):
        # exit 1 means a FAIL verdict, so no exception may reach it
        def broken(*args, **kwargs):
            raise RuntimeError("broken handler")

        monkeypatch.setattr(cli, "general_sum_bound", broken)
        assert run_cli(["bounds", "--p", "0.1"]) == 3
        err = capsys.readouterr().err
        assert "RuntimeError: broken handler" in err
        assert "Traceback" not in err

    def test_memory_error_is_runtime_failure(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "general_sum_bound", exhausted)
        assert run_cli(["bounds", "--p", "0.1"]) == 3
        assert "MemoryError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--c", "1e160", "--p", "0.5"],
        ["bounds", "--scales", "1e308,1e308", "--p", "0.5"],
        ["transform-check", "--c", "1e160", "--n", "10"],
        ["transform-check", "--c", "1e-300", "--n", "10"],
        ["sweep", "--c", "1e160", "--n", "10", "--p", "0.5"],
        ["stein-check", "--b", "1e300"],
        ["fixed-point", "--b", "1e300", "--n", "100"]])
    def test_overflow_or_division_by_zero_is_runtime_failure(self, argv,
                                                             capsys):
        # finite flag values whose squares or reciprocals overflow
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert "numeric/runtime failure:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, p", [
        (["sweep", "--n", "100", "--p", "1e-300"], "1e-300"),
        (["sweep", "--source", "uniform", "--c", UNIC, "--n", "100",
          "--p", "1e-20"], "1e-20")])
    def test_clipped_index_law_is_not_sampled(self, argv, p, tmp_path):
        # numpy's geometric draw saturates at 2^63 - 1: a FAIL row there
        # would be about a law that was never sampled
        out = tmp_path / "r.csv"
        run = cli_subprocess(argv + ["--out", str(out)])
        assert run.returncode == 2
        assert not out.exists()
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"p = {p}" in lines[0] and "2^53" in lines[0]

    @pytest.mark.parametrize("argv, where", [
        (["bounds", "--p", "1e-300"], "at p = 1e-300"),
        (["bounds", "--p", "1e-12"], "at p = 1e-12"),
        (["bounds", "--k", "100000000000"],
         "at fixed index 100000000000")])
    def test_truncation_beyond_memory_is_refused(self, argv, where):
        # refused before any array is built: one line naming k, where a
        # numpy size error exited 2 and a MemoryError asked for 402 TiB
        run = cli_subprocess(argv)
        assert run.returncode == 3
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numeric/runtime failure: TruncationError")
        assert "truncation k = " in lines[0] and where in lines[0]

    @pytest.mark.parametrize("argv, scale", [
        (["bounds", "--scales", "1e200"], "1e+200"),
        (["bounds", "--scales", "1,1e160", "--p", "0.1"], "1e+160"),
        (["bounds", "--scales", "1e100", "--p", "1e-300"], "1e+100")])
    def test_overflowing_scale_fails_before_any_array(self, argv, scale):
        # a moment or the total variance that is not a finite float stops
        # the command at once: one line naming the scale, no numpy warning
        run = cli_subprocess(argv)
        assert run.returncode == 3
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and "Warning" not in lines[0]
        assert lines[0].startswith("numeric/runtime failure: OverflowError")
        assert scale in lines[0]

    @pytest.mark.parametrize("argv, name", [
        (["stein-check", "--b", "1e-200"], "b^3 at b=1e-200"),
        (["bounds", "--c", "1e-170"], "variance of rademacher(1e-170)"),
        (["sweep", "--c", "1e-170", "--b", "7.07e-171", "--n", "10"],
         "variance of rademacher(1e-170)"),
        (["bounds", "--scales", "1e-170"], "sigma^2 underflows to 0 at "
         "scales 1e-170"),
        (["bounds", "--scales", "0,1e-170", "--p", "0.5"], "underflows to 0 "
         "at scales 0, 1e-170"),
        (["fixed-point", "--b", "5e-324", "--n", "20000"],
         "variance of laplace(4.94066e-324)")])
    def test_underflow_is_one_line(self, argv, name):
        # refused up front: no numpy warning, division by zero or
        # misleading usage error
        run = cli_subprocess(argv)
        assert run.returncode == 3
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "numeric/runtime failure: FloatingPointError")
        assert name in lines[0] and "underflows" in lines[0]


    def test_heavy_last_scale_grows_the_truncation(self, tmp_path):
        # 39 unit scales and one of 1e10 at p = 0.9: M's tail bound at N's
        # k = 24 would be 1e-4, so m_distribution truncates where it is 1e-10
        out = tmp_path / "bounds.json"
        assert run_cli(["bounds", "--scales", "1," * 39 + "1e10", "--p",
                        "0.9", "--out", str(out)]) == 0
        general = json.loads(out.read_text())["reports"][0]["general_sum"]
        assert general["value"] == 2.0
        assert general["components"]["gap_tail_slack"] == pytest.approx(
            2.5e-5, rel=0.01)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--scales", "0"],
        ["bounds", "--scales", "0,0", "--p", "0.5"],
        ["bounds", "--k", "1", "--scales", "0,1"]])
    def test_no_atom_with_variance_is_usage_error(self, argv):
        # no atom N reaches has a positive scale: nothing underflowed
        run = cli_subprocess(argv)
        assert run.returncode == 2
        assert run.stderr.splitlines() == [
            "error: total variance must be positive"]

    @pytest.mark.parametrize("argv, flag", [
        (["bounds", "--c", "1e103"], "--c 1e+103"),
        (["sweep", "--c", "1e200", "--b", "7.071067811865475e199"],
         "--c 1e+200"),
        (["transform-check", "--source", "rademacher", "--c", "1e200"],
         "--c 1e+200"),
        (["transform-check", "--source", "laplace", "--c", "1e77"],
         "--c 1e+77"),
        (["fixed-point", "--b", "1e150"], "--b 1e+150"),
        (["sweep", "--b", "1e200"], "--b 1e+200")])
    def test_huge_scale_is_one_line_before_sampling(self, argv, flag,
                                                    monkeypatch, capsys):
        # E|X|^3 (or, for transform-check, E[X_L^4] scaled back) overflows:
        # one line naming the flag and its value, and nothing is drawn
        def sampled(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        for name in ("convergence_sweep", "sym_equilibrium_sample",
                     "sgn_bias_sample", "verify_zero_bias_relation"):
            monkeypatch.setattr(cli, name, sampled)
        assert run_cli(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numeric/runtime failure: OverflowError: "
                                   + flag)

    def test_sample_moment_overflow_is_one_line(self, capsys):
        # the expected E[X_L^4] fits at --c 5e76, but this sample's fourth
        # moment, scaled back once it is drawn, does not
        assert run_cli(["transform-check", "--source", "laplace", "--c",
                        "5e76", "--n", "1000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "numeric/runtime failure: OverflowError: --c 5e+76 overflows a "
            "moment"]


# the degree in x of each transform-check quantity; the others are
# dimensionless
DEGREE = {"equilibrium_moment_k2": 2, "equilibrium_moment_k4": 4,
          "equilibrium_gap_bound": 1, "zero_bias_relation_square": 2}
UNIT_C = {"rademacher": math.sqrt(2.0), "uniform": math.sqrt(6.0),
          "laplace": 1.0}


def transform_checks(source, c):
    args = cli.build_parser().parse_args(
        ["transform-check", "--source", source, "--c", repr(c),
         "--n", "2000", "--seed", "7"])
    return args.handler(args)[0]["checks"]


class TestTransformCheckScale:
    """The checks run at the power of two nearest the source's Laplace
    scale: scaling --c by 2^j scales each reported number by 2^(d j), d
    its degree in x, and changes no verdict (at c = 2^-30 sqrt(2) every CF
    check failed on 1 - cf(t) cancelling)."""

    @given(source=st.sampled_from(sorted(UNIT_C)),
           j=st.integers(min_value=-100, max_value=100))
    @example(source="rademacher", j=-30)
    @example(source="uniform", j=-10)
    @example(source="laplace", j=-170)  # c = 7e-52 and 1e40: the k4 check
    @example(source="laplace", j=133)  # failed, or passed on an inf se
    @settings(max_examples=20)
    def test_verdicts_do_not_change(self, source, j):
        base = transform_checks(source, UNIT_C[source])
        scaled = transform_checks(source, math.ldexp(UNIT_C[source], j))
        assert [c["pass"] for c in scaled] == [c["pass"] for c in base]
        for got, want in zip(scaled, base):
            shift = DEGREE.get(want["check"], 0) * j
            assert got == {key: math.ldexp(v, shift)
                           if isinstance(v, float) else v
                           for key, v in want.items()}


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
        cfg.write_text("--coupling=bogus\n")
        assert run_cli(["bounds", f"@{cfg}"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["sweep", f"@{tmp_path / 'absent.cfg'}"]) == 2
        err = capsys.readouterr().err
        assert "No such file" in err and "absent.cfg" in err

    @pytest.mark.parametrize("chain", [["a.cfg"], ["a.cfg", "b.cfg"]])
    def test_self_including_file_is_usage_error(self, chain, tmp_path,
                                                capsys):
        # each file includes the next and the last the first
        for name, nxt in zip(chain, chain[1:] + chain[:1]):
            (tmp_path / name).write_text(f"@{tmp_path / nxt}\n")
        assert run_cli(["bounds", f"@{tmp_path / chain[0]}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "includes itself" in err
        assert "Traceback" not in err

    def test_config_value_lines_take_effect(self, tmp_path):
        cfg = tmp_path / "fp.cfg"
        cfg.write_text("--b=2\n--n=3000\n")
        out = tmp_path / "fp.json"
        assert run_cli(["fixed-point", f"@{cfg}", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert (rep["b"], rep["n"]) == (2.0, 3000)
        assert rep["band_factor"] == 1.5

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

    def test_environment_does_not_redirect_out(self, tmp_path,
                                               monkeypatch):
        # --out is the one output setting: a bare file name is relative to
        # the working directory, whatever the environment holds
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.setenv("LAPLACE_STEIN_OUT", str(elsewhere))
        monkeypatch.chdir(tmp_path)
        assert run_cli(["fixed-point", "--b", "1", "--n", "5000",
                        "--seed", "3", "--out", "fp.json"]) == 0
        assert (tmp_path / "fp.json").exists()
        assert not (elsewhere / "fp.json").exists()

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
        with pytest.raises(ValueError):
            cli.emit_report({}, "xml")


NUMPY_ONLY_COMMANDS = [
    ["bounds", "--p", "1e-2", "--coupling", "comonotone"],
    ["bounds", "--scales", "1,2", "--coupling", "independent", "--p", "1e-2"],
    ["bounds", "--k", "1", "--coupling", "independent"],
    ["transform-check", "--source", "rademacher", "--n", "2000"],
    ["transform-check", "--source", "uniform", "--n", "2000"],
    ["transform-check", "--source", "laplace", "--n", "2000"],
    ["fixed-point", "--n", "2000"],
]

SCIPY_PROBE = """
import contextlib, io, json, sys
from laplace_stein import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


INTEGRATING_COMMANDS = [
    ["stein-check", "--b", "1"],
    ["sweep", "--source", "rademacher", "--c", RADC, "--b", "1",
     "--p", "0.3,0.1", "--n", "2000", "--seed", "3"],
]


def scipy_probe(commands):
    run = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
        env=src_env(), capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


class TestStartup:
    def test_numpy_only_commands_load_no_scipy(self):
        # SciPy is loaded where something integrates, so the package and
        # the bounds, transform-check and fixed-point commands run on numpy
        # alone; one module-level import of scipy.integrate would add about
        # half a second to every invocation
        probe = scipy_probe(NUMPY_ONLY_COMMANDS)
        assert probe["codes"] == [0] * len(NUMPY_ONLY_COMMANDS)
        assert probe["scipy"] == []

    @pytest.mark.parametrize("argv", INTEGRATING_COMMANDS,
                             ids=lambda argv: argv[0])
    def test_integrating_commands_load_quadpack_alone(self, argv):
        # scipy.integrate's package import, with scipy.special and
        # scipy.optimize, never runs: the QUADPACK extension is loaded
        # from its file
        probe = scipy_probe([argv])
        assert probe["codes"] == [0]
        assert "scipy.integrate._quadpack" in probe["scipy"]
        assert "scipy.integrate" not in probe["scipy"]
        assert not any(m.startswith("scipy.special") for m in probe["scipy"])

    def test_missing_quadpack_entry_point_is_one_line(self):
        # a QUADPACK extension without _qagpe: exit 3, one line naming the
        # SciPy version, and no fallback to scipy.integrate
        stub = ("import sys, types\n"
                "name = 'scipy.integrate._quadpack'\n"
                "sys.modules[name] = types.ModuleType(name)\n"
                "sys.modules[name]._qagse = None\n"
                "from laplace_stein import cli\n"
                "code = cli.main(['stein-check', '--b', '1'])\n"
                "assert 'scipy.integrate' not in sys.modules\n"
                "sys.exit(code)\n")
        run = subprocess.run([sys.executable, "-W", "default", "-c", stub],
                             env=src_env(), capture_output=True, text=True)
        import scipy
        assert run.returncode == 3
        assert run.stdout == ""
        assert run.stderr.splitlines() == [
            f"numeric/runtime failure: ImportError: scipy {scipy.__version__} "
            "has no QUADPACK extension scipy.integrate._quadpack with _qagse "
            "and _qagpe"]
