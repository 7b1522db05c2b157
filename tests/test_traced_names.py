"""The benchmark tracer patches package functions by name; keep them there.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` in its
``PATCHES`` table with a timing wrapper, and its counters read attributes of
the results (``family_size``, ``n``, ``pmf``).  A renamed or removed function
or field would otherwise show up only in the slow benchmark smoke test, and
so would a sampling-path rule of the tracer's that drifts from the package's.
The workloads' set-up warmers call the public surface by name too
(``EmpiricalSample.from_values``, ``LaplaceParams(0.0, b)``,
``bl_lower_bound``, ``dense_bl_family``, ``stein_family``, ``solve`` and the
sources' ``b_equiv``), so each one runs here as well.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import laplace_stein
from laplace_stein import cli, random_sums, transforms
from laplace_stein.random_sums import GeometricIndex, RandomSumSpec, Summands

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RADC = "1.4142135623730951"
UNIC = "2.449489742783178"

# tiny versions of every benchmark workload's commands
TINY_OPS = {
    "sweep-exact": [["sweep", "--source", "rademacher", "--c", RADC,
                     "--b", "1", "--p", "0.1,0.01", "--n", "200"]],
    "sweep-chunked": [["sweep", "--source", "uniform", "--c", UNIC,
                       "--b", "1", "--p", "0.1,0.01", "--n", "200"]],
    "bounds-deep": [["bounds", "--source", "rademacher", "--c", RADC,
                     "--coupling", "comonotone", "--p", "1e-2"],
                    ["bounds", "--source", "rademacher", "--c", RADC,
                     "--scales", "1,2", "--coupling", "independent",
                     "--p", "1e-2"]],
    "battery": [["stein-check", "--b", "1"]]
    + [["transform-check", "--source", source, "--c", c, "--n", "2000"]
       for source, c in (("rademacher", RADC), ("uniform", UNIC),
                         ("laplace", "1"))]
    + [["fixed-point", "--b", "1", "--n", "2000"]],
}


def _tracing():
    """The tracer module, loaded by path without importing perfbench."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads(monkeypatch):
    """The workload table, loaded by path; registered in ``sys.modules``
    first, where its dataclass looks its module up."""
    name = "_perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _reference_counts():
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    return {name: entry["counts"] for name, entry in reference.items()}


@pytest.mark.parametrize("module_name,attr",
                         [(m, a) for m, a, *_ in _tracing().PATCHES])
def test_traced_name_is_module_level_callable(module_name, attr):
    module = importlib.import_module(f"laplace_stein.{module_name}")
    assert callable(vars(module).get(attr)), \
        f"laplace_stein.{module_name}.{attr} is not a module-level callable"


@pytest.mark.parametrize("workload", sorted(_reference_counts()))
def test_counters_read_fields_that_exist(workload, capsys):
    tracer = _tracing().Tracer()
    with tracer.installed():
        for argv in TINY_OPS[workload]:
            assert cli.main(argv) == 0, argv
    capsys.readouterr()
    for counter, value in _reference_counts()[workload].items():
        if value:
            assert tracer.counts[counter] > 0, counter


@pytest.mark.parametrize("source", transforms.builtin_sources(1.0),
                         ids=lambda source: source.label)
def test_sample_path_names_the_sampler_that_ran(source, monkeypatch):
    ran = []
    chunked = random_sums._chunked_sums
    monkeypatch.setattr(random_sums, "_chunked_sums",
                        lambda *args: ran.append(args) or chunked(*args))
    args = (RandomSumSpec(GeometricIndex(0.1), Summands(source)), 50, 7)
    random_sums.random_sum_sample(*args)
    path = _tracing()._sample_path(args)
    assert (path == "random_sums.sample_chunked") == bool(ran), path


@pytest.mark.parametrize("workload", sorted(_reference_counts()))
def test_set_up_warmer_runs(workload, monkeypatch):
    warm = _workloads(monkeypatch).WORKLOADS[workload].warm
    if warm is not None:
        warm(laplace_stein, True)
