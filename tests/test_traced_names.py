"""The benchmark tracer patches package functions by name; keep them there.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` in its
``PATCHES`` table with a timing wrapper.  A renamed or removed function would
otherwise show up only in the slow benchmark smoke test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patches():
    """PATCHES of the tracer, loaded by path without importing perfbench."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name,attr",
                         [(m, a) for m, a, *_ in _patches()])
def test_traced_name_is_module_level_callable(module_name, attr):
    module = importlib.import_module(f"laplace_stein.{module_name}")
    assert callable(vars(module).get(attr)), \
        f"laplace_stein.{module_name}.{attr} is not a module-level callable"
