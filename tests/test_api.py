"""Each function perfbench traces has one name in compsim: its module's.

perfbench's tracer (perfbench/spans.py) replaces a module attribute, so it
sees no call made through another binding of the same function.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import compsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trace_targets() -> list:
    """``TRACE_TARGETS`` of perfbench/workloads.py, which imports its
    neighbours ``checks`` and ``spans`` by their bare names, and whose
    dataclasses need it in ``sys.modules`` while it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return workloads.TRACE_TARGETS


def test_every_traced_function_has_one_name():
    modules = [compsim] + [importlib.import_module(f"compsim.{info.name}")
                           for info in pkgutil.iter_modules(compsim.__path__)]
    for module, attr, _ in _trace_targets():
        function = getattr(module, attr)
        assert callable(function), f"{module.__name__}.{attr}"
        others = [(other.__name__, name) for other in modules
                  for name, value in vars(other).items()
                  if value is function and (other, name) != (module, attr)]
        assert not others, f"{module.__name__}.{attr} is also bound as {others}"
