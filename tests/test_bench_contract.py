"""The benchmark's tracer (perfbench/tracing.py) replaces program functions
by module and attribute name when it installs; a name that no longer
resolves stops every traced run before any workload starts."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_name_resolves_to_a_callable():
    wrapped = _wrapped()
    assert wrapped
    missing = [f"{module}.{attr}" for module, attr, _ in wrapped
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"names the tracer wraps but the program lacks: {missing}"
