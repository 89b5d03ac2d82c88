"""The benchmark's tracer (perfbench/tracing.py) replaces program functions
by module and attribute name when it installs; a name that no longer
resolves stops every traced run before any workload starts, and a name the
program no longer calls reads 0 in its layer metric."""

import importlib
import importlib.util
from pathlib import Path

from graphilp import encode
from graphilp.vne_model import two_links_model, two_links_spec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    wrapped = _tracing().WRAPPED
    assert wrapped
    missing = [f"{module}.{attr}" for module, attr, _ in wrapped
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"names the tracer wraps but the program lacks: {missing}"


def test_generate_records_a_span_for_each_encoder_layer():
    _, g = two_links_model()
    spec = two_links_spec()
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tracer.timed = True
        encode.generate(spec, g)
    finally:
        tracer.uninstall()
    assert tracer.spans[0][0] == "encode.generate"
    inside = {name for name, _, _, parent in tracer.spans if parent == 0}
    assert inside == {"pattern.find_matches", "encode.to_cnf", "encode.linearize",
                      "encode.objective"}
