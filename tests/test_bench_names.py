"""Every ``<layer>.<fn>.calls`` metric of BENCHMARK.json names a public
function of ``vortex_uca.<layer>``.

The benchmark's tracer wraps the public functions it finds at the module
bindings, so renaming or deleting one of these silently drops its metric.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CALL_METRICS = [
    metric["name"].removesuffix(".calls")
    for metric in json.loads(SPEC.read_text())["per_layer"]
    if metric["name"].endswith(".calls")
]


def test_spec_names_call_metrics():
    assert len(CALL_METRICS) >= 10


@pytest.mark.parametrize("name", CALL_METRICS)
def test_call_metric_names_a_public_function(name):
    layer, *path = name.split(".")
    module = importlib.import_module(f"vortex_uca.{layer}")
    target = module
    for part in path:
        assert not part.startswith("_"), f"{name}: {part} is private"
        target = getattr(target, part, None)
        assert target is not None, f"{name}: vortex_uca.{layer} has no {part}"
    # A cached function (functools.lru_cache) counts: it is what the tracer wraps.
    assert callable(target) and not inspect.isclass(target), f"{name} is not a function"
    assert target.__module__ == module.__name__, f"{name} is defined in {target.__module__}"
