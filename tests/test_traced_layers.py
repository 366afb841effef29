"""The benchmark's traced layers still exist in the package.

perfbench/tracer.py reports LAYER_METRICS and perfbench/workloads.py
requires each workload to reach the layers in HEAVY; a traced run fails if
one records no call. This reads both (without changing them) and checks
that each layer name, through tracer.RENAME, is a public scorekit function
the tracer wraps or a method it patches, so a refactor that drops or renames
one fails here instead of in the traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

LAYERS = sorted({layer for layer, _ in tracer.LAYER_METRICS}
                | {layer for heavy in workloads.HEAVY.values() for layer in heavy})


def _traced_names(layer):
    """The tracer names whose spans are reported under layer."""
    return [name for name, target in tracer.RENAME.items() if target == layer] or [layer]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_is_a_traced_scorekit_callable(layer):
    for name in _traced_names(layer):
        short, *attrs = name.split(".")
        assert short in tracer.MODULES, f"{name}: module not traced"
        module = importlib.import_module(f"scorekit.{short}")
        if len(attrs) == 1:
            # what Tracer.__enter__ wraps: a public function defined there
            obj = getattr(module, attrs[0], None)
            assert inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                and not attrs[0].startswith("_"), f"{name} is not a public function"
        else:
            cls_name, meth = attrs
            assert meth in tracer.METHODS.get(short, {}).get(cls_name, ()), \
                f"{name} is not a patched method"
            assert callable(getattr(module, cls_name).__dict__.get(meth)), \
                f"{name} is not defined on its class"

