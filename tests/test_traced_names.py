"""The benchmark's span tracer (bench/tracer.py) patches injop functions and
methods by name; every name it lists must exist, or each traced run fails."""

import importlib
import importlib.util
import os

import pytest

_TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)  # loads the lists only; nothing is patched


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in tracer.FUNCTIONS.items() for name in names
])
def test_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"injop.{layer}"), name, None))


@pytest.mark.parametrize("layer, cls_name, meth", sorted(tracer.METHODS))
def test_traced_method_is_defined_on_its_class(layer, cls_name, meth):
    # install() reads the class's own __dict__, so an inherited method fails.
    cls = getattr(importlib.import_module(f"injop.{layer}"), cls_name)
    assert callable(vars(cls).get(meth))
