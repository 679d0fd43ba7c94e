"""The benchmark's tracer (perfbench/layers.py) wraps package functions by
name where their callers look them up. A rename in the package would make it
fail at install time, so every name it lists must resolve."""

import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_layers()._targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    assert not missing
