"""The benchmark's tracer (perfbench/layers.py) wraps package functions by
name where their callers look them up. A rename in the package would make it
fail at install time, so every name it lists must resolve; a signature change
would break a counter hook, so one traced run must yield every metric."""

import importlib.util
import pathlib
import time

import seppath.strategies
from seppath.graphs import generate

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


def test_traced_run_yields_every_metric():
    layers = load_layers()
    G = generate("gnp", 40, 0.5, seed=0)
    tracer = layers.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        seppath.strategies.separate_all(G, seed=0)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1, wall, 0.0)
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    assert metrics["strategies.levels"] >= 1
    assert metrics["connector.complete_calls"] >= 1
