"""Outputs pinned by SHA-256 digest. A refactor that is meant to keep the
pipeline's behaviour must keep these digests; any change to a system or a
report shows here. The three cases run the sparse-expander completion
(inside separate_all), the dense tripartition and the high-degree
completion."""

import hashlib

from seppath.cli import system_to_text
from seppath.graphs import Graph, generate
from seppath.strategies import (
    PipelineConfig,
    separate_all,
    separate_dense_expander,
    separate_high_degree,
)

CFG = PipelineConfig()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def four_hub_graph():
    # the high-degree instance of test_criterion_8_matching_audits
    edges = [(h, s) for h in range(4) for s in range(4, 14)]
    nxt = 14
    for h in range(4):
        edges += [(h, nxt + i) for i in range(180)]
        nxt += 180
    return Graph(nxt, edges)


def test_separate_all_output_pinned():
    system, report = separate_all(generate("gnp", 60, 0.5, seed=16), seed=0)
    assert digest(system_to_text(system) + report.to_csv()) == (
        "e117e9bbcf5f8682b7ae9cbaab33654d3ce179946d3c9f707d41fd6932436a70")


def test_dense_expander_output_pinned():
    st = separate_dense_expander(generate("gnp", 40, 0.5, seed=9), CFG, seed=1)
    assert digest(system_to_text(st.system)) == (
        "980ed671c7cefb2c0f49d6116cf16ab9b0f4ad840fac6aa90776ce242474f694")


def test_high_degree_output_pinned():
    hub = four_hub_graph()
    st = separate_high_degree(hub, hub.avg_degree(), CFG)
    assert digest(system_to_text(st.system)) == (
        "319682cdc5c9bc2a0587ffec13a4700e623771d3fa53eafa53c7c9db84f91710")
