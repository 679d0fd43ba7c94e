"""Outputs pinned by SHA-256 digest. A refactor that is meant to keep the
pipeline's behaviour must keep these digests; any change to a system or a
report shows here. The six cases run the sparse-expander completion
(inside separate_all), the dense tripartition, the high-degree completion,
the dense stage reached through separate_all, a sparse graph whose
bit-code baseline decomposes subgraphs of many components, and the sparse
expander on its own where the spread limit binds and every completion
falls back."""

import hashlib
import random

from seppath.cli import system_to_text
from seppath.graphs import Graph, generate
from seppath.strategies import (
    separate_all,
    separate_dense_expander,
    separate_high_degree,
    separate_sparse_expander,
)
from test_decomp import relabel


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


def three_block_graph(seed):
    # three near-cliques of 30 vertices at p = 0.95, joined by 27 random
    # inter-block edges
    rng = random.Random("clustered:%d" % seed)
    n, size = 90, 30
    edges = set()
    for base in range(0, n, size):
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.95:
                    edges.add((base + i, base + j))
    inter = 0
    while inter < 27:
        u, v = rng.randrange(n), rng.randrange(n)
        if u // size == v // size:
            continue
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            inter += 1
    return Graph(n, edges)


def test_separate_all_output_pinned():
    system, report = separate_all(generate("gnp", 60, 0.5, seed=16), seed=0)
    assert digest(system_to_text(system) + report.to_csv()) == (
        "e117e9bbcf5f8682b7ae9cbaab33654d3ce179946d3c9f707d41fd6932436a70")


def test_dense_expander_output_pinned():
    st = separate_dense_expander(generate("gnp", 40, 0.5, seed=9), seed=1)
    assert digest(system_to_text(st.system)) == (
        "980ed671c7cefb2c0f49d6116cf16ab9b0f4ad840fac6aa90776ce242474f694")


def test_high_degree_output_pinned():
    hub = four_hub_graph()
    st = separate_high_degree(hub, hub.avg_degree())
    assert digest(system_to_text(st.system)) == (
        "319682cdc5c9bc2a0587ffec13a4700e623771d3fa53eafa53c7c9db84f91710")


def test_separate_all_dense_stage_pinned():
    # two levels whose small sparse parts go on to the dense tripartition;
    # the report's pipeline row reacts to the degree floor, the small-part
    # threshold and the sparse edge budget
    system, report = separate_all(three_block_graph(1001), seed=1001)
    assert digest(system_to_text(system) + report.to_csv()) == (
        "f0c713d06a19835055dfe388cbb247b00e5fe7748f0d560f2be9ce91136b8570")


def test_separate_all_sparse_bitcode_pinned():
    # a relabelled hypercube(8) lies below the degree floor, so the bit-code
    # baseline decomposes 16 subgraphs with every vertex live
    system, report = separate_all(relabel(generate("hypercube", 8), 8), seed=8)
    assert digest(system_to_text(system) + report.to_csv()) == (
        "b59be3bbcfd8e1577d1ba2608927f282364c91629758931a0884620a96252916")


def test_sparse_expander_fallback_pinned():
    # on a 60-cycle with d = 4 the spread matchings hold 3 and 4 edges, so
    # the limit d binds, and all 16 completions fail: every edge falls back
    # to a singleton
    st = separate_sparse_expander(generate("cycle", 60), 4)
    assert st.fallback_count == 60
    assert digest(system_to_text(st.system)) == (
        "b2d16828f80a0ddc09b497c909f40965513ac1474af1469fa68469c6882d0bbf")
