"""Outputs pinned by SHA-256 digest. A refactor that is meant to keep the
pipeline's behaviour must keep these digests; any change to a system or a
report shows here. The first six cases run the sparse-expander completion
(inside separate_all), the dense tripartition, the high-degree completion,
the dense stage reached through separate_all, a sparse graph whose
bit-code baseline decomposes subgraphs of many components, and the sparse
expander on its own where the spread limit binds and every completion
falls back. The last two pin the two searches the pipeline builds on:
expander_decompose under the pipeline's three ExpanderParams, and
complete_to_path on seeded cores of several paths."""

import hashlib
import random

from seppath.cli import system_to_text
from seppath.connector import CompletionProblem, complete_to_path
from seppath.expander import ExpanderParams, expander_decompose
from seppath.graphs import Graph, Path, generate
from seppath.strategies import (
    EPSILON,
    S_DENSE,
    S_SPARSE,
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


def pipeline_params(G):
    """The three ExpanderParams of the pipeline's splits: zero budget (the
    component split of reduce_small_deg), the sparse split at t = d, and the
    dense split at t = 2n/3."""
    n = len(G)
    return (ExpanderParams(EPSILON, s=0.0, t=1.0),
            ExpanderParams(EPSILON, s=S_SPARSE, t=max(1.0, G.avg_degree())),
            ExpanderParams(EPSILON, s=S_DENSE, t=max(1.0, 2 * n / 3)))


def decomposition_text(G, p):
    """Each part's live set and edges, then the uncovered edges."""
    try:
        D = expander_decompose(G, p)
    except AssertionError as exc:
        return "error %s" % exc
    return "%r %r" % ([(sorted(H.live), sorted(H.edges)) for H in D.parts],
                      sorted(D.uncovered))


def _random_core(G, rng):
    """Vertex-disjoint paths of 1 to 3 edges, grown by random walks."""
    used = set()
    core = []
    for _ in range(rng.randint(2, 6)):
        free = [v for v in G.vertices() if v not in used and G.degree(v)]
        if not free:
            break
        walk = [rng.choice(free)]
        used.add(walk[0])
        for _ in range(rng.randint(1, 3)):
            nxt = [w for w in G.neighbors(walk[-1]) if w not in used]
            if not nxt:
                break
            walk.append(rng.choice(nxt))
            used.add(walk[-1])
        if len(walk) > 1:
            core.append(Path(walk))
        else:
            used.discard(walk[0])
    return core


def completion_problems(count=1000):
    """Seeded complete_to_path problems whose cores hold two or more paths,
    in G(n, p), grids, hypercubes and cycles; every other one forbids a
    random share of the edges and vertices outside its core."""
    for i in range(count):
        rng = random.Random("completion:%d" % i)
        family = ("gnp", "grid", "hypercube", "cycle")[i % 4]
        if family == "gnp":
            G = generate("gnp", rng.randint(6, 40), rng.choice((0.1, 0.2, 0.4)), seed=i)
        elif family == "grid":
            G = generate("grid", rng.randint(2, 7), rng.randint(3, 8))
        elif family == "hypercube":
            G = generate("hypercube", rng.randint(2, 5))
        else:
            G = generate("cycle", rng.randint(5, 40))
        core = _random_core(G, rng)
        if len(core) < 2:
            continue
        fe, fv = (), ()
        if i % 2:
            core_vs = {v for p in core for v in p.vertices}
            core_es = {e for p in core for e in p.edges()}
            share = rng.choice((0.1, 0.25))
            fe = [e for e in sorted(G.edges) if e not in core_es and rng.random() < share]
            fv = [v for v in G.vertices() if v not in core_vs and rng.random() < share / 2]
        yield "%d/%s" % (i, family), CompletionProblem(G, core, fe, fv)


def completion_text(prob):
    p = complete_to_path(prob)
    return "None" if p is None else " ".join(map(str, p.vertices))


def test_separate_all_output_pinned():
    # the selected system and the report are pinned apart, so a change to
    # the pipeline candidate alone shows in the report digest only
    system, report = separate_all(generate("gnp", 60, 0.5, seed=16), seed=0)
    assert digest(system_to_text(system)) == (
        "304900976d221a465e335a99b6489b8d6c4c40af4951aa6795cd5f700448a0f2")
    assert digest(report.to_csv()) == (
        "64da079dee8f6dd95f3cdd1c4fdfac918c9095ffacf230f227871ab601702a4a")


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
    assert digest(system_to_text(system)) == (
        "8c67227d89f9a126588b9e87d37b43f404758888da5ca7dc19233ba363bf6e13")
    assert digest(report.to_csv()) == (
        "3b0a52c301de248f8af485f8a26eef08872965a386b1c3e58aa6f2ce58e26681")


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


def test_expander_decompose_pinned():
    # 30 seeded G(n, p) with n <= 45 and the three-block graph, each under
    # the pipeline's three ExpanderParams
    graphs = []
    for i in range(30):
        rng = random.Random("expander-pin:%d" % i)
        graphs.append(generate("gnp", rng.randint(4, 45),
                               rng.choice((0.1, 0.2, 0.35, 0.5, 0.8)), seed=i))
    graphs.append(three_block_graph(1001))
    text = "\n".join(decomposition_text(G, p) for G in graphs
                     for p in pipeline_params(G))
    assert digest(text) == (
        "17d305ad3841e6454a0bf860f8546e8c87f7c9afc101f4797ce5e0c566a01bc6")


def test_complete_to_path_pinned():
    outs = [name + " " + completion_text(prob) for name, prob in completion_problems()]
    assert len(outs) > 900
    assert digest("\n".join(outs)) == (
        "0324c89670624abd2d333d1a720731bd43fc52d233a969eb21f3ebefc04ff931")
