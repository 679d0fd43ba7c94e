"""Outputs pinned by SHA-256 digest. A refactor that is meant to keep the
pipeline's behaviour must keep these digests; any change to a system or a
report shows here. The first six cases run the sparse-expander completion
(inside separate_all), the dense tripartition, the high-degree completion,
the dense stage reached through separate_all, a sparse graph whose
bit-code baseline its lower bound rules out, and the sparse expander on
its own where the spread limit binds and every completion falls back. The
last two pin the two searches the pipeline builds on: expander_decompose
under the pipeline's three ExpanderParams, and complete_to_path on seeded
cores of several paths."""

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
        "3789b0b418f061a5dc9291049ad10b40d73b6f65af4ac46b0ef1a263690cf16f")
    assert digest(report.to_csv()) == (
        "ffe9155ee7e696fb11915e40c331b594be0494489c8b7339648f0ec0da800c0b")


def test_dense_expander_output_pinned():
    st = separate_dense_expander(generate("gnp", 40, 0.5, seed=9), seed=1)
    assert digest(system_to_text(st.system)) == (
        "6938820beda72a950a970ddb4f66679b9a2d865a50d655904e0eb3ab04b16438")


def test_high_degree_output_pinned():
    hub = four_hub_graph()
    st = separate_high_degree(hub, hub.avg_degree())
    assert digest(system_to_text(st.system)) == (
        "54e4a0839b96eb53b4282095aad67d72b12fb2f13e5e69cca3b74572d737641d")


def test_separate_all_dense_stage_pinned():
    # two levels whose small sparse parts go on to the dense tripartition;
    # the report's pipeline row reacts to the degree floor, the small-part
    # threshold and the sparse edge budget
    system, report = separate_all(three_block_graph(1001), seed=1001)
    assert digest(system_to_text(system)) == (
        "2e8c1b8d268a746430d5dc8ac64556dd0b3b4b8519d60668514f36710e77d819")
    assert digest(report.to_csv()) == (
        "922934698068a1658305cb24154049ad8358de946f35aa0de0a7e215be82d822")


def test_separate_all_sparse_bitcode_pinned():
    # a relabelled hypercube(8) lies below the degree floor, so the pipeline
    # is the singleton tail; the bit code's lower bound, 1122, exceeds
    # e(G) = 1024, so the bit code is not built and the report gives the
    # bound in its row
    system, report = separate_all(relabel(generate("hypercube", 8), 8), seed=8)
    assert digest(system_to_text(system) + report.to_csv()) == (
        "9c7f5504b17df3790a98a0e064aed0667882995c0d8b4d289bd5f1be3c16fb41")


def test_sparse_expander_fallback_pinned():
    # on a 60-cycle with d = 4 the spread matchings hold 3 and 4 edges, so
    # the limit d binds, and all 16 completions fail: every edge falls back
    # to a singleton
    st = separate_sparse_expander(generate("cycle", 60), 4)
    assert st.fallback_count == 60
    assert digest(system_to_text(st.system)) == (
        "ba8a39fd2978a2e5dacd6198e3720c62bd48340e52fd5f1c57d358a511ead824")


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
