import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seppath.decomp import (
    PathDecomposition,
    _extract_long_path,
    decompose_into_bounded_paths,
    decompose_into_paths,
)
from seppath.graphs import Graph, Path, generate


def check_exact_cover(D, G):
    covered = []
    for p in D.paths:
        assert p.valid_in(G)
        covered.extend(p.edges())
    assert len(covered) == len(set(covered)), "edge covered twice"
    assert set(covered) == set(G.edges), "cover not exact"


def random_graph(rng, n_max=50):
    n = rng.randint(1, n_max)
    p = rng.choice([0.1, 0.3, 0.5, 0.9])
    return generate("gnp", n, p, seed=rng.randint(0, 10**9))


def test_empty_graph():
    D = decompose_into_paths(Graph(0, []))
    assert len(D) == 0
    D = decompose_into_paths(Graph(5, []))
    assert len(D) == 0


def test_k3():
    G = generate("complete", 3)
    D = decompose_into_paths(G)
    check_exact_cover(D, G)
    assert len(D) <= 3


def test_star_4():
    G = generate("star", 4)
    D = decompose_into_paths(G)
    check_exact_cover(D, G)
    assert len(D) <= 4


def test_index_total_and_consistent():
    G = generate("gnp", 30, 0.3, seed=5)
    D = decompose_into_paths(G)
    for e in G.edges:
        p = D.path_of(e)
        assert e in p.edges()


def test_bounded_k4():
    G = generate("complete", 4)
    D = decompose_into_bounded_paths(G, 2)
    check_exact_cover(D, G)
    assert len(D) <= 6 // 2 + 4
    assert all(len(p) <= 2 for p in D.paths)


def test_bounded_no_split_when_d_large():
    G = generate("gnp", 20, 0.3, seed=9)
    base = decompose_into_paths(G)
    D = decompose_into_bounded_paths(G, G.num_edges() + 1)
    assert len(D) == len(base)


def test_bounded_path10_d3():
    G = generate("path", 10)
    D = decompose_into_bounded_paths(G, 3)
    assert sorted(len(p) for p in D.paths) == [3, 3, 3]


def test_path_decomposition_rejects_bad_cover():
    G = generate("path", 3)
    with pytest.raises(ValueError, match="misses"):
        PathDecomposition([Path([0, 1])], G)  # misses edge 12
    with pytest.raises(ValueError, match="twice"):
        PathDecomposition([Path([0, 1]), Path([0, 1, 2])], G)  # covers 01 twice
    with pytest.raises(ValueError, match="not valid"):
        PathDecomposition([Path([0, 2])], G)  # 02 is not an edge
    with pytest.raises(ValueError, match="not valid"):
        PathDecomposition([Path([0, 1, 2]), Path([0, 2])], G)  # full cover plus 02
    with pytest.raises(ValueError, match="not valid"):
        # 3 is a dead vertex of the host
        PathDecomposition([Path([0, 1, 2, 3])], generate("path", 4).induced([0, 1, 2]))


def test_bound_corpus_1000():
    rng = random.Random(12345)
    for _ in range(1000):
        G = random_graph(rng)
        D = decompose_into_paths(G)
        check_exact_cover(D, G)
        assert len(D) <= len(G)


def test_bounded_bound_corpus():
    rng = random.Random(999)
    for _ in range(200):
        G = random_graph(rng, n_max=40)
        d = rng.randint(1, 8)
        D = decompose_into_bounded_paths(G, d)
        check_exact_cover(D, G)
        assert len(D) <= math.ceil(G.num_edges() / d) + len(G)
        assert all(len(p) <= d for p in D.paths)


def near_clique_graphs():
    """K_n less 0 to 2n random edges for 8 <= n <= 40, K_n for n <= 40 and
    K_{a,b} for a, b <= 11: dense inputs, where the n bound is tightest."""
    rng = random.Random(1968)
    for n in range(8, 41):
        K = sorted(generate("complete", n).edges)
        for _ in range(4):
            yield Graph(n, rng.sample(K, len(K) - rng.randint(0, 2 * n)))
    for n in range(1, 41):
        yield generate("complete", n)
    for a in range(1, 12):
        for b in range(1, 12):
            yield Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def test_near_clique_bound_corpus():
    for G in near_clique_graphs():
        D = decompose_into_paths(G)
        check_exact_cover(D, G)
        assert len(D) <= len(G)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 25), st.floats(0.05, 0.95), st.integers(0, 1000))
def test_decompose_deterministic(n, p, seed):
    G = generate("gnp", n, p, seed=seed)
    a = decompose_into_paths(G)
    b = decompose_into_paths(G)
    assert [q.vertices for q in a.paths] == [q.vertices for q in b.paths]


def decompose_by_scan(G):
    """The greedy decomposition with its start found by a scan of every
    vertex before each path, kept as a reference for the heap."""
    adj = {}
    for u, v in G.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = []
    while any(adj.values()):
        start = max(adj, key=lambda v: (len(adj[v]), -v))
        out.append(_extract_long_path(adj, start))
    return out


def relabel(G, seed):
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def bitcode_subgraphs(G):
    """The bit-set and bit-unset subgraphs that baseline_nlogn decomposes:
    every vertex stays live, so most components are isolated vertices."""
    edges = sorted(G.edges)
    for b in range(max(1, (len(edges) - 1).bit_length())):
        for want in (1, 0):
            sub = [e for i, e in enumerate(edges) if (i >> b) & 1 == want]
            yield Graph(G.n, sub, live=G.live)


def disjoint_gnp_union(seed, parts=12):
    rng = random.Random(seed)
    edges, base = [], 0
    for _ in range(parts):
        H = generate("gnp", rng.randint(1, 12), rng.choice([0.2, 0.5, 0.9]),
                     seed=rng.randint(0, 10**9))
        edges += [(base + u, base + v) for u, v in H.edges]
        base += H.n
    return Graph(base, edges)


def many_component_graphs():
    yield from bitcode_subgraphs(relabel(generate("hypercube", 7), 7))
    yield from bitcode_subgraphs(generate("grid", 12, 12))
    union = disjoint_gnp_union(5)
    yield union
    yield from bitcode_subgraphs(union)


def test_decompose_matches_scan():
    # the heap takes the start the scan rule names: most remaining edges,
    # least label on ties
    rng = random.Random(4242)
    graphs = list(many_component_graphs())
    graphs += [random_graph(rng, n_max=60) for _ in range(200)]
    for G in graphs:
        D = decompose_into_paths(G)
        assert [list(p.vertices) for p in D.paths] == decompose_by_scan(G)


def test_decompose_matches_per_component_filter():
    # a greedy path stays inside one component, so the paths of G are the
    # paths of its components taken one at a time
    count = 0
    for G in many_component_graphs():
        expected = set()
        for comp in G.components():
            expected.update(p.vertices for p in decompose_into_paths(G.induced(comp)).paths)
        assert {p.vertices for p in decompose_into_paths(G).paths} == expected
        count += len(G.components())
    assert count > 1000


def test_decompositions_pinned():
    # sparse graphs with many components and dense G(n, p); a change to
    # any decomposition shows here
    rng = random.Random(2718)
    graphs = list(many_component_graphs())
    for _ in range(80):
        n = rng.randint(2, 60)
        p = rng.choice([0.05, 0.2, 0.5, 0.8])
        graphs.append(generate("gnp", n, p, seed=rng.randint(0, 10**9)))
    h = hashlib.sha256()
    for G in graphs:
        for p in decompose_into_paths(G).paths:
            h.update(repr(p.vertices).encode())
    assert h.hexdigest() == (
        "067d67d08817941d155b3c18b55257612e08605a6c71ce351bd77b0c2baa7e1c")


def test_component_decomposition_ignores_edge_order():
    # every choice of the decomposition is a heap pop on a unique key, a max
    # on a unique key or a sort, so the order of the edge list must not
    # change its paths
    rng = random.Random(31)
    graphs = [generate("hypercube", 8), generate("grid", 20, 20)]
    graphs += [random_graph(rng, n_max=60) for _ in range(120)]
    for G in graphs:
        edges = sorted(G.edges)
        expected = [p.vertices for p in decompose_into_paths(G).paths]
        shuffled = list(edges)
        rng.shuffle(shuffled)
        for order in (shuffled, edges[::-1]):
            H = Graph(G.n, order)
            assert [p.vertices for p in decompose_into_paths(H).paths] == expected
