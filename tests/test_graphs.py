from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seppath.graphs import (
    Graph,
    ball,
    generate,
    graph_from_edge_list,
    neighborhood,
    serialize_edge_list,
)


def bfs_ball_oracle(G, X, i):
    # independent layered BFS
    dist = {v: 0 for v in X}
    queue = deque(X)
    while queue:
        v = queue.popleft()
        if dist[v] == i:
            continue
        for w in G.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return set(dist)


def small_graphs():
    edge_lists = st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=20,
        ).map(lambda es: Graph(n, es))
    )
    return edge_lists


def test_edge_list_roundtrip_examples():
    G = graph_from_edge_list("0 1\n1 2")
    assert G.n == 3 and G.edges == {(0, 1), (1, 2)}
    G = graph_from_edge_list("1 0\n0 1")
    assert G.n == 2 and G.edges == {(0, 1)}
    with pytest.raises(ValueError, match="line 1"):
        graph_from_edge_list("0 0")


def test_edge_list_header_override():
    G = graph_from_edge_list("# n=5\n0 1")
    assert G.n == 5 and len(G) == 5


@given(small_graphs())
def test_serialize_parse_identity(G):
    assert graph_from_edge_list(serialize_edge_list(G)) == G


def test_neighborhood_examples():
    P3 = generate("path", 3)
    assert neighborhood(P3, {1}) == {0, 2}
    K3 = generate("complete", 3)
    assert neighborhood(K3, {0, 1}) == {2}
    P4 = generate("path", 4)
    assert neighborhood(P4, {0, 3}) == {1, 2}


def test_ball_examples():
    P4 = generate("path", 4)
    assert ball(P4, {0}, 0) == {0}
    assert ball(P4, {0}, 2) == {0, 1, 2}
    Q3 = generate("hypercube", 3)
    assert ball(Q3, {0}, 1) == {0, 1, 2, 4}
    assert ball(Q3, {0}, 1) == bfs_ball_oracle(Q3, {0}, 1)


@given(small_graphs(), st.integers(0, 4))
def test_ball_matches_bfs_oracle_and_is_monotone(G, i):
    X = {min(G.live)} if G.live else set()
    assert ball(G, X, i) == bfs_ball_oracle(G, X, i)
    assert ball(G, X, i) <= ball(G, X, i + 1)
    assert ball(G, X, 0) == X


@given(small_graphs())
def test_neighborhood_disjoint_from_x(G):
    X = set(list(G.live)[: len(G.live) // 2])
    N = neighborhood(G, X)
    assert N.isdisjoint(X)
    assert ball(G, X, 1) == X | N


def test_without_examples():
    K3 = generate("complete", 3)
    H = K3.without(vertices={0})
    assert H.edges == {(1, 2)} and len(H) == 2 and H.n == 3
    H = K3.without(edges={(1, 0)})
    assert H.edges == {(0, 2), (1, 2)}
    assert K3.without() == K3


def test_generators_small():
    assert generate("complete", 3).edges == {(0, 1), (0, 2), (1, 2)}
    assert generate("path", 4).edges == {(0, 1), (1, 2), (2, 3)}
    assert generate("star", 4).edges == {(0, 1), (0, 2), (0, 3)}
    assert generate("cycle", 4).num_edges() == 4
    grid = generate("grid", 2, 3)
    assert grid.n == 6 and grid.num_edges() == 7
    q3 = generate("hypercube", 3)
    assert q3.n == 8 and q3.num_edges() == 12
    assert all(q3.degree(v) == 3 for v in range(8))


def test_gnp_deterministic():
    a = generate("gnp", 50, 0.5, seed=7)
    b = generate("gnp", 50, 0.5, seed=7)
    assert a == b
    c = generate("gnp", 50, 0.5, seed=8)
    assert a != c  # overwhelmingly likely for a good generator
    assert generate("gnp", 30, 0.0).num_edges() == 0
    assert generate("gnp", 10, 1.0).num_edges() == 45


def test_random_regular():
    G = generate("random_regular", 20, 4, seed=3)
    assert all(G.degree(v) == 4 for v in range(20))
    assert G == generate("random_regular", 20, 4, seed=3)
    with pytest.raises(ValueError):
        generate("random_regular", 5, 3)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


@settings(max_examples=30)
@given(small_graphs())
def test_components_partition_live_vertices(G):
    comps = G.components()
    flat = [v for c in comps for v in c]
    assert sorted(flat) == G.vertices()
    assert len(set(flat)) == len(flat)
