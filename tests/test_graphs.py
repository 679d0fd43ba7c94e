import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seppath.graphs import (
    Graph,
    Path,
    _gnp_edges,
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


def test_parsed_edge_lists_equal_checked_graphs():
    # the parser checks each line itself and builds a view; it must give
    # the graph that __init__ builds from the same edges, isolated
    # vertices included
    rng = random.Random(21)
    for trial in range(200):
        n = rng.randint(2, 30)
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v))
            if rng.random() < 0.2:
                edges.append((v, u))
        lines = ["%d %d" % e for e in edges]
        for filler in ("", "   ", "# a comment", "#n is not a header"):
            for _ in range(rng.randint(0, 2)):
                lines.insert(rng.randint(0, len(lines)), filler)
        headed = trial % 2 == 0
        if headed:
            n += rng.randint(0, 3)
            lines.insert(rng.randint(0, len(lines)), "# n=%d" % n)
        else:
            n = 1 + max((max(e) for e in edges), default=-1)
        G = graph_from_edge_list("\n".join(lines))
        ref = Graph(n, edges)
        assert G == ref and G.adj == ref.adj, (trial, lines)


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


def test_ball_equals_repeated_neighborhood():
    # reference: the definition, N(X) added to X once per radius step
    def repeated_neighborhood(G, X, i):
        cur = set(X)
        for _ in range(i):
            cur |= neighborhood(G, cur)
        return cur

    graphs = [generate("gnp", 40, p, seed=s) for p in (0.03, 0.06, 0.15) for s in range(3)]
    graphs += [generate("grid", 6, 7), generate("path", 12),
               Graph(9, [(0, 1), (1, 2), (4, 5)]).without(vertices={7})]
    rng = random.Random(3)
    for G in graphs:
        for size in (1, 2, 5):
            X = set(rng.sample(sorted(G.live), size))
            for i in range(7):
                assert ball(G, X, i) == repeated_neighborhood(G, X, i)


def test_neighborhood_with_cut_equals_neighborhood_in_graph_without_cut():
    rng = random.Random(4)
    for s in range(30):
        G = generate("gnp", 30, rng.choice([0.05, 0.15, 0.4]), seed=s)
        edges = sorted(G.edges)
        X = set(rng.sample(sorted(G.live), rng.randint(1, 12)))
        cut = frozenset(rng.sample(edges, rng.randint(0, len(edges))))
        assert neighborhood(G, X, cut=cut) == neighborhood(G.without(edges=cut), X)


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


def test_views_equal_checked_graphs():
    # induced and without skip Graph.__init__'s checks; their results must
    # be the checked Graph of the same n, edges and live set. Decompositions
    # iterate G.edges, so the iteration order must be the checked one too.
    rng = random.Random(11)
    for trial in range(150):
        n = rng.randint(1, 16)
        G = generate("gnp", n, rng.choice([0.2, 0.5, 0.9]), seed=trial)
        if trial % 3 == 0:
            G = G.without(vertices=rng.sample(range(n), n // 4))
        dead = rng.sample(range(n), rng.randint(0, n // 2))
        banned = rng.sample(sorted(G.edges), len(G.edges) // 4)
        views = [G.without(vertices=dead, edges=[(v, u) for u, v in banned]),
                 G.induced(set(range(n)) - set(dead))]
        for view in views:
            edges = [e for e in G.edges if e in view.edges]
            ref = Graph(G.n, edges, live=view.live)
            assert (view.n, view.live, view.edges, view.adj) == \
                (ref.n, ref.live, ref.edges, ref.adj)
            assert list(view.edges) == list(ref.edges)


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


def _pair_from_index(idx, n):
    # lexicographic rank over pairs (u,v), u<v
    u = 0
    remaining = idx
    row = n - 1
    while remaining >= row:
        remaining -= row
        u += 1
        row -= 1
    return (u, u + 1 + remaining)


def ref_gnp_edges(n, p, rng):
    """The G(n, p) enumeration that ranks each pair index from row 0, kept
    as a reference for the running row of _gnp_edges."""
    total = n * (n - 1) // 2
    if p <= 0 or total == 0:
        return []
    if p >= 1:
        return [_pair_from_index(i, n) for i in range(total)]
    edges = []
    idx = -1
    log_q = math.log(1.0 - p)
    while True:
        r = rng.random()
        skip = int(math.log(1.0 - r) / log_q)
        idx += skip + 1
        if idx >= total:
            break
        edges.append(_pair_from_index(idx, n))
    return edges


def test_gnp_edges_match_reference():
    for n in list(range(40)) + [100, 150, 300]:
        for p in (0, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999, 1):
            # p = 0 and p = 1 draw nothing from the generator
            for seed in range(5) if 0 < p < 1 else (0,):
                assert (_gnp_edges(n, p, random.Random(seed))
                        == ref_gnp_edges(n, p, random.Random(seed))), (n, p, seed)


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


def ref_valid_in(p, G):
    """The vertex-and-edge rule Path.valid_in used before the edge-subset
    rule, kept as a reference: every vertex live, every step an edge."""
    vs = p.vertices
    return all(v in G.live for v in vs) and all(
        G.has_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1)
    )


def random_walk(rng, G, length):
    """A simple path along edges of G, or None if its start is isolated."""
    vs = [rng.choice(G.vertices())]
    while len(vs) <= length:
        nxt = [w for w in G.neighbors(vs[-1]) if w not in vs]
        if not nxt:
            break
        vs.append(rng.choice(nxt))
    return Path(vs) if len(vs) >= 2 else None


def test_valid_in_matches_reference_in_views():
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    dead_vertex = last_edge_only = 0
    for _ in range(300):
        n = rng.randint(3, 12)
        G = generate("gnp", n, rng.choice([0.3, 0.6, 0.9]), seed=rng.randrange(10**9))
        if not G.edges:
            continue
        cut = rng.sample(range(n), rng.randint(0, n // 3))
        if rng.random() < 0.5:
            banned = rng.sample(sorted(G.edges), rng.randint(0, len(G.edges) // 3))
            view = G.without(vertices=cut, edges=banned)
        else:
            view = G.induced(set(range(n)) - set(cut))
        for _ in range(8):
            # walks in G cross dead vertices and banned edges of the view;
            # random sequences cross non-edges of G
            if rng.random() < 0.7:
                p = random_walk(rng, G, rng.randint(1, 6))
            else:
                p = Path(rng.sample(range(n), rng.randint(2, min(n, 6))))
            if p is None:
                continue
            want = ref_valid_in(p, view)
            assert p.valid_in(view) == want, (p, view)
            outcomes[want] += 1
            dead_vertex += any(v not in view.live for v in p.vertices)
            es = p.edges()
            last_edge_only += (es[-1] not in view.edges
                               and all(e in view.edges for e in es[:-1]))
    assert min(outcomes.values()) >= 400
    assert dead_vertex >= 400 and last_edge_only >= 200


def test_sorted_edges_sorts_once_for_every_kind_of_graph():
    # checked graphs, views, subgraphs and parsed edge lists all keep one
    # sorted tuple of their edges, and a second call returns the same object
    rng = random.Random(22)
    for trial in range(60):
        n = rng.randint(1, 16)
        G = generate("gnp", n, rng.choice([0.2, 0.5, 0.9]), seed=trial)
        dead = rng.sample(range(n), rng.randint(0, n // 2))
        banned = rng.sample(sorted(G.edges), len(G.edges) // 4)
        graphs = [
            G,
            Graph(n, [(v, u) for u, v in G.edges]),
            Graph._view(n, set(G.edges), G.live),
            G.induced(set(range(n)) - set(dead)),
            G.without(vertices=dead, edges=banned),
            graph_from_edge_list(serialize_edge_list(G)),
            Graph(n + 2, []),
        ]
        for H in graphs:
            first = H.sorted_edges()
            assert first == tuple(sorted(H.edges))
            assert H.sorted_edges() is first
