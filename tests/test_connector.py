import random

import pytest

from seppath.connector import (
    CompletionProblem,
    ConnectionRequest,
    check_completion,
    check_connection,
    complete_to_path,
    connect_pairs_through,
    extend_matching_through_hubs,
)
from seppath.decomp import decompose_into_paths
from seppath.graphs import Graph, Path, generate


def test_connect_through_star_center():
    G = generate("star", 6)
    req = ConnectionRequest(G, {0}, [(1, 2)])
    paths = connect_pairs_through(req)
    assert paths is not None and set(paths[0].vertices) == {1, 0, 2}
    assert check_connection(req, paths)


def test_connect_min_len_skips_direct_edge():
    # triangle plus the direct edge: a connector has an interior vertex, so
    # it routes around the edge
    G = Graph(3, [(0, 1), (0, 2), (1, 2)])
    req = ConnectionRequest(G, {2}, [(0, 1)])
    paths = connect_pairs_through(req)
    assert paths is not None and len(paths[0]) == 2
    assert check_connection(req, paths)
    # no detour available: must fail rather than use the direct edge
    H = Graph(2, [(0, 1)])
    req2 = ConnectionRequest(H, set(), [(0, 1)])
    assert connect_pairs_through(req2) is None


def test_connect_failure_disconnected():
    G = Graph(4, [(0, 1), (2, 3)])
    req = ConnectionRequest(G, set(), [(0, 2)])
    assert connect_pairs_through(req) is None


def test_connect_distinct_endpoints_required():
    G = generate("complete", 4)
    with pytest.raises(ValueError):
        ConnectionRequest(G, set(), [(0, 1), (1, 2)])


def test_connect_random_instances():
    rng = random.Random(2)
    successes = 0
    for trial in range(80):
        n = rng.randint(8, 30)
        G = generate("gnp", n, 0.4, seed=trial)
        verts = list(G.vertices())
        rng.shuffle(verts)
        k = rng.randint(1, 3)
        ends, pool = verts[: 2 * k], set(verts[2 * k: 2 * k + n // 2])
        pairs = [(ends[2 * i], ends[2 * i + 1]) for i in range(k)]
        req = ConnectionRequest(G, pool, pairs, seed=trial)
        paths = connect_pairs_through(req)
        if paths is not None:
            assert check_connection(req, paths)
            successes += 1
    assert successes > 30


def test_connect_deterministic():
    G = generate("gnp", 25, 0.3, seed=4)
    req = ConnectionRequest(G, set(range(10, 25)), [(0, 5), (1, 7)], seed=9)
    a = connect_pairs_through(req)
    b = connect_pairs_through(req)
    assert (a is None) == (b is None)
    if a is not None:
        assert [p.vertices for p in a] == [p.vertices for p in b]


def test_complete_single_edge():
    G = Graph(2, [(0, 1)])
    prob = CompletionProblem(G, [Path([0, 1])])
    p = complete_to_path(prob)
    assert p is not None and check_completion(prob, p)
    assert set(p.edges()) == {(0, 1)}


def test_complete_one_path_core_builds_no_graph(monkeypatch):
    # a one-path core is returned as it is; no filtered host is built
    G = generate("complete", 8)
    prob = CompletionProblem(G, [Path([0, 1, 2])], forbidden_edges=[(3, 4)],
                             forbidden_vertices=[5])
    builds = []
    fill = Graph._fill

    # every Graph, checked or a subgraph view, is filled in by _fill
    def counting_fill(self, *args):
        builds.append(args)
        fill(self, *args)

    monkeypatch.setattr(Graph, "_fill", counting_fill)
    p = complete_to_path(prob)
    assert p == Path([0, 1, 2])
    assert not builds
    # a two-path core still builds its host
    assert complete_to_path(CompletionProblem(G, [Path([0, 1]), Path([2, 3])]))
    assert builds


def test_complete_c4_matching():
    G = generate("cycle", 4)
    prob = CompletionProblem(G, [Path([0, 1]), Path([2, 3])])
    p = complete_to_path(prob)
    assert p is not None and check_completion(prob, p)
    assert {(0, 1), (2, 3)} <= set(p.edges())


def test_complete_failure_disconnected():
    G = Graph(4, [(0, 1), (2, 3)])
    prob = CompletionProblem(G, [Path([0, 1]), Path([2, 3])])
    assert complete_to_path(prob) is None


def test_complete_respects_forbidden():
    G = generate("complete", 6)
    core = [Path([0, 1]), Path([2, 3])]
    prob = CompletionProblem(G, core, forbidden_edges=[(1, 2)], forbidden_vertices=[4])
    p = complete_to_path(prob)
    if p is not None:
        assert check_completion(prob, p)
        assert (1, 2) not in p.edges()
        assert 4 not in p.vertices


def test_completion_500_random_instances():
    rng = random.Random(31)
    successes = 0
    for trial in range(500):
        n = rng.randint(6, 60)
        G = generate("gnp", n, rng.choice([0.2, 0.4, 0.6]), seed=10_000 + trial)
        if G.num_edges() < 4:
            continue
        D = decompose_into_paths(G)
        edges = sorted(G.edges)
        rng.shuffle(edges)
        core_edges = []
        used = set()
        for e in edges:
            if used & set(e):
                continue
            core_edges.append(e)
            used |= set(e)
            if len(core_edges) >= rng.randint(1, 6):
                break
        forbidden = set()
        for e in core_edges:
            forbidden |= set(D.path_of(e).edges())
        forbidden -= set(core_edges)
        fvertices = {v for e in forbidden for v in e} - used
        prob = CompletionProblem(
            G, [Path(e) for e in core_edges],
            forbidden_edges=forbidden, forbidden_vertices=fvertices)
        p = complete_to_path(prob)
        if p is not None:
            assert check_completion(prob, p)
            successes += 1
    assert successes > 100


def test_completion_deterministic():
    G = generate("gnp", 30, 0.3, seed=6)
    core = [Path(sorted(G.edges)[0]), Path(sorted(G.edges)[-1])]
    try:
        prob = CompletionProblem(G, core)
    except ValueError:
        return
    a = complete_to_path(prob)
    b = complete_to_path(prob)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.vertices == b.vertices


def test_hub_extension_single_edge():
    G = Graph(2, [(0, 1)])
    F = extend_matching_through_hubs(G, [(0, 1)], set())
    assert len(F.paths) == 1 and F.paths[0] == Path([0, 1])


def test_hub_extension_one_join():
    G = Graph(5, [(0, 1), (1, 4), (4, 2), (2, 3)])
    F = extend_matching_through_hubs(G, [(0, 1), (2, 3)], {4})
    assert len(F.paths) == 1
    assert F.paths[0] == Path([0, 1, 4, 2, 3])


def test_hub_extension_properties_random():
    rng = random.Random(8)
    for trial in range(100):
        n = rng.randint(8, 40)
        G = generate("gnp", n, 0.3, seed=20_000 + trial)
        verts = list(G.vertices())
        rng.shuffle(verts)
        medges = []
        used = set()
        for u, v in sorted(G.edges):
            if u in verts[: n // 2] and v in verts[: n // 2] and not used & {u, v}:
                medges.append((u, v))
                used |= {u, v}
        hubs = set(verts[n // 2:]) - used
        F = extend_matching_through_hubs(G, medges, hubs)
        assert len(F.paths) <= max(1, len(medges)) or not medges
        assert set(medges) <= F.edge_set() or not medges
        hub_hits = [v for p in F.paths for v in p.vertices if v in hubs]
        assert len(hub_hits) == len(set(hub_hits))
        for p in F.paths:
            assert p.valid_in(G)
