import itertools
import random

import pytest

from seppath.graphs import Graph, Path, generate
from seppath.separation import (
    PathSystem,
    all_simple_paths,
    baseline_nlogn,
    brute_force_min_system,
    singleton_baseline,
    verify_separation,
)


def naive_check(system):
    """Definitional double loop, sharing no code with the verifier."""
    path_edge_lists = []
    for p in system.paths:
        es = []
        vs = list(p.vertices)
        for a, b in zip(vs, vs[1:]):
            es.append((min(a, b), max(a, b)))
        path_edge_lists.append(es)
    edges = sorted(system.target)
    witness = None
    for e in edges:
        for f in edges:
            if e == f:
                continue
            if system.mode == "strong":
                ok = any(e in es and f not in es for es in path_edge_lists)
            else:
                if (e, f) > (f, e):
                    pass
                ok = any((e in es) != (f in es) for es in path_edge_lists)
            if not ok:
                pair = (e, f) if system.mode == "strong" else tuple(sorted((e, f)))
                if witness is None or pair < witness:
                    witness = pair
    return witness


def random_system(rng, n_max=8):
    n = rng.randint(2, n_max)
    G = generate("gnp", n, rng.choice([0.3, 0.5, 0.8]), seed=rng.randint(0, 10**9))
    universe = all_simple_paths(G)
    k = rng.randint(0, min(len(universe), 6))
    paths = rng.sample(universe, k) if k else []
    mode = rng.choice(["strong", "weak"])
    return PathSystem(G, paths, mode=mode)


def connected_graphs_up_to(n_max):
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            G = Graph(n, edges)
            if len(G.components()) == 1:
                yield G


def test_verifier_examples():
    K3 = generate("complete", 3)
    ok = verify_separation(singleton_baseline(K3))
    assert ok.ok and ok.witness is None
    P3 = generate("path", 3)
    bad = verify_separation(PathSystem(P3, [Path([0, 1, 2])]))
    assert not bad.ok and bad.witness == ((0, 1), (1, 2))


def test_verifier_rejects_invalid_path():
    P3 = generate("path", 3)
    with pytest.raises(ValueError):
        verify_separation(PathSystem(P3, [Path([0, 2])]))


def test_k3_two_paths_never_strongly_separate():
    K3 = generate("complete", 3)
    universe = all_simple_paths(K3)
    for a, b in itertools.combinations(universe, 2):
        rep = verify_separation(PathSystem(K3, [a, b]))
        assert not rep.ok


def test_verifier_agrees_with_naive_on_random_systems():
    rng = random.Random(42)
    for _ in range(200):
        system = random_system(rng)
        rep = verify_separation(system)
        naive_witness = naive_check(system)
        assert rep.ok == (naive_witness is None)
        if not rep.ok:
            assert rep.witness == naive_witness


def test_verifier_agrees_on_small_connected_exhaustive():
    rng = random.Random(7)
    for G in connected_graphs_up_to(4):
        universe = all_simple_paths(G)
        for _ in range(3):
            k = rng.randint(0, min(4, len(universe)))
            system = PathSystem(G, rng.sample(universe, k), mode=rng.choice(["strong", "weak"]))
            rep = verify_separation(system)
            naive_witness = naive_check(system)
            assert rep.ok == (naive_witness is None)
            if not rep.ok:
                assert rep.witness == naive_witness


def test_strong_implies_weak():
    rng = random.Random(3)
    for _ in range(60):
        system = random_system(rng)
        if system.mode != "strong":
            continue
        if verify_separation(system).ok:
            weak = PathSystem(system.host, system.paths, target=system.target, mode="weak")
            assert verify_separation(weak).ok


def test_oracle_single_edge():
    G = Graph(2, [(0, 1)])
    assert len(brute_force_min_system(G)) == 1


def test_oracle_k3():
    assert len(brute_force_min_system(generate("complete", 3))) == 3


def test_oracle_path4():
    assert len(brute_force_min_system(generate("path", 4))) == 3


def test_oracle_feasible_and_minimal_small():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 5)
        G = generate("gnp", n, 0.6, seed=rng.randint(0, 10**9))
        if G.num_edges() == 0:
            continue
        sys_ = brute_force_min_system(G)
        assert verify_separation(sys_).ok
        for i in range(len(sys_.paths)):
            reduced = PathSystem(G, sys_.paths[:i] + sys_.paths[i + 1:])
            assert not verify_separation(reduced).ok or len(sys_.target) < 2


def test_oracle_deterministic():
    G = generate("complete", 4)
    a = brute_force_min_system(G)
    b = brute_force_min_system(G)
    assert [p.vertices for p in a.paths] == [p.vertices for p in b.paths]


def test_oracle_rejects_large():
    with pytest.raises(ValueError):
        brute_force_min_system(generate("complete", 8))


def test_oracle_cap():
    # strongly separating 3 edges takes 3 nonempty, pairwise incomparable
    # signatures; subsets of a 2-set hold an antichain of at most 2 (Sperner)
    K3 = generate("complete", 3)
    with pytest.raises(ValueError, match="within cap 2"):
        brute_force_min_system(K3, cap=2)
    assert len(brute_force_min_system(K3, cap=3)) == 3


def test_oracle_cap_edgeless_and_one_edge():
    # the edgeless graph needs no path; a lone edge needs exactly one
    empty = Graph(3, [])
    with pytest.raises(ValueError, match="within cap -1"):
        brute_force_min_system(empty, cap=-1)
    assert len(brute_force_min_system(empty, cap=0)) == 0
    edge = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="within cap 0"):
        brute_force_min_system(edge, cap=0)
    assert [p.vertices for p in brute_force_min_system(edge, cap=1).paths] == [(0, 1)]


def test_oracle_weak():
    # one path gives 3 edges only 2 distinct signatures; two single-edge
    # paths give 10, 01 and 00
    for G in (generate("complete", 3), generate("path", 4)):
        system = brute_force_min_system(G, mode="weak")
        assert system.mode == "weak"
        assert len(system) == 2
        assert verify_separation(system).ok


def test_oracle_k3_follows_search_order():
    # The first pair ((0,1),(0,2)) branches on (0,1,2) before (0,1); then
    # ((0,1),(1,2)) on (1,0,2); then (0,2,1) separates both pairs left. No 2
    # paths suffice, so this first system of 3 is kept, although the three
    # single edges are lexicographically smaller.
    system = brute_force_min_system(generate("complete", 3))
    assert [p.vertices for p in system.paths] == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]


def test_singleton_baseline():
    G = generate("gnp", 20, 0.5, seed=1)
    sys_ = singleton_baseline(G)
    assert len(sys_) == G.num_edges()
    assert verify_separation(sys_).ok
    empty = singleton_baseline(Graph(3, []))
    assert verify_separation(empty).ok


def test_baseline_nlogn():
    for G in [Graph(2, [(0, 1)]), generate("complete", 3), generate("gnp", 40, 0.3, seed=2)]:
        sys_ = baseline_nlogn(G)
        assert verify_separation(sys_).ok
        m = G.num_edges()
        if m > 1:
            bits = max(1, (m - 1).bit_length())
            assert len(sys_) <= 2 * bits * len(G)
