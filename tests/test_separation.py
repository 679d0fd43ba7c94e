import itertools
import random

import pytest

from seppath.graphs import Graph, Path, generate
from seppath.separation import (
    PathSystem,
    all_simple_paths,
    baseline_nlogn,
    bitcode_lower_bound,
    brute_force_min_system,
    column_odd_counts,
    singleton_baseline,
    verify_separation,
)
from test_decomp import bitcode_subgraphs, many_component_graphs


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
    if witness is None and system.mode == "strong":
        # an edge on no path fails even when no other edge makes a pair
        for e in edges:
            if not any(e in es for es in path_edge_lists):
                return (e, None)
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


def test_lone_uncovered_edge_fails_strong_verification():
    # a strong system must put every target edge on a path, even when the
    # target has no second edge to pair it with
    G = Graph(2, [(0, 1)])
    rep = verify_separation(PathSystem(G, []))
    assert not rep.ok and rep.witness == ((0, 1), None) and rep.covered == 0
    assert verify_separation(PathSystem(G, [Path([0, 1])])).ok
    assert verify_separation(PathSystem(G, [], mode="weak")).ok
    assert verify_separation(PathSystem(G, [], target=[])).ok
    P3 = generate("path", 3)
    rep = verify_separation(PathSystem(P3, [Path([1, 2])], target=[(0, 1)]))
    assert rep.witness == ((0, 1), None)
    assert ref_verify_separation(PathSystem(G, [])) == (False, ((0, 1), None), 0)


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


def test_path_system_keeps_the_host_edge_set_as_target():
    G = generate("gnp", 12, 0.5, seed=3)
    paths = singleton_baseline(G).paths
    assert PathSystem(G, paths).target is G.edges
    assert PathSystem(G, paths, target=G.edges).target is G.edges
    # an equal set that is not the host's own is still canonicalized
    flipped = {(v, u) for u, v in G.edges}
    system = PathSystem(G, paths, target=flipped)
    assert system.target == G.edges and system.target is not G.edges


def test_path_system_canonicalizes_and_checks_other_targets():
    G = Graph(3, [(0, 1), (1, 2)])
    assert PathSystem(G, [Path((0, 1))], target=[(1, 0)]).target == {(0, 1)}
    with pytest.raises(ValueError, match="non-edges"):
        PathSystem(G, [Path((0, 1))], target=[(1, 0), (0, 2)])


def test_baseline_nlogn():
    for G in [Graph(2, [(0, 1)]), generate("complete", 3), generate("gnp", 40, 0.3, seed=2)]:
        sys_ = baseline_nlogn(G)
        assert verify_separation(sys_).ok
        m = G.num_edges()
        if m > 1:
            bits = max(1, (m - 1).bit_length())
            assert len(sys_) <= 2 * bits * len(G)


def bound_graphs():
    rng = random.Random(20)
    for _ in range(80):
        yield generate("gnp", rng.randint(1, 60), rng.choice([0.05, 0.2, 0.5, 0.9]),
                       seed=rng.randrange(10**9))
    for a in range(1, 7):
        for b in range(a, 9):
            yield generate("grid", a, b)
    for k in range(1, 9):
        yield generate("hypercube", k)
    for n in range(2, 13):
        yield generate("path", n)
        yield generate("star", n)
        yield generate("complete", n)
        if n >= 3:
            yield generate("cycle", n)
    yield from many_component_graphs()
    yield Graph(3, [])
    yield Graph(3, [(0, 1)])
    yield Graph(3, [(0, 1), (1, 2)])
    yield Graph(4, [(0, 1), (2, 3)])


def test_bitcode_lower_bound_holds():
    # every odd vertex of a column ends one of its paths, and no column is
    # empty, so no decomposition of the columns beats the bound
    tight = 0
    for G in bound_graphs():
        bound = bitcode_lower_bound(G)
        size = len(baseline_nlogn(G))
        assert bound <= size, (G, bound, size)
        tight += bound == size
    assert tight >= 40
    # m <= 1 matches the singleton case; a 2-edge path has two 1-edge columns
    assert bitcode_lower_bound(Graph(3, [])) == 0
    assert bitcode_lower_bound(Graph(3, [(0, 1)])) == 1
    assert bitcode_lower_bound(Graph(3, [(0, 1), (1, 2)])) == 2


def test_column_odd_counts_match_the_column_graphs():
    # bit b of the XOR of v's edge indices is v's parity in column b
    rng = random.Random(21)
    graphs = [generate("gnp", rng.randint(2, 60), rng.choice([0.1, 0.4, 0.8]),
                       seed=rng.randrange(10**9)) for _ in range(40)]
    graphs += [generate("hypercube", 6), generate("grid", 7, 9),
               Graph(3, [(0, 1), (1, 2)])]
    graphs += list(many_component_graphs())
    for G in graphs:
        if G.num_edges() < 2:
            continue
        assert column_odd_counts(G) == [
            sum(H.degree(v) % 2 for v in H.vertices()) for H in bitcode_subgraphs(G)]


def ref_verify_separation(system):
    """The two-walk verifier that the one-walk verify_separation replaced,
    kept as a reference: signatures under the vertex-and-edge validity rule,
    then a second walk for each path's target edges, and a strong check
    that scans each edge's first path rather than its shortest. Like the
    verifier, it fails a lone target edge that lies on no path."""
    host = system.host
    sig = {e: 0 for e in system.target}
    for i, p in enumerate(system.paths):
        vs = p.vertices
        if not (all(v in host.live for v in vs) and all(
                host.has_edge(vs[j], vs[j + 1]) for j in range(len(vs) - 1))):
            raise ValueError("path %r not valid in host graph" % (p,))
        for e in p.edges():
            if e in sig:
                sig[e] |= 1 << i
    edges = sorted(system.target)
    covered = sum(1 for e in edges if sig[e])
    if system.mode == "weak":
        by_sig = {}
        witness = None
        for e in edges:
            other = by_sig.get(sig[e])
            if other is not None:
                if witness is None or (other, e) < witness:
                    witness = (other, e)
            else:
                by_sig[sig[e]] = e
        return witness is None, witness, covered
    edge_list_of_path = [[e for e in p.edges() if e in sig] for p in system.paths]
    for e in edges:
        se = sig[e]
        if se == 0:
            return False, (e, next((x for x in edges if x != e), None)), covered
        first_path = (se & -se).bit_length() - 1
        best = None
        for f in edge_list_of_path[first_path]:
            if f != e and (se & ~sig[f]) == 0 and (best is None or f < best):
                best = f
        if best is not None:
            return False, (e, best), covered
    return True, None, covered


def outcome(verify, system):
    try:
        rep = verify(system)
    except ValueError as exc:
        return "raise", str(exc)
    return rep if isinstance(rep, tuple) else (rep.ok, rep.witness, rep.covered)


def test_verifier_matches_reference_on_random_systems():
    rng = random.Random(13)
    kinds = {"raise": 0, True: 0, False: 0}
    uncovered = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        G = generate("gnp", n, rng.choice([0.3, 0.5, 0.8]), seed=rng.randrange(10**9))
        universe = all_simple_paths(G)
        paths = rng.sample(universe, rng.randint(0, min(len(universe), 6)))
        if universe and rng.random() < 0.3:
            # an invalid path: a host path run on over a non-edge, either way
            vs = rng.choice(universe).vertices
            far = [v for v in range(n) if v not in vs and not G.has_edge(vs[-1], v)]
            if far:
                bad = vs + (rng.choice(far),)
                paths.insert(rng.randint(0, len(paths)),
                             Path(bad if rng.random() < 0.5 else bad[::-1]))
        edges = sorted(G.edges)
        target = (None if rng.random() < 0.5
                  else rng.sample(edges, rng.randint(0, len(edges))))
        system = PathSystem(G, paths, target=target, mode=rng.choice(["strong", "weak"]))
        got = outcome(verify_separation, system)
        assert got == outcome(ref_verify_separation, system), system.paths
        kinds[got[0]] += 1
        uncovered += got[0] != "raise" and got[2] < len(system.target)
    assert min(kinds.values()) >= 40 and uncovered >= 40


def test_verifier_matches_reference_on_bit_code_systems():
    # the strong check scans each edge's path with the fewest target edges;
    # bit-code systems give most edges a shorter path than their first, and
    # dropping a share of the paths makes many of them fail on a covered edge
    rng = random.Random(14)
    failing = 0
    shorter_than_first = 0
    for _ in range(60):
        n = rng.randint(20, 60)
        G = generate("gnp", n, rng.choice([0.2, 0.4, 0.6]), seed=rng.randrange(10**9))
        full = baseline_nlogn(G).paths
        edges = sorted(G.edges)
        for drop in (0, 0.3, 0.5):
            paths = [p for p in full if rng.random() >= drop]
            target = (None if rng.random() < 0.5
                      else rng.sample(edges, rng.randint(2, len(edges))))
            system = PathSystem(G, paths, target=target)
            got = outcome(verify_separation, system)
            assert got == outcome(ref_verify_separation, system)
            on_paths = {e: [] for e in system.target}
            for p in paths:
                on_path = [e for e in p.edges() if e in on_paths]
                for e in on_path:
                    on_paths[e].append(len(on_path))
            failing += not got[0] and bool(on_paths[got[1][0]])
            shorter_than_first += sum(1 for lens in on_paths.values()
                                      if lens and min(lens) < lens[0])
    assert failing >= 40 and shorter_than_first >= 1000, (failing, shorter_than_first)


def test_verifier_matches_reference_on_mixed_systems():
    # strong mode checks one-edge paths as a set, with no signature bit;
    # systems mixing them with longer paths, duplicated, on edges outside
    # the target or invalid before or after an invalid longer path, must
    # give the reference's outcome in both modes
    rng = random.Random(22)
    reached = {"duplicate": 0, "outside target": 0, "first raise one-edge": 0,
               "first raise longer": 0, "ok": 0, "fail": 0, "uncovered": 0}
    for _ in range(600):
        n = rng.randint(3, 7)
        G = generate("gnp", n, rng.choice([0.4, 0.6, 0.8]), seed=rng.randrange(10**9))
        edges = sorted(G.edges)
        if not edges:
            continue
        longer = [p for p in all_simple_paths(G) if len(p) >= 2]
        paths = [Path(e if rng.random() < 0.5 else e[::-1])
                 for e in rng.choices(edges, k=rng.randint(0, len(edges) + 2))]
        paths += rng.sample(longer, rng.randint(0, min(len(longer), 4)))
        rng.shuffle(paths)
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not G.has_edge(u, v)]
        bad_one = bad_longer = None
        if non_edges and rng.random() < 0.4:
            bad_one = Path(rng.choice(non_edges))
            paths.insert(rng.randint(0, len(paths)), bad_one)
        if longer and rng.random() < 0.4:
            # a host path run on over a non-edge
            vs = rng.choice(longer).vertices
            far = [v for v in range(n) if v not in vs and not G.has_edge(vs[-1], v)]
            if far:
                bad_longer = Path(vs + (rng.choice(far),))
                paths.insert(rng.randint(0, len(paths)), bad_longer)
        target = (None if rng.random() < 0.5
                  else rng.sample(edges, rng.randint(0, len(edges))))
        for mode in ("strong", "weak"):
            system = PathSystem(G, paths, target=target, mode=mode)
            got = outcome(verify_separation, system)
            assert got == outcome(ref_verify_separation, system), (mode, paths)
            if mode == "weak":
                continue
            ones = [e for p in paths if len(p) == 1 for e in p.edges()]
            reached["duplicate"] += len(ones) > len(set(ones))
            reached["outside target"] += any(e not in system.target for e in ones
                                             if G.has_edge(*e))
            if got[0] == "raise":
                first = next(p for p in paths if p is bad_one or p is bad_longer)
                assert repr(first) in got[1]
                if bad_one is not None and bad_longer is not None:
                    key = "one-edge" if first is bad_one else "longer"
                    reached["first raise " + key] += 1
            else:
                reached["ok" if got[0] else "fail"] += 1
                reached["uncovered"] += got[2] < len(system.target)
    assert min(reached.values()) >= 20, reached
