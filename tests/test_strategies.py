import math
import random

import pytest

from seppath.decomp import decompose_into_bounded_paths, decompose_into_paths
from seppath.graphs import Graph, generate
from seppath.separation import verify_separation
from seppath.strategies import (
    PipelineConfig,
    audit_counters,
    audit_groups,
    audit_matchings_basic,
    audit_matchings_degree,
    audit_matchings_spread,
    build_matchings_basic,
    build_matchings_degree,
    build_matchings_spread,
    build_short_path_unions,
    iterated_log,
    one_step,
    reduce_large_deg,
    reduce_small_deg,
    reset_audit_counters,
    separate_all,
    separate_dense_expander,
    separate_high_degree,
    separate_sparse_expander,
)

CFG = PipelineConfig()


def test_iterated_log_values():
    assert iterated_log(1) == 1
    assert iterated_log(2) == 2
    assert iterated_log(16) == 4
    with pytest.raises(ValueError):
        iterated_log(0)


def test_iterated_log_definition():
    # minimal k with the k-fold log2 below 1
    for n in (1, 2, 3, 5, 16, 100, 65536, 10 ** 9):
        k = iterated_log(n)
        x = float(n)
        for _ in range(k - 1):
            x = math.log2(x)
            assert x >= 1 or _ == k - 2
        x = float(n)
        for _ in range(k):
            x = math.log2(x)
        assert x < 1


def test_config_validation_and_overrides():
    with pytest.raises(ValueError):
        PipelineConfig(retries=0)
    cfg = CFG.with_overrides({"retries": "5", "s_dense": "1.5"})
    assert cfg.retries == 5 and cfg.s_dense == 1.5
    with pytest.raises(ValueError):
        CFG.with_overrides({"no_such_knob": "1"})


def test_basic_matchings_single_edge_and_k3():
    G1 = Graph(2, [(0, 1)])
    M, left = build_matchings_basic(G1, decompose_into_paths(G1), 10)
    assert M == [[(0, 1)]] and not left
    K3 = generate("complete", 3)
    M, left = build_matchings_basic(K3, decompose_into_paths(K3), 10)
    assert len(M) == 3 and not left


def test_basic_matchings_corpus():
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(2, 50)
        G = generate("gnp", n, rng.choice([0.1, 0.4, 0.8]), seed=trial)
        if not G.edges:
            continue
        D = decompose_into_paths(G)
        M, left = build_matchings_basic(G, D, 3 * n)
        assert not left
        assert len(M) <= 3 * n
        assert sorted(e for m in M for e in m) == sorted(G.edges)
        assert audit_matchings_basic(D.paths, M)


def test_degree_matchings_bucket_quota():
    # ten disjoint edges, min endpoint degree 1: bucket quota is 1 per matching
    G = Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
    D = decompose_into_paths(G)
    dbar = {e: 1 for e in G.edges}
    M, left = build_matchings_degree(G, D, dbar, 100)
    assert not left
    assert all(len(m) == 1 for m in M) and len(M) == 10
    assert audit_matchings_degree(G, D.paths, M)


def test_degree_matchings_corpus_audit():
    rng = random.Random(9)
    for trial in range(30):
        n = rng.randint(2, 40)
        G = generate("gnp", n, 0.4, seed=100 + trial)
        if not G.edges:
            continue
        D = decompose_into_paths(G)
        dbar = {e: min(G.degree(e[0]), G.degree(e[1])) for e in G.edges}
        M, left = build_matchings_degree(G, D, dbar, 3 * n)
        covered = sorted(e for m in M for e in m) + sorted(left)
        assert sorted(covered) == sorted(G.edges)
        assert audit_matchings_degree(G, D.paths, M)


def test_spread_matchings_same_path_conflict():
    G = generate("path", 6)
    D = decompose_into_bounded_paths(G, 5)
    M, left = build_matchings_spread(G, D, 5, 2, 100)
    # all edges share one decomposition path: no two can share a matching
    assert all(len(m) == 1 for m in M) and not left
    assert audit_matchings_spread(G, D.paths, M, 5, 2)


def test_spread_matchings_corpus_audit():
    rng = random.Random(3)
    for trial in range(20):
        n = rng.randint(10, 60)
        G = generate("gnp", n, 0.1, seed=200 + trial)
        if not G.edges:
            continue
        d = max(2, int(G.avg_degree()) or 2)
        D = decompose_into_bounded_paths(G, d)
        M, left = build_matchings_spread(G, D, d, 2, 3 * n)
        covered = sorted(e for m in M for e in m) + sorted(left)
        assert sorted(covered) == sorted(G.edges)
        assert audit_matchings_spread(G, D.paths, M, d, 2)


def test_short_path_unions_l2_empty():
    K4 = generate("complete", 4)
    D = decompose_into_bounded_paths(K4, 2)
    groups, left = build_short_path_unions(K4, D, set(range(4)), set(), 2, 100)
    placed = [m for g in groups for m in g]
    assert all(len(m) == 2 for m in placed)
    assert sorted(placed) + sorted(left) and audit_groups(D.paths, groups)
    assert sorted(m for g in groups for m in g) + sorted(left) == sorted(
        placed + left)


def test_short_path_unions_cyclic_members():
    # one L2 vertex with 4 L1 neighbors; every u-v edge sits in 2 members
    edges = [(4, i) for i in range(4)] + [(0, 1), (2, 3)]
    H1 = Graph(5, edges)
    D = decompose_into_bounded_paths(H1, 3)
    groups, left = build_short_path_unions(H1, D, set(range(4)), {4}, 3, 100)
    assert audit_groups(D.paths, groups)
    cover = {}
    for g in groups:
        for m in g:
            for i in range(len(m) - 1):
                e = tuple(sorted((m[i], m[i + 1])))
                cover[e] = cover.get(e, 0) + 1
    for m in left:
        for i in range(len(m) - 1):
            e = tuple(sorted((m[i], m[i + 1])))
            cover[e] = cover.get(e, 0) + 1
    for e in [(0, 4), (1, 4), (2, 4), (3, 4)]:
        assert cover.get(e, 0) <= 2


def test_separate_dense_expander_verified():
    H = generate("gnp", 30, 0.5, seed=2)
    st = separate_dense_expander(H, CFG, seed=1)
    assert st.system.target == H.edges
    assert not st.residual.edges


def test_separate_high_degree_hub():
    # a full-degree hub in a graph sparse enough that d^7 stays below n
    edges = [(0, v) for v in range(1, 200)] + [(i, i + 1) for i in range(1, 11)]
    G = Graph(200, edges)
    d = G.avg_degree()
    assert max(2.0, d) ** 7 <= len(G)
    st = separate_high_degree(G, d, CFG)
    assert 0 not in st.residual.live
    assert all(0 in e or (e[0] != 0 and e[1] != 0) for e in st.system.target)
    hub_edges = {e for e in G.edges if 0 in e}
    assert hub_edges <= st.system.target


def test_separate_high_degree_trivial_when_no_l1():
    G = generate("cycle", 12)
    st = separate_high_degree(G, G.avg_degree(), CFG)
    assert not st.system.target and st.residual.edges == G.edges


def test_separate_sparse_expander_cycle():
    J = generate("cycle", 60)
    st = separate_sparse_expander(J, 4, CFG)
    assert st.system.target == J.edges


def test_reduce_small_deg_identity_below_floor():
    G = generate("cycle", 20)
    st, small = reduce_small_deg(G, CFG, seed=0)
    assert st.residual.edges == G.edges and not small


def test_reduce_small_deg_runs_dense():
    G = generate("gnp", 60, 0.5, seed=6)
    st, small = reduce_small_deg(G, CFG, seed=1)
    assert sum(len(F) for F in small) <= 4 * len(G)
    seen = set(st.system.target) | set(st.residual.edges)
    for F in small:
        seen |= F.edges
    assert seen == G.edges


def test_reduce_large_deg_partition():
    G = generate("gnp", 40, 0.4, seed=8)
    st = reduce_large_deg(G, CFG, seed=2)
    assert st.system.target | st.residual.edges == G.edges


def test_one_step_accounting():
    G = generate("gnp", 80, 0.4, seed=9)
    st = one_step(G, CFG, seed=3)
    assert st.system.target | st.residual.edges == G.edges
    assert not st.system.target & st.residual.edges


def test_separate_all_small_graphs():
    for G in (generate("complete", 3), Graph(4, []), generate("path", 5)):
        system, report = separate_all(G, CFG, seed=0)
        assert len(system) <= max(1, G.num_edges())
        assert verify_separation(system).ok


def test_separate_all_size_ceiling_and_validity():
    for desc, G in [
        ("gnp", generate("gnp", 60, 0.4, seed=12)),
        ("grid", generate("grid", 7, 7)),
        ("regular", generate("random_regular", 50, 4, seed=1)),
    ]:
        system, report = separate_all(G, CFG, seed=0)
        assert verify_separation(system).ok, desc
        assert len(system) <= G.num_edges(), desc


def test_separate_all_deterministic():
    G = generate("gnp", 50, 0.5, seed=14)
    s1, r1 = separate_all(G, CFG, seed=5)
    s2, r2 = separate_all(G, CFG, seed=5)
    assert [p.vertices for p in s1.paths] == [p.vertices for p in s2.paths]
    assert r1.to_csv() == r2.to_csv()
    assert r1.selected == r2.selected


def test_separate_all_residual_monotone():
    G = generate("gnp", 80, 0.5, seed=15)
    _, report = separate_all(G, CFG, seed=0)
    levels = [r for r in report.rows if r[1] == "one-step"]
    sizes = [r[5] for r in levels]
    assert all(b < G.num_edges() for b in sizes[:1])
    assert all(b2 < b1 for b1, b2 in zip(sizes, sizes[1:]))


def test_separate_all_audits_ran():
    reset_audit_counters()
    G = generate("gnp", 60, 0.5, seed=16)
    separate_all(G, CFG, seed=0)
    assert sum(audit_counters.values()) > 0


def test_report_csv_shape():
    G = generate("gnp", 40, 0.4, seed=18)
    _, report = separate_all(G, CFG, seed=0)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "level,stage_tag,part_count,system_size,fallback_count,residual_edges,elapsed_ms"
    assert any("selected:" in ln for ln in lines)
    for ln in lines[1:]:
        assert len(ln.split(",")) == 7
