import errno
import math
import os
import random
from collections import Counter

import pytest

from seppath.cli import system_to_text
from seppath.decomp import decompose_into_bounded_paths, decompose_into_paths
from seppath.graphs import Graph, Path, ball, generate
from seppath.separation import (
    PathSystem,
    baseline_nlogn,
    singleton_baseline,
    verify_separation,
)
from seppath.strategies import (
    DEGREE_FLOOR,
    StageResult,
    _bucket,
    _bucket_quota,
    _close_or_singletons,
    _first_fit,
    _separate_within,
    _union_members,
    audit_groups,
    audit_matchings_basic,
    audit_matchings_degree,
    audit_matchings_spread,
    build_matchings_basic,
    build_matchings_degree,
    build_matchings_spread,
    build_short_path_unions,
    degree_threshold,
    iterated_log,
    one_step,
    reduce_large_deg,
    reduce_small_deg,
    separate_all,
    separate_dense_expander,
    separate_high_degree,
    separate_sparse_expander,
)
from test_acceptance import record_audit_calls
from test_pinned_outputs import four_hub_graph, three_block_graph


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


def spread_matchings_by_scan(G, decomp, d, r0, cap):
    """build_matchings_spread with a linear scan over the matchings for
    each edge, kept as a reference for its bitmask slot choice."""
    zones = {}
    zone_mask = {v: 0 for v in G.live}
    out, leftovers = [], []
    for e in sorted(G.edges):
        pid = decomp.path_id_of(e)
        pv = decomp.paths[pid].vertices
        if pid not in zones:
            zones[pid] = ball(G, set(pv), 2 * r0 - 1)
        conflict = 0
        for v in pv:
            conflict |= zone_mask[v]
        slot = next((i for i in range(len(out))
                     if len(out[i]) < d and not (conflict >> i) & 1), None)
        if slot is None:
            if len(out) == cap:
                leftovers.append(e)
                continue
            slot = len(out)
            out.append([])
        out[slot].append(e)
        for v in zones[pid]:
            zone_mask[v] |= 1 << slot
    return out, leftovers


def test_spread_matchings_match_linear_scan():
    rng = random.Random(8)
    for trial in range(40):
        n = rng.randint(5, 50)
        G = generate("gnp", n, rng.choice([0.05, 0.1, 0.3, 0.6]), seed=300 + trial)
        if not G.edges:
            continue
        d = rng.randint(1, 6)
        D = decompose_into_bounded_paths(G, rng.randint(1, 5))
        r0 = rng.randint(1, 2)
        # a small cap sends edges to the leftovers
        for cap in (rng.randint(1, 4), 3 * n):
            assert (build_matchings_spread(G, D, d, r0, cap)
                    == spread_matchings_by_scan(G, D, d, r0, cap))


def test_first_fit_limits():
    # key "a" allows two uses per slot, key "b" one
    items = [(i, ("a",), ("a",)) for i in range(5)] + [(9, ("b",), ("b",))]
    assert _first_fit(items, 10, {"a": 2}) == ([[0, 1, 9], [2, 3], [4]], [])
    # check and mark differ: 1 does not check "x", 2 does
    items = [(0, (), ("x",)), (1, (), ("x",)), (2, ("x",), ())]
    assert _first_fit(items, 2, {}) == ([[0, 1], [2]], [])
    assert _first_fit(items, 1, {}) == ([[0, 1]], [2])
    assert _first_fit(items, 0, {}) == ([], [0, 1, 2])


def matchings_by_scan(Gp, decomp, cap, dbar=None):
    """build_matchings_basic, or build_matchings_degree when dbar is given,
    as a scan over each open matching's vertex, path and bucket sets, kept
    as a reference for the bitmask slot choice."""
    matchings = []
    leftovers = []
    for e in sorted(Gp.edges):
        pid = decomp.path_id_of(e)
        r = _bucket(dbar[e]) if dbar else None
        for m in matchings:
            if (e[0] in m["verts"] or e[1] in m["verts"] or pid in m["pids"]
                    or (dbar and m["buckets"][r] >= _bucket_quota(r))):
                continue
            break
        else:
            if len(matchings) >= cap:
                leftovers.append(e)
                continue
            m = {"edges": [], "verts": set(), "pids": set(), "buckets": Counter()}
            matchings.append(m)
        m["edges"].append(e)
        m["verts"].update(e)
        m["pids"].add(pid)
        m["buckets"][r] += 1
    return [m["edges"] for m in matchings], leftovers


def groups_by_scan(H1, decomp, L1, L2, d, cap):
    """build_short_path_unions as a scan over each open group's sets."""
    groups = []
    leftovers = []
    for m in _union_members(H1, decomp, L1, L2):
        edges = [(m[i], m[i + 1]) for i in range(len(m) - 1)]
        pids = {decomp.path_id_of(e) for e in edges}
        for g in groups:
            if (len(g["members"]) >= d or set(m) & g["verts"]
                    or pids & g["pids"]):
                continue
            break
        else:
            if len(groups) >= cap:
                leftovers.append(m)
                continue
            g = {"members": [], "verts": set(), "pids": set()}
            groups.append(g)
        g["members"].append(m)
        g["verts"].update(m)
        g["pids"].update(pids)
    return [g["members"] for g in groups], leftovers


def test_matchings_match_scan():
    rng = random.Random(12)
    leftover_runs = 0
    for trial in range(40):
        n = rng.randint(2, 40)
        G = generate("gnp", n, rng.choice([0.1, 0.4, 0.8]), seed=400 + trial)
        if not G.edges:
            continue
        D = decompose_into_paths(G)
        # scaled degrees reach quotas above 1 (2^r > 200 from r = 8 on)
        scale = rng.choice([1, 50, 400])
        dbar = {e: scale * min(G.degree(e[0]), G.degree(e[1])) for e in G.edges}
        for cap in (1, rng.randint(2, 5), 3 * n):
            basic = build_matchings_basic(G, D, cap)
            assert basic == matchings_by_scan(G, D, cap)
            degree = build_matchings_degree(G, D, dbar, cap)
            assert degree == matchings_by_scan(G, D, cap, dbar)
            leftover_runs += bool(basic[1]) + bool(degree[1])
    assert leftover_runs > 0


def test_groups_match_scan():
    hub = four_hub_graph()
    L1 = set(range(4))
    L2 = set(range(4, 14))
    H1 = Graph(hub.n, [e for e in hub.edges if e[1] in L2], live=hub.live)
    rng = random.Random(13)
    cases = [(H1, L1, L2)]
    for trial in range(20):
        G = generate("gnp", rng.randint(6, 30), 0.5, seed=500 + trial)
        L1 = set(rng.sample(G.vertices(), 3))
        L2 = {v for v in G.vertices() if v not in L1
              and sum(1 for w in G.neighbors(v) if w in L1) >= 2}
        cases.append((G, L1, L2))
    for H, L1, L2 in cases:
        for dpath in (1, 3):
            D = decompose_into_bounded_paths(H, dpath)
            for d, cap in ((1, 100), (2, 3), (3, 10 ** 6), (5, 1)):
                assert (build_short_path_unions(H, D, L1, L2, d, cap)
                        == groups_by_scan(H, D, L1, L2, d, cap))


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
    st = separate_dense_expander(H, seed=1)
    assert st.system.target == H.edges
    assert not st.residual.edges


def test_separate_high_degree_hub():
    # a full-degree hub in a graph sparse enough that d^7 stays below n
    edges = [(0, v) for v in range(1, 200)] + [(i, i + 1) for i in range(1, 11)]
    G = Graph(200, edges)
    d = G.avg_degree()
    assert max(2.0, d) ** 7 <= len(G)
    st = separate_high_degree(G, d)
    assert 0 not in st.residual.live
    assert all(0 in e or (e[0] != 0 and e[1] != 0) for e in st.system.target)
    hub_edges = {e for e in G.edges if 0 in e}
    assert hub_edges <= st.system.target


def test_separate_high_degree_trivial_when_no_l1():
    G = generate("cycle", 12)
    st = separate_high_degree(G, G.avg_degree())
    assert not st.system.target and st.residual.edges == G.edges


def test_separate_sparse_expander_cycle():
    J = generate("cycle", 60)
    st = separate_sparse_expander(J, 4)
    assert st.system.target == J.edges


def test_reduce_small_deg_identity_below_floor():
    G = generate("cycle", 20)
    st, small = reduce_small_deg(G)
    assert st.residual.edges == G.edges and not small


def test_degree_threshold_is_n_above_floor():
    # why reduce_small_deg runs no high-degree step: a level has
    # d >= DEGREE_FLOOR, so no vertex of a part reaches the threshold
    for d in (DEGREE_FLOOR, 16.5, 40.0, 1000.0):
        for n in (1, 2, 17, 10**6, 16**7 - 1):
            assert degree_threshold(d, n) == n


def test_reduce_small_deg_runs_dense():
    G = generate("gnp", 60, 0.5, seed=6)
    st, small = reduce_small_deg(G)
    assert sum(len(F) for F in small) <= 4 * len(G)
    seen = set(st.system.target) | set(st.residual.edges)
    for F in small:
        seen |= F.edges
    assert seen == G.edges


def test_reduce_large_deg_partition():
    G = generate("gnp", 40, 0.4, seed=8)
    st = reduce_large_deg(G, seed=2)
    assert st.system.target | st.residual.edges == G.edges


def test_one_step_accounting():
    G = generate("gnp", 80, 0.4, seed=9)
    st = one_step(G, seed=3)
    assert st.system.target | st.residual.edges == G.edges
    assert not st.system.target & st.residual.edges


def test_separate_all_small_graphs():
    for G in (generate("complete", 3), Graph(4, []), generate("path", 5)):
        system, report = separate_all(G, seed=0)
        assert len(system) <= max(1, G.num_edges())
        assert verify_separation(system).ok


def test_separate_all_size_ceiling_and_validity():
    for desc, G in [
        ("gnp", generate("gnp", 60, 0.4, seed=12)),
        ("grid", generate("grid", 7, 7)),
        ("regular", generate("random_regular", 50, 4, seed=1)),
    ]:
        system, report = separate_all(G, seed=0)
        assert verify_separation(system).ok, desc
        assert len(system) <= G.num_edges(), desc


def test_separate_all_deterministic():
    G = generate("gnp", 50, 0.5, seed=14)
    s1, r1 = separate_all(G, seed=5)
    s2, r2 = separate_all(G, seed=5)
    assert [p.vertices for p in s1.paths] == [p.vertices for p in s2.paths]
    assert r1.to_csv() == r2.to_csv()
    assert r1.selected == r2.selected


def count_singleton_builds(monkeypatch):
    calls = []

    def counting(G):
        calls.append(G)
        return singleton_baseline(G)

    monkeypatch.setattr("seppath.strategies.singleton_baseline", counting)
    return calls


def report_row(report, tag):
    return next(row for row in report.rows if row[1] == tag)


def test_separate_all_sizes_the_singleton_candidate(monkeypatch):
    # on sparse inputs no level runs and the bit code is skipped; the
    # singleton row reads e(G) although the singleton system is not built
    calls = count_singleton_builds(monkeypatch)
    for G in (generate("grid", 9, 9), generate("hypercube", 7),
              generate("random_regular", 80, 4, seed=2)):
        system, report = separate_all(G, seed=0)
        assert report.selected == "pipeline"
        assert report_row(report, "candidate:singleton-baseline")[3] == G.num_edges()
        assert report_row(report, "bound:bitcode-baseline")
    assert calls == []


def doubled_step(G, seed):
    """A verified level that spends two single-edge paths on every edge."""
    paths = [Path(e) for e in sorted(G.edges)] * 2
    return StageResult(G, paths, G.edges, Graph._view(G.n, set(), G.live), 0,
                       "one-step", source=G)


def force_singletons(monkeypatch):
    # hypercube(8) has e = 1024 and a bit-code bound of 1122, so the bit
    # code is skipped; one doubled level makes the pipeline 2048 paths
    monkeypatch.setattr("seppath.strategies.DEGREE_FLOOR", 0.0)
    monkeypatch.setattr("seppath.strategies.one_step", doubled_step)
    return generate("hypercube", 8)


def test_separate_all_builds_a_selected_singleton_system(monkeypatch):
    G = force_singletons(monkeypatch)
    calls = count_singleton_builds(monkeypatch)
    system, report = separate_all(G, seed=0)
    assert calls == [G]
    assert report.selected == "singleton-baseline"
    assert system_to_text(system) == system_to_text(singleton_baseline(G))
    assert report_row(report, "candidate:pipeline")[3] == 2 * G.num_edges()
    assert report_row(report, "bound:bitcode-baseline")[3] > G.num_edges()
    assert report_row(report, "candidate:singleton-baseline")[3] == G.num_edges()
    assert report.rows[-1][1:4] == ("selected:singleton-baseline", 0,
                                    G.num_edges())


def test_separate_all_verifies_a_selected_singleton_system(monkeypatch):
    G = force_singletons(monkeypatch)

    def corrupted(G):
        # the least edge lies on no path
        return PathSystem(G, [Path(e) for e in sorted(G.edges)[1:]])

    monkeypatch.setattr("seppath.strategies.singleton_baseline", corrupted)
    with pytest.raises(AssertionError,
                       match="selected baseline failed verification"):
        separate_all(G, seed=0)


def test_separate_all_failed_level_names_itself(monkeypatch):
    # an internal check failing inside a level keeps its type and message
    # and gains the level, its seed and the residual's size
    def failing(G, seed):
        raise AssertionError("audit failed")

    monkeypatch.setattr("seppath.strategies.one_step", failing)
    G = generate("gnp", 40, 0.5, seed=0)
    with pytest.raises(AssertionError) as exc:
        separate_all(G, seed=2)
    assert str(exc.value) == ("level 0 (seed 262, 40 vertices, %d edges): "
                              "audit failed" % G.num_edges())
    assert str(exc.value.__cause__) == "audit failed"


def test_separate_all_names_the_failed_sparse_part(monkeypatch):
    # a check failing inside a sparse-expander part names the level, the
    # zero-budget part and the sparse part within it, and keeps the message
    def failing(J, d):
        raise AssertionError("spread matching audit failed")

    monkeypatch.setattr("seppath.strategies.separate_sparse_expander", failing)
    G = generate("gnp", 40, 0.5, seed=0)
    with pytest.raises(AssertionError) as exc:
        separate_all(G, seed=0)
    assert str(exc.value) == ("level 0 (seed 0, 40 vertices, 384 edges): "
                              "sparse-expander part 0.0 (40 vertices, 384 "
                              "edges, d=19.2): spread matching audit failed")
    assert str(exc.value.__cause__.__cause__) == "spread matching audit failed"


def test_separate_all_separates_instance_106001():
    # the benchmark's clustered instance 106001 once overshot the
    # decomposition bound at its second level, in the first dense part
    G = three_block_graph(106001)
    system, _ = separate_all(G, seed=106001)
    assert system.target == G.edges
    assert verify_separation(system).ok


def test_separate_all_names_the_level_of_instance_106001(monkeypatch):
    # a decomposition overshooting the n bound inside a dense part names the
    # level and the part, and keeps the message
    def overshooting(G):
        raise AssertionError("path decomposition produced %d > n = %d paths"
                             % (len(G) + 2, len(G)))

    monkeypatch.setattr("seppath.strategies.decompose_into_paths", overshooting)
    with pytest.raises(AssertionError, match=r"^level 0 \(seed 13886131, 90 "
                       r"vertices, 1261 edges\): dense-expander part 0 \(seed "
                       r"434344292558, 30 vertices, 413 edges\): path "
                       r"decomposition produced 25 > n = 23 paths$"):
        separate_all(three_block_graph(106001), seed=106001)


def test_separate_all_residual_monotone():
    G = generate("gnp", 80, 0.5, seed=15)
    _, report = separate_all(G, seed=0)
    levels = [r for r in report.rows if r[1] == "one-step"]
    sizes = [r[5] for r in levels]
    assert all(b < G.num_edges() for b in sizes[:1])
    assert all(b2 < b1 for b1, b2 in zip(sizes, sizes[1:]))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch, fail=False):
    """Record each os.fork call in this process; with fail=True each call
    raises OSError, as when no child can be had."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(os.getpid())
        if fail:
            raise OSError(errno.EAGAIN, "no child")
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.mark.parametrize("G, seed", [
    (generate("gnp", 100, 0.3, seed=1), 1),
    (three_block_graph(1001), 1001),
])
def test_bitcode_worker_matches_the_inline_bitcode(monkeypatch, G, seed):
    # the bit code built in the forked child is the one built inline, path
    # for path, and it is selected with the same report
    forks = count_forks(monkeypatch)
    system, report = separate_all(G, seed=seed)
    assert forks == [os.getpid()]
    assert_no_child_left()
    assert report.selected == "bitcode-baseline"
    assert ([p.vertices for p in system.paths]
            == [p.vertices for p in baseline_nlogn(G).paths])
    monkeypatch.setattr("seppath.strategies._usable_cpus", lambda: 1)
    inline, inline_report = separate_all(G, seed=seed)
    assert forks == [os.getpid()]
    assert system_to_text(inline) == system_to_text(system)
    assert inline_report.to_csv() == report.to_csv()


def test_bitcode_worker_failure_names_the_instance(monkeypatch):
    # the child runs the patched builder, fails, and the parent names it
    def failing(G):
        raise RuntimeError("bit code failed")

    monkeypatch.setattr("seppath.strategies.baseline_nlogn", failing)
    G = generate("gnp", 100, 0.3, seed=1)
    with pytest.raises(AssertionError, match=r"^bit-code worker failed \(exit "
                       r"code 1, 0 bytes read\) on 100 vertices, %d edges, "
                       r"seed 1$" % G.num_edges()):
        separate_all(G, seed=1)
    assert_no_child_left()


@pytest.mark.parametrize("error", [AssertionError("audit failed"),
                                   KeyboardInterrupt()])
def test_pipeline_error_reaps_the_bitcode_worker(monkeypatch, error):
    def failing(G, seed):
        raise error

    forks = count_forks(monkeypatch)
    monkeypatch.setattr("seppath.strategies.one_step", failing)
    with pytest.raises(type(error)):
        separate_all(generate("gnp", 100, 0.3, seed=1), seed=1)
    assert len(forks) == 1
    assert_no_child_left()


def test_bitcode_worker_cancelled_when_its_bound_loses(monkeypatch):
    # gnp(40, 0.5) runs a level that separates nothing, so the pipeline
    # has e(G) paths and a bound of e(G) leaves the bit code no chance
    forks = count_forks(monkeypatch)
    monkeypatch.setattr("seppath.strategies.bitcode_lower_bound",
                        lambda G: G.num_edges())
    G = generate("gnp", 40, 0.5, seed=1)
    system, report = separate_all(G, seed=0)
    assert len(forks) == 1
    assert_no_child_left()
    assert report.selected == "pipeline"
    assert report_row(report, "bound:bitcode-baseline")[3] == G.num_edges()
    assert not any(row[1] == "candidate:bitcode-baseline" for row in report.rows)


def test_bitcode_built_inline_where_no_worker_starts(monkeypatch):
    # a failed fork and an input on which no level runs build the bit code
    # inline (one usable CPU: test_bitcode_worker_matches_the_inline_bitcode)
    forks = count_forks(monkeypatch, fail=True)
    K = generate("complete", 20)
    system, report = separate_all(K, seed=0)
    assert len(forks) == 1   # K20's degree 19 lets level 0 start
    assert report.selected == "bitcode-baseline"
    assert system_to_text(system) == system_to_text(baseline_nlogn(K))
    sparse = generate("gnp", 100, 0.1, seed=1)
    _, report = separate_all(sparse, seed=0)
    assert len(forks) == 1
    assert report_row(report, "candidate:bitcode-baseline")[3] == len(
        baseline_nlogn(sparse))
    assert_no_child_left()


@pytest.mark.parametrize("G, seed", [
    (generate("gnp", 60, 0.5, seed=16), 0),
    (three_block_graph(1001), 1001),
])
def test_pipeline_is_the_union_of_its_leaf_systems(monkeypatch, G, seed):
    # the pipeline candidate adds nothing to the leaf systems but the
    # singleton tail: each leaf system lies inside its part, and the parts
    # of all levels are edge-disjoint
    leaves = []

    def recording(stage):
        def run(part, arg):
            st = stage(part, arg)
            leaves.append((part, st))
            return st
        return run

    for stage in (separate_sparse_expander, separate_dense_expander):
        monkeypatch.setattr("seppath.strategies." + stage.__name__,
                            recording(stage))
    _, report = separate_all(G, seed=seed)
    assert leaves
    seen = set()
    for part, st in leaves:
        for p in st.system.paths:
            assert part.edges.issuperset(p.edges())
        assert seen.isdisjoint(part.edges)
        seen |= part.edges
    rows = {r[1]: r[3] for r in report.rows}
    assert rows["candidate:pipeline"] == (
        sum(len(st.system) for _, st in leaves) + rows["singleton-tail"])


def test_separate_all_verifies_each_separator_result_once(monkeypatch):
    # the separators verify their results; the compositions only check
    # partitions, and separate_all verifies the pipeline and the selected
    # baseline
    calls = Counter()

    def counting(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr("seppath.strategies." + name, run)

    for fn in (verify_separation, separate_sparse_expander,
               separate_dense_expander, separate_high_degree):
        counting(fn.__name__, fn)
    _, report = separate_all(three_block_graph(1001), seed=1001)
    separator_calls = sum(k for name, k in calls.items()
                          if name.startswith("separate_"))
    assert calls["separate_dense_expander"] > 0
    assert report.selected != "pipeline"
    assert calls["verify_separation"] == separator_calls + 2


def test_separator_verification_failure_names_level_and_part(monkeypatch):
    # a dense-expander result that misses an edge fails its own
    # verification, and the message names the level and the part
    def dropping(host, removed, V1, V2, seed):
        paths, fb = _separate_within(host, removed, V1, V2, seed)
        e = min(host.edges)
        return [p for p in paths if e not in p.edges()], fb

    monkeypatch.setattr("seppath.strategies._separate_within", dropping)
    with pytest.raises(AssertionError, match=r"^level 0 \(seed 131131, 90 "
                       r"vertices, \d+ edges\): dense-expander part 0 \(seed "
                       r"\d+, \d+ vertices, \d+ edges\): stage dense-expander "
                       r"failed verification, witness \(\(\d+, \d+\), "):
        separate_all(three_block_graph(1001), seed=1001)


def test_separator_partition_check_still_raises(monkeypatch):
    # a leaf whose residual keeps its target edges fails the partition check
    H = generate("gnp", 20, 0.5, seed=3)
    monkeypatch.setattr("seppath.strategies.Graph",
                        lambda n, edges, live=None: H)
    with pytest.raises(AssertionError,
                       match="^stage dense-expander target overlaps residual$"):
        separate_dense_expander(H, seed=1)


def drop_first_sparse_edge(monkeypatch):
    # separate_sparse_expander, unverified once it returns: its first result
    # loses every path through its least edge
    dropped = []

    def dropping(J, d):
        st = separate_sparse_expander(J, d)
        if dropped:
            return st
        e = min(J.edges)
        dropped.append(e)
        paths = [p for p in st.system.paths if e not in p.edges()]
        return StageResult(J, paths, st.system.target, st.residual,
                           st.fallback_count, st.stage_tag, source=J)

    monkeypatch.setattr("seppath.strategies.separate_sparse_expander", dropping)
    return generate("gnp", 40, 0.5, seed=0), "level 0", dropped


def drop_first_tail_singleton(monkeypatch):
    # the singleton path of the tail's least edge becomes that of the next
    def shifted(vs):
        return Path((1, 2) if tuple(vs) == (0, 1) else vs)

    monkeypatch.setattr("seppath.strategies.Path", shifted)
    return generate("cycle", 8), "singleton-tail", [(0, 1)]


@pytest.mark.parametrize("fault", [drop_first_sparse_edge,
                                   drop_first_tail_singleton])
def test_pipeline_verification_failure_names_the_level(monkeypatch, fault):
    # a fault that only the composition shows surfaces in separate_all's
    # final verification, which names where the witness's first edge lies
    G, where, dropped = fault(monkeypatch)
    with pytest.raises(AssertionError) as exc:
        separate_all(G, seed=0)
    assert str(exc.value).startswith(
        "pipeline output failed verification at %s, witness (%r, "
        % (where, dropped[0]))


def test_separate_all_audits_ran(monkeypatch):
    calls = record_audit_calls(monkeypatch)
    G = generate("gnp", 60, 0.5, seed=16)
    separate_all(G, seed=0)
    assert sum(calls.values()) > 0


def test_report_csv_shape():
    G = generate("gnp", 40, 0.4, seed=18)
    _, report = separate_all(G, seed=0)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "level,stage_tag,part_count,system_size,fallback_count,residual_edges,elapsed_ms"
    assert any("selected:" in ln for ln in lines)
    for ln in lines[1:]:
        assert len(ln.split(",")) == 7


# The four audit bodies as they were written out one by one, kept as
# references for _audit_slots.

def ref_audit_matchings_basic(decomp_paths, matchings):
    owner = {}
    for pid, p in enumerate(decomp_paths):
        for e in p.edges():
            owner[e] = pid
    for M in matchings:
        verts = set()
        pids = set()
        for e in M:
            if verts & set(e):
                return False
            verts |= set(e)
            pid = owner.get(e)
            if pid is None or pid in pids:
                return False
            pids.add(pid)
    return True


def ref_audit_matchings_degree(host, decomp_paths, matchings):
    if not ref_audit_matchings_basic(decomp_paths, matchings):
        return False
    for M in matchings:
        buckets = Counter()
        for e in M:
            r = _bucket(min(host.degree(e[0]), host.degree(e[1])))
            buckets[r] += 1
        if any(buckets[r] > _bucket_quota(r) for r in buckets):
            return False
    return True


def ref_audit_matchings_spread(G, decomp_paths, matchings, d, r0):
    owner = {}
    for pid, p in enumerate(decomp_paths):
        for e in p.edges():
            owner[e] = pid
    for M in matchings:
        if len(M) > d:
            return False
        balls = []
        for e in M:
            pv = set(decomp_paths[owner[e]].vertices)
            balls.append((pv, ball(G, pv, 2 * r0 - 1)))
        for i in range(len(M)):
            for j in range(i + 1, len(M)):
                if balls[i][0] & balls[j][1]:
                    return False
    return True


def ref_audit_groups(decomp_paths, groups):
    owner = {}
    for pid, p in enumerate(decomp_paths):
        for e in p.edges():
            owner[e] = pid
    for g in groups:
        verts = set()
        pids = set()
        for m in g:
            if verts & set(m):
                return False
            verts |= set(m)
            for i in range(len(m) - 1):
                e = (m[i], m[i + 1]) if m[i] < m[i + 1] else (m[i + 1], m[i])
                pid = owner.get(e)
                if pid is None or pid in pids:
                    return False
                pids.add(pid)
    return True


def audit_pairs():
    """Audit kind -> (audit, reference), both with the host arguments of
    audit_fixture bound; the spread pair with d = 3 and r0 = 2."""
    G, P, far, far_paths = audit_fixture()
    return {
        "basic": (lambda s: audit_matchings_basic(P, s),
                  lambda s: ref_audit_matchings_basic(P, s)),
        "degree": (lambda s: audit_matchings_degree(G, P, s),
                   lambda s: ref_audit_matchings_degree(G, P, s)),
        "spread": (lambda s: audit_matchings_spread(far, far_paths, s, 3, 2),
                   lambda s: ref_audit_matchings_spread(far, far_paths, s, 3, 2)),
        "groups": (lambda s: audit_groups(P, s),
                   lambda s: ref_audit_groups(P, s)),
    }


def audit_fixture():
    # P0 = 0-1-2-3, P1 = 4-5-6-7, P2 = 1-5; every degree is at most 3, so
    # each bucket allows one edge per matching
    P = [Path([0, 1, 2, 3]), Path([4, 5, 6, 7]), Path([1, 5])]
    G = Graph(8, [e for p in P for e in p.edges()])
    # the path 0-...-18 cut into paths; {0,1}, {5,6}, {10,11} and {15,16}
    # lie 4 apart in turn, and {4,5} and {9,10} lie 3 from their neighbours
    # on the left
    far = generate("path", 19)
    far_paths = [Path([0, 1]), Path([4, 5]), Path([5, 6]), Path([9, 10]),
                 Path([10, 11]), Path([15, 16]), Path([1, 2, 3, 4]),
                 Path([6, 7, 8, 9]), Path([11, 12, 13, 14, 15]),
                 Path([16, 17, 18])]
    return G, P, far, far_paths


# (audit, slots): each holds one slot that breaks the audit's rule
BAD_SLOTS = [
    ("basic", [[(0, 1), (1, 5)]]),            # two edges share a vertex
    ("basic", [[(0, 1), (2, 3)]]),            # two edges of path P0
    ("basic", [[(0, 2)]]),                    # a non-edge
    ("basic", [[(4, 5)], [(0, 1), (1, 5)]]),  # a bad second matching
    ("degree", [[(0, 1), (1, 5)]]),
    ("degree", [[(0, 1), (2, 3)]]),
    ("degree", [[(0, 2)]]),
    ("degree", [[(0, 1), (4, 5)]]),           # bucket 1 over its quota 1
    ("spread", [[(0, 1), (5, 6), (10, 11), (15, 16)]]),  # d + 1 edges
    ("spread", [[(0, 1), (4, 5)]]),           # paths at distance 3 < 2*r0
    ("spread", [[(4, 5), (0, 1)]]),
    ("spread", [[(0, 1), (5, 6), (9, 10)]]),  # the later two too close
    ("spread", [[(9, 10)], [(5, 6), (1, 2)]]),
    ("groups", [[(0, 1, 5), (5, 6)]]),        # members share vertex 5
    ("groups", [[(0, 1), (3, 2)]]),           # member edges share path P0
    ("groups", [[(0, 1, 2)]]),                # one member, both edges on P0
    ("groups", [[(6, 7), (1, 0)], [(3, 2, 1)]]),
    ("groups", [[(0, 3)]]),                   # a non-edge
]

GOOD_SLOTS = [
    ("basic", [[(0, 1), (4, 5)], [(1, 5), (2, 3)]]),
    ("degree", [[(1, 2), (4, 5)], [(1, 5)]]),
    ("spread", [[(0, 1), (5, 6), (10, 11)], [(15, 16), (9, 10), (4, 5)],
                [(1, 2)]]),
    ("groups", [[(2, 1, 5), (6, 7)], [(3, 2), (5, 4)]]),
]


@pytest.mark.parametrize("kind,slots", BAD_SLOTS)
def test_audits_reject_bad_slots(kind, slots):
    audit, ref = audit_pairs()[kind]
    assert ref(slots) is False
    assert audit(slots) is False


@pytest.mark.parametrize("kind,slots", GOOD_SLOTS)
def test_audits_accept_good_slots(kind, slots):
    audit, ref = audit_pairs()[kind]
    assert ref(slots) is True
    assert audit(slots) is True


def test_close_or_singletons_counts_pieces_not_paths():
    # the closed path 0-1-2-3 runs over (1, 2), which is not in its piece:
    # (1, 2) still gets its one-edge path, as does the failed piece's edge
    closed = [([(0, 1), (2, 3)], Path([0, 1, 2, 3])), ([(4, 5)], None)]
    paths, fb = _close_or_singletons(closed, {(0, 1), (1, 2), (2, 3), (4, 5)})
    assert [p.vertices for p in paths] == [(0, 1, 2, 3), (1, 2), (4, 5)]
    assert fb == 2


def random_slots(rng, G, members):
    """Slots from members, mostly spread over few slots so that many break
    a rule, sometimes with a non-edge of G mixed in."""
    slots = [[] for _ in range(rng.randint(1, 4))]
    for m in rng.sample(members, min(len(members), rng.randint(1, 8))):
        rng.choice(slots).append(m)
    if rng.random() < 0.2:
        u, v = rng.sample(range(G.n), 2)
        if not G.has_edge(u, v):
            rng.choice(slots).append((min(u, v), max(u, v)))
    return [s for s in slots if s]


def test_audits_match_references_on_random_slots():
    rng = random.Random(12)
    seen = Counter()
    for trial in range(150):
        n = rng.randint(4, 30)
        G = generate("gnp", n, rng.choice([0.1, 0.2, 0.4]), seed=500 + trial)
        if not G.edges:
            continue
        D = decompose_into_bounded_paths(G, rng.randint(1, 4))
        edges = sorted(G.edges)
        walks = [(a, u, b) for u in G.vertices() for a in G.neighbors(u)
                 for b in G.neighbors(u) if a < b]
        d, r0 = rng.randint(1, 4), rng.randint(1, 2)
        built, _ = build_matchings_spread(G, D, d, r0, 3 * n)
        for slots in [built] + [random_slots(rng, G, edges) for _ in range(3)]:
            got = audit_matchings_basic(D.paths, slots)
            assert got == ref_audit_matchings_basic(D.paths, slots)
            assert (audit_matchings_degree(G, D.paths, slots)
                    == ref_audit_matchings_degree(G, D.paths, slots))
            try:
                want = ref_audit_matchings_spread(G, D.paths, slots, d, r0)
            except KeyError:
                # the reference looks a non-edge up without a default
                want = False
            spread = audit_matchings_spread(G, D.paths, slots, d, r0)
            assert spread == want
            seen[got, spread] += 1
        for _ in range(3):
            slots = random_slots(rng, G, edges + walks)
            got = audit_groups(D.paths, slots)
            assert got == ref_audit_groups(D.paths, slots)
            seen["groups", got] += 1
    # the slots pass and fail both ways
    assert all(seen[k] > 10 for k in ((True, True), (True, False),
                                      (False, False), ("groups", True),
                                      ("groups", False))), seen
