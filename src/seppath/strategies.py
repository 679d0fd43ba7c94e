"""Separation strategies and their composition into the full pipeline.

Every stage returns a verified StageResult; pairs of edges that land in
different stages are separated by the per-stage decompositions, so the union
of all stage outputs separates the union of their targets.
"""

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, fields, replace

from .connector import (
    CompletionProblem,
    ConnectionRequest,
    complete_to_path,
    connect_pairs_through,
    extend_matching_through_hubs,
)
from .decomp import decompose_into_bounded_paths, decompose_into_paths
from .expander import ExpanderParams, expander_decompose
from .graphs import Graph, Path, ball
from .separation import (
    PathSystem,
    baseline_nlogn,
    singleton_baseline,
    verify_separation,
)

# pass counters for the independent audit passes; tests read these to confirm
# the audits actually ran
audit_counters = Counter()


def reset_audit_counters():
    audit_counters.clear()


def iterated_log(n):
    """Minimal k such that applying log2 k times to n gives a value below 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    x = float(n)
    k = 0
    while x >= 1:
        x = math.log2(x)
        k += 1
    return k


@dataclass(slots=True)
class PipelineConfig:
    """Tuning knobs for the pipeline; every knob must be positive, except
    that extra_levels may be 0."""

    epsilon: float = 1.0 / 48
    s_dense: float = 2.0
    s_sparse: float = 8.0
    d7_exponent: int = 7
    cap_basic_factor: int = 3
    cap_group_factor: int = 12
    cap_spread_factor: int = 3
    retries: int = 20
    degree_floor: float = 16.0
    small_part_threshold: int = 32
    max_connector_len: int = 24
    extra_levels: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value <= 0 and not (f.name == "extra_levels" and value == 0):
                raise ValueError("%s must be positive" % f.name)

    def with_overrides(self, overrides):
        """New config from string key/value overrides; unknown keys rejected."""
        values = {}
        for key, raw in overrides.items():
            if key not in self.FIELDS:
                raise ValueError("unknown config key %r" % key)
            values[key] = self.FIELDS[key](raw)
        return replace(self, **values)

    def degree_threshold(self, d, n):
        """Degree above which a vertex counts as high-degree."""
        return min(max(2.0, d) ** self.d7_exponent, n)


# knob name -> type, in declaration order
PipelineConfig.FIELDS = {f.name: f.type for f in fields(PipelineConfig)}


class StageResult:
    """A verified partial separation: system for its target, the rest residual."""

    __slots__ = ("system", "residual", "fallback_count", "stage_tag", "part_count")

    def __init__(self, system, residual, fallback_count, stage_tag,
                 source=None, part_count=0):
        self.system = system
        self.residual = residual
        self.fallback_count = fallback_count
        self.stage_tag = stage_tag
        self.part_count = part_count
        report = verify_separation(system)
        if not report.ok:
            raise AssertionError("stage %s failed verification, witness %r"
                                 % (stage_tag, report.witness))
        if source is not None:
            if system.target & residual.edges:
                raise AssertionError("stage %s target overlaps residual" % stage_tag)
            if system.target | residual.edges != source.edges:
                raise AssertionError("stage %s loses edges" % stage_tag)


def _empty_stage(G, tag):
    return StageResult(PathSystem(G, [], target=()),
                       G, 0, tag, source=G)


def _min_endpoint_degrees(host, edges):
    return {e: min(host.degree(e[0]), host.degree(e[1])) for e in edges}


def _bucket(dbar):
    # r with dbar in [2^(r-1), 2^r)
    return max(1, int(dbar).bit_length())


def _bucket_quota(r):
    return math.ceil((2 ** r) / 200.0)


def build_matchings_basic(Gp, decomp, cap):
    """
    Greedy matchings covering E(Gp), each meeting every decomposition path in
    at most one edge. Returns (matchings, leftovers) where leftovers are the
    edges that did not fit under the cap.
    """
    matchings = []
    leftovers = []
    for e in sorted(Gp.edges):
        pid = decomp.path_id_of(e)
        placed = False
        for m in matchings:
            if e[0] in m["verts"] or e[1] in m["verts"] or pid in m["pids"]:
                continue
            m["edges"].append(e)
            m["verts"].update(e)
            m["pids"].add(pid)
            placed = True
            break
        if not placed:
            if len(matchings) < cap:
                matchings.append({"edges": [e], "verts": set(e), "pids": {pid}})
            else:
                leftovers.append(e)
    return [m["edges"] for m in matchings], leftovers


def build_matchings_degree(Gp, decomp, dbar, cap):
    """
    As build_matchings_basic, plus a dyadic degree budget: each matching holds
    at most ceil(2^r/200) edges whose min endpoint degree lies in [2^(r-1), 2^r).
    """
    matchings = []
    leftovers = []
    for e in sorted(Gp.edges):
        pid = decomp.path_id_of(e)
        r = _bucket(dbar[e])
        quota = _bucket_quota(r)
        placed = False
        for m in matchings:
            if (e[0] in m["verts"] or e[1] in m["verts"] or pid in m["pids"]
                    or m["buckets"][r] >= quota):
                continue
            m["edges"].append(e)
            m["verts"].update(e)
            m["pids"].add(pid)
            m["buckets"][r] += 1
            placed = True
            break
        if not placed:
            if len(matchings) < cap:
                matchings.append({"edges": [e], "verts": set(e), "pids": {pid},
                                  "buckets": Counter({r: 1})})
            else:
                leftovers.append(e)
    return [m["edges"] for m in matchings], leftovers


def build_matchings_spread(G, decomp, d, r0, cap):
    """
    Matchings of at most d edges whose decomposition paths are pairwise at
    distance >= 2*r0 in G. Conflict zones are tracked per vertex as matching
    bitmasks so placement stays near-linear.
    """
    zone_cache = {}
    zone_mask = {v: 0 for v in G.live}
    counts = []
    out = []
    leftovers = []
    for e in sorted(G.edges):
        pid = decomp.path_id_of(e)
        if pid not in zone_cache:
            pv = set(decomp.paths[pid].vertices)
            zone_cache[pid] = ball(G, pv, 2 * r0 - 1)
        pv = decomp.paths[pid].vertices
        conflict = 0
        for v in pv:
            conflict |= zone_mask[v]
        slot = None
        for i in range(len(out)):
            if counts[i] < d and not (conflict >> i) & 1:
                slot = i
                break
        if slot is None:
            if len(out) < cap:
                slot = len(out)
                out.append([])
                counts.append(0)
            else:
                leftovers.append(e)
                continue
        out[slot].append(e)
        counts[slot] += 1
        bit = 1 << slot
        for v in zone_cache[pid]:
            zone_mask[v] |= bit
    return out, leftovers


def build_short_path_unions(H1, decomp, L1, L2, d, cap):
    """
    Members: for each u in L2, cyclic 2-paths v_i-u-v_(i+1) over its L1
    neighbors (each u-v edge covered twice), ordered so consecutive edges lie
    in different decomposition paths whenever possible; plus the single edges
    inside L1. Groups: at most cap groups of <= d members, vertex-disjoint
    within a group, meeting each decomposition path in at most one edge.
    Returns (groups, leftover_members).
    """
    members = []
    for u in sorted(L2):
        nbrs = [w for w in H1.neighbors(u) if w in L1]
        if len(nbrs) < 2:
            continue
        ordered = _interleave_by_path(u, nbrs, decomp)
        k = len(ordered)
        for i in range(k):
            a, b = ordered[i], ordered[(i + 1) % k]
            if a == b:
                continue
            pa = decomp.path_id_of((u, a))
            pb = decomp.path_id_of((u, b))
            if pa == pb:
                # both edges on one decomposition path: unusable as a member
                continue
            members.append((a, u, b))
    for e in sorted(H1.edges):
        if e[0] in L1 and e[1] in L1:
            members.append(e)
    groups = []
    leftovers = []
    for m in members:
        edges = [(m[i], m[i + 1]) for i in range(len(m) - 1)]
        pids = {decomp.path_id_of(e) for e in edges}
        placed = False
        for g in groups:
            if (len(g["members"]) >= d or set(m) & g["verts"]
                    or pids & g["pids"]):
                continue
            g["members"].append(m)
            g["verts"].update(m)
            g["pids"].update(pids)
            placed = True
            break
        if not placed:
            if len(groups) < cap:
                groups.append({"members": [m], "verts": set(m), "pids": set(pids)})
            else:
                leftovers.append(m)
    return [g["members"] for g in groups], leftovers


def _interleave_by_path(u, nbrs, decomp):
    """Order the neighbors so consecutive edges from u sit on different
    decomposition paths when the multiset allows it."""
    by_pid = {}
    for w in sorted(nbrs):
        by_pid.setdefault(decomp.path_id_of((u, w)), []).append(w)
    pools = sorted(by_pid.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    pools = [list(ws) for _, ws in pools]
    pids = [pid for pid, _ in sorted(by_pid.items(), key=lambda kv: (-len(kv[1]), kv[0]))]
    out = []
    last_pid = None
    remaining = sum(len(p) for p in pools)
    while remaining:
        pick = None
        for i in range(len(pools)):
            if pools[i] and pids[i] != last_pid:
                if pick is None or len(pools[i]) > len(pools[pick]):
                    pick = i
        if pick is None:
            pick = next(i for i in range(len(pools)) if pools[i])
        out.append(pools[pick].pop(0))
        last_pid = pids[pick]
        remaining -= 1
    return out


def audit_matchings_basic(decomp_paths, matchings):
    """Recompute path membership from the raw paths and re-check matchings."""
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
    audit_counters["basic"] += 1
    return True


def audit_matchings_degree(host, decomp_paths, matchings):
    """Basic audit plus the per-bucket degree quota, recomputed from host."""
    if not audit_matchings_basic(decomp_paths, matchings):
        return False
    for M in matchings:
        buckets = Counter()
        for e in M:
            r = _bucket(min(host.degree(e[0]), host.degree(e[1])))
            buckets[r] += 1
        if any(buckets[r] > _bucket_quota(r) for r in buckets):
            return False
    audit_counters["degree"] += 1
    return True


def audit_matchings_spread(G, decomp_paths, matchings, d, r0):
    """Re-check |M| <= d and pairwise path distance >= 2*r0 by fresh BFS."""
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
    audit_counters["spread"] += 1
    return True


def audit_groups(decomp_paths, groups):
    """Members vertex-disjoint within each group; one edge per path per group."""
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
    audit_counters["groups"] += 1
    return True


def _close_matching(host, M, dbar, hubs, pool, target, cfg, seed):
    """
    One path containing exactly the matching M among the target edges:
    extend through unused hub vertices, then close the forest with connectors
    of length >= 2 routed through the pool. None on failure.
    """
    order = sorted(M, key=lambda e: (dbar[e], e))
    mverts = {v for e in M for v in e}
    forest = extend_matching_through_hubs(host, order, hubs - mverts)
    comps = forest.paths
    vs = list(comps[0].vertices)
    if len(comps) > 1:
        pairs = [(comps[i].vertices[-1], comps[i + 1].vertices[0])
                 for i in range(len(comps) - 1)]
        req = ConnectionRequest(host, pool - forest.vertex_set(), pairs,
                                max_len=cfg.max_connector_len, seed=seed,
                                retries=cfg.retries, min_len=2)
        conn = connect_pairs_through(req)
        if conn is None:
            return None
        for i, c in enumerate(conn):
            cv = c.vertices if c.vertices[0] == vs[-1] else c.vertices[::-1]
            vs.extend(cv[1:])
            vs.extend(comps[i + 1].vertices[1:])
    try:
        p = Path(vs)
    except ValueError:
        return None
    if not p.valid_in(host) or set(p.edges()) & target != set(M):
        return None
    return p


def _separate_within(host, removed, V1, V2, cfg, seed):
    """
    Separate E(host - removed): path decomposition plus one closed path per
    degree-budgeted matching; matchings that fail to close fall back to
    singleton paths. Returns (paths, target_edges, fallback_count).
    """
    Gp = host.without(vertices=removed)
    target = set(Gp.edges)
    if not target:
        return [], target, 0
    decomp = decompose_into_paths(Gp)
    paths = list(decomp.paths)
    dbar = _min_endpoint_degrees(host, target)
    cap = cfg.cap_basic_factor * max(1, len(host))
    matchings, leftovers = build_matchings_degree(Gp, decomp, dbar, cap)
    if not audit_matchings_degree(host, decomp.paths, matchings):
        raise AssertionError("degree matching audit failed")
    singles = set(leftovers)
    for mi, M in enumerate(matchings):
        if len(M) == 1:
            paths.append(Path(M[0]))
            continue
        p = _close_matching(host, M, dbar, V1, V2, target, cfg,
                            seed * 65537 + mi)
        if p is None:
            singles.update(M)
        else:
            paths.append(p)
    paths.extend(Path(e) for e in sorted(singles))
    return paths, target, len(singles)


def separate_dense_expander(H, cfg, seed):
    """Random tripartition; for each class, separate the graph away from it.
    Every edge avoids some class, so the union covers E(H)."""
    if not H.edges:
        return _empty_stage(H, "dense-expander")
    # the "0" is part of the seed string: dropping it changes every tripartition
    rng = random.Random("tripart:0:%d" % seed)
    cls = {v: rng.randrange(3) for v in H.vertices()}
    paths = []
    fb = 0
    for i in range(3):
        Vi = {v for v, c in cls.items() if c == i}
        V1, V2 = set(), set()
        for v in sorted(Vi):
            (V1 if rng.random() < 0.5 else V2).add(v)
        run_paths, _, run_fb = _separate_within(H, Vi, V1, V2, cfg,
                                                rng.randrange(1 << 30))
        paths.extend(run_paths)
        fb += run_fb
    system = PathSystem(H, paths, target=H.edges)
    empty = Graph(H.n, [], live=H.live)
    return StageResult(system, empty, fb, "dense-expander", source=H)


def reduce_large_deg(G, cfg, seed):
    """Expander-decompose with the dense edge budget; separate each part and
    add its decomposition; the uncovered edges become the residual."""
    if not G.edges:
        return _empty_stage(G, "reduce-large-deg")
    n = len(G)
    params = ExpanderParams(cfg.epsilon, s=cfg.s_dense,
                            t=max(1.0, 2 * n / 3))
    D = expander_decompose(G, params)
    paths = []
    fb = 0
    for k, H in enumerate(D.parts):
        st = separate_dense_expander(H, cfg, seed * 1009 + k)
        paths.extend(st.system.paths)
        paths.extend(decompose_into_paths(H).paths)
        fb += st.fallback_count
    target = G.edges - D.uncovered
    system = PathSystem(G, paths, target=target)
    residual = Graph(G.n, D.uncovered, live=G.live)
    return StageResult(system, residual, fb, "reduce-large-deg", source=G,
                       part_count=len(D.parts))


def _complete_members(host, members, decomp, cfg):
    """
    One path through the members (vertex sequences) that avoids the other
    edges of their decomposition paths and the ends of those edges; None
    when completion fails.
    """
    medges = {e for m in members for e in Path(m).edges()}
    blocked = set()
    for e in medges:
        blocked |= set(decomp.path_of(e).edges())
    forbidden_edges = blocked - medges
    mverts = {v for m in members for v in m}
    forbidden_vertices = {v for e in forbidden_edges for v in e} - mverts
    try:
        prob = CompletionProblem(
            host, [Path(m) for m in members],
            forbidden_edges=forbidden_edges,
            forbidden_vertices=forbidden_vertices,
            limits={"max_connector_len": cfg.max_connector_len})
        return complete_to_path(prob)
    except ValueError:
        return None


def separate_high_degree(G, d, cfg):
    """
    Separate every edge touching the high-degree vertices L1: bounded
    decomposition of the L1/L2 subgraph, short-path-union groups completed to
    paths avoiding their decomposition mates, plus singletons for the edges
    from L1 to the rest. Residual = G - L1.
    """
    n = len(G)
    threshold = cfg.degree_threshold(d, n)
    L1 = {v for v in G.vertices() if G.degree(v) >= threshold}
    if not L1:
        return _empty_stage(G, "high-degree")
    L2 = {v for v in G.vertices()
          if v not in L1 and sum(1 for w in G.neighbors(v) if w in L1) >= 4}
    h1_edges = {e for e in G.edges
                if (e[0] in L1 and e[1] in L1)
                or (e[0] in L1 and e[1] in L2) or (e[1] in L1 and e[0] in L2)}
    h2_edges = {e for e in G.edges
                if (e[0] in L1 or e[1] in L1) and e not in h1_edges}
    d_int = max(1, int(d))
    H1 = Graph(G.n, h1_edges, live=G.live)
    paths = []
    singles = set()
    if h1_edges:
        P1 = decompose_into_bounded_paths(H1, d_int)
        paths.extend(P1.paths)
        cap = cfg.cap_group_factor * max(n, math.ceil(len(G.edges) / d_int))
        groups, leftover_members = build_short_path_unions(
            H1, P1, L1, L2, d_int, cap)
        if not audit_groups(P1.paths, groups):
            raise AssertionError("group audit failed")
        covered = set()
        for g in groups:
            gedges = {e for m in g for e in Path(m).edges()}
            p = _complete_members(G, g, P1, cfg)
            if p is None:
                singles.update(gedges)
            else:
                paths.append(p)
                covered |= gedges
        singles |= h1_edges - covered
        singles -= covered
    paths.extend(Path(e) for e in sorted(singles))
    paths.extend(Path(e) for e in sorted(h2_edges))
    target = h1_edges | h2_edges
    system = PathSystem(G, paths, target=target)
    residual = G.without(vertices=L1)
    return StageResult(system, residual, len(singles), "high-degree", source=G)


def separate_sparse_expander(J, d, cfg):
    """Bounded decomposition plus one completed path per spread matching;
    matchings whose completion fails fall back to singletons."""
    if not J.edges:
        return _empty_stage(J, "sparse-expander")
    d_int = max(1, int(d))
    P = decompose_into_bounded_paths(J, d_int)
    r0 = max(2, math.ceil(math.log2(math.log2(d + 2))))
    cap = cfg.cap_spread_factor * max(len(J), math.ceil(len(J.edges) / d_int))
    matchings, leftovers = build_matchings_spread(J, P, d_int, r0, cap)
    if not audit_matchings_spread(J, P.paths, matchings, d_int, r0):
        raise AssertionError("spread matching audit failed")
    paths = list(P.paths)
    singles = set(leftovers)
    for M in matchings:
        p = _complete_members(J, M, P, cfg)
        if p is None:
            singles.update(M)
        else:
            paths.append(p)
    paths.extend(Path(e) for e in sorted(singles))
    system = PathSystem(J, paths, target=J.edges)
    empty = Graph(J.n, [], live=J.live)
    return StageResult(system, empty, len(singles), "sparse-expander", source=J)


def reduce_small_deg(G, cfg, seed):
    """
    Split into expanders with zero deletion budget; per part, peel off the
    high-degree edges, then re-split the rest with the sparse budget. Large
    sub-parts are separated here; small ones are returned for the dense
    treatment; uncovered edges accumulate into the residual.
    """
    d = G.avg_degree()
    n = max(1, len(G))
    if not G.edges or d < cfg.degree_floor:
        return _empty_stage(G, "reduce-small-deg"), []
    p0 = ExpanderParams(cfg.epsilon, s=0.0, t=1.0)
    D0 = expander_decompose(G, p0)
    paths = []
    fb = 0
    small = []
    separated = set()
    residual_edges = set()
    part_count = len(D0.parts)
    for H in D0.parts:
        st1 = separate_high_degree(H, d, cfg)
        paths.extend(st1.system.paths)
        fb += st1.fallback_count
        separated |= st1.system.target
        R = st1.residual
        if not R.edges:
            continue
        p1 = ExpanderParams(cfg.epsilon, s=cfg.s_sparse, t=max(1.0, d))
        D1 = expander_decompose(R, p1)
        part_count += len(D1.parts)
        residual_edges |= D1.uncovered
        for F in D1.parts:
            if len(F) >= cfg.small_part_threshold:
                st2 = separate_sparse_expander(F, d, cfg)
                paths.extend(st2.system.paths)
                fb += st2.fallback_count
                separated |= st2.system.target
            else:
                small.append(F)
    if sum(len(F) for F in small) > 4 * n:
        raise AssertionError("small parts exceed the 4n size bound")
    system = PathSystem(G, paths, target=separated)
    residual = Graph(G.n, residual_edges, live=G.live)
    return StageResult(system, residual, fb, "reduce-small-deg",
                       part_count=part_count), small


def one_step(G, cfg, seed):
    """One full reduction round: sparse machinery first, dense machinery on
    the small parts it returns; all stage systems unioned."""
    st, small = reduce_small_deg(G, cfg, seed)
    paths = list(st.system.paths)
    fb = st.fallback_count
    target = set(st.system.target)
    residual_edges = set(st.residual.edges)
    parts = st.part_count
    for k, F in enumerate(small):
        st2 = reduce_large_deg(F, cfg, seed * 31 + k + 1)
        paths.extend(st2.system.paths)
        fb += st2.fallback_count
        target |= st2.system.target
        residual_edges |= st2.residual.edges
        parts += st2.part_count
    system = PathSystem(G, paths, target=target)
    residual = Graph(G.n, residual_edges, live=G.live)
    return StageResult(system, residual, fb, "one-step", source=G,
                       part_count=parts)


class RunReport:
    """Row-oriented run log plus the final candidate selection."""

    COLUMNS = ("level", "stage_tag", "part_count", "system_size",
               "fallback_count", "residual_edges", "elapsed_ms")

    __slots__ = ("rows", "selected")

    def __init__(self, rows, selected):
        self.rows = tuple(tuple(r) for r in rows)
        self.selected = selected

    def to_csv(self):
        lines = [",".join(self.COLUMNS)]
        for row in self.rows:
            lines.append(",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


def separate_all(G, cfg=None, seed=0, timings=False):
    """
    Full pipeline: iterate one_step on successive residuals, add the
    per-level decompositions, finish the leftover edges as singletons, and
    return the smallest verified system among the pipeline and the two
    baselines. Output always separates E(G) and never exceeds e(G) paths.
    """
    if cfg is None:
        cfg = PipelineConfig()
    rows = []
    paths = []
    level = 0
    current = G
    max_levels = iterated_log(max(1, len(G))) + cfg.extra_levels
    while (current.edges and current.avg_degree() >= cfg.degree_floor
           and level < max_levels):
        t0 = time.perf_counter()
        st = one_step(current, cfg, seed * 131 + level)
        if not st.system.target:
            break
        added = len(st.system.paths)
        paths.extend(st.system.paths)
        level_target = Graph(G.n, st.system.target, live=G.live)
        inter = decompose_into_paths(level_target)
        paths.extend(inter.paths)
        added += len(inter.paths)
        elapsed = int((time.perf_counter() - t0) * 1000) if timings else 0
        rows.append((level, st.stage_tag, st.part_count, added,
                     st.fallback_count, st.residual.num_edges(), elapsed))
        current = st.residual
        level += 1
    tail = sorted(current.edges)
    paths.extend(Path(e) for e in tail)
    rows.append((level, "singleton-tail", 0, len(tail), len(tail), 0, 0))
    pipeline = PathSystem(G, paths, target=G.edges)
    report = verify_separation(pipeline)
    if not report.ok:
        raise AssertionError("pipeline output failed verification, witness %r"
                             % (report.witness,))
    candidates = [("pipeline", pipeline),
                  ("bitcode-baseline", baseline_nlogn(G)),
                  ("singleton-baseline", singleton_baseline(G))]
    for name, system in candidates:
        rows.append((level, "candidate:" + name, 0, len(system), 0, 0, 0))
    selected_name, selected = min(candidates, key=lambda ns: (len(ns[1]),
                                                              ns[0] != "pipeline"))
    if selected is not pipeline:
        check = verify_separation(selected)
        if not check.ok:
            raise AssertionError("selected baseline failed verification")
    rows.append((level, "selected:" + selected_name, 0, len(selected), 0, 0, 0))
    return selected, RunReport(rows, selected_name)
