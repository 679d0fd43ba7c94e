"""Separation strategies and their composition into the full pipeline.

Each separator verifies its StageResult inside its own host. The separators
run on edge-disjoint parts, so a path through an edge meets no other part,
and the union of their systems separates the union of their targets: the
compositions only check that their parts partition the edges, and
separate_all verifies the system it returns.
"""

import math
import random
import time
from collections import Counter

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
    bitcode_lower_bound,
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


# The pipeline's fixed parameters.
EPSILON = 1.0 / 48          # expansion constant of every expander split
S_DENSE = 2.0               # edge budget factor s of the dense split
S_SPARSE = 8.0              # edge budget factor s of the sparse split
D7_EXPONENT = 7             # high degree: at least min(d^7, n)
CAP_BASIC_FACTOR = 3        # degree matchings per host vertex
CAP_GROUP_FACTOR = 12       # short-path-union groups per max(n, e/d)
CAP_SPREAD_FACTOR = 3       # spread matchings per max(n, e/d)
DEGREE_FLOOR = 16.0         # no level runs below this average degree
SMALL_PART_THRESHOLD = 32   # sparse parts below this size go to the dense stage
EXTRA_LEVELS = 2            # levels allowed beyond log* n


def degree_threshold(d, n):
    """Degree above which a vertex counts as high-degree."""
    return min(max(2.0, d) ** D7_EXPONENT, n)


class StageResult:
    """A partial separation: the system of paths for target in host, the
    rest residual. Target and residual must partition the edges of source,
    when given; _verified checks that a separator's system separates."""

    __slots__ = ("system", "residual", "fallback_count", "stage_tag", "part_count")

    def __init__(self, host, paths, target, residual, fallback_count,
                 stage_tag, source=None, part_count=0):
        self.system = system = PathSystem(host, paths, target=target)
        self.residual = residual
        self.fallback_count = fallback_count
        self.stage_tag = stage_tag
        self.part_count = part_count
        if source is not None:
            if system.target & residual.edges:
                raise AssertionError("stage %s target overlaps residual" % stage_tag)
            if system.target | residual.edges != source.edges:
                raise AssertionError("stage %s loses edges" % stage_tag)


def _empty_stage(G, tag):
    return StageResult(G, [], (), G, 0, tag, source=G)


def _verified(st):
    """A separator's result, once its system separates its target."""
    witness = verify_separation(st.system).witness
    if witness is not None:
        raise AssertionError("stage %s failed verification, witness %r"
                             % (st.stage_tag, witness))
    return st


def _bucket(dbar):
    # r with dbar in [2^(r-1), 2^r)
    return max(1, int(dbar).bit_length())


def _bucket_quota(r):
    return math.ceil((2 ** r) / 200.0)


def _first_fit(items, cap, limits):
    """
    First-fit placement into at most cap slots. Each item comes as
    (item, check, mark): it goes to the lowest slot in which no key of check
    is used up, and then uses up the keys of mark there. A key is used up in
    a slot by its first use, or by its limits[key]-th use when limits names
    it. An item that fits no slot while cap slots are open is a leftover.
    Each key keeps the bitmask of the slots it has used up, so a placement
    costs one OR per key. Returns (slots, leftovers), each slot a list of
    items in placement order.
    """
    used = {}
    uses = Counter()  # (key, slot) -> placements, for the keys in limits
    slots = []
    leftovers = []
    for item, check, mark in items:
        taken = 0
        for k in check:
            taken |= used.get(k, 0)
        slot = (~taken & (taken + 1)).bit_length() - 1
        if slot == len(slots):
            if slot >= cap:
                leftovers.append(item)
                continue
            slots.append([])
        slots[slot].append(item)
        bit = 1 << slot
        for k in mark:
            if k in limits:
                uses[k, slot] += 1
                if uses[k, slot] < limits[k]:
                    continue
            used[k] = used.get(k, 0) | bit
    return slots, leftovers


def build_matchings_basic(Gp, decomp, cap):
    """
    Greedy matchings covering E(Gp), each meeting every decomposition path in
    at most one edge. Returns (matchings, leftovers) where leftovers are the
    edges that did not fit under the cap.
    """
    items = []
    for e in sorted(Gp.edges):
        keys = (e[0], e[1], ("path", decomp.path_id_of(e)))
        items.append((e, keys, keys))
    return _first_fit(items, cap, {})


def build_matchings_degree(Gp, decomp, dbar, cap):
    """
    As build_matchings_basic, plus a dyadic degree budget: each matching holds
    at most ceil(2^r/200) edges whose min endpoint degree lies in [2^(r-1), 2^r).
    """
    items = []
    limits = {}
    for e in sorted(Gp.edges):
        bucket = ("bucket", _bucket(dbar[e]))
        limits[bucket] = _bucket_quota(bucket[1])
        keys = (e[0], e[1], ("path", decomp.path_id_of(e)), bucket)
        items.append((e, keys, keys))
    return _first_fit(items, cap, limits)


def build_matchings_spread(G, decomp, d, r0, cap):
    """
    Matchings of at most d edges whose decomposition paths are pairwise at
    distance >= 2*r0 in G: an edge checks its path's vertices and marks the
    path's zone, the ball of radius 2*r0-1 around it.
    """
    keys = {}  # pid -> (check, mark)
    items = []
    for e in sorted(G.edges):
        pid = decomp.path_id_of(e)
        if pid not in keys:
            pv = decomp.paths[pid].vertices
            zone = ball(G, set(pv), 2 * r0 - 1)
            keys[pid] = (tuple(pv) + ("size",), tuple(zone) + ("size",))
        items.append((e,) + keys[pid])
    return _first_fit(items, cap, {"size": d})


def _union_members(H1, decomp, L1, L2):
    """
    For each u in L2, cyclic 2-paths v_i-u-v_(i+1) over its L1 neighbors
    (each u-v edge covered twice), ordered so consecutive edges lie in
    different decomposition paths whenever possible; then the single edges
    inside L1.
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
    return members


def build_short_path_unions(H1, decomp, L1, L2, d, cap):
    """
    Groups the members of _union_members: at most cap groups of <= d members,
    vertex-disjoint within a group, meeting each decomposition path in at
    most one edge. Returns (groups, leftover_members).
    """
    items = []
    for m in _union_members(H1, decomp, L1, L2):
        pids = {("path", decomp.path_id_of((m[i], m[i + 1])))
                for i in range(len(m) - 1)}
        keys = (*m, *pids, "size")
        items.append((m, keys, keys))
    return _first_fit(items, cap, {"size": d})


def _interleave_by_path(u, nbrs, decomp):
    """Order the neighbors so consecutive edges from u sit on different
    decomposition paths when the multiset allows it."""
    by_pid = {}
    for w in sorted(nbrs):
        by_pid.setdefault(decomp.path_id_of((u, w)), []).append(w)
    ranked = sorted(by_pid.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    pools = [ws for _, ws in ranked]
    pids = [pid for pid, _ in ranked]
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


def _edges_of(member):
    """The canonical edges of a member (a vertex sequence) of a matching or
    group."""
    return [(a, b) if a < b else (b, a) for a, b in zip(member, member[1:])]


def _audit_slots(decomp_paths, slots, kind, rule=None):
    """
    The one audit of matchings and groups, with path ownership recomputed
    from the raw decomposition paths: within a slot the members (vertex
    sequences, a matching edge being one of two) share no vertex and meet
    each path in at most one edge, and rule(slot, pids) holds, pids holding
    the path of each edge of the slot in order. Counts a pass in
    audit_counters[kind].
    """
    owner = {}
    for pid, p in enumerate(decomp_paths):
        for e in p.edges():
            owner[e] = pid
    for slot in slots:
        verts = set()
        pids = {}  # insertion-ordered set
        for m in slot:
            if not verts.isdisjoint(m):
                return False
            verts.update(m)
            for e in _edges_of(m):
                pid = owner.get(e)
                if pid is None or pid in pids:
                    return False
                pids[pid] = None
        if rule is not None and not rule(slot, pids):
            return False
    audit_counters[kind] += 1
    return True


def audit_matchings_basic(decomp_paths, matchings):
    """Recompute path membership from the raw paths and re-check matchings."""
    return _audit_slots(decomp_paths, matchings, "basic")


def audit_matchings_degree(host, decomp_paths, matchings):
    """Basic audit plus the per-bucket degree quota, recomputed from host."""
    def quota(M, _):
        buckets = Counter(_bucket(min(host.degree(u), host.degree(v)))
                          for u, v in M)
        return all(k <= _bucket_quota(r) for r, k in buckets.items())
    return _audit_slots(decomp_paths, matchings, "degree", quota)


def audit_matchings_spread(G, decomp_paths, matchings, d, r0):
    """Basic audit plus |M| <= d and, for every two edges of M, the path of
    the earlier one outside the ball of radius 2*r0-1 around the path of the
    later one, by fresh BFS."""
    def spread(M, pids):
        if len(M) > d:
            return False
        earlier = []
        for pid in pids:
            pv = set(decomp_paths[pid].vertices)
            if earlier:
                zone = ball(G, pv, 2 * r0 - 1)
                if any(not zone.isdisjoint(q) for q in earlier):
                    return False
            earlier.append(pv)
        return True
    return _audit_slots(decomp_paths, matchings, "spread", spread)


def audit_groups(decomp_paths, groups):
    """Members vertex-disjoint within each group; one edge per path per group."""
    return _audit_slots(decomp_paths, groups, "groups")


def _close_or_singletons(closed, target):
    """
    The one close-or-singleton step of the separators. closed lists
    (piece, path or None), a piece being a matching or group; returns the
    paths, then one single-edge path for each target edge that no piece
    with a path covers, in sorted order, and the number of those.
    """
    paths = []
    covered = set()
    for piece, p in closed:
        if p is not None:
            paths.append(p)
            for m in piece:
                covered.update(_edges_of(m))
    singles = sorted(target - covered)
    paths.extend(Path(e) for e in singles)
    return paths, len(singles)


def _close_matching(host, M, dbar, hubs, pool, target, seed):
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
                                seed=seed)
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
    pe = set(p.edges())
    if not pe <= host.edges or pe & target != set(M):
        return None
    return p


def _separate_within(host, removed, V1, V2, seed):
    """
    Separate E(host - removed): path decomposition plus one closed path per
    degree-budgeted matching; matchings that fail to close fall back to
    singleton paths. Returns (paths, fallback_count).
    """
    Gp = host.without(vertices=removed)
    target = Gp.edges
    if not target:
        return [], 0
    decomp = decompose_into_paths(Gp)
    dbar = {e: min(host.degree(e[0]), host.degree(e[1])) for e in target}
    cap = CAP_BASIC_FACTOR * max(1, len(host))
    matchings, _ = build_matchings_degree(Gp, decomp, dbar, cap)
    if not audit_matchings_degree(host, decomp.paths, matchings):
        raise AssertionError("degree matching audit failed")
    closed = [(M, Path(M[0]) if len(M) == 1 else
               _close_matching(host, M, dbar, V1, V2, target, seed * 65537 + mi))
              for mi, M in enumerate(matchings)]
    paths, fb = _close_or_singletons(closed, target)
    return list(decomp.paths) + paths, fb


def separate_dense_expander(H, seed):
    """Random tripartition; for each class, separate the graph away from it.
    Every edge avoids some class, so the union covers E(H)."""
    if not H.edges:
        return _verified(_empty_stage(H, "dense-expander"))
    # the "0" is part of the seed string: dropping it changes every tripartition
    rng = random.Random("tripart:0:%d" % seed)
    cls = {v: rng.randrange(3) for v in H.vertices()}
    paths, fb = [], 0
    for i in range(3):
        Vi = {v for v, c in cls.items() if c == i}
        V1, V2 = set(), set()
        for v in sorted(Vi):
            (V1 if rng.random() < 0.5 else V2).add(v)
        run_paths, run_fb = _separate_within(H, Vi, V1, V2,
                                             rng.randrange(1 << 30))
        paths.extend(run_paths)
        fb += run_fb
    empty = Graph(H.n, [], live=H.live)
    return _verified(StageResult(H, paths, H.edges, empty, fb,
                                 "dense-expander", source=H))


def reduce_large_deg(G, seed):
    """Expander-decompose with the dense edge budget and separate each
    edge-disjoint part inside itself; the uncovered edges are the residual."""
    if not G.edges:
        return _empty_stage(G, "reduce-large-deg")
    n = len(G)
    params = ExpanderParams(EPSILON, s=S_DENSE, t=max(1.0, 2 * n / 3))
    D = expander_decompose(G, params)
    paths, fb = [], 0
    for k, H in enumerate(D.parts):
        part_seed = seed * 1009 + k
        try:
            st = separate_dense_expander(H, part_seed)
        except AssertionError as exc:
            raise AssertionError("dense-expander part %d (seed %d, %d vertices, "
                                 "%d edges): %s" % (k, part_seed, len(H),
                                                    H.num_edges(), exc)) from exc
        paths.extend(st.system.paths)
        fb += st.fallback_count
    residual = Graph(G.n, D.uncovered, live=G.live)
    return StageResult(G, paths, G.edges - D.uncovered, residual, fb,
                       "reduce-large-deg", source=G, part_count=len(D.parts))


def _complete_members(host, members, decomp):
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
            forbidden_vertices=forbidden_vertices)
        return complete_to_path(prob)
    except ValueError:
        return None


def separate_high_degree(G, d):
    """
    Separate every edge touching the high-degree vertices L1: bounded
    decomposition of the L1/L2 subgraph, short-path-union groups completed to
    paths avoiding their decomposition mates, plus singletons for the edges
    from L1 to the rest. Residual = G - L1.
    """
    n = len(G)
    threshold = degree_threshold(d, n)
    L1 = {v for v in G.vertices() if G.degree(v) >= threshold}
    if not L1:
        return _verified(_empty_stage(G, "high-degree"))
    L2 = {v for v in G.vertices()
          if v not in L1 and sum(1 for w in G.neighbors(v) if w in L1) >= 4}
    h1_edges = {e for e in G.edges
                if (e[0] in L1 and e[1] in L1)
                or (e[0] in L1 and e[1] in L2) or (e[1] in L1 and e[0] in L2)}
    h2_edges = {e for e in G.edges
                if (e[0] in L1 or e[1] in L1) and e not in h1_edges}
    d_int = max(1, int(d))
    paths, fb = [], 0
    if h1_edges:
        H1 = Graph(G.n, h1_edges, live=G.live)
        P1 = decompose_into_bounded_paths(H1, d_int)
        cap = CAP_GROUP_FACTOR * max(n, math.ceil(len(G.edges) / d_int))
        groups, _ = build_short_path_unions(H1, P1, L1, L2, d_int, cap)
        if not audit_groups(P1.paths, groups):
            raise AssertionError("group audit failed")
        closed = [(g, _complete_members(G, g, P1)) for g in groups]
        built, fb = _close_or_singletons(closed, h1_edges)
        paths = list(P1.paths) + built
    paths.extend(Path(e) for e in sorted(h2_edges))
    return _verified(StageResult(G, paths, h1_edges | h2_edges,
                                 G.without(vertices=L1), fb, "high-degree",
                                 source=G))


def separate_sparse_expander(J, d):
    """Bounded decomposition plus one completed path per spread matching;
    matchings whose completion fails fall back to singletons."""
    if not J.edges:
        return _verified(_empty_stage(J, "sparse-expander"))
    d_int = max(1, int(d))
    P = decompose_into_bounded_paths(J, d_int)
    r0 = max(2, math.ceil(math.log2(math.log2(d + 2))))
    cap = CAP_SPREAD_FACTOR * max(len(J), math.ceil(len(J.edges) / d_int))
    matchings, _ = build_matchings_spread(J, P, d_int, r0, cap)
    if not audit_matchings_spread(J, P.paths, matchings, d_int, r0):
        raise AssertionError("spread matching audit failed")
    closed = [(M, _complete_members(J, M, P)) for M in matchings]
    paths, fb = _close_or_singletons(closed, J.edges)
    empty = Graph(J.n, [], live=J.live)
    return _verified(StageResult(J, list(P.paths) + paths, J.edges, empty,
                                 fb, "sparse-expander", source=J))


def reduce_small_deg(G):
    """
    Split into components (the zero-budget expander split), each again with
    the sparse budget; large sub-parts are separated here, each inside itself,
    small ones go to the dense stage, uncovered edges to the residual.
    """
    d = G.avg_degree()
    n = max(1, len(G))
    if not G.edges or d < DEGREE_FLOOR:
        return _empty_stage(G, "reduce-small-deg"), []
    p1 = ExpanderParams(EPSILON, s=S_SPARSE, t=max(1.0, d))
    comps = [G.induced(c) for c in G.components() if len(c) > 1]
    paths, fb, small = [], 0, []
    separated, residual_edges = set(), set()
    part_count = len(comps)
    # no high-degree step: d >= 16, len(H) < 16^7 give threshold len(H) > any degree
    for i, H in enumerate(comps):
        D1 = expander_decompose(H, p1)
        part_count += len(D1.parts)
        residual_edges |= D1.uncovered
        for j, F in enumerate(D1.parts):
            if len(F) >= SMALL_PART_THRESHOLD:
                try:
                    st2 = separate_sparse_expander(F, d)
                except AssertionError as exc:
                    raise AssertionError(
                        "sparse-expander part %d.%d (%d vertices, %d edges, d=%g): %s"
                        % (i, j, len(F), F.num_edges(), d, exc)) from exc
                paths.extend(st2.system.paths)
                fb += st2.fallback_count
                separated |= st2.system.target
            else:
                small.append(F)
    if sum(len(F) for F in small) > 4 * n:
        raise AssertionError("small parts exceed the 4n size bound")
    residual = Graph(G.n, residual_edges, live=G.live)
    return StageResult(G, paths, separated, residual, fb, "reduce-small-deg",
                       part_count=part_count), small


def one_step(G, seed):
    """One full reduction round: sparse machinery first, dense machinery on
    the small parts it returns; all stage systems unioned."""
    st, small = reduce_small_deg(G)
    paths = list(st.system.paths)
    fb = st.fallback_count
    target = set(st.system.target)
    residual_edges = set(st.residual.edges)
    parts = st.part_count
    for k, F in enumerate(small):
        st2 = reduce_large_deg(F, seed * 31 + k + 1)
        paths.extend(st2.system.paths)
        fb += st2.fallback_count
        target |= st2.system.target
        residual_edges |= st2.residual.edges
        parts += st2.part_count
    residual = Graph(G.n, residual_edges, live=G.live)
    return StageResult(G, paths, target, residual, fb, "one-step", source=G,
                       part_count=parts)


class RunReport:
    """Row-oriented run log plus the final candidate selection. A
    `candidate:<name>` row gives the size of a candidate system; a
    `bound:bitcode-baseline` row stands in its place when the bit code was
    not built, and gives the lower bound that ruled it out. The
    `candidate:singleton-baseline` row gives e(G), the singleton system's
    size: that system is built and verified only when it is selected."""

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


def separate_all(G, seed=0, timings=False):
    """
    Full pipeline: iterate one_step on successive residuals, finish the
    leftover edges as singletons, and return the smallest verified system
    among the pipeline (the stage systems, each inside its own part, plus
    the tail) and two baselines. Output separates E(G) in <= e(G) paths.
    The bit-code baseline is built only when bitcode_lower_bound leaves it
    a chance to be selected: below the pipeline's size and at most e(G).
    The singleton baseline is sized as e(G) and built only when selected.
    """
    rows, paths, targets = [], [], []
    level = 0
    current = G
    max_levels = iterated_log(max(1, len(G))) + EXTRA_LEVELS
    while (current.edges and current.avg_degree() >= DEGREE_FLOOR
           and level < max_levels):
        t0 = time.perf_counter()
        step_seed = seed * 131 + level
        try:
            st = one_step(current, step_seed)
        except AssertionError as exc:
            raise AssertionError("level %d (seed %d, %d vertices, %d edges): %s"
                                 % (level, step_seed, len(current),
                                    current.num_edges(), exc)) from exc
        if not st.system.target:
            break
        paths.extend(st.system.paths)
        targets.append(st.system.target)
        elapsed = int((time.perf_counter() - t0) * 1000) if timings else 0
        rows.append((level, st.stage_tag, st.part_count, len(st.system.paths),
                     st.fallback_count, st.residual.num_edges(), elapsed))
        current = st.residual
        level += 1
    tail = current.sorted_edges()
    paths.extend(Path(e) for e in tail)
    rows.append((level, "singleton-tail", 0, len(tail), len(tail), 0, 0))
    pipeline = PathSystem(G, paths, target=G.edges)
    witness = verify_separation(pipeline).witness
    if witness is not None:
        at = next(("level %d" % k for k, t in enumerate(targets)
                   if witness[0] in t), "singleton-tail")
        raise AssertionError("pipeline output failed verification at %s, "
                             "witness %r" % (at, witness))
    # the pipeline wins ties, and the bit code wins them against the
    # singletons, so the bit code is built only when its bound leaves it
    # a chance; otherwise its row reports the bound
    m = G.num_edges()
    bound = bitcode_lower_bound(G)
    bitcode = baseline_nlogn(G) if bound < len(pipeline) and bound <= m else None
    rows.append((level, "candidate:pipeline", 0, len(pipeline), 0, 0, 0))
    if bitcode is None:
        rows.append((level, "bound:bitcode-baseline", 0, bound, 0, 0, 0))
    else:
        rows.append((level, "candidate:bitcode-baseline", 0, len(bitcode),
                     0, 0, 0))
    # the singleton system has e(G) paths and loses every tie, so it is
    # built only when both other candidates exceed e(G)
    rows.append((level, "candidate:singleton-baseline", 0, m, 0, 0, 0))
    selected_name, selected = "pipeline", pipeline
    if bitcode is not None and len(bitcode) < len(pipeline):
        selected_name, selected = "bitcode-baseline", bitcode
    if len(selected) > m:
        selected_name, selected = "singleton-baseline", singleton_baseline(G)
    if selected is not pipeline and not verify_separation(selected).ok:
        raise AssertionError("selected baseline failed verification")
    rows.append((level, "selected:" + selected_name, 0, len(selected), 0, 0, 0))
    return selected, RunReport(rows, selected_name)
