"""Path-forest completion: routing pair families through a vertex pool,
closing a core forest into one path by greedy shortest joins, and joining
matching edges through hub vertices."""

import random
from collections import deque

from .graphs import Path, PathForest, canonical_edge

MAX_LEN = 24        # longest connector, in edges
MIN_LEN = 2         # shortest connector: at least one interior vertex


class ConnectionRequest:
    __slots__ = ("host", "through", "pairs", "seed")

    def __init__(self, host, through, pairs, seed=0):
        self.host = host
        self.through = frozenset(through)
        self.pairs = tuple(tuple(p) for p in pairs)
        ends = [v for p in self.pairs for v in p]
        if len(set(ends)) != len(ends):
            raise ValueError("pair endpoints must be pairwise distinct")
        self.seed = seed


class CompletionProblem:
    __slots__ = ("host", "core", "forbidden_edges", "forbidden_vertices")

    def __init__(self, host, core, forbidden_edges=(), forbidden_vertices=()):
        self.host = host
        self.core = core if isinstance(core, PathForest) else PathForest(core)
        self.forbidden_edges = frozenset(canonical_edge(*e) for e in forbidden_edges)
        self.forbidden_vertices = frozenset(forbidden_vertices)
        if self.forbidden_vertices & self.core.vertex_set():
            raise ValueError("forbidden vertices intersect the core")
        if self.forbidden_edges & self.core.edge_set():
            raise ValueError("forbidden edges intersect the core")


def _bfs_path(G, a, b, blocked, max_len, min_len=1):
    """Shortest a-b path of length >= min_len whose interior avoids blocked, or None."""
    if a == b:
        return None
    prev = {a: None}
    queue = deque([(a, 0)])
    while queue:
        v, d = queue.popleft()
        if d >= max_len:
            continue
        for w in G.neighbors(v):
            if w == b:
                if d + 1 < min_len:
                    continue
                path = [b, v]
                while prev[v] is not None:
                    v = prev[v]
                    path.append(v)
                path.reverse()
                return path
            if w in prev or w in blocked:
                continue
            prev[w] = v
            queue.append((w, d + 1))
    return None


def connect_pairs_through(req):
    """
    Route every pair through the designated vertex pool with pairwise disjoint
    interiors: sequential shortest paths of MIN_LEN to MAX_LEN edges, in one
    order shuffled by the request's seed. Returns None on failure.
    """
    order = list(range(len(req.pairs)))
    random.Random(req.seed * 1000003).shuffle(order)
    ends = {v for p in req.pairs for v in p}
    blocked_base = set(req.host.live) - (req.through - ends)
    used = set()
    routed = {}
    for idx in order:
        x, y = req.pairs[idx]
        blocked = (blocked_base | used) - {y}
        p = _bfs_path(req.host, x, y, blocked, MAX_LEN, MIN_LEN)
        if p is None:
            return None
        routed[idx] = p
        used.update(p[1:-1])
    return [Path(routed[i]) for i in range(len(req.pairs))]


def check_connection(req, paths):
    """Independent validity check for a connect_pairs_through result."""
    if len(paths) != len(req.pairs):
        return False
    seen_interiors = set()
    ends = {v for p in req.pairs for v in p}
    for p, (x, y) in zip(paths, req.pairs):
        vs = p.vertices
        if {vs[0], vs[-1]} != {x, y} or not p.valid_in(req.host):
            return False
        if not (MIN_LEN <= len(p) <= MAX_LEN):
            return False
        interior = set(vs[1:-1])
        if not interior <= req.through:
            return False
        if interior & (seen_interiors | ends):
            return False
        seen_interiors |= interior
    return True


def complete_to_path(prob):
    """
    Close the core forest into one simple path avoiding the forbidden edges and
    vertices, by greedy joins. Each join takes the least option (a, b, i, j),
    a an end of chain i and b an end of chain j > i, that a shortest connector
    of at most MAX_LEN edges links with an interior off every chain, so each
    join leaves one chain fewer. Returns None when no option joins while two
    or more chains remain.
    """
    chains = [list(p.vertices) for p in prob.core.paths]
    if not chains:
        return None
    # a one-path core is its own answer; only joins need the host
    H = (prob.host.without(vertices=prob.forbidden_vertices, edges=prob.forbidden_edges)
         if len(chains) > 1 else None)
    while len(chains) > 1:
        used = {v for c in chains for v in c}
        options = sorted((a, b, i, j)
                         for i, ci in enumerate(chains)
                         for j in range(i + 1, len(chains))
                         for a in (ci[0], ci[-1])
                         for b in (chains[j][0], chains[j][-1]))
        for a, b, i, j in options:
            p = _bfs_path(H, a, b, used - {b}, MAX_LEN)
            if p is not None:
                break
        else:
            return None
        left = chains[i] if chains[i][-1] == a else chains[i][::-1]
        right = chains[j] if chains[j][0] == b else chains[j][::-1]
        keep = [c for k, c in enumerate(chains) if k not in (i, j)]
        chains = keep + [left + p[1:-1] + right]
    vs = chains[0]
    if len(set(vs)) != len(vs):
        raise AssertionError("completion produced a non-simple walk")
    return Path(vs)


def check_completion(prob, path):
    """Independent validity check for a complete_to_path result."""
    if not path.valid_in(prob.host):
        return False
    pe = set(path.edges())
    if not prob.core.edge_set() <= pe:
        return False
    if pe & prob.forbidden_edges:
        return False
    if set(path.vertices) & prob.forbidden_vertices:
        return False
    return True


def extend_matching_through_hubs(host, M, hubs):
    """
    Grow the matching into a path forest: scanning the edges in the given
    order, join a leaf with a leaf of another component whenever they share an
    unused hub neighbor, consuming the hub.
    """
    unused = set(hubs)
    medges = [canonical_edge(*e) for e in M]
    mvertices = {v for e in medges for v in e}
    if unused & mvertices:
        raise ValueError("hubs intersect the matching")
    if len(mvertices) != 2 * len(medges):
        raise ValueError("M is not a matching")
    chains = [list(e) for e in medges]
    end_of = {v: i for i, e in enumerate(medges) for v in e}
    for e in medges:
        for v in e:
            if v not in end_of:
                continue
            i = end_of[v]
            for h in sorted(unused & set(host.neighbors(v))):
                others = sorted(w for w in host.neighbors(h)
                                if w in end_of and end_of[w] != i)
                if not others:
                    continue
                v2 = others[0]
                j = end_of[v2]
                a = chains[i] if chains[i][-1] == v else chains[i][::-1]
                b = chains[j] if chains[j][0] == v2 else chains[j][::-1]
                chains[i] = a + [h] + b
                chains[j] = None
                unused.discard(h)
                del end_of[v], end_of[v2]
                end_of[b[-1]] = i
                break
    return PathForest([Path(c) for c in chains if c is not None])
