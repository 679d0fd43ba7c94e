"""Path-forest completion: routing pair families through a vertex pool,
closing a core forest into one path by greedy shortest joins, and joining
matching edges through hub vertices."""

import random
from collections import deque

from .graphs import Path, PathForest, canonical_edge

MAX_LEN = 24        # longest connector, in edges
RETRIES = 20        # random routing orders tried before the fixed one


class ConnectionRequest:
    __slots__ = ("host", "through", "pairs", "min_len", "seed")

    def __init__(self, host, through, pairs, seed=0, min_len=1):
        self.host = host
        self.through = frozenset(through)
        self.pairs = tuple(tuple(p) for p in pairs)
        ends = [v for p in self.pairs for v in p]
        if len(set(ends)) != len(ends):
            raise ValueError("pair endpoints must be pairwise distinct")
        if not (1 <= min_len <= MAX_LEN):
            raise ValueError("need 1 <= min_len <= %d" % MAX_LEN)
        self.min_len = min_len
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


def _route_in_order(req, order):
    ends = {v for p in req.pairs for v in p}
    allowed_interior = req.through - ends
    blocked_base = set(req.host.live) - allowed_interior
    used = set()
    routed = {}
    for idx in order:
        x, y = req.pairs[idx]
        blocked = (blocked_base | used) - {y}
        p = _bfs_path(req.host, x, y, blocked, MAX_LEN, req.min_len)
        if p is None:
            return None
        routed[idx] = p
        used.update(p[1:-1])
    return [Path(routed[i]) for i in range(len(req.pairs))]


def connect_pairs_through(req):
    """
    Route every pair through the designated vertex pool with pairwise disjoint
    interiors: sequential shortest paths in random order with retries, then a
    deterministic fewest-alternatives-first pass. Returns None on failure.
    """
    r = len(req.pairs)
    if r == 0:
        return []
    for attempt in range(RETRIES):
        rng = random.Random(req.seed * 1000003 + attempt)
        order = list(range(r))
        rng.shuffle(order)
        result = _route_in_order(req, order)
        if result is not None:
            return result
    # pairs with longer shortest routes have fewer alternatives; route them first
    ends = {v for p in req.pairs for v in p}
    blocked_base = set(req.host.live) - (req.through - ends)

    def solo_len(idx):
        x, y = req.pairs[idx]
        p = _bfs_path(req.host, x, y, blocked_base - {y}, MAX_LEN, req.min_len)
        return len(p) if p else req.host.n + 1

    order = sorted(range(r), key=lambda i: (-solo_len(i), i))
    return _route_in_order(req, order)


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
        if not (req.min_len <= len(p) <= MAX_LEN):
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
    hubs = set(hubs)
    medges = [canonical_edge(*e) for e in M]
    mvertices = {v for e in medges for v in e}
    if hubs & mvertices:
        raise ValueError("hubs intersect the matching")
    if len(mvertices) != 2 * len(medges):
        raise ValueError("M is not a matching")
    chains = [list(e) for e in medges]
    chain_of = {}
    for i, c in enumerate(chains):
        for v in c:
            chain_of[v] = i
    unused = set(hubs)

    def leaf_ends():
        out = {}
        for i, c in enumerate(chains):
            if c is not None:
                out[c[0]] = i
                out[c[-1]] = i
        return out

    for e in medges:
        for v in e:
            ends = leaf_ends()
            if v not in ends:
                continue
            i = ends[v]
            joined = False
            for h in sorted(unused & set(host.neighbors(v))):
                for v2 in sorted(set(host.neighbors(h)) & set(ends)):
                    j = ends[v2]
                    if j == i:
                        continue
                    a = chains[i] if chains[i][-1] == v else chains[i][::-1]
                    b = chains[j] if chains[j][0] == v2 else chains[j][::-1]
                    chains[i] = a + [h] + b
                    chains[j] = None
                    unused.discard(h)
                    joined = True
                    break
                if joined:
                    break
    return PathForest([Path(c) for c in chains if c is not None])
