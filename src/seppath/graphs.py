"""Immutable undirected graphs, neighborhoods, balls, subgraph views, generators."""

import math
import random
from collections import deque


def canonical_edge(u, v):
    return (u, v) if u < v else (v, u)


class Graph:
    """
    Simple undirected graph on vertex labels 0..n-1.

    Subgraph views keep the label space and mark removed vertices as dead
    via a live-vertex mask; len(G) counts live vertices only.
    """

    __slots__ = ("n", "edges", "adj", "live", "_hash")

    def __init__(self, n, edges, live=None):
        if n < 0:
            raise ValueError("negative vertex count")
        self.n = n
        self.live = frozenset(range(n)) if live is None else frozenset(live)
        for v in self.live:
            if not (0 <= v < n):
                raise ValueError("live vertex %r out of range" % (v,))
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            if u not in self.live or v not in self.live:
                raise ValueError("edge (%d,%d) touches a dead or out-of-range vertex" % (u, v))
            canon.add(canonical_edge(u, v))
        self.edges = frozenset(canon)
        adj = {v: [] for v in self.live}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._hash = None

    def __len__(self):
        return len(self.live)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.live, self.edges) == (other.n, other.live, other.edges)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.live, self.edges))
        return self._hash

    def __repr__(self):
        return "Graph(n=%d, live=%d, edges=%d)" % (self.n, len(self.live), len(self.edges))

    def num_edges(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adj.get(v, ()))

    def avg_degree(self):
        if not self.live:
            return 0.0
        return 2.0 * len(self.edges) / len(self.live)

    def neighbors(self, v):
        return self.adj.get(v, ())

    def has_edge(self, u, v):
        return canonical_edge(u, v) in self.edges

    def vertices(self):
        return sorted(self.live)

    def components(self):
        """Connected components over live vertices, each sorted, in order of least vertex."""
        seen = set()
        out = []
        for start in sorted(self.live):
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in self.adj[v]:
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            out.append(sorted(comp))
        return out

    def induced(self, X):
        """G[X]: keep only vertices of X and edges inside X."""
        X = frozenset(X) & self.live
        edges = [e for e in self.edges if e[0] in X and e[1] in X]
        return Graph(self.n, edges, live=X)

    def without(self, vertices=(), edges=()):
        """Remove vertices (with incident edges) and/or edges; label space preserved."""
        dead = set(vertices)
        banned = {canonical_edge(u, v) for u, v in edges}
        live = self.live - dead
        kept = [e for e in self.edges
                if e not in banned and e[0] in live and e[1] in live]
        return Graph(self.n, kept, live=live)


class Path:
    """Simple path given by its vertex sequence (>= 2 distinct vertices)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = tuple(vertices)
        if len(vs) < 2:
            raise ValueError("a path needs at least 2 vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("repeated vertex in path")
        self.vertices = vs

    def __len__(self):
        # number of edges
        return len(self.vertices) - 1

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.vertices == other.vertices or self.vertices == other.vertices[::-1]

    def __hash__(self):
        return hash(min(self.vertices, self.vertices[::-1]))

    def __repr__(self):
        return "Path(%s)" % "-".join(map(str, self.vertices))

    def edges(self):
        vs = self.vertices
        return [canonical_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]

    def ends(self):
        return (self.vertices[0], self.vertices[-1])

    def valid_in(self, G):
        vs = self.vertices
        return all(v in G.live for v in vs) and all(
            G.has_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1)
        )


class PathForest:
    """Pairwise vertex-disjoint collection of paths."""

    __slots__ = ("paths",)

    def __init__(self, paths):
        self.paths = tuple(paths)
        seen = set()
        for p in self.paths:
            vs = set(p.vertices)
            if vs & seen:
                raise ValueError("paths share a vertex")
            seen |= vs

    def vertex_set(self):
        return {v for p in self.paths for v in p.vertices}

    def edge_set(self):
        return {e for p in self.paths for e in p.edges()}


def neighborhood(G, X):
    """N_G(X): vertices outside X with a neighbor in X."""
    X = set(X)
    out = set()
    for v in X:
        for w in G.neighbors(v):
            if w not in X:
                out.add(w)
    return out


def ball(G, X, i):
    """B^i_G(X): vertices within distance i of X."""
    cur = set(X)
    for _ in range(i):
        nxt = neighborhood(G, cur)
        if not nxt:
            break
        cur |= nxt
    return cur


def graph_from_edge_list(text):
    """
    Parse line-oriented edge list: optional '# n=<N>' header, then 'u v' lines.
    """
    n_override = None
    edges = set()
    max_v = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                n_override = int(body[2:])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError("line %d: expected 'u v', got %r" % (lineno, raw))
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError("line %d: non-integer vertex in %r" % (lineno, raw))
        if u < 0 or v < 0:
            raise ValueError("line %d: negative vertex" % lineno)
        if u == v:
            raise ValueError("line %d: self-loop" % lineno)
        edges.add(canonical_edge(u, v))
        max_v = max(max_v, u, v)
    n = n_override if n_override is not None else max_v + 1
    return Graph(n, edges)


def serialize_edge_list(G):
    lines = ["# n=%d" % G.n]
    lines.extend("%d %d" % e for e in sorted(G.edges))
    return "\n".join(lines) + "\n"


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


def _gnp_edges(n, p, rng):
    """Counted geometric-skip enumeration over the lexicographic pair index."""
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


def generate(family, *params, seed=0):
    """
    Deterministic graph generator.

    Families: complete(n), path(n), cycle(n), star(n), grid(a,b),
    hypercube(k), gnp(n,p), random_regular(n,d).
    """
    rng = random.Random(seed)
    if family == "complete":
        (n,) = params
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if family == "path":
        (n,) = params
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        (n,) = params
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "star":
        (n,) = params
        return Graph(n, [(0, i) for i in range(1, n)])
    if family == "grid":
        a, b = params
        edges = []
        for i in range(a):
            for j in range(b):
                v = i * b + j
                if j + 1 < b:
                    edges.append((v, v + 1))
                if i + 1 < a:
                    edges.append((v, v + b))
        return Graph(a * b, edges)
    if family == "hypercube":
        (k,) = params
        n = 1 << k
        edges = [(v, v ^ (1 << bit)) for v in range(n) for bit in range(k) if v < v ^ (1 << bit)]
        return Graph(n, edges)
    if family == "gnp":
        n, p = params
        if not (0 <= p <= 1):
            raise ValueError("p must be in [0,1]")
        return Graph(n, _gnp_edges(n, p, rng))
    if family == "random_regular":
        n, d = params
        if (n * d) % 2 != 0 or d >= n:
            raise ValueError("random_regular needs n*d even and d < n")
        import networkx as nx
        H = nx.random_regular_graph(d, n, seed=seed)
        return Graph(n, list(H.edges()))
    raise ValueError("unknown family %r" % family)
