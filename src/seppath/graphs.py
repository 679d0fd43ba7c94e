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

    __slots__ = ("n", "edges", "adj", "live", "_sorted")

    def __init__(self, n, edges, live=None):
        if n < 0:
            raise ValueError("negative vertex count")
        live = frozenset(range(n)) if live is None else frozenset(live)
        for v in live:
            if not (0 <= v < n):
                raise ValueError("live vertex %r out of range" % (v,))
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            if u not in live or v not in live:
                raise ValueError("edge (%d,%d) touches a dead or out-of-range vertex" % (u, v))
            canon.add(canonical_edge(u, v))
        self._fill(n, canon, live)

    @classmethod
    def _view(cls, n, edges, live):
        """
        A graph built without __init__'s checks, for callers that have
        made them already: a subgraph of a checked graph, or a parsed edge
        list. live is a frozenset of in-range vertices and edges a set of
        canonical edges between them, so none of the checks could fail.
        When edges was built by adding the edges in the order __init__
        would have, G.edges iterates in the same order as __init__'s result.
        """
        G = object.__new__(cls)
        G._fill(n, edges, live)
        return G

    def _fill(self, n, edges, live):
        self.n = n
        self.live = live
        self.edges = frozenset(edges)
        adj = {v: [] for v in live}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._sorted = None

    def __len__(self):
        return len(self.live)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.live, self.edges) == (other.n, other.live, other.edges)

    def __repr__(self):
        return "Graph(n=%d, live=%d, edges=%d)" % (self.n, len(self.live), len(self.edges))

    def num_edges(self):
        return len(self.edges)

    def sorted_edges(self):
        """E(G) in increasing order: a tuple sorted on the first call and
        kept, so every caller that walks the edges in order shares one sort."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.edges))
        return self._sorted

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
        edges = {e for e in self.edges if e[0] in X and e[1] in X}
        return Graph._view(self.n, edges, X)

    def without(self, vertices=(), edges=()):
        """Remove vertices (with incident edges) and/or edges; label space preserved."""
        dead = set(vertices)
        banned = {canonical_edge(u, v) for u, v in edges}
        live = self.live - dead
        kept = {e for e in self.edges
                if e not in banned and e[0] in live and e[1] in live}
        return Graph._view(self.n, kept, live)


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

    def __repr__(self):
        return "Path(%s)" % "-".join(map(str, self.vertices))

    def edges(self):
        vs = self.vertices
        return [(a, b) if a < b else (b, a) for a, b in zip(vs, vs[1:])]

    def valid_in(self, G):
        # a simple path whose edges are all host edges is valid in the host:
        # each of its vertices lies on one of those edges, so it is live
        return G.edges.issuperset(self.edges())


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


def neighborhood(G, X, cut=frozenset()):
    """N_{G-cut}(X): vertices outside X with a neighbor in X, not counting
    the edges of cut (canonical pairs)."""
    X = set(X)
    out = set()
    for v in X:
        for w in G.neighbors(v):
            if w not in X and (not cut or canonical_edge(v, w) not in cut):
                out.add(w)
    return out


def ball(G, X, i):
    """B^i_G(X): vertices within distance i of X."""
    cur = set(X)
    frontier = list(cur)
    for _ in range(i):
        # a vertex at distance k + 1 is a neighbor of one at distance k
        nxt = {w for v in frontier for w in G.neighbors(v) if w not in cur}
        if not nxt:
            break
        cur |= nxt
        frontier = nxt
    return cur


def graph_from_edge_list(text):
    """
    Parse line-oriented edge list: optional '# n=<N>' header, then 'u v' lines.
    Each line is checked here for every rule Graph.__init__ enforces
    (integer, non-negative, no self-loop, inside '# n='), so the graph is
    built as a view.
    """
    n_override = None
    header = None
    edges = set()
    max_v = -1
    # (line, u, v) of each edge that raises the largest vertex seen so far:
    # the first edge past the declared count is among them
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                value = body[2:].strip()
                try:
                    n_override = int(value)
                except ValueError:
                    n_override = -1
                if n_override < 0:
                    raise ValueError("line %d: bad vertex count %r" % (lineno, value))
                header = (lineno, line)
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
        if u > max_v or v > max_v:
            max_v = max(u, v)
            records.append((lineno, u, v))
    if n_override is None:
        n_override = max_v + 1
    elif max_v >= n_override:
        lineno, u, v = next(r for r in records if max(r[1:]) >= n_override)
        raise ValueError("line %d: vertex %d out of range for %r on line %d"
                         % (lineno, u if u >= n_override else v, header[1],
                            header[0]))
    return Graph._view(n_override, edges, frozenset(range(n_override)))


def serialize_edge_list(G):
    lines = ["# n=%d" % G.n]
    lines.extend("%d %d" % e for e in G.sorted_edges())
    return "\n".join(lines) + "\n"


def _gnp_edges(n, p, rng):
    """Counted geometric-skip enumeration over the lexicographic pair index.
    The index only grows, so the row u of the pair (u, v) and the index of
    (u, u + 1), the row's start, are carried along."""
    total = n * (n - 1) // 2
    if p <= 0 or total == 0:
        return []
    if p >= 1:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    idx = -1
    u = start = 0
    log_q = math.log(1.0 - p)
    while True:
        r = rng.random()
        skip = int(math.log(1.0 - r) / log_q)
        idx += skip + 1
        if idx >= total:
            break
        while idx - start >= n - 1 - u:
            start += n - 1 - u
            u += 1
        edges.append((u, u + 1 + idx - start))
    return edges


def _sizes(*values):
    """The values, each checked to be an integer size."""
    for x in values:
        if not isinstance(x, int):
            raise ValueError("size %r is not an integer" % (x,))
    return values


def generate(family, *params, seed=0):
    """
    Deterministic graph generator.

    Families: complete(n), path(n), cycle(n), star(n), grid(a,b),
    hypercube(k), gnp(n,p), random_regular(n,d).
    """
    rng = random.Random(seed)
    if family == "complete":
        (n,) = _sizes(*params)
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if family == "path":
        (n,) = _sizes(*params)
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        (n,) = _sizes(*params)
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "star":
        (n,) = _sizes(*params)
        return Graph(n, [(0, i) for i in range(1, n)])
    if family == "grid":
        a, b = _sizes(*params)
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
        (k,) = _sizes(*params)
        n = 1 << k
        edges = [(v, v ^ (1 << bit)) for v in range(n) for bit in range(k) if v < v ^ (1 << bit)]
        return Graph(n, edges)
    if family == "gnp":
        n, p = params
        _sizes(n)
        if not (0 <= p <= 1):
            raise ValueError("p must be in [0,1]")
        return Graph(n, _gnp_edges(n, p, rng))
    if family == "random_regular":
        n, d = _sizes(*params)
        if (n * d) % 2 != 0 or d >= n:
            raise ValueError("random_regular needs n*d even and d < n")
        import networkx as nx
        H = nx.random_regular_graph(d, n, seed=seed)
        return Graph(n, list(H.edges()))
    raise ValueError("unknown family %r" % family)
