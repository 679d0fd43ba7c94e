"""Decompose a graph's edge set into few simple paths, optionally length-bounded."""

import heapq

from .graphs import Path, canonical_edge


class PathDecomposition:
    """
    Edge-disjoint simple paths whose union is exactly E(host), with an
    edge -> path-id index.
    """

    __slots__ = ("paths", "index")

    def __init__(self, paths, host):
        self.paths = tuple(paths)
        index = {}
        for pid, p in enumerate(self.paths):
            for e in p.edges():
                if e in index:
                    raise ValueError("edge %r covered twice" % (e,))
                index[e] = pid
        # every path edge a host edge: the rule of Path.valid_in
        if index.keys() != host.edges:
            extra = index.keys() - host.edges
            if extra:
                bad = self.paths[min(index[e] for e in extra)]
                raise ValueError("path %r not valid in host" % (bad,))
            missing = host.edges - index.keys()
            raise ValueError("decomposition misses %d edges" % len(missing))
        self.index = index

    def __len__(self):
        return len(self.paths)

    def path_of(self, e):
        return self.paths[self.index[canonical_edge(*e)]]

    def path_id_of(self, e):
        return self.index[canonical_edge(*e)]


def _extract_long_path(adj, start):
    """
    Greedily grow a path from start in the remaining-edge adjacency, extending
    the tail by the highest-degree unused neighbor and applying rotations when
    stuck. Consumes the returned path's edges from adj.
    """
    path = [start]
    in_path = {start}

    def extend_tail():
        grown = False
        while True:
            # the unused neighbor of highest degree, ties to the least label
            best = None
            for w in adj[path[-1]]:
                if w in in_path:
                    continue
                deg = len(adj[w])
                if best is None or deg > best_deg or (deg == best_deg and w < best):
                    best, best_deg = w, deg
            if best is None:
                return grown
            path.append(best)
            in_path.add(best)
            grown = True

    extend_tail()
    path.reverse()
    extend_tail()
    # rotations: with the tail stuck, an edge from the tail back into the path
    # lets us flip the suffix and expose a new endpoint
    rotations = 0
    seen_tails = {path[-1]}
    pos = {v: i for i, v in enumerate(path)}
    while rotations < 2 * len(path):
        tail = path[-1]
        rotated = False
        for u in sorted(adj[tail]):
            i = pos.get(u)
            if i is None or i >= len(path) - 2:
                continue
            new_tail = path[i + 1]
            if new_tail in seen_tails:
                continue
            path[i + 1:] = path[:i:-1]
            for k in range(i + 1, len(path)):
                pos[path[k]] = k
            seen_tails.add(new_tail)
            rotations += 1
            rotated = True
            grown_from = len(path)
            if extend_tail():
                for k in range(grown_from, len(path)):
                    pos[path[k]] = k
                seen_tails = {path[-1]}
            break
        if not rotated:
            break
    for a, b in zip(path, path[1:]):
        adj[a].discard(b)
        adj[b].discard(a)
    return path


def decompose_into_paths(G):
    """
    Decompose E(G) into at most n simple paths: repeatedly grow a long path
    greedily from the vertex with the most remaining edges, least label on
    ties, until no edge is left. The n bound is checked, not proved; exceeding
    it is a hard defect, not a recoverable error.
    """
    adj = {}
    for u, v in G.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    # most remaining edges first, least label on ties; an entry whose degree
    # has dropped since it was pushed is stale and skipped
    heap = [(-len(nb), v) for v, nb in adj.items()]
    heapq.heapify(heap)
    all_paths = []
    while heap:
        d, v = heapq.heappop(heap)
        if -d != len(adj[v]):
            continue
        path = _extract_long_path(adj, v)
        all_paths.append(path)
        for w in path:
            if adj[w]:
                heapq.heappush(heap, (-len(adj[w]), w))
    if len(all_paths) > len(G):
        raise AssertionError(
            "path decomposition produced %d > n = %d paths" % (len(all_paths), len(G))
        )
    return PathDecomposition([Path(p) for p in all_paths], G)


def decompose_into_bounded_paths(G, d):
    """Split each decomposition path left to right into pieces of length <= d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    base = decompose_into_paths(G)
    pieces = []
    for p in base.paths:
        vs = p.vertices
        for i in range(0, len(vs) - 1, d):
            pieces.append(Path(vs[i:i + d + 1]))
    return PathDecomposition(pieces, G)
