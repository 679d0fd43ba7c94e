"""Decompose a graph's edge set into few simple paths, optionally length-bounded."""

from collections import defaultdict

from .graphs import Path, canonical_edge

VIRTUAL = -1

# Above this average degree a component first sheds long greedy paths before
# the Euler-trail route runs; keeps the piece count under n on dense inputs.
DENSE_THRESHOLD = 6


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


def _extract_long_path(adj):
    """
    Greedily grow a path in the remaining-edge adjacency, extending the tail
    by the highest-degree unused neighbor and applying rotations when stuck.
    Consumes the returned path's edges from adj.
    """
    start = max(adj, key=lambda v: (len(adj[v]), -v))
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


def _euler_circuit(adj, start):
    """Hierholzer on a mutable adjacency dict of sets; consumes edges."""
    stack = [start]
    circuit = []
    while stack:
        v = stack[-1]
        if adj[v]:
            w = min(adj[v])
            adj[v].discard(w)
            adj[w].discard(v)
            stack.append(w)
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return circuit


def _split_trail(trail):
    """Split an open trail into simple paths and simple cycles (stack scan)."""
    paths, cycles = [], []
    stack = []
    pos = {}
    for v in trail:
        if v in pos:
            i = pos[v]
            cycles.append(stack[i:] + [v])
            for u in stack[i + 1:]:
                del pos[u]
            del stack[i + 1:]
        else:
            pos[v] = len(stack)
            stack.append(v)
    if len(stack) >= 2:
        paths.append(stack)
    return paths, cycles


def _absorb_cycles(paths, cycles):
    """
    Fold each cycle into a path that meets it in exactly one vertex: the path
    splits there and each half takes one arc, keeping the piece count equal.
    Cycles with no such host are opened into a path plus the closing edge.
    """
    out = [list(p) for p in paths]
    pending = [list(c) for c in cycles]
    progress = True
    while pending and progress:
        progress = False
        rest = []
        for cyc in pending:
            body = cyc[:-1]
            bset = set(body)
            placed = False
            for pi, p in enumerate(out):
                shared = [v for v in p if v in bset]
                if len(shared) != 1:
                    continue
                x = shared[0]
                j = body.index(x)
                arc = body[j + 1:] + body[:j]  # cycle minus x, in walk order
                k = p.index(x)
                left = p[: k + 1] + arc  # a..x then around the cycle
                right = [arc[-1], x] + p[k + 1:]  # closing edge, then x..b
                out[pi] = left
                out.append(right)
                placed = True
                progress = True
                break
            if not placed:
                rest.append(cyc)
        pending = rest
    for cyc in pending:
        body = cyc[:-1]
        out.append(body)
        out.append([body[-1], cyc[-1]])
    return out


def _merge_pass(paths):
    """Greedily join paths whose endpoints coincide while the union stays simple."""
    paths = [list(p) for p in paths]
    changed = True
    while changed:
        changed = False
        by_end = defaultdict(list)
        for i, p in enumerate(paths):
            if p is None:
                continue
            by_end[p[0]].append(i)
            by_end[p[-1]].append(i)
        for i in range(len(paths)):
            p = paths[i]
            if p is None:
                continue
            for end in (p[0], p[-1]):
                merged_here = False
                for j in by_end[end]:
                    q = paths[j]
                    if j == i or q is None:
                        continue
                    a = p if p[-1] == end else p[::-1]
                    b = q if q[0] == end else q[::-1]
                    if b[0] != end:
                        continue
                    merged = a + b[1:]
                    if len(set(merged)) == len(merged):
                        paths[i] = merged
                        paths[j] = None
                        p = merged
                        changed = True
                        merged_here = True
                        break
                if merged_here:
                    break
    return [p for p in paths if p is not None]


def _decompose_component(comp_edges):
    adj = defaultdict(set)
    for u, v in comp_edges:
        adj[u].add(v)
        adj[v].add(u)
    long_paths = []
    # the average degree over the vertices that still have edges, as counts
    edges_left, touched = len(comp_edges), len(adj)
    while touched and 2 * edges_left / touched > DENSE_THRESHOLD:
        p = _extract_long_path(adj)
        long_paths.append(p)
        edges_left -= len(p) - 1
        touched -= sum(1 for v in p if not adj[v])
    # Euler route on the sparse remainder, component by component; each
    # circuit consumes every edge of its component
    paths, cycles = [], []
    for seed in sorted(v for v in adj if adj[v]):
        if not adj[seed]:
            continue
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        odd = sorted(v for v in comp if len(adj[v]) % 2 == 1)
        for v in odd:
            adj[VIRTUAL].add(v)
            adj[v].add(VIRTUAL)
        circuit = _euler_circuit(adj, VIRTUAL if odd else seed)
        cur = []
        trails = []
        for v in circuit:
            if v == VIRTUAL:
                if len(cur) >= 2:
                    trails.append(cur)
                cur = []
            else:
                cur.append(v)
        if len(cur) >= 2:
            trails.append(cur)
        for t in trails:
            ps, cs = _split_trail(t)
            paths.extend(ps)
            cycles.extend(cs)
        adj.pop(VIRTUAL, None)
    pieces = _absorb_cycles(paths, cycles)
    return _merge_pass(long_paths + pieces)


def decompose_into_paths(G):
    """
    Decompose E(G) into at most n simple paths. Dense components first shed
    long greedily grown paths; the remainder goes through per-component Euler
    trails split into simple pieces, cycle absorption, and an end-to-end merge
    pass. Exceeding the n bound is a hard defect, not a recoverable error.
    """
    comps = G.components()
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    buckets = [[] for _ in comps]
    for e in G.edges:
        buckets[comp_of[e[0]]].append(e)
    all_paths = []
    for bucket in buckets:
        if bucket:
            all_paths.extend(_decompose_component(bucket))
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
