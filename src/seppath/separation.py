"""Separating path systems: verification, exact small-instance oracle, baselines."""

from .decomp import decompose_into_paths
from .graphs import Graph, Path, canonical_edge

ORACLE_MAX_N = 7
ORACLE_MAX_E = 12


class PathSystem:
    """A collection of paths claimed to separate a target edge set of a host graph."""

    __slots__ = ("host", "paths", "target", "mode")

    def __init__(self, host, paths, target=None, mode="strong"):
        if mode not in ("strong", "weak"):
            raise ValueError("mode must be strong or weak")
        self.host = host
        self.paths = tuple(paths)
        if target is None or target is host.edges:
            # the host's edge set is already a frozenset of canonical edges
            self.target = host.edges
        else:
            self.target = frozenset(canonical_edge(*e) for e in target)
            if not self.target <= host.edges:
                raise ValueError("target contains non-edges of the host")
        self.mode = mode

    def __len__(self):
        return len(self.paths)


class SeparationReport:
    """The verdict of verify_separation and its least violating pair; a
    target edge on no path has witness (e, None)."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok, witness):
        self.ok = ok
        self.witness = witness

    def __repr__(self):
        return "SeparationReport(ok=%r, witness=%r)" % (self.ok, self.witness)


def verify_separation(system):
    """
    Check the separation property. Strong: every target edge lies on a path,
    and every ordered pair (e, f) of distinct target edges has a path
    containing e but not f. Weak: every unordered pair has a path containing
    exactly one. Witness is the lexicographically least violating pair; in
    strong mode a target edge on no path has witness (e, None).

    In strong mode the one-edge paths are checked as a set: a path holding
    the single edge e separates e from every other edge, so e passes, and
    its bit would lie in no other signature, so it could decide no other
    pair. Their edges are checked against the host at once and set no bit.
    One walk per longer path (every path in weak mode) checks it by the
    rule of Path.valid_in, sets its bit in the signature of each target
    edge on it and keeps, for each such edge, its path with the fewest
    target edges. An invalid system raises for its first invalid path.
    """
    host = system.host
    host_edges = host.edges
    target = system.target
    paths = system.paths
    strong = system.mode == "strong"
    # the canonical edges of the one-edge paths; none in weak mode
    single = {(a, b) if a < b else (b, a) for a, b in
              (p.vertices for p in paths if len(p.vertices) == 2)
              } if strong else set()
    if not host_edges.issuperset(single):
        # name the first invalid path in index order, of any length
        bad = next(p for p in paths if not p.valid_in(host))
        raise ValueError("path %r not valid in host graph" % (bad,))
    # the target is a subset of the host's edges, so when the sizes agree
    # every edge of a valid path is a target edge
    whole_host = len(target) == len(host_edges)
    # e -> the bitmap of the longer paths through target edge e
    sig = {}
    # e -> the target edges of e's path with the fewest of them, the least
    # index on ties
    shortest = {}
    for i, p in enumerate(paths):
        if strong and len(p.vertices) == 2:
            continue
        pe = p.edges()
        if not host_edges.issuperset(pe):
            raise ValueError("path %r not valid in host graph" % (p,))
        bit = 1 << i
        on_path = pe if whole_host else [e for e in pe if e in target]
        count = len(on_path)
        for e in on_path:
            sig[e] = sig.get(e, 0) | bit
            kept = shortest.get(e)
            if kept is None or count < len(kept):
                shortest[e] = on_path
    # target edges to check in order: in strong mode, those on no one-edge path
    edges = (sorted(target.difference(single)) if single else
             host.sorted_edges() if target is host_edges else sorted(target))
    if not strong:
        by_sig = {}
        witness = None
        for e in edges:
            se = sig.get(e, 0)
            other = by_sig.get(se)
            if other is not None:
                pair = (other, e)
                if witness is None or pair < witness:
                    witness = pair
            else:
                by_sig[se] = e
        return SeparationReport(witness is None, witness)
    # strong: (e, f) violated iff every path containing e also contains f.
    # Such an f lies on every path of e, so scanning e's path with the
    # fewest target edges finds the same violations as scanning any other.
    for e in edges:
        se = sig.get(e, 0)
        if se == 0:
            return SeparationReport(False, (e, None))
        best = None
        for f in shortest[e]:
            if f != e and sig[f] & se == se:
                if best is None or f < best:
                    best = f
        if best is not None:
            return SeparationReport(False, (e, best))
    return SeparationReport(True, None)


def all_simple_paths(G):
    """All simple paths of G, canonical orientation, longest first then lexicographic."""
    out = set()
    for start in G.vertices():
        stack = [[start]]
        while stack:
            path = stack.pop()
            tail = path[-1]
            for w in G.neighbors(tail):
                if w in path:
                    continue
                ext = path + [w]
                key = tuple(ext) if tuple(ext) < tuple(ext[::-1]) else tuple(ext[::-1])
                out.add(key)
                stack.append(ext)
    return [Path(vs) for vs in sorted(out, key=lambda vs: (-len(vs), vs))]


def _separates(p_edges, e, f, mode):
    if mode == "strong":
        return e in p_edges and f not in p_edges
    return (e in p_edges) != (f in p_edges)


def _low_bit(mask):
    return (mask & -mask).bit_length() - 1


def _bits(mask):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_force_min_system(G, mode="strong", cap=None):
    """
    Exact minimum separating path system by branch and bound over all simple
    paths. Intended for tiny instances only; larger inputs are rejected.

    Which minimum system is returned is fixed by the search order. The
    search branches on the lexicographically least pair not yet separated,
    trying the paths that separate it in `all_simple_paths` order (longest
    first, then lexicographic). The first search node with a branch that
    completes a minimum system decides the result: of its branches that
    complete one, the one whose sorted path list is least is returned. This
    is not in general the lexicographically least minimum system: on K3 it
    returns (0,1,2), (0,2,1), (1,0,2) rather than the three single edges.
    The paths are listed in sorted order.

    Pair j (in lexicographic order) is bit j of a pair mask and path i is
    bit i of a path mask, so the search runs on integers.
    """
    if len(G) > ORACLE_MAX_N or G.num_edges() > ORACLE_MAX_E:
        raise ValueError("instance too large for the exact search")
    edges = G.sorted_edges()
    if len(edges) == 1:
        # a lone edge still needs one path so the system identifies it
        if cap is not None and cap < 1:
            raise ValueError("no separating system within cap %d" % cap)
        return PathSystem(G, [Path(edges[0])], mode=mode)
    if mode == "strong":
        pairs = [(e, f) for e in edges for f in edges if e != f]
    else:
        pairs = [(e, f) for i, e in enumerate(edges) for f in edges[i + 1:]]
    universe = all_simple_paths(G)
    path_edges = [frozenset(p.edges()) for p in universe]
    # sep_pairs[i]: pairs separated by path i; separators[j]: paths separating pair j
    sep_pairs = [0] * len(universe)
    separators = [0] * len(pairs)
    for j, (e, f) in enumerate(pairs):
        for i, pe in enumerate(path_edges):
            if _separates(pe, e, f, mode):
                sep_pairs[i] |= 1 << j
                separators[j] |= 1 << i
    if not all(separators):
        raise ValueError("instance is infeasible (some pair cannot be separated)")
    if cap is None:
        cap = len(edges) + 1

    # conflicts[j]: pairs sharing a separating path with pair j, j included
    conflicts = [0] * len(pairs)
    for j, seps in enumerate(separators):
        for i in _bits(seps):
            conflicts[j] |= sep_pairs[i]

    def lower_bound(missing):
        # greedy antichain: pairs with pairwise disjoint separator sets, taken
        # in increasing order; each one taken rules out the pairs it conflicts with
        count = 0
        while missing:
            count += 1
            missing &= ~conflicts[_low_bit(missing)]
        return count

    best = {"size": cap + 1, "paths": None}

    def search(chosen, size, missing):
        if not missing:
            # the bound is checked once per node, before its branches, so a
            # sibling branch can complete a system of the best size so far;
            # the tie-break needs a system found first, as best["size"]
            # starts above the cap
            cand = sorted(universe[i].vertices for i in _bits(chosen))
            if size < best["size"] or (
                best["paths"] is not None and size == best["size"]
                and cand < best["paths"]
            ):
                best["size"] = size
                best["paths"] = cand
            return
        if size + lower_bound(missing) >= best["size"]:
            return
        for i in _bits(separators[_low_bit(missing)]):
            search(chosen | 1 << i, size + 1, missing & ~sep_pairs[i])

    search(0, 0, (1 << len(pairs)) - 1)
    if best["paths"] is None:
        raise ValueError("no separating system within cap %d" % cap)
    return PathSystem(G, [Path(vs) for vs in best["paths"]], mode=mode)


def singleton_baseline(G):
    """One single-edge path per edge; always strongly separating."""
    return PathSystem(G, [Path(e) for e in G.sorted_edges()], mode="strong")


def baseline_nlogn(G):
    """
    Bit-code baseline: index the edges, and for each bit position take the
    bit-set and bit-unset subgraphs, decomposing each into paths.
    """
    edges = G.sorted_edges()
    m = len(edges)
    if m <= 1:
        return singleton_baseline(G)
    bits = max(1, (m - 1).bit_length())
    paths = []
    for b in range(bits):
        for want in (1, 0):
            # edges of G, canonical and between live vertices
            sub = {e for i, e in enumerate(edges) if (i >> b) & 1 == want}
            H = Graph._view(G.n, sub, G.live)
            paths.extend(decompose_into_paths(H).paths)
    return PathSystem(G, paths, mode="strong")


def column_odd_counts(G):
    """
    The number of odd-degree vertices of each column subgraph of
    baseline_nlogn, bit-set then bit-unset for each bit, from one pass over
    the sorted edges. Bit b of the XOR of the indices of v's edges is v's
    degree parity in the bit-set column b; that bit XOR the parity of
    deg(v) is its parity in the bit-unset column b. So the bit-unset count
    is the bit-set count plus the odd-degree vertices of G, less twice the
    odd-degree vertices with bit b set.
    """
    edges = G.sorted_edges()
    bits = max(1, (len(edges) - 1).bit_length())
    xor = {}
    for i, (u, v) in enumerate(edges):
        xor[u] = xor.get(u, 0) ^ i
        xor[v] = xor.get(v, 0) ^ i
    adj = G.adj
    odd = [x for v, x in xor.items() if len(adj[v]) & 1]
    counts = []
    for b in range(bits):
        # each term is 0 or 1 << b, so the shifted sum counts the set bits
        mask = (1 << b).__and__
        set_all = sum(map(mask, xor.values())) >> b
        set_odd = sum(map(mask, odd)) >> b
        counts += (set_all, set_all + len(odd) - 2 * set_odd)
    return counts


def bitcode_lower_bound(G):
    """
    A lower bound on len(baseline_nlogn(G)) that decomposes nothing. Every
    odd-degree vertex of a column subgraph ends a path of its decomposition,
    and every column is non-empty, so a column with k odd vertices costs at
    least max(1, k/2) paths.
    """
    m = G.num_edges()
    if m <= 1:
        return m
    return sum(max(1, k // 2) for k in column_odd_counts(G))
