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
        self.target = frozenset(
            canonical_edge(*e) for e in (host.edges if target is None else target)
        )
        if not self.target <= host.edges:
            raise ValueError("target contains non-edges of the host")
        self.mode = mode

    def __len__(self):
        return len(self.paths)


class SeparationReport:
    __slots__ = ("ok", "witness", "covered")

    def __init__(self, ok, witness, covered):
        self.ok = ok
        self.witness = witness
        self.covered = covered

    def __repr__(self):
        return "SeparationReport(ok=%r, witness=%r, covered=%d)" % (
            self.ok, self.witness, self.covered)


def _signatures(system):
    """Per-target-edge bitmap of the paths containing it."""
    sig = {e: 0 for e in system.target}
    for i, p in enumerate(system.paths):
        if not p.valid_in(system.host):
            raise ValueError("path %r not valid in host graph" % (p,))
        bit = 1 << i
        for e in p.edges():
            if e in sig:
                sig[e] |= bit
    return sig


def verify_separation(system):
    """
    Check the separation property. Strong: every ordered pair (e, f) of
    distinct target edges has a path containing e but not f. Weak: every
    unordered pair has a path containing exactly one. Witness is the
    lexicographically least violating pair.
    """
    sig = _signatures(system)
    edges = sorted(system.target)
    covered = sum(1 for e in edges if sig[e])
    if len(edges) < 2:
        return SeparationReport(True, None, covered)
    if system.mode == "weak":
        by_sig = {}
        witness = None
        for e in edges:
            other = by_sig.get(sig[e])
            if other is not None:
                pair = (other, e)
                if witness is None or pair < witness:
                    witness = pair
            else:
                by_sig[sig[e]] = e
        return SeparationReport(witness is None, witness, covered)
    # strong: (e, f) violated iff every path containing e also contains f
    edge_list_of_path = [
        [e for e in p.edges() if e in sig] for p in system.paths
    ]
    for e in edges:
        se = sig[e]
        if se == 0:
            f = next(x for x in edges if x != e)
            return SeparationReport(False, (e, f), covered)
        first_path = (se & -se).bit_length() - 1
        best = None
        for f in edge_list_of_path[first_path]:
            if f != e and (se & ~sig[f]) == 0:
                if best is None or f < best:
                    best = f
        if best is not None:
            return SeparationReport(False, (e, best), covered)
    return SeparationReport(True, None, covered)


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
    edges = sorted(G.edges)
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


def singleton_baseline(G, target=None):
    """One single-edge path per target edge; always strongly separating."""
    edges = sorted(G.edges if target is None else target)
    return PathSystem(G, [Path(e) for e in edges], target=edges, mode="strong")


def baseline_nlogn(G):
    """
    Bit-code baseline: index the edges, and for each bit position take the
    bit-set and bit-unset subgraphs, decomposing each into paths.
    """
    edges = sorted(G.edges)
    m = len(edges)
    if m <= 1:
        return singleton_baseline(G)
    bits = max(1, (m - 1).bit_length())
    paths = []
    for b in range(bits):
        for want in (1, 0):
            sub = [e for i, e in enumerate(edges) if (i >> b) & 1 == want]
            H = Graph(G.n, sub, live=G.live)
            paths.extend(decompose_into_paths(H).paths)
    return PathSystem(G, paths, mode="strong")
