"""Expansion testing, violation search, recursive expander decomposition."""

import heapq
import itertools
import math

from .graphs import neighborhood

EXHAUSTIVE_MAX_N = 14
# candidate sets one heuristic violation search may try; must stay below 9749
# for the cut rule of find_violating_pair to be exact on every sweep prefix
SEARCH_BUDGET = 2000
SPECTRAL_SEED = 12345
SPECTRAL_ITERS = 50


class ExpanderParams:
    __slots__ = ("epsilon", "s", "t")

    def __init__(self, epsilon, s=0.0, t=1.0):
        if not (0 < epsilon <= 1.0 / 48):
            raise ValueError("epsilon must lie in (0, 1/48]")
        if s < 0 or t < 1:
            raise ValueError("need s >= 0 and t >= 1")
        self.epsilon = epsilon
        self.s = s
        self.t = t

    def effective_t(self, n):
        return min(self.t, 2 * n / 3)

    def edge_budget(self, x_size, n):
        return int(self.s * min(x_size, self.effective_t(n)))

    def threshold(self, x_size):
        return self.epsilon * x_size / (math.log2(x_size) + 1.0) ** 2

    def __repr__(self):
        return "ExpanderParams(eps=%g, s=%g, t=%g)" % (self.epsilon, self.s, self.t)


class ExpanderDecomposition:
    """Edge-disjoint expander parts plus the uncovered edges, with bound checks."""

    __slots__ = ("parts", "uncovered")

    def __init__(self, parts, uncovered, params, source):
        self.parts = tuple(parts)
        self.uncovered = frozenset(uncovered)
        n = len(source)
        seen = set(self.uncovered)
        for H in self.parts:
            if seen & H.edges:
                raise AssertionError("expander parts overlap on edges")
            seen |= H.edges
        if seen != source.edges:
            raise AssertionError("parts plus uncovered do not partition the edges")
        total = sum(len(H) for H in self.parts)
        if total > 2 * n:
            raise AssertionError("sum of part sizes %d exceeds 2n = %d" % (total, 2 * n))
        t = params.effective_t(n)
        bound = 48 * params.s * n * (math.log2(max(t, 1)) + 1) ** 2
        if len(self.uncovered) > bound:
            raise AssertionError(
                "uncovered %d exceeds bound %g" % (len(self.uncovered), bound))


def is_expander_violation(G, X, F, p):
    """True iff (X, F) certifies that G is not a (eps, s, t)-expander."""
    X = frozenset(X)
    n = len(G)
    if not X <= G.live:
        raise ValueError("X not inside the live vertex set")
    if not (1 <= len(X) <= 2 * n / 3):
        raise ValueError("need 1 <= |X| <= 2n/3")
    F = frozenset(F)
    if not F <= G.edges:
        raise ValueError("F not inside E(G)")
    if len(F) > p.edge_budget(len(X), n):
        raise ValueError("|F| exceeds the edge budget")
    return len(neighborhood(G, X, cut=F)) < p.threshold(len(X))


def _peel_order(G):
    """Repeatedly take the vertex of least live degree, least label first.
    The vertices are yielded as they are taken, so a sweep that stops early
    pays only for the prefix it read."""
    live_deg = {v: G.degree(v) for v in G.live}
    heap = [(d, v) for v, d in live_deg.items()]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if live_deg.get(v) != d:
            continue    # taken already, or its degree has dropped since
        del live_deg[v]
        yield v
        for w in G.neighbors(v):
            if w in live_deg:
                live_deg[w] -= 1
                heapq.heappush(heap, (live_deg[w], w))


def _cut_edges(G, X):
    """The edges of G with exactly one end in X, as canonical pairs."""
    return frozenset((v, w) if v < w else (w, v)
                     for v in X for w in G.neighbors(v) if w not in X)


def _check_candidate(G, X, p):
    """(X, F) with F the cut of X when X is a violation by the cut rule of
    find_violating_pair, else None."""
    n = len(G)
    if not (1 <= len(X) <= 2 * n / 3):
        return None
    F = _cut_edges(G, X)
    return (frozenset(X), F) if len(F) <= p.edge_budget(len(X), n) else None


def _exhaustive_search(G, p):
    """
    The first X, by size and then lexicographically, on which
    _check_candidate hits (here |X| <= 2n/3 <= 9), with cut(X) counted on
    neighbor bitmasks.
    """
    n = len(G)
    verts = G.vertices()
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [sum(1 << index[w] for w in G.neighbors(v)) for v in verts]
    for size in range(1, int(2 * n / 3) + 1):
        budget = p.edge_budget(size, n)
        for combo in itertools.combinations(range(n), size):
            inside = 0
            for i in combo:
                inside |= 1 << i
            outside = ~inside
            if sum((nbrs[i] & outside).bit_count() for i in combo) <= budget:
                X = {verts[i] for i in combo}
                return (frozenset(X), _cut_edges(G, X))
    return None


def _spectral_order(G):
    # numpy is imported here, its only use, so the package loads without it
    import numpy as np
    verts = [v for v in G.vertices() if G.degree(v) > 0]
    if len(verts) < 2:
        return verts
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    A = np.zeros((n, n))
    for u, v in G.edges:
        if u in idx and v in idx:
            A[idx[u], idx[v]] = 1.0
            A[idx[v], idx[u]] = 1.0
    deg = A.sum(axis=1)
    P = 0.5 * np.eye(n) + 0.5 * (A / deg)
    rng = np.random.default_rng(SPECTRAL_SEED)
    x = rng.standard_normal(n)
    pi = deg / deg.sum()
    for _ in range(SPECTRAL_ITERS):
        x = P @ x
        x -= (x @ pi) / (pi @ pi) * pi
        norm = np.linalg.norm(x)
        if norm < 1e-12:
            break
        x /= norm
    score = x / np.maximum(deg, 1)
    return [v for _, v in sorted(zip(score, verts), key=lambda sv: (sv[0], sv[1]))]


def find_violating_pair(G, p):
    """
    Heuristic search for a non-expansion certificate: exhaustive over all X
    when the graph is small, else a component split, then the prefixes of the
    low-degree peeling order and of the spectral order, at most SEARCH_BUDGET
    of them in all. There is no local improvement of a failed sweep. No
    return is not a proof of expansion.

    X is a hit, with F its whole cut, iff cut(X) <= p.edge_budget(|X|, n).
    This is exact when p.threshold(|X|) < 1, as epsilon <= 1/48 gives for
    |X| < 9749: then X violates iff the budget can leave it no neighbor,
    that is, iff its whole cut fits. Every X here is smaller: |X| <= 9 when
    exhaustive, a cut-free union of components, or a sweep prefix of at most
    SEARCH_BUDGET vertices.
    """
    n = len(G)
    if n < 2:
        return None
    if n <= EXHAUSTIVE_MAX_N:
        return _exhaustive_search(G, p)

    comps = G.components()
    if len(comps) > 1:
        comps.sort(key=len)
        X = set()
        for c in comps[:-1]:
            if len(X) + len(c) <= 2 * n / 3:
                X.update(c)
        if X:
            return (frozenset(X), frozenset())

    def orders():
        # lazy: the spectral order is computed only if the peeling sweep fails
        yield _peel_order(G)
        yield _spectral_order(G)

    evals = 0
    for order in orders():
        X, cut = set(), 0
        for v in order:
            # v's edges into X leave the cut, its other edges join it
            cut += G.degree(v) - 2 * sum(1 for w in G.neighbors(v) if w in X)
            X.add(v)
            if len(X) > 2 * n / 3:
                break
            evals += 1
            if evals > SEARCH_BUDGET:
                return None
            if cut <= p.edge_budget(len(X), n):
                return (frozenset(X), _cut_edges(G, X))
    return None


def expander_decompose(G, p):
    """
    Recursive decomposition: split on any violation (X, F) into G[X] and
    G - X. F is the whole cut of X (see find_violating_pair), so
    N_{G-F}(X) is empty, and the cut edges F are the ones left uncovered.
    """
    parts = []
    uncovered = set()
    stack = [G]
    while stack:
        H = stack.pop()
        isolated = [v for v in H.vertices() if H.degree(v) == 0]
        if isolated:
            H = H.without(vertices=isolated)
        if len(H) <= 1 or not H.edges:
            continue
        viol = find_violating_pair(H, p)
        if viol is None:
            parts.append(H)
            continue
        X, F = viol
        if not is_expander_violation(H, X, F, p):
            raise AssertionError("search returned a non-violation")
        G1 = H.induced(X)
        G2 = H.without(vertices=X)
        if len(G1) >= len(H) and len(G2) >= len(H):
            raise AssertionError("non-decreasing expander split")
        uncovered |= F
        stack.append(G2)
        stack.append(G1)
    parts.sort(key=lambda H: sorted(H.live))
    return ExpanderDecomposition(parts, uncovered, p, G)


def certify_expander_exhaustive(G, p):
    """Exact expansion check by enumerating every X; only sane for tiny graphs."""
    n = len(G)
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError("graph too large for exhaustive certification")
    verts = G.vertices()
    limit = 2 * n / 3
    for mask in range(1, 1 << n):
        X = {verts[i] for i in range(n) if (mask >> i) & 1}
        if not (1 <= len(X) <= limit):
            continue
        if _check_candidate(G, X, p) is not None:
            return False
    return True
