"""Expansion testing, violation search, recursive expander decomposition."""

import itertools
import math

import numpy as np

from .graphs import neighborhood

EXHAUSTIVE_MAX_N = 14
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

    __slots__ = ("parts", "uncovered", "params")

    def __init__(self, parts, uncovered, params, source):
        self.parts = tuple(parts)
        self.uncovered = frozenset(uncovered)
        self.params = params
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
    H = G.without(edges=F)
    return len(neighborhood(H, X)) < p.threshold(len(X))


def _best_F(G, X, p):
    """
    Cheapest way to shrink |N(X)| by deleting cut edges within the budget:
    eliminate outside neighbors in increasing order of their X-multiplicity.
    This is optimal, since only fully disconnected neighbors leave N(X).
    """
    n = len(G)
    budget = p.edge_budget(len(X), n)
    mult = {}
    for v in X:
        for w in G.neighbors(v):
            if w not in X:
                mult.setdefault(w, []).append((min(v, w), max(v, w)))
    order = sorted(mult, key=lambda w: (len(mult[w]), w))
    F = []
    removed = 0
    for w in order:
        if len(F) + len(mult[w]) > budget:
            break
        F.extend(mult[w])
        removed += 1
    return frozenset(F), len(mult) - removed


def _check_candidate(G, X, p):
    n = len(G)
    if not (1 <= len(X) <= 2 * n / 3):
        return None
    F, n_left = _best_F(G, X, p)
    if n_left < p.threshold(len(X)):
        return (frozenset(X), F)
    return None


def _spectral_order(G):
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


def find_violating_pair(G, p, budget=2000):
    """
    Heuristic search for a non-expansion certificate. Tries component splits,
    low-degree peeling prefixes, spectral sweep cuts, and local improvement;
    exhaustive over all X when the graph is small. No return is not a proof
    of expansion.
    """
    n = len(G)
    if n < 2:
        return None
    if n <= EXHAUSTIVE_MAX_N:
        limit = int(2 * n / 3)
        verts = G.vertices()
        for size in range(1, limit + 1):
            for X in itertools.combinations(verts, size):
                hit = _check_candidate(G, set(X), p)
                if hit is not None:
                    return hit
        return None

    comps = G.components()
    if len(comps) > 1:
        comps.sort(key=len)
        X = set()
        for c in comps[:-1]:
            if len(X) + len(c) <= 2 * n / 3:
                X.update(c)
        if X:
            hit = _check_candidate(G, X, p)
            if hit is not None:
                return hit

    evals = 0
    # low-degree peeling order
    adj = {v: set(G.neighbors(v)) for v in G.vertices()}
    peel = []
    alive = set(adj)
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        peel.append(v)
        alive.discard(v)
    orders = [peel, _spectral_order(G)]
    best_cut = None
    for order in orders:
        X = set()
        for v in order:
            X.add(v)
            if len(X) > 2 * n / 3:
                break
            evals += 1
            if evals > budget:
                break
            hit = _check_candidate(G, X, p)
            if hit is not None:
                return hit
            # remember the tightest prefix for local improvement
            F, n_left = _best_F(G, X, p)
            slack = n_left - p.threshold(len(X))
            if best_cut is None or slack < best_cut[0]:
                best_cut = (slack, set(X))
        if evals > budget:
            break
    if best_cut is not None and evals <= budget:
        X = set(best_cut[1])
        for _ in range(min(2 * n, budget - evals)):
            boundary = sorted(neighborhood(G, X))
            improved = False
            for w in boundary:
                trial = X | {w}
                if len(trial) > 2 * n / 3:
                    continue
                hit = _check_candidate(G, trial, p)
                if hit is not None:
                    return hit
                _, n_left = _best_F(G, trial, p)
                if n_left - p.threshold(len(trial)) < best_cut[0]:
                    best_cut = (n_left - p.threshold(len(trial)), trial)
                    X = trial
                    improved = True
                    break
            if not improved:
                break
    return None


def expander_decompose(G, p, budget=2000):
    """
    Recursive decomposition: split on any violation (X, F) into
    G1 = G[X u N_{G-F}(X)] and G2 = (G - X) minus the edges inside the
    neighborhood; whatever falls outside both becomes uncovered.
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
        viol = find_violating_pair(H, p, budget)
        if viol is None:
            parts.append(H)
            continue
        X, F = viol
        if not is_expander_violation(H, X, F, p):
            raise AssertionError("search returned a non-violation")
        N = neighborhood(H.without(edges=F), X)
        G1 = H.induced(X | N)
        inside_N = {e for e in H.edges if e[0] in N and e[1] in N}
        G2 = H.without(vertices=X, edges=inside_N)
        if len(G1) >= len(H) and len(G2) >= len(H):
            raise AssertionError("non-decreasing expander split")
        uncovered |= set(H.edges) - set(G1.edges) - set(G2.edges)
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
