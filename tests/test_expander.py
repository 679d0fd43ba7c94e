import itertools
import random

import pytest

from seppath.expander import (
    SEARCH_BUDGET,
    ExpanderDecomposition,
    ExpanderParams,
    _check_candidate,
    _cut_edges,
    _peel_order,
    _spectral_order,
    certify_expander_exhaustive,
    expander_decompose,
    find_violating_pair,
    is_expander_violation,
)
from seppath.graphs import Graph, generate, neighborhood
from seppath.strategies import EPSILON, S_DENSE, S_SPARSE
from test_pinned_outputs import three_block_graph

EPS = 1.0 / 48


def test_params_validation():
    with pytest.raises(ValueError):
        ExpanderParams(0.5)
    with pytest.raises(ValueError):
        ExpanderParams(EPS, s=-1)


def test_violation_examples():
    p = ExpanderParams(EPS)
    G = Graph(4, [(0, 1), (2, 3)])
    assert is_expander_violation(G, {0, 1}, set(), p)
    K5 = generate("complete", 5)
    for size in (1, 2, 3):
        X = set(range(size))
        assert not is_expander_violation(K5, X, set(), p)


def test_violation_precondition_rejected():
    p = ExpanderParams(EPS)
    K5 = generate("complete", 5)
    with pytest.raises(ValueError):
        is_expander_violation(K5, set(range(4)), set(), p)  # |X| > 2n/3
    with pytest.raises(ValueError):
        is_expander_violation(K5, {0}, {(0, 1)}, p)  # budget s=0


def test_singleton_graph_vacuous():
    p = ExpanderParams(EPS)
    G = Graph(1, [])
    assert find_violating_pair(G, p) is None
    assert certify_expander_exhaustive(G, p)


def test_find_on_disconnected():
    p = ExpanderParams(EPS)
    G = Graph(9, [(0, 1), (1, 2), (3, 4), (5, 6), (7, 8)])
    hit = find_violating_pair(G, p)
    assert hit is not None
    X, F = hit
    assert is_expander_violation(G, X, F, p)


def test_find_nothing_on_complete():
    p = ExpanderParams(EPS)
    assert find_violating_pair(generate("complete", 12), p) is None
    assert find_violating_pair(generate("complete", 20), p) is None


def test_barbell_split():
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    edges += [(u + 10, v + 10) for u in range(10) for v in range(u + 1, 10)]
    edges += [(0, 10)]
    G = Graph(20, edges)
    p = ExpanderParams(EPS, s=1, t=20)
    hit = find_violating_pair(G, p)
    assert hit is not None
    assert is_expander_violation(G, *hit, p)
    D = expander_decompose(G, p)
    assert len(D.parts) >= 2


def test_decompose_trivial_cases():
    p = ExpanderParams(EPS)
    D = expander_decompose(generate("complete", 10), p)
    assert len(D.parts) == 1 and not D.uncovered
    T = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    D = expander_decompose(T, p)
    assert len(D.parts) == 2 and not D.uncovered


def test_decompose_invariants_random_corpus():
    rng = random.Random(77)
    for trial in range(60):
        n = rng.randint(2, 28)
        G = generate("gnp", n, rng.choice([0.1, 0.3, 0.6]), seed=trial)
        for s in (0, 1, 2):
            p = ExpanderParams(EPS, s=s, t=max(1, 2 * n // 3))
            D = expander_decompose(G, p)
            # partition / 2n / uncovered bounds are asserted in the constructor;
            # re-check the headline ones explicitly
            part_edges = set()
            for H in D.parts:
                part_edges |= H.edges
            assert part_edges | D.uncovered == G.edges
            assert sum(len(H) for H in D.parts) <= 2 * len(G)
            if s == 0:
                assert not D.uncovered
            for H in D.parts:
                if len(H) <= 14:
                    assert certify_expander_exhaustive(H, p)


def _block_union(rng, trial):
    """A disjoint union of G(n, p) blocks of 2 to 14 and of 15 to 30
    vertices plus isolated vertices, under a random relabelling, so the
    components interleave in label order."""
    sizes = [rng.randint(2, 14) for _ in range(rng.randint(0, 3))]
    sizes += [rng.randint(15, 30) for _ in range(rng.randint(0, 2))]
    sizes += [1] * rng.randint(0, 4)
    rng.shuffle(sizes)
    n = sum(sizes)
    label = list(range(n))
    rng.shuffle(label)
    edges, base = [], 0
    for k, size in enumerate(sizes):
        block = generate("gnp", size, rng.choice([0.15, 0.3, 0.6, 1.0]),
                         seed=trial * 10 + k)
        edges += [(label[base + u], label[base + v]) for u, v in block.edges]
        base += size
    return Graph(n, edges)


def test_zero_budget_split_is_the_components():
    # reduce_small_deg takes the components with an edge in place of the
    # zero-budget decomposition: with no edge to spend, a hit X has an
    # empty cut, so it is a union of components, and a connected graph has
    # none of at most 2n/3 vertices
    p = ExpanderParams(EPSILON, s=0.0, t=1.0)
    rng = random.Random(17)
    shapes = set()
    for trial in range(80):
        G = _block_union(rng, trial)
        comps = [G.induced(c) for c in G.components() if len(c) > 1]
        parts = expander_decompose(G, p).parts
        assert ([(H.n, H.live, H.edges) for H in parts]
                == [(H.n, H.live, H.edges) for H in comps]), trial
        shapes.add((len(G) <= 14, any(len(H) > 14 for H in comps),
                    len(comps) > 1))
    assert len(shapes) >= 5


def ref_best_F(G, X, p):
    # reference for the cut rule: the general multiplicity rule. Cut off
    # the outside neighbors of X in increasing X-multiplicity while their
    # edges fit the budget; this leaves the fewest neighbors, since only a
    # fully cut-off neighbor leaves N(X). Returns F and the neighbors left.
    budget = p.edge_budget(len(X), len(G))
    mult = {}
    for v in X:
        for w in G.neighbors(v):
            if w not in X:
                mult.setdefault(w, []).append((min(v, w), max(v, w)))
    F = []
    removed = 0
    for w in sorted(mult, key=lambda w: (len(mult[w]), w)):
        if len(F) + len(mult[w]) > budget:
            break
        F.extend(mult[w])
        removed += 1
    return frozenset(F), len(mult) - removed


def test_check_candidate_matches_best_F_on_every_set():
    # the cut rule on every admissible X, not only on sweep prefixes:
    # a hit iff ref_best_F leaves fewer neighbors than the threshold, with
    # ref_best_F's F
    rng = random.Random(5)
    outcomes = set()
    for trial in range(10):
        n = rng.randint(4, 10)
        G = generate("gnp", n, rng.choice((0.3, 0.5, 0.7)), seed=trial)
        for s in (0, 1, 2, 8):
            p = ExpanderParams(EPS, s=s, t=n)
            for size in range(1, int(2 * n / 3) + 1):
                for X in itertools.combinations(G.vertices(), size):
                    F, n_left = ref_best_F(G, set(X), p)
                    hit = _check_candidate(G, set(X), p)
                    assert (hit is not None) == (n_left < p.threshold(size))
                    if hit is not None:
                        assert hit == (frozenset(X), F)
                        assert is_expander_violation(G, X, F, p)
                    outcomes.add((s > 0, hit is not None))
    assert len(outcomes) == 4


def test_find_deterministic():
    G = generate("gnp", 40, 0.08, seed=13)
    p = ExpanderParams(EPS, s=1, t=10)
    assert find_violating_pair(G, p) == find_violating_pair(G, p)


def quadratic_peel_order(G):
    # reference: scan every live vertex for the least (live degree, label)
    adj = {v: set(G.neighbors(v)) for v in G.vertices()}
    order = []
    alive = set(adj)
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        order.append(v)
        alive.discard(v)
    return order


SWEEP_GRAPHS = ([generate("gnp", n, q, seed=s) for n, q in ((30, 0.2), (60, 0.1), (80, 0.3))
                 for s in range(2)]
                + [three_block_graph(s) for s in (1001, 1002)]
                + [generate("gnp", 40, 0.1, seed=4).without(vertices=range(10))])


def test_peel_order_matches_quadratic_scan():
    for G in SWEEP_GRAPHS + [generate("grid", 5, 6), generate("star", 9), Graph(5, [])]:
        assert list(_peel_order(G)) == quadratic_peel_order(G)


def test_cut_rule_matches_best_F_on_every_prefix():
    # every prefix of both sweep orders, not only up to the first hit: the
    # cut rule gives ref_best_F's hit and F, and the running cut, updated as
    # find_violating_pair updates it, is the from-scratch cut
    outcomes = set()
    for G in SWEEP_GRAPHS:
        n = len(G)
        for s in (0, 2, 8):
            p = ExpanderParams(EPS, s=s, t=max(1, n // 3))
            for order in (_peel_order(G), _spectral_order(G)):
                X, cut = set(), 0
                for v in order:
                    cut += G.degree(v) - 2 * sum(1 for w in G.neighbors(v) if w in X)
                    X.add(v)
                    assert cut == len(_cut_edges(G, X))
                    if len(X) > 2 * n / 3:
                        continue
                    F, n_left = ref_best_F(G, X, p)
                    hit = _check_candidate(G, X, p)
                    assert (hit is not None) == (n_left < p.threshold(len(X)))
                    assert (hit is not None) == (cut <= p.edge_budget(len(X), n))
                    if hit is not None:
                        assert hit == (frozenset(X), F)
                    outcomes.add((s > 0, hit is not None))
    assert len(outcomes) == 4


def test_search_budget_below_threshold_crossover():
    # the cut rule is exact only while the threshold is below 1; a sweep
    # prefix has at most SEARCH_BUDGET vertices
    p = ExpanderParams(EPSILON)
    assert p.threshold(9748) < 1 <= p.threshold(9749)
    assert SEARCH_BUDGET < 9749
    assert all(p.threshold(x) < 1 for x in range(1, SEARCH_BUDGET + 1))


@pytest.mark.parametrize("parts, uncovered, message", [
    ([[(0, 1)]], [], "parts plus uncovered do not partition the edges"),
    ([[(0, 1), (1, 2)], [(1, 2)]], [], "expander parts overlap on edges"),
    ([[(0, 1), (1, 2)], [], []], [], "sum of part sizes 9 exceeds 2n = 6"),
    ([[(0, 1)]], [(1, 2)], "uncovered 1 exceeds bound 0"),
])
def test_decomposition_guards(parts, uncovered, message):
    # every part keeps all three vertices live, so sizes add up by threes
    source = generate("path", 3)
    graphs = [Graph(3, edges) for edges in parts]
    with pytest.raises(AssertionError, match="^%s$" % message):
        ExpanderDecomposition(graphs, uncovered, ExpanderParams(EPS), source)


def find_violating_pair_by_scan(G, p):
    # reference for the exhaustive branch: _check_candidate on every X, by
    # size and then lexicographically
    n = len(G)
    for size in range(1, int(2 * n / 3) + 1):
        for X in itertools.combinations(G.vertices(), size):
            hit = _check_candidate(G, set(X), p)
            if hit is not None:
                return hit
    return None


def two_block_graph(n, joins, seed):
    # cliques on the first half and the rest, plus `joins` random edges
    # between them
    rng = random.Random(seed)
    half = n // 2
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if (u < half) == (v < half)}
    between = [(u, v) for u in range(half) for v in range(half, n)]
    edges |= set(rng.sample(between, min(joins, len(between))))
    return Graph(n, edges)


def exhaustive_corpus():
    graphs = []
    for n in range(2, 15):
        graphs += [generate("complete", n), generate("star", n), generate("path", n)]
        if n >= 3:
            graphs.append(generate("cycle", n))
        graphs += [generate("gnp", n, q, seed=100 * n + k)
                   for k, q in enumerate((0.15, 0.3, 0.5, 0.8))]
        graphs += [two_block_graph(n, joins, seed=n) for joins in (0, 1, 3)]
    return graphs


def test_exhaustive_search_matches_scan():
    # the cut-count rule against _check_candidate on every X, under the
    # pipeline's three ExpanderParams: zero budget, the sparse split at
    # t = d and the dense split at t = 2n/3
    outcomes = set()
    for G in exhaustive_corpus():
        n = len(G)
        params = [ExpanderParams(EPSILON, s=0.0, t=1.0),
                  ExpanderParams(EPSILON, s=S_SPARSE, t=1.0),
                  ExpanderParams(EPSILON, s=S_SPARSE, t=3.0),
                  ExpanderParams(EPSILON, s=S_DENSE, t=max(1.0, 2 * n / 3))]
        for p in params:
            hit = find_violating_pair(G, p)
            assert hit == find_violating_pair_by_scan(G, p), (G, p)
            outcomes.add((p.s > 0, hit is not None))
    assert len(outcomes) == 4


def pipeline_params(G):
    # the pipeline's three ExpanderParams for G: zero budget, the sparse
    # split at t = d and the dense split at t = 2n/3
    n = len(G)
    return [ExpanderParams(EPSILON, s=0.0, t=1.0),
            ExpanderParams(EPSILON, s=S_SPARSE, t=max(1.0, G.avg_degree())),
            ExpanderParams(EPSILON, s=S_DENSE, t=max(1.0, 2 * n / 3))]


def test_every_hit_cuts_off_all_neighbors():
    # expander_decompose splits on G[X] and G - X and leaves F uncovered:
    # sound because F is the whole cut of X, so X keeps no neighbor
    kinds = set()
    for G in SWEEP_GRAPHS + exhaustive_corpus():
        for p in pipeline_params(G):
            hit = find_violating_pair(G, p)
            if hit is None:
                continue
            X, F = hit
            assert F == _cut_edges(G, X)
            assert not neighborhood(G, X, cut=F)
            kinds.add((len(G) > 14, bool(F)))
    assert len(kinds) == 4
