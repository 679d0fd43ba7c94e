import random

import pytest

from seppath.expander import (
    ExpanderParams,
    certify_expander_exhaustive,
    expander_decompose,
    find_violating_pair,
    is_expander_violation,
)
from seppath.graphs import Graph, generate

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


def test_find_deterministic():
    G = generate("gnp", 40, 0.08, seed=13)
    p = ExpanderParams(EPS, s=1, t=10)
    assert find_violating_pair(G, p) == find_violating_pair(G, p)
