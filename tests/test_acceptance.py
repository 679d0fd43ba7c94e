"""Acceptance checks: one test per criterion, shared corpus run for 3/4/8/9,
for the check that skipping the bit code changes no selection and for the
check that the singleton candidate is sized without being built."""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from seppath.cli import system_to_text
from seppath.connector import CompletionProblem, check_completion, complete_to_path
from seppath.decomp import decompose_into_bounded_paths, decompose_into_paths
from seppath.expander import (
    EXHAUSTIVE_MAX_N,
    ExpanderParams,
    certify_expander_exhaustive,
    expander_decompose,
)
from seppath.graphs import Graph, Path, generate
from seppath.separation import (
    PathSystem,
    all_simple_paths,
    baseline_nlogn,
    brute_force_min_system,
    singleton_baseline,
    verify_separation,
)
from seppath.strategies import (
    audit_groups,
    audit_matchings_basic,
    audit_matchings_degree,
    audit_matchings_spread,
    iterated_log,
    separate_all,
)
from test_decomp import relabel
from test_pinned_outputs import three_block_graph


# ---------------------------------------------------------------- corpus

def corpus_specs():
    """60 instances: 7 family configs x 3 sizes x 2 seeds, plus two extra
    seeds for the nine gnp configs."""
    fams = [("gnp", 0.1), ("gnp", 0.3), ("gnp", 0.5),
            ("regular", 4), ("regular", 8), ("hypercube", None), ("grid", None)]
    specs = []
    for fam, param in fams:
        for n in (50, 100, 200):
            for seed in (1, 2):
                specs.append((fam, param, n, seed))
    for fam, param in fams[:3]:
        for n in (50, 100, 200):
            for seed in (3, 4):
                specs.append((fam, param, n, seed))
    assert len(specs) == 60
    return specs


def make_instance(fam, param, n, seed):
    if fam == "gnp":
        return generate("gnp", n, param, seed=seed)
    if fam == "regular":
        return generate("random_regular", n, param, seed=seed)
    if fam == "hypercube":
        return generate("hypercube", round(math.log2(n)))
    if fam == "grid":
        side = round(math.sqrt(n))
        return generate("grid", side, side)
    raise ValueError(fam)


def record_audit_calls(mp):
    """Patch each audit of seppath.strategies through mp to count its calls
    by kind (basic, degree, spread, groups) in the returned Counter."""
    calls = Counter()
    for kind, audit in (("basic", audit_matchings_basic),
                        ("degree", audit_matchings_degree),
                        ("spread", audit_matchings_spread),
                        ("groups", audit_groups)):
        def counting(*args, kind=kind, audit=audit):
            calls[kind] += 1
            return audit(*args)
        mp.setattr("seppath.strategies." + audit.__name__, counting)
    return calls


@pytest.fixture(scope="module")
def corpus_runs():
    runs = []
    built = []  # the graphs whose singleton system was built

    def counting(G):
        built.append(G)
        return singleton_baseline(G)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("seppath.strategies.singleton_baseline", counting)
        audits = record_audit_calls(mp)  # audit kind -> calls in this run
        for fam, param, n, seed in corpus_specs():
            G = make_instance(fam, param, n, seed)
            built.clear()
            audits.clear()
            t0 = time.perf_counter()
            system, report = separate_all(G, seed=seed)
            elapsed = time.perf_counter() - t0
            runs.append({"fam": fam, "param": param, "n": n, "seed": seed,
                         "G": G, "system": system, "report": report,
                         "elapsed": elapsed, "singleton_builds": len(built),
                         "audits": Counter(audits)})
    return runs


# ---------------------------------------------------------------- helpers

def naive_check(system):
    """Definitional double loop, sharing no code with the verifier."""
    path_edges = [set(p.edges()) for p in system.paths]
    edges = sorted(system.target)
    for e in edges:
        if system.mode == "strong" and not any(e in pe for pe in path_edges):
            # strong separation puts every edge on a path
            return (e, None)
        for f in edges:
            if e == f:
                continue
            if system.mode == "strong":
                hit = any(e in pe and f not in pe for pe in path_edges)
            else:
                hit = any((e in pe) != (f in pe) for pe in path_edges)
            if not hit:
                return (e, f)
    return None


def connected_graphs_up_to(n_max):
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            if not edges:
                continue
            G = Graph(n, edges)
            # require vertex n-1 present so smaller n covers the rest
            if G.degree(n - 1) == 0:
                continue
            if len(G.components()) == 1:
                yield G


def all_graphs_up_to(n_max):
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            G = Graph(n, edges)
            if G.degree(n - 1) == 0:
                continue
            yield G


# ---------------------------------------------------------------- criteria

def test_criterion_1_verifier_soundness():
    t0 = time.perf_counter()
    checked = 0
    for G in connected_graphs_up_to(5):
        universe = all_simple_paths(G)
        systems = [singleton_baseline(G),
                   PathSystem(G, decompose_into_paths(G).paths),
                   PathSystem(G, universe[: max(1, len(universe) // 3)])]
        for system in systems:
            report = verify_separation(system)
            witness = naive_check(system)
            assert report.ok == (witness is None)
            assert (report.witness is None) == (witness is None)
            checked += 1
    # a lone target edge on no path fails with no second edge to pair
    G = Graph(2, [(0, 1)])
    assert naive_check(PathSystem(G, [])) == verify_separation(
        PathSystem(G, [])).witness == ((0, 1), None)
    rng = random.Random(424242)
    for trial in range(200):
        n = rng.randint(2, 8)
        G = generate("gnp", n, rng.choice([0.3, 0.5, 0.8]), seed=trial)
        if not G.edges:
            continue
        universe = all_simple_paths(G)
        k = rng.randint(1, min(len(universe), 6))
        system = PathSystem(G, rng.sample(universe, k),
                            mode=rng.choice(["strong", "weak"]))
        report = verify_separation(system)
        witness = naive_check(system)
        assert report.ok == (witness is None)
        assert (report.witness is None) == (witness is None)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert checked > 500


def test_criterion_2_oracle_ground_truth():
    t0 = time.perf_counter()
    assert len(brute_force_min_system(Graph(2, [(0, 1)]))) == 1
    assert len(brute_force_min_system(generate("complete", 3))) == 3
    assert len(brute_force_min_system(generate("path", 4))) == 3
    for G in all_graphs_up_to(5):
        system = brute_force_min_system(G)
        assert verify_separation(system).ok
        for drop in range(len(system.paths)):
            reduced = PathSystem(
                G, [p for i, p in enumerate(system.paths) if i != drop])
            rep = verify_separation(reduced)
            # strong verification fails an uncovered target edge too
            assert not rep.ok, "removable path in optimal system for %r" % G
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0


def test_criterion_3_pipeline_validity(corpus_runs):
    assert len(corpus_runs) == 60
    for run in corpus_runs:
        system = run["system"]
        assert system.mode == "strong"
        assert system.target == run["G"].edges
        assert verify_separation(system).ok, run
        assert run["elapsed"] < 120.0, run


def test_criterion_4_size_competitiveness(corpus_runs):
    lines = []
    for run in corpus_runs:
        G = run["G"]
        size = len(run["system"])
        assert size <= G.num_edges(), run
        n = len(G)
        if run["fam"] == "gnp" and run["param"] >= 0.3 and n >= 100:
            base = len(baseline_nlogn(G))
            assert size <= 1.10 * base, run
        lines.append("%s(p=%s) n=%d seed=%d size/(n*log*) = %.3f" % (
            run["fam"], run["param"], n, run["seed"],
            size / (n * iterated_log(n))))
    print("\n".join(lines))


def test_criterion_5_decomposition_bounds():
    rng = random.Random(12345)
    done = 0
    while done < 1000:
        n = rng.randint(2, 50)
        G = generate("gnp", n, rng.choice([0.1, 0.3, 0.5, 0.9]), seed=done)
        if not G.edges:
            done += 1
            continue
        D = decompose_into_paths(G)
        assert len(D.paths) <= len(G)
        cover = sorted(e for p in D.paths for e in p.edges())
        assert cover == sorted(G.edges)
        d = rng.randint(1, 8)
        B = decompose_into_bounded_paths(G, d)
        e = G.num_edges()
        assert len(B.paths) <= math.ceil(e / d) + len(G)
        assert all(len(p) <= d for p in B.paths)
        cover = sorted(e2 for p in B.paths for e2 in p.edges())
        assert cover == sorted(G.edges)
        done += 1


def test_criterion_6_expander_decomposition_bounds():
    rng = random.Random(777)
    eps = 1.0 / 48
    runs = 0
    trial = 0
    while runs < 200:
        n = rng.randint(2, 20)
        G = generate("gnp", n, rng.choice([0.15, 0.35, 0.6]), seed=5000 + trial)
        trial += 1
        for s in (0, 1, 2):
            if runs >= 200:
                break
            t = max(1, 2 * n // 3)
            params = ExpanderParams(eps, s=s, t=t)
            D = expander_decompose(G, params)
            assert sum(len(H) for H in D.parts) <= 2 * len(G)
            bound = 48 * s * len(G) * (math.log2(max(t, 1)) + 1) ** 2
            assert len(D.uncovered) <= bound
            if s == 0:
                assert not D.uncovered
            for H in D.parts:
                if len(H) <= EXHAUSTIVE_MAX_N:
                    assert certify_expander_exhaustive(H, params)
            runs += 1
    assert runs == 200


def test_criterion_7_completion_correctness():
    rng = random.Random(31)
    successes = 0
    built = 0
    trial = 0
    while built < 500:
        trial += 1
        n = rng.randint(6, 60)
        G = generate("gnp", n, rng.choice([0.2, 0.4, 0.6]), seed=10_000 + trial)
        if G.num_edges() < 4:
            continue
        D = decompose_into_paths(G)
        edges = sorted(G.edges)
        rng.shuffle(edges)
        core_edges = []
        used = set()
        want = rng.randint(1, 6)
        for e in edges:
            if used & set(e):
                continue
            core_edges.append(e)
            used |= set(e)
            if len(core_edges) >= want:
                break
        forbidden = set()
        for e in core_edges:
            forbidden |= set(D.path_of(e).edges())
        forbidden -= set(core_edges)
        fvertices = {v for e in forbidden for v in e} - used
        prob = CompletionProblem(
            G, [Path(e) for e in core_edges],
            forbidden_edges=forbidden, forbidden_vertices=fvertices)
        built += 1
        p = complete_to_path(prob)
        if p is not None:
            assert check_completion(prob, p)
            vs = p.vertices
            assert len(set(vs)) == len(vs)
            successes += 1
    assert built == 500
    assert successes > 100


def test_criterion_8_matching_audits(corpus_runs):
    # audits run inside every pipeline stage and raise on any failure, so a
    # completed corpus implies a 100% pass rate; confirm they actually ran,
    # and drive the stage entry points whose rules the corpus never triggers
    audits = sum((run["audits"] for run in corpus_runs), Counter())
    assert audits["spread"] > 0
    from seppath.strategies import (
        build_matchings_basic,
        separate_dense_expander,
        separate_high_degree,
    )
    # four hubs, ten vertices adjacent to all hubs, private leaves per hub:
    # sparse enough that the degree threshold sits below the hub degrees
    edges = [(h, s) for h in range(4) for s in range(4, 14)]
    nxt = 14
    for h in range(4):
        edges += [(h, nxt + i) for i in range(180)]
        nxt += 180
    hub = Graph(nxt, edges)
    with pytest.MonkeyPatch.context() as mp:
        driven = record_audit_calls(mp)
        separate_dense_expander(generate("gnp", 40, 0.5, seed=9), seed=1)
        st = separate_high_degree(hub, hub.avg_degree())
    assert st.system.target
    assert driven["degree"] > 0 and driven["groups"] > 0, driven
    G = generate("gnp", 30, 0.4, seed=4)
    D = decompose_into_paths(G)
    M, _ = build_matchings_basic(G, D, 3 * len(G))
    assert audit_matchings_basic(D.paths, M)


def test_singleton_candidate_is_sized_not_built(corpus_runs):
    # no corpus instance selects the singletons, so none builds them; the
    # candidate row still gives their size, e(G)
    for run in corpus_runs:
        assert run["singleton_builds"] == 0, run
        row = next(r for r in run["report"].rows
                   if r[1] == "candidate:singleton-baseline")
        assert row[3] == run["G"].num_edges(), run


def test_criterion_9_determinism(corpus_runs):
    for run in corpus_runs:
        system2, report2 = separate_all(run["G"], seed=run["seed"])
        assert system_to_text(system2) == system_to_text(run["system"]), run
        assert report2.to_csv() == run["report"].to_csv(), run


def test_bitcode_skip_changes_no_selection(corpus_runs, monkeypatch):
    # the reference builds the bit code whatever its bound; the skip keeps
    # the selected system and every row but the bit code's, which becomes
    # the bound row only where the built bit code loses. A losing bit code
    # can still be built: on six corpus instances (gnp at p = 0.1 and
    # 8-regular) its bound is at most e(G) and its size above it. Only the
    # corpus runs with a bound row are re-run: where the bit code was
    # built, the zero bound builds it too, and the re-run is the one
    # test_criterion_9_determinism already compares.
    runs = [(run["G"], run["seed"], run["system"], run["report"])
            for run in corpus_runs
            if any(row[1] == "bound:bitcode-baseline"
                   for row in run["report"].rows)]
    for G, seed in [(relabel(generate("hypercube", 8), 8), 8),
                    (generate("grid", 12, 12), 0),
                    (generate("gnp", 60, 0.5, seed=16), 0),
                    (three_block_graph(1001), 1001)]:
        runs.append((G, seed) + separate_all(G, seed=seed))
    monkeypatch.setattr("seppath.strategies.bitcode_lower_bound", lambda G: 0)
    skipped = 0
    for G, seed, system, report in runs:
        ref_system, ref_report = separate_all(G, seed=seed)
        assert system_to_text(system) == system_to_text(ref_system)
        assert report.selected == ref_report.selected
        assert len(report.rows) == len(ref_report.rows)
        for row, ref_row in zip(report.rows, ref_report.rows):
            if row[1] == "bound:bitcode-baseline":
                assert ref_row[1] == "candidate:bitcode-baseline"
                assert row[3] <= ref_row[3]
                assert ref_report.selected != "bitcode-baseline"
                skipped += 1
            else:
                assert row == ref_row
    assert skipped >= 25
