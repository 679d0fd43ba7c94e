"""Print one `case<TAB>sha256` line per deterministic output of the package.

Run it on two source trees and diff the outputs to check that a change keeps
every output byte-identical:

    python3 tools/output_digests.py > after.txt
    python3 tools/output_digests.py --src /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

The cases are the benchmark corpora (dense-gnp, clustered, sparse-cli) at run
seed 1, separated in process; the sparse-cli corpus again through
`seppath separate` and `seppath verify` on files; the 60 instances of
tests/test_acceptance.py; and the separators called directly, which the
pipeline rarely reaches: `separate_dense_expander` and
`separate_sparse_expander` (d cycling through 1, 2, 3, 5) on 120 seeded
G(n, p) with n <= 45, the sparse one also on two cycles and two grids
with d in 1 to 5, and `separate_high_degree` on hub graphs (the
four-hub graph of tests/test_pinned_outputs.py and variants in hub count,
hub edges and d). Two searches are also called directly:
`expander_decompose` on the same 120 graphs under the pipeline's three
ExpanderParams (zero budget, whose split the pipeline takes as the
connected components, the sparse split at t = d, the dense split at
t = 2n/3), and `complete_to_path` on the seeded multi-path cores of
tests/test_pinned_outputs.py. Each in-process case prints two lines:
`<case>/system` hashes the selected system's text and `<case>/report` the
report CSV, so a change that touches only the pipeline candidate shows as
report lines only. Each direct stage case hashes the stage's system text,
fallback count, residual edges and part count; each decomposition case
hashes the parts' live sets and edges and the uncovered edges; each
completion case hashes the path's vertices, or None; each command-line case
hashes both written files and both exit codes. The corpora, the acceptance
instances and the completion problems come from this repository's
perfbench/corpus.py, tests/test_acceptance.py and
tests/test_pinned_outputs.py, built with the graph generators of the tree
under test. Prints 1807 lines; takes about 40 s on a 2-vCPU VM.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_SEED = 1
STAGE_GRAPHS = 120
SPARSE_D = (1, 2, 3, 5)


def sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def in_process(case, G, seed):
    """The /system and /report lines of one separate_all run; a failed run
    gives both lines the digest of its error."""
    from seppath.cli import system_to_text
    from seppath.strategies import separate_all
    try:
        system, report = separate_all(G, seed=seed)
    except AssertionError as exc:
        texts = (sha("error", exc),) * 2
    else:
        texts = (sha(system_to_text(system)), sha(report.to_csv()))
    yield case + "/system", texts[0]
    yield case + "/report", texts[1]


def stage_digest(stage, *args):
    from seppath.cli import system_to_text
    try:
        st = stage(*args)
    except AssertionError as exc:
        return sha("error", exc)
    return sha(system_to_text(st.system), st.fallback_count,
               sorted(st.residual.edges), st.part_count)


def hub_graph(hubs, shared, leaves, hub_edges):
    """Hubs joined to every shared vertex and to private leaves; with
    hub_edges the hubs also form a clique."""
    from seppath.graphs import Graph
    edges = [(h, s) for h in range(hubs) for s in range(hubs, hubs + shared)]
    if hub_edges:
        edges += [(h, k) for h in range(hubs) for k in range(h + 1, hubs)]
    nxt = hubs + shared
    for h in range(hubs):
        edges += [(h, nxt + i) for i in range(leaves)]
        nxt += leaves
    return Graph(nxt, edges)


def stage_graphs():
    from seppath.graphs import generate
    for i in range(STAGE_GRAPHS):
        rng = random.Random("stages:%d" % i)
        n = rng.randint(4, 45)
        p = rng.choice((0.05, 0.1, 0.2, 0.35, 0.5, 0.8))
        yield i, "%d/gnp/%d/%s" % (i, n, p), generate("gnp", n, p, seed=i)


def stage_cases():
    from seppath.graphs import generate
    from seppath import strategies
    for i, name, G in stage_graphs():
        case = "stage/" + name
        yield (case + "/dense", stage_digest(strategies.separate_dense_expander, G, i))
        d = SPARSE_D[i % len(SPARSE_D)]
        yield ("%s/sparse/%d" % (case, d),
               stage_digest(strategies.separate_sparse_expander, G, d))
    for family, params in (("cycle", (30,)), ("cycle", (60,)),
                           ("grid", (6, 6)), ("grid", (8, 10))):
        G = generate(family, *params)
        for d in SPARSE_D + (4,):
            yield ("stage/%s/%s/sparse/%d" % (family, params, d),
                   stage_digest(strategies.separate_sparse_expander, G, d))
    # (4, 4, 180) has groups that fail to complete; with d the average
    # degree, the last two find no hub
    for hubs, shared, leaves, hub_edges in ((4, 10, 180, False),
                                            (4, 10, 180, True),
                                            (4, 4, 180, False),
                                            (4, 2, 200, True),
                                            (5, 12, 150, False),
                                            (6, 8, 120, True)):
        G = hub_graph(hubs, shared, leaves, hub_edges)
        for d in (1, G.avg_degree()):
            yield ("stage/hubs/%d/%d/%d/%d/%.3f" % (hubs, shared, leaves,
                                                   hub_edges, d),
                   stage_digest(strategies.separate_high_degree, G, d))


def search_cases(pins):
    for _, name, G in stage_graphs():
        for k, p in enumerate(pins.pipeline_params(G)):
            yield ("expander/%s/%d" % (name, k),
                   sha(pins.decomposition_text(G, p)))
    for name, prob in pins.completion_problems():
        yield "completion/" + name, sha(pins.completion_text(prob))


def through_cli(inst):
    from seppath.cli import main
    base = inst.path[:-len(".edges")]
    sys_path, rep_path = base + ".system", base + ".csv"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc_sep = main(["separate", "--in", inst.path, "--out-system", sys_path,
                       "--out-report", rep_path, "--seed", str(inst.seed)])
        rc_ver = main(["verify", "--graph", inst.path, "--system", sys_path])
    texts = []
    for path in (sys_path, rep_path):
        with open(path) as f:
            texts.append(f.read())
    return sha(rc_sep, rc_ver, *texts)


def cases(workdir):
    corpus = load("perfbench_corpus", os.path.join(ROOT, "perfbench", "corpus.py"))
    for workload in ("dense-gnp", "clustered", "sparse-cli"):
        for inst in corpus.build(workload, CORPUS_SEED, workdir):
            case = "%s/%d/%s" % (workload, inst.index, inst.label)
            yield from in_process(case, inst.graph, inst.seed)
            if workload == "sparse-cli":
                yield "cli:" + case, through_cli(inst)
    # the acceptance and pinned-output modules import their sibling test
    # modules
    sys.path.append(os.path.join(ROOT, "tests"))
    acceptance = load("acceptance", os.path.join(ROOT, "tests", "test_acceptance.py"))
    for fam, param, n, seed in acceptance.corpus_specs():
        G = acceptance.make_instance(fam, param, n, seed)
        yield from in_process("acceptance/%s/%s/%d/%d" % (fam, param, n, seed),
                              G, seed)
    yield from stage_cases()
    yield from search_cases(load("pinned", os.path.join(ROOT, "tests",
                                                        "test_pinned_outputs.py")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the seppath package "
                             "(default: this repository's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory(prefix="seppath-digests-") as workdir:
        for case, digest in cases(workdir):
            print("%s\t%s" % (case, digest), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
