"""Print one `case<TAB>sha256` line per deterministic output of the package.

Run it on two source trees and diff the outputs to check that a change keeps
every output byte-identical:

    python3 tools/output_digests.py > after.txt
    python3 tools/output_digests.py --src /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

The cases are the benchmark corpora (dense-gnp, clustered, sparse-cli) at run
seed 1, separated in process; the sparse-cli corpus again through
`seppath separate` and `seppath verify` on files; and the 60 instances of
tests/test_acceptance.py. Each in-process case hashes the system text and the
report CSV; each command-line case hashes both written files and both exit
codes. The corpora and the acceptance instances come from this repository's
perfbench/corpus.py and tests/test_acceptance.py, built with the graph
generators of the tree under test. Takes about a minute on a 2-vCPU VM.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_SEED = 1


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


def in_process(G, seed):
    from seppath.cli import system_to_text
    from seppath.strategies import separate_all
    try:
        system, report = separate_all(G, seed=seed)
    except AssertionError as exc:
        return sha("error", exc)
    return sha(system_to_text(system), report.to_csv())


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
            yield case, in_process(inst.graph, inst.seed)
            if workload == "sparse-cli":
                yield "cli:" + case, through_cli(inst)
    acceptance = load("acceptance", os.path.join(ROOT, "tests", "test_acceptance.py"))
    for fam, param, n, seed in acceptance.corpus_specs():
        G = acceptance.make_instance(fam, param, n, seed)
        yield ("acceptance/%s/%s/%d/%d" % (fam, param, n, seed),
               in_process(G, seed))


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
