#!/usr/bin/env python3
"""Throughput benchmark of certified separating path systems.

    python3 perfbench/run.py --workload dense-gnp --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is loaded from src/. The run
builds the workload's corpus from --seed, separates every instance at least
once and keeps cycling through the corpus until --seconds have passed, checks
every output with code of its own, and prints one JSON object as its last
line: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Workloads and metrics are described in BENCHMARK.json and WORKLOADS.md.

End-to-end times are in reference seconds: each measured time is scaled by
REF_S over the time of a fixed reference block taken around it, which
cancels the machine's momentary speed (see WORKLOADS.md, "Noise"). The
measured seconds are printed beside them as comment lines.
"""

import os

# The spectral sweep would otherwise spread over every core; pin BLAS before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(HERE, ".state")
WORKLOADS = ("dense-gnp", "clustered", "sparse-cli")
SETUP_REPEATS = 5
# Nominal duration of reference_block(): about its median on one core of a
# 2-core Xeon VM. A time t measured while the block took r seconds is
# reported as t * REF_S / r.
REF_S = 0.040

UNITS = {"setup_s": "s", "edges_per_s": "1/s", "instance_s_p50": "s",
         "verify_s_p50": "s", "paths_per_vertex": "paths/vertex",
         "pipeline_paths_per_vertex": "paths/vertex", "ok_frac": "frac",
         "peak_rss_mb": "MB"}


def reference_block():
    """Fixed pure-Python work of the kind seppath does (dict, set, tuple,
    sort), sharing no code with it. Its duration tracks how fast the
    machine runs Python at the moment."""
    counts = {}
    pairs = set()
    for i in range(60000):
        k = (i * 7919) % 30011
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            pairs.add((k, i & 255))
    return sum(counts[k] for k in sorted(counts)) + len(sorted(pairs))


def reference_s():
    t0 = time.perf_counter()
    reference_block()
    return time.perf_counter() - t0


def setup(workload, seed, workdir):
    """Imports plus corpus generation (and edge files on sparse-cli): what
    setup_s reports. Returns the instances, the measured seconds, and the
    scale REF_S / reference time around them."""
    reference_block()   # the first call in a process is slow
    r0 = reference_s()
    t0 = time.perf_counter()
    import seppath.cli
    import seppath.separation
    import seppath.strategies
    import corpus
    instances = corpus.build(workload, seed, workdir)
    took = time.perf_counter() - t0
    return instances, took, 2 * REF_S / (r0 + reference_s())


def probe_setup(workload, seed):
    """Run setup in a fresh interpreter, so imports are paid again; returns
    its measured seconds and scale."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed: %s" % proc.stderr.strip())
    took, scale = proc.stdout.split()[-2:]
    return float(took), float(scale)


class Outcome:
    __slots__ = ("separate_s", "verify_s", "verified", "text", "pipeline_size")

    def __init__(self, separate_s, verify_s, verified, text, pipeline_size):
        self.separate_s = separate_s
        self.verify_s = verify_s
        self.verified = verified
        self.text = text
        self.pipeline_size = pipeline_size


def run_in_process(inst):
    """separate_all, then verify_separation on the selected system."""
    import seppath.cli
    import seppath.separation
    import seppath.strategies
    t0 = time.perf_counter()
    system, report = seppath.strategies.separate_all(inst.graph, seed=inst.seed)
    t1 = time.perf_counter()
    verified = seppath.separation.verify_separation(system).ok
    t2 = time.perf_counter()
    pipeline = next(r[3] for r in report.rows if r[1] == "candidate:pipeline")
    return Outcome(t1 - t0, t2 - t1, verified, seppath.cli.system_to_text(system),
                   pipeline)


def run_cli(inst):
    """`seppath separate` to files, then `seppath verify` on those files."""
    import seppath.cli
    base = inst.path[:-len(".edges")]
    sys_path, rep_path = base + ".system", base + ".csv"
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc_sep = seppath.cli.main(["separate", "--in", inst.path, "--out-system",
                                   sys_path, "--out-report", rep_path,
                                   "--seed", str(inst.seed)])
        t1 = time.perf_counter()
        rc_ver = seppath.cli.main(["verify", "--graph", inst.path,
                                   "--system", sys_path])
        t2 = time.perf_counter()
    with open(sys_path) as f:
        text = f.read()
    with open(rep_path) as f:
        pipeline = next(int(line.split(",")[3]) for line in f
                        if line.split(",")[1] == "candidate:pipeline")
    return Outcome(t1 - t0, t2 - t1, rc_sep == 0 and rc_ver == 0, text, pipeline)


class Bench:
    """Runs a corpus, checks every outcome, and keeps per-instance samples."""

    def __init__(self, workload, instances, store):
        self.workload = workload
        self.instances = instances
        self.runner = run_cli if workload == "sparse-cli" else run_in_process
        self.store = store
        self.samples = [[] for _ in instances]   # (separate_s, verify_s, scale)
        self.first = [None] * len(instances)     # first outcome per instance
        self.sizes = [None] * len(instances)     # selected system sizes
        self.raised = set()   # instances whose run raised; not run again
        self.attempted = 0
        self.failed = 0
        self.wrong = 0        # runs whose output failed a check

    def alive(self):
        return [inst for inst in self.instances if inst.index not in self.raised]

    def run(self, inst):
        """One instance run; returns its measured wall time and its scale to
        reference seconds, or None if it failed. A run that raises counts as
        failed; a wrong output also makes the whole run incorrect."""
        self.attempted += 1
        r0 = reference_s()
        t0 = time.perf_counter()
        try:
            out = self.runner(inst)
        except Exception:
            print("%s instance %d %s raised:" % (self.workload, inst.index, inst.label),
                  file=sys.stderr)
            traceback.print_exc()
            self.failed += 1
            self.raised.add(inst.index)
            return None
        wall = time.perf_counter() - t0
        scale = 2 * REF_S / (r0 + reference_s())
        problem = self.check(inst, out)
        if problem is not None:
            print("%s instance %d %s: %s" % (self.workload, inst.index, inst.label,
                                             problem), file=sys.stderr)
            self.failed += 1
            self.wrong += 1
            return None
        self.samples[inst.index].append((out.separate_s, out.verify_s, scale))
        return wall, scale

    def check(self, inst, out):
        if not out.verified:
            return "the program's own verification failed"
        first = self.first[inst.index]
        if first is not None:
            if out.text != first.text:
                return "output differs from the first run of this instance"
            return None
        G = inst.graph
        paths = checks.parse_system(out.text)
        problem = checks.check_system(G.edges, paths)
        if problem is not None:
            return "the program verified a system the independent check rejects: " + problem
        key = "%s %d %s" % (self.workload, inst.seed,
                            checks.digest(repr((G.n, sorted(G.edges)))))
        problem = self.store.check(key, checks.digest(out.text))
        if problem is not None:
            return problem
        self.sizes[inst.index] = len(paths)
        self.first[inst.index] = out
        return None

    def per_instance(self, i, scaled=True):
        """Median separate and verify time of instance i, in reference
        seconds or, with scaled=False, in measured seconds."""
        xs = [(s * k, v * k) if scaled else (s, v) for s, v, k in self.samples[i]]
        return (statistics.median(s for s, _ in xs),
                statistics.median(v for _, v in xs))

    def end_to_end(self, setup_s, scaled=True):
        """Figures over the instances that completed; the others show in
        ok_frac."""
        done = [inst.index for inst in self.alive()]
        seps, vers = zip(*(self.per_instance(i, scaled) for i in done))
        graphs = [self.instances[i].graph for i in done]
        sizes = [self.sizes[i] for i in done]
        firsts = [self.first[i] for i in done]
        return {
            "setup_s": setup_s,
            "edges_per_s": sum(len(G.edges) for G in graphs) / sum(seps),
            "instance_s_p50": statistics.median(seps),
            "verify_s_p50": statistics.median(vers),
            "paths_per_vertex": statistics.fmean(
                k / len(G) for k, G in zip(sizes, graphs)),
            "pipeline_paths_per_vertex": statistics.fmean(
                f.pipeline_size / len(G) for f, G in zip(firsts, graphs)),
            "ok_frac": 1.0 - self.failed / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def environment():
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seppath", "strategies.py")):
        print("error: no seppath sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.makedirs(STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=STATE)
    try:
        if args.setup_probe:
            _, took, scale = setup(args.workload, args.seed, workdir)
            print(took, scale)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    instances, took, scale = setup(args.workload, args.seed, workdir)
    setups = [(took, scale)]
    setups += [probe_setup(args.workload, args.seed)
               for _ in range(SETUP_REPEATS - 1)]
    # The corpus stays alive for the whole run; keep the collector from
    # scanning it again and again inside the timed calls.
    gc.collect()
    gc.freeze()

    store = checks.DigestStore(os.path.join(STATE, "digests.json"),
                               checks.source_hash(SRC))
    bench = Bench(args.workload, instances, store)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    if args.trace:
        import layers
        metrics = traced_passes(bench, args.seconds)
        units = dict(layers.PER_LAYER)
    else:
        start = time.perf_counter()
        passes = 0
        while bench.alive() and (passes == 0 or time.perf_counter() - start < args.seconds):
            for inst in bench.alive():
                bench.run(inst)
                if passes and time.perf_counter() - start >= args.seconds:
                    break
            passes += 1
        units = UNITS
    store.save()

    correct = bench.wrong == 0 and bool(bench.alive())
    if not correct:
        metrics = {}
    elif not args.trace:
        metrics = bench.end_to_end(statistics.median(t * k for t, k in setups))
        measured = bench.end_to_end(statistics.median(t for t, _ in setups),
                                    scaled=False)
        for inst in bench.alive():
            print("# instance %d %-24s e=%-5d runs=%d separate_s=%.4f verify_s=%.4f"
                  " (measured %.4f %.4f)"
                  % ((inst.index, inst.label, len(inst.graph.edges),
                      len(bench.samples[inst.index]))
                     + bench.per_instance(inst.index)
                     + bench.per_instance(inst.index, scaled=False)))
        print("# %d instances, %d timed runs, setup samples %s" % (
            len(instances), sum(len(s) for s in bench.samples),
            ", ".join("%.3f (measured %.3f)" % (t * k, t) for t, k in setups)))
        for name in ("setup_s", "edges_per_s", "instance_s_p50", "verify_s_p50"):
            print("# measured %-31s %14.6f %s" % (name, measured[name], units[name]))
    for name, value in metrics.items():
        print("# %-40s %14.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def traced_passes(bench, seconds):
    """Each instance runs untraced, then traced, pass after pass until
    --seconds have passed; per-layer figures are per traced pass."""
    import layers
    tracer = layers.Tracer()
    start = time.perf_counter()
    passes, wall, traced_ref, untraced_ref = 0, 0.0, 0.0, 0.0
    while bench.alive() and (passes == 0 or time.perf_counter() - start < seconds):
        for inst in bench.alive():
            plain = bench.run(inst)
            if plain is None:
                continue
            tracer.instance = inst.index
            tracer.install()
            try:
                traced = bench.run(inst)
            finally:
                tracer.uninstall()
            if traced is not None:
                wall += traced[0]
                traced_ref += traced[0] * traced[1]
                untraced_ref += plain[0] * plain[1]
        passes += 1
    tracer.write(os.path.join(STATE, "spans-%s.tsv.gz" % bench.workload))
    if not wall:
        return {}
    return tracer.metrics(passes, wall, traced_ref / untraced_ref - 1.0)


if __name__ == "__main__":
    sys.exit(main())
