"""Workload corpora. Every graph is derived from the run seed alone, so the
same seed gives the same inputs; the program under test only sees the graphs.

Why each workload exists, and which layers it loads, is in WORKLOADS.md.
"""

import os
import random

from seppath.graphs import Graph, generate, serialize_edge_list

# Instances per corpus. Between seeds, the time of a corpus varies more than
# a run's noise does (on clustered, 0.11 of the median with ten instances
# against 0.03 for one corpus timed again), so corpora are as large as a
# 30 s run allows: one pass takes 5 to 30 s on a 2-core x86-64 VM, and each
# instance is timed one to five times, spread over the run. A traced run
# times every instance twice, so a pass must stay well under a minute.
CORPUS_SIZE = {"dense-gnp": 12, "clustered": 24, "sparse-cli": 12}

# dense-gnp cycles through these G(n, p) shapes: every average degree lies
# above the pipeline's degree floor of 16, so one pipeline level runs.
GNP_SHAPES = ((100, 0.3), (120, 0.2), (150, 0.15))

# clustered: near-cliques joined by a sprinkle of random inter-block edges.
# Three blocks always run two pipeline levels in about 0.8 s. With four, the
# time swings between 1.2 and 1.7 s with the seed; with eight, between 5 and
# 12 s with the number of levels run, and too few instances fit in a run.
BLOCKS, BLOCK_SIZE, BLOCK_P, INTER_PER_VERTEX = 3, 30, 0.95, 0.3

# sparse-cli cycles through these shapes, all below the degree floor.
SPARSE_SHAPES = (("grid", (24, 24)), ("grid", (30, 40)), ("hypercube", (9,)),
                 ("hypercube", (10,)), ("random_regular", (600, 4)),
                 ("random_regular", (1200, 4)))


class Instance:
    __slots__ = ("index", "label", "graph", "seed", "path")

    def __init__(self, index, label, graph, seed):
        self.index = index
        self.label = label
        self.graph = graph
        self.seed = seed
        self.path = None  # edge-list file, for the command-line workload


def clustered(seed):
    rng = random.Random("clustered:%d" % seed)
    n = BLOCKS * BLOCK_SIZE
    edges = set()
    for b in range(BLOCKS):
        base = b * BLOCK_SIZE
        for i in range(BLOCK_SIZE):
            for j in range(i + 1, BLOCK_SIZE):
                if rng.random() < BLOCK_P:
                    edges.add((base + i, base + j))
    inter = 0
    while inter < int(INTER_PER_VERTEX * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u // BLOCK_SIZE == v // BLOCK_SIZE:
            continue
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            inter += 1
    return Graph(n, edges)


def relabel(G, seed):
    """Same graph under a seeded vertex permutation, so that the seed also
    varies the deterministic families (grid, hypercube)."""
    perm = list(range(G.n))
    random.Random("relabel:%d" % seed).shuffle(perm)
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def build(workload, seed, workdir=None):
    """The workload's instances for this run seed. The command-line workload
    also writes each graph as an edge-list file into workdir."""
    size = CORPUS_SIZE[workload]
    out = []
    for i in range(size):
        inst_seed = seed * 1000 + i
        if workload == "dense-gnp":
            n, p = GNP_SHAPES[i % len(GNP_SHAPES)]
            label = "gnp(%d,%g)" % (n, p)
            G = generate("gnp", n, p, seed=inst_seed)
        elif workload == "clustered":
            label = "clustered(%dx%d)" % (BLOCKS, BLOCK_SIZE)
            G = clustered(inst_seed)
        else:
            family, params = SPARSE_SHAPES[i % len(SPARSE_SHAPES)]
            label = "%s%r" % (family, params)
            G = relabel(generate(family, *params, seed=inst_seed), inst_seed)
        out.append(Instance(i, label, G, inst_seed))
    if workload == "sparse-cli":
        for inst in out:
            inst.path = os.path.join(workdir, "g%d.edges" % inst.index)
            with open(inst.path, "w") as f:
                f.write(serialize_edge_list(inst.graph))
    return out
