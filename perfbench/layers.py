"""Per-layer tracing of the seppath modules from outside the package.

Each traced public function is replaced, where its callers look it up, by a
wrapper that records a span (name, start, end, parent) and bumps counters.
The modules bind each other's names with `from .x import y`, so a function
is wrapped once per importing module; Graph methods are wrapped on the class.
A span's self time is its duration minus the durations of its children, and
the layer of a span is the first component of its name.
"""

import gzip
import time
from collections import Counter

import seppath.cli
import seppath.expander
import seppath.graphs
import seppath.separation
import seppath.strategies

STAGES = ("reduce_small_deg", "reduce_large_deg", "separate_sparse_expander",
          "separate_dense_expander", "separate_high_degree")
MATCH = ("build_matchings_basic", "build_matchings_degree",
         "build_matchings_spread", "build_short_path_unions")
AUDIT = ("audit_matchings_basic", "audit_matchings_degree",
         "audit_matchings_spread", "audit_groups")
CLI_PARSE = ("cli.graph_from_edge_list", "cli.paths_from_text")

# (name, unit) of every per-layer metric, reported per corpus pass. Times
# are self times, a span's duration minus that of the spans it called,
# except strategies.stage_s.*: a stage's whole duration, children included
# (no stage calls itself).
PER_LAYER = (
    [("graphs.builds", "count"), ("graphs.build_s", "s"),
     ("graphs.edges_built", "count"),
     ("decomp.calls", "count"), ("decomp.self_s", "s"), ("decomp.edges_in", "count"),
     ("decomp.paths_per_vertex", "paths/vertex"),
     ("expander.calls", "count"), ("expander.self_s", "s"),
     ("expander.searches", "count"), ("expander.search_hit_frac", "frac"),
     ("expander.parts", "count"), ("expander.uncovered_edges", "count"),
     ("connector.complete_calls", "count"), ("connector.complete_s", "s"),
     ("connector.complete_ok_frac", "frac"), ("connector.route_calls", "count"),
     ("connector.route_ok_frac", "frac"), ("connector.hub_calls", "count"),
     ("connector.self_s", "s"),
     ("strategies.levels", "count")]
    + [("strategies.stage_s." + stage, "s") for stage in STAGES]
    + [("strategies.high_degree_hits", "count"), ("strategies.match_s", "s"),
       ("strategies.audit_s", "s"), ("strategies.fallback_frac", "frac"),
       ("strategies.self_s", "s"),
       ("separation.verify_calls", "count"), ("separation.verify_s", "s"),
       ("separation.verify_edges", "count"), ("separation.baseline_s", "s"),
       ("cli.parse_s", "s"), ("cli.serialize_s", "s"), ("cli.write_s", "s"),
       ("cli.bytes_written", "bytes"), ("cli.self_s", "s"),
       ("trace.wall_s", "s"), ("trace.glue_s", "s"), ("trace.overhead_frac", "frac"),
       ("trace.spans", "count")])


def _count_graph(c, args, kwargs, result):
    c["graphs.builds"] += 1
    c["graphs.edges_built"] += len(args[0].edges)


def _count_decomp(c, args, kwargs, result):
    G = args[0]
    c["decomp.calls"] += 1
    c["decomp.edges_in"] += len(G.edges)
    c["decomp.vertices_in"] += len(G)
    c["decomp.paths_out"] += len(result.paths)


def _count_expander(c, args, kwargs, result):
    c["expander.calls"] += 1
    c["expander.parts"] += len(result.parts)
    c["expander.uncovered_edges"] += len(result.uncovered)


def _count_search(c, args, kwargs, result):
    c["expander.searches"] += 1
    c["expander.search_hits"] += result is not None


def _count_complete(c, args, kwargs, result):
    c["connector.complete_calls"] += 1
    c["connector.complete_ok"] += result is not None


def _count_route(c, args, kwargs, result):
    c["connector.route_calls"] += 1
    c["connector.route_ok"] += result is not None


def _count_hub(c, args, kwargs, result):
    c["connector.hub_calls"] += 1


def _count_high_degree(c, args, kwargs, result):
    c["strategies.high_degree_hits"] += bool(result.system.target)


def _count_run(c, args, kwargs, result):
    rows = result[1].rows
    c["strategies.levels"] += sum(1 for r in rows if r[1] == "one-step")
    c["strategies.fallback_edges"] += sum(
        r[4] for r in rows if r[1] in ("one-step", "singleton-tail"))
    c["strategies.edges_in"] += len(args[0].edges)


def _count_verify(c, args, kwargs, result):
    c["separation.verify_calls"] += 1
    c["separation.verify_edges"] += len(args[0].target)


def _count_write(c, args, kwargs, result):
    c["cli.bytes_written"] += len(args[1].encode())


def _targets():
    """(owner, attribute, span name, counter hook) for every wrapped function."""
    st, sep, cli = seppath.strategies, seppath.separation, seppath.cli
    Graph = seppath.graphs.Graph
    out = [(Graph, "__init__", "graphs.Graph.__init__", _count_graph),
           (Graph, "without", "graphs.Graph.without", None),
           (Graph, "induced", "graphs.Graph.induced", None),
           (st, "decompose_into_paths", "decomp.decompose_into_paths", _count_decomp),
           (sep, "decompose_into_paths", "decomp.decompose_into_paths", _count_decomp),
           (st, "decompose_into_bounded_paths", "decomp.decompose_into_bounded_paths",
            _count_decomp),
           (st, "expander_decompose", "expander.expander_decompose", _count_expander),
           (seppath.expander, "find_violating_pair", "expander.find_violating_pair",
            _count_search),
           (st, "complete_to_path", "connector.complete_to_path", _count_complete),
           (st, "connect_pairs_through", "connector.connect_pairs_through", _count_route),
           (st, "extend_matching_through_hubs", "connector.extend_matching_through_hubs",
            _count_hub),
           (st, "separate_all", "strategies.separate_all", _count_run),
           (cli, "separate_all", "strategies.separate_all", _count_run),
           (st, "one_step", "strategies.one_step", None)]
    for name in STAGES:
        hook = _count_high_degree if name == "separate_high_degree" else None
        out.append((st, name, "strategies.stage." + name, hook))
    out += [(st, name, "strategies.match." + name, None) for name in MATCH]
    out += [(st, name, "strategies.audit." + name, None) for name in AUDIT]
    for owner in (sep, st, cli):
        out.append((owner, "verify_separation", "separation.verify_separation",
                     _count_verify))
    for owner in (st, cli):
        out.append((owner, "baseline_nlogn", "separation.baseline_nlogn", None))
        out.append((owner, "singleton_baseline", "separation.singleton_baseline", None))
    out += [(cli, "main", "cli.main", None),
            (cli, "graph_from_edge_list", "cli.graph_from_edge_list", None),
            (cli, "paths_from_text", "cli.paths_from_text", None),
            (cli, "system_to_text", "cli.system_to_text", None),
            (cli, "write_atomic", "cli.write_atomic", _count_write)]
    return out


class Tracer:
    """Spans kept in memory while installed; self times and counters are
    accumulated as spans close."""

    def __init__(self):
        self.spans = []         # [instance, parent, name, start, end]
        self.stack = []         # [span index, child time] of open spans
        self.self_s = Counter()  # span name -> summed self time
        self.total_s = Counter()  # span name -> summed duration
        self.counts = Counter()
        self.instance = -1
        self._saved = []

    def span(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        self_s, total_s = self.self_s, self.total_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counts, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if parent is not None:
                    parent[1] += dur
                spans[idx] = (self.instance, parent[0] if parent else -1,
                              name, start, end)

        return traced

    def install(self):
        for owner, attr, name, hook in _targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.span(name, fn, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def layer_self(self, layer):
        return sum(s for name, s in self.self_s.items()
                   if name.split(".", 1)[0] == layer)

    def metrics(self, passes, wall_s, overhead_frac):
        """Per-layer metrics per corpus pass. wall_s is the measured traced
        time of the instances; overhead_frac is their traced over untraced
        time, in reference seconds, minus one."""
        c, s = self.counts, self.self_s

        def per_pass(x):
            return x / passes

        def frac(num, den):
            return c[num] / c[den] if c[den] else 0.0

        layers = ("graphs", "decomp", "expander", "connector", "strategies",
                  "separation", "cli")
        glue = wall_s - sum(self.layer_self(layer) for layer in layers)
        values = {
            "graphs.build_s": per_pass(self.layer_self("graphs")),
            "decomp.self_s": per_pass(self.layer_self("decomp")),
            "decomp.paths_per_vertex": frac("decomp.paths_out", "decomp.vertices_in"),
            "expander.self_s": per_pass(self.layer_self("expander")),
            "expander.search_hit_frac": frac("expander.search_hits", "expander.searches"),
            "connector.complete_s": per_pass(s["connector.complete_to_path"]),
            "connector.complete_ok_frac": frac("connector.complete_ok",
                                               "connector.complete_calls"),
            "connector.route_ok_frac": frac("connector.route_ok", "connector.route_calls"),
            "connector.self_s": per_pass(self.layer_self("connector")),
            "strategies.match_s": per_pass(sum(s["strategies.match." + n] for n in MATCH)),
            "strategies.audit_s": per_pass(sum(s["strategies.audit." + n] for n in AUDIT)),
            "strategies.fallback_frac": frac("strategies.fallback_edges",
                                             "strategies.edges_in"),
            "strategies.self_s": per_pass(self.layer_self("strategies")),
            "separation.verify_s": per_pass(s["separation.verify_separation"]),
            "separation.baseline_s": per_pass(s["separation.baseline_nlogn"]
                                              + s["separation.singleton_baseline"]),
            "cli.parse_s": per_pass(sum(s[n] for n in CLI_PARSE)),
            "cli.serialize_s": per_pass(s["cli.system_to_text"]),
            "cli.write_s": per_pass(s["cli.write_atomic"]),
            "cli.self_s": per_pass(self.layer_self("cli")),
            "trace.wall_s": per_pass(wall_s),
            "trace.glue_s": per_pass(glue),
            "trace.overhead_frac": overhead_frac,
            "trace.spans": per_pass(len(self.spans)),
        }
        for stage in STAGES:
            values["strategies.stage_s." + stage] = per_pass(
                self.total_s["strategies.stage." + stage])
        return {name: values[name] if name in values else per_pass(c[name])
                for name, _ in PER_LAYER}

    def write(self, path):
        """All spans as tab-separated lines: instance, span, parent, name,
        start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("instance\tspan\tparent\tname\tstart\tend\n")
            for idx, (inst, parent, name, start, end) in enumerate(self.spans):
                f.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n"
                        % (inst, idx, parent, name, start, end))
