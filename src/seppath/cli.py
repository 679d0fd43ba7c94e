"""Command line surface: generate graphs, run the pipeline, verify systems,
and query the exact oracle.

Exit codes: 0 ok, 1 verification failure, 2 usage or bad data, 3 I/O error.
"""

import argparse
import os
import sys
import tempfile

from .graphs import Path, generate, graph_from_edge_list, serialize_edge_list
# perfbench/layers.py traces the two baselines under this module's names
from .separation import (  # noqa: F401
    PathSystem,
    baseline_nlogn,
    brute_force_min_system,
    singleton_baseline,
    verify_separation,
)
from .strategies import PipelineConfig, separate_all

SYSTEM_FORMAT = "seppath-system v1"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


def write_atomic(path, text):
    """Write via a temp file in the target directory, then rename."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix=".seppath-tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def system_to_text(system):
    lines = ["# %s" % SYSTEM_FORMAT,
             "# n=%d" % system.host.n,
             "# mode=%s" % system.mode,
             "# paths=%d" % len(system.paths)]
    for p in system.paths:
        lines.append(" ".join(str(v) for v in p.vertices))
    return "\n".join(lines) + "\n"


def paths_from_text(text):
    """Parse a system file back into a list of vertex tuples."""
    version_seen = False
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if SYSTEM_FORMAT in line:
                version_seen = True
            continue
        try:
            vs = [int(x) for x in line.split()]
        except ValueError:
            raise ValueError("line %d: non-integer vertex in %r" % (lineno, raw))
        if len(vs) < 2:
            raise ValueError("line %d: a path needs at least 2 vertices" % lineno)
        out.append(tuple(vs))
    if not version_seen:
        raise ValueError("missing '%s' header" % SYSTEM_FORMAT)
    return out


def _read_text(path):
    with open(path, "r") as f:
        return f.read()


def _number(token):
    try:
        return int(token)
    except ValueError:
        return float(token)


def cmd_gen(args):
    params = [_number(p) for p in args.params]
    G = generate(args.family, *params, seed=args.seed)
    text = serialize_edge_list(G)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _config_from_args(args):
    overrides = {}
    for name in PipelineConfig.FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return PipelineConfig().with_overrides(overrides)


def cmd_separate(args):
    G = graph_from_edge_list(_read_text(args.input))
    cfg = _config_from_args(args)
    system, report = separate_all(G, cfg, seed=args.seed, timings=args.timings)
    check = verify_separation(system)
    if args.out_system:
        write_atomic(args.out_system, system_to_text(system))
    if args.out_report:
        write_atomic(args.out_report, report.to_csv())
    print("n=%d e=%d size=%d selected=%s verified=%s"
          % (len(G), G.num_edges(), len(system), report.selected, check.ok))
    return EXIT_OK if check.ok else EXIT_VERIFY


def cmd_verify(args):
    G = graph_from_edge_list(_read_text(args.graph))
    vertex_lists = paths_from_text(_read_text(args.system))
    try:
        paths = [Path(vs) for vs in vertex_lists]
        system = PathSystem(G, paths, mode=args.mode)
        report = verify_separation(system)
    except ValueError as exc:
        print("invalid system: %s" % exc)
        return EXIT_VERIFY
    if report.ok:
        print("ok: %d paths separate %d edges (%s)"
              % (len(system), G.num_edges(), args.mode))
        return EXIT_OK
    print("FAIL: witness %s %s" % report.witness)
    return EXIT_VERIFY


def cmd_oracle(args):
    G = graph_from_edge_list(_read_text(args.graph))
    system = brute_force_min_system(G, mode=args.mode, cap=args.cap)
    print("minimum=%d" % len(system))
    sys.stdout.write(system_to_text(system))
    return EXIT_OK


def _add_config_flags(sub):
    for name, typ in sorted(PipelineConfig.FIELDS.items()):
        sub.add_argument("--%s" % name.replace("_", "-"), dest=name,
                         default=None, metavar=typ.__name__.upper())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="seppath",
        description="Certified separating path systems for undirected graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph edge list")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("separate", help="run the separation pipeline")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-system")
    p.add_argument("--out-report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true",
                   help="record wall-clock columns (breaks byte-identical reruns)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("verify", help="verify a path system against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact minimum system for tiny graphs")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
