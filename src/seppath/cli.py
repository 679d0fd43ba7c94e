"""Command line surface: generate graphs, run the pipeline, verify systems,
and query the exact oracle.

Exit codes: 0 ok, 1 verification failure, 2 usage or bad data, 3 I/O error,
4 internal error (a failed internal check of the pipeline).
"""

import argparse
import functools
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
from .strategies import separate_all

SYSTEM_FORMAT = "seppath-system v1"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def write_atomic(path, text):
    """Write via a temp file in the target directory, then rename. The file
    gets the mode open() would give it, 0o666 less the umask, in place of
    mkstemp's 0o600."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix=".seppath-tmp-")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
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
        lines.append(" ".join(map(str, p.vertices)))
    return "\n".join(lines) + "\n"


def paths_from_text(text):
    """Parse a system file back into a list of vertex tuples, checking the
    count of a '# paths=' header when there is one."""
    version_seen = False
    declared = None
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body == SYSTEM_FORMAT:
                version_seen = True
            elif body.startswith("paths="):
                value = body[6:].strip()
                try:
                    declared = int(value)
                except ValueError:
                    raise ValueError("line %d: bad path count %r" % (lineno, value))
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
    if declared is not None and declared != len(out):
        raise ValueError("header declares %d paths, file holds %d" % (declared, len(out)))
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


def cmd_separate(args):
    G = graph_from_edge_list(_read_text(args.input))
    # separate_all verifies the system it returns and raises if it fails
    system, report = separate_all(G, seed=args.seed, timings=args.timings)
    if args.out_system:
        write_atomic(args.out_system, system_to_text(system))
    if args.out_report:
        write_atomic(args.out_report, report.to_csv())
    print("n=%d e=%d size=%d selected=%s verified=True"
          % (len(G), G.num_edges(), len(system), report.selected))
    return EXIT_OK


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
    e, f = report.witness
    if f is None:
        print("FAIL: edge %s lies on no path" % (e,))
    else:
        print("FAIL: witness %s %s" % (e, f))
    return EXIT_VERIFY


def cmd_oracle(args):
    G = graph_from_edge_list(_read_text(args.graph))
    system = brute_force_min_system(G, mode=args.mode, cap=args.cap)
    print("minimum=%d" % len(system))
    sys.stdout.write(system_to_text(system))
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command line parser, built once per process: parse_args leaves
    it unchanged, so every call of main can share it."""
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
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
