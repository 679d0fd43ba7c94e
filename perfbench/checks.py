"""Output checks that share no code with the program under test.

check_system restates strong separation directly: a system separates every
ordered pair of edges (e, f) exactly when, for each edge e, the edges common
to all paths through e are {e} alone.
"""

import hashlib
import json
import os


def parse_system(text):
    """Vertex tuples of a system file (comment lines skipped)."""
    return [tuple(int(x) for x in line.split())
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def check_system(edges, paths):
    """None if the paths strongly separate the edge set, else the reason."""
    edges = set(edges)
    if len(paths) > len(edges):
        return "%d paths for %d edges" % (len(paths), len(edges))
    through = {e: [] for e in edges}
    edge_sets = []
    for i, vs in enumerate(paths):
        if len(vs) < 2 or len(set(vs)) != len(vs):
            return "path %d is not a simple path" % i
        es = set()
        for a, b in zip(vs, vs[1:]):
            e = (a, b) if a < b else (b, a)
            if e not in edges:
                return "path %d uses the non-edge %r" % (i, e)
            es.add(e)
        for e in es:
            through[e].append(i)
        edge_sets.append(es)
    for e, ids in through.items():
        if not ids:
            return "edge %r lies on no path" % (e,)
        ids.sort(key=lambda i: len(edge_sets[i]))
        common = set(edge_sets[ids[0]])
        for i in ids[1:]:
            common &= edge_sets[i]
            if len(common) == 1:
                break
        if common != {e}:
            f = min(common - {e})
            return "no path contains %r without %r" % (e, f)
    return None


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def source_hash(src_dir):
    """Hash of every file under src_dir, so digests are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(src_dir)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


class DigestStore:
    """Output digests of earlier runs of the same code, kept in a JSON file
    and keyed by the input. Every run of one commit must produce
    byte-identical systems; entries for other source trees are dropped on
    save."""

    def __init__(self, path, tree):
        self.path = path
        self.tree = tree
        try:
            with open(path) as f:
                self.known = json.load(f).get(tree, {})
        except (OSError, ValueError):
            self.known = {}

    def check(self, key, value):
        """None if value matches the stored digest (or is new), else the reason."""
        old = self.known.setdefault(key, value)
        if old != value:
            return "digest %s differs from %s of an earlier run" % (value[:12], old[:12])
        return None

    def save(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".%d.tmp" % os.getpid()
        with open(tmp, "w") as f:
            json.dump({self.tree: self.known}, f, sort_keys=True)
        os.replace(tmp, self.path)
