import os
import pathlib
import subprocess
import sys

import pytest

from seppath.cli import (
    build_parser,
    main,
    paths_from_text,
    system_to_text,
    write_atomic,
)
from seppath.graphs import Path, generate, graph_from_edge_list, serialize_edge_list
from seppath.separation import PathSystem, singleton_baseline
from test_decomp import relabel
from test_pinned_outputs import three_block_graph

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main(argv)


def test_gen_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert run(["gen", "complete", "5", "--out", str(out)]) == 0
    G = graph_from_edge_list(out.read_text())
    assert len(G) == 5 and G.num_edges() == 10


def test_gen_stdout_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["gen", "gnp", "40", "0.3", "--seed", "1", "--out", str(a)])
    run(["gen", "gnp", "40", "0.3", "--seed", "1", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_bad_family_exit_usage():
    assert run(["gen", "nope", "5"]) == 2


@pytest.mark.parametrize("params", [["complete", "2.5"], ["hypercube", "2.5"],
                                    ["grid", "2.5", "3"],
                                    ["random_regular", "10.5", "4"],
                                    ["gnp", "7.5", "0.3"]])
def test_gen_non_integer_size_exit_usage(params, capsys):
    assert run(["gen"] + params) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: size ") and "Traceback" not in err


def test_separate_roundtrip(tmp_path, capsys):
    g = tmp_path / "g.edges"
    s = tmp_path / "out.system"
    r = tmp_path / "out.csv"
    run(["gen", "gnp", "30", "0.3", "--seed", "2", "--out", str(g)])
    assert run(["separate", "--in", str(g), "--out-system", str(s),
                "--out-report", str(r), "--seed", "0"]) == 0
    assert "verified=True" in capsys.readouterr().out
    assert run(["verify", "--graph", str(g), "--system", str(s)]) == 0
    header = r.read_text().splitlines()[0]
    assert header.startswith("level,stage_tag,part_count")


def test_separate_rerun_byte_identical(tmp_path):
    g = tmp_path / "g.edges"
    run(["gen", "gnp", "40", "0.4", "--seed", "3", "--out", str(g)])
    outs = []
    for tag in ("1", "2"):
        s = tmp_path / ("s%s" % tag)
        r = tmp_path / ("r%s" % tag)
        assert run(["separate", "--in", str(g), "--out-system", str(s),
                    "--out-report", str(r), "--seed", "7"]) == 0
        outs.append((s.read_bytes(), r.read_bytes()))
    assert outs[0] == outs[1]


def test_separate_output_independent_of_hash_seed(tmp_path):
    # the determinism tests rerun in one process, under one hash order; here
    # two interpreters with different string hash seeds must write the same
    # files, for the dense stage over two levels and for the bit-code baseline
    inputs = (("blocks", three_block_graph(1001), 1001),
              ("cube", relabel(generate("hypercube", 8), 8), 8))
    for name, G, seed in inputs:
        g = tmp_path / (name + ".edges")
        g.write_text(serialize_edge_list(G))
        outs = []
        for hash_seed in ("1", "2"):
            s = tmp_path / ("%s-%s.system" % (name, hash_seed))
            r = tmp_path / ("%s-%s.csv" % (name, hash_seed))
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
            subprocess.run([sys.executable, "-m", "seppath.cli", "separate",
                            "--in", str(g), "--out-system", str(s),
                            "--out-report", str(r), "--seed", str(seed)],
                           env=env, check=True, capture_output=True)
            outs.append((s.read_bytes(), r.read_bytes()))
        assert outs[0] == outs[1], name


def test_reused_parser_matches_fresh_interpreters(tmp_path, capsys):
    # main shares one parser across calls; a usage error between commands
    # must leave the later commands writing what fresh interpreters write
    assert build_parser() is build_parser()
    for name, G in (("a", generate("gnp", 40, 0.5, seed=0)),
                    ("b", generate("grid", 6, 6))):
        (tmp_path / (name + ".edges")).write_text(serialize_edge_list(G))

    def commands(tag):
        def at(name):
            return str(tmp_path / name.replace("*", tag))
        return [["separate", "--in", at("a.edges"), "--out-system",
                 at("a-*.system"), "--out-report", at("a-*.csv"), "--seed", "3"],
                ["verify", "--graph", at("a.edges")],
                ["verify", "--graph", at("a.edges"), "--system", at("a-*.system")],
                ["separate", "--in", at("b.edges"), "--out-system",
                 at("b-*.system"), "--out-report", at("b-*.csv")]]

    same = []
    for argv in commands("same"):
        try:
            same.append(run(argv))
        except SystemExit as exc:
            same.append(exc.code)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fresh = [subprocess.run([sys.executable, "-m", "seppath.cli"] + argv,
                            env=env, capture_output=True).returncode
             for argv in commands("fresh")]
    assert same == fresh == [0, 2, 0, 0]
    for name in ("a-%s.system", "a-%s.csv", "b-%s.system", "b-%s.csv"):
        same = (tmp_path / (name % "same")).read_bytes()
        assert same == (tmp_path / (name % "fresh")).read_bytes(), name


def test_cli_import_leaves_numpy_unloaded():
    # numpy serves only the spectral sweep of the expander search, which
    # imports it on first use, so loading the command line tool skips it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", "import sys, seppath.cli; "
                          "print('numpy' in sys.modules)"],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout == "False\n"


def test_separate_timings_changes_only_elapsed(tmp_path):
    g = tmp_path / "g.edges"
    run(["gen", "gnp", "40", "0.5", "--seed", "0", "--out", str(g)])
    outs = []
    for extra in ([], ["--timings"]):
        s = tmp_path / ("s%d" % len(extra))
        r = tmp_path / ("r%d" % len(extra))
        assert run(["separate", "--in", str(g), "--out-system", str(s),
                    "--out-report", str(r)] + extra) == 0
        outs.append((s.read_text(), [line.split(",")
                                     for line in r.read_text().splitlines()]))
    (plain_system, plain_rows), (timed_system, timed_rows) = outs
    assert timed_system == plain_system
    col = plain_rows[0].index("elapsed_ms")
    assert len(timed_rows) == len(plain_rows)
    for plain, timed in zip(plain_rows[1:], timed_rows[1:]):
        assert timed[:col] + timed[col + 1:] == plain[:col] + plain[col + 1:]
        assert timed[col].isdigit()


def test_separate_missing_input_exit_io(tmp_path):
    assert run(["separate", "--in", str(tmp_path / "absent")]) == 3


def test_separate_malformed_input_exit_usage(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("0 1 2\n")
    assert run(["separate", "--in", str(bad)]) == 2


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_separate_bad_vertex_count_names_its_line(tmp_path, capsys, value):
    g = tmp_path / "g.edges"
    g.write_text("# n=%s\n0 1\n" % value)
    assert run(["separate", "--in", str(g)]) == 2
    assert capsys.readouterr().err == "error: line 1: bad vertex count %r\n" % value


@pytest.mark.parametrize("text, message", [
    ("# n=2\n0 5\n", "line 2: vertex 5 out of range for '# n=2' on line 1"),
    # the header may follow edges; the first edge past it is named
    ("0 1\n\n7 1\n# n=3\n1 2\n4 0\n", "line 3: vertex 7 out of range for '# n=3' on line 4"),
])
def test_separate_vertex_past_header_names_both_lines(tmp_path, capsys, text, message):
    g = tmp_path / "g.edges"
    g.write_text(text)
    assert run(["separate", "--in", str(g)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_separate_config_override(tmp_path, capsys):
    g = tmp_path / "g.edges"
    run(["gen", "path", "6", "--out", str(g)])
    # the pipeline's parameters are constants, not flags
    for flag in ("--degree-floor", "--no-such-knob"):
        with pytest.raises(SystemExit) as exc:
            run(["separate", "--in", str(g), flag, "2"])
        assert exc.value.code == 2


def test_separate_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a failed internal check is not a verification failure (exit 1)
    def broken(G, seed=0, timings=False):
        raise AssertionError("path decomposition produced 17 > n = 15 paths")

    monkeypatch.setattr("seppath.cli.separate_all", broken)
    g = tmp_path / "g.edges"
    run(["gen", "path", "6", "--out", str(g)])
    assert run(["separate", "--in", str(g)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: path decomposition produced 17 > n = 15 paths\n"


def test_verify_failure_prints_witness(tmp_path, capsys):
    g = tmp_path / "g.edges"
    s = tmp_path / "s"
    run(["gen", "path", "3", "--out", str(g)])
    G = graph_from_edge_list(g.read_text())
    bad = PathSystem(G, [Path([0, 1, 2])])
    write_atomic(str(s), system_to_text(bad))
    assert run(["verify", "--graph", str(g), "--system", str(s)]) == 1
    assert "witness" in capsys.readouterr().out


def test_verify_lone_uncovered_edge_fails(tmp_path, capsys):
    g = tmp_path / "g.edges"
    s = tmp_path / "s"
    g.write_text("# n=2\n0 1\n")
    s.write_text("# seppath-system v1\n")
    assert run(["verify", "--graph", str(g), "--system", str(s)]) == 1
    assert capsys.readouterr().out == "FAIL: edge (0, 1) lies on no path\n"


def test_verify_rejects_near_miss_headers(tmp_path):
    g = tmp_path / "g.edges"
    s = tmp_path / "s"
    run(["gen", "path", "3", "--out", str(g)])
    for header in ("# seppath-system v12", "# not a seppath-system v1 file"):
        s.write_text(header + "\n0 1\n1 2\n")
        assert run(["verify", "--graph", str(g), "--system", str(s)]) == 2
    s.write_text("#  seppath-system v1 \n0 1\n1 2\n")
    assert run(["verify", "--graph", str(g), "--system", str(s)]) == 0


def test_verify_checks_the_path_count(tmp_path, capsys):
    g = tmp_path / "g.edges"
    s = tmp_path / "s"
    run(["gen", "path", "6", "--out", str(g)])
    full = system_to_text(singleton_baseline(graph_from_edge_list(g.read_text())))
    lines = full.splitlines()
    assert lines[3] == "# paths=5"
    verify = ["verify", "--graph", str(g), "--system", str(s)]
    s.write_text(full)
    assert run(verify) == 0
    s.write_text("\n".join(lines[:-3]) + "\n")  # truncated to 2 paths
    assert run(verify) == 2
    assert capsys.readouterr().err == "error: header declares 5 paths, file holds 2\n"
    s.write_text("\n".join(lines[:3] + ["# paths=x"] + lines[4:]) + "\n")
    assert run(verify) == 2
    assert capsys.readouterr().err == "error: line 4: bad path count 'x'\n"
    # without the header the count is not checked: the 2 paths fail to separate
    s.write_text("\n".join(lines[:3] + lines[4:-3]) + "\n")
    assert run(verify) == 1


def test_verify_weak_mode_of_strong_system(tmp_path):
    g = tmp_path / "g.edges"
    s = tmp_path / "s"
    run(["gen", "complete", "4", "--out", str(g)])
    run(["separate", "--in", str(g), "--out-system", str(s)])
    assert run(["verify", "--graph", str(g), "--system", str(s),
                "--mode", "weak"]) == 0


def test_oracle_k3(tmp_path, capsys):
    g = tmp_path / "g.edges"
    run(["gen", "complete", "3", "--out", str(g)])
    assert run(["oracle", "--graph", str(g)]) == 0
    assert "minimum=3" in capsys.readouterr().out


def test_oracle_too_large_exit_usage(tmp_path):
    g = tmp_path / "g.edges"
    run(["gen", "complete", "8", "--out", str(g)])
    assert run(["oracle", "--graph", str(g)]) == 2


def test_system_text_roundtrip():
    G = generate("cycle", 5)
    system = PathSystem(G, [Path([0, 1, 2]), Path([3, 4])])
    text = system_to_text(system)
    assert paths_from_text(text) == [(0, 1, 2), (3, 4)]
    with pytest.raises(ValueError):
        paths_from_text("0 1\n")  # missing version header


def test_write_atomic_replaces(tmp_path):
    p = tmp_path / "f"
    write_atomic(str(p), "one\n")
    write_atomic(str(p), "two\n")
    assert p.read_text() == "two\n"
    assert not [x for x in os.listdir(tmp_path) if x.startswith(".seppath-tmp")]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_get_open_mode(tmp_path, umask):
    # the mode open() gives a new file, not mkstemp's 0o600
    old = os.umask(umask)
    try:
        out = tmp_path / "k4.edges"
        assert run(["gen", "complete", "4", "--out", str(out)]) == 0
        plain = tmp_path / "plain"
        with open(plain, "w"):
            pass
    finally:
        os.umask(old)
    assert (out.stat().st_mode & 0o777) == (plain.stat().st_mode & 0o777)
    assert (out.stat().st_mode & 0o777) == 0o666 & ~umask
