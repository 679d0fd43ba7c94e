import os

import pytest

from seppath.cli import main, paths_from_text, system_to_text, write_atomic
from seppath.graphs import Path, generate, graph_from_edge_list
from seppath.separation import PathSystem


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


def test_separate_missing_input_exit_io(tmp_path):
    assert run(["separate", "--in", str(tmp_path / "absent")]) == 3


def test_separate_malformed_input_exit_usage(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("0 1 2\n")
    assert run(["separate", "--in", str(bad)]) == 2


def test_separate_config_override(tmp_path, capsys):
    g = tmp_path / "g.edges"
    run(["gen", "path", "6", "--out", str(g)])
    assert run(["separate", "--in", str(g), "--degree-floor", "2"]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["separate", "--in", str(g), "--no-such-knob", "1"])
    assert exc.value.code == 2


def test_verify_failure_prints_witness(tmp_path, capsys):
    g = tmp_path / "g.edges"
    s = tmp_path / "s"
    run(["gen", "path", "3", "--out", str(g)])
    G = graph_from_edge_list(g.read_text())
    bad = PathSystem(G, [Path([0, 1, 2])])
    write_atomic(str(s), system_to_text(bad))
    assert run(["verify", "--graph", str(g), "--system", str(s)]) == 1
    assert "witness" in capsys.readouterr().out


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
