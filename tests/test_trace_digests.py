"""The trace-digest gate: a change lists the traces it means to move, and
every other move, or a listed one that did not happen, fails."""

from __future__ import annotations

from trace_digests import compare, load_expected


def line(nodeid: str, log: str = "a1b2c3", now: str = "0.5", probe: str = "-") -> str:
    # nodeid #i sha1(log) n_events sim.now control_messages bytes_moved probe sha1(metrics);
    # probe "" writes a line of a file from before the probe column
    return " ".join((nodeid, "#0", log, "7", now, "12", "4096", *([probe] if probe else []), "f00d\n"))


def run(tmp_path, head_lines, moves_text, capsys, base_probe="-"):
    base, head, moves = tmp_path / "base.txt", tmp_path / "head.txt", tmp_path / "moves.txt"
    base.write_text(
        "".join(line(nodeid, probe=base_probe) for nodeid in ("t.py::a", "t.py::b[x]", "t.py::b[y]"))
    )
    head.write_text("".join(head_lines))
    moves.write_text(moves_text)
    code = compare(str(base), str(head), load_expected(str(moves)))
    return code, capsys.readouterr().out


def test_a_listed_move_is_expected(tmp_path, capsys):
    code, out = run(
        tmp_path,
        [
            line("t.py::a", log="ffffff"),
            line("t.py::b[x]", now="0.7"),
            line("t.py::b[y]", now="0.9"),
        ],
        "# the moves of this change\n\nt.py::a  # a new log\nt.py::b[  # both cells\n",
        capsys,
    )
    assert code == 0
    assert out.count("EXPECTED MOVE") == 3 and "# both cells" in out


def test_an_unlisted_move_fails(tmp_path, capsys):
    code, out = run(
        tmp_path,
        [line("t.py::a", log="ffffff"), line("t.py::b[x]", now="0.7"), line("t.py::b[y]")],
        "t.py::a  # a new log\n",
        capsys,
    )
    assert code == 1
    assert "TRACE MOVED: t.py::b[x] #0" in out and "EXPECTED MOVE: t.py::a #0" in out


def test_a_listed_entry_that_did_not_move_is_stale(tmp_path, capsys):
    code, out = run(
        tmp_path,
        [line("t.py::a"), line("t.py::b[x]"), line("t.py::b[y]")],
        "t.py::a  # left over from an earlier change\n",
        capsys,
    )
    assert code == 1
    assert "STALE EXPECTATION" in out and "t.py::a" in out


def test_a_moved_probe_stream_fails(tmp_path, capsys):
    code, out = run(
        tmp_path,
        [line("t.py::a", probe="beef"), line("t.py::b[x]"), line("t.py::b[y]")],
        "",
        capsys,
        base_probe="cafe",
    )
    assert code == 1
    assert "TRACE MOVED: t.py::a #0 a1b2c3 7 0.5 12 4096 cafe -> a1b2c3 7 0.5 12 4096 beef" in out


def test_a_file_from_before_the_probe_column_compares_on_the_columns_it_has(tmp_path, capsys):
    code, out = run(
        tmp_path,
        [line("t.py::a", probe="beef"), line("t.py::b[x]", now="0.7"), line("t.py::b[y]")],
        "t.py::b[x]  # a new clock\n",
        capsys,
        base_probe="",
    )
    assert code == 0
    assert out.count("EXPECTED MOVE") == 1 and "only in" not in out
