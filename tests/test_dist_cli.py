"""CLI coverage: ``python -m repro.analysis.dist`` over trace files and
directories, the one command that sanitizes a dist trace."""

from __future__ import annotations

import json

from repro.analysis.cli import main as analysis_main
from repro.analysis.dist.cli import expand_trace_targets, main as dist_main
from repro.analysis.dist.events import DistTrace


def clean_trace():
    trace = DistTrace()
    trace.record(0.0, "driver", "submit", detail=(("task", "t"),),
                 sends=("submit:t",))
    trace.record(1e-3, "gcs", "dispatch", detail=(("task", "t"),),
                 recvs=("submit:t",), sends=("lease:t:0:1",))
    trace.record(2e-3, "attempt:t#1", "attempt_start",
                 detail=(("task", "t"),), recvs=("lease:t:0:1",))
    trace.record(3e-3, "attempt:t#1", "attempt_commit",
                 detail=(("task", "t"),), sends=("done:t",))
    trace.record(4e-3, "gcs", "task_finish", detail=(("task", "t"),),
                 recvs=("done:t",))
    return trace


def dirty_trace():
    trace = DistTrace()
    # concurrent conflicting writes -> one race; duplicate create -> violation
    trace.record(0.0, "a", "own_create",
                 detail=(("object", "o"), ("old", None),
                         ("new", "PENDING"), ("locations", 0)),
                 accesses=(("dir:o", "w"),))
    trace.record(1e-3, "b", "own_create",
                 detail=(("object", "o"), ("old", None),
                         ("new", "PENDING"), ("locations", 0)),
                 accesses=(("dir:o", "w"),))
    return trace


class TestExpandTargets:
    def test_directory_scan_keeps_only_dist_traces(self, tmp_path):
        clean_trace().dump(str(tmp_path / "a.json"))
        (tmp_path / "bench.json").write_text(json.dumps({"metric": 1}))
        (tmp_path / "notes.txt").write_text("hi")
        sub = tmp_path / "sub"
        sub.mkdir()
        dirty_trace().dump(str(sub / "b.json"))
        targets = expand_trace_targets([str(tmp_path)])
        assert [t.name for t in targets] == ["a.json", "b.json"]

    def test_explicit_files_are_kept_even_without_sniffing(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert expand_trace_targets([str(bogus)]) == [bogus]


class TestDistCli:
    def test_clean_trace_exits_zero(self, tmp_path, capsys):
        clean_trace().dump(str(tmp_path / "t.json"))
        assert dist_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "clean: no invariant violations, no races" in out

    def test_dirty_trace_exits_nonzero_and_reports(self, tmp_path, capsys):
        dirty_trace().dump(str(tmp_path / "t.json"))
        assert dist_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "race" in out and "duplicate owner" in out

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        dirty_trace().dump(str(tmp_path / "t.json"))
        assert dist_main(["--json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["clean"] is False
        assert payload["races"] and payload["violations"]
        assert payload["races"][0]["var"] == "dir:o"

    def test_no_hb_skips_race_detection(self, tmp_path, capsys):
        trace = DistTrace()
        trace.record(0.0, "a", "w1", accesses=(("dir:o", "w"),))
        trace.record(1e-3, "b", "w2", accesses=(("dir:o", "w"),))
        trace.dump(str(tmp_path / "t.json"))
        assert dist_main(["--no-hb", str(tmp_path)]) == 0

    def test_partial_skips_end_of_trace_checks(self, tmp_path):
        trace = DistTrace()
        for kind in ("fetch_begin", "fetch_dedup"):
            trace.record(0.0, "raylet@d", kind, detail=(("object", "o"), ("device", "d")))
        trace.dump(str(tmp_path / "t.json"))
        assert dist_main([str(tmp_path)]) == 1  # a dedup follower parked at drain
        assert dist_main(["--partial", str(tmp_path)]) == 0

    def test_all_races_reports_every_instance(self, tmp_path, capsys):
        trace = DistTrace()
        for oid in ("o1", "o2"):
            trace.record(0.0, "a", "rd", detail=(("object", oid),),
                         accesses=((f"dir:{oid}", "r"),))
            trace.record(1e-3, "b", "wr", detail=(("object", oid),),
                         accesses=((f"dir:{oid}", "w"),))
        trace.dump(str(tmp_path / "t.json"))
        dist_main(["--json", str(tmp_path)])
        deduped = json.loads(capsys.readouterr().out.strip())
        dist_main(["--json", "--all-races", str(tmp_path)])
        full = json.loads(capsys.readouterr().out.strip())
        assert len(deduped["races"]) == 1
        assert len(full["races"]) == 2

    def test_bad_trace_file_is_a_loud_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert dist_main([str(bogus)]) == 1
        assert "error[bad-trace]" in capsys.readouterr().out

    def test_empty_scan_is_not_a_failure(self, tmp_path, capsys):
        assert dist_main([str(tmp_path)]) == 0
        assert "no trace files found" in capsys.readouterr().out


class TestAnalysisCliTakesNoTraces:
    def test_a_trace_target_points_to_the_dist_cli(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        clean_trace().dump(str(path))
        assert analysis_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "error[not-a-program]" in out and "python -m repro.analysis.dist" in out
        assert "dist-sanitizer" not in out
