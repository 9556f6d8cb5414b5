"""Smoke test of the ledger at ``--scale 0.05`` (collected by ``pytest benchmarks``).

Checks the ``BENCHMARK.json`` schema against the metric tables, that every
oracle is green on a small full run, the layer profile the design promises
(planner spans only on ``sql_suite``, health only on ``chaos_soak``, ...),
and that a crashing episode or a hung child is recorded instead of raised.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE.parent)):
    if path not in sys.path:
        sys.path.insert(0, path)

from ledger import child, compare, run, workloads  # noqa: E402
from ledger import manifest as mf  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_benchmark_json_matches_the_metric_tables():
    m = mf.load()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert m["paths"] == ["benchmarks/ledger"]
    names = [w["name"] for w in m["workloads"]]
    assert names == list(workloads.WORKLOADS) and len(names) == 6
    e2e = [x["name"] for x in m["end_to_end"]]
    layer = [x["name"] for x in m["per_layer"]]
    assert len(e2e) <= 16 and len(layer) <= 128
    every = names + e2e + layer
    assert len(set(every)) == len(every)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in every)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    assert all(0 <= x["bound"] <= 0.25 for x in m["end_to_end"])
    assert all(x["better"] in ("higher", "lower") for x in m["end_to_end"] + m["per_layer"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in m["end_to_end"]
    # every metric has a formula, and every per-layer metric names the
    # end-to-end metric and the workload it is expected to move
    assert set(mf.END_TO_END) | set(mf.POOLED) == set(e2e)
    assert set(mf.PER_LAYER) == set(layer)
    for _name, (_how, moves, on) in mf.PER_LAYER.items():
        assert moves in e2e and on in names


def test_small_full_run_is_green_and_layers_light_up_where_designed(tmp_path):
    out = tmp_path / "summary.json"
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--seed", "7", "--scale", "0.05",
            "--rounds", "1", "--out", str(out), "--trace-dir", str(tmp_path / "traces"),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())["workloads"]
    m = mf.load()
    for name, s in summary.items():
        assert s["correct"] and s["failed"] == 0, (name, s["failures"])
        for metric in m["end_to_end"]:
            assert s["end_to_end"][metric["name"]]["value"] > 0, (name, metric["name"])
            assert metric["name"] in proc.stdout
        for trace_file in s["trace_files"]:
            trace = json.loads(Path(trace_file).read_text())
            assert trace["span_count"] >= trace["spans_kept"] > 0

    def layer(workload, metric):
        return summary[workload]["per_layer"][metric]["value"]

    only_on = {
        "sql_suite": ("sql.plan_self_s", "ir.interpreter_self_s", "core.planner_self_s"),
        "chaos_soak": ("health.beats_received",),
        "serving": ("serving.offered", "serving.offer_self_s", "overload.admission_rejected"),
    }
    for home, metrics in only_on.items():
        for metric in metrics:
            for name in summary:
                assert (layer(name, metric) > 0) == (name == home), (name, metric)
    assert layer("chaos_soak", "chaos.faults_injected") > 0
    assert layer("shuffle", "network.link_bytes_per_op") >= 1000 * layer(
        "taskgraph_push", "network.link_bytes_per_op"
    )
    # self times plus the unattributed share account for the traced window
    for name in summary:
        assert 0 <= layer(name, "trace.unattributed_share") < 1
        assert layer(name, "trace.spans") > 0


def test_driver_form_ends_with_the_contract_line():
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "shuffle", "--seed", "3",
            "--seconds", "0", "--trace", "0", "--scale", "0.05",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {x["name"] for x in mf.load()["end_to_end"]}


def test_seed_reaches_the_inputs():
    for wl in workloads.WORKLOADS.values():
        a, b = wl.generate(1, 0.05), wl.generate(2, 0.05)
        assert repr(a) != repr(b), wl.name
        assert repr(a) == repr(wl.generate(1, 0.05)), wl.name


def test_known_runtime_crash_is_recorded_not_raised(capsys):
    crashing = min(workloads.CHAOS_CRASHING_SEEDS)
    wl = workloads.ChaosSoakWorkload()
    wl.generate = lambda seed, scale: [  # one vetted episode, one known to crash
        workloads.ChaosEpisode(s, list(range(workloads.CHAOS_LANES))) for s in (0, crashing)
    ]
    record = child.repetition(wl, seed=0, scale=1.0, tracer=None)
    capsys.readouterr()  # the planned_ops line
    assert record["clean_episodes"] == 1 and record["episodes"] == 2
    assert record["failed"] == record["attempted"] // 2 > 0
    assert any(f.startswith(("KeyError", "AttributeError")) for f in record["failures"])


def test_hung_child_is_killed_and_counted(monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.05)
    rep = run.run_child("shuffle", 1, 0.05, False, None)
    assert rep["dead"] and rep["failures"][0].startswith("WallWatchdog")
    summary = run.summarise([rep], [], mf.load())
    assert not summary["correct"] and summary["failed"] == summary["attempted"] >= 1


def test_compare_verdicts():
    metric = {"name": "ops_per_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.10}
    cell = lambda v, q1=None, q3=None: {"value": v, "q1": q1, "q3": q3}  # noqa: E731
    assert compare.verdict(metric, cell(100.0), cell(80.0)) == "worse"
    assert compare.verdict(metric, cell(100.0), cell(120.0)) == "better"
    assert compare.verdict(metric, cell(100.0), cell(95.0)) == "unchanged"
    assert compare.verdict(metric, cell(100.0, 90.0, 110.0), cell(80.0)) == "unresolved"
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert compare.verdict(setup, cell(0.02), cell(0.06)) == "unchanged"  # the 50 ms floor
    assert compare.verdict(setup, cell(0.40), cell(0.60)) == "worse"
