"""E19 — Skadi-lint: static analysis is cheap, and it catches real hazards.

Two claims:

1. **Overhead** — running the whole analysis layer (collect-all verify +
   lint of the optimized IR, plus the plan sanitizer) adds less than 5% on
   top of building the plan itself (SQL -> relational opt -> lowering ->
   pass fixpoint -> FlowGraph -> physical), so it is cheap enough to leave
   on in every pipeline.
2. **Hazard detection** — after chaos kills a node mid-run (the E2-style
   shard cluster), a plan still pinned to the dead node's device is caught
   *statically* by ``Scheduler.sanitize_plan`` and refused in strict mode,
   instead of hanging at launch.
"""

from __future__ import annotations

import gc
import time

from repro.analysis import (
    DeviceView,
    PlanSanitizerError,
    lint_function,
    sanitize_plan,
    verify_function,
)
from repro.bench import ResultTable, fmt_seconds
from repro.caching.columnar import RecordBatch
from repro.cluster import DeviceKind, build_serverful
from repro.core.planner import ir_to_flowgraph
from repro.flowgraph.launch import launch_physical_graph
from repro.flowgraph.optimizer import optimize
from repro.flowgraph.physical import to_physical
from repro.frontends.sql.planner import sql_to_ir
from repro.ir.lowering import optimize_and_lower
from repro.ir.types import FrameType
from repro.runtime import RuntimeConfig, ServerlessRuntime

import numpy as np

QUERY = """
SELECT a, SUM(b) AS s1, SUM(b * c) AS s2, SUM(b * (1 - c)) AS s3,
       SUM(b * (1 - c) * (1 + c)) AS s4, AVG(b) AS a1, AVG(c) AS a2,
       MIN(b) AS lo, MAX(c) AS hi, COUNT(*) AS n
FROM t WHERE a > 10 AND b > 0 AND c < 100
GROUP BY a ORDER BY a LIMIT 100
"""
CATALOG = {
    "t": FrameType((("a", "int64"), ("b", "float64"), ("c", "float64")))
}
SHARDS = 2
REPS = 25
ROUNDS = 6


def build_plan():
    """The full plan-build pipeline for the query, mirroring what
    ``Skadi._run_ir`` does before launch (including the IR renderings that
    go into every ``QueryReport``) — everything except execution."""
    func = sql_to_ir(QUERY, CATALOG)
    ir_text = func.to_text()
    lowered = optimize_and_lower(func)
    lowered_text = lowered.to_text()
    assert ir_text and lowered_text
    graph, _sink = ir_to_flowgraph(
        lowered, shards=SHARDS, table_rows={"t": 10_000}
    )
    optimize(graph)
    return lowered, to_physical(graph)


def analyze_plan(lowered, pgraph, devices):
    verify_function(lowered)
    lint_function(lowered)
    sanitize_plan(pgraph, devices=devices)


def test_e19_analysis_overhead(benchmark):
    # the scheduler holds one DeviceView across launches (rebuilt only when
    # the blacklist changes), so the benchmark reuses one the same way
    devices = DeviceView(build_serverful(n_servers=4).all_devices())

    def measured():
        analyze_plan(*build_plan(), devices)  # warm both code paths

        # timeit-style measurement: GC off inside the timed region, min over
        # rounds — scheduler and allocator noise only ever add time
        build_seconds = analysis_seconds = float("inf")
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(ROUNDS):
                start = time.perf_counter()
                plans = [build_plan() for _ in range(REPS)]
                build_seconds = min(build_seconds, time.perf_counter() - start)

                start = time.perf_counter()
                for lowered, pgraph in plans:
                    analyze_plan(lowered, pgraph, devices)
                analysis_seconds = min(
                    analysis_seconds, time.perf_counter() - start
                )
                del plans
                gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        return build_seconds, analysis_seconds

    build_seconds, analysis_seconds = benchmark.pedantic(
        measured, rounds=1, iterations=1
    )
    overhead = analysis_seconds / build_seconds

    table = ResultTable(
        f"E19: analysis overhead over {REPS} plan builds ({SHARDS} shards)",
        ["stage", "time", "per plan"],
    )
    table.add_row(
        "plan build", fmt_seconds(build_seconds), fmt_seconds(build_seconds / REPS)
    )
    table.add_row(
        "verify + lint + sanitize",
        fmt_seconds(analysis_seconds),
        fmt_seconds(analysis_seconds / REPS),
    )
    table.add_row("overhead", f"{overhead * 100:.2f}%", "")
    table.show()

    assert overhead < 0.05, (
        f"analysis costs {overhead * 100:.1f}% of plan building (budget: 5%)"
    )


def test_e19_sanitizer_catches_chaos_placement_hazard(benchmark):
    def scenario():
        cluster = build_serverful(n_servers=4)
        runtime = ServerlessRuntime(cluster, RuntimeConfig(strict_plans=True))
        victim_cpu = cluster.node("server3").first_of_kind(DeviceKind.CPU)

        # a plan whose second stage is pinned to server3's CPU (a perfectly
        # good device at planning time)
        lowered, _ = build_plan()
        graph, _sink = ir_to_flowgraph(
            lowered, shards=1, table_rows={"t": 1_000}
        )
        pgraph = to_physical(
            graph,
            device_pins={graph.topological_order()[-1].vertex_id: [victim_cpu.device_id]},
        )
        clean = runtime.scheduler.sanitize_plan(pgraph)

        # chaos: the node dies; the failure path blacklists its devices
        runtime.fail_node("server3")
        after = runtime.scheduler.sanitize_plan(pgraph)

        table = RecordBatch.from_pydict(
            {"a": np.arange(100, dtype="int64"), "b": np.ones(100)}
        )
        refused = False
        try:
            launch_physical_graph(runtime, pgraph, tables={"t": table})
        except PlanSanitizerError:
            refused = True
        return clean, after, refused

    clean, after, refused = benchmark.pedantic(scenario, rounds=1, iterations=1)

    table = ResultTable(
        "E19: plan pinned to a node chaos kills mid-run",
        ["moment", "sanitizer verdict"],
    )
    table.add_row("before the crash", "clean" if clean.ok else "errors")
    table.add_row(
        "after the crash", ", ".join(after.codes()) if after else "clean"
    )
    table.add_row("strict launch", "refused" if refused else "allowed")
    table.show()

    assert clean.ok, clean.render()
    assert "pin-dead-device" in after.codes()
    assert refused
