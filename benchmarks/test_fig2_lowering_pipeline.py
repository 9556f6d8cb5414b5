"""F2 — Figure 2: the full lowering pipeline, end to end.

SQL declaration -> relational IR -> df lowering + passes -> FlowGraph ->
physical sharded graph -> task launch over the disaggregated cluster; plus
the figure's D -> D1(gpu)/D2(fpga) dual lowering of one hardware-agnostic
vertex, executed on real GPU and FPGA device models for a direct
comparison.
"""

from __future__ import annotations

import numpy as np

from repro import Skadi
from repro.bench import ResultTable, fmt_seconds, lineitem_like_table
from repro.caching import RecordBatch
from repro.cluster import build_physical_disagg, DeviceKind
from repro.flowgraph import FlowGraph, collect_sink, launch_physical_graph, to_physical
from repro.ir import Builder, FrameType, col
from repro.runtime import ServerlessRuntime

QUERY = (
    "SELECT l_returnflag, SUM(l_extendedprice) AS revenue, COUNT(*) AS n "
    "FROM lineitem WHERE l_discount < 0.05 GROUP BY l_returnflag "
    "ORDER BY l_returnflag"
)


def run_pipeline():
    lineitem = lineitem_like_table(20_000, seed=11)
    skadi = Skadi(shards=4)
    out = skadi.sql(QUERY, {"lineitem": lineitem})
    return lineitem, skadi, out


def test_fig2_sql_through_all_tiers(benchmark):
    lineitem, skadi, out = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)
    report = skadi.last_report

    table = ResultTable(
        "Figure 2: lowering pipeline stages",
        ["stage", "artifact"],
    )
    table.add_row("declarative", QUERY.split(" FROM")[0] + " ...")
    table.add_row("logical IR ops", sum(1 for l in report.ir_text.splitlines() if "=" in l))
    table.add_row("lowered df ops", sum(1 for l in report.lowered_text.splitlines() if "=" in l))
    table.add_row("flowgraph vertices", report.graph_vertices)
    table.add_row("physical tasks", report.physical_tasks)
    table.add_row("virtual job time", fmt_seconds(report.sim_seconds))
    table.show()

    # every tier actually ran
    assert "relational.scan" in report.ir_text
    assert "df." in report.lowered_text or "kernel.fused" in report.lowered_text
    assert report.graph_vertices >= 3
    assert report.physical_tasks > report.graph_vertices  # sharding happened

    # and the answer is right
    mask = lineitem.column("l_discount") < 0.05
    flags = lineitem.column("l_returnflag")[mask]
    prices = lineitem.column("l_extendedprice")[mask]
    for flag, revenue, n in zip(
        out.column("l_returnflag").tolist(),
        out.column("revenue").tolist(),
        out.column("n").tolist(),
        strict=False,
    ):
        sel = flags == flag
        assert n == int(sel.sum())
        assert abs(revenue - prices[sel].sum()) < 1e-6 * max(1.0, prices[sel].sum())


def test_fig2_dual_backend_vertex(benchmark):
    """The MLIR-based vertex D lowered onto GPU (D1) and FPGA (D2)."""

    def build_and_run():
        rng = np.random.default_rng(7)
        t = RecordBatch.from_arrays(
            {"k": rng.integers(0, 100, 50_000), "x": rng.random(50_000)}
        )
        cluster = build_physical_disagg()
        gpu = cluster.devices_of_kind(DeviceKind.GPU)[0]
        fpga = cluster.devices_of_kind(DeviceKind.FPGA)[0]

        def make_d():
            b = Builder("D")
            p = b.add_param("in", FrameType((("k", "int64"), ("x", "float64"))))
            out = b.emit(
                "df",
                "select",
                [p],
                {"columns": ("k",), "derived": (("y", col("x") * 3 + 1, "float64"),)},
            )
            return b.ret(out.result())

        graph = FlowGraph("fig2-D")
        src = graph.add_vertex("B", source_table="t", parallelism=2)
        d = graph.add_vertex("D", ir_func=make_d(), parallelism=2, compute_cost=2e-3)
        graph.add_edge(src, d)
        pgraph = to_physical(
            graph, device_pins={d.vertex_id: [gpu.device_id, fpga.device_id]}
        )
        rt = ServerlessRuntime(cluster)
        outs = launch_physical_graph(rt, pgraph, tables={"t": t})
        merged = collect_sink(rt, outs, d)
        timelines = {tl.name: tl for tl in rt.timelines}
        return t, merged, timelines, gpu, fpga

    t, merged, timelines, gpu, fpga = benchmark.pedantic(
        build_and_run, rounds=1, iterations=1
    )

    d1 = timelines["D[0/2]"]
    d2 = timelines["D[1/2]"]
    assert d1.device == gpu.device_id  # D1 ran on the GPU
    assert d2.device == fpga.device_id  # D2 ran on the FPGA

    table = ResultTable("Figure 2: D lowered to two backends", ["variant", "device", "exec time"])
    table.add_row("D1", d1.device, fmt_seconds(d1.end - d1.started))
    table.add_row("D2", d2.device, fmt_seconds(d2.end - d2.started))
    table.show()

    # same op, directly comparable: the faster device wins on compute time
    assert (d1.end - d1.started) < (d2.end - d2.started)
    # and the fused result is still correct
    np.testing.assert_allclose(
        np.sort(merged.column("y")), np.sort(t.column("x") * 3 + 1)
    )
